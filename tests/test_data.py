from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcrl.data import (DataError, EnvironmentBatch, IdxFormatError,
                        MnistPairSpec, SemSpec, compose_multimnist,
                        factor_means, gen_multisem, load_idx, partition_pairs,
                        read_container, split_environments, write_batch_csv,
                        write_container, write_idx_images, write_idx_labels)


class TestMultiSem:
    def test_full_agreement(self):
        spec = SemSpec(n_train=200, n_valid=50, n_test=50, m_c_train=1.0)
        train, _, _ = gen_multisem(spec)
        np.testing.assert_array_equal(train.labels[0], train.labels[1])

    def test_agreement_rate_concentrates(self):
        spec = SemSpec(n_train=10000, n_valid=10, n_test=10, m_c_train=0.5)
        train, _, _ = gen_multisem(spec)
        agree = np.mean(train.labels[0] == train.labels[1])
        assert abs(agree - 0.5) < 3 * np.sqrt(0.25 / 10000)

    def test_splits_carry_their_own_agreement(self):
        spec = SemSpec(n_train=4000, n_valid=4000, n_test=4000,
                       m_c_train=0.9, m_c_valid=0.7, m_c_test=0.1)
        for batch, m_c in zip(gen_multisem(spec), (0.9, 0.7, 0.1)):
            agree = np.mean(batch.labels[0] == batch.labels[1])
            assert abs(agree - m_c) < 0.03

    def test_balanced_first_task(self):
        spec = SemSpec(n_train=1000, n_valid=10, n_test=10)
        train, _, _ = gen_multisem(spec)
        assert train.labels[0].sum() == 0.0

    def test_class_conditional_factor_means(self):
        spec = SemSpec(n_train=8000, n_valid=10, n_test=10, seed=3)
        mu = factor_means(spec)
        train, _, _ = gen_multisem(spec)
        for t in range(spec.tasks):
            pos = train.inputs[train.labels[t] == 1.0][:, train.causal_masks[t]]
            bound = 4 * spec.sigma / np.sqrt(pos.shape[0])
            assert np.all(np.abs(pos.mean(axis=0) - mu[t]) < bound)

    def test_masks_disjoint_and_cover(self):
        spec = SemSpec(tasks=3, n_train=10, n_valid=10, n_test=10)
        train, _, _ = gen_multisem(spec)
        stacked = np.stack([train.causal_masks[t] for t in range(3)])
        assert np.all(stacked.sum(axis=0) == 1)

    def test_nuisance_dims_outside_every_mask(self):
        spec = SemSpec(nuisance_dims=4, n_train=10, n_valid=10, n_test=10)
        train, _, _ = gen_multisem(spec)
        stacked = np.stack([train.causal_masks[t] for t in range(2)])
        assert np.all(stacked[:, -4:] == False)  # noqa: E712
        assert train.inputs.shape[1] == 24

    def test_deterministic_bytes(self):
        spec = SemSpec(n_train=50, n_valid=50, n_test=50, seed=11)
        a = gen_multisem(spec)
        b = gen_multisem(spec)
        for x, y in zip(a, b):
            assert x.inputs.tobytes() == y.inputs.tobytes()
            assert x.labels[0].tobytes() == y.labels[0].tobytes()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(3, 6), st.floats(0.3, 0.9))
    def test_chained_adjacent_agreement(self, tasks, m_c):
        spec = SemSpec(tasks=tasks, n_train=6000, n_valid=10, n_test=10,
                       m_c_train=m_c, seed=1)
        train, _, _ = gen_multisem(spec)
        for t in range(tasks - 1):
            agree = np.mean(train.labels[t] == train.labels[t + 1])
            assert abs(agree - m_c) < 0.05

    def test_too_small_for_balance(self):
        with pytest.raises(DataError, match="balanced"):
            gen_multisem(SemSpec(n_train=1, n_valid=10, n_test=10))

    def test_spec_validation(self):
        with pytest.raises(DataError):
            SemSpec(m_c_train=1.5)
        with pytest.raises(DataError):
            SemSpec(sigma=0.0)


def fake_digits(tmp_path, n_per_class=6, rows=6, cols=5, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for c in range(classes):
        for _ in range(n_per_class):
            img = np.zeros((rows, cols))
            img[c % rows, :] = 1.0  # crude class-specific stripe
            img += 0.05 * rng.random((rows, cols))
            images.append(np.clip(img, 0, 1))
            labels.append(c)
    order = rng.permutation(len(images))
    images = np.array(images)[order]
    labels = np.array(labels)[order]
    ipath, lpath = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)
    return str(ipath), str(lpath), images, labels


class TestIdx:
    def test_round_trip_shapes_and_scaling(self, tmp_path):
        ipath, lpath, images, labels = fake_digits(tmp_path)
        loaded = load_idx(ipath)
        assert loaded.shape == images.shape
        assert loaded.max() <= 1.0 and loaded.min() >= 0.0
        np.testing.assert_array_equal(load_idx(lpath), labels)

    def test_byte_255_scales_to_one(self, tmp_path):
        path = tmp_path / "ones.idx"
        write_idx_images(path, np.ones((1, 2, 2)))
        assert load_idx(path).max() == 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x00\x00" + b"\x00" * 16)
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(path)

    def test_truncated_file(self, tmp_path):
        ipath, _, _, _ = fake_digits(tmp_path)
        data = Path(ipath).read_bytes()
        path = tmp_path / "trunc.idx"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(path)


class TestMultiMnist:
    def test_composition_contract(self, tmp_path):
        ipath, lpath, _, _ = fake_digits(tmp_path)
        spec = MnistPairSpec(images_path=ipath, labels_path=lpath,
                             pairs_per_class_pair=3, split_seed=0)
        train, valid, test = compose_multimnist(spec)
        assert train.input_dim == 6 * 5 * 2  # width doubles
        assert train.n_samples == 60 * 3     # 60 train pairs, 3 samples each
        assert valid.n_samples == 20 * 3 and test.n_samples == 20 * 3

    def test_pair_partition_is_disjoint_and_sized(self):
        spec = MnistPairSpec(pairs_per_class_pair=1, split_seed=4)
        train_p, valid_p, test_p = partition_pairs(spec)
        assert len(train_p) == 60 and len(valid_p) == 20 and len(test_p) == 20
        assert not (set(train_p) & set(test_p))
        assert not (set(train_p) & set(valid_p))
        assert not (set(valid_p) & set(test_p))

    def test_observed_label_pairs_do_not_overlap(self, tmp_path):
        ipath, lpath, _, _ = fake_digits(tmp_path)
        spec = MnistPairSpec(images_path=ipath, labels_path=lpath,
                             pairs_per_class_pair=2)
        train, valid, test = compose_multimnist(spec)

        def pairs(batch):
            return set(zip(batch.labels[0].tolist(), batch.labels[1].tolist()))

        assert not (pairs(train) & pairs(test))
        assert not (pairs(train) & pairs(valid))

    def test_masks_split_left_right(self, tmp_path):
        ipath, lpath, _, _ = fake_digits(tmp_path)
        spec = MnistPairSpec(images_path=ipath, labels_path=lpath,
                             pairs_per_class_pair=1)
        train, _, _ = compose_multimnist(spec)
        left, right = train.causal_masks[0], train.causal_masks[1]
        assert left.sum() == right.sum() == 6 * 5
        assert not np.any(left & right) and np.all(left | right)
        # left mask marks the left half of each pixel row
        grid = left.reshape(6, 10)
        assert np.all(grid[:, :5]) and not np.any(grid[:, 5:])

    def test_count_mismatch_rejected(self, tmp_path):
        ipath, lpath, images, labels = fake_digits(tmp_path)
        bad = tmp_path / "short.idx"
        write_idx_labels(bad, labels[:-3])
        spec = MnistPairSpec(images_path=ipath, labels_path=str(bad))
        with pytest.raises(IdxFormatError, match="count"):
            compose_multimnist(spec)

    def test_missing_class_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, rng.random((20, 4, 4)))
        write_idx_labels(lpath, np.zeros(20))  # only class 0 present
        spec = MnistPairSpec(images_path=str(ipath), labels_path=str(lpath))
        with pytest.raises(DataError, match="class"):
            compose_multimnist(spec)

    def test_deterministic(self, tmp_path):
        ipath, lpath, _, _ = fake_digits(tmp_path)
        spec = MnistPairSpec(images_path=ipath, labels_path=lpath,
                             pairs_per_class_pair=2, split_seed=9)
        a = compose_multimnist(spec)
        b = compose_multimnist(spec)
        assert a[0].inputs.tobytes() == b[0].inputs.tobytes()


class TestEnvironments:
    def test_default_two_environment_naming(self):
        spec = SemSpec(n_train=20, n_valid=20, n_test=20)
        train, valid, _ = gen_multisem(spec)
        envs = split_environments(train, valid)
        assert [e.env_id for e in envs] == ["train", "valid"]

    def test_n_environment_tagging(self):
        spec = SemSpec(n_train=20, n_valid=20, n_test=20)
        batches = gen_multisem(spec)
        envs = split_environments(*batches)
        assert [e.env_id for e in envs] == ["env0", "env1", "env2"]
        envs = split_environments(*batches, names=("a", "b", "c"))
        assert [e.env_id for e in envs] == ["a", "b", "c"]

    def test_rejects_empty(self):
        empty = EnvironmentBatch("x", np.zeros((0, 2)), {0: np.zeros(0)},
                                 {0: np.zeros(2, bool)})
        with pytest.raises(DataError):
            split_environments(empty)


class TestExport:
    def test_container_round_trip(self, tmp_path):
        spec = SemSpec(n_train=30, n_valid=10, n_test=10, seed=5)
        train, _, _ = gen_multisem(spec)
        path = tmp_path / "train.mtcrl"
        write_container(path, train)
        back = read_container(path)
        assert back.env_id == train.env_id
        np.testing.assert_array_equal(back.inputs, train.inputs)
        for t in train.tasks:
            np.testing.assert_array_equal(back.labels[t], train.labels[t])
            np.testing.assert_array_equal(back.causal_masks[t],
                                          train.causal_masks[t])

    def test_container_magic_guard(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAG" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            read_container(path)

    def test_csv_export(self, tmp_path):
        spec = SemSpec(n_train=6, n_valid=6, n_test=6)
        train, _, _ = gen_multisem(spec)
        path = tmp_path / "train.csv"
        write_batch_csv(path, train)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("x0,") and lines[0].endswith("y0,y1")
        assert len(lines) == 7
