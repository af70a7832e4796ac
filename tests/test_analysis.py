import numpy as np
import pytest

from mtcrl import tensor as T
from mtcrl.analysis import (AnalysisError, UndefinedScoreError, CorrHeatmap,
                            factor_gradient, module_corr_heatmap,
                            spurious_score, svg_heatmap,
                            task_module_gradients, task_similarity,
                            write_matrix_csv)
from mtcrl.data import EnvironmentBatch
from mtcrl.model import MtlModel, TapeBinding


def make_model(tasks=2, k=2, input_dim=4, total_dim=4, seed=0, kind="mse",
               head_out=1, hidden=(6,)):
    rng = np.random.default_rng(seed)
    return MtlModel(tasks=tasks, k=k, input_dim=input_dim, total_dim=total_dim,
                    encoder_hidden=hidden,
                    head_out=head_out, loss_kind=kind, rng=rng)


def make_batch(input_dim=4, tasks=2, n=10, seed=0, int_labels=False):
    rng = np.random.default_rng(seed)
    masks = {t: np.zeros(input_dim, dtype=bool) for t in range(tasks)}
    for t in range(tasks):
        masks[t][t::tasks] = True
    labels = {
        t: (rng.integers(0, 2, size=n) if int_labels
            else rng.choice([-1.0, 1.0], size=n))
        for t in range(tasks)
    }
    return EnvironmentBatch("train", rng.normal(size=(n, input_dim)), labels,
                            masks)


class TestFactorGradient:
    def test_linear_scorer_grad_is_count_times_weight(self):
        rng = np.random.default_rng(1)
        w = np.array([0.7, -1.3, 0.0, 2.1])
        model = MtlModel(tasks=1, k=1, input_dim=4, total_dim=4,
                         encoder_hidden=(), head_out=1,
                         loss_kind="mse", rng=rng)
        model.load_state({**model.state_dict(),
                          "module0.layer0.weight": np.eye(4),
                          "module0.layer0.bias": np.zeros((1, 4)),
                          "head0.layer0.weight": w[:, None],
                          "head0.layer0.bias": np.zeros((1, 1))})
        model.routing.theta.value[:] = 60.0  # routing weight ~ 1
        batch = make_batch(tasks=1, n=7, seed=2)
        grad = factor_gradient(model, batch)
        assert grad.shape == (1, 4)
        np.testing.assert_allclose(grad[0], 7 * np.abs(w), atol=1e-9)

    def test_dead_input_dimension_gets_zero(self):
        model = make_model(seed=3)
        state = {n: v.copy() for n, v in model.state_dict().items()}
        for c in range(model.k):
            state[f"module{c}.layer0.weight"][2, :] = 0.0  # input dim 2 disconnected
        model.load_state(state)
        batch = make_batch(seed=3)
        np.testing.assert_array_equal(factor_gradient(model, batch)[:, 2], 0.0)

    def test_duplicated_dataset_doubles_gradient(self):
        model = make_model(seed=4)
        batch = make_batch(seed=4)
        double = EnvironmentBatch(
            "train", np.vstack([batch.inputs, batch.inputs]),
            {t: np.concatenate([v, v]) for t, v in batch.labels.items()},
            batch.causal_masks)
        np.testing.assert_allclose(factor_gradient(model, double),
                                   2 * factor_gradient(model, batch),
                                   rtol=1e-12)

    def test_matches_finite_differences(self):
        model = make_model(seed=5, kind="xent", head_out=3)
        batch = make_batch(seed=5, int_labels=True)
        grad = factor_gradient(model, batch)
        step = 1e-6

        def true_class_scores(x, t):
            binding = TapeBinding(T.Tape())
            out = model.predict(binding, model.encode(binding, x)).data
            labels = batch.labels[t].astype(int)
            return out[np.arange(len(labels)), 3 * t + labels]

        numeric = np.zeros_like(grad)
        for t in range(model.tasks):
            for d in range(batch.input_dim):
                up, down = batch.inputs.copy(), batch.inputs.copy()
                up[:, d] += step
                down[:, d] -= step
                per_sample = (true_class_scores(up, t)
                              - true_class_scores(down, t)) / (2 * step)
                numeric[t, d] = np.abs(per_sample).sum()
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)


    @pytest.mark.parametrize("kind, head_out", [("mse", 1), ("xent", 3)])
    def test_matches_one_forward_pass_reference(self, kind, head_out):
        # reference: every task's gradient from one forward pass, which
        # create_graph=True walks leave intact
        model = make_model(tasks=3, k=3, total_dim=6, seed=6, kind=kind,
                           head_out=head_out)
        batch = make_batch(tasks=3, seed=6, int_labels=kind == "xent")
        tape = T.Tape()
        binding = TapeBinding(tape)
        x = tape.leaf(batch.inputs)
        out = T.reshape(model.predict(binding, model.encode(binding, x)),
                        (len(batch.inputs), 3, head_out))
        if kind == "xent":
            labels = np.stack([batch.labels[t] for t in range(3)], axis=1)
            picks = (np.arange(head_out) == labels[:, :, None]) * 1.0
        else:
            picks = np.ones(out.shape)
        scores = T.sum_(T.multiply(out, T.Tensor(picks)), axis=(0, 2))
        ref = [np.abs(T.grad(T.narrow(scores, 0, t, 1), [x],
                             create_graph=True)[0].data).sum(axis=0)
               for t in range(3)]
        np.testing.assert_array_equal(
            factor_gradient(model, batch).view(np.uint64),
            np.array(ref).view(np.uint64))


class TestSpuriousScore:
    def test_all_mass_causal_gives_zero(self):
        mask = np.array([True, True, False])
        assert spurious_score(np.array([2.0, 1.0, 0.0]), mask) == 0.0

    def test_uniform_mass_gives_dimension_ratio(self):
        mask = np.array([True, False, False, False])
        assert spurious_score(np.ones(4), mask) == pytest.approx(0.75)

    def test_invariant_to_uniform_rescaling(self):
        rng = np.random.default_rng(6)
        g = rng.random(8)
        mask = rng.random(8) > 0.5
        mask[0] = True  # keep at least one causal dim
        assert spurious_score(g, mask) == pytest.approx(
            spurious_score(123.0 * g, mask), rel=1e-14)

    def test_zero_mass_rejected(self):
        with pytest.raises(UndefinedScoreError):
            spurious_score(np.zeros(3), np.array([True, False, False]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            spurious_score(np.ones(3), np.ones(4, dtype=bool))


class TestCorrHeatmap:
    def test_single_module_has_no_cross_block(self):
        model = make_model(k=1, seed=8)
        heat = module_corr_heatmap(model, make_batch(seed=8))
        assert heat.block_boundaries == (0,)
        assert heat.max_cross_block() == 0.0

    def test_duplicated_module_cross_diagonal_is_one(self):
        model = make_model(k=2, total_dim=4, seed=9)
        state = model.state_dict()
        model.load_state({**state, **{
            name.replace("module0", "module1"): value.copy()
            for name, value in state.items() if name.startswith("module0.")}})
        heat = module_corr_heatmap(model, make_batch(seed=9))
        cross_diag = np.diagonal(heat.matrix[2:, :2])
        np.testing.assert_allclose(cross_diag, 1.0, atol=1e-6)
        assert heat.max_cross_block() == pytest.approx(1.0, abs=1e-6)

    def test_needs_two_samples(self):
        model = make_model(seed=10)
        with pytest.raises(AnalysisError):
            module_corr_heatmap(model, make_batch(n=1, seed=10))


class TestTaskModuleGradients:
    def duplicate_env(self, batch, env_id):
        return EnvironmentBatch(env_id, batch.inputs, batch.labels,
                                batch.causal_masks)

    def test_identical_environments_zero_difference(self):
        model = make_model(seed=11)
        batch = make_batch(seed=11)
        envs = [batch, self.duplicate_env(batch, "valid")]
        grads = task_module_gradients(model, envs)
        np.testing.assert_array_equal(grads.diff, 0.0)
        assert grads.diff_envs == ("train", "valid")

    def test_entries_match_finite_differences(self):
        model = make_model(seed=12)
        batch = make_batch(seed=12)
        envs = [batch, self.duplicate_env(batch, "valid")]
        table = task_module_gradients(model, envs).per_env["train"]

        def risk(theta_value):
            keep = model.routing.theta.value.copy()
            model.routing.theta.value = theta_value
            from mtcrl.regularizers import env_task_risk
            out = env_task_risk(model, TapeBinding(T.Tape()), batch).data[0, 0]
            model.routing.theta.value = keep
            return out

        # d risk / d A via d risk / d theta = (d risk / d A) * sigmoid'
        step = 1e-6
        for i in range(model.k):
            up = model.routing.theta.value.copy()
            down = up.copy()
            up[0, i] += step
            down[0, i] -= step
            dtheta = (risk(up) - risk(down)) / (2 * step)
            a = 1 / (1 + np.exp(-model.routing.theta.value[0, i]))
            assert table[0, i] == pytest.approx(dtheta / (a * (1 - a)),
                                                rel=1e-4, abs=1e-8)

    def test_requires_two_environments(self):
        model = make_model(seed=13)
        with pytest.raises(AnalysisError):
            task_module_gradients(model, [make_batch(seed=13)])


class TestTaskSimilarity:
    def test_identical_rows(self):
        sim = task_similarity(np.array([[0.2, 0.8], [0.2, 0.8]]))
        np.testing.assert_allclose(sim.matrix, 1.0, atol=1e-12)

    def test_disjoint_one_hot_rows(self):
        sim = task_similarity(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sim.matrix[0, 1] == 0.0
        assert sim.edges[0, 1] == False  # noqa: E712
        assert sim.edges[0, 0] == True   # noqa: E712

    def test_zero_row_relates_to_nothing(self):
        sim = task_similarity(np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert sim.matrix[0, 1] == 0.0 and sim.matrix[0, 0] == 0.0

    def test_default_threshold(self):
        assert task_similarity(np.eye(2)).threshold == 0.1

    def test_permutation_consistency(self):
        rng = np.random.default_rng(14)
        a = rng.random((4, 3))
        perm = [2, 0, 3, 1]
        base = task_similarity(a).matrix
        permuted = task_similarity(a[perm]).matrix
        np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)],
                                   atol=1e-12)


class TestExports:
    def test_matrix_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([[1.0, 2.0]]), row_labels=["r0"])
        assert path.read_text().splitlines() == ["r0,1.0,2.0"]

    def test_svg_heatmap(self, tmp_path):
        path = tmp_path / "h.svg"
        svg_heatmap(path, np.array([[0.0, 1.0], [0.5, -1.0]]),
                    boundaries=(1,))
        text = path.read_text()
        assert text.startswith("<svg") and "<line" in text
        assert text.count("<rect") == 4

    def test_heatmap_blocks(self):
        heat = CorrHeatmap(np.array([[1.0, 0.4], [0.4, 1.0]]), (0, 1))
        assert heat.max_cross_block() == pytest.approx(0.4)
