"""Synthetic testbeds with a controllable label-label confounder, IDX file
loading, environment tagging, and dataset export.

Both generators emit :class:`EnvironmentBatch` triples (train/valid/test)
whose splits differ in how strongly the task labels agree, which is what
simulates the distribution shift the invariance penalties exploit.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CONTAINER_MAGIC = b"MTCRL1"


class DataError(Exception):
    pass


class IdxFormatError(DataError):
    pass


@dataclass
class EnvironmentBatch:
    """Per-environment slice: inputs, per-task labels, per-task causal masks."""

    env_id: str
    inputs: np.ndarray                  # B x D
    labels: dict                        # task -> (B,) array
    causal_masks: dict                  # task -> (D,) bool array

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def tasks(self):
        return sorted(self.labels)

    def task_view(self, t: int) -> "EnvironmentBatch":
        """Single-task relabeled view (task id 0), for per-task baselines."""
        return EnvironmentBatch(self.env_id, self.inputs,
                                {0: self.labels[t]},
                                {0: self.causal_masks[t]})


@dataclass
class SemSpec:
    """Gaussian structural-equation testbed with chained label agreement."""

    tasks: int = 2
    d_factor: int = 10
    nuisance_dims: int = 0
    mu_scale: float = 1.0
    sigma: float = 1.0
    m_c_train: float = 0.9
    m_c_valid: float = 0.7
    m_c_test: float = 0.1
    n_train: int = 10000
    n_valid: int = 10000
    n_test: int = 10000
    seed: int = 0

    def __post_init__(self):
        for name in ("m_c_train", "m_c_valid", "m_c_test"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name}={v} outside [0, 1]")
        if self.sigma <= 0:
            raise DataError("sigma must be positive")
        if self.tasks < 1 or self.d_factor < 1:
            raise DataError("need at least one task and one factor dimension")
        for name in ("n_train", "n_valid", "n_test"):
            if getattr(self, name) < 2:
                raise DataError(f"{name}={getattr(self, name)} too small for "
                                "balanced sampling; need at least 2")

    @property
    def input_dim(self) -> int:
        return self.tasks * self.d_factor + self.nuisance_dims


def factor_means(spec: SemSpec) -> np.ndarray:
    """Per-task mean vectors, sampled once from the unit sphere and scaled."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xA11CE]))
    mu = rng.standard_normal((spec.tasks, spec.d_factor))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    return mu * spec.mu_scale


def _chained_labels(rng, n: int, tasks: int, m_c: float) -> np.ndarray:
    """Balanced first task; each later task agrees with the previous w.p. m_c."""
    if n < 2:
        raise DataError(f"n={n} too small for balanced sampling")
    base = np.ones(n)
    base[: n // 2] = -1.0
    labels = np.empty((tasks, n))
    labels[0] = rng.permutation(base)
    for t in range(1, tasks):
        agree = rng.random(n) < m_c
        labels[t] = np.where(agree, labels[t - 1], -labels[t - 1])
    return labels


def _sem_split(spec: SemSpec, mu: np.ndarray, env_id: str, n: int,
               m_c: float, salt: int) -> EnvironmentBatch:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, salt]))
    y = _chained_labels(rng, n, spec.tasks, m_c)
    blocks = []
    for t in range(spec.tasks):
        noise = rng.standard_normal((n, spec.d_factor)) * spec.sigma
        blocks.append(y[t][:, None] * mu[t][None, :] + noise)
    if spec.nuisance_dims:
        blocks.append(rng.standard_normal((n, spec.nuisance_dims)))
    x = np.concatenate(blocks, axis=1)
    dim = spec.input_dim
    masks = {}
    for t in range(spec.tasks):
        mask = np.zeros(dim, dtype=bool)
        mask[t * spec.d_factor: (t + 1) * spec.d_factor] = True
        masks[t] = mask
    return EnvironmentBatch(env_id, x, {t: y[t] for t in range(spec.tasks)},
                            masks)


def gen_multisem(spec: SemSpec):
    """Train/valid/test batches; the splits differ only in label agreement."""
    mu = factor_means(spec)
    train = _sem_split(spec, mu, "train", spec.n_train, spec.m_c_train, 1)
    valid = _sem_split(spec, mu, "valid", spec.n_valid, spec.m_c_valid, 2)
    test = _sem_split(spec, mu, "test", spec.n_test, spec.m_c_test, 3)
    return train, valid, test


# ---------------------------------------------------------------------------
# IDX files and paired-digit composition


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise IdxFormatError(f"truncated IDX file while reading {what}")
    return data


def load_idx(path):
    """Parse an IDX ubyte file; images scaled to [0, 1], labels as ints."""
    with open(path, "rb") as fh:
        magic = struct.unpack(">i", _read_exact(fh, 4, "magic"))[0]
        if magic == IDX_IMAGE_MAGIC:
            n, rows, cols = struct.unpack(">iii", _read_exact(fh, 12, "dims"))
            raw = _read_exact(fh, n * rows * cols, "pixels")
            images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows, cols)
            return images.astype(np.float64) / 255.0
        if magic == IDX_LABEL_MAGIC:
            n = struct.unpack(">i", _read_exact(fh, 4, "count"))[0]
            raw = _read_exact(fh, n, "labels")
            return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        raise IdxFormatError(f"bad IDX magic 0x{magic:08x} in {path}")


def write_idx_images(path, images: np.ndarray):
    """Inverse of load_idx for images (testing / fixture support)."""
    arr = np.clip(np.asarray(images) * 255.0, 0, 255).astype(np.uint8)
    n, rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray):
    arr = np.asarray(labels).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABEL_MAGIC, arr.shape[0]))
        fh.write(arr.tobytes())


@dataclass
class MnistPairSpec:
    """Two digits side by side; label pairs never recur across splits."""

    images_path: str = ""
    labels_path: str = ""
    pairs_per_class_pair: int = 100
    split_seed: int = 0
    ratios: tuple = (3, 1, 1)
    num_classes: int = 10
    variant: str = "benchmark"  # or "analysis": fewer samples per pair

    def __post_init__(self):
        if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
            raise DataError("ratios must be three positive numbers")
        if self.variant not in ("benchmark", "analysis"):
            raise DataError(f"unknown variant '{self.variant}'")
        if self.pairs_per_class_pair < 1:
            raise DataError("pairs_per_class_pair must be at least 1")


def partition_pairs(spec: MnistPairSpec):
    """Disjoint train/valid/test partition of all ordered class pairs."""
    rng = np.random.default_rng(spec.split_seed)
    pairs = [(i, j) for i in range(spec.num_classes)
             for j in range(spec.num_classes)]
    order = rng.permutation(len(pairs))
    pairs = [pairs[i] for i in order]
    total = sum(spec.ratios)
    n_train = len(pairs) * spec.ratios[0] // total
    n_valid = len(pairs) * spec.ratios[1] // total
    return (pairs[:n_train],
            pairs[n_train:n_train + n_valid],
            pairs[n_train + n_valid:])


def compose_multimnist(spec: MnistPairSpec):
    """Build train/valid/test pair batches from IDX digit data.

    Each sample is the horizontal concatenation [left | right], flattened;
    task 0 is the left digit class, task 1 the right.
    """
    images = load_idx(spec.images_path)
    labels = load_idx(spec.labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}"
        )
    per_class = {c: np.flatnonzero(labels == c) for c in range(spec.num_classes)}
    for c, idx in per_class.items():
        if idx.size == 0:
            raise DataError(f"no digits of class {c}; cannot compose pairs")
    n_per_pair = spec.pairs_per_class_pair
    if spec.variant == "analysis":
        n_per_pair = max(1, n_per_pair // 10)
    rows, cols = images.shape[1], images.shape[2]
    dim = rows * cols * 2
    left_mask = np.zeros((rows, 2 * cols), dtype=bool)
    left_mask[:, :cols] = True
    masks = {0: left_mask.ravel(), 1: ~left_mask.ravel()}

    rng = np.random.default_rng(np.random.SeedSequence([spec.split_seed, 7]))
    splits = partition_pairs(spec)
    batches = []
    for env_id, pairs in zip(("train", "valid", "test"), splits):
        xs = np.empty((len(pairs) * n_per_pair, dim))
        y_left = np.empty(len(pairs) * n_per_pair, dtype=np.int64)
        y_right = np.empty_like(y_left)
        k = 0
        for (i, j) in pairs:
            li = rng.choice(per_class[i], size=n_per_pair, replace=True)
            ri = rng.choice(per_class[j], size=n_per_pair, replace=True)
            combined = np.concatenate([images[li], images[ri]], axis=2)
            xs[k:k + n_per_pair] = combined.reshape(n_per_pair, dim)
            y_left[k:k + n_per_pair] = i
            y_right[k:k + n_per_pair] = j
            k += n_per_pair
        batches.append(EnvironmentBatch(env_id, xs,
                                        {0: y_left, 1: y_right}, dict(masks)))
    return tuple(batches)


def split_environments(train, valid):
    """Tag the two batches as the 'train' and 'valid' environments of the
    invariance penalties; task losses must only ever be computed on
    'train'."""
    if train.n_samples == 0 or valid.n_samples == 0:
        raise DataError("environments must be non-empty")
    return [replace(train, env_id="train"), replace(valid, env_id="valid")]


# ---------------------------------------------------------------------------
# export formats


def write_container(path, batch: EnvironmentBatch):
    """Binary container: magic, counts/dims header, float64 little-endian body.

    Layout: magic 'MTCRL1'; uint32 LE: version, env-id length, n_samples,
    input_dim, n_tasks; env-id utf-8 bytes; body floats: inputs row-major,
    then per task the labels, then per task the causal mask (0.0/1.0).
    """
    env = batch.env_id.encode("utf-8")
    tasks = batch.tasks
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<IIIII", 1, len(env), batch.n_samples,
                             batch.input_dim, len(tasks)))
        fh.write(env)
        fh.write(batch.inputs.astype("<f8").tobytes())
        for t in tasks:
            fh.write(np.asarray(batch.labels[t], dtype="<f8").tobytes())
        for t in tasks:
            fh.write(batch.causal_masks[t].astype("<f8").tobytes())


def read_container(path) -> EnvironmentBatch:
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != CONTAINER_MAGIC:
            raise DataError(f"bad container magic {magic!r}")
        version, env_len, n, dim, n_tasks = struct.unpack(
            "<IIIII", _read_exact(fh, 20, "header"))
        if version != 1:
            raise DataError(f"unsupported container version {version}")
        env_id = _read_exact(fh, env_len, "env id").decode("utf-8")
        x = np.frombuffer(_read_exact(fh, n * dim * 8, "inputs"),
                          dtype="<f8").reshape(n, dim)
        labels, masks = {}, {}
        for t in range(n_tasks):
            labels[t] = np.frombuffer(_read_exact(fh, n * 8, "labels"),
                                      dtype="<f8").copy()
        for t in range(n_tasks):
            masks[t] = np.frombuffer(_read_exact(fh, dim * 8, "masks"),
                                     dtype="<f8") != 0.0
    return EnvironmentBatch(env_id, x.copy(), labels, masks)


def write_batch_csv(path, batch: EnvironmentBatch):
    """Flat CSV for inspection: input columns then one label column per task."""
    tasks = batch.tasks
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i}" for i in range(batch.input_dim)]
            + [f"y{t}" for t in tasks]
        )
        for i in range(batch.n_samples):
            row = [repr(v) for v in batch.inputs[i]]
            row += [repr(float(batch.labels[t][i])) for t in tasks]
            writer.writerow(row)
