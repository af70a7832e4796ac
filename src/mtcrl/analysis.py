"""Diagnostics over trained models: input-gradient saliency, the spurious
score, module-correlation heatmaps, task-to-module gradient tables, and the
routing-induced task similarity matrix, plus CSV/SVG export helpers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import MtlModel, TapeBinding
# env_task_risk is no longer called here, but perfbench/tracing.py wraps
# ``analysis.env_task_risk``, so the name stays
from .regularizers import (env_task_risk, environment_gradients,  # noqa: F401
                           module_correlation, task_labels)


class AnalysisError(Exception):
    pass


class UndefinedScoreError(AnalysisError):
    pass


@np.errstate(all="ignore")  # the output is checked
def factor_gradient(model: MtlModel, batch) -> np.ndarray:
    """Per task, the summed absolute input-gradients of its score over a
    batch, T x D, each from a forward pass of its own: a first-order
    gradient consumes the record it walks.

    For classification a task's score is the pre-softmax score of its true
    class; for scalar outputs it is the output itself.
    """
    shape = (batch.n_samples, model.tasks, model.heads.widths[-1])
    if model.loss_kind == "xent":
        labels = task_labels(batch, model.tasks)[:, :, None]
        picks = (np.arange(shape[2]) == labels).astype(np.float64)
    else:
        picks = np.ones(shape)
    saliency = []
    for t in range(model.tasks):
        pick_t = np.zeros(shape)
        pick_t[:, t] = picks[:, t]
        tape = T.Tape()
        binding = TapeBinding(tape)
        x = tape.leaf(batch.inputs)
        out = model.predict(binding, model.encode(binding, x))
        score = T.sum_(T.multiply(T.reshape(out, shape), T.Tensor(pick_t)))
        g, = T.grad(score, [x])
        T.check_finite(g, f"the input gradient of task {t}")
        saliency.append(np.abs(g.data).sum(axis=0))
    return np.array(saliency)


def spurious_score(grad_per_dim: np.ndarray, causal_mask: np.ndarray) -> float:
    """Fraction of saliency mass on non-causal input dimensions."""
    grad_per_dim = np.asarray(grad_per_dim, dtype=np.float64)
    mask = np.asarray(causal_mask, dtype=bool)
    if grad_per_dim.shape != mask.shape:
        raise AnalysisError(
            f"saliency shape {grad_per_dim.shape} != mask shape {mask.shape}"
        )
    total = float(grad_per_dim.sum())
    if total <= 0.0:
        raise UndefinedScoreError("total gradient mass is zero")
    return float(grad_per_dim[~mask].sum() / total)


@dataclass
class CorrHeatmap:
    matrix: np.ndarray          # d x d correlations over all module outputs
    block_boundaries: tuple     # column indices where module blocks start

    def max_cross_block(self) -> float:
        """Largest |correlation| between dimensions of different modules."""
        bounds = list(self.block_boundaries) + [self.matrix.shape[0]]
        block_of = np.empty(self.matrix.shape[0], dtype=int)
        for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            block_of[lo:hi] = b
        cross = block_of[:, None] != block_of[None, :]
        return float(np.abs(self.matrix[cross]).max()) if cross.any() else 0.0


@np.errstate(all="ignore")  # the output is checked
def module_corr_heatmap(model: MtlModel, batch) -> CorrHeatmap:
    """Full correlation matrix over all module output dimensions.  No
    nodes are recorded, except under ``T.detect_anomaly()``, so that a
    replay names ops by node."""
    if batch.n_samples < 2:
        raise AnalysisError("need at least two samples for correlations")
    tape = T.Tape()
    tape.recording = T.is_anomaly_enabled()
    binding = TapeBinding(tape)
    rho = module_correlation(model.encode(binding, batch.inputs))
    T.check_finite(rho, "the module correlations")
    dim = model.bank.module_dim
    return CorrHeatmap(rho.data.copy(),
                       tuple(i * dim for i in range(model.k)))


@dataclass
class TaskModuleGradients:
    per_env: dict               # env_id -> T x K array
    diff: np.ndarray            # generalization table, see below
    diff_envs: tuple            # (subtrahend, minuend) env ids


@np.errstate(all="ignore")  # the output is checked
def task_module_gradients(model: MtlModel, env_batches) -> TaskModuleGradients:
    """Routing-gradient tables per environment plus a (valid - train) table.

    Entry (t, i) is the gradient of environment risk for task t w.r.t. the
    routing weight of module i; the difference table flags modules that
    help on the training slice but not off it.  Signs are reported raw.
    Each environment's table is its routing gradient ``dA_e`` from
    :func:`environment_gradients`, the one the invariance penalties use.
    """
    if len(env_batches) < 2:
        raise AnalysisError("need at least two environments")
    tape = T.Tape()
    grads, _ = environment_gradients(model, TapeBinding(tape), env_batches)
    per_env = {}
    for env_id, (table,) in grads.items():
        T.check_finite(table, f"the routing gradients on '{env_id}'")
        per_env[env_id] = table.data
    if "train" in per_env and "valid" in per_env:
        pair = ("train", "valid")
    else:
        pair = (env_batches[0].env_id, env_batches[-1].env_id)
    diff = per_env[pair[1]] - per_env[pair[0]]
    return TaskModuleGradients(per_env, diff, pair)


def task_similarity(a_matrix) -> np.ndarray:
    """T x T cosine similarities between routing rows; zero rows relate to
    nothing."""
    a = np.asarray(a_matrix, dtype=np.float64)
    norms = np.linalg.norm(a, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = a / safe[:, None]
    sim = unit @ unit.T
    sim[norms == 0, :] = 0.0
    sim[:, norms == 0] = 0.0
    np.clip(sim, -1.0, 1.0, out=sim)
    return sim


# ---------------------------------------------------------------------------
# exports


def write_matrix_csv(path, matrix, row_labels=None):
    matrix = np.atleast_2d(np.asarray(matrix))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, row in enumerate(matrix):
            prefix = [row_labels[i]] if row_labels is not None else []
            writer.writerow(prefix + [repr(float(v)) for v in row])


def svg_heatmap(path, matrix, boundaries=(), cell: int = 8):
    """Grayscale grid heatmap with optional module-block separator lines."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n, m = matrix.shape
    vmax = float(np.abs(matrix).max()) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{m * cell}" height="{n * cell}">'
    ]
    for i in range(n):
        for j in range(m):
            level = int(round(255 * (1.0 - abs(matrix[i, j]) / vmax)))
            parts.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" '
                f'height="{cell}" fill="rgb({level},{level},{level})"/>'
            )
    for b in boundaries:
        if b == 0:
            continue
        parts.append(
            f'<line x1="{b * cell}" y1="0" x2="{b * cell}" '
            f'y2="{n * cell}" stroke="red" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="0" y1="{b * cell}" x2="{m * cell}" '
            f'y2="{b * cell}" stroke="red" stroke-width="1"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
