"""Loss terms beyond per-task risk: module decorrelation, routing-graph
sparsity/balance, and the gradient-invariance penalties over environments.

All terms are built from tape ops, so they stay differentiable; the
invariance penalties additionally run their inner gradient with
``create_graph=True`` so the training step can differentiate through them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import MtlModel, TapeBinding

VARIANCE_FLOOR = 1e-8
GIRM_VARIANTS = ("none", "norm", "var", "irm-baseline")


class RegularizerError(Exception):
    pass


class EmptyBatchError(RegularizerError):
    pass


@dataclass
class PenaltyWeights:
    lambda_decor: float = 20.0
    lambda_sps: float = 0.2
    lambda_bal: float = 5.0
    lambda_girm: float = 5.0
    girm_variant: str = "var"

    def __post_init__(self):
        for name in ("lambda_decor", "lambda_sps", "lambda_bal", "lambda_girm"):
            if getattr(self, name) < 0:
                raise RegularizerError(f"{name} must be nonnegative")
        if self.girm_variant not in GIRM_VARIANTS:
            raise RegularizerError(
                f"girm_variant must be one of {GIRM_VARIANTS}, "
                f"got '{self.girm_variant}'"
            )


def _centered(z: T.Tensor):
    """Column-centered ``z`` and the floored inverse column norms (1 x d)."""
    zc = T.subtract(z, T.mean(z, axis=0, keepdims=True))
    var = T.sum_(T.square(zc), axis=0, keepdims=True)
    return zc, T.pow_const(T.add(var, VARIANCE_FLOOR), -0.5)


def pearson_corr(zi: T.Tensor, zj: T.Tensor) -> T.Tensor:
    """In-batch correlation matrix between all column pairs of zi and zj.

    Covariances are centered sums (no 1/B factor; it cancels in the ratio).
    Column variances get ``VARIANCE_FLOOR`` added inside the square roots so
    constant columns yield 0 instead of dividing by zero.
    """
    if zi.shape[0] < 2 or zi.shape[0] != zj.shape[0]:
        raise RegularizerError(
            f"pearson_corr needs >= 2 shared rows, got {zi.shape} vs {zj.shape}"
        )
    zci, inv_i = _centered(zi)
    zcj, inv_j = _centered(zj)
    cov = T.matmul(T.transpose(zci), zcj)
    return T.multiply(T.multiply(cov, T.transpose(inv_i)), inv_j)


def module_correlation(z: T.Tensor) -> T.Tensor:
    """Correlation matrix over all columns of the module encodings ``z``
    (B x d), from one centering and one variance vector (d x d)."""
    if z.shape[0] < 2:
        raise RegularizerError(
            f"module_correlation needs >= 2 rows, got {z.shape[0]}"
        )
    zc, inv = _centered(z)
    cov = T.matmul(T.transpose(zc), zc)
    return T.multiply(T.multiply(cov, T.transpose(inv)), inv)


def decorrelation_loss(z: T.Tensor, k: int, lambda_decor: float) -> T.Tensor:
    """Squared Frobenius norms of pairwise module correlations, summed i<j.

    ``z`` holds the ``k`` modules' outputs side by side, d/k columns each.
    Computed as half the squared norm of the full module correlation matrix
    with its within-module diagonal blocks masked to zero; the matrix is
    symmetric, so each pair (i, j) appears twice.
    """
    if k < 2:
        return T.Tensor(0.0)
    block = np.repeat(np.arange(k), z.shape[1] // k)
    cross = T.Tensor((block[:, None] != block[None, :]).astype(np.float64))
    rho = T.multiply(module_correlation(z), cross)
    return T.scale(T.l2_norm_sq(rho), 0.5 * lambda_decor)


def graph_reg_loss(a, lambda_sps: float, lambda_bal: float) -> T.Tensor:
    """L1 sparsity minus entropy balance over the routing matrix's module masses.

    The weights lie in [0, 1], so the L1 norm is the total routing mass.
    The entropy argument is the per-module share of the total routing mass;
    zero-mass modules contribute 0 (0*log 0 := 0).  An all-zero matrix is
    degenerate: both terms are 0 and a warning is emitted.
    """
    if not isinstance(a, T.Tensor):
        a = T.Tensor(a)
    if a.data.min() < 0 or a.data.max() > 1:
        raise RegularizerError("routing weights must lie in [0, 1]")
    if np.all(a.data == 0):
        warnings.warn("all-zero routing matrix: graph loss degenerates to 0",
                      RuntimeWarning, stacklevel=2)
        return T.Tensor(0.0)
    col = T.sum_(a, axis=0)
    total = T.sum_(a)
    mass = T.multiply(col, T.pow_const(total, -1.0))
    zero_mask = (col.data == 0).astype(np.float64)
    safe = T.add(mass, T.Tensor(zero_mask))  # log(0+1)=0 where mass is 0
    entropy = T.scale(T.sum_(T.multiply(mass, T.log(safe))), -1.0)
    return T.subtract(T.scale(total, lambda_sps),
                      T.scale(entropy, lambda_bal))


def task_loss(pred: T.Tensor, labels: np.ndarray, kind: str) -> T.Tensor:
    """Mean per-sample loss: squared error or softmax cross-entropy."""
    if kind == "mse":
        y = T.Tensor(np.asarray(labels, dtype=np.float64).reshape(pred.shape))
        return T.mean(T.square(T.subtract(pred, y)))
    if kind == "xent":
        return T.mean(T.softmax_cross_entropy(pred, labels))
    raise RegularizerError(f"unknown loss kind '{kind}'")


def env_task_risk(model: MtlModel, binding: TapeBinding, batch, t: int,
                  z=None, a_row=None, detach_heads: bool = False) -> T.Tensor:
    """Mean task loss of task ``t`` over one environment batch."""
    if t not in batch.labels:
        raise EmptyBatchError(f"batch '{batch.env_id}' has no labels for task {t}")
    if batch.inputs.shape[0] == 0:
        raise EmptyBatchError(f"batch '{batch.env_id}' is empty")
    pred = model.predict(binding, t, x=batch.inputs, z=z, a_row=a_row,
                         detach_heads=detach_heads)
    return task_loss(pred, batch.labels[t], model.loss_kinds[t])


def _encodings(model: MtlModel, binding: TapeBinding, env_batches, encoded):
    """``(batch, z)`` per environment, reusing the encoding of any batch
    that is itself one of the ``(batch, z)`` pairs in ``encoded``."""
    if not env_batches:
        raise RegularizerError("need at least one environment")
    for batch in env_batches:
        z = next((z for b, z in encoded if b is batch), None)
        yield batch, model.encode(binding, batch.inputs) if z is None else z


def environment_gradients(model: MtlModel, binding: TapeBinding, env_batches,
                          encoded=()) -> dict:
    """``{task: {env_id: gradient}}`` in environment order: the routing-row
    gradient (1 x K, on the tape) of every (task, environment) risk.

    Each risk is built on its own routing-row node and one create_graph
    gradient of their sum is taken w.r.t. all rows: a row feeds only its
    own risk, so its entry is exactly that risk's gradient.

    Heads are detached: the per-task predictors are treated as fixed
    inside the invariance penalties, so the penalties contribute exactly
    zero gradient to head parameters.
    """
    a = model.routing.weights(binding)
    rows, total = {}, None
    for batch, z in _encodings(model, binding, env_batches, encoded):
        for t in range(model.tasks):
            row = T.narrow(a, 0, t, 1)
            risk = env_task_risk(model, binding, batch, t, z=z, a_row=row,
                                 detach_heads=True)
            rows[t, batch.env_id] = row
            total = risk if total is None else T.add(total, risk)
    grads = dict(zip(rows, T.grad(total, list(rows.values()),
                                  create_graph=True)))
    return {t: {e: g for (u, e), g in grads.items() if u == t}
            for t in range(model.tasks)}


def girm_norm_penalty(env_grads: dict) -> T.Tensor:
    """Sum over tasks and environments of squared routing-gradient norms."""
    total = None
    for by_env in env_grads.values():
        for g in by_env.values():
            term = T.l2_norm_sq(g)
            total = term if total is None else T.add(total, term)
    return total


def girm_var_penalty(env_grads: dict) -> T.Tensor:
    """Cross-environment variance of the routing gradients, summed over tasks."""
    total = None
    for by_env in env_grads.values():
        gs = list(by_env.values())
        n_env = len(gs)
        avg = gs[0]
        for g in gs[1:]:
            avg = T.add(avg, g)
        avg = T.scale(avg, 1.0 / n_env)
        for g in gs:
            term = T.scale(T.l2_norm_sq(T.subtract(g, avg)), 1.0 / n_env)
            total = term if total is None else T.add(total, term)
    return total


def irm_baseline_penalty(model: MtlModel, binding: TapeBinding,
                         env_batches, encoded=()) -> T.Tensor:
    """Squared norms of env-risk gradients w.r.t. routing row AND head
    parameters.  This is the multi-task IRM adaptation: unlike the
    graph-invariance penalties, heads are not detached; environments share
    them, so each (task, environment) takes its own inner gradient."""
    a = model.routing.weights(binding)
    total = None
    for batch, z in _encodings(model, binding, env_batches, encoded):
        for t in range(model.tasks):
            row = T.narrow(a, 0, t, 1)
            risk = env_task_risk(model, binding, batch, t, z=z, a_row=row)
            head_leaves = binding.leaves_for(model.heads[t].parameters())
            for g in T.grad(risk, [row, *head_leaves], create_graph=True):
                term = T.l2_norm_sq(g)
                total = term if total is None else T.add(total, term)
    return total


def girm_penalty(model: MtlModel, binding: TapeBinding, env_batches,
                 variant: str, encoded=()) -> T.Tensor | None:
    """Dispatch on the invariance-penalty variant; None when disabled.

    ``encoded`` passes ``(batch, z)`` pairs already encoded on this tape.
    The graph-invariance variants detach the heads; the baseline variant
    never detaches by definition.
    """
    if variant == "none":
        return None
    if variant == "irm-baseline":
        return irm_baseline_penalty(model, binding, env_batches, encoded)
    env_grads = environment_gradients(model, binding, env_batches,
                                      encoded=encoded)
    if variant == "norm":
        return girm_norm_penalty(env_grads)
    if variant == "var":
        return girm_var_penalty(env_grads)
    raise RegularizerError(f"unknown girm variant '{variant}'")
