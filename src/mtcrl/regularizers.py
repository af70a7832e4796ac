"""Loss terms beyond per-task risk: module decorrelation, routing-graph
sparsity/balance, and the gradient-invariance penalties over environments.

All terms are built from tape ops, so they stay differentiable.  Every
invariance penalty is built from one quantity: per environment e, the
T x K gradient dA_e of its task risks w.r.t. its own routing matrix A_e,
taken with ``create_graph=True`` so the training step can differentiate
through it.  ``norm`` sums its squared norms, ``var`` is its variance over
environments (as in Fishr, arXiv:2109.02934), and ``irm-baseline`` is
``norm`` with the head gradients included (IRM, arXiv:1907.02893).
"""

from __future__ import annotations

import math
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
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise RegularizerError(f"{name} must be finite and "
                                       f"nonnegative, got {value}")
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
    """The T tasks' mean per-sample losses, 1 x T, of the B x (T*o)
    predictions against the B x T labels: squared error (o = 1), or softmax
    cross-entropy over o classes, scored as (B*T) x o logits."""
    labels = np.asarray(labels).reshape(pred.shape[0], -1)
    if kind == "mse":
        loss = T.square(T.subtract(pred, T.Tensor(labels.reshape(pred.shape))))
    elif kind == "xent":
        logits = T.reshape(pred, (labels.size, pred.size // labels.size))
        loss = T.reshape(T.softmax_cross_entropy(logits, labels.ravel()),
                         labels.shape)
    else:
        raise RegularizerError(f"unknown loss kind '{kind}'")
    return T.mean(loss, axis=0, keepdims=True)


def task_labels(batch, tasks: int) -> np.ndarray:
    """The B x T labels of tasks 0..T-1 in ``batch``."""
    missing = [t for t in range(tasks) if t not in batch.labels]
    if missing:
        raise EmptyBatchError(
            f"batch '{batch.env_id}' has no labels for tasks {missing}")
    return np.column_stack([batch.labels[t] for t in range(tasks)])


def env_task_risk(model: MtlModel, binding: TapeBinding, batch, z=None,
                  a=None, detach_heads: bool = False) -> T.Tensor:
    """Every task's mean loss over one environment batch, as one 1 x T
    risk vector from one forward chain.  ``z`` reuses an encoding of the
    batch on this tape, ``a`` an explicit T x K routing matrix."""
    labels = task_labels(batch, model.tasks)
    if batch.inputs.shape[0] == 0:
        raise EmptyBatchError(f"batch '{batch.env_id}' is empty")
    if z is None:
        z = model.encode(binding, batch.inputs)
    pred = model.predict(binding, z, a=a, detach_heads=detach_heads)
    return task_loss(pred, labels, model.loss_kind)


def environment_gradients(model: MtlModel, binding: TapeBinding, env_batches,
                          encoded=(), heads: bool = False):
    """``({env_id: [dA_e, *head grads]}, {env_id: [risk per task]})`` in
    environment order, the gradients on the tape.

    Each environment e builds its risk vector on its own routing matrix
    ``A_e`` and takes one create_graph gradient of the risks' sum w.r.t.
    ``A_e`` (T x K) and, with ``heads``, the head leaves.  Row t of ``A_e``
    and head t's block feed only task t's risk, so their gradients are
    exactly those of R_t^e.  ``encoded`` passes ``(batch, z)`` pairs
    already encoded on this tape.

    Without ``heads`` the heads are detached: the per-task predictors are
    treated as fixed inside the invariance penalty, so it contributes
    exactly zero gradient to head parameters.  Detaching changes no value.
    """
    if not env_batches:
        raise RegularizerError("need at least one environment")
    head_leaves = binding.leaves_for(model.head_parameters()) if heads else []
    grads, risks = {}, {}
    for batch in env_batches:
        z = next((z for b, z in encoded if b is batch), None)
        a = model.routing.weights(binding)
        risk = env_task_risk(model, binding, batch, z=z, a=a,
                             detach_heads=not heads)
        risks[batch.env_id] = risk.data.ravel().tolist()
        grads[batch.env_id] = T.grad(T.sum_(risk), [a, *head_leaves],
                                     create_graph=True)
    return grads, risks


def girm_norm_penalty(env_grads: dict) -> T.Tensor:
    """Sum of the squared norms of every environment's gradients."""
    total = None
    for gs in env_grads.values():
        for g in gs:
            term = T.l2_norm_sq(g)
            total = term if total is None else T.add(total, term)
    return total


def girm_var_penalty(env_grads: dict) -> T.Tensor:
    """Variance of the routing gradients ``dA_e`` over environments."""
    gs = [g for g, *_ in env_grads.values()]
    avg = gs[0]
    for g in gs[1:]:
        avg = T.add(avg, g)
    avg = T.scale(avg, 1.0 / len(gs))
    total = None
    for g in gs:
        term = T.scale(T.l2_norm_sq(T.subtract(g, avg)), 1.0 / len(gs))
        total = term if total is None else T.add(total, term)
    return total


def irm_baseline_penalty(model: MtlModel, binding: TapeBinding,
                         env_batches, encoded=()):
    """``(penalty, risks)`` of the multi-task IRM adaptation: the squared
    norms of the env-risk gradients w.r.t. the routing rows AND the head
    parameters, which the environments share and which are not detached."""
    grads, risks = environment_gradients(model, binding, env_batches,
                                         encoded, heads=True)
    return girm_norm_penalty(grads), risks


def girm_penalty(model: MtlModel, binding: TapeBinding, env_batches,
                 variant: str, encoded=()):
    """``(penalty, risks)`` of an invariance-penalty variant, ``risks``
    as ``{env_id: [risk per task]}``.

    ``encoded`` passes ``(batch, z)`` pairs already encoded on this tape.
    The graph-invariance variants detach the heads; the baseline variant
    never detaches by definition.  Recording the risks adds no tape node.
    """
    if variant == "irm-baseline":
        return irm_baseline_penalty(model, binding, env_batches, encoded)
    penalty = {"norm": girm_norm_penalty, "var": girm_var_penalty}.get(variant)
    if penalty is None:
        raise RegularizerError(f"unknown girm variant '{variant}'")
    grads, risks = environment_gradients(model, binding, env_batches, encoded)
    return penalty(grads), risks
