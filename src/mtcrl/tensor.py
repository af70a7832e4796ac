"""Dense float64 tensors on a recording tape, with reverse-mode autodiff.

The backward rules are written in terms of the tape ops themselves, so a
backward pass run with ``create_graph=True`` appends ordinary nodes to the
tape and the resulting gradient tensors can be differentiated again.  That
double-backward path is what the gradient-norm penalties in this package
rely on; the op set is deliberately closed and small so every rule stays
enumerable and testable.

Conventions:
  * all data is float64, row-major (numpy ndarray);
  * leaves (parameters, inputs) are put on a tape via :meth:`Tape.leaf`;
  * tensors with ``node is None`` are constants - gradients never flow
    into them;
  * one tape per training step, reset between steps;
  * nothing writes tensor data in place, so ``transpose`` returns a view.

:func:`grad` walks only the nodes between the output and the requested
tensors, and tells each backward rule which parents need a gradient; a
rule may return ``None`` for the others, so a constant operand (a data
matrix, a detached head) costs no adjoint product and records no nodes.
It frees each adjoint once its node's rule has used it, so a backward
pass holds only the adjoints still waiting to be used.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np


class TensorError(Exception):
    """Base class for tensor-core failures."""


class ShapeMismatchError(TensorError):
    pass


class DomainError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


class NonScalarOutputError(TensorError):
    pass


class StaleTapeError(TensorError):
    pass


class NotOnTapeError(TensorError):
    pass


class Node:
    """One recorded operation: kind, parent tensors, and a backward rule.

    ``vjp(upstream, needs)`` returns one gradient per parent.  ``needs``
    holds one flag per parent, false for constants and for parents no
    requested gradient depends on; the rule may return ``None`` for those.
    Parent node ids always precede ``nid`` because nodes are appended in
    execution order.
    """

    __slots__ = ("nid", "op", "parents", "vjp", "tape", "generation")

    def __init__(self, nid, op, parents, vjp, tape):
        self.nid = nid
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.tape = tape
        self.generation = tape.generation


class Tape:
    """Append-only record of operations for one differentiation scope."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.generation = 0
        self.recording = True

    def reset(self):
        """Drop all nodes; tensors from before the reset become stale.

        Dropping the rules first breaks the cycle of rules that hold their
        own output (``tanh``), so nodes are freed without the cycle GC."""
        for node in self.nodes:
            node.vjp = None
        self.nodes.clear()
        self.generation += 1

    @contextlib.contextmanager
    def stop_recording(self):
        prev = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = prev

    def leaf(self, value) -> "Tensor":
        """Put an array on the tape as a leaf (no parents)."""
        node = Node(len(self.nodes), "leaf", (), None, self)
        self.nodes.append(node)
        return Tensor(np.asarray(value, dtype=np.float64), node)


class Tensor:
    """A float64 array plus an optional reference into the active tape."""

    __slots__ = ("data", "node")

    def __init__(self, data, node: Node | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        """Value of a one-element tensor of any shape as a Python float."""
        return float(self.data.item())

    def __repr__(self):
        tag = "const" if self.node is None else f"node {self.node.nid}"
        return f"Tensor(shape={self.data.shape}, {tag})"


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _tape_of(tensors: Iterable[Tensor]) -> Tape | None:
    tape = None
    for t in tensors:
        if t.node is None:
            continue
        if t.node.generation != t.node.tape.generation:
            raise StaleTapeError(
                f"tensor from node {t.node.nid} predates a tape reset"
            )
        if tape is None:
            tape = t.node.tape
        elif tape is not t.node.tape:
            raise TensorError("inputs live on different tapes")
    return tape


def _check_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"operation '{op}' produced non-finite values")
    return data


def _make(op: str, data: np.ndarray, parents: Sequence[Tensor],
          vjp: Callable | None) -> Tensor:
    _check_finite(data, op)
    tape = _tape_of(parents)
    if tape is None or not tape.recording:
        return Tensor(data)
    node = Node(len(tape.nodes), op, tuple(parents), vjp, tape)
    tape.nodes.append(node)
    return Tensor(data, node)


def _broadcast_shape(op, a, b):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"operation '{op}': shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Reduce a broadcast gradient back to ``shape`` (differentiable)."""
    if g.shape == tuple(shape):
        return g
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)))
    axes = tuple(
        i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1
    )
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    if g.shape != tuple(shape):
        g = reshape(g, shape)
    return g


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _broadcast_shape("add", a, b)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(g, b.shape) if needs[1] else None)

    return _make("add", a.data + b.data, (a, b), vjp)


def subtract(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _broadcast_shape("subtract", a, b)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(scale(g, -1.0), b.shape) if needs[1] else None)

    return _make("subtract", a.data - b.data, (a, b), vjp)


def multiply(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _broadcast_shape("multiply", a, b)

    def vjp(g, needs):
        return (
            _unbroadcast(multiply(g, b), a.shape) if needs[0] else None,
            _unbroadcast(multiply(g, a), b.shape) if needs[1] else None,
        )

    return _make("multiply", a.data * b.data, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"operation 'matmul': incompatible shapes {a.shape} @ {b.shape}"
        )

    def vjp(g, needs):
        return (matmul(g, transpose(b)) if needs[0] else None,
                matmul(transpose(a), g) if needs[1] else None)

    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data @ b.data
    return _make("matmul", data, (a, b), vjp)


def transpose(a) -> Tensor:
    a = _lift(a)
    if a.data.ndim != 2:
        raise ShapeMismatchError(
            f"operation 'transpose': expected 2-d, got shape {a.shape}"
        )

    def vjp(g, needs):
        return (transpose(g),)

    return _make("transpose", a.data.T, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeMismatchError(
            f"operation 'reshape': cannot view {a.shape} as {shape}"
        )
    old = a.shape

    def vjp(g, needs):
        return (reshape(g, old),)

    return _make("reshape", a.data.reshape(shape), (a,), vjp)


def scale(a, c: float) -> Tensor:
    a = _lift(a)
    c = float(c)

    def vjp(g, needs):
        return (scale(g, c),)

    return _make("scale", a.data * c, (a,), vjp)


def sigmoid(a) -> Tensor:
    a = _lift(a)
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out_holder = []

    def vjp(g, needs):
        y = out_holder[0]
        return (multiply(multiply(g, y), subtract(1.0, y)),)

    out = _make("sigmoid", data, (a,), vjp)
    out_holder.append(out)
    return out


def tanh(a) -> Tensor:
    a = _lift(a)
    out_holder = []

    def vjp(g, needs):
        y = out_holder[0]
        return (multiply(g, subtract(1.0, square(y))),)

    out = _make("tanh", np.tanh(a.data), (a,), vjp)
    out_holder.append(out)
    return out


def relu(a) -> Tensor:
    a = _lift(a)
    mask = Tensor((a.data > 0).astype(np.float64))  # subgradient at 0 is 0

    def vjp(g, needs):
        return (multiply(g, mask),)

    return _make("relu", np.maximum(a.data, 0.0), (a,), vjp)


def exp(a) -> Tensor:
    a = _lift(a)
    out_holder = []

    def vjp(g, needs):
        return (multiply(g, out_holder[0]),)

    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    out = _make("exp", data, (a,), vjp)
    out_holder.append(out)
    return out


def log(a) -> Tensor:
    a = _lift(a)
    if np.any(a.data <= 0):
        raise DomainError("operation 'log': input has non-positive values")

    def vjp(g, needs):
        return (multiply(g, pow_const(a, -1.0)),)

    return _make("log", np.log(a.data), (a,), vjp)


def square(a) -> Tensor:
    a = _lift(a)

    def vjp(g, needs):
        return (scale(multiply(g, a), 2.0),)

    return _make("square", a.data * a.data, (a,), vjp)


def pow_const(a, p: float) -> Tensor:
    a = _lift(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0):
        raise DomainError("operation 'pow': fractional power of negative values")
    if p < 0 and np.any(a.data == 0):
        raise DomainError("operation 'pow': negative power of zero")

    def vjp(g, needs):
        return (scale(multiply(g, pow_const(a, p - 1.0)), p),)

    with np.errstate(over="ignore"):
        data = a.data ** p
    return _make("pow", data, (a,), vjp)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    in_shape = a.shape

    def vjp(g, needs):
        if axis is None:
            expand = g if g.data.ndim == a.data.ndim else reshape(g, (1,) * a.data.ndim)
        elif keepdims:
            expand = g
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(ax % len(in_shape) for ax in axes)
            kshape = tuple(
                1 if i in axes else s for i, s in enumerate(in_shape)
            )
            expand = reshape(g, kshape)
        return (multiply(expand, Tensor(np.ones(in_shape))),)

    return _make("sum", np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    total = sum_(a, axis=axis, keepdims=keepdims)
    return scale(total, total.size / a.size)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    a = _lift(a)
    axis = axis % a.data.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeMismatchError(
            f"operation 'slice': [{start}:{start + length}) out of range for "
            f"axis {axis} of shape {a.shape}"
        )
    key = tuple(
        slice(start, start + length) if i == axis else slice(None)
        for i in range(a.data.ndim)
    )
    in_shape = a.shape

    def vjp(g, needs):
        return (scatter_narrow(g, axis, start, in_shape),)

    return _make("slice", a.data[key].copy(), (a,), vjp)


def scatter_narrow(g, axis: int, start: int, target_shape) -> Tensor:
    """Adjoint of :func:`narrow`: embed ``g`` into zeros of ``target_shape``."""
    g = _lift(g)
    axis = axis % len(target_shape)
    data = np.zeros(target_shape)
    length = g.shape[axis]
    key = tuple(
        slice(start, start + length) if i == axis else slice(None)
        for i in range(len(target_shape))
    )
    data[key] = g.data

    def vjp(up, needs):
        return (narrow(up, axis, start, length),)

    return _make("scatter", data, (g,), vjp)


# ---------------------------------------------------------------------------
# composite ops (built from primitives; second order comes for free)


def l2_norm_sq(a) -> Tensor:
    return sum_(square(a))


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Per-sample negative log-likelihood of integer ``labels``.

    ``logits`` is B x C; returns a length-B vector.  Stable via a detached
    row-max shift, which leaves all derivatives unchanged.
    """
    logits = _lift(logits)
    if logits.data.ndim != 2:
        raise ShapeMismatchError(
            f"operation 'softmax_cross_entropy': logits must be 2-d, got "
            f"{logits.shape}"
        )
    lab = np.asarray(labels).astype(np.int64).ravel()
    n, c = logits.shape
    if lab.shape[0] != n:
        raise ShapeMismatchError(
            f"operation 'softmax_cross_entropy': {n} rows vs {lab.shape[0]} labels"
        )
    if lab.min() < 0 or lab.max() >= c:
        raise DomainError(
            "operation 'softmax_cross_entropy': label outside [0, num_classes)"
        )
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = subtract(logits, shift)
    lse = log(sum_(exp(z), axis=1, keepdims=True))
    logp = subtract(z, lse)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), lab] = 1.0
    return scale(sum_(multiply(logp, Tensor(onehot)), axis=1), -1.0)


# ---------------------------------------------------------------------------
# reverse pass


def _active_nodes(tape: Tape, output_nid: int, wrt_ids: set) -> tuple:
    """Nodes up to ``output_nid`` that are ``wrt`` tensors or have an active
    parent, as (nodes in tape order, set of their ids)."""
    order, active = [], set()
    if wrt_ids:
        for node in tape.nodes[min(wrt_ids):output_nid + 1]:
            if node.nid in wrt_ids or any(
                    p.node is not None and p.node.nid in active
                    for p in node.parents):
                order.append(node)
                active.add(node.nid)
    return order, active


def grad(output: Tensor, wrt, create_graph: bool = False,
         detached=()) -> list[Tensor]:
    """Reverse-mode derivatives of a scalar ``output`` w.r.t. ``wrt`` tensors,
    one per ``wrt`` entry in its order.

    Only active nodes are visited: those that are ``wrt`` tensors or depend
    on one.  Each backward rule is told which of its parents are active
    (and not constants) and may return ``None`` for the others, so no
    adjoint is built that no requested gradient needs.  A node's adjoint
    is dropped once its rule has run, unless the node is requested.

    With ``create_graph=True`` the returned gradients are themselves on the
    tape, so a second call differentiates through them.  Tensors listed in
    ``detached``, and tensors the output does not depend on, get zero
    tensors of matching shape; gradients still flow through detached
    tensors to other requested tensors.
    """
    if output.node is None:
        raise NotOnTapeError("output is not on a tape")
    tape = output.node.tape
    if output.node.generation != tape.generation:
        raise StaleTapeError("output predates a tape reset")
    if output.size != 1:
        raise NonScalarOutputError(
            f"grad requires a scalar output, got shape {output.shape}"
        )
    wrt = list(wrt)
    for t in wrt:
        if t.node is None:
            raise NotOnTapeError("requested gradient for a constant tensor")
        if t.node.tape is not tape:
            raise NotOnTapeError("requested tensor lives on a different tape")
    detached_ids = {t.node.nid for t in detached if t.node is not None}
    wrt_ids = {t.node.nid for t in wrt}
    order, active = _active_nodes(tape, output.node.nid, wrt_ids)

    ctx = contextlib.nullcontext() if create_graph else tape.stop_recording()
    grads: dict[int, Tensor] = {output.node.nid: Tensor(np.ones(output.shape))}
    with ctx:
        for node in reversed(order):
            # every later node is done, so this adjoint is complete; free it
            # unless it is a requested result
            g = (grads.get(node.nid) if node.nid in wrt_ids
                 else grads.pop(node.nid, None))
            if g is None or node.vjp is None:
                continue
            needs = tuple(p.node is not None and p.node.nid in active
                          for p in node.parents)
            if not any(needs):
                continue
            for parent, need, pg in zip(node.parents, needs,
                                        node.vjp(g, needs)):
                if not need:
                    continue
                pid = parent.node.nid
                if pid in grads:
                    grads[pid] = add(grads[pid], pg)
                else:
                    grads[pid] = pg

    return [grads[t.node.nid] if t.node.nid in grads
            and t.node.nid not in detached_ids else Tensor(np.zeros(t.shape))
            for t in wrt]


# ---------------------------------------------------------------------------
# finite-difference oracle


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1.0, abs(a), abs(n))


def finite_diff_check(f, params, step: float = 1e-5, order: int = 1) -> float:
    """Max relative error between autodiff and central finite differences.

    ``f`` takes one leaf tensor per entry of ``params`` (arrays of initial
    values) and returns a one-element tensor of any shape, as ``grad``
    accepts.  ``order=1`` checks the gradient of ``f``; ``order=2`` checks
    the gradient of the gradient-norm penalty
    ``sum_p ||d f / d p||^2`` via double backward.  Relative error uses a
    denominator floored at 1 so near-zero derivatives compare absolutely.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    base = [np.array(p, dtype=np.float64) for p in params]

    def build(values):
        """Fresh leaves and the checked objective: ``f``, or at ``order=2``
        its gradient-norm penalty."""
        tape = Tape()
        leaves = [tape.leaf(v) for v in values]
        out = f(*leaves)
        if not np.all(np.isfinite(out.data)):
            raise NonFiniteError("objective evaluated to a non-finite value")
        if order == 2:
            pen = None
            for g in grad(out, leaves, create_graph=True):
                term = l2_norm_sq(g)
                pen = term if pen is None else add(pen, term)
            out = pen
        return leaves, out

    # analytic side
    leaves, out = build(base)
    if out.node is None:
        # a constant objective (at order 2: ``f`` has a constant gradient)
        # has derivative exactly zero
        analytic = [np.zeros_like(v) for v in base]
    else:
        analytic = [g.data for g in grad(out, leaves)]

    worst = 0.0
    for i, arr in enumerate(base):
        flat = arr.reshape(-1)
        for j in range(flat.size):
            plus = [a.copy() for a in base]
            minus = [a.copy() for a in base]
            plus[i].reshape(-1)[j] += step
            minus[i].reshape(-1)[j] -= step
            numeric = (build(plus)[1].item()
                       - build(minus)[1].item()) / (2 * step)
            worst = max(worst, _rel_err(float(analytic[i].reshape(-1)[j]), numeric))
    return worst
