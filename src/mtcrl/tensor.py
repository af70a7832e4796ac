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
  * no op writes tensor data in place, so ``transpose`` returns a view.
    A leaf shares its array with the parameter it was made from, and the
    optimizer writes parameter arrays in place after the step's backward
    pass, so a step's leaves hold the updated values once it is done.

A tape holds its nodes, but a node refers to its tape weakly, and no
backward rule closes over its own output: :func:`grad` hands the output
to the rule.  So the record is acyclic, and a dropped tape is freed by
reference counting the moment its last reference goes, without the cycle
collector.  The rule that follows: keep a tape referenced while its
tensors are used.  An op on a tensor whose tape was dropped, or
:func:`grad` of one, raises :class:`StaleTapeError`.

A node keeps alive only the arrays its backward rule reads: its output
array for ``tanh``, ``sigmoid`` and ``exp``, and, through the rule's
closure, the operands of ``matmul``, ``multiply``, ``square``, ``pow``
and ``log``.  The node records each parent as a value-free stand-in with
the parent's ``node`` and ``shape``, so an intermediate array that only
feeds other ops (a pre-activation sum, a product that is summed) is freed
once the caller drops it, not when the tape goes.

:func:`grad` walks only the nodes between the output and the requested
tensors, and tells each backward rule which parents need a gradient; a
rule may return ``None`` for the others, so a constant operand (a data
matrix, a detached head) costs no adjoint product and records no nodes.
It frees each adjoint once its node's rule has used it, so a backward
pass holds only the adjoints still waiting to be used.

A first-order :func:`grad` (``create_graph=False``) also consumes the
record it walks: once a node's rule has run, the node drops the rule and
its kept output, and keeps its parents.  So a training step's backward
pass frees the forward record as it goes, and what is left for the
optimizer is the gradients.  A later walk that reaches a consumed node
raises :class:`StaleTapeError` naming it: take each first-order gradient
of one graph from a forward pass of its own.  A ``create_graph=True``
walk consumes nothing, so the inner gradients of a penalty leave the
record whole for the outer backward.

Ops do not check their outputs for finiteness.  Callers check with
:func:`check_finite` where values leave a computation (a training step's
loss, penalty and gradients, evaluation risks, analysis outputs), and
replay a failing computation under :func:`detect_anomaly`, which checks
every op and names the first one that produces a non-finite value.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np


class TensorError(Exception):
    """Base class for tensor-core failures."""


class ShapeMismatchError(TensorError):
    pass


class DomainError(TensorError):
    pass


class NonFiniteError(TensorError):
    """Non-finite values where finiteness is checked.

    ``boundary`` names the checked value (a step's loss, a gradient, ...).
    Under :func:`detect_anomaly` the error also names the op that produced
    the values: ``op``, its ``node`` id (``None`` when unrecorded) and
    ``parent_ops`` (``None`` for a parent that is not on a tape).  For an
    unrecorded op of a backward pass, ``rule_node`` and ``rule_op`` name
    the forward node whose backward rule ran it.  The training loop fills
    ``epoch`` and ``step``.
    """

    FIELDS = ("boundary", "op", "node", "parent_ops", "rule_node", "rule_op",
              "epoch", "step")

    def __init__(self, boundary=None, op=None, node=None, parent_ops=()):
        super().__init__(boundary, op, node, parent_ops)
        self.boundary, self.op, self.node = boundary, op, node
        self.parent_ops = tuple(parent_ops)
        self.rule_node = self.rule_op = self.epoch = self.step = None

    def fields(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __str__(self):
        text = "non-finite values"
        if self.boundary is not None:
            text += f" in {self.boundary}"
        if self.op is not None:
            node = "unrecorded" if self.node is None else f"node {self.node}"
            parents = ", ".join("off-tape" if p is None else p
                                for p in self.parent_ops)
            text += (f"; first produced by operation '{self.op}' ({node}, "
                     f"parents: {parents})")
        if self.rule_node is not None:
            text += (f" in the backward rule of node {self.rule_node} "
                     f"('{self.rule_op}')")
        if self.epoch is not None:
            text += f" at epoch {self.epoch}, step {self.step}"
        return text


class NonScalarOutputError(TensorError):
    pass


class StaleTapeError(TensorError):
    pass


class NotOnTapeError(TensorError):
    pass


class Node:
    """One recorded operation: kind, parents and a backward rule.

    ``parents`` holds one value-free :class:`_Parent` per operand, with
    its ``node`` and ``shape``; a rule that reads an operand's values
    closes over the operand.  ``out`` is the output array where the rule
    reads it (``tanh``, ``sigmoid``, ``exp``), else ``None``.

    ``vjp(out, upstream, needs)`` returns one gradient per parent, given
    the node's output as a tensor on the tape (``None`` where ``out`` is
    not kept).  ``needs`` holds one flag per parent, false for constants
    and for parents no requested gradient depends on; the rule may return
    ``None`` for those.  Parent node ids always precede ``nid`` because
    nodes are appended in execution order.  ``tape`` is the owning tape,
    or ``None`` once it was dropped.  Once a first-order :func:`grad` has
    run the rule, ``vjp`` is the ``_consumed`` sentinel and ``out`` is
    ``None``.
    """

    __slots__ = ("nid", "op", "parents", "vjp", "out", "_tape", "generation")

    def __init__(self, nid, op, parents, vjp, out, tape):
        self.nid = nid
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.out = out
        self._tape = tape.ref
        self.generation = tape.generation

    @property
    def tape(self) -> "Tape | None":
        return self._tape()


class Tape:
    """Append-only record of operations for one differentiation scope."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.generation = 0
        self.recording = True
        self.ref = weakref.ref(self)

    def reset(self):
        """Drop all nodes; tensors from before the reset become stale."""
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
        data = np.asarray(value, dtype=np.float64)
        node = Node(len(self.nodes), "leaf", (), None, None, self)
        self.nodes.append(node)
        return Tensor(data, node)


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


class _Parent:
    """A recorded parent: its node and shape, without its array."""

    __slots__ = ("node", "shape")

    def __init__(self, tensor):
        self.node, self.shape = tensor.node, tensor.data.shape


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _tape_of(tensors: Iterable[Tensor]) -> Tape | None:
    tape = None
    for t in tensors:
        if t.node is not None:
            owner = _owner(t.node, "tensor")
            if tape is None:
                tape = owner
            elif tape is not owner:
                raise TensorError("inputs live on different tapes")
    return tape


def _owner(node: Node, what: str) -> Tape:
    """The live tape of ``node``; :class:`StaleTapeError` names ``what``
    when that tape was dropped or reset since the node was recorded."""
    tape = node._tape()
    if tape is None:
        raise StaleTapeError(
            f"{what} from node {node.nid} lives on a dropped tape; keep the "
            "tape referenced while its tensors are used")
    if node.generation != tape.generation:
        raise StaleTapeError(f"{what} from node {node.nid} predates a tape reset")
    return tape


_anomaly = False


@contextlib.contextmanager
def detect_anomaly():
    """Check every op's output for finiteness inside the block.

    A non-finite output raises :class:`NonFiniteError` naming the op, its
    node and its parents' ops.  The check costs one pass over every op's
    output, so it is meant for replaying a computation that failed a
    :func:`check_finite` boundary, not for normal runs."""
    global _anomaly
    prev, _anomaly = _anomaly, True
    try:
        yield
    finally:
        _anomaly = prev


def is_anomaly_enabled() -> bool:
    return _anomaly


def check_finite(value, boundary: str):
    """Raise :class:`NonFiniteError` naming ``boundary`` unless every entry
    of ``value`` (a tensor, an array or a number) is finite."""
    data = value.data if isinstance(value, Tensor) else value
    if not np.isfinite(data).all():
        raise NonFiniteError(boundary)


def _check_op(data: np.ndarray, op: str, node: Node | None, parents):
    """The per-op check of :func:`detect_anomaly`."""
    if not np.isfinite(data).all():
        raise NonFiniteError(
            op=op, node=None if node is None else node.nid,
            parent_ops=[None if p.node is None else p.node.op
                        for p in parents])


def _make(op: str, data: np.ndarray, parents: Sequence[Tensor],
          vjp: Callable | None, keep_out: bool = False) -> Tensor:
    """The op's output tensor, recorded when its inputs are on a recording
    tape.  The node keeps ``data`` only with ``keep_out``, for a rule that
    reads its own output; parents are recorded as value-free stand-ins."""
    tape = _tape_of(parents)
    node = None
    if tape is not None and tape.recording:
        node = Node(len(tape.nodes), op, tuple(map(_Parent, parents)), vjp,
                    data if keep_out else None, tape)
        tape.nodes.append(node)
    if _anomaly:
        _check_op(data, op, node, parents)
    return Tensor(data, node)


def _broadcasting(ufunc, op, a, b) -> np.ndarray:
    """``ufunc`` of two tensors' data; shapes that do not broadcast raise
    :class:`ShapeMismatchError`."""
    try:
        return ufunc(a.data, b.data)
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
    a_shape, b_shape = a.shape, b.shape

    def vjp(out, g, needs):
        return (_unbroadcast(g, a_shape) if needs[0] else None,
                _unbroadcast(g, b_shape) if needs[1] else None)

    data = _broadcasting(np.add, "add", a, b)
    return _make("add", data, (a, b), vjp)


def subtract(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    a_shape, b_shape = a.shape, b.shape

    def vjp(out, g, needs):
        return (_unbroadcast(g, a_shape) if needs[0] else None,
                _unbroadcast(scale(g, -1.0), b_shape) if needs[1] else None)

    data = _broadcasting(np.subtract, "subtract", a, b)
    return _make("subtract", data, (a, b), vjp)


def multiply(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)

    def vjp(out, g, needs):
        return (
            _unbroadcast(multiply(g, b), a.shape) if needs[0] else None,
            _unbroadcast(multiply(g, a), b.shape) if needs[1] else None,
        )

    data = _broadcasting(np.multiply, "multiply", a, b)
    return _make("multiply", data, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"operation 'matmul': incompatible shapes {a.shape} @ {b.shape}"
        )

    def vjp(out, g, needs):
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

    def vjp(out, g, needs):
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

    def vjp(out, g, needs):
        return (reshape(g, old),)

    return _make("reshape", a.data.reshape(shape), (a,), vjp)


def scale(a, c: float) -> Tensor:
    a = _lift(a)
    c = float(c)

    def vjp(out, g, needs):
        return (scale(g, c),)

    return _make("scale", a.data * c, (a,), vjp)


def sigmoid(a) -> Tensor:
    a = _lift(a)
    x = a.data
    e = np.exp(-np.abs(x))
    data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(out, g, needs):
        return (multiply(multiply(g, out), subtract(1.0, out)),)

    return _make("sigmoid", data, (a,), vjp, keep_out=True)


def tanh(a) -> Tensor:
    a = _lift(a)

    def vjp(out, g, needs):
        return (multiply(g, subtract(1.0, square(out))),)

    return _make("tanh", np.tanh(a.data), (a,), vjp, keep_out=True)


def exp(a) -> Tensor:
    a = _lift(a)

    def vjp(out, g, needs):
        return (multiply(g, out),)

    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return _make("exp", data, (a,), vjp, keep_out=True)


def log(a) -> Tensor:
    a = _lift(a)
    if np.any(a.data <= 0):
        raise DomainError("operation 'log': input has non-positive values")

    def vjp(out, g, needs):
        return (multiply(g, pow_const(a, -1.0)),)

    return _make("log", np.log(a.data), (a,), vjp)


def square(a) -> Tensor:
    a = _lift(a)

    def vjp(out, g, needs):
        return (scale(multiply(g, a), 2.0),)

    return _make("square", a.data * a.data, (a,), vjp)


def pow_const(a, p: float) -> Tensor:
    a = _lift(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0):
        raise DomainError("operation 'pow': fractional power of negative values")
    if p < 0 and np.any(a.data == 0):
        raise DomainError("operation 'pow': negative power of zero")

    def vjp(out, g, needs):
        return (scale(multiply(g, pow_const(a, p - 1.0)), p),)

    with np.errstate(over="ignore"):
        data = a.data ** p
    return _make("pow", data, (a,), vjp)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    in_shape = a.shape

    def vjp(out, g, needs):
        if axis is None:
            ndim = len(in_shape)
            expand = g if g.data.ndim == ndim else reshape(g, (1,) * ndim)
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

    def vjp(out, g, needs):
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

    def vjp(out, up, needs):
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


def _consumed(out, g, needs):
    """The rule of a node whose record a first-order :func:`grad` consumed;
    :func:`grad` raises :class:`StaleTapeError` before calling it."""
    raise StaleTapeError("this node's record was consumed")


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
    tape, so a second call differentiates through them.  Without it, each
    visited node's rule and kept output are dropped once the rule has run,
    and a later call that reaches such a node raises
    :class:`StaleTapeError` naming its id and op.  Tensors listed in
    ``detached``, and tensors the output does not depend on, get zero
    tensors of matching shape; gradients still flow through detached
    tensors to other requested tensors.
    """
    if output.node is None:
        raise NotOnTapeError("output is not on a tape")
    tape = _owner(output.node, "output")
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
            if node.vjp is _consumed:
                raise StaleTapeError(
                    f"node {node.nid} ('{node.op}') was consumed by an "
                    "earlier first-order grad; record the graph again")
            needs = tuple(p.node is not None and p.node.nid in active
                          for p in node.parents)
            if not any(needs):
                continue
            try:
                out = None if node.out is None else Tensor(node.out, node)
                vjps = node.vjp(out, g, needs)
                if not create_graph:
                    # a first-order walk consumes the record it has read
                    node.vjp, node.out = _consumed, None
                for parent, need, pg in zip(node.parents, needs, vjps):
                    if not need:
                        continue
                    pid = parent.node.nid
                    if pid in grads:
                        grads[pid] = add(grads[pid], pg)
                    else:
                        grads[pid] = pg
            except NonFiniteError as exc:
                if exc.node is None and exc.rule_node is None:
                    exc.rule_node, exc.rule_op = node.nid, node.op
                raise

    return [grads[t.node.nid] if t.node.nid in grads
            and t.node.nid not in detached_ids else Tensor(np.zeros(t.shape))
            for t in wrt]


# ---------------------------------------------------------------------------
# finite-difference oracle


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1.0, abs(a), abs(n))


@np.errstate(all="ignore")  # the objectives and derivatives are checked
def finite_diff_check(f, params, step: float = 1e-5, order: int = 1) -> float:
    """Max relative error between autodiff and central finite differences.

    ``f`` takes one leaf tensor per entry of ``params`` (arrays of initial
    values) and returns a one-element tensor of any shape, as ``grad``
    accepts.  ``order=1`` checks the gradient of ``f``; ``order=2`` checks
    the gradient of the gradient-norm penalty
    ``sum_p ||d f / d p||^2`` via double backward.  Relative error uses a
    denominator floored at 1 so near-zero derivatives compare absolutely.
    A non-finite objective (at any point), analytic derivative or finite
    difference raises :class:`NonFiniteError`, since no error can be
    measured against it.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    base = [np.array(p, dtype=np.float64) for p in params]

    def build(values):
        """A fresh tape, its leaves and the checked objective: ``f``, or at
        ``order=2`` its gradient-norm penalty."""
        tape = Tape()
        leaves = [tape.leaf(v) for v in values]
        out = f(*leaves)
        check_finite(out, "the objective")
        if order == 2:
            pen = None
            for g in grad(out, leaves, create_graph=True):
                term = l2_norm_sq(g)
                pen = term if pen is None else add(pen, term)
            out = pen
            check_finite(out, "the gradient-norm penalty")
        return tape, leaves, out

    # analytic side; ``tape`` stays referenced while ``grad`` runs on it
    tape, leaves, out = build(base)
    if out.node is None:
        # a constant objective (at order 2: ``f`` has a constant gradient)
        # has derivative exactly zero
        analytic = [np.zeros_like(v) for v in base]
    else:
        analytic = [g.data for g in grad(out, leaves)]
        for a in analytic:
            check_finite(a, "the analytic derivative")

    worst = 0.0
    for i, arr in enumerate(base):
        flat = arr.reshape(-1)
        for j in range(flat.size):
            plus = [a.copy() for a in base]
            minus = [a.copy() for a in base]
            plus[i].reshape(-1)[j] += step
            minus[i].reshape(-1)[j] -= step
            numeric = (build(plus)[2].item()
                       - build(minus)[2].item()) / (2 * step)
            check_finite(numeric, "the finite difference")
            worst = max(worst, _rel_err(float(analytic[i].reshape(-1)[j]), numeric))
    return worst
