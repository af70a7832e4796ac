"""Modular multi-task network: K encoder modules, a sigmoid-parameterized
task-to-module routing graph, and T linear task heads.  One op chain
routes and predicts all T tasks at once, through the whole routing matrix
and one block-diagonal head layer, so a step's tape does not grow with T.

Parameters live outside the tape as plain arrays; a :class:`TapeBinding`
puts each one on the active tape as a leaf exactly once per step, or as a
constant when a forward pass must treat a sub-network as fixed (the
penalty passes detach the heads this way).
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from . import tensor as T

LOSS_KINDS = ("mse", "xent")


class ModelError(Exception):
    pass


class Parameter:
    """Named trainable array that outlives every step's tape.  ``value`` is
    C-contiguous, and the optimizers write it in place."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.require(value, np.float64, "C")

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


class TapeBinding:
    """Per-step bridge from persistent parameters to tape leaves.

    ``support``, when given, is a sorted index array of the input columns
    a step reads; every other column is zero in every batch it encodes.
    :meth:`ModuleBank.encode` then multiplies only those columns, by the
    first bank weight's rows at them, bound through :meth:`rows`.  The
    gradient of such a leaf has only those rows, and :meth:`whole` puts
    it back into the parameter's shape."""

    def __init__(self, tape: T.Tape, support: np.ndarray | None = None):
        self.tape = tape
        self.support = support
        self._leaves: dict[int, T.Tensor] = {}
        self._by_rows: set[int] = set()

    def leaf(self, p: Parameter) -> T.Tensor:
        """``p`` as one leaf per step: the leaf :meth:`rows` made, if any."""
        key = id(p)
        if key not in self._leaves:
            self._leaves[key] = self.tape.leaf(p.value)
        return self._leaves[key]

    def rows(self, p: Parameter) -> T.Tensor:
        """``p``'s rows at ``support`` as one leaf per step.  It must be
        bound this way before anything binds it whole, which raises
        ModelError."""
        key = id(p)
        if key not in self._leaves:
            self._leaves[key] = self.tape.leaf(p.value[self.support])
            self._by_rows.add(key)
        elif key not in self._by_rows:
            raise ModelError(f"{p.name} is already bound whole")
        return self._leaves[key]

    def whole(self, p: Parameter, g: np.ndarray) -> np.ndarray:
        """The gradient ``g`` of ``p``'s leaf in ``p``'s shape: a leaf of
        rows gets zero rows outside the support."""
        if id(p) not in self._by_rows:
            return g
        full = np.zeros_like(p.value)
        full[self.support] = g
        return full

    def const(self, p: Parameter) -> T.Tensor:
        return T.Tensor(p.value)

    def leaves_for(self, params) -> list[T.Tensor]:
        return [self.leaf(p) for p in params]


def _init_weight(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Mlp:
    """Feed-forward stack; tanh between layers, none after the last.

    ``copies`` runs that many stacks side by side: the first layer holds
    their columns next to each other, and later layers are block-diagonal
    under a constant mask.  With ``own_inputs`` each copy reads its own
    block of input columns, so the first layer is block-diagonal too."""

    def __init__(self, name: str, widths, rng, copies: int = 1,
                 own_inputs: bool = False):
        if len(widths) < 2:
            raise ModelError("an MLP needs at least input and output widths")
        self.widths = tuple(int(w) for w in widths)
        self.copies, self.own_inputs = copies, own_inputs
        self.layers, self.masks = [], []
        fans = list(zip(self.widths[:-1], self.widths[1:]))
        for i, (fan_in, fan_out) in enumerate(fans):
            blocked = bool(i) or own_inputs
            rows = fan_in * copies if blocked else fan_in
            cols = fan_out * copies
            self.layers.append((
                Parameter(f"{name}.layer{i}.weight", np.zeros((rows, cols))),
                Parameter(f"{name}.layer{i}.bias", np.zeros((1, cols)))))
            self.masks.append(
                T.Tensor(np.kron(np.eye(copies), np.ones((fan_in, fan_out))))
                if blocked and copies > 1 else None)
        # copy by copy, layer by layer, weight before bias: the draw order
        # of separate stacks, so one seed gives the same weights
        for c in range(copies):
            for i, (fan_in, _) in enumerate(fans):
                for view in self.block(c, i):
                    view[...] = _init_weight(rng, fan_in, view.shape)

    def block(self, c: int, i: int):
        """Writable ``(weight, bias)`` views of copy ``c`` in layer ``i``."""
        w, b = self.layers[i]
        fan_in, fan_out = self.widths[i], self.widths[i + 1]
        cols = slice(c * fan_out, (c + 1) * fan_out)
        rows = (slice(c * fan_in, (c + 1) * fan_in) if i or self.own_inputs
                else slice(None))
        return w.value[rows, cols], b.value[:, cols]

    def named_blocks(self, prefix: str) -> dict:
        """Each copy's layers as views ``{prefix}{c}.layer{i}.{kind}``."""
        return {f"{prefix}{c}.layer{i}.{kind}": view
                for c in range(self.copies) for i in range(len(self.layers))
                for kind, view in zip(("weight", "bias"), self.block(c, i))}

    def weights(self, binding: TapeBinding, i: int, detach: bool = False,
                rows: bool = False):
        """Layer ``i``'s masked weight and bias, constants with ``detach``;
        with ``rows``, the weight as its rows at ``binding.support``."""
        get = binding.const if detach else binding.leaf
        (w, b), mask = self.layers[i], self.masks[i]
        weight = binding.rows(w) if rows else get(w)
        return (weight if mask is None else T.multiply(weight, mask)), get(b)

    def forward(self, binding: TapeBinding, x: T.Tensor,
                rows: bool = False) -> T.Tensor:
        """The stack on ``x``; with ``rows``, ``x`` holds only the input
        columns at ``binding.support``, and the first layer reads only the
        matching rows of its weight."""
        h = x
        for i in range(len(self.layers)):
            weight, bias = self.weights(binding, i, rows=rows and not i)
            h = T.add(T.matmul(h, weight), bias)
            if i < len(self.layers) - 1:
                h = T.tanh(h)
        return h

    def parameters(self) -> list[Parameter]:
        return [p for pair in self.layers for p in pair]


class ModuleBank:
    """K encoders with identical architecture, each input_dim -> d/K, run as
    one :class:`Mlp` of K copies.  Encodings are B x d; module i owns
    columns [i*d/K, (i+1)*d/K)."""

    def __init__(self, k: int, input_dim: int, total_dim: int, hidden, rng):
        if k < 1:
            raise ModelError("need at least one module")
        if total_dim % k != 0:
            raise ModelError(
                f"total output dimension {total_dim} not divisible by K={k}"
            )
        self.k = k
        self.input_dim = int(input_dim)
        self.module_dim = total_dim // k
        self.net = Mlp("bank", (input_dim, *hidden, self.module_dim), rng,
                       copies=k)
        # routing matrix -> per-column weights (K x d); column -> place in
        # its module, with a task axis to broadcast over (d x 1 x m)
        self._expand = T.Tensor(np.kron(np.eye(k), np.ones((1, self.module_dim))))
        self._fold = T.Tensor(np.kron(np.ones((k, 1)),
                                      np.eye(self.module_dim))[:, None, :])

    def encode(self, binding: TapeBinding, x: T.Tensor) -> T.Tensor:
        """The B x d encodings of ``x``.  With a ``binding.support``, ``x``
        is a constant whose other columns are zero: its support columns are
        gathered on each call, and they meet the first weight's rows at the
        support, one leaf for every encoding of the step.  The product
        skips only zero terms, so it changes no more than the order of
        the sums."""
        if x.shape[1] != self.input_dim:
            raise ModelError(
                f"input dim {x.shape[1]} does not match encoder spec "
                f"{self.input_dim}"
            )
        if binding.support is None:
            return self.net.forward(binding, x)
        # np.take gathers in half the time of x[:, support]; with the
        # default mode="raise" digits_irm read about 2.6 MB more peak RSS in
        # most runs, and the support is always in range
        gathered = np.take(x.data, binding.support, axis=1, mode="clip")
        return self.net.forward(binding, T.Tensor(gathered), rows=True)

    def route(self, a: T.Tensor, z: T.Tensor, weight=None) -> T.Tensor:
        """Fuse module outputs for all T tasks: B x (T*m), whose block t is
        sum_i a[t, i] * (module i's columns of z), times ``weight`` if given.

        This is ``z @ mix``: the d x (T*m) mixing matrix holds column j's
        module weight for task t at column j's place in task t's block.
        ``weight`` multiplies ``mix`` first, so no B x (T*m) array is formed.
        A 1 x 1 ``a`` scales ``z``; a mixing matrix would only cost time."""
        tasks, k = a.shape
        if k != self.k:
            raise ModelError(
                f"routing rows have {k} weights for {self.k} modules")
        if a.size == 1:
            fused = T.multiply(z, a)
            return fused if weight is None else T.matmul(fused, weight)
        d = self.k * self.module_dim
        per_column = T.transpose(T.matmul(a, self._expand))
        mix = T.reshape(T.multiply(T.reshape(per_column, (d, tasks, 1)),
                                   self._fold), (d, tasks * self.module_dim))
        return T.matmul(z, mix if weight is None else T.matmul(mix, weight))

    def parameters(self) -> list[Parameter]:
        return self.net.parameters()


class RoutingGraph:
    """T x K learnable logits; weights A = sigmoid(theta), recomputed per access."""

    def __init__(self, tasks: int, k: int):
        self.theta = Parameter("routing.theta", np.zeros((tasks, k)))

    def weights(self, binding: TapeBinding) -> T.Tensor:
        return T.sigmoid(binding.leaf(self.theta))

    def matrix(self) -> np.ndarray:
        """Current numpy value of A (reporting only, not differentiable)."""
        return 1.0 / (1.0 + np.exp(-self.theta.value))


class MtlModel:
    """Module bank + routing graph + T linear heads in one layer."""

    def __init__(self, tasks: int, k: int, input_dim: int, total_dim: int,
                 encoder_hidden, head_out: int, loss_kind: str, rng):
        if loss_kind not in LOSS_KINDS:
            raise ModelError(f"unknown loss kind '{loss_kind}'")
        self.tasks = int(tasks)
        self.bank = ModuleBank(k, input_dim, total_dim, encoder_hidden, rng)
        self.routing = RoutingGraph(tasks, k)
        self.loss_kind = loss_kind
        self.heads = Mlp("heads", (self.bank.module_dim, head_out), rng,
                         copies=self.tasks, own_inputs=True)

    @property
    def k(self):
        return self.bank.k

    def encode(self, binding: TapeBinding, x) -> T.Tensor:
        if not isinstance(x, T.Tensor):
            x = T.Tensor(x)
        return self.bank.encode(binding, x)

    def predict(self, binding: TapeBinding, z: T.Tensor, a=None,
                detach_heads: bool = False) -> T.Tensor:
        """Every task's prediction from the encoding ``z``, B x (T*o):
        columns [t*o, (t+1)*o) are head t on task t's routed fusion.  ``a``
        (T x K) defaults to the routing weights."""
        if a is None:
            a = self.routing.weights(binding)
        weight, bias = self.heads.weights(binding, 0, detach_heads)
        return T.add(self.bank.route(a, z, weight), bias)

    def head_parameters(self) -> list[Parameter]:
        return self.heads.parameters()

    def parameters(self) -> list[Parameter]:
        return [*self.bank.parameters(), self.routing.theta,
                *self.head_parameters()]

    # --- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint arrays: each module's layers, then the routing logits,
        then each head's layer, the modules and heads as views into the
        fused layers."""
        return {**self.bank.net.named_blocks("module"),
                self.routing.theta.name: self.routing.theta.value,
                **self.heads.named_blocks("head")}

    def load_state(self, arrays: dict):
        """Write every named array in place, once all names and shapes match."""
        state = self.state_dict()
        for name, target in state.items():
            if name not in arrays:
                raise ModelError(f"checkpoint missing parameter '{name}'")
            if np.shape(arrays[name]) != target.shape:
                raise ModelError(f"checkpoint shape {np.shape(arrays[name])} "
                                 f"!= {target.shape} for '{name}'")
        for name, target in state.items():
            target[...] = arrays[name]


def save_checkpoint(path, model: MtlModel, config_hash: str):
    """Write ``{"config_hash": str, "arrays": {name: {"shape": [...],
    "float64_le": str}}}`` as JSON: one entry per ``state_dict`` view, in
    its order, each the standard base64 of the array's row-major
    little-endian float64 bytes.  Arrays are encoded one at a time, and the
    bytes equal ``json.dumps`` of the whole payload."""
    dumps = json.dumps
    with open(path, "wb") as fh:
        fh.write(f'{{"config_hash": {dumps(config_hash)}, "arrays": {{'
                 .encode())
        for i, (name, val) in enumerate(model.state_dict().items()):
            fh.write(f'{", " if i else ""}{dumps(name)}: {{"shape": '
                     f'{dumps(list(val.shape))}, "float64_le": "'.encode())
            fh.write(base64.b64encode(np.ascontiguousarray(val, "<f8")))
            fh.write(b'"}')
        fh.write(b"}}")


def _decode_entry(name: str, entry) -> np.ndarray:
    """One checkpoint entry as an array; ModelError if it is malformed."""
    if isinstance(entry, dict) and "data" in entry:
        raise ModelError(f"'{name}' is in the old decimal-list checkpoint "
                         f"format, which is no longer read")
    if not isinstance(entry, dict) or set(entry) != {"shape", "float64_le"}:
        raise ModelError(f"'{name}' is not a {{\"shape\", \"float64_le\"}} "
                         f"entry")
    shape, text = entry["shape"], entry["float64_le"]
    if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape):
        raise ModelError(f"'{name}' has shape {shape!r}, not a list of "
                         f"non-negative integers")
    if not isinstance(text, str):
        raise ModelError(f"'{name}' float64_le is not a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ModelError(f"'{name}' is not standard base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ModelError(f"'{name}' holds {len(raw)} bytes, but shape "
                         f"{shape} needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, "<f8").reshape(shape)


def load_checkpoint(path, model: MtlModel) -> str:
    """Load a :func:`save_checkpoint` file into ``model`` and return its
    config hash.  A file that is not JSON, has a malformed entry (the old
    decimal-list format included) or does not match the model's names and
    shapes raises ModelError and changes nothing; an unreadable file raises
    OSError."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ModelError(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict) \
            or not isinstance(payload.get("config_hash"), str) \
            or not isinstance(payload.get("arrays"), dict):
        raise ModelError('not a {"config_hash": str, "arrays": {...}} '
                         'checkpoint')
    model.load_state({name: _decode_entry(name, entry)
                      for name, entry in payload["arrays"].items()})
    return payload["config_hash"]
