"""Modular multi-task network: K encoder modules, a sigmoid-parameterized
task-to-module routing graph, and per-task predictor heads.

Parameters live outside the tape as plain arrays; a :class:`TapeBinding`
puts each one on the active tape as a leaf exactly once per step, or as a
constant when a forward pass must treat a sub-network as fixed (the
penalty passes detach the heads this way).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T

LOSS_KINDS = ("mse", "xent")
ACTIVATIONS = ("tanh", "relu", "linear")


class ModelError(Exception):
    pass


class UnknownTaskError(ModelError):
    pass


class Parameter:
    """Named trainable array, persistent across tape resets."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


class TapeBinding:
    """Per-step bridge from persistent parameters to tape leaves."""

    def __init__(self, tape: T.Tape):
        self.tape = tape
        self._leaves: dict[int, T.Tensor] = {}

    def leaf(self, p: Parameter) -> T.Tensor:
        key = id(p)
        if key not in self._leaves:
            self._leaves[key] = self.tape.leaf(p.value, trainable=True)
        return self._leaves[key]

    def const(self, p: Parameter) -> T.Tensor:
        return T.Tensor(p.value)

    def leaves_for(self, params) -> list[T.Tensor]:
        return [self.leaf(p) for p in params]


def _init_weight(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Mlp:
    """Feed-forward stack; activation applied between layers, not after the last.

    ``copies`` runs that many stacks side by side: the first layer holds
    their columns next to each other, and later layers are block-diagonal
    under a constant mask."""

    def __init__(self, name: str, widths, activation: str, rng,
                 copies: int = 1):
        if activation not in ACTIVATIONS:
            raise ModelError(f"unknown activation '{activation}'")
        if len(widths) < 2:
            raise ModelError("an MLP needs at least input and output widths")
        self.widths = tuple(int(w) for w in widths)
        self.activation = activation
        self.layers, self.masks = [], []
        fans = list(zip(self.widths[:-1], self.widths[1:]))
        for i, (fan_in, fan_out) in enumerate(fans):
            rows, cols = fan_in * copies if i else fan_in, fan_out * copies
            self.layers.append((
                Parameter(f"{name}.layer{i}.weight", np.zeros((rows, cols))),
                Parameter(f"{name}.layer{i}.bias", np.zeros((1, cols)))))
            self.masks.append(
                T.Tensor(np.kron(np.eye(copies), np.ones((fan_in, fan_out))))
                if i and copies > 1 else None)
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
        rows = slice(None) if i == 0 else slice(c * fan_in, (c + 1) * fan_in)
        return w.value[rows, cols], b.value[:, cols]

    def forward(self, binding: TapeBinding, x: T.Tensor,
                detach: bool = False) -> T.Tensor:
        get = binding.const if detach else binding.leaf
        h = x
        last = len(self.layers) - 1
        for i, ((w, b), mask) in enumerate(zip(self.layers, self.masks)):
            weight = get(w) if mask is None else T.multiply(get(w), mask)
            h = T.add(T.matmul(h, weight), get(b))
            if i < last:
                if self.activation == "tanh":
                    h = T.tanh(h)
                elif self.activation == "relu":
                    h = T.relu(h)
        return h

    def parameters(self) -> list[Parameter]:
        return [p for pair in self.layers for p in pair]


class ModuleBank:
    """K encoders with identical architecture, each input_dim -> d/K, run as
    one :class:`Mlp` of K copies.  Encodings are B x d; module i owns
    columns [i*d/K, (i+1)*d/K)."""

    def __init__(self, k: int, input_dim: int, total_dim: int, hidden,
                 activation: str, rng):
        if k < 1:
            raise ModelError("need at least one module")
        if total_dim % k != 0:
            raise ModelError(
                f"total output dimension {total_dim} not divisible by K={k}"
            )
        self.k = k
        self.input_dim = int(input_dim)
        self.module_dim = total_dim // k
        self.net = Mlp("bank", (input_dim, *hidden, self.module_dim),
                       activation, rng, copies=k)
        # routing row -> per-column weights (K x d); d columns -> module sum
        self._expand = T.Tensor(np.kron(np.eye(k), np.ones((1, self.module_dim))))
        self._fold = T.Tensor(np.kron(np.ones((k, 1)), np.eye(self.module_dim)))

    def encode(self, binding: TapeBinding, x: T.Tensor) -> T.Tensor:
        if x.shape[1] != self.input_dim:
            raise ModelError(
                f"input dim {x.shape[1]} does not match encoder spec "
                f"{self.input_dim}"
            )
        return self.net.forward(binding, x)

    def route(self, a_row: T.Tensor, z: T.Tensor) -> T.Tensor:
        """Fuse module outputs: sum_i a_row[i] * (module i's columns of z)."""
        if a_row.size != self.k:
            raise ModelError(
                f"routing row has {a_row.size} weights for {self.k} modules")
        if self.k == 1:
            # the expand/fold products would only cost time at K = 1
            return T.multiply(z, a_row)
        return T.matmul(T.multiply(z, T.matmul(a_row, self._expand)),
                        self._fold)

    def parameters(self) -> list[Parameter]:
        return self.net.parameters()


def routing_weights(theta: T.Tensor) -> T.Tensor:
    """Elementwise sigmoid of the routing logits."""
    return T.sigmoid(theta)


class RoutingGraph:
    """T x K learnable logits; weights A = sigmoid(theta), recomputed per access."""

    def __init__(self, tasks: int, k: int):
        self.tasks = tasks
        self.k = k
        self.theta = Parameter("routing.theta", np.zeros((tasks, k)))

    def weights(self, binding: TapeBinding) -> T.Tensor:
        return routing_weights(binding.leaf(self.theta))

    def matrix(self) -> np.ndarray:
        """Current numpy value of A (reporting only, not differentiable)."""
        return 1.0 / (1.0 + np.exp(-self.theta.value))


class MtlModel:
    """Module bank + routing graph + per-task heads."""

    def __init__(self, tasks: int, k: int, input_dim: int, total_dim: int,
                 encoder_hidden, encoder_activation: str, head_hidden,
                 head_out_dims, loss_kinds, rng):
        self.tasks = int(tasks)
        self.bank = ModuleBank(k, input_dim, total_dim, encoder_hidden,
                               encoder_activation, rng)
        self.routing = RoutingGraph(tasks, k)
        for kind in loss_kinds:
            if kind not in LOSS_KINDS:
                raise ModelError(f"unknown loss kind '{kind}'")
        self.loss_kinds = tuple(loss_kinds)
        self.heads = [
            Mlp(f"head{t}", (self.bank.module_dim, *head_hidden, head_out_dims[t]),
                encoder_activation if head_hidden else "linear", rng)
            for t in range(tasks)
        ]

    @property
    def k(self):
        return self.bank.k

    def _check_task(self, t: int):
        if not 0 <= t < self.tasks:
            raise UnknownTaskError(f"task {t} out of range [0, {self.tasks})")

    def encode(self, binding: TapeBinding, x) -> T.Tensor:
        if not isinstance(x, T.Tensor):
            x = T.Tensor(x)
        return self.bank.encode(binding, x)

    def routing_row(self, binding: TapeBinding, t: int) -> T.Tensor:
        self._check_task(t)
        return T.narrow(self.routing.weights(binding), 0, t, 1)

    def predict(self, binding: TapeBinding, t: int, x=None, z=None,
                a_row=None, detach_heads: bool = False) -> T.Tensor:
        """f_t applied to the routed fusion of module outputs.

        ``z`` / ``a_row`` let callers reuse a shared encoding or supply an
        explicit routing row (e.g. one that gradients are taken against).
        """
        self._check_task(t)
        if z is None:
            if x is None:
                raise ModelError("predict needs either x or a precomputed z")
            z = self.encode(binding, x)
        if a_row is None:
            a_row = self.routing_row(binding, t)
        fused = self.bank.route(a_row, z)
        return self.heads[t].forward(binding, fused, detach=detach_heads)

    def encoder_parameters(self) -> list[Parameter]:
        return self.bank.parameters() + [self.routing.theta]

    def head_parameters(self) -> list[Parameter]:
        return [p for head in self.heads for p in head.parameters()]

    def parameters(self) -> list[Parameter]:
        return self.encoder_parameters() + self.head_parameters()

    # --- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint arrays: each module's layers (views into the bank),
        then the routing logits and the heads."""
        net = self.bank.net
        state = {}
        for c in range(self.k):
            for i in range(len(net.layers)):
                for kind, view in zip(("weight", "bias"), net.block(c, i)):
                    state[f"module{c}.layer{i}.{kind}"] = view
        for p in [self.routing.theta, *self.head_parameters()]:
            state[p.name] = p.value
        return state

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
    payload = {
        "config_hash": config_hash,
        "arrays": {
            name: {"shape": list(val.shape), "data": val.ravel().tolist()}
            for name, val in model.state_dict().items()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path, model: MtlModel) -> str:
    with open(path) as fh:
        payload = json.load(fh)
    arrays = {
        name: np.array(entry["data"]).reshape(entry["shape"])
        for name, entry in payload["arrays"].items()
    }
    model.load_state(arrays)
    return payload.get("config_hash", "")
