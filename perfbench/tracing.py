"""Traced runs: spans around calls into each ``mtcrl`` layer.

:class:`Tracer` replaces public functions with timing wrappers at the
place each caller looks them up (``harness`` imports ``decorrelation_loss``
by name, so ``harness.decorrelation_loss`` is the one wrapped), keeps one
span per wrapped call in memory and turns the spans of one unit into the
per-layer metrics of ``BENCHMARK.json``.  Nothing inside ``src/`` changes.

A span is ``[name, start, end, parent, step, nodes]``: ``parent`` is the
index of the enclosing span, ``step`` the train step it ran in (``None``
outside steps) and ``nodes`` the tape nodes it appended.  The layer is the
first dot-separated part of the name.  The tracer's own bookkeeping runs
in ``trace.bookkeeping`` spans, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
from mtcrl import analysis, cli, data, harness, model, oracles, regularizers
from mtcrl import tensor as T

LAYERS = ("tensor", "model", "regularizers", "data", "analysis", "oracles",
          "harness", "cli")

# (span name, owner of the attribute, attribute name)
PATCHES = [
    ("model.encode", model.MtlModel, "encode"),
    ("model.predict", model.MtlModel, "predict"),
    ("model.build", harness, "_build_model"),
    ("model.checkpoint.save", cli, "save_checkpoint"),
    ("model.checkpoint.load", cli, "load_checkpoint"),
    ("regularizers.decor", harness, "decorrelation_loss"),
    ("regularizers.graph", harness, "graph_reg_loss"),
    ("regularizers.girm", harness, "girm_penalty"),
    ("regularizers.env_grads", regularizers, "environment_gradients"),
    ("regularizers.env_grads", regularizers, "irm_baseline_penalty"),
    ("regularizers.task_risk", harness, "env_task_risk"),
    ("regularizers.task_risk", regularizers, "env_task_risk"),
    ("regularizers.task_risk", analysis, "env_task_risk"),
    ("harness.run_table2", harness, "run_table2"),
    ("harness.train", harness, "train"),
    ("harness.fit", harness, "_fit"),
    ("harness.evaluate", harness, "evaluate"),
    ("harness.optimizer", harness.Adam, "step"),
    ("harness.optimizer", harness.Sgd, "step"),
    ("data.gen", harness, "gen_multisem"),
    ("data.gen", cli, "gen_multisem"),
    ("data.compose", harness, "compose_multimnist"),
    ("data.compose", cli, "compose_multimnist"),
    ("data.idx_load", data, "load_idx"),
    ("data.split", harness, "split_environments"),
    ("data.split", data, "split_environments"),
    ("analysis.saliency", harness, "factor_gradient"),
    ("analysis.saliency", analysis, "factor_gradient"),
    ("analysis.score", harness, "spurious_score"),
    ("analysis.score", analysis, "spurious_score"),
    ("analysis.similarity", harness, "task_similarity"),
    ("analysis.similarity", analysis, "task_similarity"),
    ("analysis.heatmap", analysis, "module_corr_heatmap"),
    ("analysis.task_grads", analysis, "task_module_gradients"),
    ("analysis.export", analysis, "write_matrix_csv"),
    ("analysis.export", analysis, "svg_heatmap"),
    ("oracles.check", oracles, "oracle_check"),
]


def tape_bytes(tape: T.Tape) -> int:
    """Bytes of the distinct buffers the tape's nodes keep alive.

    Arrays are found in each node's parents and in its backward closure;
    views are traced to the buffer they share, so only copies add bytes.
    """
    seen = {}

    def add(obj):
        if isinstance(obj, T.Tensor):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            seen[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                add(item)

    for node in tape.nodes:
        add(node.parents)
        for cell in getattr(node.vjp, "__closure__", None) or ():
            add(cell.cell_contents)
    return sum(seen.values())


def useful_nodes(tape: T.Tape, output_nid: int, wrt_nids) -> int:
    """Nodes that are ancestors of the output and descendants of ``wrt``."""
    nodes = tape.nodes
    below = [False] * (output_nid + 1)
    wrt_nids = set(wrt_nids)
    for nid in range(output_nid + 1):
        below[nid] = nid in wrt_nids or any(
            p.node is not None and p.node.tape is tape and below[p.node.nid]
            for p in nodes[nid].parents)
    count, stack, seen = 0, [output_nid], {output_nid}
    while stack:
        nid = stack.pop()
        count += below[nid]
        for p in nodes[nid].parents:
            if p.node is not None and p.node.nid not in seen:
                seen.add(p.node.nid)
                stack.append(p.node.nid)
    return count


class Tracer:
    """In-memory spans and counters for one traced unit at a time."""

    def __init__(self):
        self._originals = []
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []
        self.step = None
        self.steps = 0
        self.tape = None
        self.flops = 0
        self.step_stats = []     # per step: nodes, bytes, flops, useful ratios
        self.grad_calls = {}     # span index -> (output nid, wrt nids)
        self.girm_backward = set()  # span indices of the outer girm backward
        self.penalty = None      # girm penalty tensor of the current step
        self.epochs = 0
        self.counters = {"checkpoint_bytes": 0, "idx_bytes": 0,
                         "checks_passed": 0}

    # --- spans ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        nodes = len(self.tape.nodes) if self.tape is not None else 0
        rec = [name, 0.0, 0.0, parent, self.step, nodes]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()
        rec[5] = (len(self.tape.nodes) - rec[5]) if self.tape is not None else 0

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                book = self._open("trace.bookkeeping")
                hook(args, result)
                self._close(book)
            return result
        return wrapper

    # --- installing -----------------------------------------------------

    def install(self):
        for name, owner, attr in PATCHES:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        self._originals.append((T, "grad", T.grad))
        T.grad = self._traced_grad(T.grad)
        self._originals.append((T, "matmul", T.matmul))
        T.matmul = self._counted_matmul(T.matmul)
        self._originals.append((harness, "train_step", harness.train_step))
        harness.train_step = self._traced_step(harness.train_step)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # --- special wrappers -------------------------------------------------

    def _traced_step(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.steps += 1
            self.step = self.steps
            self.tape = kwargs.get("tape")
            self.flops = 0
            self.penalty = None
            rec = self._open("harness.train_step")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
                book = self._open("trace.bookkeeping")
                self._record_step()
                self._close(book)
                self.step = None
                self.tape = None
            return result
        return wrapper

    def _record_step(self):
        tape = self.tape
        ratios = [useful_nodes(tape, out, wrt) / (out + 1)
                  for i, (out, wrt) in self.grad_calls.items()
                  if self.spans[i][4] == self.step]
        self.step_stats.append({"nodes": len(tape.nodes),
                                "bytes": tape_bytes(tape),
                                "flops": self.flops, "useful": ratios})

    def _traced_grad(self, fn):
        @functools.wraps(fn)
        def wrapper(output, wrt, create_graph=False, detached=()):
            wrt = list(wrt)
            index = len(self.spans)
            if self.step is not None:
                self.grad_calls[index] = (
                    output.node.nid,
                    [t.node.nid for t in wrt if t.node is not None])
                if output is self.penalty:
                    self.girm_backward.add(index)
            rec = self._open("tensor.grad_cg" if create_graph
                             else "tensor.grad")
            try:
                return fn(output, wrt, create_graph=create_graph,
                          detached=detached)
            finally:
                self._close(rec)
        return wrapper

    def _counted_matmul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            if self.step is not None:
                m, n = out.shape
                self.flops += 2 * m * n * np.shape(getattr(a, "data", a))[1]
            return out
        return wrapper

    # --- after-call hooks, named after the span -------------------------

    def _after_regularizers_girm(self, args, result):
        self.penalty = result

    def _after_harness_fit(self, args, result):
        self.epochs += result[2]

    def _after_model_checkpoint_save(self, args, result):
        self.counters["checkpoint_bytes"] += os.path.getsize(args[0])

    def _after_data_idx_load(self, args, result):
        self.counters["idx_bytes"] += os.path.getsize(args[0])

    def _after_oracles_check(self, args, result):
        self.counters["checks_passed"] += sum(r["passed"] for r in result)

    # --- metrics ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since :meth:`reset`."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] is not None:
                child[s[3]] += dur[i]
        steps = max(self.steps, 1)

        def total_ms(name, parent=None):
            return 1e3 * sum(
                d for s, d in zip(spans, dur) if s[0] == name
                and (parent is None or (s[3] is not None
                                        and spans[s[3]][0] == parent)))

        def per_step(name, field="ms"):
            sel = [(s, d) for s, d in zip(spans, dur)
                   if s[0] == name and s[4] is not None]
            if field == "calls":
                return len(sel) / steps
            if field == "nodes":
                return sum(s[5] for s, _ in sel) / steps
            return 1e3 * sum(d for _, d in sel) / steps

        stats = self.step_stats or [{"nodes": 0, "bytes": 0, "flops": 0,
                                     "useful": []}]
        useful = [r for st in stats for r in st["useful"]]
        grads = [i for i, s in enumerate(spans) if s[4] is not None
                 and s[0] in ("tensor.grad", "tensor.grad_cg")]
        girm_ms = 1e3 * sum(dur[i] for i in self.girm_backward)
        main_ms = 1e3 * sum(
            dur[i] for i in grads if i not in self.girm_backward
            and spans[i][0] == "tensor.grad"
            and spans[spans[i][3]][0] == "harness.train_step")
        out = {
            "tensor.nodes_per_step": float(np.mean([s["nodes"] for s in stats])),
            "tensor.bytes_per_step": float(np.mean([s["bytes"] for s in stats])),
            "tensor.matmul_gflop_per_step":
                float(np.mean([s["flops"] for s in stats])) / 1e9,
            "tensor.grad.ms_per_step": 1e3 * sum(dur[i] for i in grads) / steps,
            "tensor.grad_cg.ms_per_step": per_step("tensor.grad_cg"),
            "tensor.grad.calls_per_step": len(grads) / steps,
            "tensor.grad.useful_ratio":
                float(np.mean(useful)) if useful else 0.0,
            "model.encode.calls_per_step": per_step("model.encode", "calls"),
            "model.encode.ms_per_step": per_step("model.encode"),
            "model.checkpoint.save_ms": total_ms("model.checkpoint.save"),
            "model.checkpoint.load_ms": total_ms("model.checkpoint.load"),
            "model.checkpoint.bytes": float(self.counters["checkpoint_bytes"]),
            "regularizers.decor.ms_per_step": per_step("regularizers.decor"),
            "regularizers.decor.nodes_per_step":
                per_step("regularizers.decor", "nodes"),
            "regularizers.graph.ms_per_step": per_step("regularizers.graph"),
            "regularizers.girm.ms_per_step": per_step("regularizers.girm"),
            "regularizers.girm.nodes_per_step":
                per_step("regularizers.girm", "nodes"),
            "regularizers.env_grads.ms_per_step":
                per_step("regularizers.env_grads"),
            "harness.main_backward.ms_per_step": main_ms / steps,
            "harness.girm_backward.ms_per_step": girm_ms / steps,
            "harness.optimizer.ms_per_step": per_step("harness.optimizer"),
            "harness.evaluate.ms_per_epoch": total_ms(
                "harness.evaluate", parent="harness.fit") / max(self.epochs, 1),
            "harness.steps": float(self.steps),
            "data.gen.ms": total_ms("data.gen"),
            "data.idx_load.ms": total_ms("data.idx_load"),
            "data.idx_bytes": float(self.counters["idx_bytes"]),
            "data.compose.ms": total_ms("data.compose"),
            "analysis.saliency.ms": total_ms("analysis.saliency"),
            "analysis.heatmap.ms": total_ms("analysis.heatmap"),
            "analysis.task_grads.ms": total_ms("analysis.task_grads"),
            "analysis.export.ms": total_ms("analysis.export"),
            "oracles.check.ms": total_ms("oracles.check"),
            "oracles.checks_passed": float(self.counters["checks_passed"]),
        }
        self_ms = dict.fromkeys(LAYERS, 0.0)
        for s, d, c in zip(spans, dur, child):
            layer = s[0].split(".")[0]
            if layer in self_ms:
                self_ms[layer] += 1e3 * (d - c)
        for layer, ms in self_ms.items():
            out[f"{layer}.self_ms"] = ms
        out["trace.spans"] = float(len(spans))
        return out

    def dump(self, offset: float) -> list:
        """Spans as JSON-ready dicts, times in seconds from ``offset``."""
        return [{"name": s[0], "start": s[1] - offset, "end": s[2] - offset,
                 "parent": s[3], "step": s[4], "nodes": s[5]}
                for s in self.spans]
