"""Benchmark of the ``mtcrl`` package: one workload per call.

Run from the root of a checkout (nothing needs building; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload sem_mtcrl --seed 0 --seconds 40 --trace 0

The run repeats the workload's unit (see ``workloads.py``) until
``--seconds`` is used up, at least ``min_units`` times, and checks every
command's exit code and outputs.  Every unit of one run uses the same
config seeds, so their output digests must agree.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; its
only hook is a clock around ``harness.train_step``.  ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics of
the traced ones (see ``tracing.py``) plus the tracing overhead, and writes
the spans to ``.bench_work/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (environment, step count, digest, problems), which
are also written to ``.bench_work/results/``.  Exit code 0 means every
check passed, 1 that a command or check failed, 2 that the program or
``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

WORK = ".bench_work"


BLAS_THREADS = 1


def pin_threads() -> int:
    """Pin BLAS to one thread; must precede the numpy import.

    With a thread per CPU, a step waits for the slower of two CPUs, and on
    a shared 2-CPU host that made ``digits_irm`` swing up to 2x between
    runs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MTCRL_WORKERS", None)  # keeps run_configs sequential
    return BLAS_THREADS


def git_sha(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(root: str, threads: int) -> dict:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(root)}


class StepClock:
    """The untraced run's only hook: a clock around ``harness.train_step``."""

    def __init__(self, harness):
        self._step = harness.train_step
        harness.train_step = self._timed
        self.reset()

    def reset(self):
        self.first_start = None
        self.durations = []
        self.rows = 0

    def _timed(self, model, train_batch, *args, **kwargs):
        start = time.perf_counter()
        if self.first_start is None:
            self.first_start = start
        result = self._step(model, train_batch, *args, **kwargs)
        self.durations.append(time.perf_counter() - start)
        self.rows += train_batch.n_samples
        return result


@dataclass
class Unit:
    index: int
    outcome: object          # workloads.UnitOutcome
    wall: float
    setup: float
    durations: list          # seconds inside each train step
    rows: int
    layer: dict | None       # per-layer metrics of a traced unit


def run_unit(workload, index, out_dir, clock, tracer=None) -> Unit:
    from workloads import Op, UnitOutcome, invoke_cli

    def invoke(argv):
        if tracer is None:
            return invoke_cli(argv)
        return tracer.call(f"cli.{argv[0]}", invoke_cli, argv)

    clock.reset()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    try:
        outcome = workload.unit(out_dir, invoke, index)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        outcome = UnitOutcome([Op("output checks", 0,
                                  [f"{type(exc).__name__}: {exc}"])],
                              "", math.nan, math.nan)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    steps = len(clock.durations)
    if steps != workload.expected_steps:
        outcome.ops[0].problems.append(
            f"harness.steps={steps}, configured {workload.expected_steps}")
    setup = (clock.first_start - start) if clock.first_start else math.nan
    shutil.rmtree(out_dir, ignore_errors=True)
    layer = tracer.metrics() if tracer is not None else None
    return Unit(index, outcome, wall, setup, list(clock.durations),
                clock.rows, layer)


def end_to_end(units, first, rss_mb, attempted, failed) -> dict:
    import numpy as np
    durations = [d for u in units for d in u.durations]
    return {
        "setup_s": statistics.median(u.setup for u in units),
        "run_s": statistics.median(u.wall for u in units),
        "step_ms_p50": 1e3 * float(np.percentile(durations, 50)),
        "step_ms_p90": 1e3 * float(np.percentile(durations, 90)),
        "train_samples_per_s": sum(u.rows for u in units) / sum(durations),
        "peak_rss_mb": rss_mb,
        "acc_val": statistics.fmean(u.outcome.acc_val for u in first),
        "rho_spur": statistics.fmean(u.outcome.rho_spur for u in first),
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(plain, traced) -> dict:
    names = traced[0].layer
    out = {k: statistics.median(u.layer[k] for u in traced) for k in names}
    out["trace.run_s"] = statistics.median(u.wall for u in traced)
    out["trace.overhead_s"] = (out["trace.run_s"]
                               - statistics.median(u.wall for u in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    threads = pin_threads()
    spec_path = os.path.join(root, "BENCHMARK.json")
    src = os.path.join(root, "src")
    if not os.path.isfile(spec_path):
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(src, "mtcrl", "cli.py")):
        print(f"error: no mtcrl package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import mtcrl
    if os.path.dirname(os.path.realpath(mtcrl.__file__)) != \
            os.path.realpath(os.path.join(src, "mtcrl")):
        print(f"error: mtcrl imported from {mtcrl.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from mtcrl import harness

    import tracing
    from workloads import WORKLOADS

    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    tag = f"{workload.name}-seed{args.seed}"
    work_dir = os.path.join(root, WORK, f"run-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    clock = StepClock(harness)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, spans = [], [], []
    rss_mb = math.nan
    try:
        workload.prepare(work_dir, args.seed)
        begin = time.perf_counter()
        while True:
            trace_next = tracer is not None and len(traced) < len(plain)
            done = traced if trace_next else plain
            index = len(plain) + len(traced)
            enough = index >= (2 if tracer is not None else workload.min_units)
            if enough:
                guess = statistics.median(u.wall for u in (done or plain))
                if time.perf_counter() - begin + guess > args.seconds:
                    break
            unit = run_unit(workload, index,
                            os.path.join(work_dir, f"unit{index}"), clock,
                            tracer if trace_next else None)
            done.append(unit)
            if len(plain) == workload.min_units and not traced:
                # Read after a fixed amount of work: the peak creeps up
                # with each further unit, and their count depends on speed.
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace_next:
                spans.append(tracer.dump(begin))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = sorted(plain + traced, key=lambda u: u.index)
    first = {}
    for u in units:
        config = u.index % workload.n_configs
        if config not in first:
            first[config] = u
        elif u.outcome.digest != first[config].outcome.digest:
            u.outcome.ops[0].problems.append(
                f"output digest {u.outcome.digest[:12]} differs from unit "
                f"{first[config].index}'s {first[config].outcome.digest[:12]}")
    ops = [op for u in units for op in u.outcome.ops]
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)

    if tracer is None:
        values = end_to_end(plain, first.values(), rss_mb, attempted,
                            failed)
        wanted = "end_to_end"
    else:
        values, wanted = per_layer(plain, traced), "per_layer"
    units_of = {m["name"]: m["unit"] for m in spec[wanted]}
    if set(values) != set(units_of):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units_of))} "
                           f"do not match BENCHMARK.json {wanted}")
    metrics = {name: {"value": values[name] if math.isfinite(values[name])
                      else None, "unit": units_of[name]} for name in units_of}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(root, threads),
        "units": len(plain), "traced_units": len(traced),
        "steps": sum(len(u.durations) for u in plain),
        "unit_wall_s": [u.wall for u in units],
        "unit_setup_s": [u.setup for u in units],
        "digests": [u.outcome.digest for u in first.values()],
        "problems": [f"{op.command}: {p}" for op in ops for p in op.problems],
    }
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(root, WORK, sub), exist_ok=True)
    with open(os.path.join(root, WORK, "results",
                           f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    if spans:
        with open(os.path.join(root, WORK, "traces", f"{tag}.json"), "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "units": spans}, fh)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
