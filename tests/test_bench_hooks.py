"""The benchmark wraps names inside ``mtcrl``: ``perfbench/run.py`` clocks
``harness.train_step`` and ``perfbench/tracing.py`` patches more.  A
rename, or a change to how often a hook runs, that would break the
benchmark fails here."""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from mtcrl import harness
from mtcrl import tensor as T
from mtcrl.data import SemSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("bench_tracing", PERFBENCH / "tracing.py")


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run_unit imports workloads
    return _load("bench_run", PERFBENCH / "run.py")


def quick_config(**overrides):
    """A small full-batch mtcrl fit (girm ``var``)."""
    spec = SemSpec(n_train=60, n_valid=60, n_test=60)
    return harness.TrainConfig(**{
        "dataset": spec, "k_modules": 2, "total_module_dim": 4,
        "encoder_hidden": (4,), "epochs": 3, "patience": 3, **overrides})


def test_every_patched_name_resolves(tracing):
    for span, owner, attr in tracing.PATCHES:
        assert callable(getattr(owner, attr)), (span, attr)


def test_wrapped_calls_keep_their_signatures():
    tape = T.Tape()
    x = tape.leaf(np.ones(2))
    inspect.signature(T.grad).bind(T.sum_(x), [x], create_graph=False,
                                   detached=())
    inspect.signature(T.matmul).bind(x, x)
    assert "tape" in inspect.signature(harness.train_step).parameters


def test_step_clock_sees_one_call_per_step(bench_run, tmp_path, monkeypatch):
    from workloads import Op, UnitOutcome

    class QuickTrain:
        expected_steps = 3

        def unit(self, out_dir, invoke, index):
            harness.train(quick_config())
            return UnitOutcome([Op("train", 0)], "", 0.5, 0.5)

    workload = QuickTrain()
    # StepClock replaces harness.train_step; monkeypatch puts it back
    monkeypatch.setattr(harness, "train_step", harness.train_step)
    clock = bench_run.StepClock(harness)
    unit = bench_run.run_unit(workload, 0, str(tmp_path / "u0"), clock)
    assert len(unit.durations) == 3 and unit.outcome.ops[0].ok
    # a run whose step count differs from the configured one fails
    workload.expected_steps = 4
    unit = bench_run.run_unit(workload, 1, str(tmp_path / "u1"), clock)
    assert unit.outcome.ops[0].problems == ["harness.steps=3, configured 4"]


def test_fit_result_2_is_epochs_run(tracing, monkeypatch):
    results, fit = [], harness._fit

    def spied(*args, **kwargs):
        results.append(fit(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "_fit", spied)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # zero lr plateaus at once: patience 1 stops after 3 of 5 epochs
        report, _ = harness.train(quick_config(epochs=5, patience=1,
                                               learning_rate=0.0))
    finally:
        tracer.uninstall()
    epochs_run = results[0][2]
    assert type(epochs_run) is int
    assert report.epochs_run == [epochs_run] == [3]
    assert tracer.epochs == tracer.steps == 3
