"""The benchmark's tracer wraps names inside ``mtcrl``; a rename that would
break ``perfbench/run.py --trace 1`` fails here."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from mtcrl import harness
from mtcrl import tensor as T

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
