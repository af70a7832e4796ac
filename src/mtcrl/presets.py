"""Desk-scale experiment presets.

These configs are sized so every experiment finishes in seconds to a few
minutes on a laptop while still reproducing the qualitative effects: the
shared-bottom comparison, the task-count scaling trends, the routing-graph
method with its invariance penalty, and the ablations.

The penalty weights here differ from the :class:`PenaltyWeights` defaults:
those defaults were selected against sum-scale risks on a far larger
benchmark, while the desk-scale runs use mean risks over small batches, so
the relative weighting is retuned (held fixed across all experiments).
"""

from __future__ import annotations

from dataclasses import replace

from .data import SemSpec
from .harness import TrainConfig
from .regularizers import PenaltyWeights

DESK_PENALTIES = PenaltyWeights(
    lambda_decor=1.0,
    lambda_sps=0.02,
    lambda_bal=1.0,
    lambda_girm=100.0,
    girm_variant="var",
)


def desk_sem_spec(tasks: int = 2, seed: int = 0, n: int = 1500) -> SemSpec:
    """Two-environment SEM testbed with a strong train-time label coupling
    (0.8) that weakens on the validation slice (0.5) and reverses on the
    test slice (0.1)."""
    return SemSpec(
        tasks=tasks,
        d_factor=10,
        mu_scale=1.5,
        m_c_train=0.8,
        m_c_valid=0.5,
        m_c_test=0.1,
        n_train=n,
        n_valid=n,
        n_test=n,
        seed=seed,
    )


def shared_bottom_config(seed: int = 0, tasks: int = 2) -> TrainConfig:
    """Single shared encoder (K=1), used for the STL-vs-MTL comparison and
    the task-count sweep."""
    return TrainConfig(
        dataset=desk_sem_spec(tasks=tasks, seed=seed),
        mode="mtl-vanilla",
        k_modules=1,
        total_module_dim=16,
        encoder_hidden=(16,),
        encoder_activation="tanh",
        epochs=100,
        learning_rate=1e-3,
        seed=seed,
    )


def mtcrl_sem_config(seed: int = 0) -> TrainConfig:
    """Full method on the SEM testbed: K=8 module bank, routing graph,
    desk-scale penalties with the variance-form invariance term."""
    return TrainConfig(
        dataset=desk_sem_spec(seed=seed),
        mode="mtcrl",
        k_modules=8,
        total_module_dim=32,
        encoder_hidden=(16,),
        encoder_activation="tanh",
        weights=DESK_PENALTIES,
        epochs=400,
        learning_rate=1e-2,
        seed=seed,
    )


def vanilla_mmoe_config(seed: int = 0) -> TrainConfig:
    """Same architecture as :func:`mtcrl_sem_config` with no regularizers."""
    return replace(mtcrl_sem_config(seed), mode="mtl-vanilla")

