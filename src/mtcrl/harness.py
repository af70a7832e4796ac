"""Training loop, optimizers, experiment drivers, and configuration.

One training step builds one objective, task risks plus decorrelation,
graph regularization and the weighted invariance penalty, and takes every
parameter's gradient from one backward pass of it.  The penalty rebuilds
the environment risks with detached heads, which are constants in its
graph, so heads receive exactly zero gradient from the penalty.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import tensor as T
from .analysis import factor_gradient, spurious_score, task_similarity
from .data import (MnistPairSpec, SemSpec, compose_multimnist, gen_multisem,
                   is_int, split_environments)
from .model import MtlModel, TapeBinding
from .regularizers import (PenaltyWeights, decorrelation_loss, env_task_risk,
                           girm_penalty, graph_reg_loss, task_labels,
                           task_loss)

MODES = ("stl", "mtl-vanilla", "mtcrl")
PLATEAU_TOL = 1e-6


class HarnessError(Exception):
    pass


@dataclass
class TrainConfig:
    dataset: SemSpec | MnistPairSpec = field(default_factory=SemSpec)
    mode: str = "mtcrl"
    k_modules: int = 8
    total_module_dim: int = 32
    encoder_hidden: tuple = (32,)
    weights: PenaltyWeights = field(default_factory=PenaltyWeights)
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    epochs: int = 200
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise HarnessError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.optimizer not in ("sgd", "adam"):
            raise HarnessError(f"unknown optimizer '{self.optimizer}'")
        for name in ("k_modules", "total_module_dim", "epochs", "patience",
                     "seed"):
            if not is_int(getattr(self, name)):
                raise HarnessError(f"{name} must be an integer")
        for name in ("epochs", "patience", "seed"):
            if getattr(self, name) < 0:
                raise HarnessError(f"{name} must be nonnegative")
        for name in ("k_modules", "total_module_dim"):
            if getattr(self, name) < 1:
                raise HarnessError(f"{name} must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise HarnessError("learning_rate must be finite and nonnegative")
        if not all(is_int(w) and w >= 1 for w in self.encoder_hidden):
            raise HarnessError("encoder_hidden widths must be integers of at "
                               "least 1")
        if self.mode != "stl" and self.total_module_dim % self.k_modules:
            raise HarnessError(f"total_module_dim {self.total_module_dim} is "
                               f"not divisible by k_modules {self.k_modules}")


# ---------------------------------------------------------------------------
# config (de)serialization


def config_to_dict(cfg: TrainConfig) -> dict:
    """The JSON form of ``cfg``: its fields, tuples as lists, plus the
    dataset ``kind``."""
    d = json.loads(json.dumps(asdict(cfg)))
    kind = "multisem" if isinstance(cfg.dataset, SemSpec) else "multimnist"
    d["dataset"] = {"kind": kind, **d["dataset"]}
    return d


def _tuples(d: dict) -> dict:
    """``d`` with its JSON lists turned back into tuples."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}


def dataset_from_dict(d: dict) -> SemSpec | MnistPairSpec:
    """Dataset spec from its JSON form; ``kind`` defaults to ``multisem``."""
    d = _tuples(d)
    kind = d.pop("kind", "multisem")
    if kind == "multisem":
        return SemSpec(**d)
    if kind == "multimnist":
        return MnistPairSpec(**d)
    raise HarnessError(f"unknown dataset kind '{kind}'")


def config_from_dict(d: dict) -> TrainConfig:
    d = _tuples(d)
    dataset = dataset_from_dict(d.pop("dataset", {}))
    if "weights" in d:
        d["weights"] = PenaltyWeights(**d["weights"])
    known = set(TrainConfig.__dataclass_fields__)
    unknown = set(d) - known
    if unknown:
        raise HarnessError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(dataset=dataset, **d)


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# optimizers


# elements per piece of an in-place update: a larger parameter is updated
# piece by piece, through scratch rows of this length
CHUNK = 8192


def _pieces(scratch, *arrays):
    """Matching 1-d pieces of ``arrays`` (one shape), at most CHUNK
    elements each, with the ``scratch`` rows cut to their length.  The
    first array is read; the others are written, so they must flatten
    without a copy (a non-contiguous one raises)."""
    flat = [arrays[0].reshape(-1),
            *(np.reshape(a, -1, copy=False) for a in arrays[1:])]
    n = flat[0].size
    return [(*(f[lo:lo + CHUNK] for f in flat),
             *scratch[:, :min(CHUNK, n - lo)]) for lo in range(0, n, CHUNK)]


class Sgd:
    """``p = p - lr * g``, written into ``p.value`` in place, so views of a
    parameter (``state_dict``'s among them) see every update."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, pairs):
        for p, g in pairs:
            p.value -= self.lr * g


class Adam:
    """Adam with bias correction.  Each parameter's moments ``(m, v)`` are
    built on its first step and kept in ``state``.  The moments and
    ``p.value`` are written in place, op for op in the order of the
    out-of-place formula, so the values are the same bit for bit.  A
    parameter of at most :data:`CHUNK` elements is updated whole, through
    temporaries of its size, which costs fewer ufunc calls; a larger one
    piece by piece, through a fixed scratch.  So a step allocates nothing
    whose size grows with a parameter."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.state = {}
        self._scratch = np.empty((2, CHUNK))

    def step(self, pairs):
        self.t += 1
        b1, b2, lr, eps = self.b1, self.b2, self.lr, self.eps
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, g in pairs:
            if id(p) not in self.state:
                self.state[id(p)] = (np.zeros_like(p.value),
                                     np.zeros_like(p.value))
            m, v = self.state[id(p)]
            if p.value.size <= CHUNK:
                np.add(b1 * m, (1 - b1) * g, out=m)
                np.add(b2 * v, (1 - b2) * g * g, out=v)
                np.subtract(p.value, lr * (m / c1) / (np.sqrt(v / c2) + eps),
                            out=p.value)
                continue
            # the same ops in the same order, each written into a piece or
            # a scratch row
            for g_, p_, m_, v_, a, b in _pieces(self._scratch, g, p.value,
                                                m, v):
                m_ *= b1
                np.multiply(g_, 1 - b1, a)
                m_ += a
                v_ *= b2
                np.multiply(g_, 1 - b2, a)
                a *= g_
                v_ += a
                np.divide(v_, c2, a)
                np.sqrt(a, a)
                a += eps
                np.divide(m_, c1, b)
                b *= lr
                b /= a
                p_ -= b


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return Sgd(cfg.learning_rate)
    return Adam(cfg.learning_rate)


# ---------------------------------------------------------------------------
# one training step


@np.errstate(all="ignore")  # values are checked where they leave the step
def step_gradients(model: MtlModel, train_batch, env_batches,
                   weights: PenaltyWeights, tape: T.Tape | None = None):
    """Per-parameter gradients of ``loss + lambda_girm * penalty`` from one
    backward pass, plus loss-part metrics.  With the penalty on,
    ``parts["valid_risks"]`` holds the valid environment's task risks,
    which the penalty builds.

    The loss, the penalty, the valid risks and every gradient are checked
    for finiteness, so a non-finite step raises :class:`T.NonFiniteError`
    before any optimizer sees its gradients."""
    if train_batch.env_id != "train":
        raise HarnessError("task risks must come from the training "
                           f"environment only, got '{train_batch.env_id}'")
    tape = tape or T.Tape()
    tape.reset()
    binding = TapeBinding(tape)
    z = model.encode(binding, train_batch.inputs)
    a = model.routing.weights(binding)
    risks = env_task_risk(model, binding, train_batch, z=z, a=a)
    parts = {"task_risks": risks.data.ravel().tolist()}
    loss = T.sum_(risks)
    if weights.lambda_decor > 0:
        decor = decorrelation_loss(z, model.k, weights.lambda_decor)
        parts["decor"] = float(decor.data)
        loss = T.add(loss, decor)
    if weights.lambda_sps > 0 or weights.lambda_bal > 0:
        graph = graph_reg_loss(a, weights.lambda_sps, weights.lambda_bal)
        parts["graph"] = float(graph.data)
        loss = T.add(loss, graph)
    T.check_finite(loss, "the training loss")
    parts["loss"] = float(loss.data)

    objective = loss
    if weights.lambda_girm > 0:
        penalty, env_risks = girm_penalty(model, binding, env_batches,
                                          weights.girm_variant,
                                          encoded=[(train_batch, z)])
        T.check_finite(penalty, "the girm penalty")
        parts["girm"] = float(penalty.data)
        if "valid" in env_risks:
            # an infinite risk can leave the penalty finite
            T.check_finite(np.array(env_risks["valid"]), "the risks on 'valid'")
            parts["valid_risks"] = env_risks["valid"]
        objective = T.add(loss, T.scale(penalty, weights.lambda_girm))

    params = model.parameters()
    grads = T.grad(objective, binding.leaves_for(params))
    for p, g in zip(params, grads):
        T.check_finite(g, f"the gradient of {p.name}")
    return {p.name: g.data for p, g in zip(params, grads)}, parts


def train_step(model: MtlModel, train_batch, env_batches,
               weights: PenaltyWeights, opt, tape: T.Tape | None = None):
    """One optimizer update from one backward pass of the step objective."""
    grads, parts = step_gradients(model, train_batch, env_batches, weights,
                                  tape=tape)
    opt.step([(p, grads[p.name]) for p in model.parameters()])
    return parts


# ---------------------------------------------------------------------------
# evaluation


@np.errstate(all="ignore")  # the risks are checked
def evaluate(model: MtlModel, batch) -> dict:
    """Risks (by the step's ``task_loss``) and accuracies per task.  No
    nodes are recorded, except under ``T.detect_anomaly()``, so that a
    replay names ops by node."""
    tape = T.Tape()
    tape.recording = T.is_anomaly_enabled()
    binding = TapeBinding(tape)
    pred = model.predict(binding, model.encode(binding, batch.inputs))
    y = task_labels(batch, model.tasks)
    risks = task_loss(pred, y, model.loss_kind).data
    T.check_finite(risks, f"the risks on '{batch.env_id}'")
    guess = (np.where(pred.data >= 0, 1.0, -1.0) if model.loss_kind == "mse"
             else pred.data.reshape(*y.shape, -1).argmax(axis=2))
    return {"risks": risks.ravel().tolist(),
            "accuracy": (guess == y).mean(axis=0).tolist()}


# ---------------------------------------------------------------------------
# full runs


@dataclass
class RunReport:
    config: dict
    config_hash: str
    seed: int
    mode: str
    epochs_run: list
    train_risk_curve: list      # per epoch, per task
    valid_risk_curve: list
    acc_train: list
    acc_val: list
    risk_test: list
    acc_test: list
    rho_spur: list
    saliency: list              # per task, per input dim
    routing: list               # A snapshot (rows = tasks)
    similarity: list
    wall_clock_s: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def _dataset_bundle(cfg: TrainConfig):
    if isinstance(cfg.dataset, SemSpec):
        train_b, valid_b, test_b = gen_multisem(cfg.dataset)
        return train_b, valid_b, test_b, cfg.dataset.tasks, "mse", 1
    train_b, valid_b, test_b = compose_multimnist(cfg.dataset)
    return train_b, valid_b, test_b, 2, "xent", cfg.dataset.num_classes


def _build_model(cfg: TrainConfig, input_dim, tasks, kind, head_out,
                 seed_key, k=None, total_dim=None) -> MtlModel:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, seed_key]))
    return MtlModel(
        tasks=tasks,
        k=k if k is not None else cfg.k_modules,
        input_dim=input_dim,
        total_dim=total_dim if total_dim is not None else cfg.total_module_dim,
        encoder_hidden=cfg.encoder_hidden,
        head_out=head_out,
        loss_kind=kind,
        rng=rng,
    )


def spurious_scores(model: MtlModel, batch):
    """Input saliency over ``batch`` (tasks x inputs) and rho_spur per task."""
    saliency = factor_gradient(model, batch)
    return saliency, [spurious_score(s, batch.causal_masks[t])
                      for t, s in enumerate(saliency)]


def effective_weights(cfg: TrainConfig) -> PenaltyWeights:
    """Regularizers apply only in mtcrl mode; other modes run bare risk."""
    if cfg.mode == "mtcrl":
        return cfg.weights
    return PenaltyWeights(0.0, 0.0, 0.0, 0.0)


def _checked(epoch: int | None, step: int | None, run, replay=None):
    """``run()``; when it fails a finiteness check, ``replay`` (default
    ``run``) runs again under ``T.detect_anomaly()`` to name the op, and the
    error gains ``epoch`` and ``step``.  ``replay`` must not change state."""
    try:
        return run()
    except T.NonFiniteError as exc:
        exc.epoch, exc.step = epoch, step
        try:
            with T.detect_anomaly():
                (replay or run)()
        except T.NonFiniteError as named:
            named.boundary, named.epoch, named.step = exc.boundary, epoch, step
            raise named from exc
        raise


def _fit(model, env_batches, weights, cfg):
    """Train ``model`` on the full ``train`` batch of ``env_batches``
    (``[train, valid]``) for up to ``cfg.epochs`` epochs with plateau
    stopping.

    Epoch e's curve entry holds the train and valid risks of the
    parameters its step left.  Step e + 1's forward pass runs at those
    parameters: its task risks are the train risks, and a girm penalty
    builds the valid risks.  So ``evaluate`` runs only where no later step
    stands in: at the last epoch, on the valid split when the step has no
    penalty, and at epochs whose plateau check can stop the fit
    (``bad == patience``), since a stopped fit takes no further step.

    Returns the two curves, the epochs run, the evaluations of the final
    parameters on train and valid, and ``(epoch, step)`` of the last step
    (``(None, None)`` when no epoch ran).  A non-finite step or evaluation
    raises :class:`T.NonFiniteError` with the epoch and the step (one step
    per epoch; an evaluation names the step whose update it evaluates)."""
    train_batch, valid_batch = env_batches
    opt = make_optimizer(cfg)
    tape = T.Tape()
    train_curve, valid_curve = [], []
    best = np.inf
    bad = 0
    at = (None, None)   # (epoch, step) of the last step
    owed = False        # the last epoch's risks come from the next step
    owed_valid = None   # ... except its valid risks, when evaluated
    final = None

    def stops(train_risks, valid_risks) -> bool:
        """Append one epoch's risks; True when the plateau rule stops."""
        nonlocal best, bad
        train_curve.append(train_risks)
        valid_curve.append(valid_risks)
        total = float(sum(train_risks))
        if total < best - PLATEAU_TOL:
            best = total
            bad = 0
        else:
            bad += 1
        return bad > cfg.patience

    def evaluations():
        return [_checked(*at, partial(evaluate, model, b))
                for b in (train_batch, valid_batch)]

    for epoch in range(cfg.epochs):
        at = (epoch, epoch)
        # the parameters are unchanged when a step fails, so the replay
        # recomputes the same gradients
        parts = _checked(*at,
                         partial(train_step, model, train_batch, env_batches,
                                 weights, opt, tape=tape),
                         partial(step_gradients, model, train_batch,
                                 env_batches, weights, tape=tape))
        if owed:  # bad < patience before this check, so it cannot stop
            stops(parts["task_risks"], parts.get("valid_risks", owed_valid))
        owed = epoch + 1 < cfg.epochs and bad < cfg.patience
        if not owed:
            final = evaluations()
            if stops(*(e["risks"] for e in final)):
                break
        elif "valid_risks" not in parts:
            owed_valid = _checked(*at, partial(evaluate, model,
                                               valid_batch))["risks"]
    # every epoch run appended its risks: the last one (or the stopping
    # one) was evaluated, each earlier one was owed and filled in
    return (train_curve, valid_curve, len(train_curve),
            final or evaluations(), at)


def train(cfg: TrainConfig):
    """Run one experiment to completion.

    STL fits one single-module model per task; the other modes fit one
    model for all tasks.  Either way each fit fills its tasks' columns of
    one report; saliency and rho_spur are scored on the valid
    environment.  The report is reproducible bit for bit from
    ``(config, seed)`` at a fixed BLAS thread count; the thread count can
    change the last digit of a reduction.  Returns ``(report, models)``,
    the models in fit order.
    """
    t0 = time.perf_counter()
    train_b, valid_b, test_b, tasks, kind, head_out = _dataset_bundle(cfg)
    envs = split_environments(train_b, valid_b)
    weights = effective_weights(cfg)

    # per fit: (model, [train, valid] views, test view)
    if cfg.mode == "stl":
        share = max(cfg.total_module_dim // tasks, 1)
        fits = [(_build_model(cfg, train_b.input_dim, 1, kind, head_out,
                              seed_key=100 + t, k=1, total_dim=share),
                 [e.task_view(t) for e in envs], test_b.task_view(t))
                for t in range(tasks)]
    else:
        fits = [(_build_model(cfg, train_b.input_dim, tasks, kind, head_out,
                              seed_key=100),
                 envs, test_b)]

    cols = {name: [] for name in (
        "epochs_run", "train_risk_curve", "valid_risk_curve", "acc_train",
        "acc_val", "risk_test", "acc_test", "rho_spur", "saliency",
        "routing")}
    for model, fit_envs, test_view in fits:
        tr, va, ep, (train_eval, valid_eval), at = _fit(model, fit_envs,
                                                        weights, cfg)
        test_eval = _checked(*at, partial(evaluate, model, test_view))
        cols["epochs_run"].append(ep)
        cols["acc_train"] += train_eval["accuracy"]
        cols["acc_val"] += valid_eval["accuracy"]
        cols["risk_test"] += test_eval["risks"]
        cols["acc_test"] += test_eval["accuracy"]
        cols["routing"] += model.routing.matrix().tolist()
        for t in range(model.tasks):
            cols["train_risk_curve"].append([row[t] for row in tr])
            cols["valid_risk_curve"].append([row[t] for row in va])
        saliency, rho = _checked(*at, partial(spurious_scores, model,
                                              fit_envs[1]))
        cols["saliency"] += saliency.tolist()
        cols["rho_spur"] += rho
    report = RunReport(
        config=config_to_dict(cfg), config_hash=config_hash(cfg),
        seed=cfg.seed, mode=cfg.mode, **cols,
        similarity=task_similarity(np.array(cols["routing"])).matrix.tolist(),
        wall_clock_s=time.perf_counter() - t0,
    )
    return report, [fit[0] for fit in fits]


# ---------------------------------------------------------------------------
# experiment drivers


def _report_dict(cfg: TrainConfig) -> dict:
    return train(cfg)[0].to_dict()


def env_workers() -> int:
    """The process count MTCRL_WORKERS asks for: 1 (sequential) when it is
    unset or empty, else an integer of at least 1 (HarnessError if not)."""
    text = os.environ.get("MTCRL_WORKERS", "")
    if not text:
        return 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise HarnessError("MTCRL_WORKERS must be unset, empty or an integer "
                           f"of at least 1, got {text!r}")
    return workers


def run_configs(configs) -> list[dict]:
    """Train each config; fans out over MTCRL_WORKERS processes if set."""
    configs = list(configs)
    workers = env_workers()
    if workers > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_report_dict, configs))
    return [_report_dict(c) for c in configs]


def run_table2(base: TrainConfig, datasets) -> dict:
    """STL-vs-vanilla-MTL comparison rows for each dataset.

    ``datasets`` is a list of (name, spec) pairs; both modes share the
    dataset spec (and therefore its generation seed).
    """
    configs, keys = [], []
    for name, spec in datasets:
        for mode in ("stl", "mtl-vanilla"):
            configs.append(replace(base, dataset=spec, mode=mode))
            keys.append((mode, name))
    reports = run_configs(configs)
    rows = []
    for (mode, name), rep in zip(keys, reports):
        rows.append({
            "method": mode,
            "dataset": name,
            "acc_train": float(np.mean(rep["acc_train"])),
            "acc_val": float(np.mean(rep["acc_val"])),
            "rho_spur": float(np.mean(rep["rho_spur"])),
        })
    return {"rows": rows, "reports": reports}


def _ranks(values):
    """Average ranks, so ties contribute no spurious ordering signal."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size)
    ranks[order] = np.arange(arr.size, dtype=np.float64)
    for v in np.unique(arr):
        tied = arr == v
        if tied.sum() > 1:
            ranks[tied] = ranks[tied].mean()
    return ranks


def spearman(xs, ys) -> float:
    rx, ry = _ranks(list(xs)), _ranks(list(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def task_sweep_counts(task_counts, base: TrainConfig) -> list[int]:
    """The task counts of a sweep over ``base``, checked."""
    if not isinstance(base.dataset, SemSpec):
        raise HarnessError("the task sweep is defined for the SEM testbed")
    if any(int(t) < 2 for t in task_counts):
        raise HarnessError("task counts must be >= 2")
    return [int(t) for t in task_counts]


def run_task_sweep(task_counts, base: TrainConfig) -> dict:
    """MTL vs STL across task counts, with monotone-trend verdicts."""
    configs, keys = [], []
    for n_tasks in task_sweep_counts(task_counts, base):
        spec = replace(base.dataset, tasks=n_tasks)
        for mode in ("mtl-vanilla", "stl"):
            configs.append(replace(base, dataset=spec, mode=mode))
            keys.append((mode, n_tasks))
    reports = run_configs(configs)
    rows = {}
    for (mode, n_tasks), rep in zip(keys, reports):
        row = rows.setdefault(n_tasks, {"tasks": n_tasks})
        prefix = "mtl" if mode == "mtl-vanilla" else "stl"
        row[f"{prefix}_acc_val"] = float(np.mean(rep["acc_val"]))
        row[f"{prefix}_rho_spur"] = float(np.mean(rep["rho_spur"]))
    ordered = [rows[t] for t in sorted(rows)]
    ts = [r["tasks"] for r in ordered]
    mtl_rho = [r["mtl_rho_spur"] for r in ordered]
    mtl_acc = [r["mtl_acc_val"] for r in ordered]
    verdicts = {
        "mtl_rho_spur_rising": spearman(ts, mtl_rho) > 0,
        "mtl_acc_val_falling": spearman(ts, mtl_acc) < 0,
        "stl_rho_below_mtl_everywhere": all(
            r["stl_rho_spur"] < r["mtl_rho_spur"] for r in ordered),
    }
    return {
        "rows": ordered,
        "verdicts": verdicts,
        "spearman": {"mtl_rho_spur": spearman(ts, mtl_rho),
                     "mtl_acc_val": spearman(ts, mtl_acc)},
    }


ABLATION_VARIANTS = {
    "vanilla": {"lambda_decor": 0.0, "lambda_sps": 0.0, "lambda_bal": 0.0,
                "lambda_girm": 0.0},
    "full": {},
    "no-decor": {"lambda_decor": 0.0},
    "no-sps": {"lambda_sps": 0.0},
    "no-bal": {"lambda_bal": 0.0},
    "no-graph-reg": {"lambda_sps": 0.0, "lambda_bal": 0.0},
    "no-girm": {"lambda_girm": 0.0},
}


def run_ablation(base: TrainConfig, seeds=(0, 1, 2, 3, 4),
                 variants=None) -> dict:
    """Toggle regularizer weights; per variant, accuracy mean +/- std and
    mean rho_spur over seeds.  ``vanilla`` zeroes every regularizer, which
    trains exactly as ``mode="mtl-vanilla"`` does."""
    if base.mode != "mtcrl":
        base = replace(base, mode="mtcrl")
    names = list(variants) if variants else list(ABLATION_VARIANTS)
    configs = []
    for name in names:
        overrides = ABLATION_VARIANTS[name]
        weights = PenaltyWeights(**{**base.weights.__dict__, **overrides})
        configs += [replace(base, weights=weights, seed=int(seed))
                    for seed in seeds]
    reports = iter(run_configs(configs))
    rows = []
    for name in names:
        runs = [next(reports) for _ in seeds]
        accs = [float(np.mean(rep["acc_val"])) for rep in runs]
        rows.append({
            "variant": name,
            "acc_val_mean": float(np.mean(accs)),
            "acc_val_std": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
            "rho_spur_mean": float(np.mean([np.mean(rep["rho_spur"])
                                            for rep in runs])),
            "per_seed": accs,
        })
    by_name = {r["variant"]: r for r in rows}
    orderings = {}
    for other in ("vanilla", "no-decor", "no-graph-reg"):
        if "full" in by_name and other in by_name:
            wins = sum(
                by_name["full"]["per_seed"][i] > by_name[other]["per_seed"][i]
                for i in range(len(seeds)))
            orderings[f"full_beats_{other}"] = {
                "mean": by_name["full"]["acc_val_mean"]
                        > by_name[other]["acc_val_mean"],
                "per_seed_wins": int(wins),
                "majority": wins * 2 > len(seeds),
            }
    return {"rows": rows, "orderings": orderings}
