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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensor as T
from .analysis import factor_gradient, spurious_score, task_similarity
from .data import (EnvironmentBatch, MnistPairSpec, SemSpec, compose_multimnist,
                   gen_multisem, split_environments)
from .model import ACTIVATIONS, MtlModel, TapeBinding
from .regularizers import (PenaltyWeights, decorrelation_loss, env_task_risk,
                           girm_penalty, graph_reg_loss, task_loss)

MODES = ("stl", "mtl-vanilla", "mtcrl")
RHO_SPUR_SPLITS = ("train", "valid", "test")
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
    encoder_activation: str = "tanh"
    head_hidden: tuple = ()
    weights: PenaltyWeights = field(default_factory=PenaltyWeights)
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    betas: tuple = (0.9, 0.999)
    epochs: int = 200
    batch_size: int = 0          # 0 = full batch
    patience: int = 10
    seed: int = 0
    stl_module_dim: int = 0      # 0 = total_module_dim // tasks
    rho_spur_split: str = "valid"

    def __post_init__(self):
        if self.mode not in MODES:
            raise HarnessError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.optimizer not in ("sgd", "adam"):
            raise HarnessError(f"unknown optimizer '{self.optimizer}'")
        for name in ("epochs", "patience", "batch_size", "stl_module_dim",
                     "learning_rate"):
            if getattr(self, name) < 0:
                raise HarnessError(f"{name} must be nonnegative")
        for name in ("k_modules", "total_module_dim"):
            if getattr(self, name) < 1:
                raise HarnessError(f"{name} must be at least 1")
        if self.mode != "stl" and self.total_module_dim % self.k_modules:
            raise HarnessError(f"total_module_dim {self.total_module_dim} is "
                               f"not divisible by k_modules {self.k_modules}")
        if self.encoder_activation not in ACTIVATIONS:
            raise HarnessError(f"encoder_activation must be one of "
                               f"{ACTIVATIONS}, got '{self.encoder_activation}'")
        if self.rho_spur_split not in RHO_SPUR_SPLITS:
            raise HarnessError(f"rho_spur_split must be one of {RHO_SPUR_SPLITS}"
                               f", got '{self.rho_spur_split}'")
        if (self.mode == "mtcrl" and self.batch_size == 1
                and self.weights.lambda_decor > 0):
            raise HarnessError("batch_size 1 gives one-row minibatches, but "
                               "decorrelation (lambda_decor > 0) needs >= 2 rows")


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


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, pairs):
        for p, g in pairs:
            p.value = p.value - self.lr * g


class Adam:
    def __init__(self, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.state = {}

    def step(self, pairs):
        self.t += 1
        for p, g in pairs:
            m, v = self.state.get(id(p), (np.zeros_like(p.value),
                                           np.zeros_like(p.value)))
            m = self.b1 * m + (1 - self.b1) * g
            v = self.b2 * v + (1 - self.b2) * g * g
            self.state[id(p)] = (m, v)
            m_hat = m / (1 - self.b1 ** self.t)
            v_hat = v / (1 - self.b2 ** self.t)
            p.value = p.value - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return Sgd(cfg.learning_rate)
    return Adam(cfg.learning_rate, cfg.betas)


# ---------------------------------------------------------------------------
# one training step


def step_gradients(model: MtlModel, train_batch, env_batches,
                   weights: PenaltyWeights, tape: T.Tape | None = None):
    """Per-parameter gradients of ``loss + lambda_girm * penalty`` from one
    backward pass, plus loss-part metrics."""
    if train_batch.env_id != "train":
        raise HarnessError("task risks must come from the training "
                           f"environment only, got '{train_batch.env_id}'")
    tape = tape or T.Tape()
    tape.reset()
    binding = TapeBinding(tape)
    z = model.encode(binding, train_batch.inputs)
    a = model.routing.weights(binding)
    parts = {}
    loss = None
    risks = []
    for t in range(model.tasks):
        risk = env_task_risk(model, binding, train_batch, t, z=z,
                             a_row=T.narrow(a, 0, t, 1))
        risks.append(float(risk.data))
        loss = risk if loss is None else T.add(loss, risk)
    parts["task_risks"] = risks
    if weights.lambda_decor > 0:
        decor = decorrelation_loss(z, model.k, weights.lambda_decor)
        parts["decor"] = float(decor.data)
        loss = T.add(loss, decor)
    if weights.lambda_sps > 0 or weights.lambda_bal > 0:
        graph = graph_reg_loss(a, weights.lambda_sps, weights.lambda_bal)
        parts["graph"] = float(graph.data)
        loss = T.add(loss, graph)
    if not np.isfinite(loss.data):
        raise HarnessError("non-finite training loss")
    parts["loss"] = float(loss.data)

    objective = loss
    if weights.girm_variant != "none" and weights.lambda_girm > 0:
        penalty = girm_penalty(model, binding, env_batches,
                               weights.girm_variant,
                               encoded=[(train_batch, z)])
        parts["girm"] = float(penalty.data)
        objective = T.add(loss, T.scale(penalty, weights.lambda_girm))

    params = model.parameters()
    grads = T.grad(objective, binding.leaves_for(params))
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


def evaluate(model: MtlModel, batch) -> dict:
    """Risks (by the step's ``task_loss``) and accuracies per task; no nodes
    are recorded."""
    tape = T.Tape()
    tape.recording = False
    binding = TapeBinding(tape)
    z = model.encode(binding, batch.inputs)
    risks, accs = [], []
    for t in range(model.tasks):
        pred = model.predict(binding, t, z=z)
        kind = model.loss_kinds[t]
        y = np.asarray(batch.labels[t])
        risks.append(task_loss(pred, y, kind).item())
        if kind == "mse":
            hit = np.where(pred.data.ravel() >= 0, 1.0, -1.0) == y
        else:
            hit = pred.data.argmax(axis=1) == y.astype(np.int64)
        accs.append(float(np.mean(hit)))
    return {"risks": risks, "accuracy": accs}


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

    def json(self, include_wall_clock: bool = True) -> str:
        payload = self.to_dict()
        if not include_wall_clock:
            payload.pop("wall_clock_s")
        return json.dumps(payload, sort_keys=True, indent=1)


def _dataset_bundle(cfg: TrainConfig):
    if isinstance(cfg.dataset, SemSpec):
        train_b, valid_b, test_b = gen_multisem(cfg.dataset)
        tasks = cfg.dataset.tasks
        kinds = ["mse"] * tasks
        head_out = [1] * tasks
    else:
        train_b, valid_b, test_b = compose_multimnist(cfg.dataset)
        tasks = 2
        kinds = ["xent"] * tasks
        head_out = [cfg.dataset.num_classes] * tasks
    return train_b, valid_b, test_b, tasks, kinds, head_out


def _build_model(cfg: TrainConfig, input_dim, tasks, kinds, head_out,
                 seed_key, k=None, total_dim=None) -> MtlModel:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, seed_key]))
    return MtlModel(
        tasks=tasks,
        k=k if k is not None else cfg.k_modules,
        input_dim=input_dim,
        total_dim=total_dim if total_dim is not None else cfg.total_module_dim,
        encoder_hidden=cfg.encoder_hidden,
        encoder_activation=cfg.encoder_activation,
        head_hidden=cfg.head_hidden,
        head_out_dims=head_out,
        loss_kinds=kinds,
        rng=rng,
    )


def rho_spur_batch(cfg: TrainConfig, envs, test_b):
    """The split that saliency and rho_spur are scored on."""
    return (*envs, test_b)[RHO_SPUR_SPLITS.index(cfg.rho_spur_split)]


def spurious_scores(model: MtlModel, batch):
    """Input saliency over ``batch`` (tasks x inputs) and rho_spur per task."""
    saliency = np.array([factor_gradient(model, t, batch)
                         for t in range(model.tasks)])
    return saliency, [spurious_score(sal, batch.causal_masks[t])
                      for t, sal in enumerate(saliency)]


def effective_weights(cfg: TrainConfig) -> PenaltyWeights:
    """Regularizers apply only in mtcrl mode; other modes run bare risk."""
    if cfg.mode == "mtcrl":
        return cfg.weights
    return PenaltyWeights(0.0, 0.0, 0.0, 0.0, "none")


def _fit(model, train_batch, env_batches, weights, cfg, stream_key):
    opt = make_optimizer(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream_key]))
    tape = T.Tape()
    train_curve, valid_curve = [], []
    best = np.inf
    bad = 0
    epochs_run = 0
    valid_batch = next(b for b in env_batches if b.env_id == "valid")
    for _ in range(cfg.epochs):
        if cfg.batch_size and cfg.batch_size < train_batch.n_samples:
            order = rng.permutation(train_batch.n_samples)
            starts = list(range(0, order.size, cfg.batch_size))
            if cfg.batch_size > 1 and order.size - starts[-1] == 1:
                starts.pop()  # decorrelation needs two rows: fold the tail
            for lo, hi in zip(starts, starts[1:] + [order.size]):
                idx = order[lo:hi]
                mini = EnvironmentBatch(
                    "train", train_batch.inputs[idx],
                    {t: train_batch.labels[t][idx] for t in train_batch.labels},
                    train_batch.causal_masks)
                train_step(model, mini, env_batches, weights, opt, tape=tape)
        else:
            train_step(model, train_batch, env_batches, weights, opt, tape=tape)
        epochs_run += 1
        train_eval = evaluate(model, train_batch)
        valid_eval = evaluate(model, valid_batch)
        train_curve.append(train_eval["risks"])
        valid_curve.append(valid_eval["risks"])
        total = float(sum(train_eval["risks"]))
        if total < best - PLATEAU_TOL:
            best = total
            bad = 0
        else:
            bad += 1
            if bad > cfg.patience:
                break
    return train_curve, valid_curve, epochs_run


def train(cfg: TrainConfig):
    """Run one experiment to completion.

    STL fits one single-module model per task; the other modes fit one
    model for all tasks.  Either way each fit fills its tasks' columns of
    one report.  The report is reproducible bit for bit from
    ``(config, seed)`` at a fixed BLAS thread count; the thread count can
    change the last digit of a reduction.  Returns ``(report, models)``,
    the models in fit order.
    """
    t0 = time.perf_counter()
    train_b, valid_b, test_b, tasks, kinds, head_out = _dataset_bundle(cfg)
    envs = split_environments(train_b, valid_b)
    weights = effective_weights(cfg)
    rho_batch = rho_spur_batch(cfg, envs, test_b)

    # per fit: (model, environment views, test view, rho view, stream key)
    if cfg.mode == "stl":
        share = cfg.stl_module_dim or max(cfg.total_module_dim // tasks, 1)
        fits = [(_build_model(cfg, train_b.input_dim, 1, [kinds[t]],
                              [head_out[t]], seed_key=100 + t, k=1,
                              total_dim=share),
                 [e.task_view(t) for e in envs], test_b.task_view(t),
                 rho_batch.task_view(t), 200 + t)
                for t in range(tasks)]
    else:
        fits = [(_build_model(cfg, train_b.input_dim, tasks, kinds, head_out,
                              seed_key=100),
                 envs, test_b, rho_batch, 200)]

    cols = {name: [] for name in (
        "epochs_run", "train_risk_curve", "valid_risk_curve", "acc_train",
        "acc_val", "risk_test", "acc_test", "rho_spur", "saliency",
        "routing")}
    for model, fit_envs, test_view, rho_view, stream_key in fits:
        tr, va, ep = _fit(model, fit_envs[0], fit_envs, weights, cfg,
                          stream_key=stream_key)
        test_eval = evaluate(model, test_view)
        cols["epochs_run"].append(ep)
        cols["acc_train"] += evaluate(model, fit_envs[0])["accuracy"]
        cols["acc_val"] += evaluate(model, fit_envs[1])["accuracy"]
        cols["risk_test"] += test_eval["risks"]
        cols["acc_test"] += test_eval["accuracy"]
        cols["routing"] += model.routing.matrix().tolist()
        for t in range(model.tasks):
            cols["train_risk_curve"].append([row[t] for row in tr])
            cols["valid_risk_curve"].append([row[t] for row in va])
        saliency, rho = spurious_scores(model, rho_view)
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


def run_configs(configs) -> list[dict]:
    """Train each config; fans out over MTCRL_WORKERS processes if set."""
    configs = list(configs)
    workers = int(os.environ.get("MTCRL_WORKERS", "1"))
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
                "lambda_girm": 0.0, "girm_variant": "none"},
    "full": {},
    "no-decor": {"lambda_decor": 0.0},
    "no-sps": {"lambda_sps": 0.0},
    "no-bal": {"lambda_bal": 0.0},
    "no-graph-reg": {"lambda_sps": 0.0, "lambda_bal": 0.0},
    "no-girm": {"girm_variant": "none"},
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
