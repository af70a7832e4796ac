"""Command-line entry points: dataset generation, training, the table-2 /
task-sweep / ablation experiment drivers, oracle checking, and model
diagnostics.  All subcommands take --out.  All but oracle-check take
--config (JSON), and all but oracle-check and ablate take --seed to
override the config's seed; ablate takes its seeds from the config.

Exit codes: 0 success, 1 failed run (diagnostic JSON written), 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import functools
import json
import os
import sys
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, harness, oracles
from . import tensor as T
from .data import (SemSpec, gen_multisem, compose_multimnist, write_batch_csv,
                   write_container)
from .model import ModelError, load_checkpoint, save_checkpoint


class UsageError(Exception):
    pass


# glibc's mallopt parameters and the values set for them
M_TRIM_THRESHOLD, TRIM_THRESHOLD = -1, 64 << 20
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 32 << 20


@functools.cache
def keep_freed_heap_pages():
    """Keep freed heap pages mapped between training steps (glibc only).

    A step frees its tape, about 10 MB of arrays, and the next step
    allocates as much again.  By default glibc returns the freed top of
    the heap to the kernel and serves arrays above its mmap threshold from
    fresh mappings, so each step page-faults its memory back in.  Raising
    both thresholds lets the next step reuse the pages.  Does nothing
    where ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def _load_json(path) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse(parser, payload):
    """``parser(payload)``; anything it raises is a configuration error."""
    try:
        return parser(payload)
    except Exception as exc:
        raise UsageError(f"bad config: {exc}") from exc


def _list_of(kind, key, non_empty=False):
    """A ``_parse`` parser accepting a list of distinct ``kind`` at ``key``."""
    def check(value):
        if not isinstance(value, list) or not all(
                isinstance(v, kind) and not isinstance(v, bool) for v in value):
            raise TypeError(f"'{key}' must be a list of {kind.__name__}, "
                            f"got {value!r}")
        if non_empty and not value:
            raise ValueError(f"'{key}' must not be empty")
        repeated = [v for i, v in enumerate(value) if v in value[:i]]
        if repeated:
            raise ValueError(f"'{key}' repeats {repeated!r}")
        return value
    return check


def _train_config(payload, seed=None) -> harness.TrainConfig:
    cfg = _parse(harness.config_from_dict, payload)
    if seed is not None:
        cfg = _parse(lambda c: replace(c, seed=seed), cfg)
    return cfg


def _driver_base(payload, seed=None) -> harness.TrainConfig:
    """The ``base`` train config of a driver config.  Every driver runs a
    K-module mode, so the base is also checked as one."""
    base = _train_config(payload.get("base", {}), seed)
    _parse(lambda b: replace(b, mode="mtl-vanilla"), base)
    return base


def table2_inputs(payload, seed=None):
    """``(base, datasets)`` of a table2 config: (name, spec) pairs, by
    default the base dataset alone."""
    base = _driver_base(payload, seed)
    datasets = []
    entries = _parse(_list_of(dict, "datasets"), payload.get("datasets", []))
    for i, entry in enumerate(entries):
        entry = dict(entry)
        name = entry.pop("name", f"dataset{i}")
        datasets.append((name, _parse(harness.dataset_from_dict, entry)))
    _parse(_list_of(str, "dataset names"), [name for name, _ in datasets])
    return base, datasets or [("multisem", base.dataset)]


def sweep_inputs(payload, seed=None):
    """``(task_counts, base)`` of a sweep-tasks config."""
    base = _driver_base(payload, seed)
    tasks = _parse(_list_of(int, "tasks", non_empty=True),
                   payload.get("tasks", [2, 4, 6, 8]))
    return _parse(lambda t: harness.task_sweep_counts(t, base), tasks), base


def ablation_inputs(payload):
    """``(base, seeds, variants)`` of an ablate config; no variants means
    all of them.  The ablation trains its base in mtcrl mode."""
    base = _driver_base(payload)
    _parse(lambda b: replace(b, mode="mtcrl"), base)
    seeds = _parse(_list_of(int, "seeds", non_empty=True),
                   payload.get("seeds", [0, 1, 2, 3, 4]))
    variants = _parse(_list_of(str, "variants"), payload.get("variants", []))
    unknown = sorted(set(variants) - set(harness.ABLATION_VARIANTS))
    if unknown:
        raise UsageError(f"bad config: unknown ablation variants {unknown}; "
                         f"known: {sorted(harness.ABLATION_VARIANTS)}")
    return base, seeds, variants


def _write_rows_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def cmd_gen_data(args) -> int:
    payload = _load_json(args.config)
    spec = _parse(harness.dataset_from_dict, payload.get("dataset", payload))
    if args.seed is not None:
        key = "seed" if isinstance(spec, SemSpec) else "split_seed"
        spec = _parse(lambda s: replace(s, **{key: args.seed}), spec)
    out = _out_dir(args)
    if isinstance(spec, SemSpec):
        batches = gen_multisem(spec)
    else:
        batches = compose_multimnist(spec)
    for batch in batches:
        write_container(out / f"{batch.env_id}.mtcrl", batch)
        write_batch_csv(out / f"{batch.env_id}.csv", batch)
    print(f"wrote {len(batches)} splits to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(_load_json(args.config), args.seed)
    out = _out_dir(args)
    report, models = harness.train(cfg)
    (out / "report.json").write_text(report.json())
    if cfg.mode == "stl":
        names = [f"checkpoint_task{t}.json" for t in range(len(models))]
    else:
        names = ["checkpoint.json"]
    for name, model in zip(names, models):
        save_checkpoint(out / name, model, report.config_hash)
    analysis.write_matrix_csv(out / "routing.csv", np.array(report.routing))
    print(f"acc_val={np.mean(report.acc_val):.4f} "
          f"rho_spur={np.mean(report.rho_spur):.4f} -> {out}")
    return 0


TABLE2_COLUMNS = ("method", "dataset", "acc_train", "acc_val", "rho_spur")


def cmd_table2(args) -> int:
    base, datasets = table2_inputs(_load_json(args.config), args.seed)
    out = _out_dir(args)
    result = harness.run_table2(base, datasets)
    _write_rows_csv(out / "table2.csv", result["rows"], TABLE2_COLUMNS)
    for row, rep in zip(result["rows"], result["reports"]):
        tag = f"{row['method']}_{row['dataset']}"
        analysis.write_matrix_csv(out / f"saliency_{tag}.csv",
                                  np.array(rep["saliency"]))
    for method in ("stl", "mtl-vanilla"):
        rows = [r for r in result["rows"] if r["method"] == method]
        print(f"{method:12s} acc_val={np.mean([r['acc_val'] for r in rows]):.4f}"
              f" rho_spur={np.mean([r['rho_spur'] for r in rows]):.4f}")
    print(f"wrote table2.csv with {len(result['rows'])} rows to {out}")
    return 0


def cmd_sweep_tasks(args) -> int:
    task_counts, base = sweep_inputs(_load_json(args.config), args.seed)
    out = _out_dir(args)
    result = harness.run_task_sweep(task_counts, base)
    _write_rows_csv(out / "task_sweep.csv", result["rows"],
                    ("tasks", "mtl_acc_val", "mtl_rho_spur",
                     "stl_acc_val", "stl_rho_spur"))
    (out / "task_sweep_verdicts.json").write_text(
        json.dumps({"verdicts": result["verdicts"],
                    "spearman": result["spearman"]}, indent=1, sort_keys=True))
    print(f"verdicts: {result['verdicts']}")
    return 0


def cmd_ablate(args) -> int:
    base, seeds, variants = ablation_inputs(_load_json(args.config))
    out = _out_dir(args)
    result = harness.run_ablation(base, seeds=seeds, variants=variants)
    rows = [{**r, "per_seed": json.dumps(r["per_seed"])}
            for r in result["rows"]]
    _write_rows_csv(out / "ablation.csv", rows,
                    ("variant", "acc_val_mean", "acc_val_std", "rho_spur_mean",
                     "per_seed"))
    (out / "ablation_orderings.json").write_text(
        json.dumps(result["orderings"], indent=1, sort_keys=True))
    for row in result["rows"]:
        print(f"{row['variant']:14s} {row['acc_val_mean']:.4f} "
              f"+/- {row['acc_val_std']:.4f} "
              f"rho_spur={row['rho_spur_mean']:.4f}")
    return 0


def cmd_oracle_check(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    out = _out_dir(args)
    rows = oracles.oracle_check(n_seeds=args.seeds)
    _write_rows_csv(out / "oracle_check.csv", rows,
                    ("check", "max_err", "tol", "passed"))
    all_pass = all(r["passed"] for r in rows)
    for r in rows:
        print(f"{'PASS' if r['passed'] else 'FAIL'} {r['check']:35s} "
              f"max_err={r['max_err']:.3e} tol={r['tol']:g}")
    return 0 if all_pass else 1


def cmd_analyze(args) -> int:
    cfg = _train_config(_load_json(args.config), args.seed)
    if cfg.mode == "stl":
        raise UsageError(
            "analyze reads the one model of an mtl-vanilla or mtcrl run; "
            "an stl run writes one K = 1 model per task")
    out = _out_dir(args)
    train_b, valid_b, test_b, tasks, kinds, head_out = harness._dataset_bundle(cfg)
    envs = harness.split_environments(train_b, valid_b)
    model = harness._build_model(cfg, train_b.input_dim, tasks, kinds,
                                 head_out, seed_key=100)
    if args.checkpoint:
        if not os.path.exists(args.checkpoint):
            raise UsageError(f"checkpoint not found: {args.checkpoint}")
        try:
            stored = load_checkpoint(args.checkpoint, model)
        except (ValueError, KeyError, TypeError, ModelError) as exc:
            raise UsageError(f"checkpoint {args.checkpoint} is not a "
                             f"checkpoint of this model: {exc!r}") from exc
        expected = harness.config_hash(cfg)
        if stored != expected:
            raise UsageError(
                f"checkpoint {args.checkpoint} was trained with config hash "
                f"'{stored}', but this config hashes to '{expected}'"
            )
    # a failing check is replayed to name the op; no epoch or step applies
    saliency, rho = harness._checked(None, None, partial(
        harness.spurious_scores, model,
        harness.rho_spur_batch(cfg, envs, test_b)))
    analysis.write_matrix_csv(out / "saliency.csv", saliency,
                              row_labels=[f"task{t}" for t in range(tasks)])
    grads = harness._checked(None, None, partial(
        analysis.task_module_gradients, model, envs))
    for env_id, table in grads.per_env.items():
        analysis.write_matrix_csv(out / f"task_module_grad_{env_id}.csv", table)
    analysis.write_matrix_csv(out / "task_module_grad_diff.csv", grads.diff)
    heat = harness._checked(None, None, partial(
        analysis.module_corr_heatmap, model, valid_b))
    analysis.write_matrix_csv(out / "module_corr.csv", heat.matrix)
    sim = analysis.task_similarity(model.routing.matrix(),
                                   threshold=args.threshold)
    analysis.write_matrix_csv(out / "similarity.csv", sim.matrix)
    if args.svg:
        analysis.svg_heatmap(out / "module_corr.svg", heat.matrix,
                             boundaries=heat.block_boundaries)
        analysis.svg_heatmap(out / "saliency.svg", saliency)
    (out / "analyze_summary.json").write_text(json.dumps({
        "rho_spur": {str(t): r for t, r in enumerate(rho)},
        "max_cross_module_corr": heat.max_cross_block(),
        "diff_envs": list(grads.diff_envs),
    }, indent=1, sort_keys=True))
    print(f"rho_spur={ {t: round(v, 4) for t, v in enumerate(rho)} } -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtcrl",
        description="Disentangled multi-task learning with invariant "
                    "task-to-module routing: experiments and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=False, seed=True):
        p.add_argument("--config", required=config_required,
                       help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out", default="results",
                       help="output directory (created if missing)")

    common(sub.add_parser("gen-data", help="generate and export a dataset"),
           config_required=True)
    common(sub.add_parser("train", help="run one training config"),
           config_required=True)
    common(sub.add_parser("table2", help="STL vs vanilla-MTL comparison"))
    common(sub.add_parser("sweep-tasks", help="task-count scaling trends"))
    common(sub.add_parser("ablate", help="regularizer ablation table"),
           seed=False)

    p = sub.add_parser("oracle-check",
                       help="closed-form vs numerical oracle equivalences")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--out", default="results")

    p = sub.add_parser("analyze", help="diagnostics for a trained model")
    common(p, config_required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--threshold", type=float, default=0.1,
                   help="similarity-graph edge threshold")
    p.add_argument("--svg", action="store_true", help="also write SVG heatmaps")
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "table2": cmd_table2,
    "sweep-tasks": cmd_sweep_tasks,
    "ablate": cmd_ablate,
    "oracle-check": cmd_oracle_check,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    keep_freed_heap_pages()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # failed run: diagnostic JSON, exit 1
        diag = {
            "error": str(exc),
            "type": type(exc).__name__,
            "traceback": traceback.format_exc(),
        }
        if isinstance(exc, T.NonFiniteError):
            diag.update(exc.fields())
        try:
            out = _out_dir(args)
            (out / "diagnostic.json").write_text(json.dumps(diag, indent=1))
        except OSError:
            pass
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
