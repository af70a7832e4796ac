"""The benchmark's workloads and the correctness checks on their outputs.

A workload is prepared once per run (configs and input files, made from
the workload seed and excluded from every timing) and then executed as a
sequence of identical *units*.  A unit is a fixed list of ``mtcrl``
command calls, made in-process through ``mtcrl.cli.main``, so it drives
the same public calls as the command line.  Early stopping is disabled
(``patience == epochs``), so every commit runs the same number of steps.

Why these three (see also ``BENCHMARK.json``):

* ``sem_mtcrl`` is the paper's method: K=8 modules, girm ``var``, full
  batch.  Its step is Python per-node overhead on the double-backward
  tape, so tape, decorrelation and girm changes show here.  It ends with
  ``mtcrl analyze``: checkpoint load, saliency, heatmap, gradient tables
  and CSV/SVG export.
* ``digits_irm`` trains on paired 28x28 synthetic digits (D=1568) with
  xent heads and the non-detached ``irm-baseline`` penalty.  Its step is
  bound by bytes and BLAS rather than node count, and it covers the IDX
  load and pair composition path.
* ``table2_sem`` is ``mtcrl table2`` (STL and vanilla MTL, no
  regularizers) then ``mtcrl oracle-check``: many tiny steps where fixed
  per-step overhead, the optimizer and ``evaluate`` dominate.  Regularizer
  changes are bypassed here, so for them the prediction is no change.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from mtcrl import cli, harness, presets
from mtcrl.data import MnistPairSpec
from mtcrl.regularizers import PenaltyWeights

import digits


@dataclass
class Op:
    """One command call: its exit code and any failed output checks."""

    command: str
    rc: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


@dataclass
class UnitOutcome:
    ops: list
    digest: str          # sha256 of the deterministic outputs
    acc_val: float
    rho_spur: float


def derive_seeds(seed: int, salt: int, n: int) -> list[int]:
    """``n`` config seeds derived from the workload seed."""
    state = np.random.SeedSequence([seed, salt]).generate_state(n)
    return [int(s) % (2 ** 31) for s in state]


def invoke_cli(argv) -> int:
    """``mtcrl <argv>`` in-process; its progress lines are discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _check_unit_interval(op: Op, name: str, values):
    for v in values:
        if not (isinstance(v, (int, float)) and math.isfinite(v)
                and 0.0 <= v <= 1.0):
            op.problems.append(f"{name}={v!r} is not a finite value in [0, 1]")


def _read_report(op: Op, out_dir: str):
    """The run report, checked; ``None`` when the command failed."""
    if op.rc != 0:
        op.problems.append(f"exit code {op.rc}")
        return None
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    for key in ("acc_train", "acc_val", "acc_test", "rho_spur"):
        _check_unit_interval(op, key, report[key])
    return report


def _report_digest(report) -> bytes:
    payload = {k: v for k, v in report.items() if k != "wall_clock_s"}
    return json.dumps(payload, sort_keys=True).encode()


def _files_digest(out_dir: str) -> bytes:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.digest()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Prepared once per run; unit ``i`` runs config ``i % n_configs``.

    Units of one config must give identical outputs, so a run has at least
    two units per config; ``acc_val`` and ``rho_spur`` are means over the
    configs.
    """

    name = ""
    n_configs = 1
    min_units = 3

    def prepare(self, work_dir: str, seed: int):
        """Write configs and inputs; sets ``expected_steps``."""
        raise NotImplementedError

    def unit(self, out_dir: str, invoke, index: int) -> UnitOutcome:
        raise NotImplementedError


class _TrainWorkload(Workload):
    """``mtcrl train`` on one config, optionally followed by ``analyze``."""

    analyze = False

    def configs(self, work_dir: str, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, work_dir, seed):
        self.config_paths = []
        for i, cfg in enumerate(self.configs(work_dir, seed)):
            path = os.path.join(work_dir, f"{self.name}{i}.json")
            _write_json(path, harness.config_to_dict(cfg))
            self.config_paths.append(path)
        self.expected_steps = cfg.epochs

    def unit(self, out_dir, invoke, index):
        config_path = self.config_paths[index % self.n_configs]
        train_dir = os.path.join(out_dir, "train")
        op = Op("train", invoke(["train", "--config", config_path,
                                 "--out", train_dir]))
        ops = [op]
        report = _read_report(op, train_dir)
        if report is None:
            return UnitOutcome(ops, "", math.nan, math.nan)
        h = hashlib.sha256(_report_digest(report))
        if self.analyze:
            analyze_dir = os.path.join(out_dir, "analyze")
            an = Op("analyze", invoke([
                "analyze", "--config", config_path,
                "--checkpoint", os.path.join(train_dir, "checkpoint.json"),
                "--out", analyze_dir, "--svg"]))
            ops.append(an)
            if an.rc != 0:
                an.problems.append(f"exit code {an.rc}")
            else:
                with open(os.path.join(analyze_dir,
                                       "analyze_summary.json")) as fh:
                    summary = json.load(fh)
                _check_unit_interval(an, "analyze rho_spur",
                                     summary["rho_spur"].values())
                h.update(_files_digest(analyze_dir))
        return UnitOutcome(ops, h.hexdigest(),
                           float(np.mean(report["acc_val"])),
                           float(np.mean(report["rho_spur"])))


class SemMtcrl(_TrainWorkload):
    name = "sem_mtcrl"
    analyze = True
    epochs = 30
    # rho_spur of one seed spreads ~12% across seeds; three configs per
    # run average that down.
    n_configs = 3
    min_units = 6

    def configs(self, work_dir, seed):
        return [replace(presets.mtcrl_sem_config(seed=s), epochs=self.epochs,
                        patience=self.epochs)
                for s in derive_seeds(seed, 1, self.n_configs)]


class DigitsIrm(_TrainWorkload):
    name = "digits_irm"
    epochs = 30
    digits_per_class = 100
    pairs_per_class_pair = 6
    # Train and valid get 40 class pairs each, so acc_val rests on 240 rows.
    ratios = (2, 2, 1)
    # acc_val of one seed spreads ~17% across seeds; two configs per run
    # halve that.
    n_configs = 2
    min_units = 4

    def configs(self, work_dir, seed):
        seeds = derive_seeds(seed, 2, 3 * self.n_configs)
        # With the PenaltyWeights defaults, or lambda_decor >= 0.1, this
        # model stays near chance within the step budget, and acc_val then
        # swings with the seed; these weights let it learn.
        weights = PenaltyWeights(lambda_decor=0.01, lambda_girm=0.1,
                                 girm_variant="irm-baseline")
        configs = []
        for i in range(self.n_configs):
            data_seed, split_seed, model_seed = seeds[3 * i: 3 * i + 3]
            inputs = os.path.join(work_dir, f"digits{i}")
            os.makedirs(inputs)
            images, labels = digits.write_digits(inputs, data_seed,
                                                 self.digits_per_class)
            spec = MnistPairSpec(
                images_path=images, labels_path=labels,
                pairs_per_class_pair=self.pairs_per_class_pair,
                split_seed=split_seed, ratios=self.ratios)
            configs.append(harness.TrainConfig(
                dataset=spec, mode="mtcrl", k_modules=4, weights=weights,
                epochs=self.epochs, patience=self.epochs, seed=model_seed))
        return configs


class Table2Sem(Workload):
    name = "table2_sem"
    datasets = 3
    tasks = 4
    oracle_seeds = 100

    def prepare(self, work_dir, seed):
        base_seed, *data_seeds = derive_seeds(seed, 3, 1 + self.datasets)
        base = presets.shared_bottom_config(seed=base_seed, tasks=self.tasks)
        base = replace(base, patience=base.epochs)
        datasets = [
            {"name": f"sem{i}", "kind": "multisem",
             **presets.desk_sem_spec(tasks=self.tasks, seed=s).__dict__}
            for i, s in enumerate(data_seeds)]
        self.config_path = os.path.join(work_dir, f"{self.name}.json")
        _write_json(self.config_path, {"base": harness.config_to_dict(base),
                                       "datasets": datasets})
        # STL fits one model per task, vanilla MTL one for all tasks.
        self.expected_steps = self.datasets * (self.tasks + 1) * base.epochs

    def unit(self, out_dir, invoke, index):
        table_dir = os.path.join(out_dir, "table2")
        oracle_dir = os.path.join(out_dir, "oracle")
        table = Op("table2", invoke(["table2", "--config", self.config_path,
                                     "--out", table_dir]))
        oracle = Op("oracle-check", invoke([
            "oracle-check", "--seeds", str(self.oracle_seeds),
            "--out", oracle_dir]))
        h = hashlib.sha256()
        acc = rho = math.nan
        if table.rc != 0:
            table.problems.append(f"exit code {table.rc}")
        else:
            rows = _read_csv(os.path.join(table_dir, "table2.csv"))
            if len(rows) != 2 * self.datasets:
                table.problems.append(f"{len(rows)} table2 rows, expected "
                                      f"{2 * self.datasets}")
            for key in ("acc_train", "acc_val", "rho_spur"):
                _check_unit_interval(table, key,
                                     [float(r[key]) for r in rows])
            acc = float(np.mean([float(r["acc_val"]) for r in rows]))
            rho = float(np.mean([float(r["rho_spur"]) for r in rows]))
            h.update(_files_digest(table_dir))
        if oracle.rc != 0:
            oracle.problems.append(f"exit code {oracle.rc}")
        oracle_csv = os.path.join(oracle_dir, "oracle_check.csv")
        rows = _read_csv(oracle_csv) if os.path.exists(oracle_csv) else []
        failed = [r["check"] for r in rows if r["passed"] != "True"]
        if not rows or failed:
            oracle.problems.append(f"oracle rows {len(rows)}, failed {failed}")
        else:
            h.update(_files_digest(oracle_dir))
        return UnitOutcome([table, oracle], h.hexdigest(), acc, rho)


WORKLOADS = {w.name: w for w in (SemMtcrl, DigitsIrm, Table2Sem)}
