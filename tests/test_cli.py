import base64
import json
import platform
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mtcrl import harness
from mtcrl.cli import ablation_inputs, main, sweep_inputs, table2_inputs
from mtcrl.data import SemSpec, read_container
from mtcrl.harness import (ABLATION_VARIANTS, TrainConfig, config_from_dict,
                           config_hash, config_to_dict)
from mtcrl.model import load_checkpoint
from mtcrl.presets import desk_sem_spec, mtcrl_sem_config, shared_bottom_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"


def quick_config_dict(**overrides):
    spec = SemSpec(n_train=120, n_valid=120, n_test=120, mu_scale=1.5,
                   m_c_train=0.8, m_c_valid=0.5)
    cfg = TrainConfig(dataset=spec, mode="mtl-vanilla", k_modules=2,
                      total_module_dim=8, encoder_hidden=(8,), epochs=3,
                      learning_rate=1e-2, seed=0)
    payload = config_to_dict(cfg)
    payload.update(overrides)
    return payload


NAN = float("nan")
QUICK_DATASET = quick_config_dict()["dataset"]
# retired settings, each at the one value every shipped config held
RETIRED = {"encoder_activation": "tanh", "head_hidden": [],
           "betas": [0.9, 0.999], "batch_size": 0, "stl_module_dim": 0,
           "rho_spur_split": "valid"}


def entry(shape, raw, suffix=""):
    """A checkpoint entry holding ``raw`` bytes, ``suffix`` appended."""
    return {"shape": shape,
            "float64_le": base64.b64encode(raw).decode() + suffix}


def one_array_checkpoint(value, config_hash="x"):
    """A checkpoint's text with ``value`` as its only entry's value, or as
    its ``arrays`` when ``value`` is None."""
    arrays = None if value is None else {"module0.layer0.weight": value}
    return json.dumps({"config_hash": config_hash, "arrays": arrays})


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(quick_config_dict()))
    return str(path)


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["train", "--frobnicate"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["calibrate"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        # not JSON, a directory, and a file that is not UTF-8
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        folder = tmp_path / "folder.json"
        folder.mkdir()
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff{}")
        for path in (bad, folder, binary):
            out = tmp_path / "o"
            assert main(["train", "--config", str(path),
                         "--out", str(out)]) == 2, path
            assert str(path) in capsys.readouterr().err
            assert not (out / "diagnostic.json").exists()

    @pytest.mark.parametrize("workers", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_count(self, workers, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MTCRL_WORKERS", workers)
        trained = []
        monkeypatch.setattr(harness, "_report_dict", trained.append)
        out = tmp_path / "o"
        assert main(["table2", "--config", str(CONFIGS / "table2.json"),
                     "--out", str(out)]) == 2
        assert "MTCRL_WORKERS" in capsys.readouterr().err
        assert trained == [] and not (out / "diagnostic.json").exists()

    @pytest.mark.parametrize("workers, count", [(None, 1), ("", 1), ("1", 1),
                                                ("3", 3)])
    def test_worker_count(self, workers, count, monkeypatch):
        if workers is None:
            monkeypatch.delenv("MTCRL_WORKERS", raising=False)
        else:
            monkeypatch.setenv("MTCRL_WORKERS", workers)
        assert harness.env_workers() == count

    def test_bad_config_keys(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"modee": "stl"}))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, payload", [
        ("table2", {"base": {"bogus": 1}}),
        ("sweep-tasks", {"base": {"bogus": 1}}),
        ("ablate", {"base": {"bogus": 1}}),
        ("table2", {"datasets": [{"name": "sem", "bogus": 1}]}),
        ("gen-data", {"dataset": {"kind": "multisem", "bogus": 1}}),
        ("sweep-tasks", {"tasks": [1, 2]}),
        ("sweep-tasks", {"base": {"dataset": {"kind": "multimnist"}}}),
        ("ablate", {"seeds": "ab"}),
        ("ablate", {"seeds": 3}),
        ("ablate", {"seeds": []}),
        ("table2", {"datasets": {"a": 1}}),
        ("sweep-tasks", {"tasks": "24"}),
        ("sweep-tasks", {"tasks": []}),
        ("ablate", {"seeds": [0, 0]}),
        ("ablate", {"variants": ["full", "full"]}),
        ("sweep-tasks", {"tasks": [2, 2]}),
        ("table2", {"datasets": [{"name": "a", "seed": 1},
                                 {"name": "a", "seed": 2}]}),
        ("train", quick_config_dict(k_modules=3)),
        ("train", quick_config_dict(k_modules=0)),
        ("train", quick_config_dict(total_module_dim=0)),
        ("train", quick_config_dict(optimizer="rmsprop")),
        ("train", quick_config_dict(patience=-5)),
        ("train", quick_config_dict(learning_rate=-1)),
        ("table2", {"base": {"mode": "stl", "k_modules": 3}}),
        ("sweep-tasks", {"base": {"mode": "stl", "k_modules": 3}}),
        ("ablate", {"base": {"mode": "stl", "k_modules": 3}}),
        ("train", quick_config_dict(mode="finetune")),
        *[("train", {"dataset": {split: 1}})
          for split in ("n_train", "n_valid", "n_test")],
        *[("gen-data", {"kind": "multimnist", "pairs_per_class_pair": n})
          for n in (0, -1)],
        ("ablate", {"base": {"mode": "mtl-vanilla", "patience": -1}}),
        *[("train", quick_config_dict(mode="mtcrl", weights={name: NAN}))
          for name in ("lambda_girm", "lambda_decor")],
        *[("train", quick_config_dict(learning_rate=lr))
          for lr in (float("inf"), NAN)],
        *[("train", quick_config_dict(**{name: value}))
          for name, value in (("k_modules", 1.5), ("patience", True),
                              ("total_module_dim", "8"))],
        ("train", quick_config_dict(encoder_hidden=[-3])),
        ("train", quick_config_dict(encoder_hidden=[0])),
        ("train", quick_config_dict(encoder_hidden=[2.5])),
        *[("train", quick_config_dict(dataset={**QUICK_DATASET, name: value}))
          for name, value in (("nuisance_dims", -2), ("sigma", NAN),
                              ("mu_scale", NAN))],
        ("train", quick_config_dict(epochs=2.5)),
        ("train", quick_config_dict(seed=-1)),
        ("train", quick_config_dict(dataset={**QUICK_DATASET, "seed": -3})),
        ("gen-data", {"kind": "multimnist", "split_seed": -1}),
        # ratios that cannot slice, and splits left with no class pair
        *[("gen-data", {"kind": "multimnist", "ratios": ratios})
          for ratios in ([1.5, 1, 1], [NAN, 1, 1], [True, 1, 1])],
        *[("gen-data", {"kind": "multimnist", "num_classes": n})
          for n in (0, 2)],
        ("gen-data", {"kind": "multimnist", "ratios": [1, 1, 100]}),
    ])
    def test_bad_driver_config_exits_two(self, command, payload, tmp_path,
                                         capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "bad config" in capsys.readouterr().err
        assert not (out / "diagnostic.json").exists()

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_negative_seed_flag_exits_two(self, command, config_file,
                                          tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, "--config", config_file, "--seed", "-1",
                     "--out", str(out)]) == 2
        assert "bad config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("key", RETIRED)
    def test_retired_key_exits_two_and_is_named(self, key, command, tmp_path,
                                                capsys):
        config = quick_config_dict(**{key: RETIRED[key]})
        payload = config if command == "train" else {"base": config}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err
        assert not out.exists()

    def test_unknown_ablation_variant(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"base": quick_config_dict(mode="mtcrl"),
                                    "variants": ["full", "no-such"]}))
        assert main(["ablate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "no-such" in err and "no-decor" in err

    def test_ablate_rejects_seed_flag(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"base": quick_config_dict(mode="mtcrl")}))
        assert main(["ablate", "--config", str(path), "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--seed" in capsys.readouterr().err


class TestFailedRun:
    def test_diagnostic_json_and_exit_one(self, tmp_path, capsys):
        # the first Adam step moves every weight by ~1e300: training diverges
        path = tmp_path / "c.json"
        path.write_text(json.dumps(quick_config_dict(learning_rate=1e300)))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        diag = json.loads((out / "diagnostic.json").read_text())
        assert "non-finite" in diag["error"]
        assert diag["type"] == "NonFiniteError"
        # the replay names the op that first overflowed and where it ran;
        # epoch 0's train risks wait for step 1, so valid is checked first
        assert diag["boundary"] == "the risks on 'valid'"
        assert diag["op"] == "matmul" and isinstance(diag["node"], int)
        # the routed heads: the encoding times the mixed head weights
        assert diag["parent_ops"] == ["add", "matmul"]
        assert (diag["epoch"], diag["step"]) == (0, 0)
        assert "epoch 0, step 0" in diag["error"]


class TestTrainCommand:
    def test_writes_report_and_checkpoint(self, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "mtl-vanilla"
        assert (out / "checkpoint.json").exists()
        assert (out / "routing.csv").exists()

    def test_seed_override_changes_report(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", config_file, "--out", str(out_a)])
        main(["train", "--config", config_file, "--seed", "7",
              "--out", str(out_b)])
        rep_a = json.loads((out_a / "report.json").read_text())
        rep_b = json.loads((out_b / "report.json").read_text())
        assert rep_a["seed"] == 0 and rep_b["seed"] == 7
        assert rep_a["acc_val"] != rep_b["acc_val"]

    def test_stl_writes_per_task_checkpoints(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(quick_config_dict(mode="stl")))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "checkpoint_task0.json").exists()
        assert (out / "checkpoint_task1.json").exists()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="sets glibc's allocator thresholds")
    def test_steps_reuse_freed_heap_pages(self, tmp_path, monkeypatch):
        # each step frees its tape, about 10 MB of arrays at this size; the
        # next step must reuse those pages, not fault them in again
        import resource  # POSIX only
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config_to_dict(
            replace(mtcrl_sem_config(0), epochs=10))))
        faults = []
        step = harness.train_step

        def counted(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            parts = step(*args, **kwargs)
            faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return parts

        monkeypatch.setattr(harness, "train_step", counted)
        # the first run of a process still grows the heap by a few pages
        # per step while its allocation pattern settles; measure the second
        for _ in range(2):
            faults.clear()
            assert main(["train", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert len(faults) == 10
        assert statistics.median(faults[1:]) == 0


class TestGenData:
    def test_containers_and_csv(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(
            {"dataset": {"kind": "multisem", "n_train": 40, "n_valid": 40,
                         "n_test": 40}}))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 0
        batch = read_container(out / "train.mtcrl")
        assert batch.n_samples == 40 and batch.env_id == "train"
        assert (out / "valid.csv").exists() and (out / "test.mtcrl").exists()


class TestTable2Command:
    def test_csv_header_contract(self, config_file, tmp_path):
        cfg = {"base": quick_config_dict(),
               "datasets": [{"name": "sem", "kind": "multisem",
                             "n_train": 120, "n_valid": 120, "n_test": 120}]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "t2"
        assert main(["table2", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "table2.csv").read_text().strip().splitlines()
        assert lines[0] == "method,dataset,acc_train,acc_val,rho_spur"
        assert len(lines) == 3
        assert (out / "saliency_stl_sem.csv").exists()


class TestSweepCommand:
    def test_writes_rows_and_verdicts(self, tmp_path):
        cfg = {"base": quick_config_dict(), "tasks": [2, 3]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep"
        assert main(["sweep-tasks", "--config", str(path),
                     "--out", str(out)]) == 0
        lines = (out / "task_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        verdicts = json.loads((out / "task_sweep_verdicts.json").read_text())
        assert "verdicts" in verdicts


class TestAblateCommand:
    def test_writes_table_and_orderings(self, tmp_path):
        base = quick_config_dict(mode="mtcrl")
        base["weights"] = {"lambda_decor": 0.5, "lambda_sps": 0.01,
                           "lambda_bal": 0.1, "lambda_girm": 2.0,
                           "girm_variant": "var"}
        cfg = {"base": base, "seeds": [0, 1],
               "variants": ["full", "no-decor"]}
        path = tmp_path / "a.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert lines[0].startswith("variant,acc_val_mean,acc_val_std")
        assert len(lines) == 3


class TestOracleCheckCommand:
    def test_pass_table_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "oc"
        assert main(["oracle-check", "--seeds", "10", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        lines = (out / "oracle_check.csv").read_text().strip().splitlines()
        assert lines[0] == "check,max_err,tol,passed"
        assert len(lines) >= 7

    @pytest.mark.parametrize("seeds", ["0", "-5"])
    def test_fewer_than_one_seed_exits_two(self, seeds, tmp_path, capsys):
        out = tmp_path / "oc"
        assert main(["oracle-check", "--seeds", seeds, "--out", str(out)]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyzeCommand:
    def test_full_diagnostic_outputs(self, config_file, tmp_path):
        run_out = tmp_path / "run"
        main(["train", "--config", config_file, "--out", str(run_out)])
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", config_file,
                     "--checkpoint", str(run_out / "checkpoint.json"),
                     "--out", str(out), "--svg"]) == 0
        for name in ("saliency.csv", "task_module_grad_train.csv",
                     "task_module_grad_valid.csv", "task_module_grad_diff.csv",
                     "module_corr.csv", "similarity.csv", "module_corr.svg",
                     "analyze_summary.json"):
            assert (out / name).exists(), name

    def test_train_and_analyze_score_rho_spur_on_valid(self, config_file,
                                                        tmp_path):
        run_out, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["train", "--config", config_file,
                     "--out", str(run_out)]) == 0
        assert main(["analyze", "--config", config_file,
                     "--checkpoint", str(run_out / "checkpoint.json"),
                     "--out", str(out)]) == 0
        report = json.loads((run_out / "report.json").read_text())
        summary = json.loads((out / "analyze_summary.json").read_text())
        assert [summary["rho_spur"][str(t)] for t in range(2)] \
            == report["rho_spur"]
        cfg = config_from_dict(quick_config_dict())
        train_b, valid_b, _, tasks, kind, head_out = \
            harness._dataset_bundle(cfg)
        model = harness._build_model(cfg, train_b.input_dim, tasks, kind,
                                     head_out, seed_key=100)
        load_checkpoint(run_out / "checkpoint.json", model)
        _, rho = harness.spurious_scores(model, valid_b)
        assert rho == report["rho_spur"]

    def test_stl_run_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(quick_config_dict(mode="stl")))
        run_out, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["train", "--config", str(path),
                     "--out", str(run_out)]) == 0
        assert main(["analyze", "--config", str(path),
                     "--checkpoint", str(run_out / "checkpoint_task0.json"),
                     "--out", str(out)]) == 2
        assert "one K = 1 model per task" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_checkpoint_names_the_op(self, config_file, tmp_path,
                                               capsys):
        # a NaN weight fails the first analysis check; its replay names
        # the op and node that produced the NaN
        run_out = tmp_path / "run"
        assert main(["train", "--config", config_file,
                     "--out", str(run_out)]) == 0
        path = run_out / "checkpoint.json"
        payload = json.loads(path.read_text())
        entry = payload["arrays"]["module0.layer0.weight"]
        weight = np.frombuffer(base64.b64decode(entry["float64_le"]),
                               "<f8").copy()
        weight[0] = float("nan")
        entry["float64_le"] = base64.b64encode(weight.tobytes()).decode()
        path.write_text(json.dumps(payload))
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", config_file,
                     "--checkpoint", str(path), "--out", str(out)]) == 1
        diag = json.loads((out / "diagnostic.json").read_text())
        assert diag["type"] == "NonFiniteError"
        assert diag["boundary"] == "the input gradient of task 0"
        assert diag["op"] == "matmul" and isinstance(diag["node"], int)
        assert (diag["epoch"], diag["step"]) == (None, None)

    def test_missing_checkpoint(self, config_file, tmp_path, capsys):
        assert main(["analyze", "--config", config_file,
                     "--checkpoint", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, message", [
        pytest.param("not json", "", id="not json"),
        pytest.param(json.dumps({"config_hash": "x"}), "",
                     id='{"config_hash": "x"}'),
        pytest.param(json.dumps({"arrays": {}}), "", id='{"arrays": {}}'),
        pytest.param(None, "", id="directory"),
        pytest.param(one_array_checkpoint(None), "", id="null-arrays"),
        pytest.param(one_array_checkpoint({"shape": [2], "data": [0.5, 1.0]}),
                     "old decimal-list", id="decimal-list"),
        pytest.param(one_array_checkpoint(entry([2], b"\0" * 8)), "bytes",
                     id="byte-count"),
        pytest.param(one_array_checkpoint(entry([1], b"\0" * 8, "*")),
                     "base64", id="non-alphabet"),
        pytest.param(one_array_checkpoint(entry([-1], b"")), "shape",
                     id="negative-shape"),
        pytest.param(one_array_checkpoint(entry([1.0], b"\0" * 8)), "shape",
                     id="float-shape"),
        pytest.param(one_array_checkpoint(entry([1], b"\0" * 8), 7),
                     "config_hash", id="int-config-hash"),
    ])
    def test_bad_checkpoint_exits_two(self, text, message, config_file,
                                      tmp_path, capsys):
        path = tmp_path / "bad.json"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        out = tmp_path / "o"
        assert main(["analyze", "--config", config_file,
                     "--checkpoint", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (out / "diagnostic.json").exists()

    def test_checkpoint_from_other_config_rejected(self, config_file, tmp_path,
                                                   capsys):
        run_out = tmp_path / "run"
        assert main(["train", "--config", config_file,
                     "--out", str(run_out)]) == 0
        other = tmp_path / "other.json"
        payload = quick_config_dict(learning_rate=5e-3)
        other.write_text(json.dumps(payload))
        assert main(["analyze", "--config", str(other),
                     "--checkpoint", str(run_out / "checkpoint.json"),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        stored = json.loads((run_out / "report.json").read_text())["config_hash"]
        assert stored in err
        assert config_hash(config_from_dict(payload)) in err


def shipped(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


class TestShippedConfigs:
    def test_table2_is_shared_bottom_over_five_data_seeds(self):
        base, datasets = table2_inputs(shipped("table2"))
        assert base == shared_bottom_config(0)
        assert datasets == [(f"sem{s}", desk_sem_spec(seed=s))
                            for s in range(5)]

    def test_sweep_is_shared_bottom(self):
        tasks, base = sweep_inputs(shipped("sweep"))
        assert base == shared_bottom_config(0)
        assert tasks == [2, 4, 6, 8]

    def test_method_is_mtcrl_preset_over_every_variant(self):
        base, seeds, variants = ablation_inputs(shipped("method"))
        assert base == mtcrl_sem_config(0)
        assert seeds == [0, 1, 2, 3, 4]
        assert variants == list(ABLATION_VARIANTS)

    def test_readme_config_block_is_the_mtcrl_preset(self):
        text = README.read_text()
        section = text[text.index("### Config format"):]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(json.loads(block))
        preset = mtcrl_sem_config(0)
        assert replace(cfg, dataset=preset.dataset) == preset

    @pytest.mark.parametrize("command, name, outputs", [
        ("table2", "table2", ("table2.csv", "saliency_stl_sem0.csv")),
        ("sweep-tasks", "sweep", ("task_sweep.csv",
                                  "task_sweep_verdicts.json")),
        ("ablate", "method", ("ablation.csv", "ablation_orderings.json")),
    ])
    def test_shrunk_config_runs(self, command, name, outputs, tmp_path,
                                capsys):
        payload = shipped(name)
        small = {"n_train": 60, "n_valid": 60, "n_test": 60}
        payload["base"]["epochs"] = 2
        payload["base"]["dataset"].update(small)
        if "datasets" in payload:
            payload["datasets"] = [{**payload["datasets"][0], **small}]
        if "seeds" in payload:
            payload["seeds"] = [0]
            payload["variants"] = ["vanilla", "full"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        for output in outputs:
            assert (out / output).exists(), output
