import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mtcrl import harness
from mtcrl import tensor as T
from mtcrl.data import EnvironmentBatch, SemSpec
from mtcrl.harness import (ABLATION_VARIANTS, Adam, HarnessError, Sgd,
                           TrainConfig, config_from_dict,
                           config_hash, config_to_dict, evaluate, run_ablation,
                           run_table2, run_task_sweep, spearman, step_gradients,
                           train, train_step)
from mtcrl.model import ModuleBank, MtlModel, TapeBinding
from mtcrl.regularizers import (PenaltyWeights, decorrelation_loss,
                                env_task_risk, girm_penalty, graph_reg_loss)

QUICK_SPEC = SemSpec(n_train=120, n_valid=120, n_test=120, mu_scale=1.5,
                     m_c_train=0.8, m_c_valid=0.5)


def quick_config(**overrides):
    defaults = dict(dataset=QUICK_SPEC, mode="mtl-vanilla", k_modules=2,
                    total_module_dim=8, encoder_hidden=(8,), epochs=5,
                    learning_rate=1e-2, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def tiny_model(tasks=2, seed=0):
    rng = np.random.default_rng(seed)
    return MtlModel(tasks=tasks, k=2, input_dim=4, total_dim=4,
                    encoder_hidden=(5,), encoder_activation="tanh",
                    head_hidden=(), head_out_dims=[1] * tasks,
                    loss_kinds=["mse"] * tasks, rng=rng)


def tiny_batches(seed=0, n=16, input_dim=4, tasks=2):
    rng = np.random.default_rng(seed)
    masks = {t: np.zeros(input_dim, bool) for t in range(tasks)}
    return [
        EnvironmentBatch(env, rng.normal(size=(n, input_dim)),
                         {t: rng.choice([-1.0, 1.0], size=n)
                          for t in range(tasks)}, masks)
        for env in ("train", "valid")
    ]


class TestConfig:
    def test_defaults_match_published_tuning(self):
        cfg = TrainConfig()
        assert cfg.k_modules == 8
        assert cfg.weights.lambda_sps == 0.2
        assert cfg.weights.lambda_bal == 5.0
        assert cfg.weights.lambda_decor == 20.0
        assert cfg.weights.lambda_girm == 5.0

    def test_round_trip(self):
        cfg = quick_config(mode="mtcrl",
                           weights=PenaltyWeights(1.0, 0.1, 0.2, 3.0, "norm"))
        back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    def test_unknown_keys_rejected(self):
        payload = config_to_dict(quick_config())
        payload["learning_rte"] = 0.1
        with pytest.raises(HarnessError, match="unknown config"):
            config_from_dict(payload)

    def test_mode_validation(self):
        with pytest.raises(HarnessError):
            quick_config(mode="finetune")

    def test_module_split_checked_only_for_k_module_models(self):
        # stl fits K = 1 models, so k_modules need not divide the width
        assert quick_config(mode="stl", k_modules=3).k_modules == 3
        for mode in ("mtl-vanilla", "mtcrl"):
            with pytest.raises(HarnessError, match="divisible"):
                quick_config(mode=mode, k_modules=3)


class TestOptimizers:
    def test_sgd_update_rule(self):
        model = tiny_model()
        p = model.routing.theta
        g = np.full_like(p.value, 2.0)
        Sgd(0.1).step([(p, g)])
        np.testing.assert_allclose(p.value, -0.2, atol=1e-15)

    def test_adam_first_step_is_lr_sized(self):
        model = tiny_model()
        p = model.routing.theta
        g = np.full_like(p.value, 3.0)
        Adam(0.01).step([(p, g)])
        np.testing.assert_allclose(p.value, -0.01, rtol=1e-6)


class TestTrainStep:
    def test_convex_toy_risk_decreases(self):
        model = tiny_model(seed=1)
        batches = tiny_batches(seed=1)
        weights = PenaltyWeights(0.0, 0.0, 0.0, 0.0, "none")
        opt = Sgd(0.05)
        risks = []
        for _ in range(8):
            parts = train_step(model, batches[0], batches, weights, opt)
            risks.append(sum(parts["task_risks"]))
        assert all(b < a for a, b in zip(risks[:5], risks[1:6]))

    def test_penalty_leaves_head_gradients_untouched(self):
        model = tiny_model(seed=2)
        batches = tiny_batches(seed=2)
        bare = PenaltyWeights(0.0, 0.0, 0.0, 0.0, "none")
        with_pen = PenaltyWeights(0.0, 0.0, 0.0, 50.0, "var")
        g0, _ = step_gradients(model, batches[0], batches, bare)
        g1, _ = step_gradients(model, batches[0], batches, with_pen)
        for p in model.head_parameters():
            np.testing.assert_array_equal(g0[p.name], g1[p.name])
        assert any(
            not np.array_equal(g0[p.name], g1[p.name])
            for p in [*model.bank.parameters(), model.routing.theta]
        )

    @pytest.mark.parametrize("k, variant", [(2, "var"), (8, "var"),
                                            (2, "norm"), (2, "irm-baseline")])
    def test_one_backward_matches_two_pass_reference(self, k, variant):
        # reference: grad(loss) + lambda * grad(penalty), two passes over
        # one tape; step_gradients takes one pass over their weighted sum
        model = MtlModel(tasks=2, k=k, input_dim=4, total_dim=16,
                         encoder_hidden=(5,), encoder_activation="tanh",
                         head_hidden=(), head_out_dims=[1, 1],
                         loss_kinds=["mse", "mse"],
                         rng=np.random.default_rng(7))
        train_b, valid_b = tiny_batches(seed=7)
        weights = PenaltyWeights(1.0, 0.1, 0.5, 3.0, variant)
        binding = TapeBinding(T.Tape())
        z = model.encode(binding, train_b.inputs)
        a = model.routing.weights(binding)
        risk0, risk1 = (env_task_risk(model, binding, train_b, t, z=z,
                                      a_row=T.narrow(a, 0, t, 1))
                        for t in range(2))
        loss = T.add(T.add(T.add(risk0, risk1),
                           decorrelation_loss(z, k, weights.lambda_decor)),
                     graph_reg_loss(a, weights.lambda_sps, weights.lambda_bal))
        penalty = girm_penalty(model, binding, [train_b, valid_b], variant,
                               encoded=[(train_b, z)])
        leaves = binding.leaves_for(model.parameters())
        main, pen = T.grad(loss, leaves), T.grad(penalty, leaves)

        grads, parts = step_gradients(model, train_b, [train_b, valid_b],
                                      weights)
        assert (parts["loss"], parts["girm"]) == (loss.item(), penalty.item())
        for p, g_main, g_pen in zip(model.parameters(), main, pen):
            ref = g_main.data + weights.lambda_girm * g_pen.data
            err = np.linalg.norm(grads[p.name] - ref)
            assert err <= 1e-12 * np.linalg.norm(ref), p.name

    @pytest.mark.parametrize("k, variant", [(2, "var"), (8, "var"),
                                            (2, "norm"), (2, "irm-baseline")])
    def test_mixing_route_matches_expand_fold_reference(self, k, variant,
                                                        monkeypatch):
        # reference: the route as (z * (a_row @ expand)) @ fold, whose row
        # gradient goes through a B x d product instead of z^T @ g
        def expand_fold(bank, a_row, z):
            return T.matmul(T.multiply(z, T.matmul(a_row, bank._expand)),
                            bank._fold)

        model = MtlModel(tasks=2, k=k, input_dim=4, total_dim=16,
                         encoder_hidden=(5,), encoder_activation="tanh",
                         head_hidden=(), head_out_dims=[1, 1],
                         loss_kinds=["mse", "mse"],
                         rng=np.random.default_rng(8))
        batches = tiny_batches(seed=8)
        weights = PenaltyWeights(1.0, 0.1, 0.5, 3.0, variant)
        grads, parts = step_gradients(model, batches[0], batches, weights)
        with monkeypatch.context() as patch:
            patch.setattr(ModuleBank, "route", expand_fold)
            ref, ref_parts = step_gradients(model, batches[0], batches,
                                            weights)
        for name in ("loss", "girm"):
            assert parts[name] == pytest.approx(ref_parts[name], rel=1e-12)
        for name, r in ref.items():
            err = np.linalg.norm(grads[name] - r)
            assert err <= 1e-12 * np.linalg.norm(r), name

    def test_hand_built_sgd_step(self):
        # one-parameter linear model: loss = (w*x - y)^2, by-hand update
        rng = np.random.default_rng(0)
        model = MtlModel(tasks=1, k=1, input_dim=1, total_dim=1,
                         encoder_hidden=(), encoder_activation="linear",
                         head_hidden=(), head_out_dims=[1],
                         loss_kinds=["mse"], rng=rng)
        model.load_state({"module0.layer0.weight": np.array([[1.0]]),
                          "module0.layer0.bias": np.zeros((1, 1)),
                          "head0.layer0.weight": np.array([[2.0]]),
                          "head0.layer0.bias": np.zeros((1, 1)),
                          "routing.theta": np.zeros((1, 1))})  # A = 0.5
        x, y = 3.0, 1.5
        batch = EnvironmentBatch("train", np.array([[x]]), {0: np.array([y])},
                                 {0: np.zeros(1, bool)})
        lr = 0.01
        opt = Sgd(lr)
        weights = PenaltyWeights(0.0, 0.0, 0.0, 0.0, "none")
        # forward: z = x, fused = 0.5 x, pred = 2 * 0.5 x = 3; residual r = pred - y
        r = 0.5 * x * 2.0 - y
        d_head_w = 2 * r * 0.5 * x
        d_enc_w = 2 * r * 2.0 * 0.5 * x
        d_theta = 2 * r * 2.0 * x * 0.25  # sigmoid'(0) = 0.25
        train_step(model, batch, [batch], weights, opt)
        state = model.state_dict()
        assert state["head0.layer0.weight"][0, 0] == pytest.approx(
            2.0 - lr * d_head_w, abs=1e-12)
        assert state["module0.layer0.weight"][0, 0] == pytest.approx(
            1.0 - lr * d_enc_w, abs=1e-12)
        assert model.routing.theta.value[0, 0] == pytest.approx(
            -lr * d_theta, abs=1e-12)

    def test_non_train_batch_rejected(self):
        model = tiny_model(seed=4)
        batches = tiny_batches(seed=4)
        with pytest.raises(HarnessError, match="training environment"):
            step_gradients(model, batches[1], batches,
                           PenaltyWeights(0, 0, 0, 0, "none"))

    def test_non_train_batch_rejected_under_python_O(self):
        # ``python -O`` strips asserts; the check must survive it
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from mtcrl.data import EnvironmentBatch
            from mtcrl.harness import HarnessError, step_gradients
            from mtcrl.model import MtlModel
            from mtcrl.regularizers import PenaltyWeights
            assert False, "asserts are live"
            model = MtlModel(tasks=1, k=2, input_dim=2, total_dim=2,
                             encoder_hidden=(), encoder_activation="tanh",
                             head_hidden=(), head_out_dims=[1],
                             loss_kinds=["mse"], rng=np.random.default_rng(0))
            batch = EnvironmentBatch("valid", np.ones((3, 2)),
                                     {0: np.ones(3)}, {0: np.ones(2, bool)})
            try:
                step_gradients(model, batch, [batch],
                               PenaltyWeights(0, 0, 0, 0, "none"))
            except HarnessError:
                sys.exit(0)
            sys.exit(1)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_tape_does_not_grow_with_module_count(self, monkeypatch):
        # one encoding per batch and two gradient calls: all inner routing
        # gradients, and one backward of loss + lambda * penalty
        def counted(fn, calls):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        grad_calls, encodes = [], []
        monkeypatch.setattr(T, "grad", counted(T.grad, grad_calls))
        monkeypatch.setattr(MtlModel, "encode",
                            counted(MtlModel.encode, encodes))
        batches = tiny_batches(seed=6)
        nodes = []
        for k in (2, 8):
            model = MtlModel(tasks=2, k=k, input_dim=4, total_dim=16,
                             encoder_hidden=(5,), encoder_activation="tanh",
                             head_hidden=(), head_out_dims=[1, 1],
                             loss_kinds=["mse", "mse"],
                             rng=np.random.default_rng(6))
            tape = T.Tape()
            grad_calls.clear()
            encodes.clear()
            step_gradients(model, batches[0], batches,
                           PenaltyWeights(1.0, 0.1, 0.5, 2.0, "var"), tape=tape)
            nodes.append(len(tape.nodes))
            # one sigmoid for the loss's routing rows, one for the penalty's
            assert [n.op for n in tape.nodes].count("sigmoid") == 2
            assert len(grad_calls) == 2
            assert len(encodes) == 2
        assert nodes[0] == nodes[1]

    def test_nonfinite_loss_aborts(self):
        model = tiny_model(seed=5)
        for p in model.parameters():
            p.value[:] = 1e200
        batches = tiny_batches(seed=5)
        with pytest.raises((HarnessError, T.NonFiniteError)):
            step_gradients(model, batches[0], batches,
                           PenaltyWeights(0, 0, 0, 0, "none"))


class TestTrain:
    def test_zero_epochs_reports_initial_state(self):
        rep, _ = train(quick_config(epochs=0))
        assert rep.epochs_run == [0]
        assert rep.train_risk_curve == [[], []]
        assert len(rep.acc_val) == 2

    def test_deterministic_reports(self):
        cfg = quick_config(mode="mtcrl", epochs=3,
                           weights=PenaltyWeights(0.5, 0.01, 0.1, 5.0, "var"))
        a = train(cfg)[0].json(include_wall_clock=False)
        b = train(cfg)[0].json(include_wall_clock=False)
        assert a == b

    def test_seed_changes_report(self):
        a = train(quick_config(seed=0))[0].json(include_wall_clock=False)
        b = train(quick_config(seed=1))[0].json(include_wall_clock=False)
        assert a != b

    def test_stl_mode_trains_independent_models(self):
        rep, models = train(quick_config(mode="stl"))
        assert len(models) == 2
        assert all(m.tasks == 1 and m.k == 1 for m in models)
        assert len(rep.acc_val) == 2
        assert np.array(rep.routing).shape == (2, 1)

    @pytest.mark.parametrize("mode", ["stl", "mtl-vanilla", "mtcrl"])
    def test_report_columns_per_task(self, mode):
        cfg = quick_config(mode=mode, dataset=replace(QUICK_SPEC, tasks=3),
                           epochs=3,
                           weights=PenaltyWeights(0.5, 0.01, 0.1, 5.0, "var"))
        rep, _ = train(cfg)
        for key in ("acc_train", "acc_val", "acc_test", "risk_test",
                    "rho_spur", "saliency"):
            assert len(getattr(rep, key)) == 3, key
        if mode == "stl":
            assert len(rep.epochs_run) == 3
            lengths = rep.epochs_run
        else:
            assert len(rep.epochs_run) == 1
            lengths = rep.epochs_run * 3
        assert [len(c) for c in rep.train_risk_curve] == lengths
        assert [len(c) for c in rep.valid_risk_curve] == lengths
        k = 1 if mode == "stl" else cfg.k_modules
        assert np.array(rep.routing).shape == (3, k)
        assert np.array(rep.similarity).shape == (3, 3)

    def test_minibatch_mode_runs(self):
        rep, _ = train(quick_config(batch_size=32, epochs=2))
        assert rep.epochs_run == [2]

    def test_one_row_tail_joins_the_minibatch_before_it(self, monkeypatch):
        # 120 = 17 * 7 + 1; decorrelation would fail on a one-row batch
        sizes, step = [], harness.train_step

        def counted(model, batch, *args, **kwargs):
            sizes.append(batch.n_samples)
            return step(model, batch, *args, **kwargs)

        monkeypatch.setattr(harness, "train_step", counted)
        rep, _ = train(quick_config(mode="mtcrl", batch_size=7, epochs=1))
        assert rep.epochs_run == [1]
        assert sizes == [7] * 16 + [8]

    def test_batch_size_one_rejected_with_decorrelation(self):
        with pytest.raises(HarnessError, match="batch_size 1"):
            quick_config(mode="mtcrl", batch_size=1)
        quick_config(mode="mtcrl", batch_size=1,
                     weights=PenaltyWeights(0.0, 0.01, 0.1, 5.0, "var"))
        quick_config(mode="mtl-vanilla", batch_size=1)

    def test_plateau_early_stop(self):
        cfg = quick_config(epochs=60, learning_rate=0.0, patience=3)
        rep, _ = train(cfg)
        assert rep.epochs_run[0] <= 5  # zero lr: immediate plateau

    def test_irm_baseline_variant_trains(self):
        cfg = quick_config(mode="mtcrl", epochs=2,
                           weights=PenaltyWeights(0.1, 0.01, 0.1, 1.0,
                                                  "irm-baseline"))
        rep, _ = train(cfg)
        assert rep.epochs_run == [2]


class TestEvaluate:
    def test_sign_accuracy(self):
        model = tiny_model(seed=6)
        batch = tiny_batches(seed=6)[0]
        out = evaluate(model, batch)
        assert len(out["accuracy"]) == 2
        assert all(0.0 <= a <= 1.0 for a in out["accuracy"])

    @pytest.mark.parametrize("kind", ["mse", "xent"])
    def test_risks_are_the_step_risks(self, kind):
        # one loss implementation: the risk curves hold, bit for bit, the
        # risks a full-batch step trains on (150 rows, so 1/n is inexact)
        classes = 1 if kind == "mse" else 3
        for seed in range(3):
            model = MtlModel(tasks=3, k=2, input_dim=4, total_dim=8,
                             encoder_hidden=(5,), encoder_activation="tanh",
                             head_hidden=(), head_out_dims=[classes] * 3,
                             loss_kinds=[kind] * 3,
                             rng=np.random.default_rng(seed))
            batches = tiny_batches(seed=seed, n=150, tasks=3)
            if kind == "xent":
                rng = np.random.default_rng(seed + 10)
                for b in batches:
                    b.labels = {t: rng.integers(0, classes, size=150)
                                for t in b.labels}
            _, parts = step_gradients(model, batches[0], batches,
                                      PenaltyWeights(1.0, 0.1, 0.5, 3.0, "var"))
            assert evaluate(model, batches[0])["risks"] == parts["task_risks"]


class TestMultiMnistEndToEnd:
    def test_paired_digit_training_runs(self, tmp_path):
        from mtcrl.data import MnistPairSpec, write_idx_images, write_idx_labels

        rng = np.random.default_rng(0)
        images, labels = [], []
        for c in range(10):
            for _ in range(4):
                img = 0.1 * rng.random((5, 4))
                img[c % 5, :] = 1.0
                images.append(img)
                labels.append(c)
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, np.array(images))
        write_idx_labels(lpath, np.array(labels))
        spec = MnistPairSpec(images_path=str(ipath), labels_path=str(lpath),
                             pairs_per_class_pair=2)
        cfg = TrainConfig(dataset=spec, mode="mtcrl", k_modules=2,
                          total_module_dim=8, encoder_hidden=(8,),
                          encoder_activation="relu", epochs=3,
                          learning_rate=1e-2, seed=0,
                          weights=PenaltyWeights(0.5, 0.01, 0.1, 5.0, "var"))
        rep, _ = train(cfg)
        assert rep.epochs_run == [3]
        assert len(rep.acc_val) == 2
        assert all(0.0 <= a <= 1.0 for a in rep.acc_val)
        assert len(rep.saliency[0]) == 5 * 4 * 2
        assert rep.config["dataset"]["kind"] == "multimnist"


class TestSpearman:
    def test_monotone_sequences(self):
        assert spearman([1, 2, 3, 4], [10, 20, 25, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [9, 7, 5, 1]) == pytest.approx(-1.0)

    def test_constant_sequence_is_zero(self):
        assert spearman([1, 2, 3], [5, 5, 5]) == 0.0


class TestExperiments:
    def test_table2_rows_and_determinism(self):
        base = quick_config()
        out = run_table2(base, [("sem", QUICK_SPEC)])
        assert [r["method"] for r in out["rows"]] == ["stl", "mtl-vanilla"]
        again = run_table2(base, [("sem", QUICK_SPEC)])
        for a, b in zip(out["rows"], again["rows"]):
            assert a == b

    def test_sweep_single_point_equals_plain_run(self):
        base = quick_config()
        sweep = run_task_sweep([2], base)
        rep, _ = train(base)
        row = sweep["rows"][0]
        assert row["mtl_acc_val"] == pytest.approx(
            float(np.mean(rep.acc_val)), abs=0)
        assert row["tasks"] == 2

    def test_sweep_rejects_small_task_counts(self):
        with pytest.raises(HarnessError):
            run_task_sweep([1, 2], quick_config())

    def test_ablation_toggle_reproducibility(self):
        base = quick_config(mode="mtcrl", epochs=3,
                            weights=PenaltyWeights(0.5, 0.01, 0.1, 5.0, "var"))
        res = run_ablation(base, seeds=(0,), variants=("full", "no-girm"))
        res2 = run_ablation(base, seeds=(0,), variants=("full", "no-girm"))
        assert res["rows"] == res2["rows"]
        full = next(r for r in res["rows"] if r["variant"] == "full")
        direct, _ = train(base)
        assert full["per_seed"][0] == pytest.approx(
            float(np.mean(direct.acc_val)), abs=0)

    def test_ablation_reports_orderings(self):
        base = quick_config(mode="mtcrl", epochs=2,
                            weights=PenaltyWeights(0.5, 0.01, 0.1, 2.0, "var"))
        res = run_ablation(base, seeds=(0, 1),
                           variants=("full", "no-decor", "no-graph-reg"))
        assert set(res["orderings"]) == {"full_beats_no-decor",
                                         "full_beats_no-graph-reg"}

    def test_vanilla_variant_trains_as_mtl_vanilla(self):
        base = quick_config(mode="mtcrl", epochs=3,
                            weights=PenaltyWeights(0.5, 0.01, 0.1, 5.0, "var"))
        vanilla = PenaltyWeights(**{**base.weights.__dict__,
                                    **ABLATION_VARIANTS["vanilla"]})
        reports = [train(replace(base, weights=vanilla))[0].to_dict(),
                   train(replace(base, mode="mtl-vanilla"))[0].to_dict()]
        for rep in reports:
            for key in ("config", "config_hash", "mode", "wall_clock_s"):
                del rep[key]
        assert reports[0] == reports[1]

    def test_ablation_compares_full_with_vanilla(self):
        base = quick_config(mode="mtcrl", epochs=2,
                            weights=PenaltyWeights(0.5, 0.01, 0.1, 2.0, "var"))
        res = run_ablation(base, seeds=(0, 1), variants=("vanilla", "full"))
        assert set(res["orderings"]) == {"full_beats_vanilla"}
        vanilla = res["rows"][0]
        direct = [train(replace(base, mode="mtl-vanilla", seed=s))[0]
                  for s in (0, 1)]
        assert vanilla["rho_spur_mean"] == pytest.approx(
            np.mean([np.mean(r.rho_spur) for r in direct]), abs=0)
        assert all(0.0 <= r["rho_spur_mean"] <= 1.0 for r in res["rows"])
