import gc
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mtcrl import analysis, harness, presets
from mtcrl import tensor as T
from mtcrl.data import EnvironmentBatch, SemSpec, gen_multisem
from mtcrl.harness import (ABLATION_VARIANTS, Adam, HarnessError, Sgd,
                           TrainConfig, config_from_dict,
                           config_hash, config_to_dict, evaluate, run_ablation,
                           run_table2, run_task_sweep, spearman, step_gradients,
                           train, train_step)
from mtcrl.model import (ModelError, ModuleBank, MtlModel, Parameter,
                         TapeBinding)
from mtcrl.regularizers import (GIRM_VARIANTS, PenaltyWeights, decorrelation_loss,
                                env_task_risk, girm_penalty, graph_reg_loss)

QUICK_SPEC = SemSpec(n_train=120, n_valid=120, n_test=120, mu_scale=1.5,
                     m_c_train=0.8, m_c_valid=0.5)


def quick_config(**overrides):
    defaults = dict(dataset=QUICK_SPEC, mode="mtl-vanilla", k_modules=2,
                    total_module_dim=8, encoder_hidden=(8,), epochs=5,
                    learning_rate=1e-2, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def report_json(rep) -> str:
    """``rep``'s JSON with its wall-clock time zeroed."""
    return replace(rep, wall_clock_s=0.0).json()


def tiny_model(tasks=2, seed=0):
    rng = np.random.default_rng(seed)
    return MtlModel(tasks=tasks, k=2, input_dim=4, total_dim=4,
                    encoder_hidden=(5,), head_out=1,
                    loss_kind="mse", rng=rng)


def blanked(batches, both=(1, 3), train_only=(2,)):
    """``batches`` (train first) with the columns ``both`` zero in every
    batch and ``train_only`` zero in the train batch only."""
    out = []
    for i, b in enumerate(batches):
        x = b.inputs.copy()
        x[:, [*both, *(train_only if i == 0 else ())]] = 0.0
        out.append(replace(b, inputs=x))
    return out


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
                           weights=PenaltyWeights(1.0, 0.1, 0.2, 3.0,
                                                  "irm-baseline"))
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


    @np.errstate(over="ignore")  # the huge gradient overflows g * g
    def test_adam_matches_the_out_of_place_formula_bit_for_bit(self):
        # one parameter updated in pieces (3 chunks and one element), one
        # whole; the gradients hold zeros of both signs, a subnormal and a
        # huge value
        rng = np.random.default_rng(3)
        specials = [0.0, -0.0, 5e-324, 1e300]
        params, grads = [], []
        for size in (3 * harness.CHUNK + 1, 6):
            params.append(Parameter(f"p{size}", rng.normal(size=(size, 1))))
            steps = []
            for _ in range(4):
                g = rng.normal(size=(size, 1))
                g[rng.choice(size, 4, replace=False), 0] = specials
                steps.append(g)
            grads.append(steps)
        refs = [(p.value.copy(), np.zeros_like(p.value),
                 np.zeros_like(p.value)) for p in params]
        opt = Adam(0.01)
        for t in range(1, 5):
            opt.step([(p, g[t - 1]) for p, g in zip(params, grads)])
            for i, g in enumerate(grads):
                value, m, v = refs[i]
                m = Adam.b1 * m + (1 - Adam.b1) * g[t - 1]
                v = Adam.b2 * v + (1 - Adam.b2) * g[t - 1] * g[t - 1]
                m_hat = m / (1 - Adam.b1 ** t)
                v_hat = v / (1 - Adam.b2 ** t)
                value = value - 0.01 * m_hat / (np.sqrt(v_hat) + Adam.eps)
                refs[i] = value, m, v
            for p, (value, m, v) in zip(params, refs):
                for got, want in zip((p.value, *opt.state[id(p)]),
                                     (value, m, v)):
                    np.testing.assert_array_equal(got.view(np.uint64),
                                                  want.view(np.uint64))

    @pytest.mark.parametrize("make_opt", [partial(Sgd, 0.1),
                                          partial(Adam, 0.1)])
    def test_update_is_in_place(self, make_opt):
        model = tiny_model()
        params = model.parameters()
        arrays = [p.value for p in params]
        views = model.state_dict()
        before = {name: view.copy() for name, view in views.items()}
        opt = make_opt()
        for _ in range(2):
            opt.step([(p, np.ones_like(p.value)) for p in params])
        assert all(p.value is a for p, a in zip(params, arrays))
        for name, view in model.state_dict().items():
            np.testing.assert_array_equal(views[name], view)
            assert not np.array_equal(views[name], before[name]), name

    def test_adam_refuses_a_large_value_it_cannot_write_in_place(self):
        # a value rebound to a transposed array flattens only through a
        # copy, which the update would write instead of the parameter
        rng = np.random.default_rng(4)
        p = Parameter("w", np.zeros((harness.CHUNK, 2)))
        p.value = rng.normal(size=(2, harness.CHUNK)).T
        with pytest.raises(ValueError):
            Adam(0.1).step([(p, np.ones_like(p.value))])

    def test_adam_step_allocates_no_parameter_sized_arrays(self):
        p = Parameter("w", np.random.default_rng(0).normal(size=(1568, 128)))
        g = np.random.default_rng(1).normal(size=p.value.shape)
        opt = Adam(1e-3)
        opt.step([(p, g)])  # builds the moments
        tracemalloc.start()
        try:
            opt.step([(p, g)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25e6


class TestTrainStep:
    def test_convex_toy_risk_decreases(self):
        model = tiny_model(seed=1)
        batches = tiny_batches(seed=1)
        weights = PenaltyWeights(0.0, 0.0, 0.0, 0.0)
        opt = Sgd(0.05)
        risks = []
        for _ in range(8):
            parts = train_step(model, batches[0], batches, weights, opt)
            risks.append(sum(parts["task_risks"]))
        assert all(b < a for a, b in zip(risks[:5], risks[1:6]))

    def test_penalty_leaves_head_gradients_untouched(self):
        model = tiny_model(seed=2)
        batches = tiny_batches(seed=2)
        bare = PenaltyWeights(0.0, 0.0, 0.0, 0.0)
        with_pen = PenaltyWeights(0.0, 0.0, 0.0, 50.0, "var")
        g0, _ = step_gradients(model, batches[0], batches, bare)
        g1, _ = step_gradients(model, batches[0], batches, with_pen)
        for p in model.head_parameters():
            np.testing.assert_array_equal(g0[p.name], g1[p.name])
        assert any(
            not np.array_equal(g0[p.name], g1[p.name])
            for p in [*model.bank.parameters(), model.routing.theta]
        )

    @pytest.mark.parametrize("k, variant, blank", [
        pytest.param(k, variant, blank,
                     id=f"{k}-{variant}{'-blank' if blank else ''}")
        for blank in (False, True)
        for k, variant in ((2, "var"), (8, "var"), (2, "irm-baseline"))])
    def test_one_backward_matches_two_pass_reference(self, k, variant, blank):
        # reference: grad(loss) + lambda * grad(penalty), each from a graph
        # of its own, since a first-order grad consumes the record it
        # walks; step_gradients takes one pass over their weighted sum.
        # The reference binding has no support, so it reads every column.
        model = MtlModel(tasks=2, k=k, input_dim=4, total_dim=16,
                         encoder_hidden=(5,), head_out=1,
                         loss_kind="mse",
                         rng=np.random.default_rng(7))
        train_b, valid_b = tiny_batches(seed=7)
        if blank:  # column 2 has ink only in valid, so it stays
            train_b, valid_b = blanked([train_b, valid_b])
            assert harness.step_support(
                train_b, [train_b, valid_b]).tolist() == [0, 2]
        weights = PenaltyWeights(1.0, 0.1, 0.5, 3.0, variant)

        def reference(part):
            """grad of the loss (part 0) or the penalty (part 1) on a
            fresh tape, and the differentiated value."""
            binding = TapeBinding(T.Tape())
            z = model.encode(binding, train_b.inputs)
            a = model.routing.weights(binding)
            risks = env_task_risk(model, binding, train_b, z=z, a=a)
            loss = T.add(T.add(T.sum_(risks),
                               decorrelation_loss(z, k, weights.lambda_decor)),
                         graph_reg_loss(a, weights.lambda_sps,
                                        weights.lambda_bal))
            penalty, _ = girm_penalty(model, binding, [train_b, valid_b],
                                      variant, encoded=[(train_b, z)])
            out = (loss, penalty)[part]
            return T.grad(out, binding.leaves_for(model.parameters())), \
                out.item()

        (main, loss), (pen, penalty) = reference(0), reference(1)

        grads, parts = step_gradients(model, train_b, [train_b, valid_b],
                                      weights)
        if blank:  # the first layer's sums skip zero terms
            assert parts["loss"] == pytest.approx(loss, rel=1e-12)
            assert parts["girm"] == pytest.approx(penalty, rel=1e-12)
        else:
            assert (parts["loss"], parts["girm"]) == (loss, penalty)
        for p, g_main, g_pen in zip(model.parameters(), main, pen):
            ref = g_main.data + weights.lambda_girm * g_pen.data
            err = np.linalg.norm(grads[p.name] - ref)
            assert err <= 1e-12 * np.linalg.norm(ref), p.name

    @pytest.mark.parametrize("k, variant", [(2, "var"), (8, "var"),
                                            (2, "irm-baseline")])
    def test_mixing_route_matches_expand_fold_reference(self, k, variant,
                                                        monkeypatch):
        # reference: the route task by task, each block as
        # (z * (a_row @ expand)) @ fold, whose row gradient goes through a
        # B x d product instead of z^T @ g, placed at its columns
        def expand_fold(bank, a, z, weight):
            tasks, m = a.shape[0], bank.module_dim
            fold = T.Tensor(bank._fold.data[:, 0, :])
            out = None
            for t in range(tasks):
                pick = T.Tensor(np.eye(tasks)[t:t + 1])  # 1 x T, row t
                row = T.matmul(T.matmul(pick, a), bank._expand)
                block = T.matmul(T.multiply(z, row), fold)
                place = np.zeros((m, tasks * m))  # block t's columns
                place[:, t * m:(t + 1) * m] = np.eye(m)
                part = T.matmul(block, T.Tensor(place))
                out = part if out is None else T.add(out, part)
            return T.matmul(out, weight)

        model = MtlModel(tasks=2, k=k, input_dim=4, total_dim=16,
                         encoder_hidden=(5,), head_out=1,
                         loss_kind="mse",
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
                         encoder_hidden=(), head_out=1,
                         loss_kind="mse", rng=rng)
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
        weights = PenaltyWeights(0.0, 0.0, 0.0, 0.0)
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
                           PenaltyWeights(0, 0, 0, 0))

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
                             encoder_hidden=(), head_out=1,
                             loss_kind="mse", rng=np.random.default_rng(0))
            batch = EnvironmentBatch("valid", np.ones((3, 2)),
                                     {0: np.ones(3)}, {0: np.ones(2, bool)})
            try:
                step_gradients(model, batch, [batch],
                               PenaltyWeights(0, 0, 0, 0))
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
        # one encoding per batch and E + 1 = 3 gradient calls under every
        # variant: one inner gradient per environment (routing matrix, and
        # heads under irm-baseline), and one backward of loss + lambda *
        # penalty; per-(task, environment) inner gradients would make 5
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
        for variant in ("var", "irm-baseline"):
            nodes = []
            for k in (2, 8):
                model = MtlModel(tasks=2, k=k, input_dim=4, total_dim=16,
                                 encoder_hidden=(5,),
                                 head_out=1,
                                 loss_kind="mse",
                                 rng=np.random.default_rng(6))
                tape = T.Tape()
                grad_calls.clear()
                encodes.clear()
                step_gradients(model, batches[0], batches,
                               PenaltyWeights(1.0, 0.1, 0.5, 2.0, variant),
                               tape=tape)
                nodes.append(len(tape.nodes))
                # one routing matrix for the loss, one per penalty
                # environment
                assert [n.op for n in tape.nodes].count("sigmoid") == 3
                assert len(grad_calls) == 3
                assert len(encodes) == 2
            assert nodes[0] == nodes[1]

    def test_tape_does_not_grow_with_task_count(self):
        # one op chain routes, scores and differentiates every task: a
        # mtcrl_sem_config step records the same nodes at T = 2, 4 and 8,
        # no more than the 178 that one chain per task took at T = 2
        nodes = []
        for tasks in (2, 4, 8):
            cfg = presets.mtcrl_sem_config(0)
            cfg = replace(cfg, dataset=replace(cfg.dataset, tasks=tasks,
                                               n_train=60, n_valid=60,
                                               n_test=60))
            train_b, valid_b, _, tasks, kind, head_out = \
                harness._dataset_bundle(cfg)
            model = harness._build_model(cfg, train_b.input_dim, tasks, kind,
                                         head_out, seed_key=100)
            envs = harness.split_environments(train_b, valid_b)
            tape = T.Tape()
            train_step(model, envs[0], envs, cfg.weights, Adam(1e-2),
                       tape=tape)
            nodes.append(len(tape.nodes))
        assert nodes[0] == nodes[1] == nodes[2] <= 178

    def test_nonfinite_loss_aborts(self):
        model = tiny_model(seed=5)
        for p in model.parameters():
            p.value[:] = 1e200
        batches = tiny_batches(seed=5)
        with pytest.raises(T.NonFiniteError, match="training loss"):
            step_gradients(model, batches[0], batches,
                           PenaltyWeights(0, 0, 0, 0))


def _state(model, opt):
    """Copies of the parameters and of the Adam step count and moments."""
    return ({p.name: p.value.copy() for p in model.parameters()}, opt.t,
            {k: (m.copy(), v.copy()) for k, (m, v) in opt.state.items()})


def _assert_same_state(a, b):
    params_a, t_a, moments_a = a
    params_b, t_b, moments_b = b
    assert t_a == t_b
    assert params_a.keys() == params_b.keys()
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])
    assert moments_a.keys() == moments_b.keys()
    for key in moments_a:
        for x, y in zip(moments_a[key], moments_b[key]):
            np.testing.assert_array_equal(x, y)


class TestFiniteness:
    def test_per_op_checks_stay_off_the_hot_path(self, monkeypatch):
        calls = []
        check = T._check_op

        def counted(*args):
            calls.append(args[1])
            return check(*args)

        monkeypatch.setattr(T, "_check_op", counted)
        model = tiny_model(seed=2)
        batches = tiny_batches(seed=2)
        weights = PenaltyWeights(1.0, 0.1, 0.5, 2.0, "var")
        train_step(model, batches[0], batches, weights, Adam(1e-2))
        assert calls == []
        with T.detect_anomaly():
            train_step(model, batches[0], batches, weights, Adam(1e-2))
        assert len(calls) > 0

    @pytest.mark.parametrize("variant", ["var", "irm-baseline"])
    def test_penalty_boundary_names_the_op_and_applies_nothing(
            self, variant, monkeypatch):
        # NaN valid inputs make the penalty NaN; the train loss stays finite
        seen = {}

        def poisoned(model, batch, env_batches, weights, opt, tape=None):
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] == 3:
                i = [b.env_id for b in env_batches].index("valid")
                env_batches[i] = replace(
                    env_batches[i],
                    inputs=np.full_like(env_batches[i].inputs, np.nan))
                seen["model"], seen["opt"] = model, opt
                seen["before"] = _state(model, opt)
            return train_step(model, batch, env_batches, weights, opt,
                              tape=tape)

        monkeypatch.setattr(harness, "train_step", poisoned)
        cfg = quick_config(mode="mtcrl",
                           weights=PenaltyWeights(0.5, 0.01, 0.1, 1.0, variant))
        with pytest.raises(T.NonFiniteError) as info:
            train(cfg)
        err = info.value
        assert err.boundary == "the girm penalty"
        assert err.op == "matmul" and isinstance(err.node, int)
        assert err.parent_ops == (None, "leaf")
        assert (err.epoch, err.step) == (2, 2)
        assert "girm penalty" in str(err) and "epoch 2, step 2" in str(err)
        after = _state(seen["model"], seen["opt"])
        assert after[1] == 2
        _assert_same_state(seen["before"], after)

    def test_nonfinite_gradient_is_never_applied(self):
        # z ~ 1e210 and head weights ~ 1e-100: the loss (~1e220) is finite,
        # z^T @ dL/dpred (~1e320), and so the routing and head gradients
        # through it, are not
        model = MtlModel(tasks=2, k=2, input_dim=4, total_dim=4,
                         encoder_hidden=(), head_out=1,
                         loss_kind="mse",
                         rng=np.random.default_rng(4))
        for p in model.parameters():
            if p.name == "bank.layer0.weight":
                p.value[:] *= 1e210
            elif p.name.endswith("layer0.weight"):
                p.value[:] *= 1e-100
        batches = tiny_batches(seed=4)
        opt = Adam(1e-2)
        before = _state(model, opt)
        with pytest.raises(T.NonFiniteError,
                           match="gradient of routing.theta"):
            train_step(model, batches[0], batches,
                       PenaltyWeights(0, 0, 0, 0), opt)
        _assert_same_state(before, _state(model, opt))
        assert opt.t == 0

    def test_evaluate_failure_names_the_op_epoch_and_step(self):
        # one Adam step moves every weight by ~1e300; evaluation overflows.
        # The train risks of epoch 0 wait for step 1's loss, so the valid
        # evaluation of epoch 0 is the first boundary to see it
        with pytest.raises(T.NonFiniteError) as info:
            train(quick_config(learning_rate=1e300))
        err = info.value
        assert err.boundary == "the risks on 'valid'"
        assert err.op == "matmul" and isinstance(err.node, int)
        assert (err.epoch, err.step) == (0, 0)

    def test_valid_risk_boundary_when_the_penalty_stays_finite(self):
        # valid labels ~1e160 overflow the valid risks (~1e320); with head
        # weights ~1e-20 the routing gradients (~1e140) and so the detached
        # var penalty stay finite
        model = tiny_model(seed=5)
        for p in model.head_parameters():
            p.value[:] *= 1e-20
        train_b, valid_b = tiny_batches(seed=5)
        valid_b = replace(valid_b, labels={t: y * 1e160
                                           for t, y in valid_b.labels.items()})
        weights = PenaltyWeights(0.5, 0.01, 0.1, 1.0, "var")
        opt = Adam(1e-2)
        before = _state(model, opt)
        with pytest.raises(T.NonFiniteError) as info:
            train_step(model, train_b, [train_b, valid_b], weights, opt)
        assert info.value.boundary == "the risks on 'valid'"
        _assert_same_state(before, _state(model, opt))

    def test_post_fit_failure_names_the_op_epoch_and_step(self, monkeypatch):
        # the test split is evaluated after the fit, at its last step
        bundle = harness._dataset_bundle

        def nan_test(cfg):
            train_b, valid_b, test_b, *rest = bundle(cfg)
            test_b = replace(test_b, inputs=np.full_like(test_b.inputs, np.nan))
            return (train_b, valid_b, test_b, *rest)

        monkeypatch.setattr(harness, "_dataset_bundle", nan_test)
        with pytest.raises(T.NonFiniteError) as info:
            train(quick_config(epochs=2))
        err = info.value
        assert err.boundary == "the risks on 'test'"
        assert err.op == "matmul" and isinstance(err.node, int)
        assert (err.epoch, err.step) == (1, 1)
        assert "epoch 1, step 1" in str(err)


class TestTrain:
    def test_zero_epochs_reports_initial_state(self):
        rep, _ = train(quick_config(epochs=0))
        assert rep.epochs_run == [0]
        assert rep.train_risk_curve == [[], []]
        assert len(rep.acc_val) == 2

    def test_deterministic_reports(self):
        cfg = quick_config(mode="mtcrl", epochs=3,
                           weights=PenaltyWeights(0.5, 0.01, 0.1, 5.0, "var"))
        a = report_json(train(cfg)[0])
        b = report_json(train(cfg)[0])
        assert a == b

    def test_seed_changes_report(self):
        a = report_json(train(quick_config(seed=0))[0])
        b = report_json(train(quick_config(seed=1))[0])
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


def cyclic_garbage(run) -> int:
    """Objects the cycle collector finds after ``run()`` with it off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestAcyclicTape:
    """Every tape a computation drops is freed by reference counting."""

    @pytest.mark.parametrize("mode, variant", [
        ("mtcrl", "var"), ("mtcrl", "irm-baseline"), ("stl", "var")])
    def test_train_leaves_no_cyclic_garbage(self, mode, variant):
        cfg = quick_config(mode=mode, epochs=3,
                           weights=PenaltyWeights(girm_variant=variant))
        assert cyclic_garbage(partial(train, cfg)) == 0

    @pytest.mark.parametrize("name", ["factor_gradient", "module_corr_heatmap",
                                      "task_module_gradients"])
    def test_analysis_leaves_no_cyclic_garbage(self, name):
        _, (model,) = train(quick_config(mode="mtcrl", epochs=2))
        train_b, valid_b, _ = gen_multisem(QUICK_SPEC)
        args = {"factor_gradient": (model, train_b),
                "module_corr_heatmap": (model, train_b),
                "task_module_gradients": (model, [train_b, valid_b])}[name]
        assert cyclic_garbage(partial(getattr(analysis, name), *args)) == 0


def reference_fit(model, env_batches, weights, cfg):
    """The fit loop that evaluates train and valid after every epoch, with
    ``harness._fit``'s return shape."""
    opt = harness.make_optimizer(cfg)
    tape = T.Tape()
    train_batch, valid_batch = env_batches
    train_curve, valid_curve = [], []
    best, bad, epochs_run = np.inf, 0, 0
    for _ in range(cfg.epochs):
        train_step(model, train_batch, env_batches, weights, opt, tape=tape)
        epochs_run += 1
        train_curve.append(evaluate(model, train_batch)["risks"])
        valid_curve.append(evaluate(model, valid_batch)["risks"])
        total = float(sum(train_curve[-1]))
        if total < best - harness.PLATEAU_TOL:
            best, bad = total, 0
        else:
            bad += 1
            if bad > cfg.patience:
                break
    final = [evaluate(model, b) for b in (train_batch, valid_batch)]
    return train_curve, valid_curve, epochs_run, final, (None, None)


MTCRL_WEIGHTS = {v: PenaltyWeights(0.5, 0.01, 0.1, 1.0, v)
                 for v in ("var", "irm-baseline")}
FIT_CASES = {
    "var": dict(mode="mtcrl", weights=MTCRL_WEIGHTS["var"]),
    "irm-baseline": dict(mode="mtcrl", weights=MTCRL_WEIGHTS["irm-baseline"]),
    "mtl-vanilla": dict(mode="mtl-vanilla"),
    "stl": dict(mode="stl"),
}


class TestDeferredRisks:
    """Epochs take their risks from the next step's forward pass
    instead of from ``evaluate``; the curves must not change."""

    @pytest.mark.parametrize("case", FIT_CASES)
    @pytest.mark.parametrize("patience,lr", [(0, 0.1), (2, 0.1), (6, 0.1),
                                             (0, 0.0), (2, 0.0)])
    def test_fit_equals_the_per_epoch_evaluation_loop(self, case, patience,
                                                      lr, monkeypatch):
        cfg = quick_config(epochs=6, patience=patience, learning_rate=lr,
                           **FIT_CASES[case])
        got = train(cfg)[0]
        monkeypatch.setattr(harness, "_fit", reference_fit)
        want = train(cfg)[0]
        assert got.epochs_run == want.epochs_run
        assert got.train_risk_curve == want.train_risk_curve
        assert got.valid_risk_curve == want.valid_risk_curve
        assert report_json(got) == report_json(want)
        if lr == 0.0:  # immediate plateau
            assert set(got.epochs_run) == {min(patience + 2, 6)}

    @pytest.mark.parametrize("case,calls", [
        ("var", ["train", "valid", "test"]),
        ("mtl-vanilla", ["valid"] * 5 + ["train", "valid", "test"])])
    def test_evaluate_calls_per_train(self, case, calls, monkeypatch):
        # a full-batch fit that cannot stop early evaluates train and valid
        # once, at the end; without a penalty the step does not encode the
        # valid split, so valid is evaluated every epoch (6 + 2 calls)
        seen, real = [], harness.evaluate

        def counted(model, batch):
            seen.append(batch.env_id)
            return real(model, batch)

        monkeypatch.setattr(harness, "evaluate", counted)
        train(quick_config(epochs=6, patience=6, **FIT_CASES[case]))
        assert seen == calls


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
        # risks a full-batch step trains on (150 rows, so 1/n is inexact),
        # and the valid risks that each girm penalty builds
        classes = 1 if kind == "mse" else 3
        for seed, variant in enumerate(("var", "irm-baseline")):
            model = MtlModel(tasks=3, k=2, input_dim=4, total_dim=8,
                             encoder_hidden=(5,), head_out=classes,
                             loss_kind=kind,
                             rng=np.random.default_rng(seed))
            batches = tiny_batches(seed=seed, n=150, tasks=3)
            if kind == "xent":
                rng = np.random.default_rng(seed + 10)
                for b in batches:
                    b.labels = {t: rng.integers(0, classes, size=150)
                                for t in b.labels}
            _, parts = step_gradients(model, batches[0], batches,
                                      PenaltyWeights(1.0, 0.1, 0.5, 3.0,
                                                     variant))
            assert evaluate(model, batches[0])["risks"] == parts["task_risks"]
            assert evaluate(model, batches[1])["risks"] == parts["valid_risks"]
            _, bare = step_gradients(model, batches[0], batches,
                                     PenaltyWeights(1.0, 0.1, 0.5, 0.0,
                                                    variant))
            assert "valid_risks" not in bare


def per_task_reference(model, batch):
    """``evaluate``'s risks and accuracies and ``factor_gradient``'s
    saliency, task by task in plain numpy from the checkpoint arrays of a
    model with one tanh hidden layer."""
    s, x, a = model.state_dict(), batch.inputs, model.routing.matrix()
    layers = [[s[f"module{c}.layer{i}.weight"] for i in (0, 1)]
              for c in range(model.k)]
    hidden = [np.tanh(x @ w0 + s[f"module{c}.layer0.bias"])
              for c, (w0, _) in enumerate(layers)]
    z = [h @ w1 + s[f"module{c}.layer1.bias"]
         for c, (h, (_, w1)) in enumerate(zip(hidden, layers))]
    risks, accs, saliency = [], [], []
    for t in range(model.tasks):
        w, y = s[f"head{t}.layer0.weight"], batch.labels[t]
        out = (sum(a[t, c] * z[c] for c in range(model.k)) @ w
               + s[f"head{t}.layer0.bias"])
        if model.loss_kind == "mse":
            risks.append(np.mean((out[:, 0] - y) ** 2))
            accs.append(np.mean(np.where(out[:, 0] >= 0, 1.0, -1.0) == y))
            picked = np.repeat(w.T, len(y), axis=0)
        else:
            shifted = out - out.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1,
                                                        keepdims=True))
            risks.append(-np.mean(logp[np.arange(len(y)), y]))
            accs.append(np.mean(out.argmax(axis=1) == y))
            picked = w[:, y].T
        # d(score of row b) / d(x_b), module by module through the tanh
        grad = sum(a[t, c] * ((picked @ w1.T) * (1 - h ** 2)) @ w0.T
                   for c, (h, (w0, w1)) in enumerate(zip(hidden, layers)))
        saliency.append(np.abs(grad).sum(axis=0))
    return risks, accs, np.array(saliency)


class TestPerTaskReference:
    """One forward chain for all tasks gives what each task's own chain
    gives."""

    @pytest.mark.parametrize("kind, classes", [("mse", 1), ("xent", 3)])
    def test_evaluate_and_saliency_match(self, kind, classes):
        rng = np.random.default_rng(30)
        model = MtlModel(tasks=2, k=3, input_dim=5, total_dim=6,
                         encoder_hidden=(4,), head_out=classes,
                         loss_kind=kind, rng=rng)
        model.routing.theta.value[...] = rng.normal(size=(2, 3))
        batch = tiny_batches(seed=30, n=40, input_dim=5)[1]
        if kind == "xent":
            batch.labels = {t: rng.integers(0, classes, size=40)
                            for t in range(2)}
        risks, accs, saliency = per_task_reference(model, batch)
        got = evaluate(model, batch)
        np.testing.assert_allclose(got["risks"], risks, rtol=1e-13)
        assert got["accuracy"] == accs
        assert 0 < min(accs) and max(accs) < 1
        np.testing.assert_allclose(analysis.factor_gradient(model, batch),
                                   saliency, rtol=1e-12)


class TestInputSupport:
    """A step over batches with blank input columns reads only the others
    in the first bank layer."""

    def blank_setup(self, seed=11):
        model = MtlModel(tasks=2, k=2, input_dim=4, total_dim=4,
                         encoder_hidden=(5,), head_out=1, loss_kind="mse",
                         rng=np.random.default_rng(seed))
        return model, blanked(tiny_batches(seed=seed))

    @pytest.mark.parametrize("variant", GIRM_VARIANTS)
    def test_skipped_rows_get_zero_gradient_and_stay_put(self, variant):
        model, batches = self.blank_setup()
        weights = PenaltyWeights(1.0, 0.1, 0.5, 3.0, variant)
        first = model.bank.net.layers[0][0]
        grads, _ = step_gradients(model, batches[0], batches, weights)
        assert grads[first.name].shape == first.value.shape
        skipped = grads[first.name][[1, 3]]
        assert np.all(skipped == 0.0) and not np.any(np.signbit(skipped))
        assert np.all(grads[first.name][[0, 2]] != 0.0)
        before = first.value.copy()
        opt = Adam(0.05)
        for _ in range(3):
            train_step(model, batches[0], batches, weights, opt)
        assert first.value[[1, 3]].tobytes() == before[[1, 3]].tobytes()
        assert np.all(first.value[[0, 2]] != before[[0, 2]])

    def test_support_adds_no_node(self):
        model, batches = self.blank_setup()
        weights = PenaltyWeights(1.0, 0.1, 0.5, 3.0, "irm-baseline")
        tapes = [T.Tape(), T.Tape()]
        step_gradients(model, batches[0], batches, weights, tape=tapes[0])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "step_support", lambda *_: None)
            step_gradients(model, batches[0], batches, weights, tape=tapes[1])
        assert len(tapes[0].nodes) == len(tapes[1].nodes)

    def test_sem_step_takes_the_dense_path(self, monkeypatch):
        model = MtlModel(tasks=2, k=2, input_dim=QUICK_SPEC.input_dim,
                         total_dim=8, encoder_hidden=(8,), head_out=1,
                         loss_kind="mse", rng=np.random.default_rng(3))
        train_b, valid_b, _ = gen_multisem(QUICK_SPEC)
        batches = [train_b, replace(valid_b, env_id="valid")]
        assert harness.step_support(train_b, batches) is None
        weights = PenaltyWeights(1.0, 0.1, 0.5, 3.0, "var")
        tapes = [T.Tape(), T.Tape()]
        got, _ = step_gradients(model, train_b, batches, weights,
                                tape=tapes[0])
        monkeypatch.setattr(harness, "step_support", lambda *_: None)
        ref, _ = step_gradients(model, train_b, batches, weights,
                                tape=tapes[1])
        assert len(tapes[0].nodes) == len(tapes[1].nodes)
        for name, g in ref.items():
            assert got[name].tobytes() == g.tobytes(), name

    def test_nan_in_a_blank_column_still_raises(self):
        model, batches = self.blank_setup()
        x = batches[0].inputs.copy()
        x[4, 1] = np.nan
        batches[0] = replace(batches[0], inputs=x)
        assert 1 in harness.step_support(batches[0], batches)
        with pytest.raises(T.NonFiniteError):
            step_gradients(model, batches[0], batches,
                           PenaltyWeights(1.0, 0.1, 0.5, 3.0, "var"))

    def test_all_blank_input(self):
        model, batches = self.blank_setup()
        batches = blanked(batches, both=(0, 1, 2, 3), train_only=())
        assert harness.step_support(batches[0], batches).size == 0
        weights = PenaltyWeights(1.0, 0.1, 0.5, 3.0, "var")
        grads, parts = step_gradients(model, batches[0], batches, weights)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "step_support", lambda *_: None)
            ref, ref_parts = step_gradients(model, batches[0], batches,
                                            weights)
        assert parts == ref_parts
        for name, g in ref.items():
            np.testing.assert_array_equal(grads[name], g, err_msg=name)
        assert not np.any(grads[model.bank.net.layers[0][0].name])

    def test_binding_rows_after_a_whole_leaf_raises(self):
        model, _ = self.blank_setup()
        first = model.bank.net.layers[0][0]
        binding = TapeBinding(T.Tape(), support=np.array([0, 2]))
        binding.leaf(first)
        with pytest.raises(ModelError, match="already bound whole"):
            binding.rows(first)
        rows = TapeBinding(T.Tape(), support=np.array([0, 2]))
        leaf = rows.rows(first)
        assert leaf.shape == (2, first.value.shape[1])
        assert rows.leaf(first) is leaf  # leaves_for sees the rows too


def paired_digit_spec(tmp_path, border=0):
    """Five-by-four digits, or larger by a blank ``border``, 4 per class."""
    from mtcrl.data import MnistPairSpec, write_idx_images, write_idx_labels

    rng = np.random.default_rng(0)
    images, labels = [], []
    for c in range(10):
        for _ in range(4):
            img = np.zeros((5 + 2 * border, 4 + 2 * border))
            ink = img[border:border + 5, border:border + 4]
            ink[...] = 0.1 * rng.random((5, 4))
            ink[c % 5, :] = 1.0
            images.append(img)
            labels.append(c)
    ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(ipath, np.array(images))
    write_idx_labels(lpath, np.array(labels))
    return MnistPairSpec(images_path=str(ipath), labels_path=str(lpath),
                         pairs_per_class_pair=2)


def report_floats(rep) -> list:
    """Every number of ``rep`` but its wall-clock time, in a fixed order."""
    def walk(x):
        if isinstance(x, dict):
            for key in sorted(x):
                yield from walk(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                yield from walk(item)
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            yield float(x)
    return list(walk(replace(rep, wall_clock_s=0.0).to_dict()))


class TestMultiMnistEndToEnd:
    def test_paired_digit_training_runs(self, tmp_path):
        spec = paired_digit_spec(tmp_path)
        cfg = TrainConfig(dataset=spec, mode="mtcrl", k_modules=2,
                          total_module_dim=8, encoder_hidden=(8,), epochs=3,
                          learning_rate=1e-2, seed=0,
                          weights=PenaltyWeights(0.5, 0.01, 0.1, 5.0, "var"))
        rep, _ = train(cfg)
        assert rep.epochs_run == [3]
        assert len(rep.acc_val) == 2
        assert all(0.0 <= a <= 1.0 for a in rep.acc_val)
        assert len(rep.saliency[0]) == 5 * 4 * 2
        assert rep.config["dataset"]["kind"] == "multimnist"

    @pytest.mark.parametrize("variant", GIRM_VARIANTS)
    def test_blank_border_fit_matches_dense_support(self, tmp_path,
                                                    monkeypatch, variant):
        cfg = TrainConfig(dataset=paired_digit_spec(tmp_path, border=2),
                          mode="mtcrl", k_modules=2, total_module_dim=8,
                          encoder_hidden=(8,), epochs=6, learning_rate=1e-2,
                          seed=0, weights=PenaltyWeights(0.5, 0.01, 0.1, 5.0,
                                                         variant))
        supports = []
        step_support = harness.step_support
        monkeypatch.setattr(harness, "step_support", lambda *args: (
            supports.append(step_support(*args)) or supports[-1]))
        rep, _ = train(cfg)
        # every step skips the 2-pixel border around each digit's 5 x 4 ink
        assert len(supports) == 6
        assert all(s is not None and s.size == 2 * 5 * 4 for s in supports)
        monkeypatch.setattr(harness, "step_support", lambda *_: None)
        dense, _ = train(cfg)
        np.testing.assert_allclose(report_floats(rep), report_floats(dense),
                                   rtol=1e-12, atol=0)


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
