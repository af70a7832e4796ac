import numpy as np
import pytest

from mtcrl import tensor as T
from mtcrl.data import EnvironmentBatch
from mtcrl.harness import step_gradients
from mtcrl.model import MtlModel, TapeBinding
from mtcrl.regularizers import (EmptyBatchError, PenaltyWeights, RegularizerError,
                                decorrelation_loss,
                                env_task_risk, environment_gradients,
                                girm_norm_penalty, girm_penalty,
                                girm_var_penalty, graph_reg_loss,
                                irm_baseline_penalty, pearson_corr,
                                task_loss)


def make_model(tasks=2, k=3, input_dim=4, total_dim=6, seed=0, kind="mse",
               head_out=1):
    rng = np.random.default_rng(seed)
    return MtlModel(tasks=tasks, k=k, input_dim=input_dim, total_dim=total_dim,
                    encoder_hidden=(5,),
                    head_out=head_out, loss_kind=kind, rng=rng)


def make_batches(input_dim=4, tasks=2, n=12, seed=0):
    rng = np.random.default_rng(seed)
    masks = {t: np.zeros(input_dim, dtype=bool) for t in range(tasks)}
    out = []
    for env_id in ("train", "valid"):
        labels = {t: rng.choice([-1.0, 1.0], size=n) for t in range(tasks)}
        out.append(EnvironmentBatch(env_id, rng.normal(size=(n, input_dim)),
                                    labels, masks))
    return out


class TestPearson:
    def test_self_correlation_is_one(self):
        z = T.Tensor(np.array([[1.0], [-1.0], [2.0]]))
        rho = pearson_corr(z, z)
        assert rho.data[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_anti_correlation(self):
        zi = T.Tensor(np.array([[1.0], [-1.0]]))
        zj = T.Tensor(np.array([[-1.0], [1.0]]))
        assert pearson_corr(zi, zj).data[0, 0] == pytest.approx(-1.0, abs=1e-7)

    def test_orthogonal_columns_give_zero(self):
        zi = T.Tensor(np.array([[1.0], [-1.0], [1.0], [-1.0]]))
        zj = T.Tensor(np.array([[1.0], [1.0], [-1.0], [-1.0]]))
        assert pearson_corr(zi, zj).data[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(0)
        rho = pearson_corr(T.Tensor(rng.normal(size=(20, 3))),
                           T.Tensor(rng.normal(size=(20, 4))))
        assert np.all(np.abs(rho.data) <= 1.0 + 1e-9)

    def test_degenerate_column_floors_by_default(self):
        z_const = T.Tensor(np.ones((4, 1)))
        z = T.Tensor(np.arange(4.0)[:, None])
        assert abs(pearson_corr(z_const, z).data[0, 0]) < 1e-3

    def test_needs_two_rows(self):
        with pytest.raises(RegularizerError):
            pearson_corr(T.Tensor(np.ones((1, 2))), T.Tensor(np.ones((1, 2))))


class TestDecorrelation:
    def test_single_module_is_zero(self):
        assert decorrelation_loss(T.Tensor(np.random.rand(5, 2)), 1, 3.0).item() == 0.0

    def test_identical_single_column_modules(self):
        z = np.array([[0.3], [1.2], [-0.5], [0.9]])
        lam = 2.5
        loss = decorrelation_loss(T.Tensor(np.hstack([z, z])), 2, lam)
        assert loss.item() == pytest.approx(lam, rel=1e-6)

    def test_independent_gaussians_concentrate(self):
        rng = np.random.default_rng(42)
        p = q = 2
        z = T.Tensor(rng.normal(size=(10000, p + q)))
        assert decorrelation_loss(z, 2, 1.0).item() < p * q * 0.01

    def test_symmetric_under_module_swap(self):
        z = np.random.default_rng(1).normal(size=(8, 6))
        a = decorrelation_loss(T.Tensor(z), 3, 1.0).item()
        swapped = np.hstack([z[:, 4:6], z[:, 0:2], z[:, 2:4]])
        b = decorrelation_loss(T.Tensor(swapped), 3, 1.0).item()
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_matches_pairwise_reference(self, k):
        rng = np.random.default_rng(k)
        data = np.hstack([rng.normal(size=(9, 2)) + 0.3 * rng.normal(size=(9, 1))
                          for _ in range(k)])

        def loss_and_grad(loss_fn):
            tape = T.Tape()
            z = tape.leaf(data)
            loss = loss_fn(z)
            return loss.item(), T.grad(loss, [z])[0].data

        def pairwise(z):
            zs = [T.narrow(z, 1, 2 * i, 2) for i in range(k)]
            total = None
            for i in range(len(zs)):
                for j in range(i + 1, len(zs)):
                    term = T.l2_norm_sq(pearson_corr(zs[i], zs[j]))
                    total = term if total is None else T.add(total, term)
            return T.scale(total, 1.7)

        value, g = loss_and_grad(lambda z: decorrelation_loss(z, k, 1.7))
        ref_value, ref_g = loss_and_grad(pairwise)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
        assert np.linalg.norm(g - ref_g) <= 1e-12 * np.linalg.norm(ref_g)

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_finite_differences(self, order):
        rng = np.random.default_rng(order)
        err = T.finite_diff_check(
            lambda z: decorrelation_loss(z, 3, 0.8), [rng.normal(size=(5, 6))],
            step=1e-5, order=order)
        assert err < 1e-8


class TestGraphReg:
    def test_uniform_matrix_closed_form(self):
        a = T.Tensor(np.full((2, 4), 0.5))
        loss = graph_reg_loss(a, 0.2, 5.0).item()
        assert loss == pytest.approx(0.2 * 4 - 5.0 * np.log(4.0), abs=1e-9)
        assert loss == pytest.approx(-6.13147, abs=1e-5)

    def test_concentrated_one_hot_loses_entropy(self):
        a = np.zeros((3, 4))
        a[:, 1] = 1.0
        loss = graph_reg_loss(T.Tensor(a), 0.2, 5.0).item()
        assert loss == pytest.approx(0.2 * 3, abs=1e-12)

    def test_all_zero_matrix_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning, match="all-zero"):
            assert graph_reg_loss(T.Tensor(np.zeros((2, 2))), 0.2, 5.0).item() == 0.0

    def test_entropy_max_at_balanced_columns(self):
        balanced = graph_reg_loss(T.Tensor(np.full((2, 4), 0.5)), 0.0, 1.0).item()
        tilted = np.full((2, 4), 0.5)
        tilted[:, 0] = 0.9
        assert graph_reg_loss(T.Tensor(tilted), 0.0, 1.0).item() > balanced

    def test_rejects_out_of_range(self):
        with pytest.raises(RegularizerError):
            graph_reg_loss(T.Tensor(np.array([[1.5]])), 0.1, 0.1)

    def test_differentiable_through_a(self):
        tape = T.Tape()
        theta = tape.leaf(np.zeros((2, 3)))
        a = T.sigmoid(theta)
        loss = graph_reg_loss(a, 0.2, 5.0)
        g, = T.grad(loss, [theta])
        assert np.all(np.isfinite(g.data)) and np.any(g.data != 0)


class TestEnvTaskRisk:
    def test_perfect_predictions_zero_mse(self):
        model = make_model()
        batch = make_batches()[0]
        # craft labels equal to the model's own predictions
        binding = TapeBinding(T.Tape())
        pred = model.predict(binding, model.encode(binding, batch.inputs))
        for t in range(model.tasks):
            batch.labels[t] = pred.data[:, t]
        risk = env_task_risk(model, TapeBinding(T.Tape()), batch)
        assert risk.shape == (1, model.tasks)
        np.testing.assert_allclose(risk.data, 0.0, atol=1e-15)

    def test_uniform_logits_log_c(self):
        n_classes = 5
        model = make_model(kind="xent", seed=3, head_out=n_classes)
        state = model.state_dict()
        for name in ("head0.layer0.weight", "head0.layer0.bias"):
            state[name][...] = 0.0  # all-zero head: logits equal, uniform
        rng = np.random.default_rng(0)
        batch = EnvironmentBatch(
            "train", rng.normal(size=(6, 4)),
            {0: rng.integers(0, n_classes, size=6),
             1: rng.integers(0, n_classes, size=6)},
            {0: np.zeros(4, bool), 1: np.zeros(4, bool)})
        risk = env_task_risk(model, TapeBinding(T.Tape()), batch)
        assert risk.data[0, 0] == pytest.approx(np.log(n_classes), abs=1e-12)
        assert risk.data[0, 1] != pytest.approx(np.log(n_classes), abs=1e-3)

    def test_hand_built_two_sample_batch(self):
        # linear model y_hat = x @ w with w = [1, -1]; mse by hand
        rng = np.random.default_rng(0)
        model = MtlModel(tasks=1, k=1, input_dim=2, total_dim=2,
                         encoder_hidden=(), head_out=1,
                         loss_kind="mse", rng=rng)
        model.load_state({**model.state_dict(),
                          "module0.layer0.weight": np.eye(2),
                          "module0.layer0.bias": np.zeros((1, 2)),
                          "head0.layer0.weight": np.array([[1.0], [-1.0]]),
                          "head0.layer0.bias": np.zeros((1, 1))})
        model.routing.theta.value[:] = 60.0  # A ~ 1
        x = np.array([[1.0, 2.0], [3.0, 1.0]])
        y = np.array([0.0, 1.0])
        batch = EnvironmentBatch("train", x, {0: y}, {0: np.zeros(2, bool)})
        risk = env_task_risk(model, TapeBinding(T.Tape()), batch)
        preds = x @ np.array([1.0, -1.0])
        expected = np.mean((preds - y) ** 2)
        assert risk.item() == pytest.approx(expected, rel=1e-9)

    def test_empty_batch_rejected(self):
        model = make_model()
        empty = EnvironmentBatch("train", np.zeros((0, 4)),
                                 {0: np.zeros(0), 1: np.zeros(0)},
                                 {0: np.zeros(4, bool), 1: np.zeros(4, bool)})
        with pytest.raises(EmptyBatchError, match="is empty"):
            env_task_risk(model, TapeBinding(T.Tape()), empty)

    def test_mse_labels_must_cover_every_task(self):
        # one label column for two tasks' predictions must not broadcast
        pred = T.Tensor(np.zeros((4, 2)))
        assert task_loss(pred, np.ones((4, 2)), "mse").shape == (1, 2)
        with pytest.raises(ValueError):
            task_loss(pred, np.ones(4), "mse")

    def test_missing_task_labels_rejected(self):
        model = make_model()
        batch = make_batches()[0]
        del batch.labels[1]
        with pytest.raises(EmptyBatchError, match=r"no labels for tasks \[1\]"):
            env_task_risk(model, TapeBinding(T.Tape()), batch)


def constant_grad_set(per_env):
    """Environment gradients from plain arrays, e.g.
    {'train': [[[1, 0], [0, 2]], [5.0]]}: a T x K routing gradient, then
    any further gradients; a flat list is one row."""
    return {env: [T.Tensor(np.atleast_2d(np.asarray(g, dtype=float)))
                  for g in gs]
            for env, gs in per_env.items()}


class TestGirmPenalties:
    def test_norm_zero_at_stationary_point(self):
        gs = constant_grad_set({"train": [[0, 0]], "valid": [[0, 0]]})
        assert girm_norm_penalty(gs).item() == 0.0

    def test_norm_single_gradient_arithmetic(self):
        gs = constant_grad_set({"train": [[3.0, 4.0]]})
        assert girm_norm_penalty(gs).item() == pytest.approx(25.0, abs=1e-13)
        # every listed gradient counts, head gradients included
        gs = constant_grad_set({"train": [[3.0, 4.0], [12.0]]})
        assert girm_norm_penalty(gs).item() == pytest.approx(169.0, abs=1e-13)

    def test_var_zero_for_identical_nonzero_gradients(self):
        gs = constant_grad_set({"train": [[2.0, -1.0]], "valid": [[2.0, -1.0]]})
        assert girm_var_penalty(gs).item() == 0.0
        assert girm_norm_penalty(gs).item() > 0  # separation of the two forms

    def test_var_single_environment_is_zero(self):
        gs = constant_grad_set({"train": [[[5.0, 1.0], [2.0, 3.0]]]})
        assert girm_var_penalty(gs).item() == 0.0

    def test_var_hand_example(self):
        gs = constant_grad_set({"train": [[[1.0, 0.0], [0.0, 2.0]]],
                                "valid": [[[3.0, 0.0], [0.0, 2.0]]]})
        assert girm_var_penalty(gs).item() == pytest.approx(1.0, abs=1e-13)

    def test_environment_permutation_invariance(self):
        model = make_model(seed=5)
        batches = make_batches(seed=5)
        tape = T.Tape()
        gs, _ = environment_gradients(model, TapeBinding(tape), batches)
        n1 = girm_norm_penalty(gs).item()
        v1 = girm_var_penalty(gs).item()
        tape2 = T.Tape()
        gs2, _ = environment_gradients(model, TapeBinding(tape2),
                                       batches[::-1])
        assert girm_norm_penalty(gs2).item() == pytest.approx(n1, rel=1e-12)
        assert girm_var_penalty(gs2).item() == pytest.approx(v1, rel=1e-12)

    def test_one_inner_call_equals_per_pair_gradients(self):
        # one inner gradient per environment gives each (task, environment)
        # risk's routing-row and head-block gradients and its value bit for
        # bit; the gradient of R_t^e alone is zero off row t and head t
        model = make_model(seed=13)
        batches = make_batches(seed=13)
        m, o = model.bank.module_dim, 1
        for heads in (False, True):
            gs, risks = environment_gradients(model, TapeBinding(T.Tape()),
                                              batches, heads=heads)
            assert list(gs) == list(risks) == [b.env_id for b in batches]
            for batch in batches:
                dA, *head_grads = gs[batch.env_id]
                assert dA.shape == (model.tasks, model.k)
                assert len(head_grads) == (2 if heads else 0)
                for t in range(model.tasks):
                    tape = T.Tape()
                    binding = TapeBinding(tape)
                    a = model.routing.weights(binding)
                    leaves = (binding.leaves_for(model.head_parameters())
                              if heads else [])
                    risk = env_task_risk(model, binding, batch, a=a,
                                         detach_heads=not heads)
                    ref = T.grad(T.narrow(risk, 1, t, 1), [a, *leaves])
                    np.testing.assert_array_equal(dA.data[t], ref[0].data[t])
                    others = np.arange(model.tasks) != t
                    np.testing.assert_array_equal(ref[0].data[others], 0.0)
                    blocks = ((slice(t * m, (t + 1) * m), slice(None)),
                              (slice(None), slice(None)))
                    for g, r, rows in zip(head_grads, ref[1:], blocks):
                        own = (rows[0], slice(t * o, (t + 1) * o))
                        np.testing.assert_array_equal(g.data[own], r.data[own])
                        rest = r.data.copy()
                        rest[own] = 0.0
                        np.testing.assert_array_equal(rest, 0.0)
                    assert risks[batch.env_id][t] == risk.data[0, t]

    def test_reused_encoding_gives_same_penalty(self):
        model = make_model(seed=14)
        batches = make_batches(seed=14)
        for variant in ("var", "irm-baseline"):
            fresh = girm_penalty(model, TapeBinding(T.Tape()), batches,
                                 variant)[0].item()
            binding = TapeBinding(T.Tape())
            z = model.encode(binding, batches[0].inputs)
            reused = girm_penalty(model, binding, batches, variant,
                                  encoded=[(batches[0], z)])[0].item()
            assert reused == fresh

    def test_head_detachment_gives_exact_zero_head_gradients(self):
        model = make_model(seed=6)
        batches = make_batches(seed=6)
        tape = T.Tape()
        binding = TapeBinding(tape)
        penalty, _ = girm_penalty(model, binding, batches, "var")
        head_leaves = binding.leaves_for(model.head_parameters())
        for g in T.grad(penalty, head_leaves):
            np.testing.assert_array_equal(g.data, 0.0)

    def test_without_detachment_head_gradients_are_nonzero(self):
        model = make_model(seed=6)
        batches = make_batches(seed=6)
        tape = T.Tape()
        binding = TapeBinding(tape)
        penalty, _ = girm_penalty(model, binding, batches, "irm-baseline")
        head_leaves = binding.leaves_for(model.head_parameters())
        assert any(np.any(g.data != 0) for g in T.grad(penalty, head_leaves))

    def test_norm_penalty_gradient_matches_finite_differences(self):
        # double-backward through the penalty, checked against central
        # differences of the penalty value under encoder-weight shifts
        model = make_model(tasks=1, k=2, input_dim=3, total_dim=4, seed=7)
        batches = make_batches(input_dim=3, tasks=1, n=6, seed=7)
        target = model.bank.net.layers[0][0]  # every module's first layer

        def penalty_value() -> float:
            tape = T.Tape()
            return girm_penalty(model, TapeBinding(tape), batches,
                                "norm")[0].item()

        tape = T.Tape()
        binding = TapeBinding(tape)
        pen, _ = girm_penalty(model, binding, batches, "norm")
        leaf = binding.leaf(target)
        analytic = T.grad(pen, [leaf])[0].data
        step = 1e-5
        worst = 0.0
        for idx in np.ndindex(*target.value.shape):
            keep = target.value[idx]
            target.value[idx] = keep + step
            up = penalty_value()
            target.value[idx] = keep - step
            down = penalty_value()
            target.value[idx] = keep
            numeric = (up - down) / (2 * step)
            worst = max(worst, abs(analytic[idx] - numeric)
                        / max(1.0, abs(analytic[idx]), abs(numeric)))
        assert worst < 1e-3

    def test_inner_routing_gradient_does_not_walk_encoder(self):
        # the inner create_graph gradient w.r.t. a routing row records the
        # same nodes whatever the encoder depth: the encoder is inactive
        added = []
        for hidden in ((32,), (32, 32)):
            model = MtlModel(tasks=2, k=3, input_dim=4, total_dim=6,
                             encoder_hidden=hidden, head_out=1,
                             loss_kind="mse",
                             rng=np.random.default_rng(0))
            batch = make_batches(seed=1)[0]
            tape = T.Tape()
            binding = TapeBinding(tape)
            z = model.encode(binding, batch.inputs)
            a = model.routing.weights(binding)
            risk = env_task_risk(model, binding, batch, z=z, a=a,
                                 detach_heads=True)
            n_before = len(tape.nodes)
            T.grad(T.sum_(risk), [a], create_graph=True)
            added.append(len(tape.nodes) - n_before)
        assert added[0] == added[1]

    def test_irm_baseline_decomposes(self):
        # the baseline is the routing-gradient norm plus the squared norms
        # of the per-environment head gradients, and it reports the risks
        # it builds
        model = make_model(seed=8)
        batches = make_batches(seed=8)
        total, risks = irm_baseline_penalty(model, TapeBinding(T.Tape()),
                                            batches)
        tape = T.Tape()  # held: girm_norm_penalty builds on its gradients
        gs, _ = environment_gradients(model, TapeBinding(tape), batches)
        routing_part = girm_norm_penalty(gs).item()
        with_heads, _ = environment_gradients(model, TapeBinding(T.Tape()),
                                              batches, heads=True)
        head_part = 0.0
        for batch in batches:
            tape3 = T.Tape()
            b3 = TapeBinding(tape3)
            risk = env_task_risk(model, b3, batch)
            leaves = b3.leaves_for(model.head_parameters())
            ref = T.grad(T.sum_(risk), leaves)
            for g, r in zip(with_heads[batch.env_id][1:], ref):
                np.testing.assert_array_equal(g.data, r.data)
                head_part += float((r.data ** 2).sum())
            assert risks[batch.env_id] == risk.data.ravel().tolist()
        assert total.item() == pytest.approx(routing_part + head_part,
                                             rel=1e-9)

    def test_zero_head_gradients_make_baseline_equal_norm(self):
        # craft labels so the mse residual is orthogonal to the head input
        # columns and sums to zero: head-parameter gradients vanish exactly
        # and the baseline penalty reduces to the routing-gradient norm
        model = make_model(tasks=1, seed=9)
        rng = np.random.default_rng(9)
        batches = []
        for env_id in ("train", "valid"):
            x = rng.normal(size=(12, 4))
            binding = TapeBinding(T.Tape())
            z = model.encode(binding, x).data
            m = model.bank.module_dim
            fused = sum(model.routing.matrix()[0, i] * z[:, i * m:(i + 1) * m]
                        for i in range(model.k))
            pred = model.predict(binding, model.encode(binding, x)).data[:, 0]
            basis = np.column_stack([fused, np.ones(12)])
            raw = rng.normal(size=12)
            resid = raw - basis @ np.linalg.lstsq(basis, raw, rcond=None)[0]
            batches.append(EnvironmentBatch(env_id, x, {0: pred - resid},
                                            {0: np.zeros(4, bool)}))
        tape = T.Tape()
        base = irm_baseline_penalty(model, TapeBinding(tape),
                                    batches)[0].item()
        tape2 = T.Tape()
        gs, _ = environment_gradients(model, TapeBinding(tape2), batches)
        norm = girm_norm_penalty(gs).item()
        assert norm > 0
        assert base == pytest.approx(norm, rel=1e-9)


class TestTotalLoss:
    def test_all_lambdas_zero_is_plain_risk_sum(self):
        model = make_model(seed=10)
        batches = make_batches(seed=10)
        weights = PenaltyWeights(0.0, 0.0, 0.0, 0.0, "none")
        _, parts = step_gradients(model, batches[0], batches, weights)
        assert parts["loss"] == pytest.approx(sum(parts["task_risks"]),
                                              rel=1e-12)
        assert set(parts) == {"task_risks", "loss"}

    def test_girm_none_drops_penalty_term(self):
        model = make_model(seed=11)
        batches = make_batches(seed=11)
        weights = PenaltyWeights(1.0, 0.1, 0.5, 7.0, "none")
        _, parts = step_gradients(model, batches[0], batches, weights)
        assert "girm" not in parts

    def test_term_by_term_recomputation(self):
        model = make_model(seed=12)
        batches = make_batches(seed=12)
        weights = PenaltyWeights(1.5, 0.1, 0.4, 2.0, "var")
        _, parts = step_gradients(model, batches[0], batches, weights)
        assert "girm" in parts
        expected = sum(parts["task_risks"]) + parts["decor"] + parts["graph"]
        assert parts["loss"] == pytest.approx(expected, abs=1e-12)


def test_penalty_weights_validation():
    with pytest.raises(RegularizerError):
        PenaltyWeights(lambda_decor=-1.0)
    with pytest.raises(RegularizerError):
        PenaltyWeights(girm_variant="sum")
