from pathlib import Path

import numpy as np
import pytest

from mtcrl import tensor as T
from mtcrl.model import (Mlp, ModelError, MtlModel, TapeBinding, UnknownTaskError,
                         RoutingGraph, load_checkpoint, save_checkpoint)
from mtcrl.oracles import BayesParams, bayes_posterior

DATA = Path(__file__).parent / "data"


def make_model(tasks=2, k=4, input_dim=6, total_dim=8, hidden=(5,), seed=0,
               head_out=None, kinds=None, activation="tanh"):
    rng = np.random.default_rng(seed)
    return MtlModel(tasks=tasks, k=k, input_dim=input_dim, total_dim=total_dim,
                    encoder_hidden=hidden, encoder_activation=activation,
                    head_hidden=(), head_out_dims=head_out or [1] * tasks,
                    loss_kinds=kinds or ["mse"] * tasks, rng=rng)


def fresh_binding():
    return TapeBinding(T.Tape())


def set_arrays(model, arrays):
    """Overwrite some of the model's checkpoint arrays by name."""
    model.load_state({**model.state_dict(), **arrays})


class TestEncode:
    def test_output_shape_contract(self):
        model = make_model()
        z = model.encode(fresh_binding(), np.random.default_rng(1).normal(size=(4, 6)))
        assert z.shape == (4, 4 * 2)  # four modules of width two, side by side

    def test_single_module_is_shared_bottom(self):
        model = make_model(k=1, total_dim=8)
        z = model.encode(fresh_binding(), np.zeros((3, 6)))
        assert z.shape == (3, 8)

    def test_zero_weights_give_zero_outputs(self):
        model = make_model()
        for p in model.bank.parameters():
            p.value[:] = 0.0
        z = model.encode(fresh_binding(), np.ones((3, 6)))
        np.testing.assert_array_equal(z.data, 0.0)

    def test_input_dim_mismatch(self):
        with pytest.raises(ModelError, match="input dim"):
            make_model().encode(fresh_binding(), np.ones((2, 7)))

    def test_dim_not_divisible_by_k(self):
        with pytest.raises(ModelError, match="divisible"):
            make_model(k=3, total_dim=8)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(), (5,)])
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_blocks_match_per_module_reference(self, k, hidden, activation):
        # each module's columns equal its own network, run from the
        # module's checkpoint arrays
        model = make_model(k=k, total_dim=2 * k, hidden=hidden,
                           activation=activation, seed=k)
        x = np.random.default_rng(20).normal(size=(7, 6))
        z = model.encode(fresh_binding(), x).data
        state = model.state_dict()
        depth = len(hidden) + 1
        for c in range(k):
            h = x
            for i in range(depth):
                h = (h @ state[f"module{c}.layer{i}.weight"]
                     + state[f"module{c}.layer{i}.bias"])
                if i < depth - 1:
                    h = np.tanh(h) if activation == "tanh" else np.maximum(h, 0)
            np.testing.assert_allclose(z[:, 2 * c:2 * c + 2], h, rtol=0,
                                       atol=1e-12)


class TestRoute:
    def test_one_hot_selects_module(self):
        bank = make_model(k=4, total_dim=8).bank
        z = np.random.default_rng(2).normal(size=(3, 8))
        row = T.Tensor(np.array([[0.0, 0.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(bank.route(row, T.Tensor(z)).data,
                                      z[:, 4:6])

    def test_all_zero_weights_annihilate(self):
        bank = make_model(k=3, total_dim=6).bank
        out = bank.route(T.Tensor(np.zeros((1, 3))), T.Tensor(np.ones((2, 6))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_cancellation(self):
        bank = make_model(k=2, total_dim=4).bank
        z = np.random.default_rng(3).normal(size=(3, 2))
        out = bank.route(T.Tensor(np.array([[0.5, 0.5]])),
                         T.Tensor(np.hstack([z, -z])))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-16)

    def test_length_mismatch(self):
        bank = make_model(k=3, total_dim=6).bank
        with pytest.raises(ModelError, match="routing row"):
            bank.route(T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((2, 6))))

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_matches_per_module_sum(self, k):
        bank = make_model(k=k, total_dim=2 * k).bank
        rng = np.random.default_rng(k)
        z, g = rng.normal(size=(5, 2 * k)), rng.normal(size=(5, 2))
        a = rng.uniform(size=(1, k))
        blocks = [z[:, 2 * i:2 * i + 2] for i in range(k)]
        tape = T.Tape()
        row = tape.leaf(a)
        out = bank.route(row, T.Tensor(z))
        ref = sum(a[0, i] * blocks[i] for i in range(k))
        np.testing.assert_allclose(out.data, ref, rtol=0,
                                   atol=1e-15 * np.abs(ref).max())
        # d/da_i of sum(out * g) is sum(z_i * g)
        got, = T.grad(T.sum_(T.multiply(out, T.Tensor(g))), [row])
        expected = [np.sum(b * g) for b in blocks]
        np.testing.assert_allclose(got.data[0], expected, rtol=1e-13)

        def f(row, z):
            return T.sum_(T.square(T.subtract(bank.route(row, z), g)))

        for order in (1, 2):
            assert T.finite_diff_check(f, [a, z], order=order) < 1e-7

    def test_records_one_batch_sized_node(self):
        # B = 5 rows, d = 16 columns: only the final product is B x m
        bank = make_model(k=8, total_dim=16).bank
        tape = T.Tape()
        row = tape.leaf(np.full((1, 8), 0.5))
        z = tape.leaf(np.random.default_rng(4).normal(size=(5, 16)))
        start = len(tape.nodes)
        out = bank.route(row, z)
        added = tape.nodes[start:]
        shapes = [p.shape for n in added for p in n.parents
                  if p.node in added] + [out.shape]
        assert len(shapes) == len(added)
        assert [s[0] for s in shapes].count(5) == 1


def routing_weights(theta):
    """``RoutingGraph.weights`` for the T x K logits ``theta``."""
    graph = RoutingGraph(*np.shape(theta))
    graph.theta.value[...] = theta
    return graph.weights(fresh_binding()).data


class TestRoutingWeights:
    def test_zero_logits_give_half(self):
        np.testing.assert_array_equal(routing_weights(np.zeros((3, 4))), 0.5)

    def test_monotone_toward_one(self):
        a = routing_weights(np.array([[0.0, 1.0, 5.0, 20.0, 60.0]]))[0]
        assert np.all(np.diff(a) >= 0) and a[-1] == pytest.approx(1.0, abs=1e-12)

    def test_four_decimal_example(self):
        a = routing_weights(np.array([[-2.0, 2.0]]))
        np.testing.assert_allclose(a, [[0.1192, 0.8808]], atol=5e-5)

    def test_recomputed_after_update(self):
        model = make_model()
        before = model.routing.matrix().copy()
        model.routing.theta.value += 1.0
        assert not np.allclose(model.routing.matrix(), before)


class TestPredict:
    def test_identity_head_one_hot_routing(self):
        model = make_model(k=2, total_dim=4, hidden=(), head_out=[2, 2])
        # head 0 := identity on the fused representation
        w, b = model.heads[0].layers[0]
        w.value = np.eye(2)
        b.value[:] = 0.0
        model.routing.theta.value[0] = [60.0, -60.0]  # saturates to (1, 0)
        binding = fresh_binding()
        x = np.random.default_rng(4).normal(size=(3, 6))
        z = model.encode(binding, x)
        out = model.predict(binding, 0, z=z)
        np.testing.assert_allclose(out.data, z.data[:, :2], atol=1e-12)

    def test_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            make_model().predict(fresh_binding(), 5, x=np.ones((1, 6)))

    def test_sign_agrees_with_bayes_classifier_on_noiseless_inputs(self):
        # weights set to the fully-coupled closed-form classifier [2ba, 2bb]
        rng = np.random.default_rng(5)
        d = 3
        mu_a, mu_b = rng.normal(size=d), rng.normal(size=d)
        params = BayesParams.from_moments(mu_a, 1.0, mu_b, 1.0, 1.0)
        model = make_model(tasks=1, k=1, input_dim=2 * d, total_dim=2 * d,
                           hidden=(), head_out=[1])
        set_arrays(model, {
            "module0.layer0.weight": np.eye(2 * d),
            "module0.layer0.bias": np.zeros((1, 2 * d)),
            "head0.layer0.weight": np.concatenate([2 * params.beta_a,
                                                   2 * params.beta_b])[:, None],
            "head0.layer0.bias": np.zeros((1, 1)),
        })
        model.routing.theta.value[:] = 60.0  # routing weight saturates to 1
        for y_a, y_b in [(1, 1), (-1, -1)]:  # noiseless: F = y * mu
            f_a, f_b = y_a * mu_a, y_b * mu_b
            x = np.concatenate([f_a, f_b])[None, :]
            pred = model.predict(fresh_binding(), 0, x=x).item()
            post = bayes_posterior(f_a, f_b, params)
            assert (pred >= 0) == (post >= 0.5)

    def test_k1_t1_equals_plain_feedforward_exactly(self):
        model = make_model(tasks=1, k=1, input_dim=6, total_dim=8, hidden=(5,),
                           head_out=[1])
        x = np.random.default_rng(6).normal(size=(4, 6))
        out = model.predict(fresh_binding(), 0, x=x).data
        # same arithmetic chain with plain numpy; tanh only between layers
        s = model.state_dict()
        h = (np.tanh(x @ s["module0.layer0.weight"] + s["module0.layer0.bias"])
             @ s["module0.layer1.weight"] + s["module0.layer1.bias"])
        fused = h * model.routing.matrix()[0, 0]
        expected = fused @ s["head0.layer0.weight"] + s["head0.layer0.bias"]
        np.testing.assert_array_equal(out, expected)

    def test_routing_linearity(self):
        model = make_model(k=3, total_dim=6, head_out=[1, 1])
        binding = fresh_binding()
        x = np.random.default_rng(7).normal(size=(4, 6))
        z = model.encode(binding, x)
        coeffs = np.array([[0.2, 0.5, 0.3]])
        fused = model.bank.route(T.Tensor(coeffs), z)
        manual = sum(c * z.data[:, 2 * i:2 * i + 2]
                     for i, c in enumerate(coeffs[0]))
        np.testing.assert_allclose(fused.data, manual, atol=1e-15)
        via_head = model.heads[0].forward(binding, fused).data
        direct = model.heads[0].forward(binding, T.Tensor(manual)).data
        np.testing.assert_allclose(via_head, direct, atol=1e-15)

    def test_gradient_flows_to_theta(self):
        model = make_model()
        tape = T.Tape()
        binding = TapeBinding(tape)
        x = np.random.default_rng(8).normal(size=(5, 6))
        pred = model.predict(binding, 0, x=x)
        loss = T.mean(T.square(pred))
        theta_leaf = binding.leaf(model.routing.theta)
        g, = T.grad(loss, [theta_leaf])
        assert np.any(g.data[0] != 0.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_model(seed=9)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, "abc123")
        clone = make_model(seed=10)
        clone.heads[0].layers[0][0].value += 1.0
        assert load_checkpoint(path, clone) == "abc123"
        for p, q in zip(model.parameters(), clone.parameters()):
            np.testing.assert_array_equal(p.value, q.value)

    def test_missing_parameter_rejected(self, tmp_path):
        model = make_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, "h")
        bigger = make_model(k=2, total_dim=8)
        with pytest.raises(ModelError):
            load_checkpoint(path, bigger)

    def test_rejected_checkpoint_changes_nothing(self, tmp_path):
        model = make_model(seed=11)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, "h")
        other = make_model(seed=12, head_out=[1, 2])  # last array differs
        before = {n: v.copy() for n, v in other.state_dict().items()}
        with pytest.raises(ModelError, match="shape"):
            load_checkpoint(path, other)
        for name, value in other.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    @pytest.mark.parametrize("name, k, hidden", [
        ("checkpoint_k4_hidden.json", 4, (5,)),
        ("checkpoint_k1.json", 1, ()),
    ])
    def test_committed_v1_checkpoint(self, tmp_path, name, k, hidden):
        # written by the per-module implementation from seed 0: the bank
        # draws the same weights and saves them under the same names
        fresh = make_model(k=k, total_dim=8, hidden=hidden, seed=0)
        path = tmp_path / "fresh.json"
        save_checkpoint(path, fresh, "v1")
        assert path.read_bytes() == (DATA / name).read_bytes()
        clone = make_model(k=k, total_dim=8, hidden=hidden, seed=1)
        assert load_checkpoint(DATA / name, clone) == "v1"
        for p, q in zip(fresh.parameters(), clone.parameters()):
            np.testing.assert_array_equal(p.value, q.value)


def test_mlp_rejects_unknown_activation():
    with pytest.raises(ModelError, match="activation"):
        Mlp("m", (3, 2), "softplus", np.random.default_rng(0))
