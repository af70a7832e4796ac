import gc
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcrl import tensor as T


def scalar_tape(*arrays):
    tape = T.Tape()
    return tape, [tape.leaf(a) for a in arrays]


class TestForwardValues:
    def test_sigmoid_symmetry_point(self):
        assert T.sigmoid(T.Tensor(0.0)).item() == pytest.approx(0.5, abs=0)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 5))
        out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_uniform_softmax_cross_entropy(self):
        logits = T.Tensor(np.zeros((4, 7)))
        losses = T.softmax_cross_entropy(logits, np.arange(4))
        np.testing.assert_allclose(losses.data, np.log(7.0), rtol=0, atol=1e-15)

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(T.ShapeMismatchError, match="matmul.*2, 3.*4, 5"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))

    @pytest.mark.parametrize("op", ["add", "subtract", "multiply"])
    def test_elementwise_shape_mismatch_names_op_and_shapes(self, op):
        with pytest.raises(T.ShapeMismatchError,
                           match=rf"'{op}'.*\(2, 3\).*\(4, 5\)"):
            getattr(T, op)(T.Tensor(np.zeros((2, 3))),
                           T.Tensor(np.zeros((4, 5))))

    def test_log_domain_error(self):
        with pytest.raises(T.DomainError, match="log"):
            T.log(T.Tensor([1.0, 0.0]))


class TestFirstOrderGradients:
    def test_square_at_three(self):
        tape, (x,) = scalar_tape(3.0)
        gx, = T.grad(T.square(x), [x])
        assert gx.item() == pytest.approx(6.0, abs=0)

    def test_sigmoid_at_zero(self):
        tape, (x,) = scalar_tape(0.0)
        gx, = T.grad(T.sigmoid(x), [x])
        assert gx.item() == pytest.approx(0.25, abs=1e-15)

    def test_nonscalar_output_rejected(self):
        tape, (x,) = scalar_tape(np.ones(3))
        with pytest.raises(T.NonScalarOutputError):
            T.grad(T.square(x), [x])

    def test_op_on_a_dropped_tape_rejected(self):
        tape, (x,) = scalar_tape(2.0)
        del tape
        with pytest.raises(T.StaleTapeError, match="dropped tape"):
            T.square(x)

    def test_grad_on_a_dropped_tape_rejected(self):
        tape, (x,) = scalar_tape(2.0)
        out = T.square(x)
        del tape
        with pytest.raises(T.StaleTapeError, match="dropped tape"):
            T.grad(out, [x])

    @pytest.mark.parametrize("op", ["sigmoid", "tanh", "exp"])
    def test_dropped_tape_is_freed_without_the_cycle_collector(self, op):
        # no rule closes over its output and no node holds its tape, so
        # dropping the last reference frees the whole record at once
        gc.disable()
        try:
            tape, (x,) = scalar_tape(np.ones((3, 2)))
            out = getattr(T, op)(x)
            T.grad(T.sum_(out), [x], create_graph=True)
            refs = [weakref.ref(tape), weakref.ref(out.data)]
            del tape, x, out
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_unreachable_parameter_gets_zeros(self):
        tape = T.Tape()
        x = tape.leaf(1.5)
        unused = tape.leaf(np.ones((2, 2)))
        _, gu = T.grad(T.square(x), [x, unused])
        np.testing.assert_array_equal(gu.data, np.zeros((2, 2)))

    def test_detached_parameter_gets_exact_zeros(self):
        tape = T.Tape()
        x = tape.leaf(1.0)
        y = tape.leaf(2.0)
        out = T.multiply(T.square(x), y)
        gx, gy = T.grad(out, [x, y], detached=[y])
        assert gx.item() == pytest.approx(4.0)
        assert gy.data == 0.0

    def test_constant_blocks_gradient(self):
        tape, (x,) = scalar_tape(3.0)
        out = T.multiply(T.Tensor(x.data), x)
        gx, = T.grad(out, [x])
        assert gx.item() == pytest.approx(3.0)


class TestConsumedRecord:
    def test_second_first_order_walk_names_the_consumed_node(self):
        tape, (x,) = scalar_tape(2.0)
        out = T.square(x)
        gx, = T.grad(out, [x])
        assert gx.item() == 4.0
        with pytest.raises(T.StaleTapeError,
                           match=rf"node {out.node.nid} \('square'\)"):
            T.grad(out, [x])

    def test_walk_drops_rules_and_kept_outputs_but_not_parents(self):
        gc.disable()
        try:
            tape, (x,) = scalar_tape(np.ones((3, 2)))
            h = T.tanh(x)
            kept = weakref.ref(h.data)
            out = T.sum_(T.multiply(h, h))
            del h
            T.grad(out, [x])
            assert kept() is None
            nodes = tape.nodes[1:]
            assert all(n.vjp is T._consumed and n.out is None for n in nodes)
            assert [[p.node.nid for p in n.parents] for n in nodes] == \
                [[0], [1, 1], [2]]
        finally:
            gc.enable()

    def test_create_graph_walks_consume_nothing(self):
        tape = T.Tape()
        w = tape.leaf([1.0, 2.0])
        f = T.sum_(T.square(w))
        first, = T.grad(f, [w], create_graph=True)
        again, = T.grad(f, [w], create_graph=True)
        np.testing.assert_array_equal(first.data, again.data)
        outer, = T.grad(T.add(T.l2_norm_sq(first), T.l2_norm_sq(again)), [w])
        np.testing.assert_allclose(outer.data, [16.0, 32.0], atol=1e-12)


class TestSecondOrder:
    def test_grad_of_inner_gradient_norm(self):
        # f(w) = w.w, inner grad 2w, penalty ||2w||^2 = 4 w.w, outer grad 8w
        tape = T.Tape()
        w = tape.leaf([1.0, 2.0])
        inner, = T.grad(T.sum_(T.square(w)), [w], create_graph=True)
        outer, = T.grad(T.l2_norm_sq(inner), [w])
        np.testing.assert_allclose(outer.data, [8.0, 16.0], atol=1e-12)

    def test_example_matches_finite_differences(self):
        err = T.finite_diff_check(
            lambda w: T.sum_(T.square(w)), [np.array([1.0, 2.0])],
            step=1e-5, order=2,
        )
        assert err < 1e-8

    def test_backward_appends_only(self):
        tape = T.Tape()
        w = tape.leaf([0.3, -0.7])
        out = T.sum_(T.square(T.tanh(w)))
        n_before = len(tape.nodes)
        T.grad(out, [w], create_graph=True)
        assert len(tape.nodes) > n_before
        assert all(tape.nodes[i].nid == i for i in range(len(tape.nodes)))


def test_transpose_is_a_view():
    x = T.Tensor(np.arange(6.0).reshape(2, 3))
    assert np.shares_memory(T.transpose(x).data, x.data)


class TestPrunedBackward:
    def test_constant_matmul_operand_gets_no_adjoint(self):
        rng = np.random.default_rng(3)
        tape = T.Tape()
        w = tape.leaf(rng.normal(size=(4, 2)))
        x = T.Tensor(rng.normal(size=(5, 4)))
        out = T.sum_(T.square(T.matmul(x, w)))
        n_before = len(tape.nodes)
        gw, = T.grad(out, [w], create_graph=True)
        added = tape.nodes[n_before:]
        # only x^T g is recorded; g w^T (the constant side) is never built
        assert [n.op for n in added].count("matmul") == 1
        assert "transpose" not in [n.op for n in added]
        expected = 2.0 * x.data.T @ (x.data @ w.data)
        np.testing.assert_allclose(gw.data, expected, rtol=1e-14)

    def test_sum_of_constant_product_records_nothing(self):
        tape = T.Tape()
        w = tape.leaf(np.ones((3, 2)))
        out = T.sum_(T.matmul(T.Tensor(np.arange(6.0).reshape(2, 3)), w))
        n_before = len(tape.nodes)
        gw, = T.grad(out, [w], create_graph=True)
        assert len(tape.nodes) == n_before
        np.testing.assert_array_equal(gw.data,
                                      [[3.0, 3.0], [5.0, 5.0], [7.0, 7.0]])

    def test_detached_non_leaf_still_passes_gradient(self):
        tape = T.Tape()
        x = tape.leaf([0.4, -1.1])
        h = T.tanh(x)
        out = T.sum_(T.square(h))
        gx, gh = T.grad(out, [x, h], detached=[h])
        np.testing.assert_array_equal(gh.data, 0.0)
        y = np.tanh(x.data)
        np.testing.assert_allclose(gx.data, 2 * y * (1 - y * y),
                                   rtol=1e-14)

    def test_non_leaf_wrt_gets_full_gradient(self):
        tape = T.Tape()
        x = tape.leaf([0.4, -1.1])
        h = T.tanh(x)
        out = T.add(T.sum_(T.square(h)), T.sum_(T.multiply(h, x)))
        gh, = T.grad(out, [h])
        np.testing.assert_allclose(gh.data, 2 * h.data + x.data,
                                   rtol=1e-14)

    def test_tensor_created_after_output_gets_zeros(self):
        tape = T.Tape()
        x = tape.leaf(2.0)
        out = T.square(x)
        late = tape.leaf(np.ones(3))
        glate, gx = T.grad(out, [late, x])
        np.testing.assert_array_equal(glate.data, np.zeros(3))
        assert gx.item() == 4.0

    def test_second_order_with_constant_branch(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(size=(4, 3)))
        c = T.Tensor(rng.normal(size=(3, 2)))

        def f(w, u):
            h = T.tanh(T.add(T.matmul(x, w), u))
            return T.add(T.mean(T.square(h)), T.sum_(T.multiply(c, w)))

        params = [rng.normal(size=(3, 2)) * 0.5, rng.normal(size=(1, 2))]
        assert T.finite_diff_check(f, params, step=1e-5, order=2) < 1e-8


class TestAdjointFreeing:
    def test_backward_holds_a_few_adjoints_not_one_per_node(self):
        # each adjoint is dropped once its rule has run, so a pass over a
        # chain of 40 ops peaks at a few arrays, not 41
        tape = T.Tape()
        x = tape.leaf(np.ones((200, 200)))
        h = x
        for _ in range(40):
            h = T.scale(h, 1.01)
        out = T.sum_(h)
        tracemalloc.start()
        try:
            gx, = T.grad(out, [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(gx.data, 1.01 ** 40, rtol=1e-14)
        assert peak < 5 * x.data.nbytes

    def test_requested_non_leaf_keeps_its_entry(self):
        tape = T.Tape()
        x = tape.leaf([0.4, -1.1])
        h = T.tanh(x)
        out = T.sum_(T.square(h))
        gx, gh = T.grad(out, [x, h])
        np.testing.assert_allclose(gh.data, 2 * h.data, rtol=1e-14)
        np.testing.assert_allclose(gx.data,
                                   2 * h.data * (1 - h.data ** 2), rtol=1e-14)


# (op, call, parent shapes, whether its backward rule reads the parents)
_KEPT_CASES = [
    ("add", T.add, [(3, 4), (1, 4)], False),
    ("subtract", T.subtract, [(3, 4), (3, 4)], False),
    ("multiply", T.multiply, [(3, 4), (1, 4)], True),
    ("matmul", T.matmul, [(3, 4), (4, 2)], True),
    ("transpose", T.transpose, [(3, 4)], False),
    ("reshape", lambda a: T.reshape(a, (4, 3)), [(3, 4)], False),
    ("scale", lambda a: T.scale(a, 2.0), [(3, 4)], False),
    ("sigmoid", T.sigmoid, [(3, 4)], False),
    ("tanh", T.tanh, [(3, 4)], False),
    ("exp", T.exp, [(3, 4)], False),
    ("log", T.log, [(3, 4)], True),
    ("square", T.square, [(3, 4)], True),
    ("pow", lambda a: T.pow_const(a, -0.5), [(3, 4)], True),
    ("sum", lambda a: T.sum_(a, axis=1), [(3, 4)], False),
]


class TestKeptArrays:
    """A node keeps alive only the arrays its backward rule reads."""

    def test_bank_layer_keeps_only_the_activation(self):
        # tanh(x @ w + b): neither the product nor the pre-activation sum
        # is read by a rule, so both die with their last local name
        gc.disable()
        try:
            rng = np.random.default_rng(3)
            tape = T.Tape()
            x = T.Tensor(rng.normal(size=(6, 4)))
            w = tape.leaf(rng.normal(size=(4, 3)))
            b = tape.leaf(rng.normal(size=(1, 3)))
            pre = T.matmul(x, w)
            summed = T.add(pre, b)
            h = T.tanh(summed)
            out = T.sum_(h)
            refs = [weakref.ref(t.data) for t in (pre, summed, h)]
            del pre, summed, h
            assert [r() is not None for r in refs] == [False, False, True]
            gw, gb = T.grad(out, [w, b])
        finally:
            gc.enable()
        dh = 1 - np.tanh(x.data @ w.data + b.data) ** 2
        np.testing.assert_allclose(gw.data, x.data.T @ dh, rtol=1e-14)
        np.testing.assert_allclose(gb.data, dh.sum(axis=0, keepdims=True),
                                   rtol=1e-14)

    @pytest.mark.parametrize("name, op, shapes, reads", _KEPT_CASES,
                             ids=[case[0] for case in _KEPT_CASES])
    def test_node_keeps_a_parent_only_if_its_rule_reads_it(
            self, name, op, shapes, reads):
        gc.disable()
        try:
            rng = np.random.default_rng(5)
            tape = T.Tape()
            leaves = [tape.leaf(np.abs(rng.normal(size=s)) + 0.5)
                      for s in shapes]
            parents = [T.scale(v, 1.0) for v in leaves]  # fresh arrays
            refs = [weakref.ref(p.data) for p in parents]
            node = op(*parents).node
            assert node.op == name
            assert [(p.node, p.shape) for p in node.parents] == [
                (p.node, p.shape) for p in parents]
            del parents
            # a rule that reads its operands keeps them through its closure
            assert [r() is not None for r in refs] == [reads] * len(shapes)
        finally:
            gc.enable()


class TestItem:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_one_element_tensor_gives_python_float(self, shape):
        value = T.Tensor(np.full(shape, -2.5)).item()
        assert type(value) is float
        assert value == -2.5

    def test_several_elements_rejected(self):
        with pytest.raises(ValueError):
            T.Tensor(np.ones(3)).item()


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        def f(w):
            return T.sum_(T.square(w))

        err = T.finite_diff_check(f, [np.array([0.5, -1.2, 2.0])], step=1e-4)
        assert err < 1e-8

    def test_random_two_layer_tanh_network(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(4, 4))
        w2 = rng.normal(size=(4, 1))
        x = rng.normal(size=(3, 4))

        def f(a, b):
            h = T.tanh(T.matmul(T.Tensor(x), a))
            return T.sum_(T.matmul(h, b))

        assert T.finite_diff_check(f, [w1, w2], step=1e-5) < 1e-4

    def test_constant_function(self):
        def f(w):
            return T.sum_(T.multiply(w, 0.0))

        assert T.finite_diff_check(f, [np.ones(4)], step=1e-5) == 0.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_by_one_objective_accepted(self, order):
        def f(w):
            return T.sum_(T.square(w), keepdims=True)

        err = T.finite_diff_check(f, [np.array([[0.5, -1.2]])], step=1e-4,
                                  order=order)
        assert err < 1e-6

    def test_nonfinite_objective_rejected(self):
        def f(w):
            return T.sum_(T.exp(T.scale(w, 1000.0)))

        with pytest.raises(T.NonFiniteError):
            T.finite_diff_check(f, [np.ones(2)], step=1e-5)

    def test_nonfinite_perturbed_objective_rejected(self):
        # exp(709) is finite, exp(710) at the plus point is not
        def f(w):
            return T.sum_(T.exp(w))

        with pytest.raises(T.NonFiniteError, match="objective"):
            T.finite_diff_check(f, [np.array([709.0])], step=1.0)

    def test_nonfinite_perturbed_penalty_rejected(self):
        # the order-2 penalty exp(2w) and its derivative are finite at
        # w = 354.4; exp(709.8) at the plus point is not, while f is
        def f(w):
            return T.sum_(T.exp(w))

        with pytest.raises(T.NonFiniteError, match="penalty"):
            T.finite_diff_check(f, [np.array([354.4])], step=0.5, order=2)

    def test_nonfinite_analytic_derivative_rejected(self):
        # log next to 0: log(w) is finite at w and w +- step, 1 / w is not
        def f(w):
            return T.sum_(T.log(w))

        with pytest.raises(T.NonFiniteError, match="analytic"):
            T.finite_diff_check(f, [np.array([1e-310])], step=1e-320)


class TestFiniteness:
    def test_ops_do_not_check_by_default(self):
        assert np.isinf(T.exp(T.Tensor(1000.0)).item())

    def test_anomaly_mode_names_op_node_and_parents(self):
        tape, (x,) = scalar_tape(np.array([500.0]))
        y = T.scale(x, 2.0)
        with T.detect_anomaly():
            assert T.is_anomaly_enabled()
            with pytest.raises(T.NonFiniteError) as info:
                T.exp(y)
        assert not T.is_anomaly_enabled()
        err = info.value
        assert (err.op, err.node, err.parent_ops) == (
            "exp", y.node.nid + 1, ("scale",))
        assert err.rule_node is None and err.boundary is None
        assert "operation 'exp' (node 2, parents: scale)" in str(err)

    def test_unrecorded_backward_op_names_the_forward_rule(self):
        # d log(w) / dw = w ** -1 overflows at w = 1e-310
        tape, (x,) = scalar_tape(np.array([1e-310]))
        out = T.sum_(T.log(x))
        log_node = out.node.parents[0].node
        with T.detect_anomaly(), pytest.raises(T.NonFiniteError) as info:
            T.grad(out, [x])
        err = info.value
        assert (err.op, err.node, err.parent_ops) == ("pow", None, ("leaf",))
        assert (err.rule_node, err.rule_op) == (log_node.nid, "log")
        assert f"backward rule of node {log_node.nid} ('log')" in str(err)

    def test_recorded_backward_op_names_its_own_node(self):
        tape, (x,) = scalar_tape(np.array([1e-310]))
        out = T.sum_(T.log(x))
        with T.detect_anomaly(), pytest.raises(T.NonFiniteError) as info:
            T.grad(out, [x], create_graph=True)
        assert info.value.op == "pow" and isinstance(info.value.node, int)
        assert info.value.rule_node is None

    def test_check_finite_names_the_boundary(self):
        T.check_finite(np.ones(3), "ones")
        with pytest.raises(T.NonFiniteError, match="in the loss") as info:
            T.check_finite(T.Tensor([1.0, np.nan]), "the loss")
        assert info.value.fields()["boundary"] == "the loss"

    def test_error_fields_survive_pickling(self):
        err = T.NonFiniteError("the loss", op="matmul", node=3,
                               parent_ops=("leaf", None))
        err.epoch, err.step = 4, 9
        back = pickle.loads(pickle.dumps(err))
        assert back.fields() == err.fields() and str(back) == str(err)


def _op_cases(rng):
    """Scalar objectives exercising every supported op."""
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    m = rng.normal(size=(4, 2))
    pos = np.abs(rng.normal(size=(3, 3))) + 0.5
    labels = rng.integers(0, 2, size=3)
    return [
        ("add", lambda x, y: T.sum_(T.add(x, y)), [a, b], 1e-6),
        ("subtract", lambda x, y: T.sum_(T.square(T.subtract(x, y))), [a, b], 1e-6),
        ("multiply", lambda x, y: T.sum_(T.multiply(x, y)), [a, b], 1e-6),
        ("broadcast-mul", lambda x, y: T.sum_(T.multiply(x, y)), [a, rng.normal(size=(1, 4))], 1e-6),
        ("matmul", lambda x, y: T.sum_(T.matmul(x, y)), [a, m], 1e-6),
        ("sigmoid", lambda x: T.sum_(T.sigmoid(x)), [a], 1e-6),
        ("tanh", lambda x: T.sum_(T.tanh(x)), [a], 1e-6),
        ("mean-axis", lambda x: T.sum_(T.square(T.mean(x, axis=0))), [a], 1e-6),
        ("sum-keepdims", lambda x: T.sum_(T.square(T.sum_(x, axis=1, keepdims=True))), [a], 1e-6),
        ("square", lambda x: T.sum_(T.square(x)), [a], 1e-6),
        ("l2sq", T.l2_norm_sq, [a], 1e-6),
        ("xent", lambda x: T.mean(T.softmax_cross_entropy(x, labels)), [rng.normal(size=(3, 2))], 1e-6),
        ("log", lambda x: T.sum_(T.log(x)), [pos], 1e-6),
        ("exp", lambda x: T.sum_(T.exp(x)), [a * 0.3], 1e-6),
        ("scale", lambda x: T.sum_(T.scale(x, -2.5)), [a], 1e-6),
        ("pow", lambda x: T.sum_(T.pow_const(x, -0.5)), [pos], 1e-6),
        ("transpose", lambda x: T.sum_(T.square(T.transpose(x))), [a], 1e-6),
        ("reshape", lambda x: T.sum_(T.square(T.reshape(x, (4, 3)))), [a], 1e-6),
    ]


@pytest.mark.parametrize("case, order", [
    pytest.param(case, order, id=case[0] if order == 1 else f"{case[0]}-order2")
    for order in (1, 2) for case in _op_cases(np.random.default_rng(11))])
def test_every_op_matches_finite_differences(case, order):
    # order 2 checks the gradient of the gradient-norm penalty; where an
    # op's gradient is constant (add, scale) that is exactly zero
    name, f, params, tol = case
    step = 1e-5 if order == 1 else 1e-4
    assert T.finite_diff_check(f, params, step=step, order=order) < tol, name


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_composites_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(3, 2))

    def f(a, b):
        h = T.tanh(T.matmul(a, b))
        s = T.sigmoid(T.mean(h, axis=0, keepdims=True))
        return T.add(T.l2_norm_sq(s), T.mean(T.square(h)))

    assert T.finite_diff_check(f, [x, w], step=1e-5) < 1e-5


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_second_order_penalty_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2)) * 0.5

    def f(a):
        return T.mean(T.square(T.tanh(T.matmul(T.Tensor(x), a))))

    assert T.finite_diff_check(f, [w], step=1e-4, order=2) < 1e-3


def test_tape_determinism_bitwise():
    def run(seed):
        rng = np.random.default_rng(seed)
        tape = T.Tape()
        w = tape.leaf(rng.normal(size=(5, 3)))
        x = tape.leaf(rng.normal(size=(6, 5)))
        out = T.mean(T.square(T.tanh(T.matmul(x, w))))
        gw, = T.grad(out, [w])
        return out.data.tobytes(), gw.data.tobytes()

    assert run(42) == run(42)
    assert run(42) != run(43)
