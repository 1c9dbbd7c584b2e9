import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jno import tensor as T
from jno.errors import (
    ArityMismatch,
    IndexOutOfRange,
    InvalidAxis,
    NonScalarOutput,
    ShapeMismatch,
    UnknownNode,
)


def central_diff(f, x, h=1e-5):
    """Finite-difference gradient oracle for scalar f of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += h
        xm[i] -= h
        gf[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * h)
    return g


class TestElementwise:
    def test_add(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
        assert out.tolist() == [4.0, 6.0]

    def test_broadcast_shape(self):
        out = T.mul(T.ones((2, 1)), T.ones((1, 3)))
        assert out.shape == (2, 3)

    def test_div_by_zero_is_inf(self):
        out = T.div(T.Tensor([1.0]), T.Tensor([0.0]))
        assert np.isposinf(out.data).all()
        assert T.has_nan(out)

    @pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "power",
                                      "maximum", "minimum", "compare"])
    def test_broadcast_failure(self, name):
        a, b = T.ones((2, 3)), T.ones((4,))
        args = ("lt", a, b) if name == "compare" else (a, b)
        with pytest.raises(ShapeMismatch, match=f"^{name}: "):
            getattr(T, name)(*args)

    @pytest.mark.parametrize("name", sorted(T.ELEMENTWISE) + [
        "lt", "le", "gt", "ge", "eq", "ne"])
    @pytest.mark.parametrize("shapes", [((), ()), ((), (3,))],
                             ids=["0d-0d", "0d-n"])
    def test_results_are_float64_arrays(self, name, shapes):
        # numpy gives an np.float64 scalar for two 0-d arrays and bools for a
        # comparison; the Tensor holds a float64 ndarray either way
        a = T.Tensor(np.full(shapes[0], 1.5))
        b = T.Tensor(np.full(shapes[1], 2.0))
        if name in ("neg", "exp", "log", "sin", "cos", "tanh", "relu"):
            outs = [T.ELEMENTWISE[name](a), T.ELEMENTWISE[name](b)]
        elif name in T.ELEMENTWISE:
            outs = [T.ELEMENTWISE[name](a, b), T.ELEMENTWISE[name](b, a)]
        else:
            outs = [T.compare(name, a, b), T.compare(name, b, a)]
        for out in outs:
            assert type(out.data) is np.ndarray
            assert out.data.dtype == np.float64

    def test_compare_is_binary(self):
        out = T.compare("lt", T.Tensor([1.0, 5.0]), T.Tensor([2.0, 2.0]))
        assert out.tolist() == [1.0, 0.0]

    def test_unknown_comparison(self):
        with pytest.raises(ArityMismatch):
            T.compare("bogus", T.ones((2,)), T.ones((2,)))

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    )
    def test_add_matches_numpy(self, a, b):
        n = min(len(a), len(b))
        out = T.add(T.Tensor(a[:n]), T.Tensor(b[:n]))
        np.testing.assert_array_equal(out.data, np.asarray(a[:n]) + np.asarray(b[:n]))


class TestReduce:
    def test_mse(self):
        assert T.reduce_mse(T.Tensor([1.0, -1.0, 2.0])).item() == pytest.approx(2.0)

    def test_mean_zeros(self):
        assert T.reduce_mean(T.zeros(5)).item() == 0.0

    def test_sum_axis(self):
        out = T.reduce_sum(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), axes=0)
        assert out.tolist() == [4.0, 6.0]

    def test_full_reduce_is_scalar(self):
        assert T.reduce_sum(T.ones((2, 3))).shape == ()

    def test_bad_axis(self):
        with pytest.raises(InvalidAxis):
            T.reduce_sum(T.ones(3), axes=2)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    def test_mse_identity(self, xs):
        x = T.Tensor(xs)
        lhs = T.reduce_mse(x).item()
        rhs = T.reduce_sum(T.mul(x, x)).item() / len(xs)
        assert lhs == rhs


class TestShortAxisSum:
    """A sum over a short last axis is taken as a product with ones: the
    same sums as numpy's to a few ulp of the summed magnitudes, and the
    same adjoint."""

    @pytest.mark.parametrize("shape", [(32768, 3), (4, 100, 5), (7,),
                                       (6, 32), (6, 33), (5, 0), (2, 1)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_numpy(self, shape, keepdims):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        got = T.reduce_sum(T.Tensor(a), axes=-1, keepdims=keepdims).data
        want = np.sum(a, axis=-1, keepdims=keepdims)
        assert got.shape == want.shape
        magnitude = np.sum(np.abs(a), axis=-1, keepdims=keepdims)
        assert np.all(np.abs(got - want)
                      <= 4 * np.finfo(np.float64).eps * magnitude)

    def test_transposed_view_and_special_values(self):
        b = np.random.default_rng(1).standard_normal((3, 1000))
        b[:, 0] = [np.inf, 1.0, 2.0]
        b[:, 1] = [np.inf, -np.inf, 0.0]
        b[:, 2] = [np.nan, 1.0, 0.0]
        a = T.transpose(T.Tensor(b))
        assert not a.data.flags.c_contiguous
        # inf - inf warns in numpy's sum and in the product alike
        with np.errstate(invalid="ignore"):
            got = T.reduce_sum(a, axes=1).data
            want = np.sum(b, axis=0)
        np.testing.assert_array_equal(got[:3], want[:3])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_adjoint_spreads_along_the_axis(self):
        a = T.Tensor(np.random.default_rng(2).standard_normal((50, 3)))
        w = np.linspace(-1.0, 1.0, 50)
        g = T.grad(lambda t: T.reduce_sum(
            T.mul(T.reduce_sum(t, axes=-1), T.Tensor(w))), a)
        np.testing.assert_array_equal(g.data,
                                      np.broadcast_to(w[:, None], (50, 3)))


class TestLinalg:
    def test_matmul_shape(self):
        out = T.matmul(T.ones((2, 3)), T.ones((3, 4)))
        assert out.shape == (2, 4)

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.matmul(T.ones((2, 3)), T.ones((4, 4)))

    def test_concat_last_axis(self):
        out = T.concat([T.ones((8, 1)), T.ones((8, 1))], axis=-1)
        assert out.shape == (8, 2)

    def test_reshape(self):
        out = T.reshape(T.Tensor(np.arange(6.0)), (2, 3))
        assert out.shape == (2, 3)
        assert out.data[1, 0] == 3.0

    def test_transpose(self):
        out = T.transpose(T.Tensor(np.arange(6.0).reshape(2, 3)))
        assert out.shape == (3, 2)

    def test_transpose_gradient_with_negative_axes(self):
        a = T.Tensor(np.arange(24.0).reshape(1, 2, 3, 4))
        w = np.arange(24.0).reshape(1, 2, 4, 3)
        with T.Tape() as tape:
            tape.watch(a)
            out = T.reduce_sum(T.mul(T.transpose(a, (0, 1, -1, -2)),
                                     T.Tensor(w)))
        grad = tape.gradient(out, [a])[a.uid]
        np.testing.assert_array_equal(grad.data, w.transpose(0, 1, 3, 2))

    @pytest.mark.parametrize("axes", [(0, 0, 1), (0, 1), (0, 1, 5)])
    def test_transpose_needs_a_permutation(self, axes):
        with pytest.raises(InvalidAxis):
            T.transpose(T.ones((2, 3, 4)), axes)

    def test_concat_axis_out_of_range(self):
        with pytest.raises(InvalidAxis):
            T.concat([T.ones((2, 3)), T.ones((2, 3))], axis=2)

    def test_slice_and_oob(self):
        x = T.Tensor(np.arange(10.0))
        assert T.take_slice(x, (slice(2, 5),)).tolist() == [2.0, 3.0, 4.0]
        with pytest.raises(IndexOutOfRange):
            T.take_slice(x, (42,))


class TestGrad:
    def test_square(self):
        g = T.grad(lambda x: T.mul(x, x), T.Tensor(3.0))
        assert g.item() == pytest.approx(6.0)

    def test_constant_grad_zero(self):
        c = T.Tensor(7.0)
        g = T.grad(lambda x: T.reduce_sum(c), T.Tensor(1.0))
        assert g.item() == 0.0

    def test_nonscalar_output_rejected(self):
        x = T.Tensor([1.0, 2.0])
        with T.Tape() as t:
            t.watch(x)
            y = T.mul(x, x)
        with pytest.raises(NonScalarOutput):
            t.gradient(y, [x])

    def test_tape_keeps_no_input_that_a_rule_reads_only_the_shape_of(self):
        # add's adjoints need only its inputs' shapes, so its record must not
        # keep the matmul output alive
        x, w, b = T.ones((4, 3)), T.ones((3, 2)), T.ones((1, 2))
        with T.Tape() as tape:
            tape.watch(w, b)
            h = T.matmul(x, w)
            total = T.reduce_sum(T.add(h, b))
        h_data = weakref.ref(h.data)
        del h
        assert h_data() is None
        grads = tape.gradient(total, [w, b])
        np.testing.assert_array_equal(grads[b.uid].data, [[4.0, 4.0]])
        np.testing.assert_array_equal(grads[w.uid].data, np.full((3, 2), 4.0))

    def test_matmul_gradient_through_a_transposed_view(self):
        rng = np.random.default_rng(3)
        a = T.Tensor(rng.standard_normal((1, 1, 64, 8)))
        b = T.Tensor(rng.standard_normal((1, 1, 64, 5)))
        w = rng.standard_normal((8, 5))
        assert np.shares_memory(T.transpose(a, (0, 1, 3, 2)).data, a.data)
        with T.Tape() as tape:
            tape.watch(a, b)
            prod = T.matmul(T.transpose(a, (0, 1, 3, 2)), b)
            total = T.reduce_sum(T.mul(prod, T.Tensor(w)))
        g = tape.gradient(total, [a, b])
        # d/da sum(w * a^T b) = b w^T and d/db = a w
        np.testing.assert_allclose(g[a.uid].data, b.data @ w.T,
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(g[b.uid].data, a.data @ w,
                                   rtol=1e-14, atol=1e-14)

    def test_unknown_node(self):
        x = T.Tensor(1.0)
        with T.Tape() as t:
            y = T.mul(x, x)  # x never watched
        with pytest.raises(UnknownNode):
            t.gradient(y, [x])

    @pytest.mark.parametrize("recorder", [T.Tape, T.Jet])
    def test_recorder_ignores_other_threads(self, recorder):
        shared = T.Tensor(np.ones(4))
        opened, done = threading.Event(), threading.Event()

        def other_thread():
            opened.wait(timeout=10)
            for _ in range(50):
                T.mul(shared, shared)
            done.set()

        worker = threading.Thread(target=other_thread)
        worker.start()
        with recorder() as r:
            r.watch(shared)
            opened.set()
            assert done.wait(timeout=10)
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert r.records == []

    def test_mse_linear_regression_vs_fd(self):
        rng = np.random.default_rng(0)
        W0 = rng.uniform(-1, 1, (3, 3))
        x = T.Tensor(rng.uniform(-1, 1, (3, 3)))
        y = T.Tensor(rng.uniform(-1, 1, (3, 3)))

        def loss_np(w):
            return float(np.mean((w @ x.data - y.data) ** 2))

        def loss_t(w):
            return T.reduce_mse(T.sub(T.matmul(w, x), y))

        g = T.grad(loss_t, T.Tensor(W0))
        fd = central_diff(loss_np, W0)
        rel = np.abs(g.data - fd) / np.maximum(np.abs(fd), 1e-12)
        assert rel.max() <= 1e-6


class TestJacobianHessian:
    def test_identity_jacobian(self):
        J = T.jacobian(lambda x: x, T.Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(J.data, np.eye(3))

    def test_hessian_of_square(self):
        H = T.hessian(lambda x: T.reduce_sum(T.mul(x, x)), T.Tensor([1.0]))
        assert H.data[0, 0] == pytest.approx(2.0)

    def test_jacobian_of_pair(self):
        # f(x, y) = (x^2, x*y) at (1, 2): analytic [[2,0],[2,1]], cross-checked
        # by central differences below.
        def f(v):
            x = T.take_slice(v, (slice(0, 1),))
            y = T.take_slice(v, (slice(1, 2),))
            return T.concat([T.mul(x, x), T.mul(x, y)], axis=0)

        J = T.jacobian(f, T.Tensor([1.0, 2.0]))
        np.testing.assert_allclose(J.data, [[2.0, 0.0], [2.0, 1.0]], atol=1e-12)

        h = 1e-6
        for j in range(2):
            vp = np.array([1.0, 2.0])
            vm = vp.copy()
            vp[j] += h
            vm[j] -= h
            fp = np.array([vp[0] ** 2, vp[0] * vp[1]])
            fm = np.array([vm[0] ** 2, vm[0] * vm[1]])
            np.testing.assert_allclose(J.data[:, j], (fp - fm) / (2 * h), atol=1e-5)


UNARY_PRIMS = {
    "neg": (T.neg, lambda x: -x),
    "exp": (T.exp, np.exp),
    "log": (lambda a: T.log(a), np.log),
    "sin": (T.sin, np.sin),
    "cos": (T.cos, np.cos),
    "tanh": (T.tanh, np.tanh),
    "relu": (T.relu, lambda x: np.maximum(x, 0.0)),
}

BINARY_PRIMS = {
    "add": (T.add, np.add),
    "sub": (T.sub, np.subtract),
    "mul": (T.mul, np.multiply),
    "div": (T.div, np.divide),
    "maximum": (T.maximum, np.maximum),
    "minimum": (T.minimum, np.minimum),
}


class TestGradOracle:
    """Reverse-mode vs central finite differences for every primitive."""

    @pytest.mark.parametrize("name", sorted(UNARY_PRIMS))
    def test_unary(self, name):
        op, ref = UNARY_PRIMS[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        x0 = rng.uniform(-1, 1, 7)
        if name == "log":
            x0 = np.abs(x0) + 0.5
        if name == "relu":
            x0 = x0[np.abs(x0) > 1e-2]  # stay away from the kink
        g = T.grad(lambda x: T.reduce_sum(op(x)), T.Tensor(x0))
        fd = central_diff(lambda x: float(np.sum(ref(x))), x0)
        tol = 1e-4 if name == "relu" else 1e-6
        rel = np.abs(g.data - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() <= tol

    @pytest.mark.parametrize("name", sorted(BINARY_PRIMS))
    def test_binary(self, name):
        op, ref = BINARY_PRIMS[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        a0 = rng.uniform(-1, 1, 6)
        b0 = rng.uniform(-1, 1, 6)
        if name == "div":
            b0 = np.sign(b0) * (np.abs(b0) + 0.5)
        if name in ("maximum", "minimum"):
            # exclude kinks where |a-b| is small
            keep = np.abs(a0 - b0) > 1e-2
            a0, b0 = a0[keep], b0[keep]
        tol = 1e-4 if name in ("maximum", "minimum") else 1e-6

        ga = T.grad(lambda a: T.reduce_sum(op(a, T.Tensor(b0))), T.Tensor(a0))
        fd = central_diff(lambda a: float(np.sum(ref(a, b0))), a0)
        rel = np.abs(ga.data - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() <= tol

    def test_pow(self):
        rng = np.random.default_rng(5)
        a0 = rng.uniform(0.5, 1.5, 5)
        g = T.grad(lambda a: T.reduce_sum(T.power(a, T.Tensor(3.0))), T.Tensor(a0))
        np.testing.assert_allclose(g.data, 3 * a0**2, rtol=1e-12)

    def test_matmul_grad_vs_fd(self):
        rng = np.random.default_rng(9)
        a0 = rng.uniform(-1, 1, (2, 3))
        b0 = rng.uniform(-1, 1, (3, 2))
        g = T.grad(
            lambda a: T.reduce_sum(T.matmul(a, T.Tensor(b0))), T.Tensor(a0)
        )
        fd = central_diff(lambda a: float(np.sum(a @ b0)), a0)
        np.testing.assert_allclose(g.data, fd, atol=1e-8)

    def test_outer_product_grad_vs_fd(self):
        # inner size 1, broadcast batch axes: both operands' gradients
        rng = np.random.default_rng(10)
        a0 = rng.uniform(-1, 1, (2, 1, 3, 1))
        b0 = rng.uniform(-1, 1, (3, 1, 4))
        w = rng.uniform(-1, 1, (2, 3, 3, 4))

        def loss(a, b):
            return T.reduce_sum(T.mul(T.sin(T.matmul(a, b)), T.Tensor(w)))

        ga, gb = T.grad(loss, T.Tensor(a0), T.Tensor(b0))
        fa = central_diff(lambda a: float(np.sum(np.sin(a @ b0) * w)), a0)
        fb = central_diff(lambda b: float(np.sum(np.sin(a0 @ b) * w)), b0)
        np.testing.assert_allclose(ga.data, fa, atol=1e-8)
        np.testing.assert_allclose(gb.data, fb, atol=1e-8)

    def test_broadcast_grad_vs_fd(self):
        rng = np.random.default_rng(11)
        a0 = rng.uniform(-1, 1, (2, 1))
        b0 = rng.uniform(-1, 1, (1, 3))
        g = T.grad(
            lambda a: T.reduce_sum(T.mul(a, T.Tensor(b0))), T.Tensor(a0)
        )
        fd = central_diff(lambda a: float(np.sum(a * b0)), a0)
        np.testing.assert_allclose(g.data, fd, atol=1e-8)


class TestIntegralPower:
    """A constant 0-d exponent n in 1..8 is computed by repeated
    multiplication; any other exponent takes numpy's power."""

    BASES = np.concatenate([
        np.random.default_rng(4).uniform(-3.0, 3.0, 200),
        [0.0, -0.0, 1.0, -1.0, 1e-30, -1e-30, 1e30, -1e30, 5e-324,
         np.inf, -np.inf, np.nan],
    ])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_numpy_power_to_4_ulp(self, n):
        got = T.power(T.Tensor(self.BASES), T.Tensor(float(n))).data
        want = np.power(self.BASES, float(n))
        finite = np.isfinite(want) & (want != 0)
        np.testing.assert_array_max_ulp(got[finite], want[finite], maxulp=4)
        # zeros keep their sign; infinities and NaNs are numpy's
        assert got[~finite].tobytes() == want[~finite].tobytes()

    @pytest.mark.parametrize("exponent, watched, general", [
        (3.0, False, False), (8.0, False, False), (1.0, False, False),
        (3.0, True, True), (2.5, False, True), (9.0, False, True),
        (0.0, False, True), (-2.0, False, True), ((3.0,), False, True),
    ])
    def test_only_a_constant_small_integer_skips_numpy(
            self, monkeypatch, exponent, watched, general):
        calls = []
        binary = T._binary

        def spy(fn, a, b, name):
            calls.append(name)
            return binary(fn, a, b, name)

        monkeypatch.setattr(T, "_binary", spy)
        a, b = T.Tensor(np.linspace(0.5, 2.0, 4)), T.Tensor(exponent)
        with T.Tape() as tape:
            tape.watch(a, *([b] if watched else []))
            out = T.power(a, b)
        assert calls == (["power"] if general else [])
        np.testing.assert_allclose(out.data, a.data ** b.data, rtol=1e-15)

    def test_tape_gradient_matches_central_differences(self):
        a0 = np.random.default_rng(6).uniform(-2.0, 2.0, 6)
        for n in range(1, 9):
            g = T.grad(lambda a: T.reduce_sum(T.power(a, T.Tensor(float(n)))),
                       T.Tensor(a0))
            fd = central_diff(lambda a: float(np.sum(np.power(a, n))), a0)
            np.testing.assert_allclose(g.data, fd, rtol=1e-8, atol=1e-8)

    def test_watched_exponent_gradient_matches_central_differences(self):
        a0 = np.linspace(0.5, 2.0, 4)
        g = T.grad(lambda b: T.reduce_sum(T.power(T.Tensor(a0), b)),
                   T.Tensor(3.0))
        fd = central_diff(lambda b: float(np.sum(np.power(a0, b))), 3.0)
        assert g.item() == pytest.approx(float(fd), rel=1e-8)


class TestProperties:
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
    )
    @settings(max_examples=50)
    def test_broadcast_associative_on_shapes(self, sa, sb, sc):
        def bshape(x, y):
            try:
                return np.broadcast_shapes(x, y)
            except ValueError:
                return None

        ab = bshape(sa, sb)
        bc = bshape(sb, sc)
        if ab is None or bc is None:
            return
        left = bshape(ab, sc)
        right = bshape(sa, bc)
        if left is not None and right is not None:
            assert left == right

    def test_replay_deterministic(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-1, 1, (4, 4))

        def run():
            g = T.grad(
                lambda x: T.reduce_mse(T.tanh(T.matmul(x, x))), T.Tensor(x0)
            )
            return g.data.tobytes()

        assert run() == run()

    def test_second_order_nested_tapes(self):
        # d2/dx2 of x^3 at 2 -> 12, via tape-in-tape
        x = T.Tensor(2.0)
        with T.Tape() as outer:
            outer.watch(x)
            with T.Tape() as inner:
                inner.watch(x)
                y = T.mul(T.mul(x, x), x)
            g = inner.gradient(y, [x])[x.uid]
        h = outer.gradient(g, [x])[x.uid]
        assert h.item() == pytest.approx(12.0)
