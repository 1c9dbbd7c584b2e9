import numpy as np
import pytest

from jno import domain as dm
from jno import evaluator as ev
from jno import nn
from jno import tensor as T
from jno import trace as tr
from jno.errors import (
    ArityMismatch,
    ModelNotInitialized,
    NaNDetected,
    NonDifferentiablePath,
    PointOutsideMesh,
    UnassembledSymbol,
    UnboundVariable,
)


class _MeanSquare(nn.Model):
    """mean(x^2) over the points times w: a model that mixes points, whose
    derivative by the pointwise trick would be the Jacobian's row sums."""

    def _param_specs(self):
        return [("w", (1,), 1)]

    def forward(self, args):
        x = args[0]
        return T.mul(T.reduce_mean(T.mul(x, x), axes=-2, keepdims=True),
                     self.params["w"])


class TestBasics:
    def test_literal(self):
        ctx = ev.EvalContext()
        assert ev.evaluate(tr.literal(4.5), ctx).item() == 4.5

    def test_unbound_variable(self):
        ctx = ev.EvalContext()
        with pytest.raises(UnboundVariable):
            ev.evaluate(tr.variable("x"), ctx)

    def test_arith_pipeline(self):
        x = tr.variable("x")
        root = ((x * x) + 1.0).mse
        ctx = ev.EvalContext(bindings={x: np.array([1.0, 2.0])})
        # mse of [2, 5] = (4+25)/2
        assert ev.evaluate(root, ctx).item() == pytest.approx(14.5)

    def test_cache_single_add_evaluation(self):
        x, y = tr.variable("x"), tr.variable("y")
        root, _ = tr.cse((x + y) * (x + y))
        ctx = ev.EvalContext(bindings={x: np.ones(3), y: np.ones(3)})
        ev.evaluate(root, ctx)
        assert ctx.stats["by_kind"].get(tr.ARITH) == 2  # one add, one mul
        assert ctx.stats["cache_hits"] == 1

    def test_cache_soundness_bitwise(self):
        x = tr.variable("x")
        root = (tr.exp_node(x) if hasattr(tr, "exp_node") else x * x) + x
        v = np.linspace(-1, 1, 11)
        a = ev.evaluate(root, ev.EvalContext(bindings={x: v}))
        ctx = ev.EvalContext(bindings={x: v})
        ev.evaluate(root, ctx)
        b = ev.evaluate(root, ctx)  # second call hits the cache
        assert a.data.tobytes() == b.data.tobytes()

    def test_nan_check(self):
        x = tr.variable("x")
        root = x / 0.0
        ctx = ev.EvalContext(bindings={x: np.ones(2)}, nan_check=True)
        with pytest.raises(NaNDetected):
            ev.evaluate(root, ctx)

    def test_handler_totality(self):
        ev.assert_handler_totality()

    def test_unknown_kind_is_unassembled(self):
        with pytest.raises(UnassembledSymbol, match="Bogus"):
            ev.evaluate(tr.ExprNode("Bogus"), ev.EvalContext())

    def test_operation_call(self):
        a = tr.variable("a")
        f = tr.define_operation([a], a * a)
        x = tr.variable("x")
        nested = f(f(x))
        ctx = ev.EvalContext(bindings={x: np.array(2.0)})
        assert ev.evaluate(nested, ctx).item() == 16.0

    def test_stats_count_child_contexts(self, monkeypatch):
        d = dm.rect(mesh_size=0.25)
        x, y, _ = d.variable("interior")
        xb, yb, _ = d.variable("boundary")
        net = nn.mlp(2, [8], 1).initialize(0)
        u = net(tr.concat_nodes([x, y], axis=-1))
        loss = (u.dd(x) + u.dd(y) + x * y).mse \
            + net(tr.concat_nodes([xb, yb], axis=-1)).mse
        runs = []
        forward = nn.MLP.forward

        def counted(model, args):
            runs.append(1)
            return forward(model, args)

        monkeypatch.setattr(nn.MLP, "forward", counted)
        ctx = ev.EvalContext(domain=d)
        ev.evaluate(loss, ctx)
        assert ctx.stats["by_kind"]["ModelCall"] == 2
        assert len(runs) == 2
        # the Laplacian is one node, read from one summed coefficient
        assert tr.DERIVATIVE not in ctx.stats["by_kind"]

    def test_fresh_context_reads_resampled_points(self):
        # a context keeps the points it read; a new one sees the resample
        d = dm.structured_rect(8, 8)
        x, y, _ = d.variable("interior")
        assert ev.evaluate(x.sum, ev.EvalContext(domain=d)).item() == 24.5
        d.sample("interior", 5, seed=3)
        want = d.context["interior"][0, 0, :, 0].sum()
        assert ev.evaluate(x.sum, ev.EvalContext(domain=d)).item() == want
        assert want != 24.5

    def test_temporal_separation(self):
        d = dm.rect(mesh_size=0.5, time=(0.0, 1.0, 1))
        x, y, t = d.variable("interior")
        root = (x * y).mse  # no temporal derivative anywhere
        v1 = ev.evaluate(root, ev.EvalContext(domain=d))
        d.time_grid = d.time_grid + 17.0
        v2 = ev.evaluate(root, ev.EvalContext(domain=d))
        assert v1.data.tobytes() == v2.data.tobytes()

    def test_fem_symbol_outside_assembly(self):
        u, _ = dm.structured_rect(2, 2).init_fem().fem_symbols()
        with pytest.raises(UnassembledSymbol, match="outside weak-form"):
            ev.evaluate(u * 2.0, ev.EvalContext())


class TestAdDerivatives:
    def test_square(self):
        d = dm.line(mesh_size=0.25)
        x, t = d.variable("interior")
        du = tr.d(x * x, x)
        val = ev.evaluate(du, ev.EvalContext(domain=d))
        pts = d.context["interior"][..., 0:1]
        np.testing.assert_allclose(val.data, 2 * pts, atol=1e-12)

    def test_d_of_literal_is_zero(self):
        d = dm.line(mesh_size=0.25)
        x, _ = d.variable("interior")
        val = ev.evaluate(tr.d(tr.literal(5.0), x), ev.EvalContext(domain=d))
        assert np.all(val.data == 0.0)

    def test_d_x_x_is_ones(self):
        d = dm.line(mesh_size=0.25)
        x, _ = d.variable("interior")
        val = ev.evaluate(tr.d(x, x), ev.EvalContext(domain=d))
        assert np.all(val.data == 1.0)
        assert val.shape == d.context["interior"].shape

    @pytest.mark.parametrize("mix", [
        lambda x, s: x * x.mean,
        lambda x, s: x * x.reduce("sum", -2),
        lambda x, s: x * x.reduce("sum", -1),
        lambda x, s: tr.matmul_nodes(tr.constant(T.Tensor(np.ones((3, 3)))), x),
        lambda x, s: tr.concat_nodes([x, x * x], axis=-2),
        lambda x, s: tr.reshape_node(x, (1, 1, 3)),
        lambda x, s: tr.transpose_node(x, (0, 1, 3, 2)),
        lambda x, s: tr.d(s * x.sum, s),
        lambda x, s: _MeanSquare("mean_square").initialize(0)(x),
    ])
    def test_point_mixing_expression_rejected(self, mix):
        # points 0.25, 0.5, 0.75: d(x * mean(x))/dx has diagonal 0.5 + x/3,
        # which the pointwise trick cannot produce
        d = dm.line(mesh_size=0.25)
        x, _ = d.variable("interior")
        s = tr.variable("s")
        ctx = ev.EvalContext(bindings={s: np.ones((1, 1, 3, 1))}, domain=d)
        with pytest.raises(NonDifferentiablePath):
            ev.evaluate(tr.d(mix(x, s), x), ctx)

    def test_point_mixing_through_an_operation_rejected(self):
        d = dm.line(mesh_size=0.25)
        x, _ = d.variable("interior")
        a = tr.variable("a")
        f = tr.define_operation([a], a * a.mean)
        with pytest.raises(NonDifferentiablePath):
            ev.evaluate(tr.d(f(x), x), ev.EvalContext(domain=d))

    def test_point_axis_slice_rejected_column_slice_accepted(self):
        # the pointwise trick would give d/dx of (x*x)[0] + 0*x as 2 at every
        # point, where the true diagonal is [2, 0, 0, 0]
        x = tr.variable("x")
        ctx = ev.EvalContext(bindings={x: np.arange(1.0, 5.0).reshape(
            1, 1, 4, 1)})
        for u in ((x * x)[:, :, 0:1, :] + 0.0 * x, (x * x)[:, :, ::-1, :]):
            with pytest.raises(NonDifferentiablePath):
                ev.evaluate(tr.d(u, x), ctx)
        u = tr.concat_nodes([x, x * x], axis=-1)[:, :, :, 1:2]
        val = ev.evaluate(tr.d(u, x), ctx)
        np.testing.assert_array_equal(val.data.ravel(), [2.0, 4.0, 6.0, 8.0])

    def test_pointwise_reshapes_and_left_matmul_accepted(self):
        d = dm.line(mesh_size=0.25)
        x, _ = d.variable("interior")
        W = tr.constant(T.Tensor(np.array([[2.0], [3.0]])))
        u = tr.matmul_nodes(tr.concat_nodes([x, x * x], axis=-1), W)
        u = tr.transpose_node(tr.reshape_node(u.reduce("sum", (0, 1)),
                                              (1, 1, 3, 1)), (1, 0, 2, 3))
        val = ev.evaluate(tr.d(u, x), ev.EvalContext(domain=d))
        pts = d.context["interior"][..., 0:1]
        np.testing.assert_allclose(val.data, 2.0 + 6.0 * pts, atol=1e-12)

    def test_sin_second_derivative(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, (1, 1, 100, 1))
        x = tr.variable("x")
        ddu = tr.dd(tr.build(tr.ARITH, "sin", (x,)), x)
        val = ev.evaluate(ddu, ev.EvalContext(bindings={x: pts}))
        assert np.abs(val.data + np.sin(pts)).max() <= 1e-9

    def test_laplacian_on_tetrahedra(self):
        # u = sin(2x) sin(y) exp(z) has the Laplacian (-4 - 1 + 1) u
        d = dm.cube(mesh_size=0.5)
        x, y, z, _ = d.variable("interior")
        exp = tr.build(tr.ARITH, "exp", (z,))
        u = tr.build(tr.ARITH, "sin", (2.0 * x,)) \
            * tr.build(tr.ARITH, "sin", (y,)) * exp
        ctx = ev.EvalContext(domain=d)
        lap = ev.evaluate(u.dd(x) + u.dd(y) + u.dd(z), ctx).data
        np.testing.assert_allclose(lap, -4.0 * ev.evaluate(u, ctx).data,
                                   rtol=0, atol=1e-13)

    def test_envelope_vanishes_on_boundary(self):
        d = dm.rect(mesh_size=0.25)
        net = nn.mlp(2, [8], 1).initialize(0)
        xb, yb, _ = d.variable("boundary")
        g = net(tr.concat_nodes([xb, yb], axis=-1))
        u = g * xb * (1.0 - xb) * yb * (1.0 - yb)
        ctx = ev.EvalContext(domain=d)
        uv = ev.evaluate(u, ctx)
        assert np.abs(uv.data).max() == 0.0
        # tangential derivative along the boundary edge also vanishes on
        # the x=0 / x=1 edges (d/dy) and y=0 / y=1 edges (d/dx)
        du = ev.evaluate(tr.d(u, yb), ev.EvalContext(domain=d))
        verts = d.context["boundary"][0, 0]
        on_lr = (np.abs(verts[:, 0]) < 1e-12) | (np.abs(verts[:, 0] - 1) < 1e-12)
        assert np.abs(du.data[0, 0, on_lr, 0]).max() <= 1e-14

    def test_pde_residual_listing_shape(self):
        d = 4 * dm.rect(mesh_size=0.25)
        x, y, _ = d.variable("interior")
        k = d.variable("k", np.full((4, 1, 1), 1.0))
        net = nn.deeponet(1, 2, 8, 16).initialize(0)
        u = net(k, tr.concat_nodes([x, y], axis=-1)) \
            * x * (1.0 - x) * y * (1.0 - y)
        pde = k * (u.dd(x) + u.dd(y)) + 1.0
        val = ev.evaluate(pde, ev.EvalContext(domain=d))
        n_int = d.pool_size("interior")
        assert val.shape == (4, 1, n_int, 1)
        assert np.isfinite(val.data).all()

    def test_gradient_flows_through_derivative_nodes(self):
        # d(loss)/d(theta) through dd nodes matches finite differences
        d = dm.rect(mesh_size=0.5)
        x, y, _ = d.variable("interior")
        net = nn.mlp(2, [4], 1).initialize(3)
        u = net(tr.concat_nodes([x, y], axis=-1))
        pde = (u.dd(x) + u.dd(y) + 1.0).mse
        path = "layers/0/weight"

        def loss_for(w):
            net.params[path] = T.Tensor(w)
            ctx = ev.EvalContext(domain=d)
            return ev.evaluate(pde, ctx).item()

        w0 = net.params[path].data.copy()
        with T.Tape() as tape:
            tape.watch(net.params[path])
            val = ev.evaluate(pde, ev.EvalContext(domain=d))
        g = tape.gradient(val, [net.params[path]])[net.params[path].uid]

        h = 1e-6
        fd = np.zeros_like(w0)
        for i in np.ndindex(*w0.shape):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (loss_for(wp) - loss_for(wm)) / (2 * h)
        net.params[path] = T.Tensor(w0)
        rel = np.abs(g.data - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() <= 1e-4


class TestModelCalls:
    def test_mlp_shape(self):
        net = nn.mlp(2, [16], 1).initialize(0)
        x = tr.variable("x")
        out = ev.evaluate(net(x), ev.EvalContext(
            bindings={x: np.zeros((3, 1, 5, 2))}
        ))
        assert out.shape == (3, 1, 5, 1)

    def test_deeponet_shape(self):
        net = nn.deeponet(1, 2, 32, 16).initialize(0)
        k = tr.variable("k")
        x = tr.variable("x")
        out = ev.evaluate(net(k, x), ev.EvalContext(bindings={
            k: np.ones((4, 1, 1)), x: np.zeros((4, 1, 7, 2))
        }))
        assert out.shape == (4, 1, 7, 1)

    def test_uninitialized_rejected(self):
        net = nn.mlp(2, [4], 1)
        x = tr.variable("x")
        with pytest.raises(ModelNotInitialized):
            ev.evaluate(net(x), ev.EvalContext(
                bindings={x: np.zeros((1, 1, 2, 2))}
            ))


    def test_pointwise_models_differentiate(self):
        d = dm.structured_rect(4, 4)
        x, y, _ = d.variable("interior")
        k = tr.variable("k")
        sensors = T.Tensor(np.full((1, 1, 1), 0.3))
        xy = tr.concat_nodes([x, y], axis=-1)
        h, bx = 1e-6, d.bindings()[x].data
        for u in (nn.mlp(2, [8], 1).initialize(0)(xy),
                  nn.deeponet(1, 2, 4, 8).initialize(0)(k, xy)):
            def at(shift):
                return ev.evaluate(u, ev.EvalContext(
                    bindings={k: sensors, x: T.Tensor(bx + shift)},
                    domain=d)).data
            got = ev.evaluate(tr.d(u, x), ev.EvalContext(
                bindings={k: sensors}, domain=d)).data
            want = (at(h) - at(-h)) / (2 * h)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


class TestFiniteDifferences:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("expr", ["literal", "other tag's mean"])
    def test_expression_constant_over_vertices(self, expr, order):
        # the vertex values broadcast to every vertex before the operator
        # applies, so the derivative is zero at each of the context's points
        d = dm.structured_rect(6, 6, time=(0.0, 1.0, 2))
        x, _, _ = d.variable("interior")
        xb, _, _ = d.variable("boundary")
        u = {"literal": tr.literal(5.0), "other tag's mean": xb.mean}[expr]
        val = ev.evaluate(tr.derivative(u, x, order=order,
                                        mode="finite-difference"),
                          ev.EvalContext(domain=d))
        assert val.shape == d.context["interior"].shape[:-1] + (1,)
        assert np.abs(val.data).max() <= 1e-12

    def test_affine_exact(self):
        d = dm.rect(mesh_size=0.25)
        x, y, _ = d.variable("interior")
        du = tr.derivative(2.0 * x + 0.5 * y, x, order=1,
                           mode="finite-difference")
        val = ev.evaluate(du, ev.EvalContext(domain=d))
        np.testing.assert_allclose(val.data, 2.0, atol=1e-12)

    def test_second_order_structured(self):
        d = dm.rect(mesh_size=0.05)
        x, y, _ = d.variable("interior")
        ddu = tr.derivative(x * x, x, order=2, mode="finite-difference")
        val = ev.evaluate(ddu, ev.EvalContext(domain=d))
        pts = d.context["interior"][0, 0]
        inner = (
            (pts[:, 0] > 0.15) & (pts[:, 0] < 0.85)
            & (pts[:, 1] > 0.15) & (pts[:, 1] < 0.85)
        )
        assert np.abs(val.data[0, 0, inner, 0] - 2.0).max() <= 0.2

    def test_centroid_interpolation(self):
        d = dm.rect(mesh_size=0.5)
        e0 = d.mesh.elements[0]
        centroid = d.mesh.vertices[e0].mean(axis=0, keepdims=True)
        P = ev._locate_barycentric(d.mesh, centroid).toarray()
        np.testing.assert_allclose(P[0, e0], 1 / 3, atol=1e-12)
        assert P[0].sum() == pytest.approx(1.0)

    def test_point_outside(self):
        d = dm.rect(mesh_size=0.5)
        with pytest.raises(PointOutsideMesh):
            ev._locate_barycentric(d.mesh, np.array([[5.0, 5.0]]))

    @pytest.mark.parametrize("mode", ["finite_difference", "fd", "bogus",
                                      "default"])
    def test_unknown_context_mode(self, mode):
        # a misspelled mode would otherwise evaluate by AD
        with pytest.raises(ArityMismatch, match=repr(mode)):
            ev.EvalContext(derivative_mode=mode)

    @pytest.mark.parametrize("mode", ["finite_difference", "fd", "ad"])
    def test_unknown_derivative_hint(self, mode):
        x = tr.variable("x")
        with pytest.raises(ArityMismatch, match=repr(mode)):
            tr.derivative(x * x, x, mode=mode)

    def test_temporal_fd_unsupported(self):
        d = dm.rect(mesh_size=0.5, time=(0.0, 1.0, 1))
        x, y, t = d.variable("interior")
        node = tr.derivative(x * x, t, order=1, mode="finite-difference")
        with pytest.raises(NonDifferentiablePath):
            ev.evaluate(node, ev.EvalContext(domain=d))

    def test_refusals(self):
        d = dm.structured_rect(3, 3)
        free, full = tr.variable("x"), d.variable("interior", split=False)
        ones = np.ones((1, 1, 4, 1))
        for wrt, ctx, error, message in [
            (free, ev.EvalContext({free: ones}), NonDifferentiablePath,
             "need a domain"),
            (free, ev.EvalContext({free: ones}, d), UnboundVariable,
             "no binding for Variable 'x'"),
            (full, ev.EvalContext(domain=d), NonDifferentiablePath,
             "need a coordinate variable, got 'full'"),
        ]:
            node = tr.derivative(wrt * wrt, wrt, mode="finite-difference")
            with pytest.raises(error, match=message):
                ev.evaluate(node, ctx)

    def test_ad_fd_consistency_refines(self):
        errors = []
        hs = [0.2, 0.1, 0.05]
        for h in hs:
            d = dm.rect(mesh_size=h)
            x, y, _ = d.variable("interior")
            u = tr.build(tr.ARITH, "sin", (np.pi * x,)) \
                * tr.build(tr.ARITH, "sin", (np.pi * y,))
            ad = ev.evaluate(tr.d(u, x), ev.EvalContext(domain=d))
            fd = ev.evaluate(
                tr.derivative(u, x, order=1, mode="finite-difference"),
                ev.EvalContext(domain=d),
            )
            errors.append(np.abs(ad.data - fd.data).max())
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert slope >= 0.9


class TestTimeVariable:
    """A tag's time Variable binds the time grid at each of the tag's
    points, like its coordinates, so it is an ordinary model input."""

    @staticmethod
    def _space_time():
        d = dm.structured_rect(6, 6, time=(0.0, 1.0, 3))
        return d, d.variable("interior")

    def test_concat_with_time_is_broadcast(self):
        d, (x, y, t) = self._space_time()
        xyt = tr.concat_nodes([x, y, t], axis=-1)
        pts = d.context["interior"]
        times = np.broadcast_to(d.time_grid[:, None, None],
                                pts.shape[:-1] + (1,))
        want = np.concatenate([pts, times], axis=-1)
        got = ev.evaluate(xyt, ev.EvalContext(domain=d))
        assert got.data.tobytes() == want.tobytes()
        assert got.shape == want.shape == (1, 4, 25, 3)
        shapes = {v: b.shape for v, b in d.bindings().items()}
        assert tr.trace_shapes(xyt, shapes)[xyt] == (1, 4, 25, 3)

    def test_model_time_derivative_matches_differences(self):
        d, (x, y, t) = self._space_time()
        u = nn.mlp(3, [16], 1).initialize(0)(
            tr.concat_nodes([x, y, t], axis=-1))
        h, bt = 1e-5, d.bindings()[t].data

        def at(shift):
            return ev.evaluate(u, ev.EvalContext(
                bindings={t: T.Tensor(bt + shift)}, domain=d)).data

        got = ev.evaluate(tr.d(u, t), ev.EvalContext(domain=d)).data
        want = (at(h) - at(-h)) / (2 * h)
        assert got.shape == (1, 4, 25, 1)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_fd_derivative_reads_time_at_the_vertices(self):
        d, (x, y, t) = self._space_time()
        ctx = ev.EvalContext(domain=d)
        got = ev.evaluate(tr.derivative(x * t, x, mode="finite-difference"),
                          ctx)
        np.testing.assert_allclose(got.data, ctx.lookup(t).data,
                                   rtol=0, atol=1e-12)

    def test_time_follows_merge_and_resample(self):
        d, (x, y, t) = self._space_time()
        m = d.merge(dm.structured_rect(6, 6, time=(0.0, 1.0, 3)))
        m.sample("interior", 7, seed=1)
        ctx = ev.EvalContext(domain=m)
        assert ev.evaluate(t, ctx).shape == (2, 4, 7, 1)
        got = ev.evaluate(x + t, ctx)
        pts = m.context["interior"]
        np.testing.assert_array_equal(
            got.data, pts[..., :1] + d.time_grid[:, None, None])

    def test_steady_time_is_zero(self):
        # the grid of a steady domain is [0.0]
        d = dm.structured_rect(6, 6)
        x, y, t = d.variable("interior")
        ctx = ev.EvalContext(domain=d)
        assert ev.evaluate(t, ctx).data.tolist() == [[[[0.0]] * 25]]
        plus = ev.evaluate((x + t).mse, ctx)
        assert plus.data.tobytes() == ev.evaluate(x.mse, ctx).data.tobytes()
