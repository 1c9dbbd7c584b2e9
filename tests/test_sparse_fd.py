"""Sparse finite-difference operators: `T.sparse_matmul`, the
`T.SparseMatrix` products against scipy's, the MLS gradients, the point
location and the vertex row selection, each against a dense oracle."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jno import domain as dm
from jno import evaluator as ev
from jno import fem
from jno import mesh as meshmod
from jno import nn
from jno import tensor as T
from jno import trace as tr
from jno.errors import (
    DegenerateNeighborhood,
    PointOutsideMesh,
    ShapeMismatch,
)


def _random_csr(rows, cols, seed, density=0.3):
    return sp.random(rows, cols, density=density, format="csr",
                     random_state=seed)


def _sin(node):
    return tr.build(tr.ARITH, "sin", (node,))


def _mls_one_vertex_at_a_time(d):
    """Dense MLS gradient operators from one least-squares fit per vertex."""
    verts = d.mesh.vertices
    ptr = d.connectivity.neighbor_indptr
    nbr = d.connectivity.neighbor_indices
    ops = np.zeros((d.mesh.dim, len(verts), len(verts)))
    for i in range(len(verts)):
        support = np.concatenate([[i], nbr[ptr[i]:ptr[i + 1]]])
        M = np.concatenate([np.ones((len(support), 1)),
                            verts[support] - verts[i]], axis=1)
        pinv = np.linalg.lstsq(M, np.eye(len(support)), rcond=None)[0]
        ops[:, i, support] = pinv[1:]
    return ops


class TestSparseMatmul:
    def test_forward_matches_dense_4d(self):
        S = _random_csr(5, 7, seed=0)
        x = np.random.default_rng(1).standard_normal((2, 3, 7, 4))
        out = T.sparse_matmul(S, T.Tensor(x))
        assert out.shape == (2, 3, 5, 4)
        np.testing.assert_allclose(out.data, S.toarray() @ x, atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.sparse_matmul(_random_csr(5, 7, seed=0), T.ones((1, 6, 1)))
        with pytest.raises(ShapeMismatch):
            T.sparse_matmul(_random_csr(5, 7, seed=0), T.ones((7,)))

    def test_gradient_matches_central_differences(self):
        S = _random_csr(6, 5, seed=2, density=0.5)
        x0 = np.random.default_rng(3).standard_normal((2, 5, 3))

        def f(x):
            return T.reduce_sum(T.sin(T.sparse_matmul(S, x)))

        g = T.grad(f, T.Tensor(x0)).data
        h = 1e-6
        fd = np.zeros_like(x0)
        for i in np.ndindex(*x0.shape):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (f(T.Tensor(xp)).item() - f(T.Tensor(xm)).item()) / (2 * h)
        np.testing.assert_allclose(g, fd, atol=1e-8)

    def test_second_order_through_nested_tapes(self):
        # loss = c . S2 (y * y), y = S1 x: the Hessian-vector product is
        # 2 S1^T diag(S2^T c) S1 v
        S1 = _random_csr(6, 4, seed=4, density=0.5)
        S2 = _random_csr(3, 6, seed=5, density=0.5)
        rng = np.random.default_rng(6)
        c, v = rng.standard_normal((3, 1)), rng.standard_normal((4, 1))
        x = T.Tensor(rng.standard_normal((4, 1)))
        with T.Tape() as outer:
            outer.watch(x)
            with T.Tape() as inner:
                inner.watch(x)
                y = T.sparse_matmul(S1, x)
                loss = T.reduce_sum(T.mul(T.sparse_matmul(S2, T.mul(y, y)),
                                          T.Tensor(c)))
            g = inner.gradient(loss, [x])[x.uid]
            gv = T.reduce_sum(T.mul(g, T.Tensor(v)))
        hv = outer.gradient(gv, [x])[x.uid].data
        d1, d2 = S1.toarray(), S2.toarray()
        want = 2 * d1.T @ (np.diag((d2.T @ c)[:, 0]) @ (d1 @ v))
        np.testing.assert_allclose(hv, want, atol=1e-12)


# ---------------------------------------------------------------------------
# Point location
# ---------------------------------------------------------------------------

def _dense_locate(mesh, points):
    """Exhaustive reference: barycentric weights in the lowest-index element
    that contains each point, tested against every element.  Returns the
    dense (N, V) matrix and the chosen element of each point.  Segments and
    triangles use their closed forms; other simplices solve for the weights
    (1, p) = sum_a lambda_a (1, x_a) in every element."""
    pts = np.asarray(points, dtype=np.float64)
    P = np.zeros((len(pts), mesh.num_vertices))
    chosen = np.zeros(len(pts), dtype=np.int64)
    elems, verts, tol = mesh.elements, mesh.vertices, 1e-9
    if mesh.kind not in ("LINE2", "TRI3"):
        corners = np.concatenate([np.ones(elems.shape + (1,)),
                                  verts[elems]], axis=2)     # (E, k+1, D+1)
        for n, p in enumerate(pts):
            lam = np.stack([np.linalg.solve(c.T, np.concatenate([[1.0], p]))
                            for c in corners])
            e = chosen[n] = int(np.nonzero((lam >= -tol).all(axis=1))[0][0])
            P[n, elems[e]] = lam[e]
        return P, chosen
    if mesh.kind == "LINE2":
        x0, x1 = verts[elems[:, 0], 0], verts[elems[:, 1], 0]
        for n, p in enumerate(pts):
            x = p[0]
            inside = np.nonzero((x >= np.minimum(x0, x1) - tol)
                                & (x <= np.maximum(x0, x1) + tol))[0]
            e = chosen[n] = int(inside[0])
            s = (x - x0[e]) / (x1[e] - x0[e])
            P[n, elems[e, 0]] = 1 - s
            P[n, elems[e, 1]] = s
        return P, chosen
    p0, p1, p2 = (verts[elems[:, i]] for i in range(3))
    d1, d2 = p1 - p0, p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    for n, p in enumerate(pts):
        r = p[None, :2] - p0
        l1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
        l2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
        l0 = 1.0 - l1 - l2
        e = chosen[n] = int(
            np.nonzero((l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol))[0][0])
        P[n, elems[e]] = l0[e], l1[e], l2[e]
    return P, chosen


MESHES = {
    "rect": lambda: meshmod.rect_mesh((0.0, 1.0), (0.0, 1.0), 0.1),
    "disk": lambda: meshmod.disk_mesh(1.0, (0.0, 0.0), 0.15),
    "lshape": lambda: meshmod.lshape_mesh(0.1, 1.0),
    "rect_with_hole": lambda: meshmod.rect_with_hole_mesh(
        (0.0, 1.0), (0.0, 1.0), (0.5, 0.5), 0.2, 0.1),
    "line": lambda: meshmod.line_mesh((0.0, 1.0), 0.05),
    "cube": lambda: meshmod.cube_mesh((0.0, 1.0), (0.0, 0.5), (0.0, 0.75),
                                      mesh_size=0.25),
}


def _probe_points(mesh, seed):
    """100 random points inside random elements, then every vertex, then the
    midpoint of every element edge."""
    rng = np.random.default_rng(seed)
    elems, verts = mesh.elements, mesh.vertices
    corners = verts[elems]                                  # (E, k, D)
    pick = rng.integers(len(elems), size=100)
    lam = rng.dirichlet(np.ones(elems.shape[1]), size=100)
    inside = np.einsum("nk,nkd->nd", lam, corners[pick])
    mids = [(corners[:, a] + corners[:, b]) / 2
            for a in range(elems.shape[1]) for b in range(a + 1, elems.shape[1])]
    return np.concatenate([inside, verts] + mids)


class TestLocateBarycentric:
    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_matches_exhaustive_reference(self, name):
        mesh = MESHES[name]()
        pts = _probe_points(mesh, seed=7)
        P = ev._locate_barycentric(mesh, pts)
        assert isinstance(P, T.SparseMatrix)
        assert P.shape == (len(pts), mesh.num_vertices)
        want, chosen = _dense_locate(mesh, pts)
        np.testing.assert_allclose(P.toarray(), want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.bincount(P.rows, P.vals, len(pts)), 1.0,
                                   rtol=0, atol=1e-12)
        # off the vertices, the containing elements all have nearby
        # centroids, so the row is stored on the lowest-index one's vertices
        on_vertex = np.zeros(len(pts), dtype=bool)
        on_vertex[100:100 + mesh.num_vertices] = True
        for n in np.nonzero(~on_vertex)[0]:
            stored = P.cols[P.rows == n]
            assert set(stored) == set(mesh.elements[chosen[n]])

    def test_falls_back_when_no_candidate_contains_the_point(self):
        # eight slivers just past the hypotenuse have nearer centroids than
        # the big triangle that holds the point
        verts = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
        elems = [[0, 1, 2]]
        for i in range(8):
            x = 0.05 * i
            base = len(verts)
            verts += [[x, 10.05 - x], [x + 0.04, 10.05 - x],
                      [x, 10.09 - x]]
            elems.append([base, base + 1, base + 2])
        mesh = meshmod.Mesh(verts, elems, "TRI3")
        pts = np.array([[0.1, 9.8]])
        P = ev._locate_barycentric(mesh, pts)
        want, chosen = _dense_locate(mesh, pts)
        np.testing.assert_allclose(P.toarray(), want, rtol=0, atol=1e-12)
        assert chosen[0] == 0 and set(P.cols) == {0, 1, 2}

    @pytest.mark.parametrize("name,point", [("rect", [5.0, 5.0]),
                                            ("lshape", [0.75, 0.75]),
                                            ("rect_with_hole", [0.5, 0.5]),
                                            ("line", [1.5]),
                                            ("cube", [0.5, 0.6, 0.2])])
    def test_outside_point_raises(self, name, point):
        with pytest.raises(PointOutsideMesh):
            mesh = MESHES[name]()
            ev._locate_barycentric(mesh, np.array([point]))


# ---------------------------------------------------------------------------
# FD derivatives
# ---------------------------------------------------------------------------

def _count_locations(monkeypatch):
    calls = []
    locate = ev._locate_barycentric
    monkeypatch.setattr(ev, "_locate_barycentric",
                        lambda mesh, pts: calls.append(len(pts))
                        or locate(mesh, pts))
    return calls


class TestFdDerivatives:
    def test_d_and_dd_match_dense_recomputation(self):
        d = dm.rect(mesh_size=0.1)
        d.register_resampler("interior", count=40)
        d.apply_resamplers(np.random.default_rng(0))
        x, y, _ = d.variable("interior")
        u = _sin(np.pi * x) * y * y + x * y
        ctx = ev.EvalContext(domain=d, derivative_mode="finite-difference")
        du_dx = ev.evaluate(tr.d(u, x), ctx).data
        ddu_dy = ev.evaluate(tr.dd(u, y), ctx).data

        verts = d.mesh.vertices
        u_v = (np.sin(np.pi * verts[:, 0]) * verts[:, 1] ** 2
               + verts[:, 0] * verts[:, 1])[:, None]
        Gx, Gy = (G.toarray() for G in ev._fd_operators(ctx))
        P = ev._locate_barycentric(d.mesh, d.context["interior"][0, 0])
        P = P.toarray()
        np.testing.assert_allclose(du_dx[0, 0], P @ (Gx @ u_v),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(ddu_dy[0, 0], P @ (Gy @ (Gy @ u_v)),
                                   rtol=0, atol=1e-12)

    def test_interpolates_at_the_bound_points(self, monkeypatch):
        # x and y bound to the interior points in reverse order: the
        # derivative is interpolated at those points, not at the domain's,
        # which are located in the mesh
        d = dm.structured_rect(16, 16)
        x, y, _ = d.variable("interior")
        pts = d.context["interior"][..., ::-1, :]
        calls = _count_locations(monkeypatch)
        ctx = ev.EvalContext({x: pts[..., :1], y: pts[..., 1:]}, d,
                             derivative_mode="finite-difference")
        np.testing.assert_allclose(ev.evaluate(tr.d(x * y, x), ctx).data,
                                   pts[..., 1:], rtol=0, atol=1e-14)
        assert calls == [pts.shape[-2]]

    def test_affine_field_on_tetrahedra(self):
        d = dm.cube(mesh_size=0.25)
        x, y, z, _ = d.variable("interior")
        u = 3.0 * x - 2.0 * y + 0.5 * z
        ctx = ev.EvalContext(domain=d, derivative_mode="finite-difference")
        for var, want in ((x, 3.0), (y, -2.0), (z, 0.5)):
            np.testing.assert_allclose(ev.evaluate(tr.d(u, var), ctx).data,
                                       want, rtol=0, atol=1e-12)

    def test_mls_operators_are_row_major_and_exact_on_affine(self):
        d = dm.disk(mesh_size=0.2)
        ops = ev.mls_gradient_operators(d.mesh, d.connectivity)
        verts = d.mesh.vertices
        for direction, G in enumerate(ops):
            assert isinstance(G, T.SparseMatrix)
            assert G.shape == (len(verts), len(verts))
            assert (np.diff(G.rows * len(verts) + G.cols) > 0).all()
            u = 3.0 * verts[:, 0] - 2.0 * verts[:, 1] + 0.5
            np.testing.assert_allclose(G @ u, [3.0, -2.0][direction],
                                       atol=1e-10)

    @pytest.mark.parametrize("make", [
        lambda: dm.structured_rect(6, 6),
        lambda: dm.disk(mesh_size=0.2),
        lambda: dm.lshape(mesh_size=0.2),
    ], ids=["structured_rect", "disk", "lshape"])
    def test_mls_operators_match_one_lstsq_per_vertex(self, make):
        d = make()
        got = [G.toarray()
               for G in ev.mls_gradient_operators(d.mesh, d.connectivity)]
        np.testing.assert_allclose(got, _mls_one_vertex_at_a_time(d),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("verts, neighbors, message", [
        ([[0, 0], [1, 0], [0, 1]], [[1], [0, 2], [1]],
         "vertex 0 has only 1 neighbors"),
        ([[0, 0], [1, 0], [2, 0]], [[1, 2], [0, 2], [0, 1]],
         "vertex 0: neighborhood is affinely degenerate"),
        ([[0, 0], [1, 0], [2, 0], [0, 1]], [[1, 2], [0], [0, 1], [0, 1]],
         "vertex 0: neighborhood is affinely degenerate"),
    ], ids=["few", "collinear", "lowest_index_first"])
    def test_degenerate_neighborhoods(self, verts, neighbors, message):
        mesh = SimpleNamespace(vertices=np.asarray(verts, dtype=np.float64),
                               num_vertices=len(verts), dim=2)
        conn = SimpleNamespace(
            neighbor_indptr=np.cumsum([0] + [len(n) for n in neighbors]),
            neighbor_indices=np.concatenate(neighbors).astype(np.int64))
        with pytest.raises(DegenerateNeighborhood, match=message):
            ev.mls_gradient_operators(mesh, conn)

    def test_sibling_derivatives_share_one_vertex_pass(self, monkeypatch):
        d = dm.rect(mesh_size=0.25)
        x, y, _ = d.variable("interior")
        net = nn.mlp(2, [4], 1).initialize(0)
        calls = []
        forward = net.forward
        monkeypatch.setattr(net, "forward",
                            lambda args: calls.append(1) or forward(args))
        u = net(tr.concat_nodes([x, y], axis=-1))
        lap = u.dd(x) + u.dd(y)
        ctx = ev.EvalContext(domain=d, derivative_mode="finite-difference")
        ev.evaluate(lap, ctx)
        assert len(calls) == 1
        ev.evaluate(lap, ev.EvalContext(domain=d,
                                        derivative_mode="finite-difference"))
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# Vertex rows: points a context reads from the domain select their rows
# ---------------------------------------------------------------------------

def _sample(d, how):
    N = d.pool_size("interior")
    if how == "uniform":
        d.sample("interior", max(1, N // 3), seed=3)
    elif how == "weighted":
        w = np.random.default_rng(4).random(N)
        d.sample("interior", 3 * N, strategy="residual-weighted", seed=5,
                 weights=w)
        assert len(np.unique(d.vertex_ids["interior"])) < 3 * N


class TestVertexRows:
    @pytest.mark.parametrize("how", ["full", "uniform", "weighted"])
    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_selection_matches_barycentric(self, name, how, monkeypatch):
        d = dm.Domain(MESHES[name]())
        _sample(d, how)
        coords = d.variable("interior")[:-1]
        ctx = ev.EvalContext(domain=d, derivative_mode="finite-difference")
        cols = tuple(ctx.lookup(v) for v in coords)
        calls = _count_locations(monkeypatch)
        P, lead = ev._interpolation(ctx, coords, cols)
        assert calls == [] and lead is None
        assert isinstance(P, T.SparseMatrix)
        assert P.nnz == len(cols[0].data[0, 0])
        want = ev._locate_barycentric(d.mesh, d.context["interior"][0, 0])
        np.testing.assert_allclose(P.toarray(), want.toarray(), rtol=0,
                                   atol=1e-15)

    def test_pinn_fd_step_locates_nothing(self, monkeypatch):
        d = dm.structured_rect(10, 10)
        x, y, _ = d.variable("interior")
        net = nn.mlp(2, [8], 1).initialize(0)
        u = net(tr.concat_nodes([x, y], axis=-1))
        lap = u.dd(x) + u.dd(y)
        d.register_resampler("interior", count=30)
        calls = _count_locations(monkeypatch)
        rng = np.random.default_rng(0)
        for _ in range(2):
            d.apply_resamplers(rng)
            ctx = ev.EvalContext(domain=d,
                                 derivative_mode="finite-difference")
            params = net.trainable_params()
            with T.Tape() as tape:
                tape.watch(*params.values())
                r = ev.evaluate(lap, ctx)
                loss = T.reduce_sum(T.mul(r, r))
            tape.gradient(loss, list(params.values()))
        assert calls == [] and "locator" not in d.mesh.__dict__
        # the same points bound from outside are located, to the same values
        pts = d.context["interior"]
        bound = ev.EvalContext({x: pts[..., :1], y: pts[..., 1:]}, d,
                               derivative_mode="finite-difference")
        np.testing.assert_allclose(ev.evaluate(lap, bound).data,
                                   ev.evaluate(lap, ctx).data,
                                   rtol=1e-12, atol=1e-12)
        assert calls == [30]

    def test_nested_fd_derivatives_read_vertex_rows(self, monkeypatch):
        # the inner derivative is taken at every vertex, which its context
        # binds with the vertex ids, so no point is located
        d = dm.structured_rect(12, 12)
        x, y, _ = d.variable("interior")
        u = _sin(np.pi * x) * y * y + x * y
        calls = _count_locations(monkeypatch)
        ctx = ev.EvalContext(domain=d, derivative_mode="finite-difference")
        mixed = ev.evaluate(tr.d(tr.d(u, x), y), ctx).data
        divergence = ev.evaluate(tr.d(u * tr.d(u, x), x), ctx).data
        assert calls == [] and "locator" not in d.mesh.__dict__

        verts, ids = d.mesh.vertices, d.vertex_ids["interior"]
        u_v = (np.sin(np.pi * verts[:, 0]) * verts[:, 1] ** 2
               + verts[:, 0] * verts[:, 1])[:, None]
        Gx, Gy = (G.toarray() for G in ev._fd_operators(ctx))
        np.testing.assert_allclose(mixed[0, 0], (Gy @ (Gx @ u_v))[ids],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(divergence[0, 0],
                                   (Gx @ (u_v * (Gx @ u_v)))[ids],
                                   rtol=0, atol=1e-12)

    def test_fd_on_a_gauss_tag_locates(self, monkeypatch):
        d = dm.structured_rect(8, 8).init_fem()
        x, y, _ = d.variable(fem.GAUSS_VOLUME)
        pts = d.context[fem.GAUSS_VOLUME][0, 0]
        verts = d.mesh.vertices
        P = ev._locate_barycentric(d.mesh, pts).toarray()
        calls = _count_locations(monkeypatch)
        ctx = ev.EvalContext(domain=d, derivative_mode="finite-difference")
        Gx = ev._fd_operators(ctx)[0].toarray()
        np.testing.assert_allclose(
            ev.evaluate(tr.d(3.0 * x - 2.0 * y, x), ctx).data, 3.0,
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            ev.evaluate(tr.d(x * y, x), ctx).data[0, 0],
            P @ (Gx @ (verts[:, 0] * verts[:, 1]))[:, None],
            rtol=0, atol=1e-14)
        assert calls == [len(pts)]

    @pytest.mark.parametrize("bound", [False, True], ids=["ids", "located"])
    def test_merged_batches_each_at_their_own_points(self, bound,
                                                     monkeypatch):
        a, b = dm.structured_rect(8, 8), dm.structured_rect(8, 8)
        a.sample("interior", 10, seed=1)
        b.sample("interior", 10, seed=2)
        m = a.merge(b)
        x, y, _ = m.variable("interior")
        pts = m.context["interior"]
        assert not np.array_equal(pts[0], pts[1])
        calls = _count_locations(monkeypatch)
        ctx = ev.EvalContext({x: pts[..., :1], y: pts[..., 1:]} if bound
                             else {}, m, derivative_mode="finite-difference")
        got = ev.evaluate(tr.d(x * y, x), ctx).data
        assert got.shape == (2, 1, 10, 1)
        for batch in range(2):
            np.testing.assert_allclose(got[batch], pts[batch, ..., 1:],
                                       rtol=0, atol=1e-14)
        assert calls == ([10, 10] if bound else [])


# ---------------------------------------------------------------------------
# SparseMatrix products against scipy's, bitwise
# ---------------------------------------------------------------------------

def _scipy_csr(S):
    """The CSR matrix that scipy builds from `S`'s triplets."""
    return sp.csr_matrix((S.vals, (S.rows, S.cols)), shape=S.shape)


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_products_equal_scipy(S, want, seed):
    """`S @ x` and `S.T @ x` for one, three, eight and no columns, and for
    a vector, equal the products of the scipy matrix `want` bitwise, shape
    and dtype included."""
    rng = np.random.default_rng(seed)
    for shape in ((1,), (3,), (8,), (0,), ()):
        x = rng.standard_normal((S.shape[1],) + shape)
        _assert_bitwise(S @ x, want @ x)
        y = rng.standard_normal((S.shape[0],) + shape)
        _assert_bitwise(S.T @ y, want.T @ y)


@st.composite
def _triplets(draw):
    """Distinct (row, col) entries of an (M, V) matrix; the entries use only
    some of its rows and columns, so that some are empty."""
    M, V = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    used_rows = draw(st.lists(st.integers(0, M - 1), max_size=M, unique=True))
    used_cols = draw(st.lists(st.integers(0, V - 1), max_size=V, unique=True))
    pairs = sorted(draw(st.sets(st.tuples(st.sampled_from(used_rows),
                                          st.sampled_from(used_cols)))
                        if used_rows and used_cols else st.just(set())))
    pairs = draw(st.permutations(pairs))
    vals = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(pairs),
                         max_size=len(pairs)))
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    return rows, cols, np.array(vals, dtype=np.float64), (M, V)


class TestSparseMatrixAgainstScipy:
    @given(_triplets(), st.integers(0, 2 ** 32 - 1))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_random_triplets(self, triplets, seed):
        rows, cols, vals, shape = triplets
        S = T.SparseMatrix(rows, cols, vals, shape)
        want = sp.csr_matrix((vals, (rows, cols)), shape=shape)
        assert S.nnz == want.nnz and S.T is S.T
        np.testing.assert_array_equal(S.toarray(), want.toarray())
        np.testing.assert_array_equal(S.T.toarray(), want.T.toarray())
        _assert_products_equal_scipy(S, want, seed)

    @pytest.mark.parametrize("name", ["rect", "disk", "lshape", "cube"])
    def test_mls_operators(self, name):
        d = dm.Domain(MESHES[name]())
        for seed, G in enumerate(
                ev.mls_gradient_operators(d.mesh, d.connectivity)):
            _assert_products_equal_scipy(G, _scipy_csr(G), seed)

    @pytest.mark.parametrize("lead", [(2, 1), (1, 3), (2, 3)])
    def test_sparse_matmul_with_batch_and_time_axes(self, lead):
        # batch and time axes fold into the columns of one product, which
        # is bitwise scipy's product of each slice
        d = dm.Domain(MESHES["rect"]())
        G = ev.mls_gradient_operators(d.mesh, d.connectivity)[0]
        want = _scipy_csr(G)
        x = np.random.default_rng(7).standard_normal(
            lead + (G.shape[1], 2))
        got = T.sparse_matmul(G, T.Tensor(x)).data
        assert got.shape == lead + (G.shape[0], 2)
        for i in np.ndindex(*lead):
            _assert_bitwise(got[i], want @ x[i])

    def test_per_slice_block_operator(self):
        # sampled points are vertices, whose weights are 0 and 1; the bound
        # points lie inside elements, so each row sums three products
        a, b = dm.rect(mesh_size=0.2), dm.rect(mesh_size=0.2)
        a.sample("interior", 10, seed=1)
        b.sample("interior", 10, seed=2)
        m = a.merge(b)
        coords = m.variable("interior")[:-1]
        pts = np.random.default_rng(3).uniform(0.05, 0.95, (2, 1, 10, 2))
        ctx = ev.EvalContext({v: pts[..., i:i + 1]
                              for i, v in enumerate(coords)}, m,
                             derivative_mode="finite-difference")
        P, lead = ev._interpolation(ctx, coords,
                                    tuple(ctx.lookup(v) for v in coords))
        assert lead == (2, 1)
        want = sp.block_diag(
            [_scipy_csr(ev._locate_barycentric(m.mesh, p)) for p in pts[:, 0]],
            format="csr")
        np.testing.assert_array_equal(P.toarray(), want.toarray())
        _assert_products_equal_scipy(P, want, 0)
