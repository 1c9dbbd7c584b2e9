"""P1 finite-element lowering, each target checked against an independent
answer: the O(h^2) L2 rate of a manufactured solution, the VPINN residual
vanishing at the Galerkin solution, solutions that P1 holds exactly (u = x
from a Neumann or Robin flux), quadratic Newton convergence, and the exact
backward-Euler decay of one generalized eigenmode."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from jno import domain as dm
from jno import evaluator as ev
from jno import fem
from jno import mesh as meshmod
from jno import trace as tr
from jno.errors import (
    NewtonDivergence,
    NonDifferentiablePath,
    NonlinearTerm,
    SingularMass,
    SingularStepMatrix,
    SingularSystem,
    TargetMismatch,
    TimeDependentMass,
    UnassembledSymbol,
    UnknownBcTag,
    UnsupportedElement,
)


def sin(node):
    return tr.build(tr.ARITH, "sin", (node,))


def laplace(u, phi, coords):
    out = u.d(coords[0]) * phi.d(coords[0])
    for c in coords[1:]:
        out = out + u.d(c) * phi.d(c)
    return out


def setup_fem(dom, bcs):
    dom.init_fem(bcs=bcs)
    u, phi = dom.fem_symbols()
    return u, phi, dom.variable(fem.GAUSS_VOLUME)[:-1]


def l2_error(mesh, u_nodal, exact):
    """L2 norm of (P1 interpolant - exact), by a rule written here: the
    edge-midpoint rule on triangles, 3-point Gauss-Legendre on segments and
    the 4-point degree-2 rule on tetrahedra."""
    cells = mesh.elements
    p = mesh.vertices[cells]                        # (E, n, D)
    u = u_nodal[cells]                              # (E, n)
    if mesh.kind == "TET4":
        a, b = 0.5854101966249685, 0.1381966011250105
        bary = np.full((4, 4), b) + (a - b) * np.eye(4)
        w = np.full(4, 1 / 4)
        size = np.abs(np.linalg.det(p[:, 1:] - p[:, :1])) / 6
    elif mesh.kind == "TRI3":
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        w = np.full(3, 1 / 3)
        size = area
    else:
        x, w = np.polynomial.legendre.leggauss(3)
        x, w = (x + 1) / 2, w / 2
        bary = np.stack([1 - x, x], axis=1)
        size = np.abs(p[:, 1, 0] - p[:, 0, 0])
    pts = np.einsum("qa,ead->eqd", bary, p)
    err = u @ bary.T - exact(*np.moveaxis(pts, -1, 0))
    return float(np.sqrt(np.sum(size[:, None] * w[None] * err ** 2)))


def manufactured(n):
    """-lap u = 2 pi^2 sin(pi x) sin(pi y), u = 0 on the boundary."""
    dom = dm.structured_rect(n, n)
    u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
    f = 2 * np.pi ** 2 * sin(np.pi * x) * sin(np.pi * y)
    weak = laplace(u, phi, (x, y)) - f * phi
    return dom, weak, weak.assemble("fem_system").solve()


def manufactured_3d(h):
    """-lap u = 3 pi^2 sin(pi x) sin(pi y) sin(pi z), u = 0 on the boundary
    of the unit cube."""
    dom = dm.cube(h)
    u, phi, (x, y, z) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
    f = 3 * np.pi ** 2 * sin(np.pi * x) * sin(np.pi * y) * sin(np.pi * z)
    weak = laplace(u, phi, (x, y, z)) - f * phi
    return dom, weak, weak.assemble("fem_system").solve()


# the manufactured problems the VPINN residual is checked at
MANUFACTURED = {"TRI3": lambda: manufactured(8),
                "TET4": lambda: manufactured_3d(0.25)}


def neumann_problem(n=4):
    """-lap u = 0, u = 0 on the left, du/dn = 1 on the right: u = x."""
    dom = dm.structured_rect(n, n)
    u, phi, (x, y) = setup_fem(
        dom, [dom.dirichlet("left", 0.0), dom.neumann("right")]
    )
    xr = dom.variable("gauss_right")[0]             # x = 1 on the right
    return dom, laplace(u, phi, (x, y)) - xr * phi


def pure_neumann_line(time=False, stiffness="1"):
    """-u'' = 1 on [0, 1] with no Dirichlet value, and with `time` a mass
    term 0 * u_t: u is fixed only up to a constant, so the stiffness matrix
    is exactly singular (and the mass matrix is zero).  Stiffness "1+0t"
    reads the time, which takes fem_time's Newton path."""
    dom = dm.line(0.25)
    u, phi, (x,) = setup_fem(dom, [])
    weak = laplace(u, phi, (x,)) - 1.0 * phi
    t = dom.variable(fem.GAUSS_VOLUME)[-1]
    if stiffness != "1":
        weak = (1 + 0 * t) * weak
    return 0.0 * u.d(t) * phi + weak if time else weak


def central_differences(op, u, h=1e-6):
    """The Jacobian of `op` at `u` by central differences, column by column."""
    return np.stack([(op(u + h * e) - op(u - h * e)) / (2 * h)
                     for e in np.eye(len(u))], axis=1)


def vpinn_value(dom, weak, nodal):
    r = weak.assemble("vpinn", trial=nodal)
    return float(ev.evaluate(r, ev.EvalContext(domain=dom)).data.sum())


class TestFemSystem:
    def test_manufactured_l2_rate(self):
        exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
        errs = []
        for n in (8, 16, 32):
            dom, _, uh = manufactured(n)
            errs.append(l2_error(dom.mesh, uh, exact))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.9), (errs, rates)

    def test_tet4_poisson_rate(self):
        exact = lambda x, y, z: (np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
                                 * np.sin(np.pi * z))
        errs = []
        for h in (1 / 4, 1 / 8, 1 / 16):
            dom, _, uh = manufactured_3d(h)
            errs.append(l2_error(dom.mesh, uh, exact))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert rates[0] > 1.8 and rates[1] > 1.9, (errs, rates)

    def test_tet4_dirichlet_gives_u_equals_x(self):
        dom = dm.cube(0.25)
        u, phi, coords = setup_fem(
            dom, [dom.dirichlet("boundary", lambda x, y, z: x)])
        uh = laplace(u, phi, coords).assemble("fem_system").solve()
        np.testing.assert_allclose(uh, dom.mesh.vertices[:, 0], rtol=0,
                                   atol=1e-12)

    def test_neumann_flux_gives_u_equals_x(self):
        dom, weak = neumann_problem()
        uh = weak.assemble("fem_system").solve()
        np.testing.assert_allclose(uh, dom.mesh.vertices[:, 0], atol=1e-12)

    def test_tet4_neumann_flux_gives_u_equals_x(self):
        # u = 0 on the cube's left face, du/dn = 1 on its right face
        dom = dm.cube(0.25)
        u, phi, coords = setup_fem(
            dom, [dom.dirichlet("left", 0.0), dom.neumann("right")])
        xr = dom.variable("gauss_right")[0]         # x = 1 on the right
        weak = laplace(u, phi, coords) - xr * phi
        uh = weak.assemble("fem_system").solve()
        np.testing.assert_allclose(uh, dom.mesh.vertices[:, 0], rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: dm.line(0.125), lambda: dm.structured_rect(5, 4),
        lambda: dm.cube(0.25),
    ], ids=["LINE2", "TRI3", "TET4"])
    def test_matches_dense_element_sums(self, make):
        # reference: the element blocks and vectors summed into dense arrays
        # with np.add.at, then the free and constrained blocks sliced by hand
        dom = make()
        u, phi, coords = setup_fem(
            dom, [dom.dirichlet("left", lambda *p: 1.0 + p[-1])])
        x, r = coords[0], dom.variable("gauss_right")[-2]
        weak = (2 + x) * laplace(u, phi, coords) + (u + u.d(x)) * phi \
            + (1 + r) * u * phi - (1 + x) * phi
        got = weak.assemble("fem_system")

        setup = dom.fem
        V = setup.num_vertices
        K, F = np.zeros((V, V)), np.zeros(V)
        vol, right = setup.regions["fem_gauss"], setup.regions["gauss_right"]

        def add(region, w, test, trial):
            B = np.einsum("eq,eqa,eqb->eab", region.weights * w, test, trial)
            np.add.at(K, (region.dofs[:, :, None], region.dofs[:, None, :]), B)

        def values(region):
            return np.broadcast_to(region.values, region.weights.shape
                                   + region.values.shape[1:])

        xq = vol.coords[..., 0]
        grads = [np.broadcast_to(vol.grads[:, None, :, d], values(vol).shape)
                 for d in range(dom.mesh.dim)]
        for grad in grads:
            add(vol, 2 + xq, grad, grad)
        add(vol, 1.0, values(vol), values(vol) + grads[0])
        add(right, 1 + right.coords[..., -1], values(right), values(right))
        np.add.at(F, vol.dofs, np.einsum("eq,eqa->ea",
                                         vol.weights * (1 + xq), values(vol)))

        free, fixed = setup.free, setup.constrained
        g = 1.0 + dom.mesh.vertices[fixed, -1]
        np.testing.assert_allclose(got.full_matrix.toarray(), K, rtol=0,
                                   atol=1e-13)
        np.testing.assert_allclose(got.full_rhs, F, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got.A.toarray(), K[free][:, free], rtol=0,
                                   atol=1e-13)
        np.testing.assert_allclose(got.b, F[free] - K[free][:, fixed] @ g,
                                   rtol=0, atol=1e-13)

    def test_init_fem_builds_no_map(self):
        # the pattern and the test operators are built on first use
        dom = dm.structured_rect(4, 4)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        setup = dom.fem
        assert "pattern" not in vars(setup) and not setup._test_operators
        (laplace(u, phi, (x, y)) - phi).assemble("fem_system")
        assert "pattern" in vars(setup) and setup._test_operators

    def test_line2_poisson_rate(self):
        exact = lambda x: np.sin(np.pi * x)  # noqa: E731
        errs = []
        for n in (8, 16, 32):
            dom = dm.line(1.0 / n)
            u, phi, (x,) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
            weak = laplace(u, phi, (x,)) - np.pi ** 2 * sin(np.pi * x) * phi
            uh = weak.assemble("fem_system").solve()
            errs.append(l2_error(dom.mesh, uh, exact))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.9), (errs, rates)

    @pytest.mark.parametrize("make", [
        lambda: dm.structured_rect(4, 4), lambda: dm.disk(0.3),
    ])
    def test_affine_gradient_is_exact(self, make):
        # For u = 3x - 2y + 1, int d(u)/dx_d phi_i = g_d * int phi_i, and
        # int phi_i is the lumped nodal measure of the mesh.
        dom = make()
        u, phi, (x, y) = setup_fem(dom, [])
        xy = dom.mesh.vertices
        u_aff = 3 * xy[:, 0] - 2 * xy[:, 1] + 1
        measure = dom.connectivity.nodal_measure
        for var, g in ((x, 3.0), (y, -2.0)):
            weak = u.d(var) * phi
            A = weak.assemble("fem_system").full_matrix
            np.testing.assert_allclose(A @ u_aff, g * measure, atol=1e-12)
            op = weak.assemble("fem_residual")
            np.testing.assert_allclose(op.residual_full(u_aff), g * measure,
                                       atol=1e-12)

    def test_robin_flux_gives_u_equals_x(self):
        # u = 0 on the left, du/dn + u = 2 on the right: u = x.
        dom = dm.structured_rect(4, 4)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("left", 0.0)])
        xr = dom.variable("gauss_right")[0]         # x = 1 on the right
        weak = laplace(u, phi, (x, y)) + xr * u * phi - 2.0 * xr * phi
        exact = dom.mesh.vertices[:, 0]
        uh = weak.assemble("fem_system").solve()
        np.testing.assert_allclose(uh, exact, atol=1e-12)
        op = weak.assemble("fem_residual")
        u_free, norms = fem.newton_solve(op, np.zeros(len(op.setup.free)))
        np.testing.assert_allclose(op.setup.lift(u_free), exact, atol=1e-12)
        assert len(norms) == 2                      # linear: one step

    def test_load_reading_the_time_takes_the_first_grid_time(self):
        dom = dm.structured_rect(6, 6, time=(0.5, 1.0, 4))
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("left", 1.0)])
        t = dom.variable(fem.GAUSS_VOLUME)[-1]
        a = laplace(u, phi, (x, y))
        got, want = ((a - c * sin(np.pi * x) * phi).assemble("fem_system")
                     for c in (1 + t, tr.literal(1.5)))
        np.testing.assert_allclose(got.full_rhs, want.full_rhs, rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-15)
        assert abs(got.A - want.A).max() == 0.0

    def test_fd_coefficient_reads_the_region_points(self):
        # the FD derivative is interpolated at the quadrature points the
        # region binds, before and after the volume tag is resampled
        dom = dm.structured_rect(8, 8)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        c = 1 + tr.derivative(3 * x - 2 * y, x, 1, "finite-difference")
        want = (4.0 * laplace(u, phi, (x, y)) - phi).assemble("fem_system")
        for resample in (False, True):
            if resample:
                dom.sample(fem.GAUSS_VOLUME, 20)
            got = (c * laplace(u, phi, (x, y)) - phi).assemble("fem_system")
            assert abs(got.full_matrix - want.full_matrix).max() < 1e-13

    def test_long_sum_at_default_recursion_limit(self):
        # 1500 summed load terms nest 1500 deep; the term walkers must not
        # recurse (checked at the interpreter's default limit of 1000)
        dom = dm.structured_rect(4, 4)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        many = laplace(u, phi, (x, y))
        for _ in range(1500):
            many = many - 0.001 * phi
        one = laplace(u, phi, (x, y)) - 1.5 * phi
        got, want = (w.assemble("fem_system") for w in (many, one))
        np.testing.assert_allclose(got.full_rhs, want.full_rhs, rtol=0,
                                   atol=1e-12)
        assert abs(got.full_matrix - want.full_matrix).max() == 0.0


class TestVpinn:
    @pytest.mark.parametrize("kind", sorted(MANUFACTURED))
    def test_vanishes_at_galerkin_solution(self, kind):
        dom, weak, uh = MANUFACTURED[kind]()
        assert vpinn_value(dom, weak, uh) < 1e-20
        assert vpinn_value(dom, weak, 1.1 * uh) > 1e-8

    def test_vanishes_with_neumann_term(self):
        dom, weak = neumann_problem()
        uh = weak.assemble("fem_system").solve()
        assert vpinn_value(dom, weak, uh) < 1e-20
        assert vpinn_value(dom, weak, 0.9 * uh) > 1e-8

    def test_constant_load_term(self):
        dom = dm.structured_rect(6, 6)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        weak = laplace(u, phi, (x, y)) - 1.0 * phi
        uh = weak.assemble("fem_system").solve()
        assert vpinn_value(dom, weak, uh) < 1e-20
        assert vpinn_value(dom, weak, np.zeros_like(uh)) > 1e-8

    def test_trial_expression_matches_its_nodal_values(self):
        # P1 holds an affine u exactly, so the residual of the expression
        # 3x - 2y + 1 equals that of its nodal values, a nonlinear term too
        dom = dm.structured_rect(4, 4)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("left", 0.0)])
        weak = laplace(u, phi, (x, y)) + u * u * phi - (1 + x) * phi
        xy = dom.mesh.vertices
        nodal = vpinn_value(dom, weak, 3 * xy[:, 0] - 2 * xy[:, 1] + 1)
        assert nodal > 1e-8
        assert vpinn_value(dom, weak, 3 * x - 2 * y + 1) == pytest.approx(
            nodal, rel=1e-12, abs=0)

    def test_matches_dense_test_weights(self):
        # reference: each term's point values times its dense (n_free, E*nq)
        # matrix of quadrature-weighted test values, summed over the terms
        dom, weak = neumann_problem(16)
        x = dom.variable(fem.GAUSS_VOLUME)[0]
        weak = weak - (2.0 + x) * dom.fem.test
        setup = dom.fem
        xy = dom.mesh.vertices
        nodal = np.sin(3 * xy[:, 0]) * np.cos(2 * xy[:, 1])
        nodal[setup.constrained] = 0.0

        def dense(region, basis, values):
            E, nq = region.weights.shape
            W = np.zeros((setup.num_vertices, E * nq))
            for a in range(region.dofs.shape[1]):
                np.add.at(W, (np.repeat(region.dofs[:, a], nq),
                              np.arange(E * nq)),
                          (region.weights * basis[..., a]).ravel())
            return W[setup.free] @ values.ravel()

        vol, right = setup.regions["fem_gauss"], setup.regions["gauss_right"]
        E, nq = vol.weights.shape
        grad_u = np.einsum("ea,ead->de", nodal[vol.dofs], vol.grads)
        r = -dense(right, right.values[None], right.coords[..., 0])
        r -= dense(vol, vol.values[None], 2.0 + vol.coords[..., 0])
        for d in range(2):
            r += dense(vol, vol.grads[:, None, :, d], np.repeat(grad_u[d], nq))
        want = float(r @ r)

        res = weak.assemble("vpinn", trial=nodal)
        got = float(ev.evaluate(res, ev.EvalContext(domain=dom)).data.sum())
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        # a trial expression is traced: one (n_free, E*nq) operator per
        # term, at most n = 3 entries a column
        y = dom.variable(fem.GAUSS_VOLUME)[1]
        res = weak.assemble("vpinn", trial=3 * x - 2 * y + 1)
        ops = [n.payload for n in tr.walk(res) if n.name == "test_weights"]
        assert len(ops) == 4
        for op in ops:
            assert sp.issparse(op) and op.shape[0] == len(setup.free)
            assert op.nnz <= vol.dofs.shape[1] * op.shape[1]


class TestOperations:
    def test_operation_lowers_like_its_inlined_body(self):
        dom = dm.structured_rect(8, 8)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        p, q = tr.variable("p"), tr.variable("q")
        grad_dot = tr.define_operation([p, q], laplace(p, q, (x, y)))
        called = grad_dot(u, phi) - 1.0 * phi
        inlined = laplace(u, phi, (x, y)) - 1.0 * phi
        got, want = (w.assemble("fem_system") for w in (called, inlined))
        np.testing.assert_allclose(got.full_matrix.toarray(),
                                   want.full_matrix.toarray(), rtol=0,
                                   atol=1e-14)
        np.testing.assert_allclose(got.full_rhs, want.full_rhs, rtol=0,
                                   atol=1e-14)
        nodal = 1.1 * want.solve()
        got, want = (ev.evaluate(w.assemble("vpinn", trial=nodal),
                                 ev.EvalContext(domain=dom)).data
                     for w in (called, inlined))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestNewton:
    # reaction terms r(u, x) of -lap u + r(u, x) = f; sin(x u) reads the
    # coordinates in a trial factor
    REACTION = {"u^3": lambda u, x: u ** 3, "sin(xu)": lambda u, x: sin(x * u)}

    def _op(self, n=8, reaction="u^3"):
        dom = dm.structured_rect(n, n)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        f = 20.0 * sin(np.pi * x) * sin(np.pi * y)
        weak = laplace(u, phi, (x, y)) + self.REACTION[reaction](u, x) * phi \
            - f * phi
        return weak.assemble("fem_residual")

    def test_cubic_converges_quadratically(self):
        op = self._op()
        u, norms = fem.newton_solve(op, np.zeros(len(op.setup.free)))
        assert norms[-1] < 1e-10 and len(norms) >= 4
        for prev, nxt in zip(norms[1:-1], norms[2:]):
            # quadratic until the residual reaches round-off
            assert nxt < max(10.0 * prev ** 2, 1e-13), norms

    def test_divergence_names_iterations_and_norm(self):
        # one step leaves the residual at the second norm of the full solve
        op = self._op()
        u0 = np.zeros(len(op.setup.free))
        _, norms = fem.newton_solve(op, u0)
        with pytest.raises(NewtonDivergence) as exc:
            fem.newton_solve(op, u0, max_iter=1)
        assert exc.value.iterations == 1
        assert exc.value.residual_norm == norms[1] > 1e-10

    def test_u0_of_the_wrong_length(self):
        op = self._op(4)
        n, V = len(op.setup.free), op.setup.num_vertices
        for wrong in (n + 1, V):
            with pytest.raises(TargetMismatch, match=f"{wrong} .* {n}$"):
                fem.newton_solve(op, np.zeros(wrong))

    def test_jacobian_matches_central_differences(self):
        for reaction in self.REACTION:
            op = self._op(4, reaction)
            rng = np.random.default_rng(0)
            u = rng.normal(size=len(op.setup.free))
            np.testing.assert_allclose(op.jacobian(u).toarray(),
                                       central_differences(op, u), atol=1e-7,
                                       err_msg=reaction)

    def test_linear_jacobian_does_not_depend_on_u(self):
        dom, weak = neumann_problem()
        op = weak.assemble("fem_residual")
        rng = np.random.default_rng(4)
        J = [op.jacobian(rng.normal(size=len(op.setup.free))).toarray()
             for _ in range(2)]
        np.testing.assert_array_equal(J[0], J[1])
        np.testing.assert_array_equal(
            J[0], weak.assemble("fem_system").A.toarray())

    def test_trial_factor_reads_the_region_points(self):
        # resampling the volume tag changes the runtime context, not the
        # quadrature points that R and its Jacobian integrate over
        op = self._op(4, "sin(xu)")
        u = np.random.default_rng(3).normal(size=len(op.setup.free))
        before = op(u), op.jacobian(u).toarray()
        op.setup.domain.sample(fem.GAUSS_VOLUME, 20)
        np.testing.assert_array_equal(op(u), before[0])
        np.testing.assert_array_equal(op.jacobian(u).toarray(), before[1])

    def test_quasilinear_jacobian_with_boundary_term(self):
        # (1 + u^2) grad u . grad phi + u^2 x_r phi: partials in d(u, x_d)
        # that depend on u, and a term on the Neumann region
        dom = dm.structured_rect(4, 4)
        u, phi, (x, y) = setup_fem(
            dom, [dom.dirichlet("left", 0.0), dom.neumann("right")]
        )
        xr = dom.variable("gauss_right")[0]
        weak = (1 + u * u) * laplace(u, phi, (x, y)) + u * u * xr * phi \
            - x * phi
        op = weak.assemble("fem_residual")
        u0 = np.random.default_rng(1).normal(size=len(op.setup.free))
        np.testing.assert_allclose(op.jacobian(u0).toarray(),
                                   central_differences(op, u0), atol=1e-7)

    def test_quotient_inside_a_function_is_one_factor(self):
        # exp(-1/u) is a trial factor as a whole: the division by u under
        # exp is not distributed, so it is not rejected as a term
        dom = dm.structured_rect(4, 4)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 1.0)])
        exp = tr.build(tr.ARITH, "exp", (-1.0 / u,))
        weak = laplace(u, phi, (x, y)) + exp * phi - phi
        op = weak.assemble("fem_residual")
        rng = np.random.default_rng(2)
        u0 = 1.0 + 0.1 * rng.normal(size=len(op.setup.free))
        np.testing.assert_allclose(op.jacobian(u0).toarray(),
                                   central_differences(op, u0), atol=1e-7)

    def test_point_mixing_factor_is_rejected(self):
        dom = dm.structured_rect(4, 4)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        weak = laplace(u, phi, (x, y)) + u * u.mean * phi - 1.0 * phi
        op = weak.assemble("fem_residual")
        u0 = np.ones(len(op.setup.free))
        assert np.isfinite(op(u0)).all()
        with pytest.raises(NonDifferentiablePath):
            op.jacobian(u0)


class TestFemTime:
    # stiffness coefficients of the heat form other than 1, as functions of
    # the time node
    STIFFNESS = {"1+0t": lambda t: 1 + 0 * t, "1+10t": lambda t: 1 + 10 * t}

    def _heat(self, source=True, stiffness="1"):
        dom = dm.structured_rect(6, 6)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        t = dom.variable(fem.GAUSS_VOLUME)[-1]
        a = laplace(u, phi, (x, y))
        if stiffness != "1":
            a = self.STIFFNESS[stiffness](t) * a
        weak = u.d(t) * phi + a
        if source:
            weak = weak - (1 + t) * sin(np.pi * x) * phi
        return weak

    def test_backward_euler_decays_one_eigenmode(self):
        weak = self._heat(source=False)
        block = weak.assemble("fem_time")
        lam, vecs = scipy.linalg.eigh(block.A.toarray(), block.M.toarray())
        v = vecs[:, 0]
        dt, steps = 0.01, 5
        traj = weak.assemble("fem_time", state0=v).integrate(dt, steps)
        decay = (1 + dt * lam[0]) ** -np.arange(steps + 1)
        np.testing.assert_allclose(traj, decay[:, None] * v[None], atol=1e-12)

    def test_nonlinear_path_steps_like_the_linear_one(self):
        # a stiffness coefficient that reads the time takes the Newton path
        n = len(self._heat().assemble("fem_time").u0)
        v = np.sin(np.arange(n))
        blocks = [self._heat(stiffness=c).assemble("fem_time", state0=v)
                  for c in ("1", "1+0t")]
        assert [b.linear for b in blocks] == [True, False]
        traj = [b.integrate(0.01, 5) for b in blocks]
        assert np.abs(traj[0][-1] - v).max() > 1e-2
        np.testing.assert_allclose(traj[1], traj[0], rtol=0, atol=1e-12)

    def test_trial_factor_reading_the_time(self):
        # (u + t)^3 phi reads the time in a trial factor; its expansion
        # reads it only in coefficients
        dom = dm.structured_rect(4, 4, time=(0, 1, 10))
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        t = dom.variable(fem.GAUSS_VOLUME)[-1]
        heat = u.d(t) * phi + laplace(u, phi, (x, y))
        forms = [(u + t) ** 3 * phi,
                 (u ** 3 + 3 * t * u ** 2 + 3 * t ** 2 * u + t ** 3) * phi]
        v = np.sin(np.arange(len(dom.fem.free)))
        traj = [(heat + r).assemble("fem_time", state0=v).integrate(0.1, 5)
                for r in forms]
        assert np.abs(traj[0][-1] - v).max() > 1e-2
        np.testing.assert_allclose(traj[0], traj[1], rtol=0, atol=1e-12)

    def test_operator_binds_the_time_per_call(self):
        # (1 + 10t) grad u . grad phi - f phi: R(u, t) = (1 + 10t) A0 u - b
        # and J(u, t) = (1 + 10t) A0, A0 and b from the steady system
        dom = dm.structured_rect(6, 6)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        t = dom.variable(fem.GAUSS_VOLUME)[-1]
        f = sin(np.pi * x) * sin(np.pi * y)
        a = laplace(u, phi, (x, y))
        ref = (a - f * phi).assemble("fem_system")
        op = ((1 + 10 * t) * a - f * phi).assemble("fem_residual")
        assert not op.affine
        v = np.sin(np.arange(len(op.setup.free)))
        for tv in (0.3, 0.7):
            np.testing.assert_allclose(op(v, tv),
                                       (1 + 10 * tv) * (ref.A @ v) - ref.b,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(op.jacobian(v, tv).toarray(),
                                       (1 + 10 * tv) * ref.A.toarray(),
                                       rtol=0, atol=1e-12)

    def test_fem_time_builds_one_steady_operator(self, monkeypatch):
        # one operator for the mass term and one for the steady terms,
        # whatever the number of (Newton) steps
        built = []

        class Counted(fem.ResidualOperator):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(fem, "ResidualOperator", Counted)
        dom = dm.structured_rect(6, 6)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        t = dom.variable(fem.GAUSS_VOLUME)[-1]
        weak = u.d(t) * phi + laplace(u, phi, (x, y)) + u ** 3 * phi \
            - (1 + t) * sin(np.pi * x) * phi
        for steps in (1, 4):
            built.clear()
            block = weak.assemble("fem_time")
            assert not block.linear
            block.integrate(0.01, steps)
            assert len(built) == 2

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_step_needs_a_positive_dt(self, dt):
        block = self._heat().assemble("fem_time")
        with pytest.raises(SingularStepMatrix):
            block.integrate(dt, 1)

    def test_time_dependent_mass_is_refused(self):
        # M is assembled once, so c(t) in c(t) u_t phi would be frozen
        dom = dm.structured_rect(6, 6)
        u, phi, (x, y) = setup_fem(dom, [dom.dirichlet("boundary", 0.0)])
        t = dom.variable(fem.GAUSS_VOLUME)[-1]
        weak = (1 + 10 * t) * u.d(t) * phi + laplace(u, phi, (x, y))
        with pytest.raises(TimeDependentMass):
            weak.assemble("fem_time")

    def test_time_dependent_stiffness_is_not_frozen(self):
        # reference: (M + dt (1 + 10 t_(k+1)) A0) u_(k+1) = M u_k
        A0 = self._heat(source=False).assemble("fem_time").A
        weak = self._heat(source=False, stiffness="1+10t")
        n = A0.shape[0]
        v = np.sin(np.arange(n))
        block = weak.assemble("fem_time", state0=v)
        assert not block.linear
        dt, steps = 0.05, 10
        ref = [v]
        for k in range(steps):
            step = (block.M + dt * (1 + 10 * dt * (k + 1)) * A0).tocsc()
            ref.append(scipy.sparse.linalg.spsolve(step, block.M @ ref[-1]))
        np.testing.assert_allclose(block.integrate(dt, steps), ref,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("linear", [True, False])
    def test_explicit_ode_at_an_eigenpair(self, linear):
        # the stiffness 1 + 10t takes the Newton path and is 1 at t = 0
        block = self._heat(source=False).assemble("fem_time")
        lam, vecs = scipy.linalg.eigh(block.A.toarray(), block.M.toarray())
        stepped = self._heat(source=False, stiffness="1" if linear else
                             "1+10t").assemble("fem_time")
        assert stepped.linear == linear
        rhs = fem.export_explicit_ode(stepped)
        np.testing.assert_allclose(rhs(0.0, vecs[:, 0]),
                                   -lam[0] * vecs[:, 0], rtol=0, atol=1e-10)


class TestErrors:
    @pytest.mark.parametrize("target, option", [
        ("fem_system", "lineer"), ("fem_system", "trial"),
        ("fem_residual", "linear"), ("fem_time", "mode"),
        ("fem_time", "linear"),
        ("vpinn", "state0"),
    ])
    def test_option_the_target_does_not_take(self, target, option):
        dom = dm.structured_rect(2, 2)
        u, phi, (x, y) = setup_fem(dom, [])
        with pytest.raises(TargetMismatch, match=repr(option)):
            (u * phi - phi).assemble(target, **{option: False})

    def test_unknown_dirichlet_tag(self):
        dom = dm.structured_rect(2, 2)
        with pytest.raises(UnknownBcTag):
            dom.init_fem(bcs=[dom.dirichlet("nowhere", 0.0)])

    def test_term_mixing_regions(self):
        dom = dm.structured_rect(2, 2)
        u, phi, (x, y) = setup_fem(dom, [])
        xr = dom.variable("gauss_right")[0]
        with pytest.raises(TargetMismatch):
            (u * phi - x * xr * phi).assemble("fem_system")

    def test_gradient_on_a_boundary_region(self):
        dom = dm.structured_rect(2, 2)
        u, phi, (x, y) = setup_fem(dom, [])
        xr = dom.variable("gauss_right")[0]
        with pytest.raises(TargetMismatch):
            (xr * u.d(x) * phi).assemble("fem_system")

    def test_singular_system_and_jacobian(self):
        weak = pure_neumann_line()
        with pytest.raises(SingularSystem):
            weak.assemble("fem_system").solve()
        op = weak.assemble("fem_residual")
        with pytest.raises(SingularSystem):
            fem.newton_solve(op, np.zeros(len(op.setup.free)))

    @pytest.mark.parametrize("make", [lambda: dm.structured_rect(8, 8),
                                      lambda: dm.cube(0.1)],
                             ids=["rect8", "cube0.1"])
    def test_system_singular_to_rounding(self, make):
        # pure Neumann: the stiffness matrix is singular, but its LU factor
        # only has a pivot at rounding level, with no exact zero
        dom = make()
        u, phi, coords = setup_fem(dom, [])
        weak = laplace(u, phi, coords) - 1.0 * phi
        with pytest.raises(SingularSystem, match="singular to rounding"):
            weak.assemble("fem_system").solve()
        op = weak.assemble("fem_residual")
        with pytest.raises(SingularSystem, match="singular to rounding"):
            fem.newton_solve(op, np.zeros(len(op.setup.free)))

    @pytest.mark.parametrize("stiffness", ["1", "1+0t"])
    def test_singular_step_matrix_and_mass(self, stiffness):
        block = pure_neumann_line(time=True,
                                  stiffness=stiffness).assemble("fem_time")
        assert block.linear == (stiffness == "1")
        with pytest.raises(SingularStepMatrix):
            block.integrate(0.01, 1)
        with pytest.raises(SingularMass):
            fem.export_explicit_ode(block)

    def test_cells_that_are_not_full_dimensional(self):
        # triangles in 3-D: a surface mesh has no volume region
        flat = meshmod.rect_mesh(nx=3, ny=3)
        tilted = np.column_stack([flat.vertices, 0.3 * flat.vertices[:, 0]])
        dom = dm.Domain(meshmod.Mesh(tilted, flat.elements, "TRI3"))
        with pytest.raises(UnsupportedElement, match="full-dimensional"):
            dom.init_fem()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_quadrature_degree_out_of_range(self, k):
        with pytest.raises(UnsupportedElement, match=f"{k}-simplex"):
            fem._reference_rule(k, 4)

    @pytest.mark.parametrize("target", ["fem_residual", "vpinn"])
    @pytest.mark.parametrize("factor, error", [
        ("d(u^2, x)", NonlinearTerm), ("exp(d2(u, x))", NonlinearTerm),
        ("exp(d(u, t))", NonlinearTerm), ("d(u, xy)", UnassembledSymbol),
        ("exp(d(u, xy))", UnassembledSymbol),
    ])
    def test_derivative_of_a_trial_expression(self, target, factor, error):
        # a P1 field carries only u and d(u, x_d): any other derivative of
        # an expression in u would evaluate to zero, and an unsplit
        # variable xy names no direction
        dom = dm.structured_rect(2, 2)
        u, phi, (x, y) = setup_fem(dom, [])
        t = dom.variable(fem.GAUSS_VOLUME)[-1]
        xy = dom.variable(fem.GAUSS_VOLUME, split=False)
        exp = lambda node: tr.build(tr.ARITH, "exp", (node,))  # noqa: E731
        f = {"d(u^2, x)": (u * u).d(x), "exp(d2(u, x))": exp(u.dd(x)),
             "exp(d(u, t))": exp(u.d(t)), "d(u, xy)": u.d(xy),
             "exp(d(u, xy))": exp(u.d(xy))}[factor]
        options = {"trial": np.zeros(dom.mesh.num_vertices)} \
            if target == "vpinn" else {}
        with pytest.raises(error):
            (f * phi).assemble(target, **options)

    @pytest.mark.parametrize("term", ["u u phi", "exp(u) phi",
                                      "u d(u, x) phi", "d(u + x, x) phi"])
    def test_fem_system_refuses_a_nonlinear_term(self, term):
        dom = dm.structured_rect(2, 2)
        u, phi, (x, y) = setup_fem(dom, [])
        exp = tr.build(tr.ARITH, "exp", (u,))
        form = {"u u phi": u * u * phi, "exp(u) phi": exp * phi,
                "u d(u, x) phi": u * u.d(x) * phi,
                "d(u + x, x) phi": (u + x).d(x) * phi}[term]
        with pytest.raises(NonlinearTerm):
            (laplace(u, phi, (x, y)) + form - phi).assemble("fem_system")

    @pytest.mark.parametrize("term", ["u u_t phi", "u_t u phi",
                                      "u_t u_t phi", "exp(u) u_t phi"])
    def test_fem_time_refuses_a_nonlinear_mass(self, term):
        # the mass term's own d(u, t) becomes u, wherever it stands
        dom = dm.structured_rect(2, 2)
        u, phi, (x, y) = setup_fem(dom, [])
        u_t = u.d(dom.variable(fem.GAUSS_VOLUME)[-1])
        exp = tr.build(tr.ARITH, "exp", (u,))
        form = {"u u_t phi": u * u_t * phi, "u_t u phi": u_t * u * phi,
                "u_t u_t phi": u_t * u_t * phi,
                "exp(u) u_t phi": exp * u_t * phi}[term]
        with pytest.raises(NonlinearTerm, match="temporal term"):
            (form + laplace(u, phi, (x, y))).assemble("fem_time")

    def test_second_derivative_of_trial(self):
        dom = dm.structured_rect(2, 2)
        u, phi, (x, y) = setup_fem(dom, [])
        with pytest.raises(NonlinearTerm):
            (u.dd(x) * phi).assemble("fem_system")


class TestRegions:
    def test_weights_sum_to_measure(self):
        dom = dm.structured_rect(4, 3, x_range=(0.0, 2.0))
        dom.init_fem(quad_degree=3)
        sums = {tag: r.weights.sum() for tag, r in dom.fem.regions.items()}
        expected = {"fem_gauss": 2.0, "gauss_left": 1.0, "gauss_right": 1.0,
                    "gauss_bottom": 2.0, "gauss_top": 2.0,
                    "gauss_boundary": 6.0}
        assert sums.keys() == expected.keys()
        for tag, value in expected.items():
            assert sums[tag] == pytest.approx(value, abs=1e-12)

    def test_disk_weights_and_coords(self):
        dom = dm.disk(0.3)
        dom.init_fem()
        vol = dom.fem.regions["fem_gauss"]
        bnd = dom.fem.regions["gauss_boundary"]
        assert vol.weights.sum() == pytest.approx(dom.total_measure(),
                                                  abs=1e-12)
        xy = dom.mesh.vertices
        edges = np.asarray(dom.connectivity.boundary_facets)
        perimeter = np.linalg.norm(xy[edges[:, 1]] - xy[edges[:, 0]], axis=1)
        assert bnd.weights.sum() == pytest.approx(perimeter.sum(), abs=1e-12)
        # points are the P1 interpolant of the vertex coordinates
        for region in (vol, bnd):
            np.testing.assert_allclose(
                region.coords, np.einsum("qa,ead->eqd", region.values,
                                         xy[region.dofs]), atol=1e-14)
        np.testing.assert_array_equal(
            dom.mesh_pool["gauss_boundary"][0, 0], bnd.coords.reshape(-1, 2))

    @pytest.mark.parametrize("make", [
        lambda: dm.structured_rect(4, 4), lambda: dm.disk(0.3),
    ])
    def test_affine_gradient_on_record(self, make):
        dom = make()
        dom.init_fem()
        vol = dom.fem.regions["fem_gauss"]
        xy = dom.mesh.vertices
        u = 3 * xy[:, 0] - 2 * xy[:, 1] + 1
        g = np.einsum("ead,ea->ed", vol.grads, u[vol.dofs])
        np.testing.assert_allclose(g, np.broadcast_to([3.0, -2.0], g.shape),
                                   atol=1e-12)

    def test_line_boundary_points(self):
        dom = dm.line(0.25)
        dom.init_fem()
        left, vol = dom.fem.regions["gauss_left"], dom.fem.regions["fem_gauss"]
        assert left.grads is None and vol.grads.shape == (4, 2, 1)
        np.testing.assert_array_equal(left.weights, [[1.0]])
        np.testing.assert_array_equal(left.coords, [[[0.0]]])
        assert vol.weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_cube_weights_sum_to_volume_and_surface(self):
        dom = dm.cube(0.25)
        dom.init_fem()
        regions = dom.fem.regions
        assert regions["fem_gauss"].weights.sum() == pytest.approx(1.0,
                                                                   abs=1e-14)
        assert regions["gauss_boundary"].weights.sum() == pytest.approx(
            6.0, abs=1e-13)
        for face in ("left", "right", "bottom", "top", "front", "back"):
            assert regions[f"gauss_{face}"].weights.sum() == pytest.approx(
                1.0, abs=1e-14)


class TestReferenceRules:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monomials_up_to_the_degree_are_exact(self, k, degree):
        # the integral of x^a y^b z^c over the reference k-simplex is
        # a! b! c! / (a + b + c + k)!
        pts, w = fem._reference_rule(k, degree)
        for powers in itertools.product(range(degree + 1), repeat=k):
            if sum(powers) > degree:
                continue
            want = np.prod([math.factorial(a) for a in powers]) \
                / math.factorial(sum(powers) + k)
            got = w @ np.prod(pts ** np.array(powers), axis=1)
            assert abs(got - want) <= 1e-16, (powers, got, want)

    def test_triangle_rules_are_the_tabulated_ones(self):
        table = {
            1: ([[1 / 3, 1 / 3]], [0.5]),
            2: ([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]],
                [1 / 6, 1 / 6, 1 / 6]),
            3: ([[1 / 3, 1 / 3], [1 / 5, 1 / 5], [3 / 5, 1 / 5],
                 [1 / 5, 3 / 5]], [-27 / 96, 25 / 96, 25 / 96, 25 / 96]),
        }
        for degree, (pts, w) in table.items():
            got_pts, got_w = fem._reference_rule(2, degree)
            np.testing.assert_array_equal(got_pts, pts)
            np.testing.assert_array_equal(got_w, w)
