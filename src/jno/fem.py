"""Weak-form lowering on P1 simplices: segments, triangles and tetrahedra,
on any mesh whose cells are full-dimensional.

Every integral runs over one *quadrature region*: the volume, or the
boundary facets of one mesh tag.  :func:`_simplex_region` builds each
region from its simplices and a reference rule into one record: the
element->dof map, the quadrature points and weights, the P1 basis values
at the reference points and, on the volume, the physical basis gradients.
The measures and gradients come from each simplex's edge matrix
(:mod:`jno.mesh`), and :func:`_reference_rule` is closed form in the
simplex dimension, so no code branches on the element kind.

:func:`init_fem` registers each region's points in the mesh pool, under
``fem_gauss`` for the volume and ``gauss_<tag>`` for a boundary tag.  A
weak-form term belongs to the region whose pool variables it uses (the
volume when it uses none).

:class:`ResidualOperator` is the one place where terms are integrated, into
one steady operator R(u, t) that binds the time at each call.  It turns
each term into weighted point values wv (E, nq) on its region, sign *
weight * coefficient times what it integrates, on the factored basis
value[e, q, a] = Q[q, a] * G[e, a] of :func:`_basis`.  Its two kernels
read the setup's one element-to-global map: :func:`_vector` applies a test
part's (V, E*nq) ``FemSetup.test_operator`` to wv, and :func:`_matrix`
sums the element blocks sum_q wv Qa[q, a] Qb[q, b] * Ga[e, a] Gb[e, b] into
the data of the fixed CSR ``FemSetup.pattern`` with one bincount.
Every target reads from such an operator, and every right-hand side is
-R(0, t), which carries the Dirichlet lift:

* ``fem_residual``  -> the operator: R(u, t) = matrix u + load + N(u, t),
                       N the terms that are nonlinear or read the time
* ``fem_system``    -> A u = b: A the free block of the matrix, b = -R(0)
* ``fem_time``      -> semi-discrete block M u' + R(u, t) = 0, M the
                       temporal term's matrix: backward Euler from the
                       grid's first time factors M + dt A once if R is
                       affine (R = A u - b(t)), else runs Newton per step
* ``vpinn``         -> ||R_free(u)||^2 for nodal values; for a trial
                       expression, a traced residual: the free rows of
                       each term's test operator, applied with
                       ``T.sparse_matmul`` to its weighted point values

The matrices are scipy.sparse CSR, imported where one is built (in
``FemSetup.test_operator`` and :func:`_matrix`): :func:`init_fem` builds
none, so a program that sets up FEM regions but never assembles does not
pay for scipy.sparse's import, several times numpy's.

Every sparse solve is one SuperLU factorization made by :func:`_factor`.
P1 matrices have a symmetric sparsity pattern, so it orders the columns by
minimum degree on the pattern of A^T + A.  A matrix that is singular, or
singular to rounding (a pivot at most 1e-9 times the largest), raises the
error its caller names: ``SingularSystem`` for a linear system or a Newton
Jacobian, ``SingularStepMatrix`` for a backward-Euler step matrix and
``SingularMass`` for the mass matrix of :func:`export_explicit_ode`.
:func:`newton_solve` and the nonlinear backward-Euler steps share one
Newton loop, :func:`_newton`.
"""

import functools
import itertools
import math
import operator
from collections import namedtuple

import numpy as np

from . import evaluator as ev
from . import mesh as meshmod
from . import tensor as T
from . import trace as tr
from .errors import (
    MultipleTemporalTerms,
    NewtonDivergence,
    NoTemporalTerm,
    NonlinearTerm,
    SingularMass,
    SingularStepMatrix,
    SingularSystem,
    TargetMismatch,
    TimeDependentMass,
    TrialSymbolRemaining,
    UnassembledSymbol,
    UnknownBcTag,
    UnsupportedElement,
)

GAUSS_VOLUME = "fem_gauss"

def _reference_rule(k, degree):
    """Points (nq, k) and weights (summing to 1/k!) on the reference
    k-simplex, exact to `degree` 1, 2 or 3, in closed form for every k.
    Degree 2 is the k + 1 points with barycentric coordinates beta, and
    1 - k beta at one vertex, beta = (1 - 1/sqrt(k+2)) / (k+1); on a
    segment it is two-point Gauss-Legendre, exact to degree 3 too.
    Degrees 1 and 3 are Grundmann & Moller's rules."""
    if degree not in (1, 2, 3):
        raise UnsupportedElement(
            f"quadrature degree {degree} on the {k}-simplex unsupported "
            f"(have 1..3)")
    if degree == 2 or (degree == 3 and k <= 1):
        beta = (1 - 1 / np.sqrt(k + 2)) / (k + 1)
        alpha = (1 + k / np.sqrt(k + 2)) / (k + 1)
        bary = np.where(np.eye(k + 1, dtype=bool), alpha, beta)
        weights = np.full(k + 1, 1 / (math.factorial(k) * (k + 1)))
        return bary[:, 1:], weights
    # Grundmann & Moller (SIAM J. Numer. Anal. 15, 1978), degree d = 2s + 1:
    # weight (-1)^i 2^-2s m^d / (i! (d + k - i)!) at the points with
    # barycentric coordinates (2 b + 1) / m, m = d + k - 2i, for every
    # b in N^(k+1) with |b| = s - i; the centroid (i = s) first
    d, s = degree, (degree - 1) // 2
    bary, weights = [], []
    for i in range(s, -1, -1):
        m = d + k - 2 * i
        # an exact integer quotient, rounded once
        w = (-1) ** i * m ** d \
            / (4 ** s * math.factorial(i) * math.factorial(d + k - i))
        for b in itertools.combinations_with_replacement(range(k + 1), s - i):
            bary.append((2 * np.bincount(b, minlength=k + 1) + 1) / m)
            weights.append(w)
    return np.array(bary)[:, 1:], np.array(weights)


# One quadrature region: dofs (E, n) element->vertex map, coords (E, nq, D),
# weights (E, nq), values (nq, n) P1 basis values, grads (E, n, D) physical
# basis gradients (None on facets), tag = its mesh-pool key.
_Region = namedtuple("_Region", "tag dofs coords weights values grads")


def _simplex_region(tag, verts, cells, ref_pts, ref_w):
    """The quadrature record of P1 simplices `cells` (E, k+1) under the
    reference rule (ref_pts, ref_w) of the k-simplex.  Only the volume
    carries basis gradients, which need full-dimensional cells."""
    J = verts[cells[:, 1:]] - verts[cells[:, :1]]      # (E, k, D)
    k = J.shape[1]
    return _Region(
        tag=tag,
        dofs=cells,
        # C order, so that the point bindings of a region are views
        coords=np.ascontiguousarray(verts[cells[:, :1]] + np.tensordot(
            ref_pts, J, axes=(1, 1)).transpose(1, 0, 2)),
        weights=meshmod.simplex_measures(verts, cells)[:, None]
        * (ref_w * math.factorial(k))[None, :],
        values=np.column_stack([1.0 - ref_pts.sum(axis=1), ref_pts]),
        grads=meshmod.basis_gradients(verts, cells).transpose(2, 0, 1)
        if tag == GAUSS_VOLUME else None,
    )


class Dirichlet:
    def __init__(self, tags, value):
        self.tags = [tags] if isinstance(tags, str) else list(tags)
        self.value = value


class Neumann:
    def __init__(self, tags):
        self.tags = [tags] if isinstance(tags, str) else list(tags)


class FemSetup:
    """Quadrature regions, bc metadata, the field Variables u_h, du_h_0, ...
    that trial factors are lowered to, each mapped to its basis part, and
    the element-to-global map, built on first use: :attr:`pattern` for
    every matrix, :meth:`test_operator` for every vector and field value."""

    def __init__(self, domain, quad_degree, bcs):
        mesh = domain.mesh
        self.domain = domain
        self.quad_degree = int(quad_degree)
        self.trial = tr.build(tr.TRIAL, self, (), name="u")
        self.test = tr.build(tr.TEST, self, (), name="phi")
        self.fields = {tr.variable("u_h"): ("value",)}
        self.fields.update((tr.variable(f"du_h_{d}"), ("grad", d))
                           for d in range(mesh.dim))

        verts = mesh.vertices
        V = mesh.num_vertices
        k = mesh.elements.shape[1] - 1
        self.regions = {GAUSS_VOLUME: _simplex_region(
            GAUSS_VOLUME, verts, mesh.elements,
            *_reference_rule(k, self.quad_degree),
        )}

        # one region per boundary tag: the boundary facets it fully owns
        conn = domain.connectivity
        facets = conn.boundary_facets
        on_boundary = np.zeros(V, dtype=bool)
        on_boundary[conn.boundary_vertices] = True
        facet_rule = _reference_rule(k - 1, self.quad_degree)
        for tag, members in mesh.tags.items():
            inside = np.zeros(V, dtype=bool)
            inside[members] = True
            tagged = facets[inside[facets].all(axis=1)]
            if len(tagged) and on_boundary[members].all():
                key = f"gauss_{tag}"
                self.regions[key] = _simplex_region(key, verts, tagged,
                                                    *facet_rule)

        # Dirichlet constraints
        self.dirichlet_values = {}
        for bc in bcs:
            if isinstance(bc, Dirichlet):
                for tag in bc.tags:
                    if tag not in mesh.tags:
                        raise UnknownBcTag(f"unknown Dirichlet tag {tag!r}")
                    for v in mesh.tags[tag]:
                        x = verts[int(v)]
                        val = bc.value(*x) if callable(bc.value) \
                            else float(bc.value)
                        self.dirichlet_values[int(v)] = val
            elif isinstance(bc, Neumann):
                for tag in bc.tags:
                    if f"gauss_{tag}" not in self.regions:
                        raise UnknownBcTag(
                            f"Neumann tag {tag!r} owns no boundary facets"
                        )
            else:
                raise UnknownBcTag(f"unsupported bc record {bc!r}")

        constrained = sorted(self.dirichlet_values)
        self.constrained = np.asarray(constrained, dtype=np.int64)
        self.constrained_values = np.array(
            [self.dirichlet_values[v] for v in constrained], dtype=np.float64
        )
        mask = np.ones(V, dtype=bool)
        mask[self.constrained] = False
        self.free = np.nonzero(mask)[0]
        self.num_vertices = V
        self._test_operators = {}

    @functools.cached_property
    def pattern(self):
        """(indptr, indices) of the V x V CSR union of every region's
        element blocks, and {tag: each block entry's (E, n, n) position}."""
        V = self.num_vertices
        keys = [r.dofs[:, :, None] * V + r.dofs[:, None, :]
                for r in self.regions.values()]
        flat, where = np.unique(np.concatenate([k.ravel() for k in keys]),
                                return_inverse=True)
        ends = np.cumsum([k.size for k in keys])
        return (np.searchsorted(flat, np.arange(V + 1) * V), flat % V,
                {tag: where[end - k.size:end].reshape(k.shape)
                 for tag, k, end in zip(self.regions, keys, ends)})

    def test_operator(self, region, part):
        """The (V, E*nq) CSR matrix of the basis values Q[q, a] G[e, a] of a
        ("value",) or ("grad", d) part at the region's points: row i is
        vertex i's hat function, or its gradient component, at each point."""
        key = region.tag, part
        if key not in self._test_operators:
            import scipy.sparse as sp

            (E, nq), n = region.weights.shape, region.dofs.shape[1]
            Q, G = _basis(region, part)
            values = np.broadcast_to(Q[None] * G[:, None, :], (E, nq, n))
            self._test_operators[key] = sp.csc_matrix(
                (values.ravel(), np.repeat(region.dofs, nq, axis=0).ravel(),
                 np.arange(0, values.size + 1, n)),
                shape=(self.num_vertices, E * nq)).tocsr()
        return self._test_operators[key]

    def lift(self, u_free):
        """Expand free-dof values, or one value for every free dof, to the
        full vertex vector."""
        u = np.asarray(u_free, dtype=np.float64)
        if u.ndim and u.size != len(self.free):
            raise TargetMismatch(
                f"free-dof vector of length {u.size} does not match the free "
                f"dof count {len(self.free)}")
        full = np.zeros(self.num_vertices)
        full[self.free] = u.reshape(-1)
        full[self.constrained] = self.constrained_values
        return full

    def restrict(self, u_full):
        return np.asarray(u_full, dtype=np.float64).reshape(-1)[self.free]


def init_fem(domain, quad_degree=2, bcs=()):
    setup = FemSetup(domain, quad_degree, bcs)
    domain.fem = setup
    for tag, region in setup.regions.items():
        domain.add_points(tag, region.coords.reshape(-1, domain.mesh.dim))
    return setup


def fem_symbols(domain):
    if domain.fem is None:
        raise UnassembledSymbol("call init_fem() before fem_symbols()")
    return domain.fem.trial, domain.fem.test


# ---------------------------------------------------------------------------
# Term expansion and classification
# ---------------------------------------------------------------------------

_SYMBOLS = (tr.TRIAL, tr.TEST)
_DISTRIBUTING = ("add", "sub", "neg", "mul", "div")


def _distributes(node):
    return node.kind == tr.ARITH and node.payload in _DISTRIBUTING


def _expand(weak):
    """(the FemSetup of its symbols, {node: frozenset of the symbol kinds
    at or below it}, the terms of `weak` as (sign, [factor nodes])).
    Products are distributed over the sums that `weak` reaches through
    add/sub/neg/mul/div; any other node (exp, a derivative, ...) is one
    factor.  Both passes run over `tr.toposort`, so nothing recurses."""
    order = tr.toposort(weak)
    spread = {weak}
    for node in reversed(order):
        if node in spread and _distributes(node):
            spread.update(node.children)

    setup = None
    symbols, terms = {}, {}
    for node in order:
        kids = node.children
        own = (node.kind,) if node.kind in _SYMBOLS else ()
        if own:
            setup = node.payload
        syms = symbols[node] = frozenset(own).union(
            *(symbols[c] for c in kids))
        if node not in spread:
            continue
        if not syms or not _distributes(node):
            terms[node] = [(1.0, [node])]
            continue
        op = node.payload
        if op == "add":
            out = terms[kids[0]] + terms[kids[1]]
        elif op == "sub":
            out = terms[kids[0]] + [(-s, f) for s, f in terms[kids[1]]]
        elif op == "neg":
            out = [(-s, f) for s, f in terms[kids[0]]]
        elif op == "mul":
            out = [(sl * sr, fl + fr) for sl, fl in terms[kids[0]]
                   for sr, fr in terms[kids[1]]]
        else:
            if symbols[kids[1]]:
                raise NonlinearTerm("division by trial/test is not assemblable")
            inv = tr.literal(1.0) / kids[1]
            symbols[inv] = frozenset()
            out = [(s, f + [inv]) for s, f in terms[kids[0]]]
        terms[node] = out
    if setup is None:
        raise UnassembledSymbol("weak form contains no trial/test symbols")
    return setup, symbols, terms[weak]


class _Term:
    __slots__ = ("sign", "coeff", "timed", "trial", "dt", "test_part",
                 "region")

    def __init__(self, sign):
        self.sign = sign
        self.coeff = []        # coefficient factor nodes that omit the time
        self.timed = []        # coefficient factor nodes that read the time
        self.trial = []        # trial factor nodes
        self.dt = None         # the factor d(u, t) of a temporal term
        self.test_part = None  # ("value",) | ("grad", d)
        self.region = None     # the _Region the term integrates over


def _classify_term(setup, sign, factors, symbols):
    term = _Term(sign)
    for f in factors:
        has_trial = tr.TRIAL in symbols[f]
        has_test = tr.TEST in symbols[f]
        if has_trial and has_test:
            raise NonlinearTerm(
                "a single factor mixes trial and test symbols"
            )
        if has_test:
            if term.test_part is not None:
                raise TargetMismatch("term is nonlinear in the test symbol")
            term.test_part = _symbol_part(setup, f, tr.TEST)
            if term.test_part == ("dt",):
                raise TargetMismatch("temporal derivative of the test symbol")
        elif has_trial:
            if _symbol_part(setup, f, tr.TRIAL) == ("dt",):
                term.dt = f
            term.trial.append(f)
        else:
            (term.timed if _reads_time(setup, f) else term.coeff).append(f)
    if term.test_part is None:
        raise TargetMismatch(
            "every weak-form term needs exactly one test factor"
        )
    term.region = _term_region(setup, factors)
    if term.region.grads is None and (
            term.test_part[0] == "grad"
            or any(_trial_derivatives(setup, factors))):
        raise TargetMismatch(
            "boundary terms support only symbol values (no tangential "
            "gradients)"
        )
    return term


def _symbol_part(setup, factor, symbol_kind):
    """The part ("value",), ("grad", i) or ("dt",) that `factor` is of the
    symbol: u, d(u, x_i) or d(u, t); None for another trial expression."""
    if factor.kind == symbol_kind:
        return ("value",)
    if factor.kind == tr.DERIVATIVE:
        child, wrt = factor.children
        order = factor.payload[0]
        if child.kind == symbol_kind:
            spec = setup.domain.binding_spec(wrt)
            if spec is None or spec[0] not in ("coord", "time"):
                raise UnassembledSymbol(
                    f"derivative of {child.kind} w.r.t. {wrt.name!r}, "
                    "which is neither a coordinate nor the time"
                )
            if spec[0] == "time":
                if order != 1:
                    raise TargetMismatch(
                        "only first-order temporal derivatives assemble"
                    )
                return ("dt",)
            if order != 1:
                raise NonlinearTerm(
                    "P1 elements carry no second derivatives; integrate by "
                    "parts before assembling"
                )
            return ("grad", spec[2])
    if symbol_kind == tr.TEST:
        raise TargetMismatch(
            "test symbol may only appear as phi or d(phi, x_i)"
        )
    return None


def _reads_time(setup, node):
    """Whether a time variable appears under `node`."""
    specs = map(setup.domain.binding_spec, tr.walk(node))
    return any(spec is not None and spec[0] == "time" for spec in specs)


def _trial_derivatives(setup, roots):
    """(node, d) for each node d(u, x_d) under `roots`."""
    for node in tr.walk(roots):
        if node.kind == tr.DERIVATIVE and node.children[0] is setup.trial:
            part = _symbol_part(setup, node, tr.TRIAL)
            if part[0] == "grad":
                yield node, part[1]


def _lower(setup, term):
    """The product of the coefficient factors of `term` that read the time
    and of its trial factors, with u replaced by the field u_h, each
    d(u, x_d) by du_h_d and the term's own factor d(u, t), if it is
    temporal, by u_h; the literal 1 if it has neither.  Any other
    derivative that reads u raises a typed error: a P1 field carries only
    u and its first derivatives in space."""
    u_h, *grads = setup.fields
    mapping = {setup.trial: u_h}
    if term.dt is not None:
        mapping[term.dt] = u_h
    for node, d in _trial_derivatives(setup, term.trial):
        mapping[node] = grads[d]
    lowered = [tr.substitute(f, mapping) for f in term.trial]
    reads = set(setup.fields)
    for node in tr.toposort(lowered):
        if any(c in reads for c in node.children):
            reads.add(node)
            if node.kind == tr.DERIVATIVE:
                raise NonlinearTerm("a P1 field carries only u and its "
                                    "first derivatives in space")
    factors = term.timed + lowered
    return functools.reduce(operator.mul, factors) if factors \
        else tr.literal(1.0)


def _term_region(setup, factors):
    """The region whose pool variables the factors use (the volume if none)."""
    tags = set()
    for node in tr.walk(factors):
        if node.kind == tr.VARIABLE:
            spec = setup.domain.binding_spec(node)
            if spec and spec[0] in ("coord", "full") \
                    and spec[1] in setup.regions:
                tags.add(spec[1])
    if len(tags) > 1:
        raise TargetMismatch(
            f"one term mixes quadrature regions: {sorted(tags)}"
        )
    return setup.regions[tags.pop() if tags else GAUSS_VOLUME]


def _group(weak):
    """(setup, the classified terms of `weak`)."""
    setup, symbols, raw = _expand(weak)
    return setup, [_classify_term(setup, s, f, symbols) for s, f in raw]


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------

def _region_context(setup, region, t=None, fields=None):
    """A context that binds the region's coordinate variables to its points,
    the time variables to `t` at each of them (by default the first time of
    the domain's grid) and the field Variables to their values `fields`."""
    domain = setup.domain
    if t is None:
        t = domain.time_grid[0]
    coords = region.coords.reshape(1, 1, -1, region.coords.shape[-1])
    return ev.EvalContext({**domain.point_bindings(region.tag, coords, time=t),
                           **(fields or {})}, domain)


def _basis(region, part):
    """Factors (Q, G) of the basis values of a ("value",) or ("grad", d)
    part at the region's points, value[e, q, a] = Q[q, a] * G[e, a]: P1
    values vary over the points only, P1 gradients over the cells only."""
    if part[0] == "value":
        return region.values, np.ones((1, region.values.shape[1]))
    return np.ones((region.values.shape[0], 1)), region.grads[:, :, part[1]]


def _weights(setup, term):
    """sign * quadrature weight * the product of the coefficient factors
    of `term` that omit the time, at its region's points, (E, nq)."""
    ctx = _region_context(setup, term.region)
    weights = term.region.weights
    c = T.ones((1, 1, weights.size, 1))
    for f in term.coeff:
        c = T.mul(c, ev.evaluate(f, ctx))
    return term.sign * (weights * c.data.reshape(weights.shape))


def _matrix(setup, pieces, base=None):
    """One full V x V CSR matrix on the setup's pattern from the bilinear
    pieces (region, test part, trial part, wv (E, nq)): the element blocks
    sum_q wv[e, q] Qa[q, a] Qb[q, b] * Ga[e, a] Gb[e, b], summed at their
    positions, onto a copy of the data `base` of a matrix on that pattern
    if it is given."""
    import scipy.sparse as sp

    indptr, indices, positions = setup.pattern
    data = np.zeros(len(indices)) if base is None else base.copy()
    for region, test_part, trial_part, wv in pieces:
        Qa, Ga = _basis(region, test_part)
        Qb, Gb = _basis(region, trial_part)
        QQ = Qa[:, :, None] * Qb[:, None, :]
        m = (wv @ QQ.reshape(len(QQ), -1)).reshape((-1,) + QQ.shape[1:]) \
            * (Ga[:, :, None] * Gb[:, None, :])
        data += np.bincount(positions[region.tag].ravel(), m.ravel(),
                            minlength=len(data))
    V = setup.num_vertices
    return sp.csr_matrix((data, indices, indptr), shape=(V, V))


def _vector(setup, pieces):
    """One full-length vector from the pieces (region, test part, wv): the
    part's test operator applied to the weighted point values wv."""
    return sum((setup.test_operator(region, part) @ wv.ravel()
                for region, part, wv in pieces), np.zeros(setup.num_vertices))


def _reduce(setup, A_full):
    """The free x free block of a full matrix.  No Dirichlet lift is formed
    here: -R(0, t) carries it, since u = 0 lifts to the Dirichlet values."""
    return A_full[setup.free][:, setup.free]


def _fields(setup, region, u_full, fields):
    """{field Variable: its value at the region's quadrature points} for
    the Variables `fields`, as (1, 1, E*nq, 1) tensors of the nodal values
    `u_full`: the transposed test operator of the field's part."""
    return {f: T.Tensor((setup.test_operator(region, setup.fields[f]).T
                         @ u_full).reshape(1, 1, -1, 1))
            for f in fields}


def _factor(A, error):
    """The `solve` of a SuperLU factorization of the square sparse `A`,
    with its columns ordered by minimum degree on the pattern of A^T + A;
    `error` if A is singular, or its smallest pivot |U_ii| is at most 1e-9
    times the largest."""
    # imported here: scipy.sparse.linalg, and scipy.linalg with it, take
    # about 0.1 s to import, which importing jno does not pay
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise error(str(exc)) from None
    pivots = np.abs(lu.U.diagonal())
    if pivots.size and pivots.min() <= 1e-9 * pivots.max():
        raise error(f"matrix is singular to rounding: smallest/largest "
                    f"pivot {pivots.min() / pivots.max():.1e}")
    return lu.solve


def _newton(F, jacobian, u, tol, max_iter, singular):
    """Newton iteration on F(u) = 0 from `u`, each step a solve with
    jacobian(u) (`singular` if it is singular); returns (u, residual_norms).
    NewtonDivergence if the norm is not below `tol` after max_iter steps."""
    norms = []
    for k in range(max_iter + 1):
        r = F(u)
        norms.append(float(np.linalg.norm(r)))
        if norms[-1] < tol:
            return u, norms
        if k < max_iter:
            u = u + _factor(jacobian(u), singular)(-r)
    raise NewtonDivergence(max_iter, norms[-1])


class LinearSystem:
    """The system A u = b of an affine residual operator at the default
    time, R(u) = A u - b over the free dofs: `full_matrix`, the operator's
    matrix, and `full_rhs` = -R(0) over every vertex, and A, the free block
    of that matrix, and b = -R(0) over the free dofs.  There u = 0 lifts to
    the Dirichlet values, so b carries the lift."""

    def __init__(self, op):
        if not op.affine:
            raise NonlinearTerm(
                "fem_system needs terms at most linear in the trial symbol, "
                "whose coefficients do not read the time")
        self.setup = op.setup
        self.full_matrix = op.matrix
        self.full_rhs = -op.residual_full(np.zeros(op.setup.num_vertices))
        self.A = _reduce(op.setup, op.matrix)
        self.b = -op(0)

    def solve(self):
        return self.setup.lift(_factor(self.A, SingularSystem)(self.b))


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

# the options each target takes
_OPTIONS = {
    "fem_system": (), "fem_residual": (), "fem_time": ("state0",),
    "vpinn": ("trial",),
}


def assemble(weak, target, **options):
    if target not in _OPTIONS:
        raise TargetMismatch(f"unknown assembly target {target!r}")
    for name in options:
        if name not in _OPTIONS[target]:
            raise TargetMismatch(f"{target} takes no option {name!r}")
    setup, terms = _group(weak)
    temporal = [t for t in terms if t.dt is not None]
    steady = [t for t in terms if t.dt is None]

    if target == "fem_time":
        return assemble_fem_time(setup, temporal, steady,
                                 state0=options.get("state0"))
    if temporal:
        raise TargetMismatch(
            f"{target} expects a steady form; use target='fem_time'"
        )
    if target == "fem_system":
        return LinearSystem(ResidualOperator(setup, steady))
    if target == "fem_residual":
        return ResidualOperator(setup, steady)
    trial = options.get("trial")
    if trial is None:
        raise TargetMismatch("vpinn needs trial=<expression or nodal values>")
    return assemble_vpinn(setup, steady, trial)


class ResidualOperator:
    """R(u, t) over free dofs, and its Jacobian: the one place where
    weak-form terms are integrated.  The time t is bound at each call; None
    means the first time of the domain's grid.

    Each term's trial factors and the coefficient factors that read the
    time are lowered here, once, to a product over the setup's fields
    (:func:`_lower`), which decides the term's kind.  Loads (the product is
    the literal 1) are integrated here into the full vector `load`, and
    terms linear in one field (the product is that field) into the full
    V x V `matrix` against the field's basis part.  Any other term is
    evaluated at each call: its product for R, and for the Jacobian the
    nodes d(product, field) of the fields it reads, by AD in one Jet push
    (NonDifferentiablePath if the product mixes points).  So R(u, t) =
    matrix u + load + N(u, t) and J(u, t) = matrix + N'(u, t).  The
    operator is `affine` when no per-call term reads a field: then J is
    the matrix and R(u, t) = matrix u + R(0, t).  Coefficients and
    products see the region's own points."""

    def __init__(self, setup, terms):
        self.setup = setup
        linear, loads = [], []
        # (term, wv as a (1, 1, E*nq, 1) column, which broadcasts with point
        # values, product, {field read: partial node}), and {region tag: the
        # fields that its per-call terms read}
        self.per_call, self.reads = [], {}
        for term in terms:
            product = _lower(setup, term)
            if product is tr.literal(1.0):
                loads.append(term)
            elif product in setup.fields:
                linear.append((term, setup.fields[product]))
            else:
                reads = set(tr.walk(product))
                wv = _weights(setup, term).reshape(1, 1, -1, 1)
                partials = {f: tr.d(product, f)
                            for f in setup.fields if f in reads}
                self.per_call.append((term, wv, product, partials))
                self.reads.setdefault(term.region.tag, set()).update(partials)
        self.matrix = _matrix(setup, [
            (t.region, t.test_part, part, _weights(setup, t))
            for t, part in linear])
        self.load = _vector(setup, [
            (t.region, t.test_part, _weights(setup, t)) for t in loads])
        self.affine = not any(self.reads.values())

    def _contexts(self, u_full, t):
        """{region tag: its context at `t`, with the fields of `u_full`
        that its per-call terms read}."""
        setup = self.setup
        return {tag: _region_context(
                    setup, setup.regions[tag], t,
                    _fields(setup, setup.regions[tag], u_full, fields))
                for tag, fields in self.reads.items()}

    def residual_full(self, u_full, t=None):
        if np.shape(u_full) != (self.setup.num_vertices,):
            raise TargetMismatch(
                f"nodal vector of shape {np.shape(u_full)} does not match "
                f"the vertex count {self.setup.num_vertices}")
        ctxs = self._contexts(u_full, t)
        return self.matrix @ u_full + self.load + _vector(self.setup, [
            (term.region, term.test_part,
             w * ev.evaluate(p, ctxs[term.region.tag]).data)
            for term, w, p, _ in self.per_call])

    def __call__(self, u_free, t=None):
        u_full = self.setup.lift(u_free)
        return self.residual_full(u_full, t)[self.setup.free]

    def jacobian(self, u_free, t=None):
        setup = self.setup
        ctxs, pieces = self._contexts(setup.lift(u_free), t), []
        for term, w, _, partials in self.per_call:
            values = ev.evaluate(tuple(partials.values()),
                                 ctxs[term.region.tag])
            pieces += [(term.region, term.test_part, setup.fields[f],
                        (w * df.data).reshape(term.region.weights.shape))
                       for f, df in zip(partials, values)]
        return _reduce(setup, _matrix(setup, pieces, base=self.matrix.data))


def newton_solve(op, u0, tol=1e-10, max_iter=10):
    """Newton iteration on R(u) = 0 from the free-dof values `u0`; returns
    (u, residual_norms)."""
    u = np.array(u0, dtype=np.float64).reshape(-1)
    return _newton(op, op.jacobian, u, tol, max_iter, SingularSystem)


# ---------------------------------------------------------------------------
# vpinn
# ---------------------------------------------------------------------------

def assemble_vpinn(setup, terms, trial):
    """Sum over the free dofs' hat-function tests of the squared weak
    residual: for nodal values (free or full), the constant
    ||R_free(u)||^2 of the residual operator; for a trial expression, a
    traced residual, tested by the free rows of each term's test
    operator."""
    if not isinstance(trial, tr.ExprNode):
        nodal = np.asarray(trial, dtype=np.float64)
        u_full = nodal if len(nodal) == setup.num_vertices \
            else setup.lift(nodal)
        r = ResidualOperator(setup, terms).residual_full(u_full)[setup.free]
        return tr.constant(np.full((1, 1), r @ r))

    r = None
    for term in terms:
        W = setup.test_operator(term.region, term.test_part)[setup.free]
        # start from the signed quadrature weights, so that every piece, a
        # constant one too, spans the whole point axis of W
        s_expr = tr.constant(
            term.sign * term.region.weights.reshape(1, 1, -1, 1))
        factors = [tr.substitute(f, {setup.trial: trial}) for f in term.trial]
        for f in term.coeff + term.timed + factors:
            s_expr = s_expr * f

        for node in tr.walk(s_expr):
            if node.kind in _SYMBOLS:
                raise TrialSymbolRemaining(
                    "trial/test symbol remains after vpinn substitution"
                )

        piece = tr.matmul_nodes(tr.constant(W, name="test_weights"), s_expr)
        r = piece if r is None else r + piece
    return (r * r).reduce("sum", axes=(-2, -1))


# ---------------------------------------------------------------------------
# fem_time
# ---------------------------------------------------------------------------

class TimeBlock:
    """Semi-discrete block over free dofs, M u' + R(u, t) = 0, with R the
    steady operator `residual` and its Jacobian `jacobian`.  A block is
    `linear` when that operator is affine: then R(u, t) = A u - b(t), with
    A the free block of the operator's matrix and b(t) = -R(0, t)."""

    def __init__(self, setup, M, u0, op):
        self.setup, self.M, self.u0 = setup, M, u0
        self.residual, self.jacobian = op, op.jacobian
        self.linear = op.affine
        self.A = _reduce(setup, op.matrix) if self.linear else None

    def b(self, t):
        """-R(0, t) over the free dofs, the right-hand side of a linear
        block at time t."""
        return -self.residual(0, t)

    def integrate(self, dt, steps):
        """Backward-Euler trajectory from u0 at the first time t0 of the
        domain's grid, (steps+1, n_free) incl. u0.  A linear block factors
        M + dt A once; otherwise each step solves M (w - u_n) / dt +
        R(w, t_(n+1)) = 0 for w by Newton from u_n."""
        if dt <= 0:
            raise SingularStepMatrix("dt must be positive")
        t0 = self.setup.domain.time_grid[0]
        out = [np.asarray(self.u0, dtype=np.float64)]
        if self.linear:
            solve = _factor(self.M + dt * self.A, SingularStepMatrix)
        for k in range(int(steps)):
            t, u = t0 + dt * (k + 1), out[-1]
            if self.linear:
                w = solve(self.M @ u + dt * self.b(t))
            else:
                w = _newton(
                    lambda w: self.M @ (w - u) / dt + self.residual(w, t),
                    lambda w: self.M / dt + self.jacobian(w, t),
                    u, 1e-10, 25, SingularStepMatrix)[0]
            out.append(w)
        return np.asarray(out)


def assemble_fem_time(setup, temporal, steady, state0=None):
    """The block of M u' + R(u, t) = 0: M the matrix of the temporal
    term's operator, where d(u, t) is lowered to u, and R the operator of
    the steady terms, which binds t at each call."""
    if not temporal:
        raise NoTemporalTerm(
            "fem_time needs exactly one temporal-derivative term"
        )
    if len(temporal) > 1:
        raise MultipleTemporalTerms(
            f"found {len(temporal)} temporal terms; expected one"
        )
    if temporal[0].timed:
        # M is assembled once; c(t) would be frozen at the first time value
        raise TimeDependentMass(
            "the coefficient c of the temporal term c * u_t * phi must not "
            "read the time")
    mass = ResidualOperator(setup, temporal)
    if not mass.affine:
        raise NonlinearTerm("the temporal term must be linear: c * u_t * phi")

    free = setup.free
    if state0 is None:
        u0 = np.zeros(len(free))
    else:
        state0 = np.asarray(state0, dtype=np.float64).reshape(-1)
        u0 = setup.restrict(state0) if len(state0) == setup.num_vertices \
            else state0
        if len(u0) != len(free):
            raise TargetMismatch(
                f"state0 length {len(state0)} matches neither free dof "
                f"count {len(free)} nor vertex count {setup.num_vertices}"
            )
    return TimeBlock(setup, _reduce(setup, mass.matrix), u0,
                     ResidualOperator(setup, steady))


def export_explicit_ode(block):
    """RHS callback u' = -M^{-1} R(u, t); M factorized once."""
    solve = _factor(block.M, SingularMass)
    return lambda t, u: solve(-block.residual(u, t))
