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
volume when it uses none).  Every target turns a term into weighted point
values wv (E, nq) on its region, sign * weight * coefficient times what
the target needs, and integrates them on the factored basis
value[e, q, a] = Q[q, a] * G[e, a] of :func:`_basis` with one of two
kernels: :func:`_vector` sums the element vectors (wv @ Q) * G of a test
part, :func:`_matrix` scatters the element blocks
sum_q wv Qa[q, a] Qb[q, b] * Ga[e, a] Gb[e, b] of a test and a trial part.

* ``fem_system``    -> linear system (A, b) with Dirichlet elimination
* ``fem_residual``  -> residual operator R(u), wv times the trial factors
                       lowered to a graph over field Variables u and
                       d(u, x_d).  The Jacobian is the bilinear form of its
                       partials, d(product, field) by the evaluator's AD,
                       against the trial parts ("value",) and ("grad", d)
* ``fem_time``      -> semi-discrete block M u' + R(u, t) = 0 for
                       backward-Euler stepping: R = A u - b(t) with A
                       factored once if the form is linear in u with
                       time-independent coefficients, else Newton per step
* ``vpinn``         -> traced residual against the nodal hat test set: each
                       term's test integrals are one constant (n_free, E*nq)
                       CSR operator, applied with ``T.sparse_matmul``

Every sparse solve is one SuperLU factorization made by :func:`_factor`.
P1 matrices have a symmetric sparsity pattern, so it orders the columns by
minimum degree on the pattern of A^T + A.  A singular matrix raises the
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
import scipy.sparse as sp

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
    """Quadrature regions, bc metadata, the dof map and the field
    Variables u, d(u, x_0), ... that trial factors are lowered to."""

    def __init__(self, domain, quad_degree, bcs):
        mesh = domain.mesh
        self.domain = domain
        self.quad_degree = int(quad_degree)
        self.trial = tr.build(tr.TRIAL, self, (), name="u")
        self.test = tr.build(tr.TEST, self, (), name="phi")
        self.fields = [tr.variable("u_h")] + [
            tr.variable(f"du_h_{d}") for d in range(mesh.dim)]

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

    def lift(self, u_free):
        """Expand free-dof values to the full vertex vector."""
        full = np.zeros(self.num_vertices)
        full[self.free] = np.asarray(u_free, dtype=np.float64).reshape(-1)
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
    __slots__ = ("sign", "coeff", "trial_parts", "test_part", "region",
                 "temporal")

    def __init__(self, sign):
        self.sign = sign
        self.coeff = []        # coefficient factor nodes
        # parts end with their factor node:
        # ("value", f) | ("grad", d, f) | ("expr", f)
        self.trial_parts = []
        self.test_part = None  # ("value", f) | ("grad", d, f)
        self.region = None     # the _Region the term integrates over
        self.temporal = False  # d(u, t) is kept as its ("value", f) part


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
            if term.test_part[0] == "dt":
                raise TargetMismatch("temporal derivative of the test symbol")
        elif has_trial:
            part = _symbol_part(setup, f, tr.TRIAL)
            if part[0] == "dt":
                term.temporal = True
                part = ("value", f)
            term.trial_parts.append(part)
        else:
            term.coeff.append(f)
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
    """Recognize u, d(u, x_i), d(u, t) (and arbitrary trial expressions)."""
    if factor.kind == symbol_kind:
        return ("value", factor)
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
                return ("dt", factor)
            if order != 1:
                raise NonlinearTerm(
                    "P1 elements carry no second derivatives; integrate by "
                    "parts before assembling"
                )
            return ("grad", spec[2], factor)
    if symbol_kind == tr.TEST:
        raise TargetMismatch(
            "test symbol may only appear as phi or d(phi, x_i)"
        )
    return ("expr", factor)


def _trial_derivatives(setup, roots):
    """(node, d) for each node d(u, x_d) under `roots`."""
    for node in tr.walk(roots):
        if node.kind == tr.DERIVATIVE and node.children[0] is setup.trial:
            part = _symbol_part(setup, node, tr.TRIAL)
            if part[0] == "grad":
                yield node, part[1]


def _lower(setup, factors, fields):
    """The trial `factors` with u replaced by fields[0] and each d(u, x_d)
    by fields[1 + d].  Any other derivative that reads u raises a typed
    error: a P1 field carries only u and its first derivatives in space."""
    mapping = {setup.trial: fields[0]}
    for node, d in _trial_derivatives(setup, factors):
        mapping[node] = fields[1 + d]
    lowered = [tr.substitute(f, mapping) for f in factors]
    reads = set(fields)
    for node in tr.toposort(lowered):
        if any(c in reads for c in node.children):
            reads.add(node)
            if node.kind == tr.DERIVATIVE:
                raise NonlinearTerm("a P1 field carries only u and its "
                                    "first derivatives in space")
    return lowered


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


def _trial_degree(term):
    deg = 0
    for part in term.trial_parts:
        if part[0] in ("value", "grad"):
            deg += 1
        else:
            return None  # nonlinear / unknown degree
    return deg


def _split_linear(terms):
    """(bilinear terms, trial-free terms); None if a term is neither."""
    degrees = [_trial_degree(t) for t in terms]
    if any(d not in (0, 1) for d in degrees):
        return None
    return ([t for t, d in zip(terms, degrees) if d == 1],
            [t for t, d in zip(terms, degrees) if d == 0])


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------

def _region_context(setup, region, time_value=None):
    """A context that binds the region's coordinate variables to its points
    and the time variables to `time_value` (by default the first time of
    the domain's grid, or 0)."""
    domain = setup.domain
    if time_value is None:
        time_value = 0.0 if domain.time_grid is None else domain.time_grid[0]
    coords = region.coords.reshape(1, 1, -1, region.coords.shape[-1])
    return ev.EvalContext(
        domain.point_bindings(region.tag, coords, time=time_value), domain)


def _basis(region, part):
    """Factors (Q, G) of the basis values of a ("value",) or ("grad", d)
    part at the region's points, value[e, q, a] = Q[q, a] * G[e, a]: P1
    values vary over the points only, P1 gradients over the cells only."""
    if part[0] == "value":
        return region.values, np.ones((1, region.values.shape[1]))
    return np.ones((region.values.shape[0], 1)), region.grads[:, :, part[1]]


def _weights(setup, term, time_value=None):
    """sign * quadrature weight * the product of the coefficient factors
    of `term` at its region's points, (E, nq)."""
    ctx = _region_context(setup, term.region, time_value)
    weights = term.region.weights
    c = T.ones((1, 1, weights.size, 1))
    for f in term.coeff:
        c = T.mul(c, ev.evaluate(f, ctx))
    return term.sign * (weights * c.data.reshape(weights.shape))


def _linear_pieces(setup, terms, time_value=None):
    """The kernel pieces of terms at most linear in the trial symbol:
    (region, test part, [trial part,] weighted point values)."""
    return [(t.region, t.test_part, *t.trial_parts[:1],
             _weights(setup, t, time_value)) for t in terms]


def _matrix(setup, pieces):
    """One full V x V CSR matrix from the bilinear pieces (region, test
    part, trial part, wv (E, nq)): the element blocks
    sum_q wv[e, q] Qa[q, a] Qb[q, b] * Ga[e, a] Gb[e, b], scattered."""
    local = {}
    for region, test_part, trial_part, wv in pieces:
        Qa, Ga = _basis(region, test_part)
        Qb, Gb = _basis(region, trial_part)
        QQ = Qa[:, :, None] * Qb[:, None, :]
        m = (wv @ QQ.reshape(len(QQ), -1)).reshape((-1,) + QQ.shape[1:]) \
            * Ga[:, :, None] * Gb[:, None, :]
        local[region.tag] = local.get(region.tag, 0.0) + m
    return _scatter(setup, local)


def _vector(setup, pieces):
    """One full-length vector from the pieces (region, test part,
    wv (E, nq)): the element vectors (wv @ Q) * G, summed at their dofs."""
    out = np.zeros(setup.num_vertices)
    for region, test_part, wv in pieces:
        Q, G = _basis(region, test_part)
        out += np.bincount(region.dofs.ravel(), ((wv @ Q) * G).ravel(),
                           minlength=setup.num_vertices)
    return out


def _scatter(setup, local):
    """Sum element matrices {region tag: (E, n, n)} into a full V x V CSR
    matrix."""
    V = setup.num_vertices
    if not local:
        return sp.csr_matrix((V, V))
    dofs = [setup.regions[tag].dofs for tag in local]
    rows = [np.repeat(d, d.shape[1], axis=1).ravel() for d in dofs]
    cols = [np.tile(d, d.shape[1]).ravel() for d in dofs]
    vals = [m.ravel() for m in local.values()]
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(V, V),
    ).tocsr()


def _reduce(setup, A_full):
    """Free-dof block of a full matrix and its Dirichlet lift A_fc g."""
    rows = A_full.tocsr()[setup.free]
    return rows[:, setup.free], \
        rows[:, setup.constrained] @ setup.constrained_values


def _fields(setup, region, u_full):
    """{field Variable: its value at the region's quadrature points}, as
    (1, 1, E*nq, 1) tensors of the nodal values `u_full` (only u on
    facets)."""
    E, nq = region.weights.shape
    flat = (1, 1, E * nq, 1)
    u_loc = u_full[region.dofs]
    out = [T.Tensor((u_loc @ region.values.T).reshape(flat))]
    if region.grads is not None:
        g = np.einsum("ea,ead->de", u_loc, region.grads)        # (D, E)
        out += [T.Tensor(np.repeat(gd, nq).reshape(flat)) for gd in g]
    return dict(zip(setup.fields, out))


def _factor(A, error):
    """The `solve` of a SuperLU factorization of the square sparse `A`,
    with its columns ordered by minimum degree on the pattern of A^T + A;
    `error` if A is singular."""
    # imported here: scipy.sparse.linalg, and scipy.linalg with it, take
    # about 0.1 s to import, which importing jno does not pay
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    except RuntimeError as exc:
        raise error(str(exc)) from None


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
    """The system A u = b over the free dofs, with the Dirichlet values
    eliminated, and the full matrix and right-hand side it came from."""

    def __init__(self, setup, A_full, b_full):
        self.setup = setup
        self.full_matrix = A_full.tocsr()
        self.full_rhs = b_full
        self.A, lift = _reduce(setup, self.full_matrix)
        self.b = b_full[setup.free] - lift

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
    temporal = [t for t in terms if t.temporal]
    steady = [t for t in terms if not t.temporal]

    if target == "fem_time":
        return assemble_fem_time(setup, temporal, steady,
                                 state0=options.get("state0"))
    if temporal:
        raise TargetMismatch(
            f"{target} expects a steady form; use target='fem_time'"
        )
    if target == "fem_system":
        return assemble_fem_system(setup, steady)
    if target == "fem_residual":
        return assemble_fem_residual(setup, steady)
    trial = options.get("trial")
    if trial is None:
        raise TargetMismatch("vpinn needs trial=<expression or nodal values>")
    return assemble_vpinn(setup, steady, trial)


def assemble_fem_system(setup, terms):
    split = _split_linear(terms)
    if split is None:
        raise NonlinearTerm(
            "fem_system needs terms at most linear in the trial symbol")
    bilinear, loads = split
    # weak = a(u, phi) + load = 0  =>  A u = -load
    return LinearSystem(setup, _matrix(setup, _linear_pieces(setup, bilinear)),
                        -_vector(setup, _linear_pieces(setup, loads)))


class ResidualOperator:
    """R(u) over free dofs, and its Jacobian.

    Each term's trial factors are lowered here, once, to a product over
    the setup's fields; `partials` maps the trial part of each field it
    reads to the node d(product, field).  The Jacobian is their bilinear
    form, evaluated by AD in one Jet push per term (NonDifferentiablePath
    if the product mixes points).  Coefficients and products see the
    region's own points and `time_value`; the coefficients are evaluated
    here, once."""

    def __init__(self, setup, terms, time_value=None):
        self.setup = setup
        self.terms = terms
        self.contexts = {tag: _region_context(setup, setup.regions[tag],
                                              time_value)
                         for tag in {t.region.tag for t in terms}}
        # as (1, 1, E*nq, 1) columns, which broadcast with point values
        self.weights = [_weights(setup, t, time_value).reshape(1, 1, -1, 1)
                        for t in terms]
        self.products, self.partials = [], []
        for term in terms:
            factors = _lower(setup, [p[-1] for p in term.trial_parts],
                             setup.fields)
            product = functools.reduce(operator.mul, factors) if factors \
                else tr.literal(1.0)
            reads = set(tr.walk(product))
            self.products.append(product)
            self.partials.append({
                ("grad", i - 1) if i else ("value",): tr.d(product, f)
                for i, f in enumerate(setup.fields) if f in reads})

    def _contexts(self, u_full):
        """{region tag: its context, with the fields of `u_full` bound}."""
        setup = self.setup
        return {tag: ctx.child(_fields(setup, setup.regions[tag], u_full))
                for tag, ctx in self.contexts.items()}

    def residual_full(self, u_full):
        ctxs = self._contexts(u_full)
        return _vector(self.setup, [
            (t.region, t.test_part, (w * ev.evaluate(
                p, ctxs[t.region.tag]).data).reshape(t.region.weights.shape))
            for t, w, p in zip(self.terms, self.weights, self.products)])

    def __call__(self, u_free):
        u_full = self.setup.lift(u_free)
        return self.residual_full(u_full)[self.setup.free]

    def jacobian(self, u_free):
        setup = self.setup
        ctxs, pieces = self._contexts(setup.lift(u_free)), []
        for term, w, partials in zip(self.terms, self.weights,
                                     self.partials):
            values = ev.evaluate(tuple(partials.values()),
                                 ctxs[term.region.tag])
            pieces += [(term.region, term.test_part, part,
                        (w * df.data).reshape(term.region.weights.shape))
                       for part, df in zip(partials, values)]
        return _reduce(setup, _matrix(setup, pieces))[0]


def assemble_fem_residual(setup, terms):
    return ResidualOperator(setup, terms)


def newton_solve(op, u0, tol=1e-10, max_iter=10):
    """Newton iteration on R(u) = 0 from the free-dof values `u0`; returns
    (u, residual_norms)."""
    u = np.array(u0, dtype=np.float64).reshape(-1)
    if len(u) != len(op.setup.free):
        raise TargetMismatch(
            f"u0 length {len(u)} does not match the free dof count "
            f"{len(op.setup.free)}"
        )
    return _newton(op, op.jacobian, u, tol, max_iter, SingularSystem)


# ---------------------------------------------------------------------------
# vpinn
# ---------------------------------------------------------------------------

def _test_weights(setup, term):
    """(n_free, E*nq) CSR operator of the quadrature-weighted test values
    w[e, q] Q[q, a] G[e, a]: row i holds the integrals of free dof i's hat
    function (or its gradient component) against the point values."""
    region = term.region
    E, nq = region.weights.shape
    Q, G = _basis(region, term.test_part)
    local = region.weights[:, :, None] * Q[None] * G[:, None, :]
    free_index = np.full(setup.num_vertices, -1, dtype=np.int64)
    free_index[setup.free] = np.arange(len(setup.free))
    rows = np.broadcast_to(free_index[region.dofs][:, None, :], local.shape)
    cols = np.broadcast_to(np.arange(E * nq).reshape(E, nq, 1), local.shape)
    keep = rows >= 0
    return sp.csr_matrix((local[keep], (rows[keep], cols[keep])),
                         shape=(len(setup.free), E * nq))


def assemble_vpinn(setup, terms, trial):
    """Traced residual: sum over hat-function tests of the squared
    quadrature-weighted weak residual."""
    symbolic = isinstance(trial, tr.ExprNode)
    if not symbolic:
        nodal = np.asarray(trial, dtype=np.float64)
        u_full = nodal if len(nodal) == setup.num_vertices \
            else setup.lift(nodal)

    r = None
    for term in terms:
        factors = [part[-1] for part in term.trial_parts]
        if symbolic:
            factors = [tr.substitute(f, {setup.trial: trial})
                       for f in factors]
        else:
            # the P1 interpolant of the nodal values at the region's points
            factors = _lower(setup, factors, [
                tr.constant(v, name=f.name) for f, v in
                _fields(setup, term.region, u_full).items()])
        W = _test_weights(setup, term)
        # start from the signed ones, so that every piece, a constant one
        # too, spans the whole point axis of W
        s_expr = tr.constant(np.full((1, 1, W.shape[1], 1), term.sign))
        for f in term.coeff + factors:
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
    """Semi-discrete block over free dofs, M u' + R(u, t) = 0, with R as
    `residual(u, t)` and its Jacobian as `jacobian(u, t)`.  A linear block
    has R = A u - b(t) and carries A and b(t) too."""

    def __init__(self, setup, M, u0, residual, jacobian, A=None, b=None):
        self.setup, self.M, self.u0 = setup, M, u0
        self.residual, self.jacobian = residual, jacobian
        self.A, self.b = A, b
        self.linear = A is not None

    def integrate(self, dt, steps):
        """Backward-Euler trajectory, see :func:`step_backward_euler`."""
        return step_backward_euler(self, dt, steps)


def _reads_time(setup, nodes):
    """Whether the time variable appears under `nodes`."""
    return any(node.kind == tr.VARIABLE
               and (setup.domain.binding_spec(node) or ("",))[0] == "time"
               for node in tr.walk(nodes))


def assemble_fem_time(setup, temporal, steady, state0=None):
    """The block of M u' + R(u, t) = 0.  R is factored once as A u - b(t)
    when every steady term is at most linear in u and no coefficient of a
    term in u reads the time; otherwise each step solves by Newton."""
    if not temporal:
        raise NoTemporalTerm(
            "fem_time needs exactly one temporal-derivative term"
        )
    if len(temporal) > 1:
        raise MultipleTemporalTerms(
            f"found {len(temporal)} temporal terms; expected one"
        )
    if _trial_degree(temporal[0]) != 1:
        raise NonlinearTerm("the temporal term must be linear: c * u_t * phi")
    if _reads_time(setup, temporal[0].coeff):
        # M is assembled once; c(t) would be frozen at the first time value
        raise TimeDependentMass(
            "the coefficient c of the temporal term c * u_t * phi must not "
            "read the time")

    M = _reduce(setup, _matrix(setup, _linear_pieces(setup, temporal)))[0]
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

    split = _split_linear(steady)
    if split is not None and not any(_reads_time(setup, t.coeff)
                                     for t in split[0]):
        bilinear, loads = split
        A, lift = _reduce(setup,
                          _matrix(setup, _linear_pieces(setup, bilinear)))

        def b(t):
            loads_t = _linear_pieces(setup, loads, t)
            return -_vector(setup, loads_t)[free] - lift

        return TimeBlock(setup, M, u0, lambda u, t: A @ u - b(t),
                         lambda u, t: A, A=A, b=b)

    # one operator per time value: a step's Newton iterations share it
    at = functools.lru_cache(maxsize=1)(
        lambda t: ResidualOperator(setup, steady, t))
    return TimeBlock(setup, M, u0, lambda u, t: at(t)(u),
                     lambda u, t: at(t).jacobian(u))


def step_backward_euler(block, dt, steps, t0=0.0, newton_tol=1e-10,
                        newton_max_iter=25):
    """Implicit Euler; returns the trajectory (steps+1, n_free) incl. u0.
    A linear block factors M + dt A once; otherwise each step solves
    M (w - u_n) / dt + R(w, t_(n+1)) = 0 for w by Newton from u_n."""
    if dt <= 0:
        raise SingularStepMatrix("dt must be positive")
    out = [np.asarray(block.u0, dtype=np.float64)]
    if block.linear:
        solve = _factor(block.M + dt * block.A, SingularStepMatrix)
    for k in range(int(steps)):
        t, u = t0 + dt * (k + 1), out[-1]
        if block.linear:
            w = solve(block.M @ u + dt * block.b(t))
        else:
            w = _newton(
                lambda w: block.M @ (w - u) / dt + block.residual(w, t),
                lambda w: block.M / dt + block.jacobian(w, t),
                u, newton_tol, newton_max_iter, SingularStepMatrix)[0]
        out.append(w)
    return np.asarray(out)


def export_explicit_ode(block):
    """RHS callback u' = -M^{-1} R(u, t); M factorized once."""
    solve = _factor(block.M, SingularMass)
    return lambda t, u: solve(-block.residual(u, t))
