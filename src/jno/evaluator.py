"""Graph evaluation against one batch context.

:func:`evaluate` walks the graph children first with an explicit stack and
dispatches each node kind through a handler table; a handler reads its
children's values from the context's cache.  Derivative nodes resolve
either through Taylor-mode AD (pointwise over the point axis, one
:class:`jno.tensor.Jet` push per expression for every direction its
derivatives need, and one summed second coefficient for a sum of pure
second derivatives such as a Laplacian) or through mesh-driven finite
differences built from moving-least-squares gradient reconstruction on
vertex neighborhoods.
The finite-difference operators (MLS gradients, then vertex row selection
or barycentric interpolation at the points) are
:class:`jno.tensor.SparseMatrix` triplets applied with
:func:`jno.tensor.sparse_matmul`; nothing here imports scipy.sparse, whose
import costs several times numpy's.  Locating points that a context did
not read from the domain imports scipy.spatial, for `Mesh.locator`.
"""

import functools
import operator
from collections import Counter

import numpy as np

from . import tensor as T
from . import trace as tr
from .errors import (
    ArityMismatch,
    DegenerateNeighborhood,
    ModelNotInitialized,
    NaNDetected,
    NonDifferentiablePath,
    PointOutsideMesh,
    UnassembledSymbol,
    UnboundVariable,
)


class EvalContext:
    """Bindings, cache and derivative-mode for one evaluation pass.

    One context per thread; the cache is only valid for one batch, so build
    a fresh context whenever bindings change: a context keeps the values
    that :meth:`lookup` read from the domain (and their vertex ids).
    Child contexts (AD derivative passes, FD vertex overlays) add to their
    parent's `stats`.
    """

    def __init__(self, bindings=None, domain=None, derivative_mode="auto",
                 nan_check=False):
        if derivative_mode not in ("auto", "finite-difference"):
            raise ArityMismatch(f"unknown derivative mode {derivative_mode!r}")
        self.bindings = {}
        for node, value in (bindings or {}).items():
            self.bindings[node] = value if isinstance(value, T.Tensor) \
                else T.Tensor(value)
        self.domain = domain
        self.derivative_mode = derivative_mode
        self.nan_check = nan_check
        self.cache = {}
        self.stats = {"evaluations": 0, "cache_hits": 0, "by_kind": {}}
        self._interp_cache = {}
        self._vertex_ids = {}
        self._vertex_contexts = {}
        self._jet_passes = {}
        self._ad_requests = {}
        self._ad_sums = {}

    def child(self, extra_bindings):
        sub = EvalContext({**self.bindings, **extra_bindings}, self.domain,
                          self.derivative_mode, self.nan_check)
        sub.stats = self.stats
        return sub

    def lookup(self, var):
        hit = self.bindings.get(var)
        if hit is not None:
            return hit
        if self.domain is not None:
            spec = self.domain.binding_spec(var)
            if spec is not None:
                val = T.Tensor(self.domain._resolve(spec, None))
                self.bindings[var] = val
                if spec[0] == "coord":
                    self._vertex_ids[var] = self.domain.vertex_ids.get(spec[1])
                return val
        raise UnboundVariable(f"no binding for Variable {var.name!r}")


_KIND = operator.attrgetter("kind")
_SERIAL = operator.attrgetter("serial")


def evaluate(root, ctx):
    """Value of `root` under `ctx`, or the tuple of values of a tuple of
    roots, which are scheduled together, so that their AD derivatives of
    one expression share one Jet push; shared nodes evaluate once per
    context.

    First `_schedule` lists the nodes to evaluate, children first, then
    the handlers evaluate them in that order.  `ctx.stats` counts each
    visit that found its node cached or already walked and, once the pass
    is done, each evaluated node.
    """
    roots = root if isinstance(root, tuple) else (root,)
    cache, nan_check = ctx.cache, ctx.nan_check
    order = _schedule(roots, ctx)
    for node in order:
        try:
            handler = HANDLERS[node.kind]
        except KeyError:
            raise UnassembledSymbol(
                f"no handler for node kind {node.kind}") from None
        value = handler(node, ctx)
        if nan_check and T.has_nan(value):
            raise NaNDetected(node, f"non-finite value at {node!r}")
        cache[node] = value
    stats = ctx.stats
    stats["evaluations"] += len(order)
    by_kind = stats["by_kind"]
    for kind, count in Counter(map(_KIND, order)).items():
        by_kind[kind] = by_kind.get(kind, 0) + count
    return tuple(cache[r] for r in roots) if root is roots else cache[root]


def _schedule(roots, ctx):
    """The part of the graphs below `roots` that is not in `ctx.cache`, in
    creation order, which lists children first (`trace.toposort`).

    The walk visits each node once, children left to right, with an
    explicit stack.  It does not enter Derivative nodes, whose handlers
    evaluate the expression in a child context, nor the additions of a sum
    that holds AD Laplacian terms (`_ad_sum`), whose handler reads them
    from one summed coefficient and walks only the other terms.  It
    records the AD derivatives of both in `ctx`, in the order it meets
    them, so that the first of them on an expression pushes the directions
    of all of them in one replay.
    """
    cache, stats = ctx.cache, ctx.stats
    derivative, arith = tr.DERIVATIVE, tr.ARITH
    seen, looked = set(), set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node in cache or node in seen:
            stats["cache_hits"] += 1
        else:
            seen.add(node)
            kind = node.kind
            if kind == derivative:
                if _derivative_mode(node, ctx) != "finite-difference":
                    expr, wrt = node.children
                    _request(ctx, expr, (wrt,), node.payload[0])
            elif kind == arith and node.payload == "add" \
                    and node not in looked \
                    and (terms := _ad_sum(node, ctx, looked)) is not None:
                groups, others = ctx._ad_sums[node] = terms
                for expr, wrts in groups:
                    _request(ctx, expr, wrts, 2)
                stack.extend(reversed(others))
            else:
                stack.extend(reversed(node.children))
    return sorted(seen, key=_SERIAL)


def _request(ctx, expr, wrts, order):
    wanted = ctx._ad_requests.setdefault(expr, {})
    wanted[wrts] = max(wanted.get(wrts, 0), order)


def _ad_sum(node, ctx, looked):
    """(groups, others) if the terms of the addition `node`, its additions
    nested in any way, hold second AD derivatives of one expression along
    two or more distinct variables; else None.  Each group (expr,
    variables) is served by one summed coefficient; `others` are the rest
    of the sum, as the largest sub-sums without a grouped derivative, so
    that a source term's own sum is evaluated as it is written.

    A sub-sum of a sum that has no group has none either: on None, the
    additions below `node` join `looked`, so that the walk looks into each
    addition of a long sum once."""
    arith, derivative = tr.ARITH, tr.DERIVATIVE
    adds, groups, stack = {node}, {}, [node]
    while stack:
        for n in stack.pop().children:
            kind = n.kind
            if kind == arith and n.payload == "add":
                if n not in adds:
                    adds.add(n)
                    stack.append(n)
            elif kind == derivative and n.payload[0] == 2 \
                    and _derivative_mode(n, ctx) != "finite-difference":
                expr, wrt = n.children
                groups.setdefault(expr, {}).setdefault(wrt, n)
    groups = {e: g for e, g in groups.items() if len(g) > 1}
    if not groups:
        looked.update(adds)
        return None
    # children are created before their parents: an addition holds a
    # grouped derivative if one of its children is or holds one
    pending = {n for g in groups.values() for n in g.values()}
    holds = set(pending)
    for n in sorted(adds, key=_SERIAL):
        if not holds.isdisjoint(n.children):
            holds.add(n)
    looked.update(adds - holds)
    # each grouped derivative counts once, and is never entered; a repeat
    # of it, or of a sub-sum already entered, is another term
    others, entered, stack = [], set(pending), [node]
    while stack:
        for n in stack.pop().children:
            if n in pending:
                pending.remove(n)
            elif n in holds and n not in entered:
                entered.add(n)
                stack.append(n)
            else:
                others.append(n)
    return [(e, tuple(g)) for e, g in groups.items()], others


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _eval_variable(node, ctx):
    return ctx.lookup(node)


def _eval_literal(node, ctx):
    return T.Tensor(node.payload)


def _eval_constant(node, ctx):
    return node.payload


def _eval_arith(node, ctx):
    if node.payload == "add" and node in ctx._ad_sums:
        groups, others = ctx._ad_sums[node]
        return functools.reduce(
            T.add, [_derivative_ad(ctx, expr, wrts, 2) for expr, wrts in groups]
            + [ctx.cache[n] for n in others])
    return T.ELEMENTWISE[node.payload](*[ctx.cache[c] for c in node.children])


def _eval_compare(node, ctx):
    a, b = node.children
    return T.compare(node.payload, ctx.cache[a], ctx.cache[b])


def _eval_reduce(node, ctx):
    op, axes = node.payload
    return T.REDUCERS[op](ctx.cache[node.children[0]], axes=axes)


def _eval_slice(node, ctx):
    return T.take_slice(ctx.cache[node.children[0]],
                        tr.thaw_slice(node.payload))


def _eval_concat(node, ctx):
    return T.concat([ctx.cache[c] for c in node.children], axis=node.payload)


def _eval_reshape(node, ctx):
    return T.reshape(ctx.cache[node.children[0]], node.payload)


def _eval_transpose(node, ctx):
    return T.transpose(ctx.cache[node.children[0]], node.payload)


def _eval_matmul(node, ctx):
    a, b = (ctx.cache[c] for c in node.children)
    if T.issparse(a):
        return T.sparse_matmul(a, b)
    return T.matmul(a, b)


def _eval_model_call(node, ctx):
    model = node.payload
    if not model.params:
        raise ModelNotInitialized(
            f"model {model.name!r} has no parameters; call initialize()"
        )
    return model.forward([ctx.cache[c] for c in node.children])


def _eval_tracker(node, ctx):
    return ctx.cache[node.children[0]]


def _eval_symbol(node, ctx):
    raise UnassembledSymbol(
        f"{node.kind} outside weak-form assembly; route through assemble()"
    )


def _derivative_mode(node, ctx):
    hint = node.payload[1]
    return ctx.derivative_mode if hint == "default" else hint


def _eval_derivative(node, ctx):
    order = node.payload[0]
    if _derivative_mode(node, ctx) == "finite-difference":
        return _derivative_fd(node, ctx, order)
    expr, wrt = node.children
    return _derivative_ad(ctx, expr, (wrt,), order)


HANDLERS = {
    tr.VARIABLE: _eval_variable,
    tr.LITERAL: _eval_literal,
    tr.CONSTANT: _eval_constant,
    tr.ARITH: _eval_arith,
    tr.COMPARE: _eval_compare,
    tr.REDUCE: _eval_reduce,
    tr.SLICE: _eval_slice,
    tr.CONCAT: _eval_concat,
    tr.RESHAPE: _eval_reshape,
    tr.TRANSPOSE: _eval_transpose,
    tr.MATMUL: _eval_matmul,
    tr.DERIVATIVE: _eval_derivative,
    tr.MODEL_CALL: _eval_model_call,
    tr.TRACKER: _eval_tracker,
    tr.TRIAL: _eval_symbol,
    tr.TEST: _eval_symbol,
}


def assert_handler_totality():
    missing = [k for k in tr.ALL_KINDS if k not in HANDLERS]
    if missing:
        raise AssertionError(f"node kinds without handlers: {missing}")


assert_handler_totality()


# ---------------------------------------------------------------------------
# AD derivatives
#
# Residual expressions depend on a coordinate pointwise (each output point
# sees only its own input point), so the derivative is the diagonal of the
# Jacobian over the point axis, which is the Taylor coefficient of the
# expression along a direction of ones at the coordinate.  A variable with
# several columns takes one direction per column, and its derivative is the
# diagonal over the columns too.  Expressions that mix points are rejected.
#
# `evaluate` records every AD derivative request on an expression before the
# first of them runs, so one Jet push serves all of them.  A request is a
# tuple of variables and an order: one variable for a Derivative node, and
# several for a sum of second derivatives along distinct variables, such as
# `u.dd(x) + u.dd(y)`, which the push serves with one group whose second
# coefficient is summed over the variables' directions.
# ---------------------------------------------------------------------------

def _derivative_ad(ctx, expr, wrts, order):
    """The order-`order` AD derivative of `expr` along the one variable in
    `wrts`, or its second derivatives along `wrts` summed."""
    wanted = ctx._ad_requests[expr]
    jet_pass = ctx._jet_passes.get(expr)
    if jet_pass is None or not all(w in jet_pass[0]
                                   for key in wanted for w in key):
        jet_pass = ctx._jet_passes[expr] = _jet_pass(expr, wanted, ctx)
    seeds, sub, jet, u, pushes = jet_pass
    for wrt in wrts:
        _check_pointwise(expr, wrt, sub)
    missing = [key for key, k in wanted.items()
               if len(pushes.get(key, ())) < k]
    if missing:
        pushes.update(zip(missing, _column_derivatives(
            jet, u, [([seeds[w] for w in key], wanted[key])
                     for key in missing])))
    return pushes[wrts][order - 1]


def _column_derivatives(jet, u, wanted):
    """Derivatives of `u` for each (xs, k) in `wanted`, from one push: up
    to order k along x if `xs` is one variable x, and [None, the second
    derivatives along every x summed] if it has several.  Each derivative
    is in the shape of `u` broadcast with `xs`.  Column j is the derivative
    along column j of each x, or along its only column: of all of `u` if
    it has one column, of its column j if it has as many as the
    derivative."""
    plan, groups = [], []
    for xs, order in wanted:
        try:
            target = np.broadcast_shapes(u.shape, *(x.shape for x in xs))
        except ValueError:
            raise NonDifferentiablePath(
                f"derivative target shapes {[x.shape for x in xs]} do not "
                f"broadcast with expression shape {u.shape}"
            ) from None
        columns = np.eye(max(x.shape[-1] for x in xs))
        plan.append((len(xs), order, target, columns))
        for e in columns:
            groups.append((order, [(x, T.Tensor(_row(x, e))) for x in xs]))
    coeffs = iter(jet.push(groups))
    out = []
    for size, order, target, columns in plan:
        ds = [None] * order
        for e in columns:
            firsts, second = next(coeffs)
            for k, c in enumerate([firsts[0] if size == 1 else {},
                                   second][:order]):
                if u.uid in c:
                    t = c[u.uid] if len(columns) == 1 \
                        else T.mul(c[u.uid], T.Tensor(e))
                    ds[k] = t if ds[k] is None else T.add(ds[k], t)
        out.append([_in_shape(t, target) for t in ds] if size == 1
                   else [None, _in_shape(ds[1], target)])
    return out


def _in_shape(t, target):
    """The derivative `t` (None for zero) in the shape `target`."""
    if t is None:
        return T.zeros(target)
    return t if t.shape == target else T.broadcast_to(t, target)


def _row(x, e):
    """The direction of column e (a row of the identity) at `x`, or of its
    only column, as a row of `x`'s rank."""
    e = e if x.shape[-1] == len(e) else np.ones(1)
    return e.reshape((1,) * (x.ndim - 1) + e.shape)


def _jet_pass(expr, wanted, ctx):
    """Evaluate `expr` once under a Jet, for all of its AD derivatives in
    `ctx`, with every Variable it reads (and those in `wanted`) bound to a
    taped identity of its value, so that outer Tapes and Jets see the path
    through it.  Returns (identities, child context, jet, value, pushes)."""
    seeds = {}
    for var in {n for n in tr.walk(expr) if n.kind == tr.VARIABLE} \
            | {w for key in wanted for w in key}:
        value = ctx.lookup(var)
        seeds[var] = T.reshape(value, value.shape)
    sub = ctx.child(seeds)
    with T.Jet() as jet:
        jet.watch(*seeds.values())
        u = evaluate(expr, sub)
    return seeds, sub, jet, u, {}


def _check_pointwise(expr, wrt, ctx):
    """Raise NonDifferentiablePath if the part of `expr` that depends on
    `wrt` mixes points (axis -2): a reduce over all axes, over that axis or
    over an axis after it (which moves it), a matmul whose right operand
    depends on `wrt`, a slice that selects along that axis (any entry there
    but a whole slice), a concat along that axis, or a reshape or transpose
    that moves it.

    Shapes are read from the values `ctx` cached while evaluating `expr`,
    and from the passes of the AD derivatives inside it; FD derivatives
    inside it, evaluated in their own contexts, are not checked.
    """
    depends = {wrt}
    for n in tr.toposort(expr):
        if not any(c in depends for c in n.children):
            continue
        depends.add(n)
        if n.kind == tr.DERIVATIVE:
            inner = ctx._jet_passes.get(n.children[0])
            if inner is not None:
                _check_pointwise(n.children[0], wrt, inner[1])
            continue
        out = ctx.cache.get(n)
        arg = ctx.cache.get(n.children[0])
        if out is None or arg is None:
            continue
        r = arg.ndim
        if n.kind == tr.REDUCE:
            axes = n.payload[1]
            mixes = axes is None or any(a % r >= r - 2 for a in axes)
        elif n.kind == tr.MATMUL:
            mixes = n.children[1] in depends
        elif n.kind == tr.SLICE:
            spec = n.payload
            mixes = len(spec) > r - 2 >= 0 \
                and spec[r - 2] != ("slice", None, None, None)
        elif n.kind == tr.CONCAT:
            mixes = n.payload % r == r - 2
        elif n.kind == tr.RESHAPE:
            mixes = arg.shape[-2:] != out.shape[-2:]
        elif n.kind == tr.TRANSPOSE:
            perm = n.payload or tuple(reversed(range(r)))
            mixes = r >= 2 and perm[-2] % r != r - 2
        else:
            mixes = False
        if mixes:
            raise NonDifferentiablePath(
                f"{n.kind} mixes points along axis -2; the AD derivative is "
                "only defined for pointwise expressions"
            )


# ---------------------------------------------------------------------------
# Mesh-driven finite differences
#
# First derivatives come from a least-squares affine fit over each vertex's
# 1-ring (exact on affine fields); second derivatives iterate the same
# reconstruction.  Vertex values map to the points a context read from the
# domain by those points' vertex rows, and to other points by barycentric
# interpolation inside the containing element.  The gradient and
# interpolation operators have a few nonzeros per row and are kept as
# row-major triplets.
# ---------------------------------------------------------------------------

def mls_gradient_operators(mesh, connectivity):
    """One (V, V) sparse matrix per space dimension; row i holds the
    reconstruction weights of vertex i's neighborhood.

    Vertices with the same support size (the vertex and its neighbors) are
    fitted together: one stacked SVD gives each one's pseudo-inverse and its
    rank, with the cutoff of ``np.linalg.lstsq``'s default `rcond`."""
    V, D = mesh.num_vertices, mesh.dim
    verts = mesh.vertices
    ptr, nbr = connectivity.neighbor_indptr, connectivity.neighbor_indices
    sizes = np.diff(ptr) + 1
    few = sizes < D + 1
    flat = np.zeros(V, dtype=bool)
    rows, cols, vals = [], [], [[] for _ in range(D)]
    for n in np.unique(sizes[~few]):
        idx = np.nonzero(sizes == n)[0]
        support = np.concatenate(
            [idx[:, None], nbr[ptr[idx][:, None] + np.arange(n - 1)]], axis=1)
        offsets = verts[support] - verts[idx][:, None]
        M = np.concatenate([np.ones(support.shape + (1,)), offsets], axis=2)
        U, S, Vt = np.linalg.svd(M, full_matrices=False)
        cutoff = np.finfo(np.float64).eps * max(n, D + 1) * S[:, :1]
        kept = S > cutoff
        flat[idx] = kept.sum(axis=1) < D + 1
        # rows 1..D of the pseudo-inverse V S^-1 U^T
        inv = 1.0 / np.where(kept, S, np.inf)
        pinv = np.einsum("gkd,gk,gnk->gdn", Vt[:, :, 1:], inv, U)
        rows.append(np.repeat(idx, n))
        cols.append(support.ravel())
        for d in range(D):
            vals[d].append(pinv[:, d].ravel())
    bad = np.nonzero(few | flat)[0]
    if len(bad):
        i = bad[0]
        if few[i]:
            raise DegenerateNeighborhood(
                f"vertex {i} has only {sizes[i] - 1} neighbors")
        raise DegenerateNeighborhood(
            f"vertex {i}: neighborhood is affinely degenerate")
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return [T.SparseMatrix(rows, cols, np.concatenate(v), (V, V))
            for v in vals]


def _locate_barycentric(mesh, points):
    """(N, V) sparse interpolation matrix: row n holds the barycentric weights
    of point n inside the lowest-index element that contains it.

    The weights of p in element e are lambda_a = delta_a0 +
    G[a, :, e] . (p - x_0[e]), with G the P1 basis gradients that
    `mesh.locator` caches beside a k-d tree of the element centroids; one
    path serves every element kind.  Candidates are the elements with the
    nearest centroids; a point that no candidate contains is tested against
    every element.
    """
    tree, origin, G = mesh.locator
    pts = np.asarray(points, dtype=np.float64)
    elems = mesh.elements
    E = len(elems)
    tol = 1e-9

    def weights(n, e):
        # lam (k+1, ...) over the broadcast shape of the indices n and e
        r = pts.T[:, n] - np.take(origin, e, axis=1)
        Ge = np.take(G, e, axis=2)
        lam = Ge[:, 0] * r[0]
        for d in range(1, len(r)):
            lam += Ge[:, d] * r[d]
        lam[0] += 1.0
        return (lam >= -tol).all(axis=0), lam

    N = len(pts)
    k = min(8, E)
    _, cand = tree.query(pts, k=k)
    cand = cand.reshape(N, k)
    inside, _ = weights(np.arange(N)[:, None], cand)
    chosen = np.where(inside, cand, E).min(axis=1)
    for n in np.nonzero(chosen == E)[0]:
        hits = np.nonzero(weights([n], np.arange(E))[0])[0]
        if len(hits) == 0:
            raise PointOutsideMesh(f"point {pts[n]} outside mesh")
        chosen[n] = hits[0]
    _, lam = weights(np.arange(N), chosen)
    rows = np.repeat(np.arange(N), elems.shape[1])
    return T.SparseMatrix(rows, elems[chosen].ravel(), lam.T.ravel(),
                          (N, mesh.num_vertices))


def _fd_operators(ctx):
    """The MLS gradient operators of the domain's mesh, built once per
    domain."""
    domain = ctx.domain
    cached = getattr(domain, "_fd_ops", None)
    if cached is None:
        cached = domain._fd_ops = mls_gradient_operators(domain.mesh,
                                                         domain.connectivity)
    return cached


def _derivative_fd(node, ctx, order):
    expr, wrt = node.children
    domain = ctx.domain
    if domain is None:
        raise NonDifferentiablePath(
            "finite-difference derivatives need a domain in the context"
        )
    spec = domain.binding_spec(wrt)
    if spec is None:
        raise UnboundVariable(f"no binding for Variable {wrt.name!r}")
    if spec[0] == "time":
        raise NonDifferentiablePath(
            "temporal derivatives are only supported in AD mode"
        )
    if spec[0] != "coord":
        raise NonDifferentiablePath(
            f"finite differences need a coordinate variable, got {spec[0]!r}"
        )
    _, tag, direction = spec

    # evaluate the expression on all mesh vertices
    u_vertex = evaluate(expr, _vertex_context(ctx, tag))
    Vn = domain.mesh.num_vertices
    if u_vertex.ndim < 2 or u_vertex.shape[-2] != Vn:
        # constants need explicit expansion before the operator applies
        u_vertex = T.broadcast_to(u_vertex,
                                  (domain.batch, domain.num_times, Vn, 1))

    G = _fd_operators(ctx)[direction]
    g = T.sparse_matmul(G, u_vertex)
    if order == 2:
        g = T.sparse_matmul(G, g)

    # map vertex values onto the points `ctx` binds to `wrt`'s coordinate
    # variables: one operator per set of bound values, per slice if they differ
    coords = domain.coordinates[wrt]
    cols = tuple(ctx.lookup(v) for v in coords)
    P, lead = ctx._interp_cache.get(cols) or ctx._interp_cache.setdefault(
        cols, _interpolation(ctx, coords, cols))
    if lead is None:
        return T.sparse_matmul(P, g)
    g = T.reshape(T.broadcast_to(g, lead + g.shape[-2:]), (-1, g.shape[-1]))
    return T.reshape(T.sparse_matmul(P, g), lead + (-1, g.shape[-1]))


def _interpolation(ctx, coords, cols):
    """(P, lead) for `_derivative_fd`: P selects the vertex rows of points
    that `ctx` read from the domain with one id array, and locates others;
    each distinct (batch, time) slice of the points takes its own block,
    its rows offset by i * N and its columns by i * V."""
    mesh, ids = ctx.domain.mesh, [ctx._vertex_ids.get(v) for v in coords]
    select = ids[0] is not None and all(i is ids[0] for i in ids)
    keys = ids[0][..., None] if select else np.concatenate(
        np.broadcast_arrays(*(c.data for c in cols)), axis=-1)
    slices = keys.reshape((-1,) + keys.shape[-2:])
    N, V = keys.shape[-2], mesh.num_vertices
    Ps = [T.SparseMatrix(np.arange(N), k[:, 0], np.ones(N), (N, V))
          if select else _locate_barycentric(mesh, k)
          for k in (slices[:1] if (slices == slices[0]).all() else slices)]
    if len(Ps) == 1:
        return Ps[0], None
    block = T.SparseMatrix(
        np.concatenate([P.rows + i * N for i, P in enumerate(Ps)]),
        np.concatenate([P.cols + i * V for i, P in enumerate(Ps)]),
        np.concatenate([P.vals for P in Ps]), (len(Ps) * N, len(Ps) * V))
    return block, keys.shape[:-2]


def _vertex_context(ctx, tag):
    """Child context that binds `tag`'s coordinate variables to every mesh
    vertex, with the vertex ids, so that an FD derivative inside reads
    their rows; shared by all FD derivatives of that tag in `ctx`."""
    sub = ctx._vertex_contexts.get(tag)
    if sub is not None:
        return sub
    domain = ctx.domain
    verts = domain.mesh.vertices
    points = np.broadcast_to(verts, (domain.batch, domain.num_times)
                             + verts.shape)
    bindings = domain.point_bindings(tag, points)
    sub = ctx._vertex_contexts[tag] = ctx.child(bindings)
    sub._vertex_ids = dict.fromkeys(bindings, np.arange(len(verts)))
    return sub
