"""Graph evaluation against one batch context.

:func:`evaluate` walks the graph children first with an explicit stack and
dispatches each node kind through a handler table; a handler reads its
children's values from the context's cache.  Derivative nodes resolve
either through Taylor-mode AD (pointwise over the point axis, one
:class:`jno.tensor.Jet` push per direction) or through mesh-driven finite
differences built from moving-least-squares gradient reconstruction on
vertex neighborhoods.  The finite-difference operators (MLS gradients and
barycentric interpolation) are CSR matrices applied with
:func:`jno.tensor.sparse_matmul`.
"""

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from . import trace as tr
from .errors import (
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
    a fresh context (or call :meth:`reset_cache`) whenever bindings change.
    Child contexts (AD derivative passes, FD vertex overlays) add to their
    parent's `stats`.
    """

    def __init__(self, bindings=None, domain=None, derivative_mode="auto",
                 nan_check=False):
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
        self._vertex_contexts = {}
        self._jet_passes = {}

    def reset_cache(self):
        self.cache = {}
        self._interp_cache = {}
        self._vertex_contexts = {}
        self._jet_passes = {}

    def child(self, extra_bindings):
        sub = EvalContext(domain=self.domain,
                          derivative_mode=self.derivative_mode,
                          nan_check=self.nan_check)
        sub.stats = self.stats
        sub.bindings = dict(self.bindings)
        for node, value in extra_bindings.items():
            sub.bindings[node] = value if isinstance(value, T.Tensor) \
                else T.Tensor(value)
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
                return val
        raise UnboundVariable(f"no binding for Variable {var.name!r}")


def evaluate(root, ctx):
    """Value of `root` under `ctx`; shared nodes evaluate once per context.

    Walks the part of the graph below `root` that is not in `ctx.cache`,
    children first and left to right, with an explicit stack: a node goes
    on the stack again below its children and is evaluated when it comes
    off again.  The walk does not enter Derivative nodes: their handlers
    evaluate the expression in a child context.  `ctx.stats` counts each
    evaluated node and each visit that found its node cached.
    """
    cache, stats = ctx.cache, ctx.stats
    by_kind = stats["by_kind"]
    expanded = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in cache:
            stats["cache_hits"] += 1
        elif node not in expanded:
            expanded.add(node)
            stack.append(node)
            if node.kind != tr.DERIVATIVE:
                stack.extend(reversed(node.children))
        else:
            handler = HANDLERS.get(node.kind)
            if handler is None:
                raise UnassembledSymbol(
                    f"no handler for node kind {node.kind}")
            value = handler(node, ctx)
            stats["evaluations"] += 1
            by_kind[node.kind] = by_kind.get(node.kind, 0) + 1
            if ctx.nan_check and T.has_nan(value):
                raise NaNDetected(node, f"non-finite value at {node!r}")
            cache[node] = value
    return cache[root]


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
    if sp.issparse(a):
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


def _eval_derivative(node, ctx):
    order, hint = node.payload
    mode = ctx.derivative_mode if hint == "default" else hint
    if mode == "finite-difference":
        return _derivative_fd(node, ctx, order)
    return _derivative_ad(node, ctx, order)


HANDLERS = {
    tr.VARIABLE: _eval_variable,
    tr.LITERAL: _eval_literal,
    tr.CONSTANT: _eval_constant,
    tr.TENSOR_TAG: _eval_constant,
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
# ---------------------------------------------------------------------------

def _derivative_ad(node, ctx, order):
    expr, wrt = node.children
    if wrt not in ctx._jet_passes.get(expr, ({},))[0]:
        ctx._jet_passes[expr] = _jet_pass(expr, wrt, ctx)
    seeds, sub, jet, u, pushes = ctx._jet_passes[expr]
    x = seeds[wrt]
    _check_pointwise(expr, wrt, sub)
    try:
        target = np.broadcast_shapes(x.shape, u.shape)
    except ValueError:
        raise NonDifferentiablePath(
            f"derivative target shape {x.shape} does not broadcast with "
            f"expression shape {u.shape}"
        ) from None
    if len(pushes.get(wrt, ())) < order:
        pushes[wrt] = _column_derivatives(jet, x, u, order, target)
    return pushes[wrt][order - 1]


def _column_derivatives(jet, x, u, order, target):
    """Derivatives of `u` up to `order`, each in the shape `target`.  Column
    j is the derivative along column j of `x`: of all of `u` if it has one
    column, of its column j if it has as many as `x`."""
    ds = [T.zeros(target)] * order
    for e in np.eye(x.shape[-1]):
        seed = T.Tensor(np.broadcast_to(e, x.shape))
        for k, c in enumerate(jet.push(x, order, seed)):
            if u.uid in c:
                ds[k] = T.add(ds[k], T.mul(c[u.uid], T.Tensor(e)))
    return ds


def _jet_pass(expr, wrt, ctx):
    """Evaluate `expr` once under a Jet, for all of its AD derivatives in
    `ctx`, with every Variable it reads (and `wrt`) bound to a taped
    identity of its value, so that outer Tapes and Jets see the path
    through it.  Returns (identities, child context, jet, value, pushes)."""
    seeds = {}
    for var in {n for n in tr.walk(expr) if n.kind == tr.VARIABLE} | {wrt}:
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
    depends on `wrt`, a concat along that axis, or a reshape or transpose
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
            mixes = not axes or any(a % r >= r - 2 for a in axes)
        elif n.kind == tr.MATMUL:
            mixes = n.children[1] in depends
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
# reconstruction.  Vertex values map to the sampled context points by
# barycentric interpolation inside the containing element.  The gradient
# and interpolation operators have a few nonzeros per row and are kept in CSR.
# ---------------------------------------------------------------------------

def mls_gradient_operators(mesh, connectivity):
    """One (V, V) CSR matrix per space dimension; row i holds the
    reconstruction weights of vertex i's neighborhood."""
    V, D = mesh.num_vertices, mesh.dim
    rows, cols, vals = [], [], [[] for _ in range(D)]
    verts = mesh.vertices
    ptr, nbr = connectivity.neighbor_indptr, connectivity.neighbor_indices
    for i in range(V):
        support = np.concatenate([[i], nbr[ptr[i]:ptr[i + 1]]])
        offsets = verts[support] - verts[i]
        M = np.concatenate([np.ones((len(support), 1)), offsets], axis=1)
        if len(support) < D + 1:
            raise DegenerateNeighborhood(
                f"vertex {i} has only {len(support) - 1} neighbors"
            )
        pinv, _, rank, _ = np.linalg.lstsq(M, np.eye(len(support)),
                                           rcond=None)
        if rank < D + 1:
            raise DegenerateNeighborhood(
                f"vertex {i}: neighborhood is affinely degenerate"
            )
        rows.append(np.full(len(support), i))
        cols.append(support)
        for d in range(D):
            vals[d].append(pinv[d + 1])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return [sp.csr_matrix((np.concatenate(v), (rows, cols)), shape=(V, V))
            for v in vals]


def _centroid_tree(mesh):
    """k-d tree of the element centroids, for `_locate_barycentric`."""
    from scipy.spatial import cKDTree

    return cKDTree(mesh.vertices[mesh.elements].mean(axis=1))


def _locate_barycentric(mesh, points, tree):
    """(N, V) CSR interpolation matrix: row n holds the barycentric weights
    of point n inside the lowest-index element that contains it.

    Candidates are the elements with the nearest centroids in `tree` (from
    `_centroid_tree(mesh)`); a point that no candidate contains is tested
    against every element.
    """
    pts = np.asarray(points, dtype=np.float64)
    elems = mesh.elements
    verts = mesh.vertices
    E = len(elems)
    tol = 1e-9
    if mesh.kind == "LINE2":
        x0 = verts[elems[:, 0], 0]
        x1 = verts[elems[:, 1], 0]
        pts = pts[:, :1]

        def weights(n, e):
            x = pts[n, 0]
            inside = (x >= np.minimum(x0[e], x1[e]) - tol) \
                & (x <= np.maximum(x0[e], x1[e]) + tol)
            s = (x - x0[e]) / (x1[e] - x0[e])
            return inside, np.stack([1 - s, s], axis=-1)
    elif mesh.kind == "TRI3":
        p0 = verts[elems[:, 0]]
        d1 = verts[elems[:, 1]] - p0
        d2 = verts[elems[:, 2]] - p0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        pts = pts[:, :2]

        def weights(n, e):
            r = pts[n] - p0[e]
            l1 = (r[..., 0] * d2[e, 1] - r[..., 1] * d2[e, 0]) / det[e]
            l2 = (d1[e, 0] * r[..., 1] - d1[e, 1] * r[..., 0]) / det[e]
            l0 = 1.0 - l1 - l2
            inside = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
            return inside, np.stack([l0, l1, l2], axis=-1)
    else:
        raise PointOutsideMesh(f"interpolation unsupported for {mesh.kind}")

    N = len(pts)
    k = min(8, E)
    _, cand = tree.query(pts, k=k)
    cand = cand.reshape(N, k)
    inside, _ = weights(np.arange(N)[:, None], cand)
    chosen = np.where(inside, cand, E).min(axis=1)
    for n in np.nonzero(chosen == E)[0]:
        hits = np.nonzero(weights(n, np.arange(E))[0])[0]
        if len(hits) == 0:
            raise PointOutsideMesh(f"point {pts[n]} outside mesh")
        chosen[n] = hits[0]
    _, lam = weights(np.arange(N), chosen)
    rows = np.repeat(np.arange(N), elems.shape[1])
    return sp.csr_matrix((lam.ravel(), (rows, elems[chosen].ravel())),
                         shape=(N, mesh.num_vertices))


def _fd_operators(ctx):
    """The MLS gradient operators and the centroid tree of the domain's
    mesh, built once per domain."""
    domain = ctx.domain
    cached = getattr(domain, "_fd_ops", None)
    if cached is None:
        cached = (mls_gradient_operators(domain.mesh, domain.connectivity),
                  _centroid_tree(domain.mesh))
        domain._fd_ops = cached
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

    gradients, tree = _fd_operators(ctx)
    G = gradients[direction]
    g = T.sparse_matmul(G, u_vertex)
    if order == 2:
        g = T.sparse_matmul(G, g)

    # map vertex values onto the sampled context points of this tag
    key = (tag, id(domain.context[tag]))
    P = ctx._interp_cache.get(key)
    if P is None:
        P = _locate_barycentric(domain.mesh, domain.context[tag][0, 0], tree)
        ctx._interp_cache[key] = P
    return T.sparse_matmul(P, g)


def _vertex_context(ctx, tag):
    """Child context that binds `tag`'s coordinate variables to every mesh
    vertex; shared by all FD derivatives of that tag in `ctx`."""
    sub = ctx._vertex_contexts.get(tag)
    if sub is not None:
        return sub
    domain = ctx.domain
    verts = domain.mesh.vertices
    Vn = len(verts)
    lead = (domain.batch, domain.num_times)
    overlay = {}
    for var, vspec in domain._vars.items():
        if vspec[0] == "coord" and vspec[1] == tag:
            col = verts[:, vspec[2]].reshape(1, 1, Vn, 1)
            overlay[var] = T.Tensor(
                np.broadcast_to(col, lead + (Vn, 1)).copy()
            )
        elif vspec[0] == "full" and vspec[1] == tag:
            full = verts.reshape(1, 1, Vn, -1)
            overlay[var] = T.Tensor(
                np.broadcast_to(full, lead + verts.shape).copy()
            )
    sub = ctx._vertex_contexts[tag] = ctx.child(overlay)
    return sub
