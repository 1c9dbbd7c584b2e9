"""Mesh-aware data layer between geometry and traced expressions.

A Domain keeps two stores: the *mesh pool* (full tagged point sets, batch
axis 1) and the *runtime context* (the arrays the solver actually trains
on, shaped ``(B, T, N, D)`` for spatial tags).  Temporal structure lives in
a separate ``__time__`` context entry of shape ``(B, T, 1, 1)``.
"""

import copy

import numpy as np

from . import mesh as meshmod
from . import trace as tr
from .errors import (
    BadShape,
    CountExceedsPool,
    NotABoundaryTag,
    TagMismatch,
    UnknownTag,
    UnsupportedGeometry,
)
from .tensor import Tensor

TIME_KEY = "__time__"


class ResampleStrategy:
    """Per-tag point refresh policy applied at outer-step boundaries."""

    KINDS = ("uniform-vertex-subset", "residual-weighted")

    def __init__(self, tag, kind, count, weights=None):
        if kind not in self.KINDS:
            raise UnsupportedGeometry(f"unknown resample kind {kind!r}")
        if not (count >= 1 and float(count).is_integer()):
            raise BadShape(f"resample count must be >= 1 and whole: {count}")
        self.tag = tag
        self.kind = kind
        self.count = int(count)
        self.weights = weights  # array | callable(domain) -> array


class Domain:
    """The mesh's own tags, and samples of them, carry the vertex id of each
    context point (`vertex_ids`: (N,), or (B, T, N) after a merge), so that
    FD derivatives read their vertex rows; `add_points` tags carry none."""

    def __init__(self, mesh, time=None, batch=1):
        self.mesh = mesh
        self.connectivity = meshmod.Connectivity(mesh)
        self.batch = int(batch)
        self.time = tuple(time) if time is not None else None
        if self.time is not None:
            t0, t1, steps = self.time
            self.num_times = int(steps) + 1
            self.time_grid = np.linspace(float(t0), float(t1), self.num_times)
        else:
            self.num_times = 1
            self.time_grid = None

        self.mesh_pool = {}
        self.context = {}
        self.pool_ids, self.vertex_ids = {}, {}  # tag -> vertex ids or None
        self.tensor_tags = {}
        self.resamplers = {}
        self._vars = {}          # ExprNode -> binding spec
        # coordinate Variable -> the coordinate Variables of its call
        self.coordinates = {}
        self.fem = None          # set by init_fem
        self._rng = np.random.default_rng(0)

        for tag, idx in mesh.tags.items():
            self.add_points(tag, mesh.vertices[idx], idx)
        if self.time is not None:
            tarr = self.time_grid.reshape(1, self.num_times, 1, 1)
            self.context[TIME_KEY] = np.ascontiguousarray(
                np.broadcast_to(tarr, (self.batch, self.num_times, 1, 1))
            )

    def add_points(self, tag, points, ids=None):
        """Register the points (N, D) under `tag`: in the mesh pool as
        (1, T, N, D) and in the runtime context as (B, T, N, D).  `ids` (N,)
        are the mesh vertices that the points are, if they are vertices."""
        for store, lead in ((self.mesh_pool, 1), (self.context, self.batch)):
            store[tag] = np.ascontiguousarray(np.broadcast_to(
                points, (lead, self.num_times) + points.shape))
        self.pool_ids[tag] = self.vertex_ids[tag] = ids

    # -- inspection ----------------------------------------------------------

    @property
    def dim(self):
        return self.mesh.dim

    def tags(self):
        return sorted(self.mesh.tags)

    def pool_size(self, tag):
        return self.mesh_pool[tag].shape[2]

    # -- variables -------------------------------------------------------

    def variable(self, tag_or_name, tensor=None, split=None):
        """Create trace Variables bound to this domain's context.

        Tag form returns one Variable per coordinate column plus a final
        time Variable.  Tensor form registers `tensor` under the name and
        returns a single Variable bound to it.
        """
        name = tag_or_name
        if tensor is not None:
            arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(
                tensor, dtype=np.float64)
            if arr.ndim < 2 or arr.shape[0] != self.batch:
                raise BadShape(
                    f"tensor tag {name!r} must be shaped (B, T, ...); "
                    f"got {arr.shape} with B={self.batch}"
                )
            if arr.shape[1] not in (1, self.num_times):
                raise BadShape(
                    f"tensor tag {name!r} time extent {arr.shape[1]} "
                    f"incompatible with T={self.num_times}"
                )
            self.tensor_tags[name] = arr
            var = tr.variable(name)
            self._vars[var] = ("tensor", name)
            return var

        if name not in self.context and name not in self.mesh.tags:
            raise UnknownTag(f"unknown tag {name!r}; have {self.tags()}")
        if split is False:
            var = tr.variable(name)
            self._vars[var] = ("full", name)
            return var
        cols = self.context[name].shape[-1]
        out = []
        coord_names = ("x", "y", "z")
        for c in range(cols):
            label = coord_names[c] if c < 3 else f"c{c}"
            var = tr.variable(f"{name}:{label}")
            self._vars[var] = ("coord", name, c)
            out.append(var)
        self.coordinates.update((var, tuple(out)) for var in out)
        tvar = tr.variable(f"{name}:t")
        self._vars[tvar] = ("time",)
        out.append(tvar)
        return tuple(out)

    def binding_spec(self, var):
        return self._vars.get(var)

    def point_bindings(self, tag, points, time=None):
        """{Variable: Tensor} binding `tag`'s coordinate variables to the
        columns of `points` (..., N, D), its unsplit variables to all of
        them and, if `time` is given, every time variable to that value."""
        out = {var: Tensor(points if spec[0] == "full"
                           else points[..., spec[2]:spec[2] + 1])
               for var, spec in self._vars.items()
               if spec[0] in ("coord", "full") and spec[1] == tag}
        if time is not None:
            out.update((var, Tensor(np.full((1, 1, 1, 1), float(time))))
                       for var, spec in self._vars.items()
                       if spec[0] == "time")
        return out

    def bindings(self, batch_idx=None):
        """Resolve every registered Variable against the current context.

        `batch_idx` selects rows along the batch axis (shared across tags).
        Returns a dict ExprNode -> Tensor.
        """
        out = {}
        for var, spec in self._vars.items():
            out[var] = Tensor(self._resolve(spec, batch_idx))
        return out

    def _resolve(self, spec, batch_idx):
        kind = spec[0]
        if kind == "coord":
            _, tag, c = spec
            arr = self.context[tag][..., c:c + 1]
        elif kind == "full":
            arr = self.context[spec[1]]
        elif kind == "time":
            if TIME_KEY in self.context:
                arr = self.context[TIME_KEY]
            else:
                # zero-width placeholder: using it in arithmetic fails loudly
                arr = np.zeros((self.batch, 1, 1, 0))
        elif kind == "tensor":
            arr = self.tensor_tags[spec[1]]
            if arr.ndim == 3:
                # (B, T, S) rides along the point axis as (B, T, 1, S)
                arr = arr[:, :, None, :]
        else:
            raise UnknownTag(f"bad binding spec {spec!r}")
        if batch_idx is not None:
            arr = arr[np.asarray(batch_idx)]
        return arr

    # -- algebra -----------------------------------------------------------

    def scale(self, n):
        if not (n >= 1 and float(n).is_integer()):
            raise BadShape(f"scale factor must be >= 1 and whole: {n}")
        return _combine([self] * int(n))

    __mul__ = __rmul__ = scale

    def merge(self, other):
        return _combine([self, other])

    __add__ = merge

    # -- sampling ------------------------------------------------------------

    def sample(self, tag, count, strategy=None, seed=None, weights=None):
        if tag not in self.mesh_pool:
            raise UnknownTag(f"unknown tag {tag!r}")
        kind = strategy or "uniform-vertex-subset"
        strat = ResampleStrategy(tag, kind, count, weights=weights)
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        self._apply_strategy(strat, rng)

    def register_resampler(self, tag, kind="uniform-vertex-subset",
                           count=None, weights=None):
        if tag not in self.mesh_pool:
            raise UnknownTag(f"unknown tag {tag!r}")
        count = count if count is not None else self.context[tag].shape[2]
        self.resamplers[tag] = ResampleStrategy(tag, kind, count,
                                                weights=weights)

    def apply_resamplers(self, rng=None):
        rng = rng or self._rng
        for tag in sorted(self.resamplers):
            self._apply_strategy(self.resamplers[tag], rng)

    def _apply_strategy(self, strat, rng):
        pool = self.mesh_pool[strat.tag]
        N = pool.shape[2]
        if strat.kind == "uniform-vertex-subset":
            if strat.count > N:
                raise CountExceedsPool(
                    f"requested {strat.count} of {N} pool points for "
                    f"{strat.tag!r}"
                )
            if strat.count == N:
                idx = np.arange(N)
            else:
                idx = np.sort(rng.choice(N, size=strat.count, replace=False))
        else:  # residual-weighted
            w = strat.weights
            if callable(w):
                w = w(self)
            if w is None:
                w = np.ones(N)
            w = np.asarray(w, dtype=np.float64).reshape(-1)
            if len(w) != N:
                raise BadShape(
                    f"weights length {len(w)} != pool size {N} for {strat.tag!r}"
                )
            if not np.isfinite(w).all():
                raise BadShape(f"weights for {strat.tag!r} are not finite")
            p = np.abs(w)
            total = p.sum()
            p = np.full(N, 1.0 / N) if total <= 0 else p / total
            idx = rng.choice(N, size=strat.count, replace=True, p=p)
        sampled = pool[:, :, idx, :]
        self.context[strat.tag] = np.ascontiguousarray(
            np.broadcast_to(sampled, (self.batch,) + sampled.shape[1:]))
        ids = self.pool_ids[strat.tag]
        self.vertex_ids[strat.tag] = None if ids is None else ids[idx]

    # -- geometry queries -----------------------------------------------------

    def normals(self, tag):
        """Outward unit normals at the tagged boundary vertices, (N_tag, D)."""
        if tag not in self.mesh.tags:
            raise UnknownTag(f"unknown tag {tag!r}")
        idx = self.mesh.tags[tag]
        on_boundary = np.zeros(self.mesh.num_vertices, dtype=bool)
        on_boundary[self.connectivity.boundary_vertices] = True
        if len(idx) == 0 or not on_boundary[idx].all():
            raise NotABoundaryTag(f"tag {tag!r} is not a boundary tag")
        return Tensor(self.connectivity.vertex_normals[idx])

    def total_measure(self):
        return float(self.connectivity.nodal_measure.sum())

    # -- fem hooks (implemented in jno.fem) ------------------------------------

    def init_fem(self, quad_degree=2, bcs=()):
        from . import fem

        fem.init_fem(self, quad_degree=quad_degree, bcs=bcs)
        return self

    def dirichlet(self, tags, value):
        from . import fem

        return fem.Dirichlet(tags, value)

    def neumann(self, tags):
        from . import fem

        return fem.Neumann(tags)

    def fem_symbols(self):
        from . import fem

        return fem.fem_symbols(self)


def _combine(parts):
    """Concatenate domains along the batch axis with aligned tags: a shallow
    copy of the first part that rebuilds the stores that concatenate
    (`context`, `vertex_ids`, `tensor_tags`) or must not alias (`mesh_pool`,
    `pool_ids`, `resamplers`, `_vars`, `coordinates`, `_rng`) and shares the
    rest: the mesh, its connectivity and FD operators, time axis and FEM."""
    first = parts[0]
    for d in parts[1:]:
        if d.mesh is not first.mesh and (
            d.mesh.num_vertices != first.mesh.num_vertices
            or d.mesh.kind != first.mesh.kind
        ):
            raise TagMismatch("merged domains must share mesh topology")
        if d.num_times != first.num_times:
            raise TagMismatch("merged domains must share the time axis")
        if sorted(d.context) != sorted(first.context):
            raise TagMismatch("merged domains must carry the same tags")
        for tag in first.context:
            if d.context[tag].shape[1:] != first.context[tag].shape[1:]:
                raise TagMismatch(
                    f"context shapes differ for tag {tag!r}: "
                    f"{d.context[tag].shape} vs {first.context[tag].shape}"
                )
        if sorted(d.tensor_tags) != sorted(first.tensor_tags):
            raise TagMismatch("merged domains must carry the same tensor tags")

    out = copy.copy(first)
    out.batch = sum(d.batch for d in parts)
    out.context = {tag: np.concatenate([d.context[tag] for d in parts])
                   for tag in first.context}
    # ids hold where every part has them for a mesh with the same vertices
    same = all(np.array_equal(d.mesh.vertices, out.mesh.vertices)
               for d in parts)
    out.vertex_ids = {
        t: None if not same or any(d.vertex_ids.get(t) is None for d in parts)
        else np.concatenate([np.broadcast_to(d.vertex_ids[t],
                                             d.context[t].shape[:-1])
                             for d in parts])
        for t in first.context}
    out.tensor_tags = {n: np.concatenate([d.tensor_tags[n] for d in parts])
                       for n in first.tensor_tags}
    out.mesh_pool, out.pool_ids, out.resamplers = (
        dict(first.mesh_pool), dict(first.pool_ids), dict(first.resamplers))
    out._vars, out.coordinates = {}, {}
    for d in parts:
        out._vars.update(d._vars)
        out.coordinates.update(d.coordinates)
    out._rng = np.random.default_rng(0)
    return out


# ---------------------------------------------------------------------------
# Constructors (the `jno.domain.rect(...)` surface)
# ---------------------------------------------------------------------------

def line(mesh_size=0.1, x_range=(0.0, 1.0), time=None):
    return Domain(meshmod.line_mesh(x_range, mesh_size), time=time)


def rect(mesh_size=0.1, x_range=(0.0, 1.0), y_range=(0.0, 1.0), time=None):
    return Domain(meshmod.rect_mesh(x_range, y_range, mesh_size), time=time)


def structured_rect(nx, ny, x_range=(0.0, 1.0), y_range=(0.0, 1.0), time=None):
    return Domain(meshmod.rect_mesh(x_range, y_range, None, nx=nx, ny=ny),
                  time=time)


def disk(mesh_size=0.1, radius=1.0, center=(0.0, 0.0), time=None):
    return Domain(meshmod.disk_mesh(radius, center, mesh_size), time=time)


def lshape(mesh_size=0.1, size=1.0, time=None):
    return Domain(meshmod.lshape_mesh(mesh_size, size), time=time)


def cube(mesh_size=0.25, x_range=(0.0, 1.0), y_range=(0.0, 1.0),
         z_range=(0.0, 1.0), time=None):
    return Domain(meshmod.cube_mesh(x_range, y_range, z_range, mesh_size),
                  time=time)


def rect_with_hole(mesh_size=0.1, x_range=(0.0, 1.0), y_range=(0.0, 1.0),
                   hole_center=(0.5, 0.5), hole_radius=0.2, time=None):
    return Domain(
        meshmod.rect_with_hole_mesh(x_range, y_range, hole_center,
                                    hole_radius, mesh_size),
        time=time,
    )


def load_mesh(path, time=None):
    """Load the native line-oriented mesh text format."""
    return Domain(meshmod.load_mesh_text(path), time=time)


def save_mesh(domain, path):
    meshmod.save_mesh_text(domain.mesh, path)
