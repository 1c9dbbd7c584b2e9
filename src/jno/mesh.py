"""Meshes, tags, connectivity metadata, simplex geometry and the native mesh
text format.  Measures and P1 basis gradients come from each simplex's
edge matrix, the same code for every element kind.

Built-in constructors cover lines, rectangles, disks, L-shapes, cubes and a
rectangle with one circular hole.  Every one but the disk is one structured
grid, `_grid_mesh`: the Kuhn (Freudenthal) split of each box cell into k!
simplices, all with det J > 0, optionally filtered by centroid.  The disk
triangulates its concentric rings band by band (`disk_mesh`).  Meshes (and
everything derived from them) are bitwise reproducible, and their
`boundary` and `interior` tags are the ones `Mesh` infers from the facets.

Nothing here imports scipy.sparse: `Connectivity` sorts its neighbor lists
with numpy, so building a domain costs no more than numpy's import.  Only
point location (`Mesh.locator`) imports scipy, for `scipy.spatial`, whose
k-d tree module loads scipy.sparse itself.
"""

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateGeometry,
    ParseError,
    UnsupportedElement,
)

ELEMENT_KINDS = {"LINE2": 2, "TRI3": 3, "TET4": 4}


def _check_indices(idx, count, what):
    """ParseError naming the first vertex index in `idx` outside
    [0, `count`), which `what` (an element or a tag) references."""
    if idx.size and (idx.min() < 0 or idx.max() >= count):
        bad = idx[(idx < 0) | (idx >= count)].flat[0]
        raise ParseError(
            f"{what} references vertex {bad}, outside [0, {count})")


class Mesh:
    """Vertices, elements and named vertex-index tags."""

    def __init__(self, vertices, elements, kind, tags=None):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.elements = np.asarray(elements, dtype=np.int64)
        if not np.isfinite(self.vertices).all():
            i = np.argwhere(~np.isfinite(self.vertices))[0][0]
            raise DegenerateGeometry(
                f"vertex {i} has non-finite coordinates "
                f"{self.vertices[i].tolist()}")
        if kind not in ELEMENT_KINDS:
            raise UnsupportedElement(f"unknown element kind {kind!r}")
        if self.elements.ndim != 2 or self.elements.shape[1] != ELEMENT_KINDS[kind]:
            raise UnsupportedElement(
                f"{kind} elements need {ELEMENT_KINDS[kind]} vertices per row"
            )
        self.kind = kind
        self.tags = {name: np.unique(np.asarray(idx, dtype=np.int64))
                     for name, idx in (tags or {}).items()}
        _check_indices(self.elements, len(self.vertices), "element")
        for name, idx in self.tags.items():
            _check_indices(idx, len(self.vertices), f"tag {name!r}")
        if "boundary" not in self.tags or "interior" not in self.tags:
            self._infer_interior_boundary()

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def num_vertices(self):
        return len(self.vertices)

    # -- boundary inference -------------------------------------------------

    @cached_property
    def boundary_facets(self):
        """Facets owned by exactly one element, as an (F, k) array of sorted
        vertex rows in lexicographic order, and the index of each facet's
        owner element.  One stable lexsort groups equal rows into runs; a
        run of length one is a boundary facet."""
        local = local_facets(self.elements.shape[1] - 1)
        rows = np.sort(self.elements[:, local], axis=2).reshape(
            -1, local.shape[1])
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (rows[1:] != rows[:-1]).any(axis=1))))
        once = starts[np.diff(starts, append=len(rows)) == 1]
        return rows[once], order[once] // len(local)

    @cached_property
    def locator(self):
        """The point-location data of `evaluator._locate_barycentric`: a
        k-d tree of the element centroids, the first vertex of each element
        as (D, E) and the basis gradients (k+1, D, E) of
        :func:`basis_gradients`."""
        from scipy.spatial import cKDTree

        corners = self.vertices.take(self.elements, axis=0)
        return (cKDTree(corners.mean(axis=1)),
                np.ascontiguousarray(corners[:, 0].T),
                basis_gradients(self.vertices, self.elements))

    def _infer_interior_boundary(self):
        boundary = np.unique(self.boundary_facets[0])
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[boundary] = False
        self.tags.setdefault("boundary", boundary)
        self.tags.setdefault("interior", np.nonzero(mask)[0])


class Connectivity:
    """Neighbor lists, lumped nodal measures and outward boundary normals,
    all derived from the mesh geometry.

    The neighbors of vertex i, in increasing order, are
    ``neighbor_indices[neighbor_indptr[i]:neighbor_indptr[i + 1]]``.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        V = mesh.num_vertices
        elems = mesh.elements
        nodes_per = elems.shape[1]

        # vertex adjacency: every ordered pair of distinct vertices of an
        # element, as the distinct keys row * V + col in increasing order
        # (a sort and a mask; np.unique takes several times as long)
        rows = np.repeat(elems, nodes_per, axis=1).ravel()
        cols = np.tile(elems, (1, nodes_per)).ravel()
        off = rows != cols
        keys = np.sort(rows[off] * V + cols[off])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.neighbor_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(keys // V, minlength=V))))
        self.neighbor_indices = keys % V

        self.nodal_measure = np.bincount(
            elems.ravel(), minlength=V,
            weights=np.repeat(element_measures(mesh) / nodes_per, nodes_per),
        )

        self.boundary_facets, owners = mesh.boundary_facets
        self.boundary_vertices = np.unique(self.boundary_facets)
        self.vertex_normals = self._vertex_normals(owners)

    def _vertex_normals(self, owners):
        """Unit normal of each boundary facet pointing away from its owner
        element, summed per boundary vertex and normalized.

        The facet normal is the offset from the owner's centroid to the
        facet's centroid with its components along the facet's edges
        projected out.
        """
        mesh = self.mesh
        pts = mesh.vertices.take(self.boundary_facets, axis=0)  # (F, k, D)
        d = pts.mean(axis=1) - mesh.vertices.take(
            mesh.elements[owners], axis=0).mean(axis=1)
        edges = pts[:, 1:] - pts[:, :1]                         # (F, k-1, D)
        gram = edges @ edges.transpose(0, 2, 1)
        if (np.linalg.det(gram) == 0).any():
            raise DegenerateGeometry("zero-length boundary facet")
        coef = np.linalg.solve(gram, edges @ d[:, :, None])
        n = d - (edges.transpose(0, 2, 1) @ coef)[:, :, 0]
        length = np.linalg.norm(n, axis=1)
        if (length == 0).any():
            raise DegenerateGeometry(
                "boundary facet through its element's centroid")

        acc = np.zeros((mesh.num_vertices, mesh.dim))
        np.add.at(acc, self.boundary_facets, (n / length[:, None])[:, None])
        bv = self.boundary_vertices
        norm = np.linalg.norm(acc[bv], axis=1)
        if (norm == 0).any():
            raise DegenerateGeometry(
                f"undefined normal at vertex {bv[np.argmin(norm)]}")
        normals = np.zeros_like(acc)
        normals[bv] = acc[bv] / norm[:, None]
        return normals


def local_facets(k):
    """The local vertex indices (k+1, k) of the facets of a k-simplex."""
    return np.array(list(itertools.combinations(range(k + 1), k)))


def element_measures(mesh):
    return simplex_measures(mesh.vertices, mesh.elements)


def _det(M):
    """Determinants of the (k, k) matrices M (E, k, k), k <= 3, as the
    Leibniz sum over permutations: fewer operations than an LU on such
    small matrices, and the closed forms of a length and a 2-D area."""
    k = M.shape[1]
    det = 0.0
    for perm in itertools.permutations(range(k)):
        term = np.ones(len(M))
        for i, j in enumerate(perm):
            term = term * M[:, i, j]
        det = det - term if _odd(perm) else det + term
    return det


def _odd(perm):
    """Whether the permutation `perm` has an odd number of inversions."""
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 1


def _edge_matrices(vertices, cells):
    """The edge matrices (E, k, D) of the simplices `cells` (E, k+1), rows
    x_i - x_0; `take` gathers these short rows about ten times faster than
    fancy indexing."""
    corners = vertices.take(cells, axis=0)
    return corners[:, 1:] - corners[:, :1]


def simplex_measures(vertices, cells):
    """The k-dimensional measure of each simplex of `cells` (E, k+1) in
    `vertices` (V, D), from its edge matrix J (k, D), rows x_i - x_0:
    |det J| / k! when the cells are full-dimensional (k = D),
    sqrt(det(J J^T)) / k! on lower-dimensional ones."""
    J = _edge_matrices(vertices, cells)
    k, D = J.shape[1:]
    if k == D:
        return np.abs(_det(J)) / math.factorial(k)
    return np.sqrt(_det(J @ J.transpose(0, 2, 1))) / math.factorial(k)


def basis_gradients(vertices, cells):
    """The P1 basis gradients of full-dimensional simplices `cells`
    (E, k+1), as G (k+1, D, E): the barycentric weights of a point p in
    cell e are lambda_a = delta_a0 + G[a, :, e] . (p - x_0[e]).
    DegenerateGeometry names the first cell of zero measure, to rounding:
    |det J| at most 1e-12 of the largest |det J|."""
    J = _edge_matrices(vertices, cells)
    k, D = J.shape[1:]
    if k != D:
        raise UnsupportedElement(
            f"{k}-simplices in {D} dimensions are not full-dimensional")
    det = _det(J)
    flat = np.abs(det) <= 1e-12 * np.abs(det).max(initial=0.0)
    if flat.any():
        e = int(np.argmax(flat))
        raise DegenerateGeometry(
            f"cell {e} {cells[e].tolist()} has zero measure")
    # column j of inv(J), the gradient of lambda_j+1, is the cofactors of
    # row j of J over det J: no LAPACK call per small matrix
    rest = [np.delete(np.arange(k), i) for i in range(k)]
    grads = np.array([[(-1) ** (i + j) * _det(J[:, rest[j]][:, :, rest[i]])
                       for i in range(k)] for j in range(k)]) / det
    return np.concatenate([-grads.sum(axis=0, keepdims=True), grads])


# ---------------------------------------------------------------------------
# Geometry constructors
# ---------------------------------------------------------------------------

def _steps(ranges, mesh_size):
    """The cell count of each (lo, hi) of `ranges` at `mesh_size`."""
    for lo, hi in ranges:
        if hi <= lo:
            raise DegenerateGeometry(f"degenerate range ({lo}, {hi})")
    if mesh_size <= 0:
        raise DegenerateGeometry(f"mesh_size must be positive, got {mesh_size}")
    return [max(1, int(round((hi - lo) / mesh_size))) for lo, hi in ranges]


_SIDES = (("left", "right"), ("bottom", "top"), ("front", "back"))


def _grid_mesh(ranges, counts, keep=None):
    """The Kuhn split of the box `ranges` ((lo, hi) per axis) into `counts`
    cells per axis: vertices on the ``indexing="ij"`` tensor grid, and each
    cell, in row-major order, split into one simplex per order of the axes,
    the path through its corners along them, with the last two vertices
    swapped for an odd order so that det J > 0.  The faces are tagged
    left/right, bottom/top and front/back along axes 0, 1 and 2.  `keep`
    (centroids (E, D) -> mask) drops simplices; the vertices left in use are
    renumbered in order.
    """
    if not all(n >= 1 and float(n).is_integer() for n in counts):
        raise DegenerateGeometry(
            f"a grid needs a whole number of cells, at least one cell a "
            f"side, got {' x '.join(map(str, counts))}")
    D, counts = len(counts), [int(n) for n in counts]
    axes = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(ranges, counts)]
    vertices = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                        axis=1)
    vid = np.arange(len(vertices)).reshape([n + 1 for n in counts])
    step = np.array(vid.strides) // vid.itemsize  # id step along each axis
    lower = vid[tuple(slice(0, n) for n in counts)][..., None]
    simplices = []
    for perm in itertools.permutations(range(D)):
        path = np.cumsum([0, *step[list(perm)]])
        if _odd(perm):
            path[-2:] = path[[-1, -2]]
        simplices.append(lower + path)
    elements = np.stack(simplices, axis=-2).reshape(-1, D + 1)
    tags = {side: np.take(vid, end, axis=a).ravel()
            for a, pair in enumerate(_SIDES[:D])
            for side, end in zip(pair, (0, -1))}
    if keep is not None:
        # take and compress: a tenth and a third of the time of the
        # equivalent fancy and boolean indexing on these small rows
        centroids = vertices.take(elements.T, axis=0).mean(axis=0)
        elements = elements.compress(keep(centroids), axis=0)
        used = np.zeros(len(vertices), dtype=bool)
        used[elements] = True
        new = np.cumsum(used) - 1
        vertices, elements = vertices.compress(used, axis=0), new[elements]
        tags = {side: new[idx[used[idx]]] for side, idx in tags.items()}
    return Mesh(vertices, elements, list(ELEMENT_KINDS)[D - 1], tags)


def line_mesh(x_range=(0.0, 1.0), mesh_size=0.1):
    return _grid_mesh([x_range], _steps([x_range], mesh_size))


def rect_mesh(x_range=(0.0, 1.0), y_range=(0.0, 1.0), mesh_size=0.1,
              nx=None, ny=None):
    """`nx` x `ny` cells, or as many as `mesh_size` fits where one is None."""
    ranges = [x_range, y_range]
    if nx is None or ny is None:
        steps = _steps(ranges, mesh_size)
        nx, ny = (s if n is None else n for n, s in zip((nx, ny), steps))
    return _grid_mesh(ranges, [nx, ny])


def disk_mesh(radius=1.0, center=(0.0, 0.0), mesh_size=0.1):
    """The centre and `nr` = round(radius / mesh_size) concentric rings,
    ring k holding 6k equally spaced points from angle 0, triangulated
    ring by ring: ring 1 is a fan around the centre, and the band between
    rings k-1 and k is one merge of their edges by the angle of the
    edge's midpoint, (2i+1) pi / (6(k-1)) inside and (2o+1) pi / (6k)
    outside, compared in integers (the two never tie).  An inner edge
    makes a triangle with the current outer point, an outer edge one with
    the current inner point: 12k - 6 triangles, all with det J > 0.  The
    result is the Delaunay triangulation of the vertices (qhull's,
    checked up to 100 rings), built without computing one.
    """
    r = float(radius)
    if r <= 0 or mesh_size <= 0:
        raise DegenerateGeometry("disk needs positive radius and mesh_size")
    nr = max(1, int(round(r / mesh_size)))
    pts = [np.array(center, dtype=np.float64)]
    for ring in range(1, nr + 1):
        rr = r * ring / nr
        count = 6 * ring
        theta = 2 * np.pi * np.arange(count) / count
        ring_pts = np.stack(
            [center[0] + rr * np.cos(theta), center[1] + rr * np.sin(theta)],
            axis=1,
        )
        pts.append(ring_pts)
    vertices = np.vstack([pts[0][None, :], *pts[1:]])
    fan = np.arange(6)
    # one merge step per edge of the bands k = 2..nr: first the 6(k-1)
    # inner edges j of each band, then its 6k outer ones
    k = np.arange(2, nr + 1)
    steps = 12 * k - 6
    k = np.repeat(k, steps)
    first = np.repeat(np.cumsum(steps) - steps, steps)
    pos = np.arange(len(k)) - first
    m, n = 6 * (k - 1), 6 * k
    inner = pos < m
    j = np.where(inner, pos, pos - m)
    # the midpoint angle times 6k(k-1) / pi, after the band number
    key = (2 * j + 1) * np.where(inner, k, k - 1) + k * (12 * nr * nr)
    inner = inner[np.argsort(key)]
    i = np.cumsum(inner) - inner  # inner edges merged before each step
    i -= i[first]
    o = pos - i
    lo, hi = 1 + 3 * (k - 1) * (k - 2), 1 + 3 * k * (k - 1)  # ring starts
    elements = np.concatenate([
        np.stack([np.zeros(6, np.int64), 1 + fan, 1 + (fan + 1) % 6], axis=1),
        np.stack([lo + i % m, hi + o % n,
                  np.where(inner, lo + (i + 1) % m, hi + (o + 1) % n)],
                 axis=1)])
    return Mesh(vertices, elements, "TRI3")


def lshape_mesh(mesh_size=0.1, size=1.0):
    """[0,size]^2 with the upper-right quadrant removed."""
    n, = _steps([(0.0, size)], mesh_size)
    n += n % 2  # keep the reentrant corner on the grid
    half = size / 2
    return _grid_mesh([(0.0, size)] * 2, [n, n],
                      keep=lambda c: (c[:, 0] <= half) | (c[:, 1] <= half))


def cube_mesh(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
              mesh_size=0.25):
    """Structured box split into six tetrahedra per grid cell, with the
    faces tagged left/right (x0/x1), bottom/top (y0/y1), front/back (z0/z1)."""
    ranges = [x_range, y_range, z_range]
    return _grid_mesh(ranges, _steps(ranges, mesh_size))


def rect_with_hole_mesh(x_range=(0.0, 1.0), y_range=(0.0, 1.0),
                        hole_center=(0.5, 0.5), hole_radius=0.2,
                        mesh_size=0.1):
    """Structured rectangle less the triangles whose centroids lie inside
    the hole; the inferred boundary splits into `boundary`, on a side of
    the rectangle, and `hole`, the staircase polygon of the retained grid
    (accurate to O(mesh_size))."""
    c = np.asarray(hole_center, dtype=np.float64)
    r = float(hole_radius)
    if r <= 0:
        raise DegenerateGeometry("hole radius must be positive")
    ranges = [x_range, y_range]
    counts = _steps(ranges, mesh_size)
    mesh = _grid_mesh(ranges, counts,
                      keep=lambda cen: np.linalg.norm(cen - c, axis=1) > r)
    if len(mesh.elements) == 2 * math.prod(counts):
        raise DegenerateGeometry("hole smaller than one element")
    on_side = np.zeros(mesh.num_vertices, dtype=bool)
    for side in ("left", "right", "bottom", "top"):
        on_side[mesh.tags[side]] = True
    rim = mesh.tags["boundary"]
    mesh.tags["boundary"], mesh.tags["hole"] = (rim[on_side[rim]],
                                                rim[~on_side[rim]])
    return mesh


# ---------------------------------------------------------------------------
# Native mesh text format
#
#   mesh <dim>
#   vertices <V>
#   <V lines of D floats>
#   elements <kind> <E>
#   <E lines of 0-based vertex indices>
#   tag <name> <K>
#   <K lines of vertex indices>
# ---------------------------------------------------------------------------

def save_mesh_text(mesh, path):
    lines = [f"mesh {mesh.dim}", f"vertices {mesh.num_vertices}"]
    for row in mesh.vertices:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append(f"elements {mesh.kind} {len(mesh.elements)}")
    for row in mesh.elements:
        lines.append(" ".join(str(int(v)) for v in row))
    for name in sorted(mesh.tags):
        idx = mesh.tags[name]
        lines.append(f"tag {name} {len(idx)}")
        for v in idx:
            lines.append(str(int(v)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of file", lines[-1][0] if lines else 0)
        item = lines[pos]
        pos += 1
        return item

    def header(form):
        """(line, middle words, count) of a header line of the form `form`
        ('elements <kind> <E>'), whose last word is a non-negative count."""
        ln, text = take()
        words, expected = text.split(), form.split()
        if len(words) != len(expected) or words[0] != expected[0]:
            raise ParseError(f"expected {form!r}", ln)
        try:
            n = int(words[-1])
        except ValueError:
            raise ParseError(f"bad count {words[-1]!r}", ln) from None
        if n < 0:
            raise ParseError(f"negative count {n}", ln)
        return ln, words[1:-1], n

    def rows(count, width, parse, bound, messages):
        """`count` rows of `width` words read by `parse`, below `bound` if
        it is not None; `messages` name a row of the wrong width, a word
        that `parse` refuses and a value out of bounds."""
        what, bad, stray = messages
        out = []
        for _ in range(count):
            ln, text = take()
            words = text.split()
            if len(words) != width:
                raise ParseError(f"expected {width} {what}", ln)
            try:
                row = [parse(w) for w in words]
            except ValueError:
                raise ParseError(bad, ln) from None
            if bound is not None and not all(0 <= v < bound for v in row):
                raise ParseError(stray, ln)
            out.append(row)
        return out

    dim = header("mesh <dim>")[2]
    V = header("vertices <V>")[2]
    vertices = np.array(rows(V, dim, float, None,
                             ("coordinates", "bad float", None)),
                        dtype=np.float64).reshape(V, dim)
    ln, (kind,), E = header("elements <kind> <E>")
    if kind not in ELEMENT_KINDS:
        raise UnsupportedElement(
            f"line {ln}: unsupported element kind {kind!r}")
    width = ELEMENT_KINDS[kind]
    elements = np.array(rows(E, width, int, V, (
        "vertex indices", "bad vertex index", "dangling element index")),
        dtype=np.int64).reshape(E, width)
    tags = {}
    while pos < len(lines):
        _, (name,), K = header("tag <name> <K>")
        tags[name] = [v for v, in rows(K, 1, int, V, (
            "vertex index", "bad vertex index", "tag index out of range"))]
    return Mesh(vertices, elements, kind, tags)
