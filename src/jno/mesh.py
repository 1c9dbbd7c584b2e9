"""Meshes, tags, connectivity metadata, simplex geometry and the native mesh
text format.  Measures and P1 basis gradients come from each simplex's
edge matrix, the same code for every element kind.

Built-in constructors cover lines, rectangles, disks, L-shapes, cubes and a
rectangle with one circular hole.  Rectangles use a structured triangulation
with a fixed diagonal so meshes (and everything derived from them) are
bitwise reproducible.
"""

import itertools
import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateGeometry,
    ParseError,
    UnsupportedElement,
)

ELEMENT_KINDS = {"LINE2": 2, "TRI3": 3, "TET4": 4}


class Mesh:
    """Vertices, elements and named vertex-index tags."""

    def __init__(self, vertices, elements, kind, tags=None):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.elements = np.asarray(elements, dtype=np.int64)
        if kind not in ELEMENT_KINDS:
            raise UnsupportedElement(f"unknown element kind {kind!r}")
        if self.elements.ndim != 2 or self.elements.shape[1] != ELEMENT_KINDS[kind]:
            raise UnsupportedElement(
                f"{kind} elements need {ELEMENT_KINDS[kind]} vertices per row"
            )
        if self.elements.size and self.elements.max() >= len(self.vertices):
            raise ParseError("element references vertex beyond vertex count")
        self.kind = kind
        self.tags = {name: np.unique(np.asarray(idx, dtype=np.int64))
                     for name, idx in (tags or {}).items()}
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

        corners = self.vertices[self.elements]
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

        # vertex adjacency: every ordered pair of distinct vertices of an element
        rows = np.repeat(elems, nodes_per, axis=1).ravel()
        cols = np.tile(elems, (1, nodes_per)).ravel()
        off = rows != cols
        adj = sp.csr_matrix((np.ones(off.sum()), (rows[off], cols[off])),
                            shape=(V, V))
        adj.sum_duplicates()
        self.neighbor_indptr = adj.indptr.astype(np.int64)
        self.neighbor_indices = adj.indices.astype(np.int64)

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
        pts = mesh.vertices[self.boundary_facets]             # (F, k, D)
        d = pts.mean(axis=1) - mesh.vertices[mesh.elements[owners]].mean(axis=1)
        edges = pts[:, 1:] - pts[:, :1]                       # (F, k-1, D)
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
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        det = det - term if odd else det + term
    return det


def simplex_measures(vertices, cells):
    """The k-dimensional measure of each simplex of `cells` (E, k+1) in
    `vertices` (V, D), from its edge matrix J (k, D), rows x_i - x_0:
    |det J| / k! when the cells are full-dimensional (k = D),
    sqrt(det(J J^T)) / k! on lower-dimensional ones."""
    J = vertices[cells[:, 1:]] - vertices[cells[:, :1]]
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
    J = vertices[cells[:, 1:]] - vertices[cells[:, :1]]
    k, D = J.shape[1:]
    if k != D:
        raise UnsupportedElement(
            f"{k}-simplices in {D} dimensions are not full-dimensional")
    det = np.abs(_det(J))
    flat = det <= 1e-12 * det.max(initial=0.0)
    if flat.any():
        e = int(np.argmax(flat))
        raise DegenerateGeometry(
            f"cell {e} {cells[e].tolist()} has zero measure")
    # column j of inv(J) is the gradient of lambda_j+1
    grads = np.linalg.inv(J).transpose(2, 1, 0)
    return np.concatenate([-grads.sum(axis=0, keepdims=True), grads])


# ---------------------------------------------------------------------------
# Geometry constructors
# ---------------------------------------------------------------------------

def _steps(lo, hi, mesh_size):
    if hi <= lo:
        raise DegenerateGeometry(f"degenerate range ({lo}, {hi})")
    if mesh_size <= 0:
        raise DegenerateGeometry(f"mesh_size must be positive, got {mesh_size}")
    return max(1, int(round((hi - lo) / mesh_size)))


def line_mesh(x_range=(0.0, 1.0), mesh_size=0.1):
    lo, hi = float(x_range[0]), float(x_range[1])
    n = _steps(lo, hi, mesh_size)
    xs = np.linspace(lo, hi, n + 1)
    vertices = xs[:, None]
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    tags = {
        "left": [0],
        "right": [n],
        "boundary": [0, n],
        "interior": list(range(1, n)),
    }
    return Mesh(vertices, elements, "LINE2", tags)


def rect_mesh(x_range=(0.0, 1.0), y_range=(0.0, 1.0), mesh_size=0.1,
              nx=None, ny=None):
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    if nx is None:
        nx = _steps(x0, x1, mesh_size)
    if ny is None:
        ny = _steps(y0, y1, mesh_size)
    if nx < 1 or ny < 1:
        raise DegenerateGeometry(
            f"a rectangle needs at least one cell a side, got {nx} x {ny}")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)
    vid = np.arange(len(vertices)).reshape(nx + 1, ny + 1)
    rim = np.ones_like(vid, dtype=bool)
    rim[1:-1, 1:-1] = False
    tags = {
        "left": vid[0], "right": vid[nx],
        "bottom": vid[:, 0], "top": vid[:, ny],
        "boundary": vid[rim], "interior": vid[~rim],
    }
    return Mesh(vertices, _grid_triangles(vid), "TRI3", tags)


def _grid_triangles(vid):
    """Two triangles per grid cell whose four corner ids all exist (>= 0),
    split along the fixed diagonal from (i, j) to (i+1, j+1); cells in
    row-major order."""
    cells = np.stack([vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]],
                     axis=-1).reshape(-1, 4)
    cells = cells[(cells >= 0).all(axis=1)]
    return cells[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)


def disk_mesh(radius=1.0, center=(0.0, 0.0), mesh_size=0.1):
    from scipy.spatial import Delaunay

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
    tri = Delaunay(vertices)
    elements = np.asarray(tri.simplices, dtype=np.int64)
    # drop degenerate slivers (collinear points on the rim)
    elements = elements[simplex_measures(vertices, elements) > 1e-14]
    return Mesh(vertices, elements, "TRI3")


def lshape_mesh(mesh_size=0.1, size=1.0):
    """[0,size]^2 with the upper-right quadrant removed."""
    s = float(size)
    n = _steps(0.0, s, mesh_size)
    if n % 2 == 1:
        n += 1  # keep the reentrant corner on the grid
    xs = np.linspace(0.0, s, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    keep = (X <= s / 2 + 1e-12) | (Y <= s / 2 + 1e-12)
    grid_id = np.full(X.shape, -1, dtype=np.int64)
    grid_id[keep] = np.arange(keep.sum())
    vertices = np.stack([X[keep], Y[keep]], axis=1)
    return Mesh(vertices, _grid_triangles(grid_id), "TRI3")


def cube_mesh(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
              mesh_size=0.25):
    """Structured box split into six tetrahedra per grid cell."""
    x0, x1 = map(float, x_range)
    y0, y1 = map(float, y_range)
    z0, z1 = map(float, z_range)
    nx, ny, nz = (_steps(x0, x1, mesh_size), _steps(y0, y1, mesh_size),
                  _steps(z0, z1, mesh_size))
    xs, ys, zs = (np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1),
                  np.linspace(z0, z1, nz + 1))
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    vid = np.arange(len(vertices)).reshape(nx + 1, ny + 1, nz + 1)

    # corners of every hexahedron, indexed as binary abc
    corners = np.stack([
        vid[a:a + nx, b:b + ny, c:c + nz].ravel()
        for a in (0, 1) for b in (0, 1) for c in (0, 1)
    ], axis=1)
    # six tetrahedra per hexahedron (Kuhn split, fixed orientation)
    corner_tets = [
        (0, 1, 3, 7), (0, 1, 5, 7), (0, 4, 5, 7),
        (0, 2, 3, 7), (0, 2, 6, 7), (0, 4, 6, 7),
    ]
    return Mesh(vertices, corners[:, corner_tets].reshape(-1, 4), "TET4")


def rect_with_hole_mesh(x_range=(0.0, 1.0), y_range=(0.0, 1.0),
                        hole_center=(0.5, 0.5), hole_radius=0.2,
                        mesh_size=0.1):
    """Structured rectangle with triangles inside the hole removed.

    The hole boundary is the staircase polygon of the retained grid; at
    desk scale that is accurate to O(mesh_size).
    """
    base = rect_mesh(x_range, y_range, mesh_size)
    c = np.asarray(hole_center, dtype=np.float64)
    r = float(hole_radius)
    if r <= 0:
        raise DegenerateGeometry("hole radius must be positive")
    centroids = base.vertices[base.elements].mean(axis=1)
    keep = np.linalg.norm(centroids - c, axis=1) > r
    if keep.all():
        raise DegenerateGeometry("hole smaller than one element")
    elements = base.elements[keep]
    used = np.unique(elements)
    remap = -np.ones(base.num_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    vertices = base.vertices[used]
    elements = remap[elements]

    mesh = Mesh(vertices, elements, "TRI3")
    on_boundary = np.zeros(len(vertices), dtype=bool)
    on_boundary[mesh.tags["boundary"]] = True
    outer_old = np.zeros(base.num_vertices, dtype=bool)
    outer_old[base.tags["boundary"]] = True
    outer = on_boundary & outer_old[used]
    mesh.tags["boundary"] = np.nonzero(outer)[0]
    mesh.tags["hole"] = np.nonzero(on_boundary & ~outer)[0]
    mesh.tags["interior"] = np.nonzero(~on_boundary)[0]
    for side in ("left", "right", "top", "bottom"):
        new = remap[base.tags[side]]
        mesh.tags[side] = new[new >= 0]
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

    def count(text, ln):
        """The non-negative integer count `text` of a header on line `ln`."""
        try:
            n = int(text)
        except ValueError:
            raise ParseError(f"bad count {text!r}", ln) from None
        if n < 0:
            raise ParseError(f"negative count {n}", ln)
        return n

    ln, header = take()
    parts = header.split()
    if len(parts) != 2 or parts[0] != "mesh":
        raise ParseError("expected 'mesh <dim>'", ln)
    dim = count(parts[1], ln)

    ln, vh = take()
    parts = vh.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise ParseError("expected 'vertices <V>'", ln)
    V = count(parts[1], ln)
    vertices = np.zeros((V, dim))
    for i in range(V):
        ln, row = take()
        vals = row.split()
        if len(vals) != dim:
            raise ParseError(f"expected {dim} coordinates", ln)
        try:
            vertices[i] = [float(v) for v in vals]
        except ValueError:
            raise ParseError("bad float", ln) from None

    ln, eh = take()
    parts = eh.split()
    if len(parts) != 3 or parts[0] != "elements":
        raise ParseError("expected 'elements <kind> <E>'", ln)
    kind = parts[1]
    if kind not in ELEMENT_KINDS:
        raise UnsupportedElement(f"unsupported element kind {kind!r}")
    E = count(parts[2], ln)
    width = ELEMENT_KINDS[kind]
    elements = np.zeros((E, width), dtype=np.int64)
    for i in range(E):
        ln, row = take()
        vals = row.split()
        if len(vals) != width:
            raise ParseError(f"expected {width} vertex indices", ln)
        try:
            idx = [int(v) for v in vals]
        except ValueError:
            raise ParseError("bad vertex index", ln) from None
        if any(v < 0 or v >= V for v in idx):
            raise ParseError("dangling element index", ln)
        elements[i] = idx

    tags = {}
    while pos < len(lines):
        ln, th = take()
        parts = th.split()
        if len(parts) != 3 or parts[0] != "tag":
            raise ParseError("expected 'tag <name> <K>'", ln)
        name, K = parts[1], count(parts[2], ln)
        idx = []
        for _ in range(K):
            ln, row = take()
            try:
                v = int(row)
            except ValueError:
                raise ParseError("bad vertex index", ln) from None
            if v < 0 or v >= V:
                raise ParseError("tag index out of range", ln)
            idx.append(v)
        tags[name] = idx

    return Mesh(vertices, elements, kind, tags)
