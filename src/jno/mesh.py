"""Meshes, tags, connectivity metadata and the native mesh text format.

Built-in constructors cover lines, rectangles, disks, L-shapes, cubes and a
rectangle with one circular hole.  Rectangles use a structured triangulation
with a fixed diagonal so meshes (and everything derived from them) are
bitwise reproducible.
"""

import numpy as np

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
        self.tags = {}
        if tags:
            for name, idx in tags.items():
                self.tags[name] = np.asarray(sorted(set(int(i) for i in idx)),
                                             dtype=np.int64)
        if "boundary" not in self.tags or "interior" not in self.tags:
            self._infer_interior_boundary()

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def num_vertices(self):
        return len(self.vertices)

    # -- boundary inference -------------------------------------------------

    def boundary_facets(self):
        """Facets owned by exactly one element, as sorted vertex tuples."""
        counts = {}
        for row in self.elements:
            for facet in _facets_of(row, self.kind):
                counts[facet] = counts.get(facet, 0) + 1
        return [f for f, c in counts.items() if c == 1]

    def _infer_interior_boundary(self):
        facets = self.boundary_facets()
        on_boundary = sorted({v for f in facets for v in f})
        boundary = np.asarray(on_boundary, dtype=np.int64)
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[boundary] = False
        self.tags.setdefault("boundary", boundary)
        self.tags.setdefault("interior", np.nonzero(mask)[0].astype(np.int64))


def _facets_of(element, kind):
    e = [int(v) for v in element]
    if kind == "LINE2":
        return [(e[0],), (e[1],)]
    if kind == "TRI3":
        return [
            tuple(sorted((e[0], e[1]))),
            tuple(sorted((e[1], e[2]))),
            tuple(sorted((e[2], e[0]))),
        ]
    if kind == "TET4":
        return [
            tuple(sorted((e[0], e[1], e[2]))),
            tuple(sorted((e[0], e[1], e[3]))),
            tuple(sorted((e[0], e[2], e[3]))),
            tuple(sorted((e[1], e[2], e[3]))),
        ]
    raise UnsupportedElement(kind)


class Connectivity:
    """Neighbor lists, element topology, lumped nodal measures and
    outward boundary normals, all derived from the mesh geometry."""

    def __init__(self, mesh):
        self.mesh = mesh
        V = mesh.num_vertices
        self.neighbors = [set() for _ in range(V)]
        self.vertex_elements = [[] for _ in range(V)]
        self.nodal_measure = np.zeros(V)

        measures = element_measures(mesh)
        self.element_measure = measures
        nodes_per = mesh.elements.shape[1]
        for ei, row in enumerate(mesh.elements):
            for a in row:
                self.vertex_elements[int(a)].append(ei)
                self.nodal_measure[int(a)] += measures[ei] / nodes_per
            for a in row:
                for b in row:
                    if a != b:
                        self.neighbors[int(a)].add(int(b))
        self.neighbors = [np.asarray(sorted(s), dtype=np.int64)
                          for s in self.neighbors]

        self.boundary_facets = mesh.boundary_facets()
        self.boundary_vertices = np.asarray(
            sorted({v for f in self.boundary_facets for v in f}), dtype=np.int64
        )
        self._facet_owner = self._find_facet_owners()
        self.vertex_normals = self._vertex_normals()

    def _find_facet_owners(self):
        owners = {}
        facet_set = set(self.boundary_facets)
        for ei, row in enumerate(self.mesh.elements):
            for f in _facets_of(row, self.mesh.kind):
                if f in facet_set and f not in owners:
                    owners[f] = ei
        return owners

    def _facet_normal(self, facet, owner):
        """Unit normal of a boundary facet pointing away from its owner."""
        mesh = self.mesh
        pts = mesh.vertices
        centroid = pts[mesh.elements[owner]].mean(axis=0)
        if mesh.kind == "LINE2":
            p = pts[facet[0]]
            n = p - centroid
        elif mesh.kind == "TRI3":
            p0, p1 = pts[facet[0]], pts[facet[1]]
            t = p1 - p0
            n = np.array([t[1], -t[0]])
            if np.dot(n, centroid - (p0 + p1) / 2) > 0:
                n = -n
        else:  # TET4 -> triangular facet
            p0, p1, p2 = pts[facet[0]], pts[facet[1]], pts[facet[2]]
            n = np.cross(p1 - p0, p2 - p0)
            if np.dot(n, centroid - (p0 + p1 + p2) / 3) > 0:
                n = -n
        norm = np.linalg.norm(n)
        if norm == 0:
            raise DegenerateGeometry("zero-length boundary facet")
        return n / norm

    def _vertex_normals(self):
        """Average of adjacent facet normals per boundary vertex, normalized."""
        V = self.mesh.num_vertices
        D = self.mesh.dim
        acc = np.zeros((V, D))
        for facet in self.boundary_facets:
            n = self._facet_normal(facet, self._facet_owner[facet])
            for v in facet:
                acc[v] += n
        normals = np.zeros((V, D))
        for v in self.boundary_vertices:
            norm = np.linalg.norm(acc[v])
            if norm == 0:
                raise DegenerateGeometry(f"undefined normal at vertex {v}")
            normals[v] = acc[v] / norm
        return normals


def element_measures(mesh):
    pts = mesh.vertices[mesh.elements]
    if mesh.kind == "LINE2":
        return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    if mesh.kind == "TRI3":
        a = pts[:, 1] - pts[:, 0]
        b = pts[:, 2] - pts[:, 0]
        return 0.5 * np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    if mesh.kind == "TET4":
        a = pts[:, 1] - pts[:, 0]
        b = pts[:, 2] - pts[:, 0]
        c = pts[:, 3] - pts[:, 0]
        return np.abs(np.einsum("ij,ij->i", a, np.cross(b, c))) / 6.0
    raise UnsupportedElement(mesh.kind)


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
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)

    def vid(i, j):
        return i * (ny + 1) + j

    elements = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            # fixed diagonal from v00 to v11
            elements.append((v00, v10, v11))
            elements.append((v00, v11, v01))
    elements = np.asarray(elements, dtype=np.int64)

    left = [vid(0, j) for j in range(ny + 1)]
    right = [vid(nx, j) for j in range(ny + 1)]
    bottom = [vid(i, 0) for i in range(nx + 1)]
    top = [vid(i, ny) for i in range(nx + 1)]
    boundary = sorted(set(left) | set(right) | set(bottom) | set(top))
    interior = [v for v in range(len(vertices)) if v not in set(boundary)]
    tags = {
        "left": left, "right": right, "bottom": bottom, "top": top,
        "boundary": boundary, "interior": interior,
    }
    return Mesh(vertices, elements, "TRI3", tags)


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
    keep = element_measures(Mesh(vertices, elements, "TRI3", {"interior": [],
                                                              "boundary": []})) > 1e-14
    elements = elements[keep]
    return Mesh(vertices, elements, "TRI3")


def lshape_mesh(mesh_size=0.1, size=1.0):
    """[0,size]^2 with the upper-right quadrant removed."""
    s = float(size)
    n = _steps(0.0, s, mesh_size)
    if n % 2 == 1:
        n += 1  # keep the reentrant corner on the grid
    xs = np.linspace(0.0, s, n + 1)
    grid_id = -np.ones((n + 1, n + 1), dtype=np.int64)
    vertices = []
    half = n // 2
    for i in range(n + 1):
        for j in range(n + 1):
            if xs[i] > s / 2 + 1e-12 and xs[j] > s / 2 + 1e-12:
                continue
            grid_id[i, j] = len(vertices)
            vertices.append((xs[i], xs[j]))
    elements = []
    for i in range(n):
        for j in range(n):
            if i >= half and j >= half:
                continue
            v00, v10 = grid_id[i, j], grid_id[i + 1, j]
            v01, v11 = grid_id[i, j + 1], grid_id[i + 1, j + 1]
            if min(v00, v10, v01, v11) < 0:
                continue
            elements.append((v00, v10, v11))
            elements.append((v00, v11, v01))
    return Mesh(np.asarray(vertices), np.asarray(elements, dtype=np.int64),
                "TRI3")


def cube_mesh(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
              mesh_size=0.25):
    """Structured box split into tetrahedra; used for sampling only."""
    x0, x1 = map(float, x_range)
    y0, y1 = map(float, y_range)
    z0, z1 = map(float, z_range)
    nx, ny, nz = (_steps(x0, x1, mesh_size), _steps(y0, y1, mesh_size),
                  _steps(z0, z1, mesh_size))
    xs, ys, zs = (np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1),
                  np.linspace(z0, z1, nz + 1))
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    # six tetrahedra per hexahedron (Kuhn split, fixed orientation)
    corner_tets = [
        (0, 1, 3, 7), (0, 1, 5, 7), (0, 4, 5, 7),
        (0, 2, 3, 7), (0, 2, 6, 7), (0, 4, 6, 7),
    ]
    elements = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                corners = [
                    vid(i + a, j + b, k + c)
                    for a in (0, 1) for b in (0, 1) for c in (0, 1)
                ]
                # corners indexed as binary abc
                for t in corner_tets:
                    elements.append(tuple(corners[x] for x in t))
    return Mesh(vertices, np.asarray(elements, dtype=np.int64), "TET4")


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

    outer_old = set(base.tags["boundary"].tolist())
    mesh = Mesh(vertices, elements, "TRI3")
    all_boundary = set(mesh.tags["boundary"].tolist())
    outer = sorted(v for v in all_boundary if int(used[v]) in outer_old)
    hole = sorted(all_boundary - set(outer))
    mesh.tags["boundary"] = np.asarray(outer, dtype=np.int64)
    mesh.tags["hole"] = np.asarray(hole, dtype=np.int64)
    inter = sorted(set(range(len(vertices))) - set(outer) - set(hole))
    mesh.tags["interior"] = np.asarray(inter, dtype=np.int64)
    for side in ("left", "right", "top", "bottom"):
        old = set(base.tags[side].tolist())
        mesh.tags[side] = np.asarray(
            sorted(v for v in range(len(vertices)) if int(used[v]) in old),
            dtype=np.int64,
        )
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

    ln, header = take()
    parts = header.split()
    if len(parts) != 2 or parts[0] != "mesh":
        raise ParseError("expected 'mesh <dim>'", ln)
    dim = int(parts[1])

    ln, vh = take()
    parts = vh.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise ParseError("expected 'vertices <V>'", ln)
    V = int(parts[1])
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
    E = int(parts[2])
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
        name, K = parts[1], int(parts[2])
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
