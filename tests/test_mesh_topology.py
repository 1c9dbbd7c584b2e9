"""The vectorized facet table, connectivity and constructors against the
per-element loops they replace, inlined here as the reference."""

import copy

import numpy as np
import pytest
import scipy.sparse as sp

from jno import domain as dm
from jno import mesh as meshmod
from jno.errors import DegenerateGeometry


# ---------------------------------------------------------------------------
# Reference: one element, facet and vertex at a time
# ---------------------------------------------------------------------------

def _ref_facets_of(element, kind):
    e = [int(v) for v in element]
    if kind == "LINE2":
        return [(e[0],), (e[1],)]
    if kind == "TRI3":
        return [tuple(sorted((e[0], e[1]))), tuple(sorted((e[1], e[2]))),
                tuple(sorted((e[2], e[0])))]
    return [tuple(sorted((e[0], e[1], e[2]))), tuple(sorted((e[0], e[1], e[3]))),
            tuple(sorted((e[0], e[2], e[3]))), tuple(sorted((e[1], e[2], e[3])))]


def _ref_facet_normal(mesh, facet, owner):
    pts = mesh.vertices
    centroid = pts[mesh.elements[owner]].mean(axis=0)
    if mesh.kind == "LINE2":
        n = pts[facet[0]] - centroid
    elif mesh.kind == "TRI3":
        p0, p1 = pts[facet[0]], pts[facet[1]]
        t = p1 - p0
        n = np.array([t[1], -t[0]])
        if np.dot(n, centroid - (p0 + p1) / 2) > 0:
            n = -n
    else:
        p0, p1, p2 = pts[facet[0]], pts[facet[1]], pts[facet[2]]
        n = np.cross(p1 - p0, p2 - p0)
        if np.dot(n, centroid - (p0 + p1 + p2) / 3) > 0:
            n = -n
    return n / np.linalg.norm(n)


def _reference(mesh):
    counts = {}
    for row in mesh.elements:
        for f in _ref_facets_of(row, mesh.kind):
            counts[f] = counts.get(f, 0) + 1
    facets = [f for f, c in counts.items() if c == 1]

    owners = {}
    facet_set = set(facets)
    for ei, row in enumerate(mesh.elements):
        for f in _ref_facets_of(row, mesh.kind):
            if f in facet_set and f not in owners:
                owners[f] = ei

    V = mesh.num_vertices
    neighbors = [set() for _ in range(V)]
    measure = np.zeros(V)
    volumes = meshmod.element_measures(mesh)
    per = mesh.elements.shape[1]
    for ei, row in enumerate(mesh.elements):
        for a in row:
            measure[int(a)] += volumes[ei] / per
            for b in row:
                if a != b:
                    neighbors[int(a)].add(int(b))

    acc = np.zeros((V, mesh.dim))
    for f in facets:
        n = _ref_facet_normal(mesh, f, owners[f])
        for v in f:
            acc[v] += n
    boundary = sorted({v for f in facets for v in f})
    normals = np.zeros((V, mesh.dim))
    for v in boundary:
        normals[v] = acc[v] / np.linalg.norm(acc[v])
    return dict(facets=sorted(facets), owners=owners, boundary=boundary,
                neighbors=[sorted(s) for s in neighbors], measure=measure,
                normals=normals)


def _ref_grid_triangles(grid):
    elements = []
    for i in range(grid.shape[0] - 1):
        for j in range(grid.shape[1] - 1):
            v00, v10 = grid[i, j], grid[i + 1, j]
            v01, v11 = grid[i, j + 1], grid[i + 1, j + 1]
            if min(v00, v10, v01, v11) >= 0:
                elements += [(v00, v10, v11), (v00, v11, v01)]
    return np.asarray(elements)


def _loaded(tmp_path):
    base = meshmod.lshape_mesh(0.25)
    path = tmp_path / "lshape.mesh"
    meshmod.save_mesh_text(meshmod.Mesh(base.vertices, base.elements, "TRI3"),
                           path)
    return meshmod.load_mesh_text(path)


MESHES = {
    "line": lambda tmp: meshmod.line_mesh((0.0, 1.0), 0.1),
    "rect": lambda tmp: meshmod.rect_mesh((0.0, 2.0), (-1.0, 0.5), 0.25),
    "disk": lambda tmp: meshmod.disk_mesh(1.0, (0.3, -0.2), 0.2),
    "lshape": lambda tmp: meshmod.lshape_mesh(0.125),
    "rect_with_hole": lambda tmp: meshmod.rect_with_hole_mesh(mesh_size=0.1),
    "cube": lambda tmp: meshmod.cube_mesh((0.0, 1.0), (0.0, 0.5), (0.0, 0.75),
                                          mesh_size=0.25),
    "loaded": _loaded,
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_topology_matches_per_element_loops(name, tmp_path):
    mesh = MESHES[name](tmp_path)
    ref = _reference(mesh)
    conn = meshmod.Connectivity(mesh)
    facets, owners = mesh.boundary_facets

    assert facets is conn.boundary_facets
    assert [tuple(f) for f in facets.tolist()] == ref["facets"]
    assert owners.tolist() == [ref["owners"][f] for f in ref["facets"]]
    assert conn.boundary_vertices.tolist() == ref["boundary"]
    ptr, nbr = conn.neighbor_indptr, conn.neighbor_indices
    assert [nbr[ptr[i]:ptr[i + 1]].tolist()
            for i in range(mesh.num_vertices)] == ref["neighbors"]
    assert np.array_equal(conn.nodal_measure, ref["measure"])
    np.testing.assert_allclose(conn.vertex_normals, ref["normals"],
                               rtol=0, atol=1e-14)

    # inferred or built tags partition the vertices the same way
    on_boundary = np.zeros(mesh.num_vertices, dtype=bool)
    on_boundary[ref["boundary"]] = True
    if "hole" in mesh.tags:
        outer = np.concatenate([mesh.tags["boundary"], mesh.tags["hole"]])
        assert np.array_equal(np.sort(outer), ref["boundary"])
    else:
        assert mesh.tags["boundary"].tolist() == ref["boundary"]
    assert np.array_equal(mesh.tags["interior"], np.nonzero(~on_boundary)[0])
    for idx in mesh.tags.values():
        assert idx.dtype == np.int64
        assert np.array_equal(idx, np.unique(idx))


def _with_unused_vertex():
    base = meshmod.rect_mesh((0.0, 1.0), (0.0, 1.0), 0.5)
    return meshmod.Mesh(np.vstack([base.vertices, [[2.0, 2.0]]]),
                        base.elements, "TRI3")


NEIGHBOR_MESHES = {
    "line": lambda: dm.line().mesh,
    "rect": lambda: dm.rect().mesh,
    "structured_rect": lambda: dm.structured_rect(78, 78).mesh,
    "disk": lambda: dm.disk(0.03).mesh,
    "disk_off_centre": lambda: dm.disk(0.2, 1.0, (0.3, -0.2)).mesh,
    "lshape": lambda: dm.lshape().mesh,
    "cube": lambda: dm.cube().mesh,
    "rect_with_hole": lambda: dm.rect_with_hole().mesh,
    "no_elements": lambda: meshmod.Mesh(
        np.zeros((3, 2)), np.zeros((0, 3), dtype=np.int64), "TRI3"),
    "unused_vertex": _with_unused_vertex,
}


@pytest.mark.parametrize("name", sorted(NEIGHBOR_MESHES))
def test_neighbor_lists_equal_a_scipy_csr(name):
    # the adjacency CSR of every ordered pair of distinct vertices of an
    # element, duplicates summed: its index arrays, as int64, bit for bit
    mesh = NEIGHBOR_MESHES[name]()
    V, elems = mesh.num_vertices, mesh.elements
    rows = np.repeat(elems, elems.shape[1], axis=1).ravel()
    cols = np.tile(elems, (1, elems.shape[1])).ravel()
    off = rows != cols
    adj = sp.csr_matrix((np.ones(off.sum()), (rows[off], cols[off])),
                        shape=(V, V))
    adj.sum_duplicates()
    conn = meshmod.Connectivity(mesh)
    for got, want in ((conn.neighbor_indptr, adj.indptr),
                      (conn.neighbor_indices, adj.indices)):
        assert got.dtype == np.int64
        assert got.tobytes() == want.astype(np.int64).tobytes()


def _unique_facets(mesh):
    """Boundary facets and owners by one `np.unique(axis=0)` over the
    sorted facet rows, as computed before the lexsort grouping."""
    local = meshmod.local_facets(mesh.elements.shape[1] - 1)
    rows = np.sort(mesh.elements[:, local], axis=2)
    facets, first, counts = np.unique(
        rows.reshape(-1, local.shape[1]), axis=0,
        return_index=True, return_counts=True)
    once = counts == 1
    return facets[once], first[once] // len(local)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_facets_match_np_unique(name, tmp_path):
    mesh = MESHES[name](tmp_path)
    facets, owners = mesh.boundary_facets
    want = _unique_facets(mesh)
    assert facets.dtype == want[0].dtype and owners.dtype == want[1].dtype
    assert np.array_equal(facets, want[0])
    assert np.array_equal(owners, want[1])
    reference = copy.copy(mesh)
    reference.boundary_facets = want
    got = meshmod.Connectivity(mesh).vertex_normals
    assert got.tobytes() == \
        meshmod.Connectivity(reference).vertex_normals.tobytes()


def test_rect_elements_and_side_tags():
    x0, x1, y0, y1 = 0.0, 2.0, -1.0, 0.5
    mesh = meshmod.rect_mesh((x0, x1), (y0, y1), 0.25)
    nx, ny = 8, 6
    grid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    assert np.array_equal(mesh.elements, _ref_grid_triangles(grid))
    x, y = mesh.vertices.T
    sides = {"left": x == x0, "right": x == x1, "bottom": y == y0, "top": y == y1}
    for tag, on_side in sides.items():
        assert np.array_equal(mesh.tags[tag], np.nonzero(on_side)[0])
    rim = np.logical_or.reduce(list(sides.values()))
    assert np.array_equal(mesh.tags["boundary"], np.nonzero(rim)[0])
    assert np.array_equal(mesh.tags["interior"], np.nonzero(~rim)[0])


def test_lshape_elements():
    n, s = 8, 1.0
    mesh = meshmod.lshape_mesh(1.0 / n, s)
    xs = np.linspace(0.0, s, n + 1)
    grid = -np.ones((n + 1, n + 1), dtype=np.int64)
    vertices = []
    for i in range(n + 1):
        for j in range(n + 1):
            if not (xs[i] > s / 2 + 1e-12 and xs[j] > s / 2 + 1e-12):
                grid[i, j] = len(vertices)
                vertices.append((xs[i], xs[j]))
    assert np.array_equal(mesh.vertices, np.asarray(vertices))
    assert np.array_equal(mesh.elements, _ref_grid_triangles(grid))


def test_measures_of_a_tilted_surface():
    # the unit square lifted onto the plane z = 0.3 x has area sqrt(1.09)
    flat = meshmod.rect_mesh(nx=3, ny=3)
    tilted = np.column_stack([flat.vertices, 0.3 * flat.vertices[:, 0]])
    mesh = meshmod.Mesh(tilted, flat.elements, "TRI3")
    np.testing.assert_allclose(meshmod.element_measures(mesh),
                               np.sqrt(1.09) / 18, rtol=1e-15)
    assert dm.Domain(mesh).total_measure() == pytest.approx(np.sqrt(1.09),
                                                            abs=1e-14)


def test_cube_elements():
    # the Kuhn split: per cell, in row-major order, one tetrahedron per order
    # of the axes, the path through the cell's corners that steps along them,
    # with its last two vertices swapped for an odd order
    nx, ny, nz = 2, 3, 1
    mesh = meshmod.cube_mesh((0.0, 1.0), (0.0, 1.5), (0.0, 0.5), mesh_size=0.5)
    orders = [((0, 1, 2), False), ((0, 2, 1), True), ((1, 0, 2), True),
              ((1, 2, 0), False), ((2, 0, 1), False), ((2, 1, 0), True)]

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    elements = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                for order, odd in orders:
                    corner = [i, j, k]
                    path = [vid(*corner)]
                    for axis in order:
                        corner[axis] += 1
                        path.append(vid(*corner))
                    if odd:
                        path[2], path[3] = path[3], path[2]
                    elements.append(path)
    assert np.array_equal(mesh.elements, np.asarray(elements))


def test_cube_face_tags():
    lo, hi = (0.0, -1.0, 0.5), (1.0, 0.5, 1.25)
    mesh = meshmod.cube_mesh(*zip(lo, hi), mesh_size=0.25)
    on_face = {}
    for axis, (low, high) in enumerate((("left", "right"), ("bottom", "top"),
                                        ("front", "back"))):
        on_face[low] = mesh.vertices[:, axis] == lo[axis]
        on_face[high] = mesh.vertices[:, axis] == hi[axis]
    for tag, on in on_face.items():
        assert np.array_equal(mesh.tags[tag], np.nonzero(on)[0])
    rim = np.logical_or.reduce(list(on_face.values()))
    assert np.array_equal(mesh.tags["boundary"], np.nonzero(rim)[0])


@pytest.mark.parametrize("name", ["line", "rect", "disk", "cube"])
def test_basis_gradients_are_the_inverse_edge_matrix(name):
    # column j of inv(J), J the edge matrix, is the gradient of lambda_j+1;
    # lambda_0's gradient is minus their sum
    mesh = MESHES[name](None)
    J = mesh.vertices[mesh.elements[:, 1:]] \
        - mesh.vertices[mesh.elements[:, :1]]
    want = np.linalg.inv(J).transpose(2, 1, 0)
    got = meshmod.basis_gradients(mesh.vertices, mesh.elements)
    scale = np.abs(want).max(axis=(0, 1))
    assert np.all(np.abs(got[1:] - want).max(axis=(0, 1)) <= 1e-14 * scale)
    np.testing.assert_array_equal(got[0], -got[1:].sum(axis=0))


def test_rect_with_hole_tags():
    mesh = meshmod.rect_with_hole_mesh((0.0, 2.0), (0.0, 1.0), (0.7, 0.4),
                                       0.25, 0.1)
    x, y = mesh.vertices.T
    on_rect = (x == 0.0) | (x == 2.0) | (y == 0.0) | (y == 1.0)
    assert np.array_equal(mesh.tags["boundary"], np.nonzero(on_rect)[0])
    assert np.array_equal(mesh.tags["left"], np.nonzero(x == 0.0)[0])
    assert np.array_equal(mesh.tags["top"], np.nonzero(y == 1.0)[0])
    hole = mesh.vertices[mesh.tags["hole"]]
    assert len(hole) and np.all(np.linalg.norm(hole - [0.7, 0.4], axis=1) < 0.4)


def test_rect_with_hole_tags_match_a_reference_loop():
    (x0, x1), (y0, y1), c, r, h = (0.0, 2.0), (0.0, 1.0), (0.7, 0.4), 0.25, 0.1
    mesh = meshmod.rect_with_hole_mesh((x0, x1), (y0, y1), c, r, h)
    nx, ny = 20, 10
    xs, ys = np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1)
    triangles = []
    for i in range(nx):
        for j in range(ny):
            for tri in (((i, j), (i + 1, j), (i + 1, j + 1)),
                        ((i, j), (i + 1, j + 1), (i, j + 1))):
                cx = sum(xs[a] for a, _ in tri) / 3
                cy = sum(ys[b] for _, b in tri) / 3
                if np.hypot(cx - c[0], cy - c[1]) > r:
                    triangles.append(tri)
    used = sorted({v for tri in triangles for v in tri})
    assert np.array_equal(mesh.vertices, [(xs[a], ys[b]) for a, b in used])
    ids = {v: n for n, v in enumerate(used)}
    edges = {}
    for tri in triangles:
        for e in range(3):
            edge = tuple(sorted((tri[e], tri[(e + 1) % 3])))
            edges[edge] = edges.get(edge, 0) + 1
    rim = {v for edge, n in edges.items() if n == 1 for v in edge}
    sides = {"left": lambda a, b: a == 0, "right": lambda a, b: a == nx,
             "bottom": lambda a, b: b == 0, "top": lambda a, b: b == ny}
    want = {side: [ids[v] for v in used if on(*v)]
            for side, on in sides.items()}
    on_side = {v for v in used if any(on(*v) for on in sides.values())}
    want["boundary"] = sorted(ids[v] for v in rim & on_side)
    want["hole"] = sorted(ids[v] for v in rim - on_side)
    want["interior"] = sorted(ids[v] for v in set(used) - rim)
    assert len(want["hole"]) > 0
    assert {tag: idx.tolist() for tag, idx in mesh.tags.items()} == want


def _ring_area(n):
    """The area of the regular n-gon inscribed in the unit circle."""
    return n / 2 * np.sin(2 * np.pi / n)


@pytest.mark.parametrize("name, measure", [
    ("line", 1.0), ("rect", 3.0), ("lshape", 0.75), ("cube", 0.375),
    ("rect_with_hole", None),
    # 5 and 33 rings, the outer one of 30 and 198 points
    pytest.param("disk", _ring_area(30), id="disk"),
    pytest.param("centred_disk", _ring_area(198), id="centred_disk")])
def test_grid_cells_are_positively_oriented(name, measure):
    mesh = MESHES[name](None) if name in MESHES \
        else meshmod.disk_mesh(mesh_size=0.03)
    J = mesh.vertices[mesh.elements[:, 1:]] \
        - mesh.vertices[mesh.elements[:, :1]]
    assert (np.linalg.det(J) > 0).all()
    if measure is None:
        # the unit square less the triangles (area 0.005) whose centroids
        # lie within 0.2 of its center
        cells = np.arange(10) * 0.1
        removed = sum(np.hypot(x + dx - 0.5, y + dy - 0.5) <= 0.2
                      for x in cells for y in cells
                      for dx, dy in ((0.2 / 3, 0.1 / 3), (0.1 / 3, 0.2 / 3)))
        measure = 1.0 - 0.005 * removed
    total = meshmod.element_measures(mesh).sum()
    assert total == pytest.approx(measure, rel=1e-13)
    assert dm.Domain(mesh).total_measure() == pytest.approx(measure, rel=1e-13)


@pytest.mark.parametrize("h, center", [
    (0.7, (0.0, 0.0)), (0.2, (0.0, 0.0)), (0.03, (0.0, 0.0)),
    (0.2, (0.3, -0.2))], ids=["h0.7", "h0.2", "h0.03", "off-centre"])
def test_disk_is_the_delaunay_triangulation_of_its_rings(h, center):
    from scipy.spatial import Delaunay

    mesh = meshmod.disk_mesh(1.0, center, h)

    def rows(cells):
        cells = np.sort(cells, axis=1)
        return cells[np.lexsort(cells.T[::-1])]

    assert np.array_equal(rows(mesh.elements),
                          rows(Delaunay(mesh.vertices).simplices))
    rim = 6 * round(1 / h)
    outer = np.arange(mesh.num_vertices - rim, mesh.num_vertices)
    np.testing.assert_allclose(
        np.linalg.norm(mesh.vertices[outer] - center, axis=1), 1.0,
        rtol=0, atol=1e-15)
    assert np.array_equal(mesh.tags["boundary"], outer)


def test_coincident_boundary_vertices_raise(tmp_path):
    # vertex 4 sits on vertex 2, so the boundary facet (2, 4) has zero length
    path = tmp_path / "degenerate.mesh"
    path.write_text(
        "mesh 2\nvertices 5\n0 0\n1 0\n1 1\n0 1\n1 1\n"
        "elements TRI3 3\n0 1 2\n0 2 3\n1 4 2\n"
    )
    with pytest.raises(DegenerateGeometry):
        dm.load_mesh(path)


@pytest.mark.parametrize("entry", [
    lambda dom: dom.init_fem(), lambda dom: dom.mesh.locator,
], ids=["init_fem", "locator"])
def test_zero_measure_cell_is_named(entry):
    # cell 2 has three collinear vertices; the mesh builds a Domain, whose
    # boundary is the outline of the other three cells
    mesh = meshmod.Mesh([[0, 0], [2, 0], [1, 0], [1, 1], [1, -1]],
                        [[0, 2, 3], [2, 1, 3], [0, 1, 2], [0, 1, 4]], "TRI3")
    dom = dm.Domain(mesh)
    with pytest.raises(DegenerateGeometry, match=r"cell 2 \[0, 1, 2\]"):
        entry(dom)


@pytest.mark.parametrize("nx, ny", [(0, 4), (4, 0), (-1, 2), (2.5, 2),
                                    (2, 0.5), (float("inf"), 2)])
def test_rect_needs_a_cell_a_side(nx, ny):
    with pytest.raises(DegenerateGeometry, match="one cell a side"):
        dm.structured_rect(nx, ny)


def test_rect_takes_an_integral_float_cell_count():
    got, want = meshmod.rect_mesh(nx=4.0, ny=2), meshmod.rect_mesh(nx=4, ny=2)
    np.testing.assert_array_equal(got.vertices, want.vertices)
    np.testing.assert_array_equal(got.elements, want.elements)
    with pytest.raises(DegenerateGeometry, match="got 2.5 x 2"):
        dm.structured_rect(2.5, 2)
