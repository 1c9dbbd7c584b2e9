"""The vectorized facet table, connectivity and constructors against the
per-element loops they replace, inlined here as the reference."""

import copy

import numpy as np
import pytest

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
    nx, ny, nz = 2, 3, 1
    mesh = meshmod.cube_mesh((0.0, 1.0), (0.0, 1.5), (0.0, 0.5), mesh_size=0.5)
    tets = [(0, 1, 3, 7), (0, 1, 5, 7), (0, 4, 5, 7),
            (0, 2, 3, 7), (0, 2, 6, 7), (0, 4, 6, 7)]
    elements = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                corners = [((i + a) * (ny + 1) + j + b) * (nz + 1) + k + c
                           for a in (0, 1) for b in (0, 1) for c in (0, 1)]
                elements += [[corners[t] for t in tet] for tet in tets]
    assert np.array_equal(mesh.elements, np.asarray(elements))


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


@pytest.mark.parametrize("nx, ny", [(0, 4), (4, 0), (-1, 2)])
def test_rect_needs_a_cell_a_side(nx, ny):
    with pytest.raises(DegenerateGeometry, match="one cell a side"):
        dm.structured_rect(nx, ny)
