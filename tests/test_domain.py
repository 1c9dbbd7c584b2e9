import numpy as np
import pytest

from jno import domain as dm
from jno import mesh as meshmod
from jno.errors import (
    BadShape,
    CountExceedsPool,
    DegenerateGeometry,
    NotABoundaryTag,
    ParseError,
    TagMismatch,
    UnknownTag,
    UnsupportedElement,
    UnsupportedGeometry,
)


class TestConstruct:
    def test_rect_half_mesh(self):
        d = dm.rect(mesh_size=0.5)
        assert d.mesh.num_vertices == 9
        assert len(d.mesh.tags["boundary"]) == 8
        assert len(d.mesh.tags["interior"]) == 1
        assert len(d.mesh.elements) == 8

    def test_rect_side_tags_and_corners(self):
        d = dm.rect(mesh_size=0.5)
        left = set(d.mesh.tags["left"].tolist())
        bottom = set(d.mesh.tags["bottom"].tolist())
        for v in left:
            assert abs(d.mesh.vertices[v][0] - 0.0) <= 1e-12
        # the corner belongs to both adjacent side tags
        assert left & bottom

    def test_line(self):
        d = dm.line(mesh_size=0.25)
        assert d.mesh.num_vertices == 5
        assert d.mesh.tags["boundary"].tolist() == [0, 4]
        assert len(d.mesh.tags["interior"]) == 3

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            dm.rect(mesh_size=-0.1)
        with pytest.raises(DegenerateGeometry):
            dm.rect(mesh_size=0.1, x_range=(1.0, 1.0))

    def test_tag_partition(self):
        for d in (dm.rect(mesh_size=0.25), dm.line(mesh_size=0.2),
                  dm.disk(mesh_size=0.25), dm.lshape(mesh_size=0.25),
                  dm.cube(mesh_size=0.5),
                  dm.rect_with_hole(mesh_size=0.1)):
            interior = set(d.mesh.tags["interior"].tolist())
            boundary = set(d.mesh.tags["boundary"].tolist())
            if "hole" in d.mesh.tags:
                boundary |= set(d.mesh.tags["hole"].tolist())
            assert not (interior & boundary)
            assert len(interior | boundary) == d.mesh.num_vertices

    def test_measure_rect(self):
        d = dm.rect(mesh_size=0.1, x_range=(0, 2), y_range=(0, 1))
        assert d.total_measure() == pytest.approx(2.0, rel=1e-10)

    def test_measure_line(self):
        d = dm.line(mesh_size=0.2, x_range=(0, 3))
        assert d.total_measure() == pytest.approx(3.0, rel=1e-10)

    def test_measure_disk(self):
        h = 0.1
        d = dm.disk(mesh_size=h, radius=1.0)
        assert abs(d.total_measure() - np.pi) <= 2 * h

    def test_time_grid(self):
        d = dm.rect(mesh_size=0.5, time=(0.0, 1.0, 1))
        np.testing.assert_allclose(d.time_grid, [0.0, 1.0])
        _, _, t = d.variable("boundary")
        bt = d.bindings()[t].data
        assert bt.shape == (1, 2, d.pool_size("boundary"), 1)
        assert (bt[0, :, :, 0] == d.time_grid[:, None]).all()


class TestVariables:
    def test_interior_destructure(self):
        d = dm.rect(mesh_size=0.5)
        x, y, t = d.variable("interior")
        b = d.bindings()
        assert b[x].shape == (1, 1, 1, 1)  # one interior vertex
        assert b[y].shape == (1, 1, 1, 1)
        assert b[t].data.tolist() == [[[[0.0]]]]  # steady: the grid [0.0]

    def test_unknown_tag(self):
        d = dm.rect(mesh_size=0.5)
        with pytest.raises(UnknownTag):
            d.variable("interiorr")

    def test_tensor_tag_binding_broadcasts(self):
        d = dm.rect(mesh_size=0.5).scale(4)
        k = d.variable("k", np.arange(4.0).reshape(4, 1, 1))
        b = d.bindings()
        assert b[k].shape == (4, 1, 1, 1)
        x, _, _ = d.variable("interior")
        bx = d.bindings()[x]
        out = b[k].data * bx.data
        assert out.shape == (4, 1, 1, 1)

    def test_tensor_tag_bad_shape(self):
        d = dm.rect(mesh_size=0.5)
        with pytest.raises(BadShape):
            d.variable("k", np.zeros((3, 1, 1)))  # B mismatch

    def test_full_binding(self):
        d = dm.rect(mesh_size=0.5)
        v = d.variable("interior", split=False)
        assert d.bindings()[v].shape == (1, 1, 1, 2)


class TestScaleMerge:
    def test_scale_batch(self):
        d = 5 * dm.rect(mesh_size=0.5)
        n_int = d.pool_size("interior")
        assert d.context["interior"].shape == (5, 1, n_int, 2)

    def test_identity_scale(self):
        d0 = dm.rect(mesh_size=0.5)
        d1 = 1 * d0
        np.testing.assert_array_equal(d0.context["interior"],
                                      d1.context["interior"])

    def test_merge_values(self):
        d0 = dm.rect(mesh_size=0.5)
        m = (3 * d0) + (2 * d0)
        assert m.batch == 5
        np.testing.assert_array_equal(
            m.context["boundary"], (5 * d0).context["boundary"]
        )

    def test_merge_shares_no_store_with_its_parts(self):
        a, b = dm.structured_rect(4, 4), dm.structured_rect(4, 4)
        a.variable("interior")
        before = {name: dict(getattr(a, name)) for name in (
            "context", "vertex_ids", "mesh_pool", "pool_ids", "resamplers",
            "_vars", "coordinates", "tensor_tags")}
        m = a.merge(b)
        m.sample("interior", 3, seed=0)
        m.register_resampler("boundary", count=2)
        m.variable("boundary")
        m.variable("k", np.ones((2, 1, 3)))
        m.add_points("probe", np.zeros((1, 2)))
        assert a.batch == 1 and m.batch == 2
        for name, store in before.items():
            assert getattr(a, name).keys() == store.keys(), name
            for key, value in store.items():
                assert getattr(a, name)[key] is value, (name, key)

    def test_merge_mismatch(self):
        a = dm.rect(mesh_size=0.5)
        b = dm.rect(mesh_size=0.25)
        with pytest.raises(TagMismatch):
            a + b

    def test_listing_shape(self):
        d = 500 * dm.rect(mesh_size=0.25, x_range=(0, 2), y_range=(0, 1))
        n_int = d.pool_size("interior")
        assert d.context["interior"].shape == (500, 1, n_int, 2)

    def test_scale_not_whole(self):
        with pytest.raises(BadShape, match="scale factor must be >= 1"):
            dm.rect(mesh_size=0.5).scale(2.5)


class TestRefusals:
    @pytest.mark.parametrize("time", [
        (0, 1, -3), (0, 1, 2.5), (1, 0, 2), (0, np.nan, 2), (0, 1),
    ], ids=["negative_steps", "fractional_steps", "decreasing",
            "nan_end", "two_values"])
    def test_bad_time_spec(self, time):
        # before, these raised numpy's ValueError, made 2 steps, a
        # decreasing grid, a NaN grid and an unpacking ValueError
        with pytest.raises(BadShape, match="time must be"):
            dm.structured_rect(2, 2, time=time)

    def test_tensor_tag_time_extent(self):
        d = dm.structured_rect(2, 2, time=(0.0, 1.0, 2))
        with pytest.raises(BadShape, match="time extent 2 incompatible"):
            d.variable("k", np.zeros((1, 2, 1)))

    @pytest.mark.parametrize("call", [
        lambda d: d.sample("nowhere", 1),
        lambda d: d.register_resampler("nowhere"),
        lambda d: d.normals("nowhere"),
    ], ids=["sample", "register_resampler", "normals"])
    def test_unknown_tag(self, call):
        with pytest.raises(UnknownTag, match="'nowhere'"):
            call(dm.structured_rect(2, 2))

    def test_residual_weights_of_the_wrong_length(self):
        d = dm.structured_rect(3, 3)
        with pytest.raises(BadShape, match="weights length 2 != pool size 4"):
            d.sample("interior", 3, strategy="residual-weighted",
                     weights=np.ones(2))

    @pytest.mark.parametrize("other, message", [
        (lambda: dm.structured_rect(3, 3, time=(0.0, 1.0, 2)),
         "share the time axis"),
        (lambda: _changed(lambda d: d.add_points("probe", np.zeros((1, 2)))),
         "carry the same tags"),
        (lambda: _changed(lambda d: d.sample("interior", 2, seed=0)),
         "context shapes differ for tag 'interior'"),
        (lambda: _changed(lambda d: d.variable("k", np.zeros((1, 1, 1)))),
         "carry the same tensor tags"),
    ], ids=["time_axis", "tag_set", "context_shape", "tensor_tags"])
    def test_merge_mismatch(self, other, message):
        with pytest.raises(TagMismatch, match=message):
            dm.structured_rect(3, 3).merge(other())


def _changed(change):
    """structured_rect(3, 3) after `change` is applied to it."""
    d = dm.structured_rect(3, 3)
    change(d)
    return d


class TestVertexIds:
    @staticmethod
    def _at_vertices(d, tag):
        pts = d.context[tag]
        np.testing.assert_array_equal(
            np.broadcast_to(d.mesh.vertices[d.vertex_ids[tag]], pts.shape),
            pts)

    def test_mesh_tags_and_samples_carry_ids(self):
        d = dm.rect(mesh_size=0.25, time=(0.0, 1.0, 3))
        for tag in d.tags():
            np.testing.assert_array_equal(d.vertex_ids[tag], d.mesh.tags[tag])
            self._at_vertices(d, tag)
        d.sample("interior", 5, seed=1)
        self._at_vertices(d, "interior")
        d.sample("boundary", 40, strategy="residual-weighted", seed=2)
        assert len(np.unique(d.vertex_ids["boundary"])) < 40
        self._at_vertices(d, "boundary")

    def test_add_points_carry_none(self):
        d = dm.rect(mesh_size=0.25)
        d.add_points("interior", np.array([[0.3, 0.4]]))
        d.add_points("probe", np.array([[0.3, 0.4], [0.5, 0.5]]))
        assert d.vertex_ids["interior"] is None
        assert d.vertex_ids["probe"] is None
        d.sample("probe", 1, seed=0)
        assert d.vertex_ids["probe"] is None

    def test_merge_keeps_ids_per_batch(self):
        a, b = dm.structured_rect(6, 6), dm.structured_rect(6, 6)
        a.sample("interior", 7, seed=1)
        b.sample("interior", 7, seed=2)
        m = a.merge(b)
        assert m.vertex_ids["interior"].shape == (2, 1, 7)
        self._at_vertices(m, "interior")
        self._at_vertices(m, "boundary")

    def test_merge_drops_ids_that_do_not_hold(self):
        # same topology, other vertices: b's ids name b's vertices
        a = dm.structured_rect(6, 6)
        b = dm.structured_rect(6, 6, x_range=(0.0, 2.0))
        assert a.merge(b).vertex_ids["interior"] is None
        # a part without ids for a tag: the merge has none for it
        c = 1 * a
        a.add_points("boundary", a.context["boundary"][0, 0].copy())
        m = a.merge(c)
        assert m.vertex_ids["boundary"] is None
        self._at_vertices(m, "interior")


class TestSampling:
    def test_full_sample_is_pool_order(self):
        d = dm.rect(mesh_size=0.25)
        before = d.context["interior"].copy()
        d.sample("interior", d.pool_size("interior"), seed=0)
        np.testing.assert_array_equal(d.context["interior"], before)

    def test_deterministic(self):
        d1 = dm.rect(mesh_size=0.25)
        d2 = dm.rect(mesh_size=0.25)
        d1.sample("interior", 4, seed=7)
        d2.sample("interior", 4, seed=7)
        np.testing.assert_array_equal(d1.context["interior"],
                                      d2.context["interior"])

    def test_count_exceeds_pool(self):
        d = dm.rect(mesh_size=0.5)
        with pytest.raises(CountExceedsPool):
            d.sample("interior", 100)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one(self, count):
        d = dm.rect(mesh_size=0.5)
        before = d.context["interior"]
        with pytest.raises(BadShape, match="count must be >= 1"):
            d.sample("interior", count)
        with pytest.raises(BadShape, match="count must be >= 1"):
            d.register_resampler("interior", count=count)
        assert d.context["interior"] is before and not d.resamplers

    def test_count_not_whole(self):
        d = dm.rect(mesh_size=0.5)
        before = d.context["interior"]
        with pytest.raises(BadShape, match="count must be >= 1 and whole"):
            d.sample("interior", 2.5)
        assert d.context["interior"] is before

    def test_unknown_resample_kind(self):
        d = dm.rect(mesh_size=0.5)
        with pytest.raises(UnsupportedGeometry, match="'stratified'"):
            d.register_resampler("interior", kind="stratified", count=2)
        assert not d.resamplers

    def test_resampler_count_not_whole(self):
        d = dm.rect(mesh_size=0.5)
        with pytest.raises(BadShape, match="count must be >= 1 and whole"):
            d.register_resampler("interior", count=3.7)
        assert not d.resamplers

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_residual_weights_not_finite(self, bad):
        # raised before the weights are normalized: no RuntimeWarning
        d = dm.rect(mesh_size=0.5)
        w = np.ones(d.pool_size("interior"))
        w[0] = bad
        with pytest.raises(BadShape, match="not finite"):
            d.sample("interior", 3, strategy="residual-weighted", weights=w)

    def test_callable_residual_weights(self):
        # the weights are a function of the domain, called at each resample
        d = dm.structured_rect(4, 4)
        N, calls = d.pool_size("interior"), []

        def weights(domain):
            calls.append(domain)
            return np.arange(N) == 2

        d.register_resampler("interior", kind="residual-weighted", count=3,
                             weights=weights)
        d.apply_resamplers(np.random.default_rng(0))
        d.apply_resamplers(np.random.default_rng(1))
        assert calls == [d, d]
        np.testing.assert_array_equal(
            d.context["interior"][0, 0],
            np.repeat(d.mesh_pool["interior"][0, 0, 2:3], 3, axis=0))

    def test_resample_keeps_b_t_d(self):
        d = 3 * dm.rect(mesh_size=0.25)
        d.sample("interior", 5, seed=1)
        assert d.context["interior"].shape == (3, 1, 5, 2)

    def test_residual_weighted_uniform_chi_square(self):
        # equal weights must behave like uniform sampling
        d = dm.rect(mesh_size=0.25)
        N = d.pool_size("interior")
        draws = 10_000
        rng = np.random.default_rng(123)
        counts = np.zeros(N)
        pool = d.mesh_pool["interior"][0, 0]
        for _ in range(20):
            d.sample("interior", draws // 20, strategy="residual-weighted",
                     seed=int(rng.integers(1 << 30)))
            pts = d.context["interior"][0, 0]
            for p in pts:
                j = int(np.argmin(np.linalg.norm(pool - p, axis=1)))
                counts[j] += 1
        expected = draws / N
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # dof = N-1; mean dof, sd sqrt(2 dof): allow 5 sigma
        dof = N - 1
        assert chi2 < dof + 5 * np.sqrt(2 * dof)


class TestNormals:
    def test_bottom_side(self):
        d = dm.rect(mesh_size=0.25)
        tag = d.mesh.tags["bottom"]
        n = d.normals("bottom").data
        for i, v in enumerate(tag):
            x = d.mesh.vertices[v][0]
            if 0.0 < x < 1.0:
                np.testing.assert_allclose(n[i], [0.0, -1.0], atol=1e-12)

    def test_corner_average(self):
        d = dm.rect(mesh_size=0.25)
        n = d.normals("boundary").data
        tag = d.mesh.tags["boundary"]
        for i, v in enumerate(tag):
            x, y = d.mesh.vertices[v]
            if x == 0.0 and y == 0.0:
                np.testing.assert_allclose(
                    n[i], [-np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-12
                )

    def test_unit_normals(self):
        d = dm.disk(mesh_size=0.2)
        n = d.normals("boundary").data
        np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)

    def test_disk_radial(self):
        d = dm.disk(mesh_size=0.1)
        tag = d.mesh.tags["boundary"]
        n = d.normals("boundary").data
        v = d.mesh.vertices[tag]
        exact = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.abs(n - exact).max() <= 1e-2

    def test_not_boundary(self):
        d = dm.rect(mesh_size=0.25)
        with pytest.raises(NotABoundaryTag):
            d.normals("interior")

    def test_hole_normals_point_into_hole(self):
        d = dm.rect_with_hole(mesh_size=0.1, hole_center=(0.5, 0.5),
                              hole_radius=0.2)
        tag = d.mesh.tags["hole"]
        n = d.normals("hole").data
        center = np.array([0.5, 0.5])
        for i, v in enumerate(tag):
            to_center = center - d.mesh.vertices[v]
            assert np.dot(n[i], to_center) > 0  # outward from material

    def test_measures_positive(self):
        d = dm.lshape(mesh_size=0.25)
        assert d.total_measure() == pytest.approx(0.75, rel=1e-10)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        d = dm.rect(mesh_size=0.25, x_range=(0, 2), y_range=(0, 1))
        path = tmp_path / "m.mesh"
        dm.save_mesh(d, path)
        d2 = dm.load_mesh(path)
        np.testing.assert_array_equal(d.mesh.vertices, d2.mesh.vertices)
        np.testing.assert_array_equal(d.mesh.elements, d2.mesh.elements)
        assert sorted(d.mesh.tags) == sorted(d2.mesh.tags)
        for t in d.mesh.tags:
            np.testing.assert_array_equal(d.mesh.tags[t], d2.mesh.tags[t])

    def test_dangling_index(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text(
            "mesh 2\nvertices 3\n0 0\n1 0\n0 1\nelements TRI3 1\n0 1 9\n"
        )
        with pytest.raises(ParseError):
            dm.load_mesh(path)

    @pytest.mark.parametrize("line", [1, 2, 6, 8])
    @pytest.mark.parametrize("bad", ["x", "2.5", "-1"])
    def test_bad_header_count(self, tmp_path, line, bad):
        # the count of the mesh, vertices, elements and tag header (on
        # lines 1, 2, 6 and 8) is a non-negative integer
        rows = ["mesh 2", "vertices 3", "0 0", "1 0", "0 1",
                "elements TRI3 1", "0 1 2", "tag left 1", "0"]
        words = rows[line - 1].split()
        rows[line - 1] = " ".join(words[:-1] + [bad])
        path = tmp_path / "bad.mesh"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as exc:
            dm.load_mesh(path)
        assert exc.value.line == line

    # a valid file: each case below replaces one line and reads the error
    ROWS = ["mesh 2", "vertices 3", "0 0", "1 0", "0 1", "elements TRI3 1",
            "0 1 2", "tag left 2", "0", "2"]

    @pytest.mark.parametrize("line, text, error, message", [
        (1, "mash 2", ParseError, "expected 'mesh <dim>'"),
        (1, "mesh x", ParseError, "bad count"),
        (2, "verts 3", ParseError, "expected 'vertices <V>'"),
        (2, "vertices -1", ParseError, "negative count"),
        (4, "1 0 0", ParseError, "expected 2 coordinates"),
        (4, "1 zero", ParseError, "bad float"),
        (6, "elems TRI3 1", ParseError, "expected 'elements <kind> <E>'"),
        (6, "elements QUAD4 1", UnsupportedElement, "element kind 'QUAD4'"),
        (7, "0 1", ParseError, "expected 3 vertex indices"),
        (7, "0 1 x", ParseError, "bad vertex index"),
        (7, "0 1 3", ParseError, "dangling element index"),
        (8, "tag left", ParseError, "expected 'tag <name> <K>'"),
        (9, "0.5", ParseError, "bad vertex index"),
        (9, "0 1", ParseError, "expected 1 vertex index"),
        (10, "3", ParseError, "tag index out of range"),
        (10, None, ParseError, "unexpected end of file"),
    ])
    def test_refusals_name_their_line(self, tmp_path, line, text, error,
                                      message):
        # None drops the line: the tag header then promises one more index
        # than the file holds, and the end of file is met after line 9
        rows = list(self.ROWS)
        rows[line - 1] = "" if text is None else text
        path = tmp_path / "bad.mesh"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(error, match=message) as exc:
            meshmod.load_mesh_text(path)
        where = 9 if text is None else line
        assert str(exc.value).startswith(f"line {where}: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e309"])
    def test_non_finite_vertex(self, tmp_path, value):
        # float() reads all three, and the geometry would be NaN
        rows = list(self.ROWS)
        rows[3] = f"{value} 0"
        path = tmp_path / "bad.mesh"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DegenerateGeometry, match="vertex 1 "):
            dm.load_mesh(path)

    def test_boundary_inferred_from_single_owner_edges(self, tmp_path):
        # brute-force oracle: count edge ownership on a 2-triangle square
        path = tmp_path / "nt.mesh"
        path.write_text(
            "mesh 2\nvertices 4\n0 0\n1 0\n1 1\n0 1\n"
            "elements TRI3 2\n0 1 2\n0 2 3\n"
        )
        d = dm.load_mesh(path)
        edge_counts = {}
        for tri in d.mesh.elements:
            t = [int(v) for v in tri]
            for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                key = tuple(sorted(e))
                edge_counts[key] = edge_counts.get(key, 0) + 1
        expect = sorted({v for e, c in edge_counts.items() if c == 1 for v in e})
        assert d.mesh.tags["boundary"].tolist() == expect
        assert d.mesh.tags["interior"].tolist() == []
