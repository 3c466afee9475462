"""Mesh construction, topology, interchange format, and construction defects."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egns.mesh import (
    MeshError,
    Mesh2D,
    TAG_BOTTOM,
    TAG_INLET,
    TAG_LEFT,
    TAG_OUTLET,
    TAG_RIGHT,
    TAG_TOP,
    TAG_WALL,
    build_rect_uniform,
    build_step_domain,
    export_mesh,
    import_mesh,
    per_mesh,
)


def _rot_ccw(v):
    return np.array([-v[1], v[0]])


class TestRectUniform:
    def test_single_cell_counts(self):
        mesh = build_rect_uniform(1, 1)
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 2
        assert mesh.num_edges == 5

    def test_two_by_one_counts(self):
        mesh = build_rect_uniform(2, 1)
        assert mesh.num_vertices == 6
        assert mesh.num_triangles == 4
        assert mesh.num_edges == 9

    def test_16x16_counts_and_h(self):
        mesh = build_rect_uniform(16, 16)
        assert mesh.num_triangles == 512
        assert mesh.num_vertices == 289
        assert mesh.num_edges == 800
        assert mesh.h == pytest.approx(math.sqrt(2.0) / 16.0, rel=1e-15)

    @pytest.mark.parametrize("n", [46341, np.int64(2**32)], ids=["just-over", "int64-wraps"])
    def test_grid_beyond_int32_indices_refused(self, n):
        # 46341^2 is past 2^31 - 1; (2^32)^2 is 0 in int64 arithmetic
        with pytest.raises(MeshError, match=r"has more than 2\^31 - 1 cells"):
            build_rect_uniform(n, n)

    def test_areas_positive_and_sum_to_domain(self):
        mesh = build_rect_uniform(5, 3, (0.0, 0.0, 2.0, 1.5))
        assert np.all(mesh.areas > 0)
        assert mesh.areas.sum() == pytest.approx(3.0, rel=1e-14)
        # uniform split: every triangle has half a cell's area
        assert np.allclose(mesh.areas, 0.5 * (2.0 / 5) * (1.5 / 3))

    def test_triangles_counterclockwise(self):
        mesh = build_rect_uniform(4, 4)
        p = mesh.vertices[mesh.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        assert np.all(cross > 0)

    def test_edge_normal_convention_interior(self):
        # unit square, one cell: diagonal edge (0,3) runs from (0,0) to (1,1)
        mesh = build_rect_uniform(1, 1)
        diag = None
        for e in range(mesh.num_edges):
            if set(mesh.edges[e]) == {0, 3}:
                diag = e
        assert diag is not None
        want = _rot_ccw(np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert np.allclose(mesh.edge_normal[diag], want, atol=1e-15)

    def test_interior_edge_signs_are_opposite(self):
        mesh = build_rect_uniform(3, 3)
        for e in range(mesh.num_edges):
            t0, t1 = mesh.edge_to_triangles[e]
            if t1 < 0:
                continue
            s = []
            for t in (t0, t1):
                k = list(mesh.triangle_edges[t]).index(e)
                s.append(mesh.triangle_edge_sign[t, k])
            assert sorted(s) == [-1, 1]

    def test_boundary_edges_point_outward_with_sign_one(self):
        mesh = build_rect_uniform(3, 2)
        center = np.array([0.5, 0.5])
        n_boundary = 0
        for e in range(mesh.num_edges):
            t0, t1 = mesh.edge_to_triangles[e]
            if t1 >= 0:
                assert mesh.boundary_tags[e] == -1
                continue
            n_boundary += 1
            mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
            assert np.dot(mesh.edge_normal[e], mid - center) > 0
            k = list(mesh.triangle_edges[t0]).index(e)
            assert mesh.triangle_edge_sign[t0, k] == 1
        assert n_boundary == 2 * (3 + 2)

    def test_closed_polygon_identity(self):
        # sum of length-weighted signed edge normals vanishes per triangle
        mesh = build_rect_uniform(4, 3, (0.0, -1.0, 2.0, 1.0))
        for t in range(mesh.num_triangles):
            acc = np.zeros(2)
            for k in range(3):
                e = mesh.triangle_edges[t, k]
                acc += (
                    mesh.edge_lengths[e]
                    * mesh.triangle_edge_sign[t, k]
                    * mesh.edge_normal[e]
                )
            assert np.linalg.norm(acc) < 1e-13

    def test_local_edge_opposite_local_vertex(self):
        mesh = build_rect_uniform(2, 2)
        for t in range(mesh.num_triangles):
            tri = mesh.triangles[t]
            for k in range(3):
                e = mesh.triangle_edges[t, k]
                assert set(mesh.edges[e]) == {tri[(k + 1) % 3], tri[(k + 2) % 3]}

    def test_side_tags(self):
        mesh = build_rect_uniform(3, 3)
        seen = {TAG_BOTTOM: 0, TAG_RIGHT: 0, TAG_TOP: 0, TAG_LEFT: 0}
        for e in range(mesh.num_edges):
            tag = mesh.boundary_tags[e]
            if tag == -1:
                continue
            mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
            seen[tag] += 1
            if tag == TAG_BOTTOM:
                assert mid[1] == 0.0
            elif tag == TAG_TOP:
                assert mid[1] == 1.0
            elif tag == TAG_LEFT:
                assert mid[0] == 0.0
            elif tag == TAG_RIGHT:
                assert mid[0] == 1.0
        assert all(v == 3 for v in seen.values())

    def test_h_T_is_longest_edge(self):
        mesh = build_rect_uniform(8, 4)
        dx, dy = 1.0 / 8, 1.0 / 4
        assert np.allclose(mesh.h_T, math.hypot(dx, dy))

    def test_arrays_immutable(self):
        mesh = build_rect_uniform(2, 2)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 5.0
        with pytest.raises(ValueError):
            mesh.triangles[0, 0] = 1

    def test_bad_resolution_rejected(self):
        with pytest.raises(MeshError):
            build_rect_uniform(0, 3)
        with pytest.raises(MeshError):
            build_rect_uniform(3, 3, (0.0, 0.0, -1.0, 1.0))


class TestStepDomain:
    def test_unit_spacing_counts(self):
        mesh = build_step_domain(1.0)
        # 24x2 grid of cells minus the 4x1 blocked corner, two triangles each
        assert mesh.num_triangles == 88
        assert mesh.num_vertices == 71
        inlet = [e for e in mesh.boundary_edge_indices if mesh.boundary_tags[e] == TAG_INLET]
        outlet = [e for e in mesh.boundary_edge_indices if mesh.boundary_tags[e] == TAG_OUTLET]
        walls = [e for e in mesh.boundary_edge_indices if mesh.boundary_tags[e] == TAG_WALL]
        assert len(inlet) == 1
        assert len(outlet) == 2
        assert len(walls) == len(mesh.boundary_edge_indices) - 3

    def test_quarter_spacing_counts(self):
        mesh = build_step_domain(0.25)
        assert mesh.num_triangles == 2 * (96 * 8 - 16 * 4)
        inlet = [e for e in mesh.boundary_edge_indices if mesh.boundary_tags[e] == TAG_INLET]
        outlet = [e for e in mesh.boundary_edge_indices if mesh.boundary_tags[e] == TAG_OUTLET]
        assert len(inlet) == 4
        assert len(outlet) == 8

    @pytest.mark.parametrize("h", [1.0, 0.3, 0.25, 0.125])
    def test_cells_match_loop_oracle(self, h):
        vertices, triangles = _loop_step(h)
        mesh = build_step_domain(h)
        assert mesh.vertices.dtype == vertices.dtype
        assert np.array_equal(mesh.vertices, vertices)
        assert mesh.triangles.dtype == triangles.dtype
        assert np.array_equal(mesh.triangles, triangles)

    def test_spacing_snaps_to_divide_step_corner(self):
        mesh = build_step_domain(0.3)
        xs = np.unique(mesh.vertices[:, 0])
        ys = np.unique(mesh.vertices[:, 1])
        assert 0.0 in xs
        assert 1.0 in ys

    def test_no_vertex_inside_blocked_corner(self):
        mesh = build_step_domain(0.5)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        inside = (x < -1e-12) & (y < 1.0 - 1e-12)
        assert not inside.any()
        assert mesh.areas.sum() == pytest.approx(24 * 2 - 4 * 1, rel=1e-13)

    def test_tags_on_correct_sides(self):
        mesh = build_step_domain(0.5)
        for e in mesh.boundary_edge_indices:
            mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
            tag = mesh.boundary_tags[e]
            if tag == TAG_INLET:
                assert mid[0] == pytest.approx(-4.0, abs=1e-12)
            elif tag == TAG_OUTLET:
                assert mid[0] == pytest.approx(20.0, abs=1e-12)
            else:
                assert tag == TAG_WALL


class TestInterchangeFormat:
    def test_round_trip_identical(self, tmp_path):
        mesh = build_rect_uniform(3, 2, (0.0, 0.0, 1.0, 2.0 / 3.0))
        path = tmp_path / "m.m2d"
        export_mesh(mesh, path)
        back = import_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.edges, mesh.edges)
        assert np.array_equal(back.boundary_tags, mesh.boundary_tags)

    def test_re_export_byte_identical(self, tmp_path):
        mesh = build_step_domain(1.0)
        p1 = tmp_path / "a.m2d"
        p2 = tmp_path / "b.m2d"
        export_mesh(mesh, p1)
        export_mesh(import_mesh(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text(
            "# demo mesh\n\n4 2 4\n0 0\n1 0\n# interjection\n0 1\n1 1\n"
            "0 1 3\n0 3 2\n0 1 7\n1 3 7\n2 3 7\n0 2 7\n"
        )
        mesh = import_mesh(path)
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 2
        assert all(mesh.boundary_tags[e] == 7 for e in mesh.boundary_edge_indices)

    def test_malformed_counts_line(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text("# hi\n4 two 0\n")
        with pytest.raises(MeshError, match="line 2"):
            import_mesh(path)

    def test_malformed_vertex_line(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text("3 1 0\n0 0\n1 0 9 9\n0 1\n0 1 2\n")
        with pytest.raises(MeshError, match="line 3"):
            import_mesh(path)

    def test_duplicate_vertex_index_in_triangle(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text("3 1 0\n0 0\n1 0\n0 1\n0 0 2\n")
        with pytest.raises(MeshError, match="line 5"):
            import_mesh(path)

    def test_vertex_index_out_of_range(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text("3 1 0\n0 0\n1 0\n0 1\n0 1 5\n")
        with pytest.raises(MeshError, match="line 5"):
            import_mesh(path)

    def test_inverted_triangle_reported_with_line(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text("4 2 0\n0 0\n1 0\n0 1\n1 1\n0 1 3\n0 2 3\n")
        with pytest.raises(MeshError, match="line 7"):
            import_mesh(path)

    def test_non_manifold_edge_rejected(self, tmp_path):
        # three triangles sharing edge (0,1)
        path = tmp_path / "m.m2d"
        path.write_text(
            "5 3 0\n0 0\n1 0\n0.5 1\n0.5 -1\n2 0.5\n0 1 2\n1 0 3\n0 1 4\n"
        )
        with pytest.raises(MeshError, match="manifold"):
            import_mesh(path)

    def test_huge_vertex_index_reported_with_line(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text("3 1 0\n0 0\n1 0\n0 1\n0 1 99999999999999999999\n")
        with pytest.raises(MeshError, match="line 5"):
            import_mesh(path)

    @pytest.mark.parametrize("coordinate", ["nan", "1e400"])
    def test_non_finite_coordinate_reported_with_line(self, tmp_path, coordinate):
        path = tmp_path / "m.m2d"
        path.write_text(f"3 1 0\n0 0\n{coordinate} 0\n0 1\n0 1 2\n")
        with pytest.raises(MeshError, match="line 3: vertex 1 has a NaN or infinite"):
            import_mesh(path)

    def test_sliver_reported_with_line(self, tmp_path):
        # triangle 1 has area 5e-16 < 1e-14 h^2, h^2 = 1.25
        path = tmp_path / "m.m2d"
        path.write_text("4 2 4\n0 0\n1 0\n0.5 1\n0.5 -1e-15\n0 1 2\n1 0 3\n"
                        "0 2 1\n1 2 1\n1 3 1\n0 3 1\n")
        with pytest.raises(MeshError, match="line 7: triangle 1 has area 5.000e-16, below 1.250e-14"):
            import_mesh(path)

    def test_first_bad_boundary_line_named(self, tmp_path):
        # a boundary edge off the mesh on line 9, a malformed record on line 10
        path = tmp_path / "m.m2d"
        path.write_text(
            "4 2 4\n0 0\n1 0\n0 1\n1 1\n0 1 3\n0 3 2\n0 1 7\n1 9 7\n2 3\n0 2 7\n"
        )
        with pytest.raises(MeshError, match=r"line 9: bad boundary edge \(1, 9\)"):
            import_mesh(path)

    def test_unlisted_boundary_edge_rejected(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text(
            "4 2 3\n0 0\n1 0\n0 1\n1 1\n0 1 3\n0 3 2\n0 1 7\n1 3 7\n2 3 7\n"
        )
        with pytest.raises(MeshError, match=r"boundary edge \(0, 2\) has no tag"):
            import_mesh(path)

    def test_edge_listed_twice_rejected(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text(
            "4 2 5\n0 0\n1 0\n0 1\n1 1\n0 1 3\n0 3 2\n"
            "0 1 7\n1 3 7\n2 3 7\n0 2 7\n1 0 8\n"
        )
        with pytest.raises(MeshError, match=r"line 12: edge \(0, 1\) is listed twice"):
            import_mesh(path)

    def test_tag_for_non_boundary_edge_rejected(self, tmp_path):
        path = tmp_path / "m.m2d"
        path.write_text(
            "4 2 1\n0 0\n1 0\n0 1\n1 1\n0 1 3\n0 3 2\n0 3 5\n"
        )
        with pytest.raises(MeshError, match="line 8"):
            import_mesh(path)


class TestPerMesh:
    def test_built_once_per_mesh_and_key(self):
        calls = []

        @per_mesh
        def build(mesh, key):
            calls.append(key)
            return np.full(3, key)

        a, b = build_rect_uniform(2, 2), build_rect_uniform(2, 2)
        first = build(a, 1)
        assert build(a, 1) is first
        assert build(b, 1) is not first  # two meshes share no entry
        assert build(a, 2) is not first
        assert calls == [1, 1, 2]


class TestConstructionDefects:
    def test_index_out_of_range_names_triangle(self):
        base = build_rect_uniform(1, 1)
        tris = base.triangles.copy()
        tris[1, 2] = 7
        with pytest.raises(MeshError, match="triangle 1 references vertex 7"):
            Mesh2D.from_arrays(base.vertices, tris)

    @pytest.mark.parametrize("value", [2.7, np.nan, np.inf])
    def test_non_integral_index_names_triangle(self, value):
        base = build_rect_uniform(1, 1)
        tris = base.triangles.astype(float)  # integral floats are indices
        assert np.array_equal(Mesh2D.from_arrays(base.vertices, tris).triangles,
                              base.triangles)
        tris[1, 2] = value
        with pytest.raises(MeshError, match=f"line 12: triangle 1 references vertex {value} "):
            Mesh2D.from_arrays(base.vertices, tris, tri_lines=[11, 12])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_named(self, value):
        base = build_rect_uniform(2, 2)
        verts = base.vertices.copy()
        verts[4, 1] = value
        with pytest.raises(MeshError, match="vertex 4 has a NaN or infinite"):
            Mesh2D.from_arrays(verts, base.triangles)

    def test_unused_vertex_rejected(self):
        base = build_rect_uniform(4, 4)
        verts = np.vstack([base.vertices, [[0.5, 0.5]]])
        with pytest.raises(MeshError, match="vertex 25 is used by no triangle"):
            Mesh2D.from_arrays(verts, base.triangles)

    @pytest.mark.parametrize(
        "vertices, triangles",
        [
            # two unit squares one unit apart
            (
                [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [3, 0], [2, 1], [3, 1]],
                [[0, 1, 3], [0, 3, 2], [4, 5, 7], [4, 7, 6]],
            ),
            # a bow tie: two triangles that share only vertex 0
            ([[0, 0], [1, 0], [1, 1], [-1, 0], [-1, -1]], [[0, 1, 2], [0, 3, 4]]),
        ],
        ids=["two-squares", "bow-tie"],
    )
    def test_parts_sharing_no_edge_rejected(self, vertices, triangles):
        with pytest.raises(MeshError, match="2 parts that share no edge"):
            Mesh2D.from_arrays(np.array(vertices, dtype=float), triangles)

    def test_strict_build_rejects_duplicated_triangle(self):
        base = build_rect_uniform(1, 1)
        tris = np.vstack([base.triangles, base.triangles[:1]])
        with pytest.raises(MeshError, match="manifold"):
            Mesh2D.from_arrays(base.vertices.copy(), tris)


# Oracle: the edge-by-edge and cell-by-cell loops the mesh builders
# vectorize.  Every array they produce must match the builders bitwise.


def _loop_rect(nx, ny):
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    tris = []
    for j in range(ny):
        for i in range(nx):
            ll = j * (nx + 1) + i
            lr, ul = ll + 1, ll + nx + 1
            tris.append((ll, lr, ul + 1))
            tris.append((ll, ul + 1, ul))

    def tags(mids):
        out = np.empty(mids.shape[0], dtype=np.int64)
        for i, (mx, my) in enumerate(mids):
            if abs(my) < 1e-9:
                out[i] = TAG_BOTTOM
            elif abs(mx - 1.0) < 1e-9:
                out[i] = TAG_RIGHT
            elif abs(my - 1.0) < 1e-9:
                out[i] = TAG_TOP
            elif abs(mx) < 1e-9:
                out[i] = TAG_LEFT
            else:
                raise MeshError("boundary edge midpoint off every side")
        return out

    return vertices, np.array(tris, dtype=np.int64), tags


def _loop_topology(vertices, triangles, tag_lookup):
    nv, nt = vertices.shape[0], triangles.shape[0]
    ea = triangles[:, [1, 2, 0]].ravel()
    eb = triangles[:, [2, 0, 1]].ravel()
    keys = np.minimum(ea, eb) * np.int64(nv) + np.maximum(ea, eb)
    uniq, tri_edge_flat = np.unique(keys, return_inverse=True)
    ne = uniq.shape[0]
    edges = np.column_stack([uniq // nv, uniq % nv])
    triangle_edges = tri_edge_flat.reshape(nt, 3)

    edge_to_triangles = np.full((ne, 2), -1, dtype=np.int64)
    slot = np.zeros(ne, dtype=np.int64)
    for t in range(nt):
        for e in triangle_edges[t]:
            if slot[e] < 2:
                edge_to_triangles[e, slot[e]] = t
                slot[e] += 1

    dvec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.hypot(dvec[:, 0], dvec[:, 1])
    tvec = dvec / edge_lengths[:, None]
    edge_normal = np.column_stack([-tvec[:, 1], tvec[:, 0]])
    sign = np.zeros((nt, 3), dtype=np.int64)
    for k in range(3):
        d = vertices[triangles[:, (k + 2) % 3]] - vertices[triangles[:, (k + 1) % 3]]
        out = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
        dot = np.einsum("ij,ij->i", edge_normal[triangle_edges[:, k]], out)
        sign[:, k] = np.where(dot >= 0, 1, -1)

    boundary_tags = np.full(ne, -1, dtype=np.int64)
    for e in np.flatnonzero(edge_to_triangles[:, 1] < 0):
        t = edge_to_triangles[e, 0]
        k = int(np.flatnonzero(triangle_edges[t] == e)[0])
        if sign[t, k] == -1:
            edge_normal[e] = -edge_normal[e]
            sign[t, k] = 1
        pair = (int(edges[e, 0]), int(edges[e, 1]))
        if callable(tag_lookup):
            boundary_tags[e] = tag_lookup(vertices[edges[e]].mean(axis=0)[None])[0]
        else:
            boundary_tags[e] = tag_lookup[pair]
    return {
        "vertices": vertices,
        "triangles": triangles,
        "edges": edges,
        "edge_normal": edge_normal,
        "edge_lengths": edge_lengths,
        "edge_to_triangles": edge_to_triangles,
        "triangle_edges": triangle_edges,
        "triangle_edge_sign": sign,
        "boundary_tags": boundary_tags,
    }


def _loop_step(h_target):
    """Step-channel vertices and triangles, built cell by cell."""
    kx = max(1, round(4.0 / h_target))
    ky = max(1, round(1.0 / h_target))
    dx = 4.0 / kx
    dy = 1.0 / ky
    nx = 6 * kx
    ny = 2 * ky
    tris = []
    for j in range(ny):
        for i in range(nx):
            if -4.0 + (i + 0.5) * dx < 0.0 and (j + 0.5) * dy < 1.0:
                continue
            ll = j * (nx + 1) + i
            lr = ll + 1
            ur = ll + nx + 2
            ul = ll + nx + 1
            tris.append((ll, lr, ur))
            tris.append((ll, ur, ul))
    triangles = np.array(tris, dtype=np.int64)
    X, Y = np.meshgrid(np.linspace(-4.0, 20.0, nx + 1), np.linspace(0.0, 2.0, ny + 1))
    vertices_full = np.column_stack([X.ravel(), Y.ravel()])
    used = np.unique(triangles)
    remap = np.full(vertices_full.shape[0], -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return vertices_full[used], remap[triangles]


def _step_tags(mids):
    out = np.full(mids.shape[0], TAG_WALL, dtype=np.int64)
    out[np.abs(mids[:, 0] + 4.0) < 1e-9 * 24.0] = TAG_INLET
    out[np.abs(mids[:, 0] - 20.0) < 1e-9 * 24.0] = TAG_OUTLET
    return out


def _shuffled_mesh_file(path, seed=8, nx=5, ny=4):
    # perturbed interior vertices under a random numbering, so boundary
    # normals start out both inward and outward; the perturbation keeps
    # every triangle counterclockwise while nx, ny <= 5
    rng = np.random.default_rng(seed)
    base = build_rect_uniform(nx, ny)
    interior = np.ones(base.num_vertices, dtype=bool)
    interior[base.edges[base.boundary_edge_indices]] = False
    verts = base.vertices.copy()
    verts[interior] += rng.uniform(-0.03, 0.03, (int(interior.sum()), 2))
    perm = rng.permutation(base.num_vertices)
    new_id = np.argsort(perm)
    tris = new_id[base.triangles]
    lines = [f"{base.num_vertices} {base.num_triangles} {base.boundary_edge_indices.size}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in verts[perm]]
    lines += [f"{i} {j} {k}" for i, j, k in tris]
    tag_map = {}
    for e in base.boundary_edge_indices:
        a, b = sorted(int(v) for v in new_id[base.edges[e]])
        tag_map[(a, b)] = int(base.boundary_tags[e]) + 10
        lines.append(f"{b} {a} {tag_map[(a, b)]}")
    path.write_text("\n".join(lines) + "\n")
    return verts[perm], tris, tag_map


def _assert_matches_oracle(mesh, vertices, triangles, tags):
    for name, arr in _loop_topology(vertices, triangles, tags).items():
        got = getattr(mesh, name)
        assert got.dtype == arr.dtype, name
        assert np.array_equal(got, arr), name


def test_vectorized_builders_match_loop_oracle(tmp_path):
    path = tmp_path / "shuffled.m2d"
    verts, tris, tag_map = _shuffled_mesh_file(path)
    step = build_step_domain(0.25)
    cases = [
        (build_rect_uniform(7, 5), _loop_rect(7, 5)),
        (step, (step.vertices, step.triangles, _step_tags)),
        (import_mesh(path), (verts, tris, tag_map)),
    ]
    for mesh, (vertices, triangles, tags) in cases:
        _assert_matches_oracle(mesh, vertices, triangles, tags)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
)
def test_shuffled_meshes_match_loop_oracle(tmp_path_factory, seed, nx, ny):
    path = tmp_path_factory.mktemp("shuffled") / "m.m2d"
    verts, tris, tag_map = _shuffled_mesh_file(path, seed, nx, ny)
    _assert_matches_oracle(import_mesh(path), verts, tris, tag_map)
