"""Form assembly: diffusion, divergence, convection, loads, boundary data."""

import logging

import numpy as np
import pytest
import scipy.io
import scipy.sparse.linalg

import egns.assembly
from egns.mesh import (
    TAG_BOTTOM, TAG_LEFT, TAG_RIGHT, TAG_TOP, Mesh2D, build_rect_uniform,
)
from egns.quadrature import gauss_1d, quadrature_rule
from egns.eg_space import energy_norm, interpolate, vertex_values
from egns.assembly import (
    SteadyProblem,
    apply_dirichlet,
    assemble_convection_newton,
    assemble_divergence,
    assemble_load,
    assemble_neumann,
    assemble_viscous,
    dirichlet_dof_map,
)
from egns.solver import newton_solve, solve_saddle
from egns.verification import case_vortex_2d

ALL_SIDES = (TAG_BOTTOM, TAG_RIGHT, TAG_TOP, TAG_LEFT)


def export_matrix_market(A, B, prefix):
    """Write A and B in coordinate text format next to the given prefix."""
    prefix = str(prefix)
    scipy.io.mmwrite(prefix + "_A.mtx", A.tocoo())
    scipy.io.mmwrite(prefix + "_B.mtx", B.tocoo())


def _random_field(mesh, rng):
    vertex = rng.standard_normal((mesh.num_vertices, 2))
    return np.concatenate([vertex[:, 0], vertex[:, 1], rng.standard_normal(mesh.num_edges)])


def _edges(mesh, x):
    """The edge block of the dof vector x, a view."""
    return x[2 * mesh.num_vertices :]


def _curl_p1(mesh, field, t):
    # scalar curl of the continuous part on element t
    tri = mesh.triangles[t]
    p = mesh.vertices[tri]
    area2 = 2.0 * mesh.areas[t]
    curl = 0.0
    for k in range(3):
        a = p[(k + 1) % 3]
        b = p[(k + 2) % 3]
        # grad of hat_k
        g = np.array([a[1] - b[1], b[0] - a[0]]) / area2
        vx, vy = vertex_values(mesh, field)[tri[k]]
        curl += g[0] * vy - g[1] * vx
    return curl


def _rt_eval(mesh, edge_vals, t, x):
    tri = mesh.triangles[t]
    out = np.zeros(2)
    for k in range(3):
        e = mesh.triangle_edges[t, k]
        sig = mesh.triangle_edge_sign[t, k]
        L = mesh.edge_lengths[e]
        out += edge_vals[e] * sig * L / (2 * mesh.areas[t]) * (x - mesh.vertices[tri[k]])
    return out


def _trilinear_oracle(mesh, v, w, z):
    # independent quadrature-loop evaluation of the convective trilinear form
    rule = quadrature_rule(2)
    total = 0.0
    for t in range(mesh.num_triangles):
        pts = rule.points @ mesh.vertices[mesh.triangles[t]]
        curl = _curl_p1(mesh, v, t)
        acc = 0.0
        for q, wq in enumerate(rule.weights):
            rw = _rt_eval(mesh, _edges(mesh, w), t, pts[q])
            rz = _rt_eval(mesh, _edges(mesh, z), t, pts[q])
            # (curl x a) . b = curl * (a1 b2 - a2 b1)
            acc += wq * curl * (rw[0] * rz[1] - rw[1] * rz[0])
        total += mesh.areas[t] * acc
    return total


def _masked_edges(mesh, w):
    out = np.zeros_like(w)
    _edges(mesh, out)[:] = _edges(mesh, w)
    return out


class TestViscous:
    def test_linear_in_viscosity(self):
        mesh = build_rect_uniform(3, 3)
        A1 = assemble_viscous(mesh, 1.0)
        A2 = assemble_viscous(mesh, 2.0)
        assert (A2 - 2 * A1).nnz == 0 or abs((A2 - 2 * A1)).max() < 1e-15

    def test_symmetric(self):
        mesh = build_rect_uniform(3, 2)
        A = assemble_viscous(mesh, 0.7)
        assert abs(A - A.T).max() < 1e-14

    def test_diagonal_equals_energy_norm_identity(self):
        mesh = build_rect_uniform(4, 4)
        nu = 0.37
        A = assemble_viscous(mesh, nu)
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = _random_field(mesh, rng)
            quad = float(v @ (A @ v))
            want = nu * energy_norm(mesh, v) ** 2
            assert quad == pytest.approx(want, rel=1e-12)

    def test_free_block_positive_definite_on_2x2(self):
        mesh = build_rect_uniform(2, 2)
        A = assemble_viscous(mesh, 1.0)
        dm = dirichlet_dof_map(mesh, [(ALL_SIDES, lambda xy: np.zeros_like(xy))])
        free = dm.free_indices()
        free_u = free[free < dm.total]
        block = A[np.ix_(free_u, free_u)].toarray()
        eig = np.linalg.eigvalsh(block)
        assert eig.min() > 0


class TestDivergence:
    def test_row_structure(self):
        mesh = build_rect_uniform(2, 2)
        B = assemble_divergence(mesh).tocsr()
        nv = mesh.num_vertices
        for t in range(mesh.num_triangles):
            row = B.getrow(t)
            assert row.nnz == 3
            for k in range(3):
                e = mesh.triangle_edges[t, k]
                want = mesh.triangle_edge_sign[t, k] * mesh.edge_lengths[e]
                assert row[0, 2 * nv + e] == pytest.approx(want, rel=1e-14)

    def test_action_is_area_weighted_divergence(self):
        from egns.eg_space import element_divergence

        mesh = build_rect_uniform(3, 3)
        B = assemble_divergence(mesh)
        rng = np.random.default_rng(9)
        v = _random_field(mesh, rng)
        got = B @ v
        want = mesh.areas * element_divergence(mesh, v)
        assert np.abs(got - want).max() < 1e-13

    def test_kernel_contains_divergence_free_interpolants(self):
        mesh = build_rect_uniform(3, 3)
        v = interpolate(
            mesh, lambda xy: np.stack([xy[..., 1], xy[..., 0]], axis=-1)
        )
        B = assemble_divergence(mesh)
        assert np.abs(B @ v).max() < 1e-12


class TestConvection:
    def test_against_brute_force_oracle(self):
        mesh = build_rect_uniform(2, 2)
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = _random_field(mesh, rng)
            w = _random_field(mesh, rng)
            z = _random_field(mesh, rng)
            C = assemble_convection_newton(mesh, v)
            got = z @ (C @ _masked_edges(mesh, w))
            want = _trilinear_oracle(mesh, v, w, z)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_vector_is_self_convection(self):
        mesh = build_rect_uniform(2, 2)
        rng = np.random.default_rng(11)
        u = _random_field(mesh, rng)
        z = _random_field(mesh, rng)
        cvec = egns.assembly._convection_value(mesh, u)[2]
        assert z @ cvec == pytest.approx(
            _trilinear_oracle(mesh, u, u, z), rel=1e-12
        )

    @pytest.mark.parametrize("form", ["convection", "outflow"])
    @pytest.mark.parametrize("mesh_kind", ["uniform", "shuffled"])
    def test_newton_consistency_at_linearization_point(
        self, mesh_kind, form, shuffled_mesh
    ):
        # the value v is quadratic, so polarization gives its Jacobian:
        # J(x) y = (v(x + y) - v(x - y)) / 2 for every y, vertex columns
        # included; y = x is the linearization point, J(x) x = 2 v(x).
        # The imported mesh tags its whole boundary 0
        mesh = build_rect_uniform(3, 2) if mesh_kind == "uniform" else shuffled_mesh()
        tags = (0, *ALL_SIDES)
        jacobian, value = {
            "convection": (assemble_convection_newton,
                           lambda x: egns.assembly._convection_value(mesh, x)[2]),
            "outflow": (lambda mesh, x: assemble_neumann(mesh, tags, x),
                        lambda x: egns.assembly._neumann_value(mesh, tags, x)[3]),
        }[form]
        rng = np.random.default_rng(12)
        x = _random_field(mesh, rng)
        J = jacobian(mesh, x)
        for y in (x, _random_field(mesh, rng)):
            want = (value(x + y) - value(x - y)) / 2
            assert np.abs(want).max() > 0
            assert np.abs(J @ y - want).max() <= 1e-12 * np.abs(want).max()

    def test_skew_in_last_two_arguments(self):
        mesh = build_rect_uniform(2, 2)
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = _random_field(mesh, rng)
            w = _random_field(mesh, rng)
            C = assemble_convection_newton(mesh, v)
            val = w @ (C @ _masked_edges(mesh, w))
            scale = max(
                1.0,
                np.abs(vertex_values(mesh, v)).max() * np.abs(_edges(mesh, w)).max() ** 2,
            )
            assert abs(val) < 1e-13 * scale

    def test_rows_live_on_edge_dofs_only(self):
        mesh = build_rect_uniform(2, 2)
        rng = np.random.default_rng(14)
        u = _random_field(mesh, rng)
        C = assemble_convection_newton(mesh, u)
        cvec = egns.assembly._convection_value(mesh, u)[2]
        nv = mesh.num_vertices
        C = C.tocsr()
        for row in range(2 * nv):
            assert C.getrow(row).nnz == 0
        assert np.abs(cvec[: 2 * nv]).max() == 0.0


class TestLoad:
    def test_vertex_entries_zero(self):
        mesh = build_rect_uniform(3, 3)

        def f(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([np.sin(x), np.cos(y)], axis=-1)

        vec = assemble_load(mesh, f)
        assert np.abs(vec[: 2 * mesh.num_vertices]).max() == 0.0

    def test_constant_force_closed_form(self):
        mesh = build_rect_uniform(2, 2)
        fconst = np.array([1.0, 2.0])
        vec = assemble_load(mesh, lambda xy: np.broadcast_to(fconst, xy.shape))
        nv = mesh.num_vertices
        want = np.zeros(mesh.num_edges)
        for t in range(mesh.num_triangles):
            centroid = mesh.vertices[mesh.triangles[t]].mean(axis=0)
            for k in range(3):
                e = mesh.triangle_edges[t, k]
                sig = mesh.triangle_edge_sign[t, k]
                L = mesh.edge_lengths[e]
                want[e] += fconst @ (sig * L * (centroid - mesh.vertices[mesh.triangles[t, k]]) / 2)
        assert np.abs(vec[2 * nv :] - want).max() < 1e-14

    def test_gradient_force_annihilated_on_divergence_free_fields(self):
        # f = grad(x^3 + y^3); its load functional vanishes on the kernel of
        # the divergence operator restricted to interior dofs
        mesh = build_rect_uniform(2, 2)

        def f(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([3 * x**2, 3 * y**2], axis=-1)

        vec = assemble_load(mesh, f)
        B = assemble_divergence(mesh)
        dm = dirichlet_dof_map(mesh, [(ALL_SIDES, lambda xy: np.zeros_like(xy))])
        free = dm.free_indices()
        Bf = B[:, free].toarray()
        _, s, Vt = np.linalg.svd(Bf)
        null = Vt[np.sum(s > 1e-12) :]
        assert null.shape[0] >= 1
        lf = vec[free]
        for basis_vec in null:
            assert abs(lf @ basis_vec) < 1e-10 * max(1.0, np.linalg.norm(lf))


class TestNeumann:
    def test_linearized_boundary_matrix_entry(self):
        # the returned vector is the quadratic boundary term at the
        # linearization state
        mesh = build_rect_uniform(2, 2)
        nv = mesh.num_vertices
        x = np.zeros(2 * nv + mesh.num_edges)
        x[:nv] = 1.0  # constant (1, 0)
        D = assemble_neumann(mesh, (TAG_RIGHT,), x)
        vec = egns.assembly._neumann_value(mesh, (TAG_RIGHT,), x)[3]
        D = D.tocsr()
        right = [
            e
            for e in mesh.boundary_edge_indices
            if mesh.boundary_tags[e] == TAG_RIGHT
        ]
        assert len(right) == 2
        for e in right:
            L = mesh.edge_lengths[e]
            a, b = mesh.edges[e]
            row = 2 * nv + e
            assert D[row, a] == pytest.approx(0.5 * L, rel=1e-14)
            assert D[row, b] == pytest.approx(0.5 * L, rel=1e-14)
            assert D[row, nv + a] == 0.0
            assert vec[row] == pytest.approx(0.5 * L, rel=1e-14)
        # matrix applied at the linearization point gives twice the vector
        assert np.allclose(D @ x, 2 * vec, atol=1e-14)

    def test_zero_state_zero_data_vanishes(self):
        mesh = build_rect_uniform(2, 2)
        x = np.zeros(2 * mesh.num_vertices + mesh.num_edges)
        D = assemble_neumann(mesh, (TAG_RIGHT,), x)
        vec = egns.assembly._neumann_value(mesh, (TAG_RIGHT,), x)[3]
        assert D.nnz == 0 or abs(D).max() == 0.0
        assert np.abs(vec).max() == 0.0

    def test_empty_tag_set(self):
        mesh = build_rect_uniform(2, 2)
        x = np.zeros(2 * mesh.num_vertices + mesh.num_edges)
        x[: 2 * mesh.num_vertices] = 1.0
        D = assemble_neumann(mesh, (), x)
        vec = egns.assembly._neumann_value(mesh, (), x)[3]
        assert D.nnz == 0
        assert np.abs(vec).max() == 0.0


class TestDirichlet:
    def test_constrained_set_and_values(self):
        mesh = build_rect_uniform(3, 3)

        def u_d(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([x + y, x - y], axis=-1)

        dm = dirichlet_dof_map(mesh, [(ALL_SIDES, u_d)])
        nv = mesh.num_vertices
        bverts = np.unique(mesh.edges[mesh.boundary_edge_indices])
        for i in range(nv):
            assert dm.constrained[i] == (i in bverts)
            assert dm.constrained[nv + i] == (i in bverts)
        for e in range(mesh.num_edges):
            assert dm.constrained[2 * nv + e] == (mesh.boundary_tags[e] != -1)
        # nodal values
        for i in bverts:
            want = u_d(mesh.vertices[i : i + 1])[0]
            assert dm.values[i] == pytest.approx(want[0], rel=1e-14)
            assert dm.values[nv + i] == pytest.approx(want[1], rel=1e-14)
        # edge averages: linear data, so midpoint value dotted with the normal
        for e in mesh.boundary_edge_indices:
            mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
            want = u_d(mid[None, :])[0] @ mesh.edge_normal[e]
            assert dm.values[2 * nv + e] == pytest.approx(want, abs=1e-14)

    def test_cavity_recipe_leaky_corners(self, caplog):
        mesh = build_rect_uniform(4, 4)
        walls = lambda xy: np.zeros_like(xy)
        lid = lambda xy: np.broadcast_to((1.0, 0.0), xy.shape)
        prob = SteadyProblem(
            mesh=mesh, nu=1.0,
            dirichlet=[((TAG_BOTTOM, TAG_LEFT, TAG_RIGHT), walls), ((TAG_TOP,), lid)],
        )
        with caplog.at_level(logging.INFO, logger="egns.assembly"):
            prob.newton_system(None)
            prob.newton_system(np.zeros(prob.dof_map.total))
        # the map is built once per problem and shared by its systems: the
        # override is logged once
        dm = prob.dof_map
        nv = mesh.num_vertices
        for i in range(nv):
            x, y = mesh.vertices[i]
            if y == 1.0:  # lid vertices, corners included
                assert dm.values[i] == 1.0
            elif x in (0.0, 1.0) or y == 0.0:
                assert dm.values[i] == 0.0
        # lid edges carry zero flux: (1,0) is tangential to the top
        for e in mesh.boundary_edge_indices:
            assert dm.values[2 * nv + e] == pytest.approx(0.0, abs=1e-15)
        assert sum("overrid" in r.message for r in caplog.records) == 1

    def test_elimination_moves_data_to_rhs(self):
        mesh = build_rect_uniform(2, 2)
        nu = 1.0
        A = assemble_viscous(mesh, nu)
        B = assemble_divergence(mesh)

        def u_d(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([y, -x], axis=-1)

        dm = dirichlet_dof_map(mesh, [(ALL_SIDES, u_d)])
        values = dm.values.copy()
        rhs_u = np.zeros(dm.total)
        rhs_p = np.zeros(mesh.num_triangles)
        out_u, out_p = apply_dirichlet(dm, A, B, rhs_u, rhs_p)
        vvec = np.where(dm.constrained, dm.values, 0.0)
        free = dm.free_indices()
        want_u = -(A @ vvec)[free]
        want_p = -(B @ vvec)
        assert np.allclose(out_u[free], want_u, atol=1e-14)
        assert np.allclose(out_p, want_p, atol=1e-14)
        # inputs and the shared map untouched; the map cannot be written
        assert np.abs(rhs_u).max() == 0.0
        assert np.abs(rhs_p).max() == 0.0
        assert np.array_equal(dm.values, values)
        with pytest.raises(ValueError):
            dm.values[0] = 1.0
        with pytest.raises(ValueError):
            dm.constrained[0] = False

    def test_incompatible_data_raises(self, monkeypatch):
        mesh = build_rect_uniform(2, 2)

        def u_d(xy):  # net outflow through the boundary
            return np.array(xy, dtype=float)

        factorizations = []
        monkeypatch.setattr(
            scipy.sparse.linalg, "splu", lambda *a, **k: factorizations.append(a)
        )
        prob = SteadyProblem(mesh=mesh, nu=1.0, dirichlet=[(ALL_SIDES, u_d)])
        with pytest.raises(ValueError, match="incompatible: net boundary flux 2"):
            prob.dof_map
        with pytest.raises(ValueError, match="incompatible"):
            newton_solve(prob)
        assert factorizations == []

    def test_tags_selecting_no_edge_named(self):
        # an imported mesh without tags has every boundary edge at tag 0
        base = build_rect_uniform(2, 2)
        mesh = Mesh2D.from_arrays(base.vertices, base.triangles)
        prob = case_vortex_2d(1.0).problem(mesh)
        with pytest.raises(ValueError, match=r"tags \(1, 2, 3, 4\) select no bound"):
            prob.dof_map

    @pytest.mark.parametrize("where", ["vertex", "edge"])
    def test_non_finite_data_names_tags(self, where):
        mesh = build_rect_uniform(4, 4)

        def lid(xy):  # NaN only at grid vertices, or only between them
            on_grid = np.all(np.abs(4 * xy - np.round(4 * xy)) < 1e-12, axis=-1)
            bad = on_grid if where == "vertex" else ~on_grid
            return np.where(bad[..., None], np.nan, np.zeros_like(xy))

        walls = lambda xy: np.zeros_like(xy)
        with pytest.raises(ValueError, match=r"tags \(3,\)"):
            dirichlet_dof_map(
                mesh, [((TAG_BOTTOM, TAG_LEFT, TAG_RIGHT), walls), ((TAG_TOP,), lid)]
            )


class TestSteadyProblem:
    def test_pure_dirichlet_gets_mean_constraint(self):
        mesh = build_rect_uniform(2, 2)
        prob = SteadyProblem(
            mesh=mesh, nu=1.0, body_force=lambda xy: xy,  # grad |x|^2 / 2
            dirichlet=[(ALL_SIDES, lambda xy: np.zeros_like(xy))],
        )
        assert prob.null_space.closed
        assert np.array_equal(prob.null_space.areas, mesh.areas)
        _, p, _, _ = solve_saddle(prob, prob.newton_system(None))
        assert np.abs(p).max() > 1e-3
        assert abs(mesh.areas @ p) <= 1e-14 * np.abs(p).max()

    def test_neumann_disables_mean_constraint(self):
        mesh = build_rect_uniform(2, 2)
        prob = SteadyProblem(
            mesh=mesh, nu=1.0, body_force=None,
            dirichlet=[((TAG_BOTTOM, TAG_TOP, TAG_LEFT), lambda xy: np.zeros_like(xy))],
            neumann_tags=(TAG_RIGHT,),
        )
        assert not prob.null_space.closed
        # outflow edge scalars stay free
        nv = mesh.num_vertices
        for e in mesh.boundary_edge_indices:
            if mesh.boundary_tags[e] == TAG_RIGHT:
                assert not prob.dof_map.constrained[2 * nv + e]

    def test_matrix_market_export(self, tmp_path):
        mesh = build_rect_uniform(2, 2)
        prob = SteadyProblem(
            mesh=mesh, nu=1.0, body_force=None,
            dirichlet=[(ALL_SIDES, lambda xy: np.zeros_like(xy))],
        )
        A, B = prob.newton_system(None)[0], assemble_divergence(mesh)
        export_matrix_market(A, B, tmp_path / "sys")
        a = scipy.io.mmread(tmp_path / "sys_A.mtx")
        b = scipy.io.mmread(tmp_path / "sys_B.mtx")
        assert a.shape == A.shape
        assert b.shape == B.shape

    def test_with_nu_shares_load_and_dof_map(self, monkeypatch):
        calls = []

        def counted(name):
            fn = getattr(egns.assembly, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("assemble_load", "dirichlet_dof_map", "null_space"):
            monkeypatch.setattr(egns.assembly, name, counted(name))
        mesh = build_rect_uniform(2, 2)
        prob = SteadyProblem(
            mesh=mesh, nu=1.0, body_force=lambda xy: np.ones_like(xy),
            dirichlet=[(ALL_SIDES, lambda xy: np.zeros_like(xy))],
        )
        stages = [prob.with_nu(0.5), prob.with_nu(0.25).with_nu(0.125)]
        assert [p.nu for p in stages] == [0.5, 0.125]
        # the first with_nu builds all three, once
        assert sorted(calls) == ["assemble_load", "dirichlet_dof_map", "null_space"]
        for p in stages:
            p.newton_system(None)
            assert p.null_space is prob.null_space
            assert p.load_vector is prob.load_vector
            assert p.dof_map is prob.dof_map
        assert sorted(calls) == ["assemble_load", "dirichlet_dof_map", "null_space"]


def test_viscous_matches_dense_element_oracle(shuffled_mesh):
    mesh = shuffled_mesh()
    ops = egns.assembly.element_ops(mesh)
    n = 2 * mesh.num_vertices + mesh.num_edges
    dense = np.zeros((n, n))
    for t in range(mesh.num_triangles):
        D, QB = ops["D"][t], ops["QB"][t]
        Ke = mesh.areas[t] * D.T @ D + QB.T @ np.diag(ops["stab_w"][t]) @ QB
        dense[np.ix_(ops["l2g"][t], ops["l2g"][t])] += Ke
    got = assemble_viscous(mesh, 1.0).toarray()
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()
