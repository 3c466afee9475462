"""Form assembly: diffusion, divergence, convection, loads, boundary data."""

import dataclasses
import logging

import numpy as np
import pytest
import scipy.io
import scipy.sparse.linalg

import egns.assembly
from egns.mesh import (
    TAG_BOTTOM, TAG_LEFT, TAG_RIGHT, TAG_TOP, Mesh2D, build_rect_uniform,
)
from egns.quadrature import LOAD_RULE
from egns.eg_space import dof_count, energy_norm, energy_operators, interpolate, vertex_values
from egns.assembly import (
    _viscous_unit,
    apply_dirichlet,
    assemble_convection_newton,
    assemble_divergence,
    assemble_load,
    assemble_neumann,
    dirichlet_dof_map,
)
from egns.solver import newton_solve, solve_saddle
from egns.verification import FlowCase, case_vortex_2d

ALL_SIDES = (TAG_BOTTOM, TAG_RIGHT, TAG_TOP, TAG_LEFT)


def export_matrix_market(A, B, prefix):
    """Write A and B in coordinate text format next to the given prefix."""
    prefix = str(prefix)
    scipy.io.mmwrite(prefix + "_A.mtx", A.tocoo())
    scipy.io.mmwrite(prefix + "_B.mtx", B.tocoo())


def _edge_row_matrix(mesh, blocks):
    """The global matrix of (NT, 3, 9) blocks on each element's edge rows."""
    l2g, n = egns.assembly.element_ops(mesh)["l2g"], 2 * mesh.num_vertices + mesh.num_edges
    return egns.assembly._sparse(l2g[:, 6:], l2g, blocks, (n, n))


def _outflow_matrix(mesh, tags, x):
    """The global matrix of the outflow Jacobian's 1x4 blocks, each on its
    edge's row and the v0x, v0y of the edge's ends."""
    nv, n = mesh.num_vertices, 2 * mesh.num_vertices + mesh.num_edges
    sel = egns.assembly._outflow_edges(mesh, tags)[0]
    ab = mesh.edges[sel]
    return egns.assembly._sparse((2 * nv + sel)[:, None], np.concatenate([ab, nv + ab], axis=1),
                                 assemble_neumann(mesh, tags, x)[:, None, :], (n, n))


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
    points, weights = LOAD_RULE
    total = 0.0
    for t in range(mesh.num_triangles):
        pts = points @ mesh.vertices[mesh.triangles[t]]
        curl = _curl_p1(mesh, v, t)
        acc = 0.0
        for q, wq in enumerate(weights):
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


def test_outflow_tags_may_come_as_a_list():
    # the per-mesh cache keys on tuple(tags)
    mesh = build_rect_uniform(3, 3)
    x = _random_field(mesh, np.random.default_rng(4))
    assert np.array_equal(assemble_neumann(mesh, [TAG_RIGHT], x),
                          assemble_neumann(mesh, (TAG_RIGHT,), x))


class TestViscous:
    def test_linear_in_viscosity(self):
        # the momentum residual SteadyProblem writes moves with nu by nu V x
        mesh = build_rect_uniform(3, 3)
        prob = FlowCase(name="mixed", body_force=lambda X: np.cos(X),
                        dirichlet=[((TAG_BOTTOM, TAG_TOP, TAG_LEFT), lambda X: X**2)],
                        neumann_tags=(TAG_RIGHT,)).problem(mesh, 1.0)
        x = _random_field(mesh, np.random.default_rng(3))
        p = np.zeros(mesh.num_triangles)
        nu1, nu2 = 0.3, 1.7
        ru1, ru2 = (prob.with_nu(nu).residual(x, p)[1] for nu in (nu1, nu2))
        free = prob.dof_map.free_indices()
        want = ((nu2 - nu1) * (_viscous_unit(mesh) @ x))[free]
        assert np.abs((ru2 - ru1)[free] - want).max() <= 1e-12 * np.abs(want).max()

    def test_symmetric(self):
        mesh = build_rect_uniform(3, 2)
        A = 0.7 * _viscous_unit(mesh)
        assert abs(A - A.T).max() < 1e-14

    def test_diagonal_equals_energy_norm_identity(self):
        mesh = build_rect_uniform(4, 4)
        nu = 0.37
        A = nu * _viscous_unit(mesh)
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = _random_field(mesh, rng)
            quad = float(v @ (A @ v))
            want = nu * energy_norm(mesh, v) ** 2
            assert quad == pytest.approx(want, rel=1e-12)

    def test_free_block_positive_definite_on_2x2(self):
        mesh = build_rect_uniform(2, 2)
        A = _viscous_unit(mesh)
        dm = dirichlet_dof_map(mesh, [(ALL_SIDES, lambda xy: np.zeros_like(xy))])
        free = dm.free_indices()
        free_u = free[free < dof_count(mesh)]
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
    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_geometry_matches_rt_basis_quadrature(self, shuffled_mesh, rt_basis, seed):
        # M[t,k,l] = int_T cross2(phi_k, phi_l): the integrand is linear, the
        # library takes its centroid value, the oracle the degree-5 rule
        mesh = shuffled_mesh(seed)
        points, weights = LOAD_RULE
        phi = rt_basis(mesh, points @ mesh.vertices[mesh.triangles])
        cross = (phi[..., :, None, 0] * phi[..., None, :, 1]
                 - phi[..., :, None, 1] * phi[..., None, :, 0])
        want = mesh.areas[:, None, None] * np.einsum("q,tqkl->tkl", weights, cross)
        got = egns.assembly._convection_geometry(mesh)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_against_brute_force_oracle(self):
        mesh = build_rect_uniform(2, 2)
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = _random_field(mesh, rng)
            w = _random_field(mesh, rng)
            z = _random_field(mesh, rng)
            C = _edge_row_matrix(mesh, assemble_convection_newton(mesh, v))
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
            "convection": (lambda x: _edge_row_matrix(mesh, assemble_convection_newton(mesh, x)),
                           lambda x: egns.assembly._convection_value(mesh, x)[2]),
            "outflow": (lambda x: _outflow_matrix(mesh, tags, x),
                        lambda x: egns.assembly._neumann_value(mesh, tags, x)[1]),
        }[form]
        rng = np.random.default_rng(12)
        x = _random_field(mesh, rng)
        J = jacobian(x)
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
            C = _edge_row_matrix(mesh, assemble_convection_newton(mesh, v))
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
        C = _edge_row_matrix(mesh, assemble_convection_newton(mesh, u))
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

    def test_matches_rt_basis_quadrature(self, shuffled_mesh, rt_basis):
        # the oracle is the basis quadrature the element moments replace:
        # the degree-5 rule on every (NT, 7, 3, 2) basis value
        mesh = shuffled_mesh()

        def f(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([np.exp(x) * np.sin(3 * y), np.cos(2 * x * y) / (1 + y)],
                            axis=-1)

        points, weights = LOAD_RULE
        X = points @ mesh.vertices[mesh.triangles]
        phi = rt_basis(mesh, X)
        vals = mesh.areas[:, None] * (weights @ (phi @ f(X)[..., None])[..., 0])
        want = np.zeros(dof_count(mesh))
        np.add.at(want, egns.assembly.element_ops(mesh)["l2g"][:, 6:], vals)
        got = assemble_load(mesh, f)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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
        D = _outflow_matrix(mesh, (TAG_RIGHT,), x)
        vec = egns.assembly._neumann_value(mesh, (TAG_RIGHT,), x)[1]
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
        D = _outflow_matrix(mesh, (TAG_RIGHT,), x)
        vec = egns.assembly._neumann_value(mesh, (TAG_RIGHT,), x)[1]
        assert D.nnz == 0 or abs(D).max() == 0.0
        assert np.abs(vec).max() == 0.0

    def test_empty_tag_set(self):
        mesh = build_rect_uniform(2, 2)
        x = np.zeros(2 * mesh.num_vertices + mesh.num_edges)
        x[: 2 * mesh.num_vertices] = 1.0
        D = assemble_neumann(mesh, (), x)
        vec = egns.assembly._neumann_value(mesh, (), x)[1]
        assert D.size == 0
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
        prob = FlowCase(
            name="cavity",
            dirichlet=[((TAG_BOTTOM, TAG_LEFT, TAG_RIGHT), walls), ((TAG_TOP,), lid)],
        ).problem(mesh, 1.0)
        with caplog.at_level(logging.INFO, logger="egns.assembly"):
            prob.newton_system(None)
            prob.newton_system(np.zeros(dof_count(mesh)))
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
        A = nu * _viscous_unit(mesh)
        B = assemble_divergence(mesh)

        def u_d(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([y, -x], axis=-1)

        dm = dirichlet_dof_map(mesh, [(ALL_SIDES, u_d)])
        values = dm.values.copy()
        rhs_u = np.zeros(dof_count(mesh))
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
        prob = FlowCase(name="leaky", dirichlet=[(ALL_SIDES, u_d)]).problem(mesh, 1.0)
        with pytest.raises(ValueError, match="incompatible: net boundary flux 2"):
            prob.dof_map
        with pytest.raises(ValueError, match="incompatible"):
            newton_solve(prob)
        assert factorizations == []

    def test_tags_selecting_no_edge_named(self):
        # an imported mesh without tags has every boundary edge at tag 0
        base = build_rect_uniform(2, 2)
        mesh = Mesh2D.from_arrays(base.vertices, base.triangles)
        prob = case_vortex_2d().problem(mesh, 1.0)
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
        prob = FlowCase(
            name="gradient", body_force=lambda xy: xy,  # grad |x|^2 / 2
            dirichlet=[(ALL_SIDES, lambda xy: np.zeros_like(xy))],
        ).problem(mesh, 1.0)
        assert prob.null_space.closed
        assert np.array_equal(prob.null_space.areas, mesh.areas)
        _, p, _ = solve_saddle(prob, prob.newton_system(None))
        assert np.abs(p).max() > 1e-3
        assert abs(mesh.areas @ p) <= 1e-14 * np.abs(p).max()

    def test_neumann_disables_mean_constraint(self):
        mesh = build_rect_uniform(2, 2)
        prob = FlowCase(
            name="outflow", body_force=None,
            dirichlet=[((TAG_BOTTOM, TAG_TOP, TAG_LEFT), lambda xy: np.zeros_like(xy))],
            neumann_tags=(TAG_RIGHT,),
        ).problem(mesh, 1.0)
        assert not prob.null_space.closed
        # outflow edge scalars stay free
        nv = mesh.num_vertices
        for e in mesh.boundary_edge_indices:
            if mesh.boundary_tags[e] == TAG_RIGHT:
                assert not prob.dof_map.constrained[2 * nv + e]

    def test_matrix_market_export(self, tmp_path):
        mesh = build_rect_uniform(2, 2)
        prob = FlowCase(
            name="rest", body_force=None,
            dirichlet=[(ALL_SIDES, lambda xy: np.zeros_like(xy))],
        ).problem(mesh, 1.0)
        A, B = prob.nu * _viscous_unit(mesh), assemble_divergence(mesh)  # A at rest
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

        load = egns.assembly.assemble_load
        for name in ("assemble_load", "dirichlet_dof_map", "null_space"):
            monkeypatch.setattr(egns.assembly, name, counted(name))
        mesh = build_rect_uniform(2, 2)
        prob = FlowCase(
            name="uniform-force", body_force=lambda xy: np.ones_like(xy),
            dirichlet=[(ALL_SIDES, lambda xy: np.zeros_like(xy))],
        ).problem(mesh, 1.0)
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

        # a force per unit nu: the load at nu is L0 + nu L1, from two
        # assemblies shared by every copy; the dof map and basis are shared too
        calls.clear()
        per_nu = lambda xy: np.stack([xy[..., 1], -xy[..., 0]], axis=-1)
        viscous = dataclasses.replace(
            prob, nu=2.0, case=dataclasses.replace(prob.case, force_per_nu=per_nu))
        L0, L1 = load(mesh, prob.case.body_force), load(mesh, per_nu)
        for p in [viscous, *(viscous.with_nu(nu) for nu in (0.5, 1e-3))]:
            p.newton_system(None)
            assert np.array_equal(p.load_vector, L0 + p.nu * L1)
            assert p.null_space is viscous.null_space and p.dof_map is viscous.dof_map
        assert sorted(calls) == ["assemble_load", "assemble_load", "dirichlet_dof_map"]


def test_viscous_matches_dense_element_oracle(shuffled_mesh):
    mesh = shuffled_mesh()
    l2g = egns.assembly.element_ops(mesh)["l2g"]
    D, QB, stab_w = energy_operators(mesh)
    n = 2 * mesh.num_vertices + mesh.num_edges
    dense = np.zeros((n, n))
    for t in range(mesh.num_triangles):
        Ke = mesh.areas[t] * D[t].T @ D[t] + QB[t].T @ np.diag(stab_w[t]) @ QB[t]
        dense[np.ix_(l2g[t], l2g[t])] += Ke
    got = _viscous_unit(mesh).toarray()
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("name", ["viscous", "divergence", "null-space"])
def test_per_mesh_matrices_own_exactly_their_entries(name):
    # tocsr sums duplicates in place, and SciPy keeps views on the
    # COO-sized buffers when more than half of the entries survive
    mesh = build_rect_uniform(8, 8)
    M = {"viscous": _viscous_unit, "divergence": assemble_divergence,
         "null-space": lambda mesh: FlowCase(
             name="rest", dirichlet=[(ALL_SIDES, lambda xy: np.zeros_like(xy))],
         ).problem(mesh, 1.0).null_space.Z,
         }[name](mesh)
    for a in (M.data, M.indices):  # a view holds its base's bytes
        assert a.size == M.nnz and (a if a.base is None else a.base).nbytes == a.nbytes
