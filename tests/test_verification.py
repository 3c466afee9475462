"""Manufactured cases, error norms, convergence tables, flow diagnostics."""

import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import egns.verification
from egns.mesh import (
    TAG_BOTTOM,
    TAG_INLET,
    TAG_LEFT,
    TAG_OUTLET,
    TAG_RIGHT,
    TAG_TOP,
    build_rect_uniform,
)
from egns.eg_space import element_ops, interpolate, vertex_values
from egns.quadrature import LOAD_RULE, NORM_RULE
from egns.solver import newton_solve, solve_saddle
from egns.verification import (
    _NORM_BLOCK,
    _mean_sq,
    FlowCase,
    VerificationError,
    case_cavity,
    case_noflow,
    case_step,
    case_vortex_2d,
    convergence_table,
    error_norms,
    kinematic_pressure,
    recirculation_detect,
    velocity_l2_difference,
    velocity_l2_norm,
)

# Published reference columns for the manufactured vortex benchmark:
# (L2 velocity, H1 velocity, L2 pressure) per mesh level, and the printed
# order columns they imply.
BENCH_H = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
BENCH_ERR_NU1 = np.array(
    [
        [1.440e-3, 8.004e-2, 3.402e-1],
        [3.640e-4, 4.026e-2, 1.702e-1],
        [9.134e-5, 2.017e-2, 8.509e-2],
        [2.287e-5, 1.009e-2, 4.254e-2],
    ]
)
BENCH_ORD_NU1 = np.array(
    [[1.98, 0.99, 1.00], [1.99, 1.00, 1.00], [2.00, 1.00, 1.00]]
)
BENCH_ERR_NU1E5 = np.array(
    [
        [1.659e-3, 9.512e-2, 3.400e-1],
        [4.222e-4, 4.189e-2, 1.701e-1],
        [1.077e-4, 2.031e-2, 8.504e-2],
        [2.720e-5, 1.011e-2, 4.252e-2],
    ]
)
BENCH_ORD_NU1E5 = np.array(
    [[1.97, 1.18, 1.00], [1.97, 1.04, 1.00], [1.98, 1.01, 1.00]]
)


def _zero_field(mesh):
    return np.zeros(2 * mesh.num_vertices + mesh.num_edges)


def _vertex_field(mesh, values):
    """A dof vector with the given (NV, 2) vertex values and zero edge values."""
    field = _zero_field(mesh)
    vertex_values(mesh, field)[:] = values
    return field


def _fd_scalar_grad(p, pts, h=1e-5):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    return np.stack(
        [
            (p(pts + ex) - p(pts - ex)) / (2 * h),
            (p(pts + ey) - p(pts - ey)) / (2 * h),
        ],
        axis=-1,
    )


def _fd_jacobian(u, pts, h=1e-5):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    dx = (u(pts + ex) - u(pts - ex)) / (2 * h)
    dy = (u(pts + ey) - u(pts - ey)) / (2 * h)
    return np.stack([dx, dy], axis=-1)  # J[:, i, j] = du_i/dx_j


def _fd_laplacian(u, pts, h=1e-5):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    u0 = u(pts)
    return (u(pts + ex) + u(pts - ex) + u(pts + ey) + u(pts - ey) - 4 * u0) / h**2


def _fd_divergence4(u, pts, h=1e-3):
    # fourth-order central first derivatives, exact for quintics
    def d(axis, comp):
        e = np.zeros(2)
        e[axis] = h
        return (
            -u(pts + 2 * e)[:, comp]
            + 8 * u(pts + e)[:, comp]
            - 8 * u(pts - e)[:, comp]
            + u(pts + 2 * -e)[:, comp]
        ) / (12 * h)

    return d(0, 0) + d(1, 1)


def _velocity(case):
    return lambda xy: case.exact(xy)[0]


def _vortex_at(x, y, nu):
    """Velocity, its gradient and the body force of case_vortex_2d at one
    point, in closed form."""
    a, da = x * x * (x - 1) ** 2, 2 * x * (x - 1) * (2 * x - 1)
    d2a, d3a = 12 * x * x - 12 * x + 2, 24 * x - 12
    b, db = y * y * (y - 1) ** 2, 2 * y * (y - 1) * (2 * y - 1)
    d2b, d3b = 12 * y * y - 12 * y + 2, 24 * y - 12
    u = (5 * a * db, -5 * da * b)
    grad = ((5 * da * db, 5 * a * d2b), (-5 * d2a * b, -5 * da * db))
    omega = -5 * (d2a * b + a * d2b)
    f = (
        -5 * nu * (d2a * db + a * d3b) - omega * u[1] + 20 * (2 * y - 1),
        5 * nu * (d3a * b + da * d2b) + omega * u[0] + 20 * (2 * x - 1),
    )
    return u, grad, f


class TestVortexCase:
    def test_velocity_matches_direct_polynomial(self):
        case = case_vortex_2d()
        rng = np.random.default_rng(21)
        pts = rng.random((50, 2))
        x, y = pts[:, 0], pts[:, 1]
        want = np.stack(
            [
                10 * x**2 * (x - 1) ** 2 * y * (y - 1) * (2 * y - 1),
                -10 * x * (x - 1) * (2 * x - 1) * y**2 * (y - 1) ** 2,
            ],
            axis=-1,
        )
        assert np.abs(case.exact(pts)[0] - want).max() < 1e-13

    def test_center_is_stagnation_point(self):
        case = case_vortex_2d()
        assert np.abs(case.exact(np.array([[0.5, 0.5]]))[0]).max() == 0.0

    def test_pressure_formula(self):
        case = case_vortex_2d()
        pts = np.array([[0.25, 0.75], [1.0, 1.0], [0.0, 0.0]])
        want = 10 * (2 * pts[:, 0] - 1) * (2 * pts[:, 1] - 1)
        assert np.abs(case.exact(pts)[2] - want).max() < 1e-13

    def test_divergence_free(self):
        case = case_vortex_2d()
        rng = np.random.default_rng(22)
        pts = 0.1 + 0.8 * rng.random((100, 2))
        assert np.abs(_fd_divergence4(_velocity(case), pts)).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        case = case_vortex_2d()
        rng = np.random.default_rng(23)
        pts = 0.05 + 0.9 * rng.random((30, 2))
        J = _fd_jacobian(_velocity(case), pts)
        got = case.exact(pts)[1]
        assert np.abs(got - J).max() < 1e-7 * max(1.0, np.abs(J).max())

    @pytest.mark.parametrize("nu", [1.0, 1e-2, 1e-5])
    def test_body_force_matches_momentum_equation(self, nu):
        case = case_vortex_2d()
        rng = np.random.default_rng(24)
        pts = 0.05 + 0.9 * rng.random((20, 2))
        u = case.exact(pts)[0]
        J = _fd_jacobian(_velocity(case), pts)
        omega = J[:, 1, 0] - J[:, 0, 1]
        lap = _fd_laplacian(_velocity(case), pts)
        gradp = _fd_scalar_grad(lambda xy: case.exact(xy)[2], pts)
        f_fd = (
            -nu * lap
            + omega[:, None] * np.stack([-u[:, 1], u[:, 0]], axis=-1)
            + gradp
        )
        f = case.body_force(pts) + nu * case.force_per_nu(pts)
        assert np.abs(f - f_fd).max() < 1e-6 * np.abs(f).max()

    @pytest.mark.parametrize("nu", [1.0, 1e-5])
    def test_closed_forms_match_pointwise_oracle(self, shuffled_mesh, nu):
        case = case_vortex_2d()
        mesh = shuffled_mesh()
        pts = LOAD_RULE[0] @ mesh.vertices[mesh.triangles]  # (NT, 7, 2)
        got = [*case.exact(pts)[:2], case.body_force(pts) + nu * case.force_per_nu(pts)]
        want = [np.empty_like(g) for g in got]
        for idx in np.ndindex(pts.shape[:-1]):
            for w, v in zip(want, _vortex_at(*pts[idx], nu)):
                w[idx] = v
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-14 * max(1.0, np.abs(w).max())

    def test_problem_is_pure_dirichlet(self):
        case = case_vortex_2d()
        prob = case.problem(build_rect_uniform(4, 4), 1.0)
        assert prob.null_space.closed
        _, p, _ = solve_saddle(prob, prob.newton_system(None))
        assert abs(prob.mesh.areas @ p) <= 1e-14 * np.abs(p).max()
        assert prob.nu == 1.0


class TestNuFreeCases:
    """A case is the data of one flow at every viscosity: problem(mesh, nu)
    is the one place where it meets one."""

    def test_flow_case_has_no_viscosity_field(self):
        assert "nu" not in {f.name for f in dataclasses.fields(FlowCase)}

    @pytest.mark.parametrize("make", [case_vortex_2d, case_noflow, case_cavity, case_step])
    def test_constructors_take_no_viscosity(self, make):
        assert not {"nu", "re"} & set(inspect.signature(make).parameters)

    def test_problem_takes_mesh_and_nu(self):
        assert list(inspect.signature(FlowCase.problem).parameters) == ["self", "mesh", "nu"]


class TestInconsistentCaseRejected:
    def test_wrong_body_force(self):
        noflow = case_noflow()
        with pytest.raises(VerificationError, match="force"):
            FlowCase(
                name="broken",
                exact=noflow.exact,
                body_force=lambda xy: np.zeros_like(xy),
                dirichlet=noflow.dirichlet,
            )

    def test_compressible_velocity(self):
        noflow = case_noflow()
        with pytest.raises(VerificationError, match="divergence"):
            FlowCase(
                name="broken",
                # u = (x, 0) with its true gradient: only the divergence is wrong
                exact=lambda xy: (
                    np.stack([xy[..., 0], np.zeros_like(xy[..., 1])], axis=-1),
                    np.broadcast_to([[1.0, 0.0], [0.0, 0.0]], xy.shape + (2,)).copy(),
                    noflow.exact(xy)[2],
                ),
                body_force=noflow.body_force,
                dirichlet=noflow.dirichlet,
            )

    @pytest.mark.parametrize("part, named", [("body_force", "body force"),
                                             ("force_per_nu", "force per unit nu")])
    def test_each_force_part_checked_on_its_own_scale(self, part, named):
        # a 1e-4 slip in the viscous part is 1e-9 of the force at nu =
        # 1e-5, below a check of the sum; each part is checked alone
        vortex = case_vortex_2d()
        fields = {f: getattr(vortex, f) for f in ("exact", "body_force", "force_per_nu")}
        right = fields[part]
        fields[part] = lambda xy: (1.0 + 1e-4) * right(xy)
        with pytest.raises(VerificationError, match=f"{named} deviates"):
            FlowCase(name="broken", dirichlet=vortex.dirichlet, **fields)

    def test_viscous_term_folded_into_body_force(self):
        # the body force of one nu is the force at no other: a case holds
        # the force per unit nu apart, or it is refused
        vortex = case_vortex_2d()
        with pytest.raises(VerificationError, match="force per unit nu deviates"):
            FlowCase(name="folded", dirichlet=vortex.dirichlet, exact=vortex.exact,
                     body_force=lambda xy: vortex.body_force(xy) + vortex.force_per_nu(xy))

    def test_missing_body_force_is_zero(self):
        noflow = case_noflow()
        rest = dict(name="rest", dirichlet=noflow.dirichlet)
        FlowCase(**rest, exact=lambda xy: (*noflow.exact(xy)[:2], np.full(xy.shape[:-1], 2.0)))
        with pytest.raises(VerificationError, match="force"):
            FlowCase(**rest, exact=noflow.exact)


class TestNoflowCase:
    def test_body_force_column(self):
        case = case_noflow()
        pts = np.array([[0.3, 0.0], [0.3, 0.4], [0.9, 1.0]])
        f = case.body_force(pts)
        assert np.abs(f[:, 0]).max() == 0.0
        assert f[:, 1] == pytest.approx(1000.0 * (1.0 - pts[:, 1]), abs=1e-12)

    def test_pressure_zero_mean(self):
        case = case_noflow()
        # exact integral of the quadratic pressure over the unit square
        ys, w = np.polynomial.legendre.leggauss(4)
        ys = 0.5 * (ys + 1.0)
        w = 0.5 * w
        pts = np.column_stack([np.full(4, 0.5), ys])
        assert abs(w @ case.exact(pts)[2]) < 1e-12 * 1000.0

    def test_velocity_identically_zero(self):
        case = case_noflow()
        rng = np.random.default_rng(25)
        pts = rng.random((40, 2))
        u, grad, _ = case.exact(pts)
        assert np.abs(u).max() == 0.0 and np.abs(grad).max() == 0.0
        assert case.problem(build_rect_uniform(2, 2), 1.0).nu == 1.0


class TestCavityCase:
    def test_gradient_forcing_values(self):
        case = case_cavity("f2")
        f = case.body_force(np.array([[1.0, 1.0], [0.5, 0.25]]))
        assert f[0] == pytest.approx((1e6, 1e6), rel=1e-14)
        assert f[1] == pytest.approx((1e6 * 0.25, 1e6 * 0.0625), rel=1e-14)

    def test_zero_forcing_variant(self):
        assert case_cavity("f1").body_force is None

    def test_forcing_is_curl_free(self):
        case = case_cavity("f2")
        rng = np.random.default_rng(26)
        pts = 0.05 + 0.9 * rng.random((30, 2))
        J = _fd_jacobian(case.body_force, pts)
        curl = J[:, 1, 0] - J[:, 0, 1]
        assert np.abs(curl).max() < 1e-6  # relative 1e-12 against the 1e6 scale

    def test_lid_overrides_walls(self):
        from egns.assembly import dirichlet_dof_map

        case = case_cavity("f1")
        mesh = build_rect_uniform(4, 4)
        dm = dirichlet_dof_map(mesh, case.dirichlet)
        top = np.flatnonzero(mesh.vertices[:, 1] == 1.0)
        assert np.all(dm.values[top] == 1.0)
        assert np.all(dm.values[mesh.num_vertices + top] == 0.0)

    def test_lid_data_is_compatible(self):
        from egns.assembly import dirichlet_dof_map

        case = case_cavity("f1")
        mesh = build_rect_uniform(8, 8)
        dm = dirichlet_dof_map(mesh, case.dirichlet)
        be = mesh.boundary_edge_indices
        flux = mesh.edge_lengths[be] @ dm.values[2 * mesh.num_vertices + be]
        assert abs(flux) < 1e-12


class TestStepCase:
    def test_parabolic_inlet_profile(self):
        case = case_step()
        inlet = dict(case.dirichlet)[(TAG_INLET,)]
        pts = np.array([[-4.0, 1.0], [-4.0, 1.5], [-4.0, 2.0]])
        vals = inlet(pts)
        assert vals[0] == pytest.approx((0.0, 0.0), abs=1e-14)
        assert vals[1] == pytest.approx((1.5, 0.0), abs=1e-14)
        assert vals[2] == pytest.approx((0.0, 0.0), abs=1e-14)
        # unit mean speed across the inlet
        ys, w = np.polynomial.legendre.leggauss(4)
        ys = 1.5 + 0.5 * ys
        w = 0.5 * w
        mean = w @ inlet(np.column_stack([np.full(4, -4.0), ys]))[:, 0]
        assert mean == pytest.approx(1.0, rel=1e-12)

    def test_constant_inlet_variant(self):
        case = case_step(inlet="constant")
        inlet = dict(case.dirichlet)[(TAG_INLET,)]
        vals = inlet(np.array([[-4.0, 1.3]]))
        assert vals[0] == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_outlet_is_traction_free(self):
        # Re = 1/nu is the CLI's rule: tests/test_cli.py covers it
        assert case_step().neumann_tags == (TAG_OUTLET,)


class TestErrorNorms:
    def test_exact_linear_solution_gives_zero(self):
        mesh = build_rect_uniform(4, 4)

        def u(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([1 + 2 * x - y, -0.5 + 3 * x + 4 * y], axis=-1)

        def exact(xy):
            grad = np.broadcast_to([[2.0, -1.0], [3.0, 4.0]], xy.shape[:-1] + (2, 2))
            return u(xy), grad.copy(), np.zeros(xy.shape[:-1])

        field = interpolate(mesh, u)
        pressure = np.zeros(mesh.num_triangles)
        e2, e1, ep = error_norms(mesh, (field, pressure), exact)
        assert e2 < 1e-13
        assert e1 < 1e-13
        assert ep < 1e-15

    def test_constant_offsets_closed_form(self):
        mesh = build_rect_uniform(3, 3)
        field = _zero_field(mesh)
        vertex_values(mesh, field)[:, 0] = 3.0
        vertex_values(mesh, field)[:, 1] = 4.0
        pressure = np.full(mesh.num_triangles, 2.0)
        zero = lambda xy: (np.zeros_like(xy), np.zeros(xy.shape + (2,)),
                           np.zeros(xy.shape[:-1]))
        e2, e1, ep = error_norms(mesh, (field, pressure), zero)
        assert e2 == pytest.approx(5.0, rel=1e-13)  # sqrt(3^2+4^2) on unit area
        assert e1 < 1e-13
        assert ep == pytest.approx(2.0, rel=1e-13)

    def test_blocked_sums_match_one_shot_oracle(self):
        # one full block of triangles plus a partial last one
        n = int((0.75 * _NORM_BLOCK) ** 0.5)
        mesh = build_rect_uniform(n, n)
        assert _NORM_BLOCK < mesh.num_triangles < 2 * _NORM_BLOCK
        case = case_vortex_2d()
        rng = np.random.default_rng(7)
        field = interpolate(mesh, _velocity(case))
        vertex_values(mesh, field)[:] += 1e-3 * rng.standard_normal((mesh.num_vertices, 2))
        pressure = rng.standard_normal(mesh.num_triangles)

        # the unblocked sums over every triangle at once
        points, w = NORM_RULE
        X = points @ mesh.vertices[mesh.triangles]
        V = vertex_values(mesh, field)[mesh.triangles]
        u, grad, p = case.exact(X)
        du = u - np.einsum("qk,tkd->tqd", points, V)
        g0 = np.einsum("tkd,tke->tde", V, element_ops(mesh)["gradl"])
        dg = grad - g0[:, None]
        dp = p - pressure[:, None]
        oracle = [
            np.sqrt(mesh.areas @ np.einsum(spec, w, d, d))
            for spec, d in (("q,tqd,tqd->t", du), ("q,tqde,tqde->t", dg),
                            ("q,tq,tq->t", dp))
        ]
        got = error_norms(mesh, (field, pressure), case.exact)
        assert got == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_exact_evaluated_once_per_block(self):
        mesh = build_rect_uniform(48, 48)
        assert mesh.num_triangles == 4608  # four full blocks and a partial one
        case = case_vortex_2d()
        calls = []

        def spy(X):
            calls.append(X.shape)
            return case.exact(X)

        field = interpolate(mesh, _velocity(case))
        error_norms(mesh, (field, np.zeros(mesh.num_triangles)), spy)
        assert len(calls) == -(-mesh.num_triangles // _NORM_BLOCK) == 5
        assert [c[0] for c in calls] == [_NORM_BLOCK] * 4 + [512]

    @pytest.mark.parametrize("n, bound", [(8, 2e-8), (16, 1e-9)])
    def test_norm_rule_accurate_where_outputs_read_it(self, monkeypatch, n, bound):
        # against the degree-8 rule on the four sub-triangles, a quarter of
        # the weight each: from n = 8 up the plain rule's error sits below
        # every digit convergence.csv prints (the degree-5 rule's does not)
        points, w = NORM_RULE
        corners = np.array([
            [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
            [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
            [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
            [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
        ])
        refined = np.concatenate(points @ corners), np.tile(w / 4.0, 4)
        case, mesh = case_vortex_2d(), build_rect_uniform(n, n)
        solution, _ = newton_solve(case.problem(mesh, 1.0))
        got = error_norms(mesh, solution, case.exact)
        monkeypatch.setattr(egns.verification, "NORM_RULE", refined)
        want = error_norms(mesh, solution, case.exact)
        assert got == pytest.approx(want, rel=bound, abs=0.0)


def test_readme_quick_start_runs(capsys):
    # the python blocks of the README's "Library quick start", in order
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    scope = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), scope)
    assert capsys.readouterr().out.split() == [
        str(scope["report"].iterations), *map(str, (scope["e_l2"], scope["e_h1"], scope["e_p"]))]
    assert 0 < scope["e_l2"] < scope["e_h1"] < scope["e_p"] < 1.0
    assert scope["reports"][-1].converged and scope["reports"][-1].nu == 1e-5


class TestVelocityNormHelpers:
    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_element_means_match_degree_five_rule(self, shuffled_mesh, seed):
        # the closed form of the means of |u0|^2 against a rule exact for quadratics
        mesh = shuffled_mesh(seed)
        rng = np.random.default_rng(seed)
        field = _vertex_field(mesh, rng.standard_normal((mesh.num_vertices, 2)))
        points, weights = LOAD_RULE
        u0 = points @ vertex_values(mesh, field)[mesh.triangles]
        want = np.einsum("q,tqd,tqd->t", weights, u0, u0)
        assert np.abs(_mean_sq(mesh, field) - want).max() <= 1e-14 * np.abs(want).max()

    def test_norm_of_constant_field(self):
        mesh = build_rect_uniform(3, 3)
        field = _zero_field(mesh)
        vertex_values(mesh, field)[:, 0] = 3.0
        vertex_values(mesh, field)[:, 1] = 4.0
        assert velocity_l2_norm(mesh, field) == pytest.approx(5.0, rel=1e-13)

    def test_difference_is_symmetric_and_zero_on_self(self):
        mesh = build_rect_uniform(3, 3)
        rng = np.random.default_rng(27)
        a = _vertex_field(mesh, rng.standard_normal((mesh.num_vertices, 2)))
        b = _vertex_field(mesh, rng.standard_normal((mesh.num_vertices, 2)))
        assert velocity_l2_difference(mesh, a, a) == 0.0
        assert velocity_l2_difference(mesh, a, b) == pytest.approx(
            velocity_l2_difference(mesh, b, a), rel=1e-14
        )


class TestConvergenceTable:
    def test_reference_order_pairs(self):
        tab = convergence_table(BENCH_H[:2], BENCH_ERR_NU1[:2])
        assert tab.orders[1, 0] == pytest.approx(1.98, abs=0.005)
        assert tab.orders[1, 1] == pytest.approx(0.99, abs=0.005)

    def test_exact_quartering_gives_order_two(self):
        tab = convergence_table([0.5, 0.25], [[4e-2] * 3, [1e-2] * 3])
        assert tab.orders[1, 0] == pytest.approx(2.0, abs=1e-12)

    def test_published_benchmark_columns_reproduce_orders(self):
        for err, ord_ref in [
            (BENCH_ERR_NU1, BENCH_ORD_NU1),
            (BENCH_ERR_NU1E5, BENCH_ORD_NU1E5),
        ]:
            tab = convergence_table(BENCH_H, err)
            assert np.abs(tab.orders[1:] - ord_ref).max() <= 0.011

    def test_zero_error_leaves_blank(self):
        tab = convergence_table(
            [0.5, 0.25], [[1e-2, 1e-2, 1e-2], [0.0, 5e-3, 2.5e-3]]
        )
        assert np.isnan(tab.orders[1, 0])
        assert tab.orders[1, 1] == pytest.approx(1.0)
        csv = tab.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "h,e_l2,order,e_h1,order,e_p,order"
        assert lines[2].split(",")[2] == ""
        assert lines[2].split(",")[4] != ""

    def test_csv_shape(self):
        tab = convergence_table(BENCH_H, BENCH_ERR_NU1)
        lines = tab.to_csv().strip().splitlines()
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(1 / 16)
        assert float(first[1]) == pytest.approx(1.440e-3)
        assert first[2] == ""

    def test_single_level_has_blank_orders(self):
        tab = convergence_table([0.5], [[1e-2] * 3])
        assert np.isnan(tab.orders).all() and tab.orders.shape == (1, 3)
        assert tab.to_csv().splitlines()[1] == "0.5,1.000000e-02,,1.000000e-02,,1.000000e-02,"
        assert convergence_table([], []).to_csv() == "h,e_l2,order,e_h1,order,e_p,order\n"

    def test_repeated_size_leaves_blank(self):
        # coarsening is an order like refining; a repeated size has none
        tab = convergence_table(
            [0.25, 0.5, 0.5], [[1e-2] * 3, [4e-2] * 3, [3e-2] * 3]
        )
        assert tab.orders[1] == pytest.approx([2.0] * 3, abs=1e-12)
        assert np.isnan(tab.orders[[0, 2]]).all()

    def test_rejects_bad_shape_and_negative_errors(self):
        with pytest.raises(ValueError, match="shape"):
            convergence_table([0.5, 0.25], [[1e-2] * 3])
        with pytest.raises(ValueError, match="negative"):
            convergence_table([0.5], [[1e-2, -1e-3, 1e-2]])


class TestKinematicPressure:
    def test_zero_velocity_is_identity(self):
        mesh = build_rect_uniform(3, 3)
        p = np.arange(mesh.num_triangles, dtype=float)
        kin = kinematic_pressure(mesh, _zero_field(mesh), p)
        assert np.array_equal(kin, p)

    def test_unit_speed_shifts_by_half(self):
        mesh = build_rect_uniform(3, 3)
        field = _zero_field(mesh)
        vertex_values(mesh, field)[:, 0] = 1.0
        kin = kinematic_pressure(mesh, field, np.zeros(mesh.num_triangles))
        assert np.abs(kin + 0.5).max() < 1e-14

    def test_constant_shift_linearity(self):
        mesh = build_rect_uniform(3, 3)
        rng = np.random.default_rng(28)
        field = _vertex_field(mesh, rng.standard_normal((mesh.num_vertices, 2)))
        p = rng.standard_normal(mesh.num_triangles)
        k1 = kinematic_pressure(mesh, field, p)
        k2 = kinematic_pressure(mesh, field, p + 7.5)
        assert np.abs(k2 - k1 - 7.5).max() < 1e-12


class TestRecirculation:
    def test_uniform_rightward_flow(self):
        mesh = build_rect_uniform(4, 4)
        field = _zero_field(mesh)
        vertex_values(mesh, field)[:, 0] = 1.0
        hit, mn, reversed_flow = recirculation_detect(
            mesh, field, (0.2, 0.8, 0.2, 0.8)
        )
        assert not hit
        assert not reversed_flow.any()
        assert mn == pytest.approx(1.0)

    def test_detects_reversed_flow(self):
        mesh = build_rect_uniform(4, 4)
        field = _zero_field(mesh)
        vertex_values(mesh, field)[:, 0] = 1.0
        inside = np.flatnonzero(
            (mesh.vertices[:, 0] > 0.4) & (mesh.vertices[:, 1] > 0.4)
        )
        vertex_values(mesh, field)[inside[0], 0] = -0.01
        hit, mn, reversed_flow = recirculation_detect(
            mesh, field, (0.0, 1.0, 0.0, 1.0)
        )
        assert hit
        assert mn == pytest.approx(-0.01)
        assert np.array_equal(np.flatnonzero(reversed_flow), inside[:1])

    def test_below_threshold_not_flagged(self):
        mesh = build_rect_uniform(4, 4)
        field = _zero_field(mesh)
        vertex_values(mesh, field)[:, 0] = -5e-4
        hit, _, reversed_flow = recirculation_detect(
            mesh, field, (0.0, 1.0, 0.0, 1.0)
        )
        assert not hit
        assert not reversed_flow.any()

    def test_empty_region_rejected(self):
        mesh = build_rect_uniform(4, 4)
        with pytest.raises(VerificationError, match="vertices"):
            recirculation_detect(mesh, _zero_field(mesh), (2.0, 3.0, 2.0, 3.0))
