"""Saddle-point solves, Newton iteration, viscosity continuation."""

import dataclasses
import math

import numpy as np
import pytest

import egns.solver
from egns.mesh import TAG_BOTTOM, TAG_LEFT, TAG_RIGHT, TAG_TOP, build_rect_uniform
from egns.quadrature import quadrature_rule
from egns.eg_space import DofMap, EGField, energy_norm
from egns.assembly import SteadyProblem
from egns.solver import (
    NewtonConfig,
    NonConvergenceError,
    SingularSystemError,
    SolverError,
    SolveReport,
    newton_solve,
    nu_continuation,
    solve_saddle,
)

ALL_SIDES = (TAG_BOTTOM, TAG_RIGHT, TAG_TOP, TAG_LEFT)


def _zero_bc(xy):
    return np.zeros_like(xy)


def _homogeneous_problem(n, nu, f=None, convect=True):
    mesh = build_rect_uniform(n, n)
    return SteadyProblem(
        mesh=mesh, nu=nu, body_force=f,
        dirichlet=[(ALL_SIDES, _zero_bc)], convect=convect,
    )


def _cavity_problem(n, nu, f=None, convect=True):
    mesh = build_rect_uniform(n, n)
    lid = lambda xy: np.broadcast_to((1.0, 0.0), xy.shape)
    return SteadyProblem(
        mesh=mesh, nu=nu, body_force=f,
        dirichlet=[((TAG_BOTTOM, TAG_LEFT, TAG_RIGHT), _zero_bc), ((TAG_TOP,), lid)],
        convect=convect,
    )


def _smooth_force(xy):
    x, y = xy[..., 0], xy[..., 1]
    return np.stack([np.sin(np.pi * y), np.cos(np.pi * x)], axis=-1)


def _l2_force_norm(mesh, f):
    rule = quadrature_rule(10)
    X = rule.physical_points(mesh)
    fv = np.asarray(f(X.reshape(-1, 2))).reshape(X.shape)
    return float(
        np.sqrt((mesh.areas * np.einsum("q,tqd->t", rule.weights, fv**2)).sum())
    )


class TestNewtonConfig:
    def test_defaults(self):
        cfg = NewtonConfig()
        assert cfg.rel_tol == 1e-7
        assert cfg.max_iter == 1000

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            NewtonConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)


class TestSolveSaddle:
    def test_rest_state(self):
        prob = _homogeneous_problem(4, 1.0)
        field, pressure = solve_saddle(prob.newton_system(None))
        assert np.abs(field.vertex_values).max() == 0.0
        assert np.abs(field.edge_values).max() == 0.0
        assert np.abs(pressure).max() == 0.0

    def test_pressure_mean_is_zero(self):
        prob = _homogeneous_problem(8, 1.0, f=_smooth_force)
        mesh = prob.mesh
        field, pressure = solve_saddle(prob.newton_system(None))
        pnorm = np.linalg.norm(pressure)
        assert pnorm > 0
        assert abs(mesh.areas @ pressure) <= 1e-12 * pnorm * mesh.areas.sum()

    def test_block_residuals(self):
        prob = _cavity_problem(8, 0.1)
        system = prob.newton_system(None)
        field, pressure = solve_saddle(system)
        dm = system.dof_map
        free = dm.free_indices()
        xf = np.where(dm.constrained, 0.0, dm.pack(field))
        ru = (system.A @ xf - system.B.T @ pressure - system.rhs_u)[free]
        rp = system.B @ xf - system.rhs_p
        scale = max(
            np.linalg.norm(system.rhs_u[free]), np.linalg.norm(system.rhs_p)
        )
        assert np.linalg.norm(ru) < 1e-10 * scale
        if system.mean_constraint is not None:
            # project out the multiplier direction from the mass rows
            a = system.mean_constraint
            rp = rp - ((a @ rp) / (a @ a)) * a
        assert np.linalg.norm(rp) < 1e-10 * scale

    def test_constrained_values_reinserted(self):
        prob = _cavity_problem(4, 1.0)
        system = prob.newton_system(None)
        field, _ = solve_saddle(system)
        dm = system.dof_map
        packed = dm.pack(field)
        con = dm.constrained
        assert np.array_equal(packed[con], dm.values[con])

    def test_singular_system_reported(self):
        import scipy.sparse as sp

        prob = _homogeneous_problem(2, 1.0)
        system = prob.newton_system(None)
        broken = type(system)(
            A=sp.csr_matrix(system.A.shape),  # all-zero operator
            B=system.B,
            rhs_u=system.rhs_u,
            rhs_p=system.rhs_p,
            mean_constraint=system.mean_constraint,
            dof_map=system.dof_map,
        )
        with pytest.raises(SingularSystemError):
            solve_saddle(broken)

    def test_non_finite_data_fails_residual_check(self):
        system = _cavity_problem(4, 1.0).newton_system(None)
        rhs_u = system.rhs_u.copy()
        rhs_u[system.dof_map.free_indices()[0]] = np.nan
        with pytest.raises(SolverError, match="residuals"):
            solve_saddle(dataclasses.replace(system, rhs_u=rhs_u))


class TestNewtonSolve:
    @pytest.mark.parametrize("convect", [False, True])
    def test_non_finite_body_force_named_before_any_solve(self, convect, monkeypatch):
        solves = []
        real = egns.solver.solve_saddle
        monkeypatch.setattr(
            egns.solver, "solve_saddle", lambda system: solves.append(1) or real(system)
        )
        prob = _cavity_problem(4, 1.0, f=lambda xy: np.full(xy.shape, np.nan),
                               convect=convect)
        with pytest.raises(ValueError, match="body force is not finite"):
            newton_solve(prob, NewtonConfig(max_iter=5))
        assert solves == []

    def test_infinite_dirichlet_data_named_before_any_solve(self, monkeypatch):
        solves = []
        real = egns.solver.solve_saddle
        monkeypatch.setattr(
            egns.solver, "solve_saddle", lambda system: solves.append(1) or real(system)
        )
        mesh = build_rect_uniform(4, 4)
        lid = lambda xy: np.broadcast_to((np.inf, 0.0), xy.shape)
        prob = SteadyProblem(
            mesh=mesh, nu=1.0,
            dirichlet=[((TAG_BOTTOM, TAG_LEFT, TAG_RIGHT), _zero_bc), ((TAG_TOP,), lid)],
        )
        with pytest.raises(ValueError, match=r"Dirichlet data on tags \(3,\)"):
            newton_solve(prob, NewtonConfig(max_iter=5))
        assert solves == []

    def test_zero_data_zero_solution_one_iteration(self):
        prob = _homogeneous_problem(4, 1.0)
        (field, pressure), report = newton_solve(prob)
        assert report.iterations == 1
        assert np.abs(field.vertex_values).max() == 0.0
        assert np.abs(pressure).max() == 0.0

    def test_linear_problem_converges_in_one_iteration(self):
        prob = _cavity_problem(8, 1.0, convect=False)
        (field, _), report = newton_solve(prob)
        assert report.iterations == 1
        assert report.final_update < 1e-7
        assert len(report.history) == report.iterations
        assert np.abs(field.vertex_values).max() > 0.1  # lid actually drives flow

    def test_nonlinear_problem_converges_with_history(self):
        prob = _cavity_problem(8, 0.05)
        (field, pressure), report = newton_solve(prob)
        assert report.final_update < 1e-7
        assert report.iterations >= 2
        assert len(report.history) == report.iterations
        assert report.wall_time > 0

    def test_superlinear_update_decay(self):
        prob = _homogeneous_problem(
            8, 0.1, f=lambda xy: 20.0 * _smooth_force(xy)
        )
        _, report = newton_solve(prob)
        assert report.iterations >= 3
        tail = [
            (a, b)
            for a, b in zip(report.history, report.history[1:])
            if 1e-10 < a < 1e-2
        ]
        assert tail, "no history pairs in the superlinear window"
        for a, b in tail:
            assert b < a**1.5

    def test_determinism(self):
        r1 = newton_solve(_cavity_problem(6, 0.1))
        r2 = newton_solve(_cavity_problem(6, 0.1))
        (f1, p1), _ = r1
        (f2, p2), _ = r2
        assert np.array_equal(f1.vertex_values, f2.vertex_values)
        assert np.array_equal(f1.edge_values, f2.edge_values)
        assert np.array_equal(p1, p2)

    def test_nonconvergence_carries_best_iterate(self):
        prob = _cavity_problem(6, 0.05)
        with pytest.raises(NonConvergenceError) as ei:
            newton_solve(prob, NewtonConfig(max_iter=1))
        err = ei.value
        assert err.report.iterations == 1
        assert err.best is not None
        field, pressure = err.best
        assert np.abs(field.vertex_values).max() > 0

    def test_gradient_forcing_leaves_velocity_unchanged(self):
        def grad_field(xy):
            x, y = xy[..., 0], xy[..., 1]
            return 1e6 * np.stack([x**2, y**2], axis=-1)

        (u_a, _), _ = newton_solve(_cavity_problem(8, 1.0))
        (u_b, _), _ = newton_solve(_cavity_problem(8, 1.0, f=grad_field))
        num = np.linalg.norm(u_a.vertex_values - u_b.vertex_values)
        den = np.linalg.norm(u_a.vertex_values)
        assert num / den < 1e-6

    def test_velocity_stability_bound(self):
        prob = _homogeneous_problem(8, 1.0, f=_smooth_force)
        (field, _), _ = newton_solve(prob)
        fnorm = _l2_force_norm(prob.mesh, _smooth_force)
        assert energy_norm(prob.mesh, field) <= 1.01 * fnorm / prob.nu

    def test_report_log_serialization(self):
        _, report = newton_solve(_cavity_problem(6, 0.1))
        log = report.to_log()
        lines = log.strip().splitlines()
        assert len(lines) == report.iterations + 1
        assert "1" in lines[0]

    def test_per_iteration_records_match_history(self):
        _, report = newton_solve(_cavity_problem(6, 0.1))
        assert len(report.residuals) == len(report.steps) == len(report.history)
        assert report.steps == [1.0] * report.iterations
        assert report.accepted and report.nu is None


class TestDamping:
    def test_full_step_raising_residual_is_damped(self):
        # from rest, the full Newton step of this cavity raises the residual
        prob = _cavity_problem(8, 0.005)
        (field, pressure), report = newton_solve(prob)
        assert min(report.steps) < 1.0
        assert set(report.steps) <= {2.0**-k for k in range(7)}
        res = [r for r in report.residuals if not np.isnan(r)]
        assert all(b <= a for a, b in zip(res, res[1:]))
        # the damped iterates end on a solution of the discrete equations
        system = prob.newton_system(field)
        assert egns.solver._nonlinear_residual(system, field, pressure) < 1e-8

    def test_lambda_floor_raises_named_error(self, monkeypatch):
        # with no damping allowed, a step that raises the residual ends the
        # solve at once, carrying the last accepted iterate: here the rest
        monkeypatch.setattr(egns.solver, "_MIN_LAMBDA", 1.0)
        prob = _cavity_problem(8, 0.005)
        with pytest.raises(NonConvergenceError, match="line search") as ei:
            newton_solve(prob)
        err = ei.value
        assert err.report.iterations == 1
        assert err.report.steps == [0.0]
        assert not err.report.converged
        field, pressure = err.best
        dm = prob.dof_map
        assert np.array_equal(dm.pack(field), dm.values)
        assert np.abs(pressure).max() == 0.0


def _fail_first_solve_at(monkeypatch, target):
    """Force a stage failure: the first solve at target gets one Newton
    iteration, which cannot converge.  Returns the (nu, initial) calls."""
    calls = []
    real = egns.solver.newton_solve

    def spy(problem, config=None, initial=None):
        if problem.nu == target and all(nu != target for nu, _ in calls):
            config = NewtonConfig(max_iter=1)
        calls.append((problem.nu, initial))
        return real(problem, config, initial)

    monkeypatch.setattr(egns.solver, "newton_solve", spy)
    return calls


class TestContinuation:
    def test_single_entry_matches_plain_solve(self):
        prob = _cavity_problem(6, 0.1)
        (fa, pa), reports = nu_continuation(prob.with_nu, 0.1)
        (fb, pb), _ = newton_solve(prob)
        assert len(reports) == 1
        assert np.array_equal(fa.vertex_values, fb.vertex_values)
        assert np.array_equal(pa, pb)

    def test_warm_start_descends_schedule(self, monkeypatch):
        starts = []
        real = egns.solver.newton_solve

        def spy(problem, config=None, initial=None):
            starts.append(initial)
            return real(problem, config, initial)

        monkeypatch.setattr(egns.solver, "newton_solve", spy)
        (field, _), reports = nu_continuation(lambda nu: _cavity_problem(6, nu), 5e-4)
        assert [r.nu for r in reports] == [1e-3, 5e-4]
        assert starts[0] is None
        assert starts[1] is not None
        assert np.abs(field.vertex_values).max() > 0.1

    def test_rejects_bad_schedule(self):
        # the controller picks the schedule; only its end, the target
        # viscosity, comes from the caller
        prob = _cavity_problem(4, 0.1)
        for target in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="target viscosity"):
                nu_continuation(prob.with_nu, target)

    def test_stage_failure_is_attributed(self):
        # one iteration never converges, so the starts from rest at 0.1
        # (stage 0) and at 1 (stage 1) both fail; stage 1 is the last try
        with pytest.raises(NonConvergenceError) as ei:
            nu_continuation(
                lambda nu: _cavity_problem(6, nu),
                0.1,
                NewtonConfig(max_iter=1),
            )
        assert ei.value.stage == 1
        assert "stage 1 (nu=1)" in str(ei.value)
        assert ei.value.report.nu == 1.0

    def test_step_floor_is_attributed(self, monkeypatch):
        # with a floor above every step, the first failed trial ends the
        # continuation, named by its stage and viscosity
        monkeypatch.setattr(egns.solver, "_MIN_LOG_STEP", 10.0)
        _fail_first_solve_at(monkeypatch, 1e-4)
        with pytest.raises(NonConvergenceError, match="step in log") as ei:
            nu_continuation(lambda nu: _cavity_problem(4, nu), 1e-4)
        assert ei.value.stage == 1
        assert "stage 1 (nu=0.0001)" in str(ei.value)

    def test_failed_trial_halves_step_and_retries(self, monkeypatch):
        target = 1e-4
        calls = _fail_first_solve_at(monkeypatch, target)
        (field, _), reports = nu_continuation(
            lambda nu: _cavity_problem(4, nu), target
        )
        nus = [nu for nu, _ in calls]
        assert [r.nu for r in reports] == nus
        assert nus[:2] == [1e-3, target]
        assert not reports[1].accepted
        assert nus[2] == pytest.approx(math.sqrt(1e-3 * target), rel=1e-12)
        # the retry starts from the last converged state, stage 0's
        assert calls[2][1] is calls[1][1]
        assert nus[-1] == target and reports[-1].accepted
        assert np.abs(field.vertex_values).max() > 0.1


class TestStepControl:
    """The viscosities the continuation asks its factory for."""

    @staticmethod
    def _seen(target, n=6):
        seen = []

        def factory(nu):
            seen.append(nu)
            return _cavity_problem(n, nu)

        _, reports = nu_continuation(factory, target)
        assert [r.nu for r in reports] == seen
        return seen, reports

    def test_target_at_or_above_start(self):
        for target in (1e-3, 0.05):
            seen, _ = self._seen(target)
            assert seen == [target]

    def test_nus_strictly_decreasing(self):
        seen, _ = self._seen(5e-4)
        assert len(seen) >= 2
        assert all(a > b for a, b in zip(seen, seen[1:]))

    def test_ends_exactly_on_target(self):
        # the direct jump to 2.5e-4 fails on this mesh and is retried
        seen, reports = self._seen(2.5e-4)
        accepted = [r.nu for r in reports if r.accepted]
        assert any(not r.accepted for r in reports)
        assert all(a > b for a, b in zip(accepted, accepted[1:]))
        assert accepted[-1] == 2.5e-4
        assert accepted.count(2.5e-4) == 1
