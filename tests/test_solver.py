"""Saddle-point solves, Newton iteration, viscosity continuation."""

import dataclasses
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import egns.assembly
import egns.nullspace
import egns.solver
from egns.mesh import (
    TAG_BOTTOM,
    TAG_LEFT,
    TAG_RIGHT,
    TAG_TOP,
    _grid,
    build_rect_uniform,
    build_step_domain,
)
from egns.quadrature import NORM_RULE
from egns.eg_space import dof_count, energy_norm, energy_operators, vertex_values
from egns.assembly import (
    _viscous_unit,
    SteadyProblem,
    assemble_convection_newton,
    assemble_divergence,
    assemble_neumann,
)
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
from egns.verification import (
    FlowCase,
    case_cavity,
    case_noflow,
    case_step,
    case_vortex_2d,
    constant_velocity,
    velocity_l2_difference,
    velocity_l2_norm,
)

ALL_SIDES = (TAG_BOTTOM, TAG_RIGHT, TAG_TOP, TAG_LEFT)


def _zero_bc(xy):
    return np.zeros_like(xy)


def _homogeneous_problem(n, nu, f=None):
    mesh = build_rect_uniform(n, n)
    return FlowCase(
        name="homogeneous", body_force=f, dirichlet=[(ALL_SIDES, _zero_bc)],
    ).problem(mesh, nu)


def _cavity_problem(n, nu, f=None, speed=1.0):
    mesh = build_rect_uniform(n, n)
    lid = lambda xy: np.broadcast_to((speed, 0.0), xy.shape)
    return FlowCase(
        name="cavity", body_force=f,
        dirichlet=[((TAG_BOTTOM, TAG_LEFT, TAG_RIGHT), _zero_bc), ((TAG_TOP,), lid)],
    ).problem(mesh, nu)


def _smooth_force(xy):
    x, y = xy[..., 0], xy[..., 1]
    return np.stack([np.sin(np.pi * y), np.cos(np.pi * x)], axis=-1)


def _jacobian(problem, x):
    """The Jacobian A at x (None: rest) assembled as one global matrix,
    the oracle of newton_system's K = Z^T A Z and of its A."""
    mesh = problem.mesh
    A = problem.nu * _viscous_unit(mesh)
    if x is not None:
        l2g, nv = egns.assembly.element_ops(mesh)["l2g"], mesh.num_vertices
        A = A + egns.assembly._sparse(l2g[:, 6:], l2g, assemble_convection_newton(mesh, x),
                                      A.shape)
        if problem.case.neumann_tags:
            # one 1x4 block per edge, on its row and its ends' v0x and v0y
            sel = egns.assembly._outflow_edges(mesh, problem.case.neumann_tags)[0]
            ab = mesh.edges[sel]
            block = assemble_neumann(mesh, problem.case.neumann_tags, x)[:, None, :]
            A = A + egns.assembly._sparse((2 * nv + sel)[:, None],
                                          np.concatenate([ab, nv + ab], axis=1), block, A.shape)
    return A


def _saddle_oracle(problem, system):
    """The direct saddle-point solve the null-space solve replaced.

    system is (A, ru, rp), A assembled.  Factors [[A_ff, -B_f^T],
    [B_f, 0]] over the free velocities with one refinement pass and
    solves it for the correction and the pressure,
    with right-hand side (-ru, -rp).  For pure Dirichlet (a closed null
    space) it pins pressure 0, drops the redundant mass row 0 and shifts
    to zero area-weighted mean.
    """
    A, ru, rp = system
    free = problem.dof_map.free_indices()
    A_ff = A[free][:, free]
    B_f = assemble_divergence(problem.mesh)[:, free]
    rhs_p = -rp
    pinned = problem.null_space.closed
    if pinned:
        B_f, rhs_p = B_f[1:], rhs_p[1:]
    K = sp.bmat([[A_ff, -B_f.T], [B_f, None]], format="csc")
    rhs = np.concatenate([-ru[free], rhs_p])
    lu = spla.splu(K)
    x = lu.solve(rhs)
    x += lu.solve(rhs - K @ x)
    pressure = x[free.size :]
    if pinned:
        a = problem.mesh.areas
        pressure = np.concatenate([[0.0], pressure])
        pressure -= (a @ pressure) / a.sum()
    dx = np.zeros(dof_count(problem.mesh))
    dx[free] = x[: free.size]
    return dx, pressure


def _first_iterate(problem):
    """(x, pressure) after one full Newton step from rest."""
    dx, pressure = solve_saddle(problem, problem.newton_system(None))[:2]
    return problem.dof_map.values + dx, pressure


def _holed_square(n):
    """Unit square minus its central cells, built as build_step_domain
    drops cells: tags 1-4 on the outer sides, 5 on the hole."""
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    center = lambda k: (k + 0.5) / n
    keep = ~((np.abs(center(i) - 0.5) < 0.2) & (np.abs(center(j) - 0.5) < 0.2))

    def tags(mids):
        mx, my = mids.T
        sides = [my == 0.0, mx == 1.0, my == 1.0, mx == 0.0]
        return np.select(sides, [TAG_BOTTOM, TAG_RIGHT, TAG_TOP, TAG_LEFT], 5)

    xs = np.linspace(0.0, 1.0, n + 1)
    return _grid(xs, xs, keep, tags)


def _layout(name, nu):
    """A small problem of each boundary layout the null-space solve meets."""
    square = build_rect_uniform(8, 8)
    if name == "vortex":
        return case_vortex_2d().problem(square, nu)
    if name == "step":
        return case_step().problem(build_step_domain(0.5), nu)
    if name in ("cavity_f1", "cavity_f2"):
        return case_cavity(name[-2:]).problem(square, nu)
    if name == "noflow":
        return case_noflow().problem(square, nu)
    if name == "channel":
        # walls split by an outflow at each end: two wall chains
        def force(xy):  # unit-speed Poiseuille drive plus a swirl
            x = xy[..., 0]
            return 8.0 * nu * np.stack([np.ones_like(x), np.sin(np.pi * x)], axis=-1)

        return FlowCase(
            name="channel", body_force=force, dirichlet=[((TAG_BOTTOM, TAG_TOP), _zero_bc)],
            neumann_tags=(TAG_LEFT, TAG_RIGHT),
        ).problem(build_rect_uniform(12, 4, bounds=(0.0, 0.0, 3.0, 1.0)), nu)
    if name == "corner":
        # outflow on two adjacent sides: corner elements have two free
        # boundary edges
        return FlowCase(
            name="corner", body_force=lambda xy: np.ones_like(xy),
            dirichlet=[((TAG_TOP, TAG_LEFT), _zero_bc)],
            neumann_tags=(TAG_BOTTOM, TAG_RIGHT),
        ).problem(square, nu)
    assert name == "hole"
    lid = lambda xy: np.broadcast_to((1.0, 0.0), xy.shape)
    swirl = lambda xy: np.stack([0.5 - xy[..., 1], xy[..., 0] - 0.5], axis=-1)
    return FlowCase(
        name="hole", body_force=swirl,
        dirichlet=[((TAG_BOTTOM, TAG_RIGHT, TAG_LEFT, 5), _zero_bc), ((TAG_TOP,), lid)],
    ).problem(_holed_square(10), nu)


LAYOUTS = ["vortex", "step", "cavity_f1", "cavity_f2", "noflow", "channel", "hole"]


def _assembled(problem, x):
    """(momentum without pressure, mass, rhs_u, rhs_p) at x from assembled
    matrices, x None being rest: the Dirichlet values, Jacobian nu V.

    With J the assembled Jacobian at x, J x - nu V x is twice the
    convection and outflow values at x.  rhs_u and rhs_p are the data of
    J y = rhs_u, B y = rhs_p with the Dirichlet values v moved right.
    """
    mesh, v, load = problem.mesh, problem.dof_map.values, problem.load_vector
    J, B = _jacobian(problem, x), assemble_divergence(mesh)
    x = v if x is None else x
    viscous = problem.nu * _viscous_unit(mesh) @ x
    values = (J @ x - viscous) / 2
    return viscous + values - load, B @ x, load + values - J @ v, -(B @ v)


def _assembled_residual(problem, x, pressure):
    """The relative residual at (x, pressure) from assembled matrices."""
    momentum, mass, rhs_u, rhs_p = _assembled(problem, x)
    B = assemble_divergence(problem.mesh)
    ru, rp, scale = egns.solver._norms(problem.dof_map.free_indices(),
                                       momentum - B.T @ pressure, mass, rhs_u, rhs_p)
    return max(ru, rp) / scale


def _l2_force_norm(mesh, f):
    points, weights = NORM_RULE
    X = points @ mesh.vertices[mesh.triangles]
    fv = np.asarray(f(X.reshape(-1, 2))).reshape(X.shape)
    return float(
        np.sqrt((mesh.areas * np.einsum("q,tqd->t", weights, fv**2)).sum())
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

    def test_rel_tol_below_machine_epsilon(self):
        # no update test below eps can pass: the solve would end in a
        # failed line search at the roundoff floor, named as something else
        with pytest.raises(ValueError,
                           match="at least machine epsilon 2.22e-16, got 1e-20"):
            NewtonConfig(rel_tol=1e-20)
        eps = np.finfo(float).eps
        assert NewtonConfig(rel_tol=eps).rel_tol == eps


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: NewtonConfig(rel_tol=math.nan), "rel_tol"),
        (lambda: NewtonConfig(rel_tol=math.inf), "rel_tol"),
        (lambda: case_cavity("f1").problem(build_rect_uniform(2, 2), math.nan),
         "viscosity must be positive and finite"),
        (lambda: case_cavity("f1").problem(build_rect_uniform(2, 2), math.inf),
         "viscosity must be positive and finite"),
        (lambda: case_step().problem(build_step_domain(0.5), math.nan),
         "viscosity must be positive and finite"),
        (lambda: _homogeneous_problem(2, 1.0).with_nu(math.nan), "viscosity"),
        (lambda: _homogeneous_problem(2, 1.0).with_nu(math.inf),
         "viscosity must be positive and finite"),
    ],
    ids=["newton-rel_tol-nan", "newton-rel_tol-inf", "flow-case-nu-nan", "flow-case-nu-inf",
         "step-re-nan", "problem-nu-nan", "problem-nu-inf"],
)
def test_positivity_checks_reject_nan_and_inf(make, match):
    # a check written v <= 0 lets NaN through, to fail much later
    with pytest.raises(ValueError, match=match):
        make()


class TestSolveSaddle:
    def test_rest_state(self):
        prob = _homogeneous_problem(4, 1.0)
        dx, pressure, _ = solve_saddle(prob, prob.newton_system(None))
        assert np.abs(dx).max() == 0.0
        assert np.abs(pressure).max() == 0.0

    def test_pressure_mean_is_zero(self):
        prob = _homogeneous_problem(8, 1.0, f=_smooth_force)
        mesh = prob.mesh
        _, pressure, _ = solve_saddle(prob, prob.newton_system(None))
        pnorm = np.linalg.norm(pressure)
        assert pnorm > 0
        assert abs(mesh.areas @ pressure) <= 1e-12 * pnorm * mesh.areas.sum()

    def test_block_residuals(self):
        prob = _cavity_problem(8, 0.1)
        system = prob.newton_system(None)
        dx, pressure, _ = solve_saddle(prob, system)
        A, (_, _, ru, rp) = _jacobian(prob, None), system
        B = assemble_divergence(prob.mesh)
        free = prob.dof_map.free_indices()
        scale = max(np.linalg.norm(ru[free]), np.linalg.norm(rp))
        assert np.linalg.norm((A @ dx + ru - B.T @ pressure)[free]) < 1e-10 * scale
        assert np.linalg.norm(B @ dx + rp) < 1e-10 * scale

    def test_constrained_values_reinserted(self):
        # the correction keeps the Dirichlet values of x: it is zero there
        prob = _cavity_problem(4, 1.0)
        dx, _, _ = solve_saddle(prob, prob.newton_system(None))
        assert np.abs(dx[prob.dof_map.constrained]).max() == 0.0

    def test_singular_system_reported(self):
        prob = _homogeneous_problem(2, 1.0)
        K, A, ru, rp = prob.newton_system(None)
        with pytest.raises(SingularSystemError):
            solve_saddle(prob, (sp.csc_matrix(K.shape), A, ru, rp))

    def test_non_finite_data_fails_residual_check(self, monkeypatch):
        prob = _cavity_problem(4, 1.0)
        K, A, ru, rp = prob.newton_system(None)
        ru = ru.copy()
        ru[prob.dof_map.free_indices()[0]] = np.nan
        factorizations = []
        monkeypatch.setattr(spla, "splu", lambda K, **kw: factorizations.append(1)
                            or _SPLU(K, **kw))
        with pytest.raises(SolverError, match="residuals"):
            solve_saddle(prob, (K, A, ru, rp))
        # no factorization mends NaN data: the pivoting one is not tried
        assert factorizations == [1]

    @staticmethod
    def _converged_correction(name):
        """(x, dx, fallback): solve_saddle at the converged Newton state."""
        prob = _layout(name, 1e-2)
        (x, _), _ = newton_solve(prob, NewtonConfig(rel_tol=1e-12))
        dx, _, lu = solve_saddle(prob, prob.newton_system(x))
        return x, dx, lu.fallback

    @pytest.mark.parametrize("name", ["vortex", "cavity_f1", "cavity_f2", "channel",
                                      "step", "hole", "noflow"])
    def test_converged_state_factors_symmetrically(self, name):
        # ru holds no pressure, so at a solution its scale is the gradient
        # part of the data, not the vanishing Newton residual: the symmetric
        # factorization passes the check, also under f2's 1e6 gradient force,
        # with a wall-chain psi column last and with outflow rows
        assert not self._converged_correction(name)[2]

    @pytest.mark.parametrize("name", [
        "vortex", "cavity_f1", "channel",
        pytest.param("cavity_f2", marks=pytest.mark.xfail(
            strict=True, reason="Newton stops on a residual scaled by the full "
            "load, before the velocity has converged under a large gradient "
            "force (as in test_gradient_forcing_does_not_loosen_velocity_"
            "convergence)")),
    ])
    def test_converged_state_needs_no_correction(self, name):
        x, dx, _ = self._converged_correction(name)
        assert np.linalg.norm(dx) <= 1e-10 * np.linalg.norm(x)


_SPLU = spla.splu  # the real factorizations, whatever a test patches in
_SPILU = spla.spilu


def _raise_runtime(K):
    raise RuntimeError("Factor is exactly singular")


def _route_symmetric_lu(monkeypatch, symmetric, default=_SPLU, single=_raise_runtime):
    """Send solve_saddle's float32 factorization to single(K), its float64
    symmetric-mode one to symmetric(K) and its default one to default(K).

    single raises unless given, so that the float64 rungs stand alone."""

    def splu(K, **kwargs):
        if K.dtype == np.float32:
            assert kwargs == egns.solver._SYMMETRIC_MODE
            return single(K)
        if kwargs.get("options", {}).get("SymmetricMode"):
            return symmetric(K)
        assert not kwargs
        return default(K)

    monkeypatch.setattr(spla, "splu", splu)


def _symmetric_lu(K):
    return _SPLU(K, **egns.solver._SYMMETRIC_MODE)


def _factor_of_doubled(K):
    # each pass at best halves the residual: the solve and one refinement
    # pass leave a quarter of the data, twelve passes 2.4e-4
    return _SPLU(2.0 * K)


def _float64_symmetric_solve(problem, system):
    """(dx, pressure) from the float64 symmetric-mode LU, the solve and one
    refinement pass: the second rung's solve, written out."""
    (K, A, ru, rp), ns = system, problem.null_space
    lu = _symmetric_lu(K)
    dx = ns.particular(-rp)
    for _ in range(2):
        dx -= ns.Z @ lu.solve(ns.Z.T @ (A(dx) + ru))
    return dx, ns.pressure(A(dx) + ru)


class TestFallback:
    """Each rung stands in when the one before fails: float32 and float64
    in symmetric mode, then float64 with partial pivoting."""

    @staticmethod
    def _system():
        prob = _cavity_problem(8, 0.05)
        return prob, prob.newton_system(_first_iterate(prob)[0])

    @pytest.mark.parametrize("symmetric", [_raise_runtime, _factor_of_doubled])
    def test_fallback_matches_default_factorization(self, monkeypatch, symmetric):
        prob, system = self._system()
        with monkeypatch.context() as m:
            _route_symmetric_lu(m, _SPLU)  # the default factorization, first try
            x_ref, p_ref, lu = solve_saddle(prob, system)
        assert not lu.fallback
        _route_symmetric_lu(monkeypatch, symmetric)
        x, pressure, lu = solve_saddle(prob, system)
        assert lu.fallback
        assert np.array_equal(x, x_ref)
        assert np.array_equal(pressure, p_ref)

    @pytest.mark.parametrize(
        "failing, error, match",
        [
            (_raise_runtime, SingularSystemError, "sparse factorization failed"),
            (_factor_of_doubled, SolverError, "saddle solve residuals too large"),
        ],
    )
    def test_both_failing_raise_as_the_default_alone(
        self, monkeypatch, failing, error, match
    ):
        prob, system = self._system()
        _route_symmetric_lu(monkeypatch, failing, failing)
        with pytest.raises(error, match=match) as ei:
            solve_saddle(prob, system)
        if error is SolverError:
            assert not isinstance(ei.value, SingularSystemError)

    @pytest.mark.parametrize("single", [_raise_runtime, _factor_of_doubled])
    def test_float32_failure_gives_the_float64_symmetric_solve(self, monkeypatch, single):
        prob, system = self._system()
        x_ref, p_ref = _float64_symmetric_solve(prob, system)
        _route_symmetric_lu(monkeypatch, _symmetric_lu, single=single)
        x, pressure, lu = solve_saddle(prob, system)
        assert not lu.fallback and not lu.single and lu.passes == 2
        assert np.array_equal(x, x_ref)
        assert np.array_equal(pressure, p_ref)

    def test_float32_factor_shares_the_index_arrays(self, monkeypatch):
        prob, system = self._system()
        factored = []
        monkeypatch.setattr(spla, "splu", lambda K, **kw: factored.append(K) or _SPLU(K, **kw))
        assert solve_saddle(prob, system)[2].single
        (K32,), K = factored, system[0]
        assert K32.dtype == np.float32
        assert np.shares_memory(K32.indices, K.indices)
        assert np.shares_memory(K32.indptr, K.indptr)

    def test_failed_rung_freed_before_the_next_factors(self, monkeypatch):
        # one LU alive at a time: the rejected float32 factor is gone by the
        # time the float64 one is computed
        factors = []

        class Tracked(egns.solver._Factor):
            def __init__(self, *args):
                super().__init__(*args)
                factors.append(weakref.ref(self))

        def symmetric(K):
            assert len(factors) == 1 and factors[0]() is None
            return _symmetric_lu(K)

        prob, system = self._system()
        monkeypatch.setattr(egns.solver, "_Factor", Tracked)
        _route_symmetric_lu(monkeypatch, symmetric, single=_factor_of_doubled)
        lu = solve_saddle(prob, system)[2]
        assert not lu.single and factors[-1]() is lu

    @pytest.mark.parametrize("single", [_raise_runtime, _factor_of_doubled])
    def test_factorizations_count_every_splu_call(self, monkeypatch, single):
        # the float32 rung fails, by raising or by its check, and the float64
        # one factors again: each factored record counts both splu calls
        _route_symmetric_lu(monkeypatch, _symmetric_lu, single=single)
        calls, routed = [], spla.splu
        monkeypatch.setattr(spla, "splu", lambda K, **kw: calls.append(1) or routed(K, **kw))
        _, report = newton_solve(case_vortex_2d().problem(build_rect_uniform(16, 16), 1.0))
        assert {r["factored"] for r in report.records} <= {0, 2}
        assert report.factorizations == len(calls) > 0

    def test_records_fallback_per_iteration(self, monkeypatch):
        prob = case_vortex_2d().problem(build_rect_uniform(16, 16), 1.0)
        _, report = newton_solve(prob)
        assert [r["fallback"] for r in report.records] == [False] * report.iterations
        _route_symmetric_lu(monkeypatch, _raise_runtime)
        _, report = newton_solve(prob)
        assert [r["fallback"] for r in report.records] == [True] * report.iterations


class TestSinglePrecision:
    """The float32 factor refined in float64, against the float64 one."""

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_agrees_with_the_float64_factor(self, name, monkeypatch):
        prob = _layout(name, 1e-2)
        x = _first_iterate(prob)[0]
        system = prob.newton_system(x)

        def solves():
            """The precisions of the factors used, and a saddle correction
            at x, the chord step after it and the converged solution."""
            dx, _, lu = solve_saddle(prob, system)
            ru1 = egns.solver._nonlinear_residual(prob, x + dx)[1]
            chord = lu.refine(ru1)
            (u, p), report = newton_solve(prob)
            return {lu.single} | {r["single"] for r in report.records}, [dx, chord, u, p]

        singles, single = solves()
        _route_symmetric_lu(monkeypatch, _symmetric_lu)
        doubles, double = solves()
        assert singles == {True} and doubles == {False}
        tols = [1e-8, 1e-8, 1e-9, 1e-9]
        if name == "noflow":
            # no flow: the velocities are the rounding of the hydrostatic
            # load, as in test_agrees_with_saddle_oracle
            for v in single[:3] + double[:3]:
                assert np.abs(v).max() <= 1e-14 / prob.nu
            single, double, tols = single[3:], double[3:], tols[3:]
        for a, b, tol in zip(single, double, tols):
            assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b)


class TestChordStep:
    """A chord step, which the next Newton iteration corrects, takes one
    float64 solve or two float32 passes, not a saddle solve's refinement."""

    # (factorizations, iterations) from rest, as with chord steps refined
    # to float64 level
    COUNTS = {"vortex16": (1, 3), "vortex": (1, 6), "step": (4, 8), "cavity_f1": (2, 12),
              "cavity_f2": (2, 3), "noflow": (1, 1), "channel": (3, 13), "hole": (2, 7)}

    @pytest.mark.parametrize("name", ["vortex16"] + LAYOUTS)
    def test_float32_chords_take_two_passes(self, name):
        prob = (case_vortex_2d().problem(build_rect_uniform(16, 16), 1.0)
                if name == "vortex16" else _layout(name, 1e-2))
        _, report = newton_solve(prob)
        assert all(r["single"] for r in report.records)
        assert all(r["passes"] <= 2 for r in report.records if not r["factored"])
        assert (report.factorizations, report.iterations) == self.COUNTS[name]

    @pytest.mark.parametrize("single", [True, False])
    def test_first_pass_applies_no_jacobian(self, monkeypatch, single):
        # the chord starts from zero: its first residual is Z^T ru
        prob = _layout("vortex", 1e-2)
        x = _first_iterate(prob)[0]
        K, A, ru, rp = prob.newton_system(x)
        applied = []

        def spy(y):
            applied.append(bool(np.any(y)))
            return A(y)

        if not single:
            _route_symmetric_lu(monkeypatch, _symmetric_lu)
        dx, _, lu = solve_saddle(prob, (K, spy, ru, rp))
        ru1 = egns.solver._nonlinear_residual(prob, x + dx)[1]
        applied.clear()
        lu.refine(ru1)
        assert lu.single == single
        assert lu.passes == (2 if single else 1)
        assert applied == [True] * (lu.passes - 1)


class TestNullSpaceSolve:
    """The null-space solve against the saddle-point oracle."""

    @pytest.mark.parametrize("nu", [1.0, 1e-3])
    @pytest.mark.parametrize("name", LAYOUTS)
    def test_agrees_with_saddle_oracle(self, name, nu):
        prob = _layout(name, nu)
        # linearized at the first Newton iterate: convection and the
        # outflow form both enter
        x = _first_iterate(prob)[0]
        # at zero velocity the convection and outflow forms vanish, so rest
        # skips them: the Jacobian is the one assembled at the zero vector
        rest = prob.newton_system(None)[0]
        zero = prob.newton_system(np.zeros(dof_count(prob.mesh)))[0]
        assert np.array_equal(rest.toarray(), zero.toarray())
        system = prob.newton_system(x)
        dx, pressure, _ = solve_saddle(prob, system)
        ref_dx, ref_pressure = _saddle_oracle(prob, (_jacobian(prob, x), *system[2:]))
        u, ref_u = x + dx, x + ref_dx
        dp = np.linalg.norm(pressure - ref_pressure)
        assert dp <= 1e-10 * np.linalg.norm(ref_pressure)
        if name == "noflow":
            # the load of the hydrostatic force rounds at eps x Ra, and
            # the velocity that drives scales like 1/nu
            assert np.abs(u).max() <= 1e-14 / nu
            return
        # the 1e6 gradient load of f2 rounds the same way: at nu = 1e-3 the
        # oracle sits 8e-10 from a saddle solve refined in extended
        # precision, the null-space solve 2e-10
        tol = 2e-9 if (name, nu) == ("cavity_f2", 1e-3) else 1e-10
        assert np.linalg.norm(u - ref_u) <= tol * np.linalg.norm(ref_u)

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_basis_is_divergence_free(self, name):
        prob = _layout(name, 1.0)
        mesh, Z = prob.mesh, prob.null_space.Z
        assert spla.norm(assemble_divergence(mesh) @ Z, np.inf) <= 1e-14
        # one psi per free vertex, plus one per wall chain after the first
        nfv = int((~prob.dof_map.constrained[: mesh.num_vertices]).sum())
        euler = mesh.num_vertices - mesh.num_edges + mesh.num_triangles
        assert euler == (0 if name == "hole" else 1)
        assert Z.shape[1] - 3 * nfv == (1 if name in ("hole", "channel") else 0)

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_columns_are_vertex_triples_in_vertex_order(self, name):
        prob = _layout(name, 1.0)
        mesh, Z = prob.mesh, prob.null_space.Z.tocsc()
        nv = mesh.num_vertices
        free = np.flatnonzero(~prob.dof_map.constrained[:nv])
        order = egns.nullspace._vertex_order(mesh)
        rows = np.split(Z.indices, Z.indptr[1:-1])
        # free vertex k of the order: its v0x, its v0y, its psi on its edges
        for k, v in enumerate(order[np.isin(order, free)]):
            assert rows[3 * k].tolist() == [v]
            assert rows[3 * k + 1].tolist() == [nv + v]
            incident = np.flatnonzero((mesh.edges == v).any(axis=1))
            assert sorted(rows[3 * k + 2]) == (2 * nv + incident).tolist()
        # the psi of each further wall chain comes after all triples
        assert all(r.size and r.min() >= 2 * nv for r in rows[3 * free.size :])

    @pytest.mark.parametrize("build", [lambda: build_rect_uniform(16, 16),
                                       lambda: build_step_domain(0.5)],
                             ids=["square", "step"])
    def test_vertex_order_matches_the_complete_factorization(self, build, monkeypatch):
        # the incomplete LU that gives the order orders as the complete one
        complete = []

        def spilu(G, drop_tol, fill_factor, **kwargs):
            complete.append(_SPLU(G, **kwargs).perm_c)
            return _SPILU(G, drop_tol=drop_tol, fill_factor=fill_factor, **kwargs)

        monkeypatch.setattr(spla, "spilu", spilu)
        order = egns.nullspace._vertex_order(build())
        assert np.array_equal(order, np.argsort(complete[0]))

    def test_vertex_order_built_once_per_mesh(self, monkeypatch):
        # every continuation stage and every problem on the one mesh share it
        orders = []
        monkeypatch.setattr(spla, "spilu", lambda *a, **k: orders.append(1)
                            or _SPILU(*a, **k))
        mesh = build_rect_uniform(8, 8)
        _, reports = nu_continuation(case_vortex_2d().problem(mesh, 1e-5))
        assert len(reports) == 2
        assert orders == [1]

    @pytest.mark.parametrize("state", ["rest", "first"])
    def test_fill_follows_the_mesh_not_rounding(self, state):
        # K keeps the vertex adjacency x 3 x 3 pattern, also where the
        # product with the assembled Jacobian cancels exactly; those
        # entries, and any that K holds at exactly zero, put back at 1e-30
        # leave the LU fill in place
        prob = case_vortex_2d().problem(build_rect_uniform(8, 8), 1e-5)
        mesh, Z = prob.mesh, prob.null_space.Z.tocsc()
        x = None if state == "rest" else _first_iterate(prob)[0]
        K = prob.newton_system(x)[0]
        product = (Z.T @ (_jacobian(prob, x) @ Z)).tocsc()
        tri = mesh.triangles
        incidence = sp.csr_matrix((np.ones(tri.size), (np.arange(tri.size) // 3,
                                                        tri.ravel())))
        vertex = np.repeat(Z.indices[Z.indptr[:-1:3]], 3)  # the v0x row of a triple
        pattern = ((incidence.T @ incidence)[vertex][:, vertex] != 0).astype(float)
        structure = sp.csc_matrix((np.ones(K.nnz), K.indices, K.indptr), K.shape)
        assert K.nnz == pattern.nnz and (structure != pattern).nnz == 0
        assert abs(K - product).max() <= 1e-14 * abs(product).max()
        cancelled = pattern - pattern.multiply(product != 0)
        cancelled.eliminate_zeros()
        assert cancelled.nnz > 0

        def fill(M):
            lu = _SPLU(M.tocsc(), **egns.solver._SYMMETRIC_MODE)
            return lu.L.nnz + lu.U.nnz

        tiny = K.copy()
        tiny.data[tiny.data == 0.0] = 1e-30
        for M in (K + 1e-30 * cancelled, tiny):
            assert abs(fill(M) - fill(K)) <= 1e-3 * fill(K)

    @pytest.mark.parametrize("name", ["vortex", "step", "channel", "hole", "corner"])
    def test_tree_sweeps_invert_the_divergence(self, name):
        prob = _layout(name, 1.0)
        ns, B = prob.null_space, assemble_divergence(prob.mesh)
        mesh, te = prob.mesh, prob.mesh.triangle_edges
        free_out = (mesh.boundary_tags[te] != -1) & ~prob.dof_map.constrained[
            2 * mesh.num_vertices + te]
        assert (free_out.sum(axis=1).max() == 2) == (name == "corner")
        rng = np.random.default_rng(0)
        rhs_p = rng.standard_normal(B.shape[0])
        p = rng.standard_normal(B.shape[0])
        if ns.closed:  # defined up to a constant: compatible data, zero mean
            rhs_p -= rhs_p.mean()
            p -= (prob.mesh.areas @ p) / prob.mesh.areas.sum()
        assert np.abs(B @ ns.particular(rhs_p) - rhs_p).max() <= 1e-12
        assert np.abs(ns.pressure(B.T @ p) - p).max() <= 1e-12

    @pytest.mark.parametrize("name", LAYOUTS + ["corner"])
    def test_dual_tree_is_the_least_breadth_first_tree(self, name):
        # the tree fixes the order of the sweeps' sums, so the pressure and
        # the VTK bytes: checked against a plain breadth-first search over
        # the free edges, node nt being the outside
        prob = _layout(name, 1.0)
        ns, mesh = prob.null_space, prob.mesh
        nt, nv = mesh.num_triangles, mesh.num_vertices
        arcs = [[] for _ in range(nt + 1)]
        for e in np.flatnonzero(~prob.dof_map.constrained[2 * nv :]):
            t0, t1 = mesh.edge_to_triangles[e]
            t1 = nt if t1 < 0 else t1
            arcs[t0].append((t1, e))
            arcs[t1].append((t0, e))
        root = 0 if ns.closed else nt
        dist, queue = {root: 0}, [root]
        for t in queue:
            for s, _ in arcs[t]:
                if s not in dist:
                    dist[s] = dist[t] + 1
                    queue.append(s)
        # every element but the root, by (depth, index), depth by depth
        assert [(dist[t], t) for t in ns.element] == sorted(
            (d, t) for t, d in dist.items() if t != root)
        assert len(dist) == nt + (not ns.closed)
        depth = np.searchsorted(ns.depth_start, np.arange(ns.element.size), side="right")
        assert depth.tolist() == [dist[t] for t in ns.element]
        assert ns.depth_start[-1] == ns.element.size
        # each keeps the least (parent, edge) one level up: below the
        # outside, its least free boundary edge
        parent = np.append(ns.element, root)[ns.up]
        for t, p, e in zip(ns.element, parent, ns.edge_dof - 2 * nv):
            assert (p, e) == min((s, f) for s, f in arcs[t] if dist[s] == dist[t] - 1)
        two = [t for t in range(nt) if sum(s == nt for s, _ in arcs[t]) == 2]
        assert bool(two) == (name == "corner")

    @pytest.mark.parametrize("neumann_tags", [(), ALL_SIDES], ids=["bare", "outflow"])
    def test_without_dirichlet_segment_named(self, neumann_tags, monkeypatch):
        # at rest only nu V is left, and it leaves constant velocities
        # free: named before any factorization, not as a failed solve
        factorizations = []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: factorizations.append(a))
        prob = FlowCase(name="unbounded", dirichlet=[],
                        body_force=lambda xy: np.ones_like(xy),
                        neumann_tags=neumann_tags).problem(build_rect_uniform(4, 4), 1.0)
        for build in (lambda: prob.dof_map, lambda: prob.null_space,
                      lambda: newton_solve(prob)):
            with pytest.raises(ValueError, match="no Dirichlet segment"):
                build()
        assert factorizations == []


class TestReducedMatrix:
    """K = Z^T A Z summed from element blocks, against the assembled A."""

    @pytest.mark.parametrize("name", LAYOUTS + ["corner"])
    def test_equals_the_product_with_the_assembled_jacobian(self, name):
        # rest, and a state with the Dirichlet values where convection and
        # the outflow form enter: wall chains (hole, channel), outflow
        # edges (step, channel, corner) and two of them on one element
        # (corner)
        prob = _layout(name, 1e-2)
        dm, Z, n = prob.dof_map, prob.null_space.Z, dof_count(prob.mesh)
        # K's pattern is all that Z^T A Z can reach through A's element
        # blocks, cancelled or not: the element incidence mapped through Z
        l2g = egns.assembly.element_ops(prob.mesh)["l2g"]
        rows = np.repeat(np.arange(l2g.shape[0]), l2g.shape[1])
        incidence = sp.csr_matrix((np.ones(l2g.size), (rows, l2g.ravel())),
                                  (l2g.shape[0], n))
        reach = incidence @ abs(Z)
        pattern = ((reach.T @ reach) != 0).astype(float)
        rng = np.random.default_rng(3)
        state = np.where(dm.constrained, dm.values, rng.standard_normal(n))
        for x in (None, state):
            K, A, _, _ = prob.newton_system(x)
            structure = sp.csc_matrix((np.ones(K.nnz), K.indices, K.indptr), K.shape)
            assert K.nnz == pattern.nnz and (structure != pattern).nnz == 0
            J = _jacobian(prob, x)
            product = Z.T @ (J @ Z)
            assert abs(K - product).max() <= 1e-14 * abs(product).max()
            y = rng.standard_normal(n)
            assert np.abs(A(y) - J @ y).max() <= 1e-14 * np.abs(J @ y).max()

    def test_warm_newton_solve_assembles_no_global_matrix(self, monkeypatch):
        prob = _layout("step", 1e-2)
        newton_solve(prob)  # the per-mesh caches: V, B, the null space

        def refuse(*args, **kwargs):
            raise AssertionError("a global assembly or a sparse-sparse product")

        monkeypatch.setattr(egns.assembly, "_sparse", refuse)
        monkeypatch.setattr(sp._compressed._cs_matrix, "_matmul_sparse", refuse)
        _, report = newton_solve(prob.with_nu(2e-2))
        assert report.factorizations >= 2

    def test_nnz_and_fill_ignore_the_viscous_summation_order(self, monkeypatch):
        # the element blocks summed by einsum round differently; nnz(K) and
        # the LU fill stay the same
        def factored():
            prob = case_vortex_2d().problem(build_rect_uniform(16, 16), 1e-3)
            K = prob.newton_system(None)[0]
            lu = _SPLU(K, **egns.solver._SYMMETRIC_MODE)
            return K.nnz, lu.L.nnz + lu.U.nnz, egns.assembly._viscous_unit(prob.mesh)

        def einsum_unit(mesh):
            l2g = egns.assembly.element_ops(mesh)["l2g"]
            D, QB, stab_w = energy_operators(mesh)
            blocks = (np.einsum("t,tki,tkj->tij", mesh.areas, D, D)
                      + np.einsum("tk,tki,tkj->tij", stab_w, QB, QB))
            n = 2 * mesh.num_vertices + mesh.num_edges
            return egns.assembly._sparse(l2g, l2g, blocks, (n, n))

        nnz, fill, V = factored()
        monkeypatch.setattr(egns.assembly, "_viscous_unit", einsum_unit)
        einsum_nnz, einsum_fill, einsum = factored()
        assert 0 < abs(einsum - V).max() <= 1e-14 * abs(V).max()
        assert (einsum_nnz, einsum_fill) == (nnz, fill)

    def test_null_space_built_once_per_mesh_and_constraint_set(self, monkeypatch):
        # every continuation stage shares the problem's, and the cavity's
        # f1 and f2 constrain the same dofs as the vortex
        built = []
        real = egns.assembly.null_space
        monkeypatch.setattr(egns.assembly, "null_space",
                            lambda *a: built.append(1) or real(*a))
        mesh = build_rect_uniform(8, 8)
        _, reports = nu_continuation(case_vortex_2d().problem(mesh, 1e-5))
        assert len(reports) == 2
        f1, f2 = (case_cavity(f).problem(mesh, 1.0) for f in ("f1", "f2"))
        assert f1.null_space is f2.null_space
        assert built == [1]
        channel = FlowCase(name="channel", dirichlet=[((TAG_BOTTOM, TAG_TOP), _zero_bc)],
                           neumann_tags=(TAG_LEFT, TAG_RIGHT)).problem(mesh, 1.0)
        assert channel.null_space is not f1.null_space
        assert built == [1, 1]


class TestMatrixFreeResidual:
    """problem.residual against residuals from the assembled Jacobian."""

    # convection and outflow values per evaluated state: at x, and at x - v
    # unless the Dirichlet values v are all zero
    @pytest.mark.parametrize("name, per_state", [("vortex", 1), ("cavity_f1", 2), ("step", 2)])
    def test_newton_evaluates_each_state_once(self, name, per_state, monkeypatch):
        counts = {"values": 0, "states": 0}
        values, residual = SteadyProblem._values, SteadyProblem.residual

        def spy_values(self, y):
            counts["values"] += 1
            return values(self, y)

        def spy_residual(self, x, pressure=None):
            counts["states"] += x is not None
            return residual(self, x, pressure)

        monkeypatch.setattr(SteadyProblem, "_values", spy_values)
        monkeypatch.setattr(SteadyProblem, "residual", spy_residual)
        _, report = newton_solve(_layout(name, 1e-2))
        assert report.factorizations >= 1 and counts["states"] >= 2
        # newton_system takes the loop's residuals; the one more is the
        # cached values at v
        assert counts["values"] == per_state * counts["states"] + 1

    @pytest.mark.parametrize("name", ["vortex", "cavity_f1", "step", "hole"])
    def test_matches_assembled_system(self, name):
        prob = _layout(name, 1e-2)
        dm, nt = prob.dof_map, prob.mesh.num_triangles
        free, B = dm.free_indices(), assemble_divergence(prob.mesh)
        rng = np.random.default_rng(0)
        x1, p1 = _first_iterate(prob)
        noisy = np.where(dm.constrained, dm.values, x1 + rng.standard_normal(dof_count(prob.mesh)))
        # rest, the first Newton iterate, and a state off both equations
        for x, p in [(None, np.zeros(nt)), (x1, p1), (noisy, rng.standard_normal(nt))]:
            momentum, mass, rhs_u, rhs_p = _assembled(prob, x)
            ru, rp, scale = egns.solver._norms(
                free, momentum - B.T @ p, mass, rhs_u, rhs_p)
            pressure, *vectors, at_x = prob.residual(x, p)
            got_ru, got_rp, got_scale = egns.solver._norms(free, *vectors)
            # the residuals newton_system takes from residual are its own
            for got, own in zip(prob.newton_system(x, at_x)[2:], prob.newton_system(x)[2:]):
                assert np.array_equal(got, own)
            assert pressure is p
            assert got_scale == pytest.approx(scale, rel=1e-12, abs=0)
            assert got_ru == pytest.approx(ru, rel=1e-12, abs=0)
            assert abs(got_rp - rp) <= 1e-12 * max(rp, scale)
            assert egns.solver._nonlinear_residual(prob, x, p)[2] == pytest.approx(
                max(ru, rp) / scale, rel=1e-12, abs=0)
            # without a pressure, the one fitted to the momentum residual
            fitted = prob.null_space.pressure(momentum)
            got = prob.residual(x)[0]
            assert np.linalg.norm(got - fitted) <= 1e-12 * np.linalg.norm(fitted)


class TestNewtonSolve:
    @pytest.mark.parametrize("warm_start", [False, True])
    def test_non_finite_body_force_named_before_any_solve(self, warm_start, monkeypatch):
        solves = []
        real = egns.solver.solve_saddle
        monkeypatch.setattr(
            egns.solver, "solve_saddle", lambda *a: solves.append(1) or real(*a)
        )
        initial = None
        if warm_start:
            # the lid state of a clean problem on the same mesh
            clean = _cavity_problem(4, 1.0)
            dm = clean.dof_map
            initial = (dm.values, np.zeros(clean.mesh.num_triangles))
        prob = _cavity_problem(4, 1.0, f=lambda xy: np.full(xy.shape, np.nan))
        with pytest.raises(ValueError, match="body force is not finite"):
            newton_solve(prob, NewtonConfig(max_iter=5), initial=initial)
        assert solves == []

    def test_infinite_dirichlet_data_named_before_any_solve(self, monkeypatch):
        solves = []
        real = egns.solver.solve_saddle
        monkeypatch.setattr(
            egns.solver, "solve_saddle", lambda *a: solves.append(1) or real(*a)
        )
        mesh = build_rect_uniform(4, 4)
        lid = lambda xy: np.broadcast_to((np.inf, 0.0), xy.shape)
        prob = FlowCase(
            name="infinite-lid",
            dirichlet=[((TAG_BOTTOM, TAG_LEFT, TAG_RIGHT), _zero_bc), ((TAG_TOP,), lid)],
        ).problem(mesh, 1.0)
        with pytest.raises(ValueError, match=r"Dirichlet data on tags \(3,\)"):
            newton_solve(prob, NewtonConfig(max_iter=5))
        assert solves == []

    def test_warm_start_takes_the_problems_dirichlet_values(self):
        # a lid-speed continuation: the start holds the slower lid
        slow = _cavity_problem(8, 0.1)
        fast = _cavity_problem(8, 0.1, speed=2.0)
        start, _ = newton_solve(slow)
        (x, _), _ = newton_solve(fast, initial=start)
        dm = fast.dof_map
        assert np.array_equal(x[dm.constrained], dm.values[dm.constrained])
        (ref, _), _ = newton_solve(fast)
        assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)

    def test_zero_data_zero_solution_one_iteration(self):
        prob = _homogeneous_problem(4, 1.0)
        (field, pressure), report = newton_solve(prob)
        assert report.iterations == 1
        assert np.abs(vertex_values(prob.mesh, field)).max() == 0.0
        assert np.abs(pressure).max() == 0.0

    def test_linear_problem_converges_in_one_iteration(self):
        # uniform flow has no curl, so convection adds no value term
        prob = FlowCase(
            name="uniform", dirichlet=[(ALL_SIDES, constant_velocity(1.0, 0.0))],
        ).problem(build_rect_uniform(8, 8), 1.0)
        (field, _), report = newton_solve(prob)
        assert report.iterations == 1
        # the residual test ends it: the first update is the whole flow
        assert report.records[-1]["residual"] < 1e-7
        assert np.abs(vertex_values(prob.mesh, field)).max() == pytest.approx(1.0, abs=1e-12)

    def test_nonlinear_problem_converges_with_history(self):
        prob = _cavity_problem(8, 0.05)
        (field, pressure), report = newton_solve(prob)
        assert report.records[-1]["update"] < 1e-7
        assert report.iterations >= 2
        keys = {"update", "residual", "step", "single", "passes", "fallback", "factored",
                "theta"}
        assert all(set(r) == keys for r in report.records)
        # the first iteration factors; later ones reuse its LU while theta,
        # computed after each full step, stays at or below 1/4
        assert report.records[0]["factored"]
        for r, nxt in zip(report.records, report.records[1:]):
            assert nxt["factored"] == (not r["theta"] <= 0.25)
        assert 1 <= report.factorizations < report.iterations
        assert report.wall_time > 0

    def test_superlinear_update_decay(self):
        # a Newton step leaves a residual quadratic in its update, so the
        # next update, chord or Newton, is superlinearly smaller.  Only
        # factored records start a pair: a chord step contracts linearly
        prob = _homogeneous_problem(
            8, 0.05, f=lambda xy: 100.0 * _smooth_force(xy)
        )
        _, report = newton_solve(prob)
        assert report.iterations >= 3
        records = report.records
        tail = [
            (a["update"], b["update"])
            for a, b in zip(records, records[1:])
            if a["factored"] and 1e-10 < a["update"] < 1e-2
        ]
        assert tail, "no history pairs in the superlinear window"
        for a, b in tail:
            assert b < a**1.5

    def test_chord_end_state_solves_the_assembled_equations(self):
        prob = case_vortex_2d().problem(build_rect_uniform(16, 16), 1.0)
        config = NewtonConfig()
        (field, pressure), report = newton_solve(prob, config)
        assert not report.records[-1]["factored"]
        assert _assembled_residual(prob, field, pressure) < 1e-2 * config.rel_tol

    def test_no_lu_alive_during_assembly(self, monkeypatch):
        lus, assembled = [], []

        class TrackedLU:
            def __init__(self, lu):
                self.solve = lu.solve

        def splu(K, **kwargs):
            lus.append(TrackedLU(_SPLU(K, **kwargs)))
            tracked, lus[-1] = lus[-1], weakref.ref(lus[-1])
            return tracked

        prob = _cavity_problem(8, 0.005)
        real = prob.newton_system

        def newton_system(x, *at_x):
            assert all(ref() is None for ref in lus)
            assembled.append(1)
            return real(x, *at_x)

        monkeypatch.setattr(spla, "splu", splu)
        monkeypatch.setattr(prob, "newton_system", newton_system)
        _, report = newton_solve(prob)
        assert len(assembled) == len(lus) == report.factorizations >= 2

    def test_determinism(self):
        r1 = newton_solve(_cavity_problem(6, 0.1))
        r2 = newton_solve(_cavity_problem(6, 0.1))
        (f1, p1), _ = r1
        (f2, p2), _ = r2
        assert np.array_equal(f1, f2)
        assert np.array_equal(p1, p2)

    def test_nonconvergence_carries_best_iterate(self):
        prob = _cavity_problem(6, 0.05)
        with pytest.raises(NonConvergenceError) as ei:
            newton_solve(prob, NewtonConfig(max_iter=1))
        err = ei.value
        assert err.report.iterations == 1
        assert err.report.nu == prob.nu and not err.report.converged
        assert err.best is not None
        field, pressure = err.best
        assert np.abs(vertex_values(prob.mesh, field)).max() > 0

    def test_returned_velocities_own_their_memory(self, monkeypatch):
        # from rest the iterate is the problem's read-only dof map values;
        # no result, a failed solve's best iterate included, hands them out
        prob = _cavity_problem(8, 0.005)
        dm = prob.dof_map
        rest = (dm.values, np.zeros(prob.mesh.num_triangles))
        velocities = [newton_solve(prob)[0][0], newton_solve(prob, initial=rest)[0][0],
                      nu_continuation(prob)[0][0]]
        with pytest.raises(NonConvergenceError) as ei:
            newton_solve(prob, NewtonConfig(max_iter=1))
        velocities.append(ei.value.best[0])
        monkeypatch.setattr(egns.solver, "_MIN_LAMBDA", 1.0)
        with pytest.raises(NonConvergenceError, match="iteration 1") as ei:
            newton_solve(prob)
        velocities.append(ei.value.best[0])
        for x in velocities:
            assert x.flags.writeable
            assert not np.shares_memory(x, dm.values)

    def test_gradient_forcing_leaves_velocity_unchanged(self):
        def grad_field(xy):
            x, y = xy[..., 0], xy[..., 1]
            return 1e6 * np.stack([x**2, y**2], axis=-1)

        prob = _cavity_problem(8, 1.0)
        (u_a, _), _ = newton_solve(prob)
        (u_b, _), _ = newton_solve(_cavity_problem(8, 1.0, f=grad_field))
        num = np.linalg.norm(vertex_values(prob.mesh, u_a - u_b))
        den = np.linalg.norm(vertex_values(prob.mesh, u_a))
        assert num / den < 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="Newton stops on the update of the stacked velocity/pressure "
        "vector and on the residual scaled by the full load; a large "
        "gradient force moves only the pressure, so both tests pass before "
        "the velocity has converged (1.4e-4 here)",
    )
    def test_gradient_forcing_does_not_loosen_velocity_convergence(self):
        mesh = build_rect_uniform(8, 8)
        (u_a, _), _ = newton_solve(case_cavity("f1").problem(mesh, 1e-2))
        (u_b, _), _ = newton_solve(case_cavity("f2").problem(mesh, 1e-2))
        rel = velocity_l2_difference(mesh, u_a, u_b) / velocity_l2_norm(mesh, u_a)
        assert rel <= 1e-8

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
        assert all(" fallback False factored " in line for line in lines[:-1])
        assert lines[0].endswith(f"factored 1 theta {report.records[0]['theta']:.3e}")
        assert lines[-2].endswith("theta nan")
        assert f" iterations={report.iterations} factorizations={report.factorizations} " \
            in lines[-1]
        assert 1 <= report.factorizations < report.iterations

    def test_per_iteration_records_match_history(self):
        prob = _cavity_problem(6, 0.1)
        _, report = newton_solve(prob)
        fields = [f.name for f in dataclasses.fields(SolveReport)]
        assert fields == ["records", "wall_time", "converged", "nu"]
        assert len(report.records) == report.iterations
        assert [r["step"] for r in report.records] == [1.0] * report.iterations
        assert report.converged and report.nu == prob.nu


class TestDamping:
    def test_full_step_raising_residual_is_damped(self):
        # from rest, the full Newton step of this cavity raises the residual
        prob = _cavity_problem(8, 0.005)
        (field, pressure), report = newton_solve(prob)
        steps = [r["step"] for r in report.records]
        assert min(steps) < 1.0
        assert set(steps) <= {2.0**-k for k in range(7)}
        res = [r["residual"] for r in report.records if not np.isnan(r["residual"])]
        assert all(b <= a for a, b in zip(res, res[1:]))
        # the damped iterates end on a solution of the discrete equations
        assert _assembled_residual(prob, field, pressure) < 1e-8

    def test_lambda_floor_raises_named_error(self, monkeypatch):
        # with no damping allowed, a step that raises the residual ends the
        # solve at once, carrying the last accepted iterate: here the rest
        monkeypatch.setattr(egns.solver, "_MIN_LAMBDA", 1.0)
        prob = _cavity_problem(8, 0.005)
        with pytest.raises(NonConvergenceError, match="line search") as ei:
            newton_solve(prob)
        err = ei.value
        assert err.report.iterations == 1
        assert [r["step"] for r in err.report.records] == [0.0]
        assert not err.report.converged
        field, pressure = err.best
        dm = prob.dof_map
        assert np.array_equal(field, dm.values)
        assert np.abs(pressure).max() == 0.0


class TestContinuation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _cavity_problem(6, 0.1),
            # 12 Newton iterations from rest: a stage runs up to max_iter
            lambda: case_step().problem(build_step_domain(0.25), egns.solver._NU_START),
        ],
        ids=["cavity", "step"],
    )
    def test_single_entry_matches_plain_solve(self, make):
        # a target at or above the start is one trial: newton_solve itself
        prob = make()
        (fa, pa), reports = nu_continuation(prob)
        (fb, pb), report = newton_solve(prob)
        assert len(reports) == 1 and reports[0].converged
        assert reports[0].iterations == report.iterations
        assert np.array_equal(fa, fb)
        assert np.array_equal(pa, pb)

    def test_warm_start_descends_schedule(self, monkeypatch):
        starts = []
        real = egns.solver.newton_solve

        def spy(problem, config=None, initial=None):
            starts.append((problem.nu, initial))
            return real(problem, config, initial)

        monkeypatch.setattr(egns.solver, "newton_solve", spy)
        # a target the first warm trial reaches
        start = egns.solver._NU_START
        (field, _), reports = nu_continuation(_cavity_problem(6, start / 10))
        assert [r.nu for r in reports] == [nu for nu, _ in starts] == [start, start / 10]
        assert starts[0][1] is None
        assert starts[1][1] is not None
        assert np.abs(vertex_values(build_rect_uniform(6, 6), field)).max() > 0.1

    def test_rejects_bad_schedule(self):
        # the controller picks the schedule; only its end, the problem's
        # viscosity, comes from the caller, and no problem holds a bad one
        prob = _cavity_problem(4, 0.1)
        for target in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="viscosity must be positive and finite"):
                nu_continuation(prob.with_nu(target))

    def test_stage_failure_is_attributed(self):
        # one iteration never converges, so the starts from rest at 0.1
        # (stage 0) and at 1 (stage 1) both fail; stage 1 is the last try
        with pytest.raises(NonConvergenceError) as ei:
            nu_continuation(_cavity_problem(6, 0.1), NewtonConfig(max_iter=1))
        assert ei.value.stage == 1
        assert "stage 1 (nu=1)" in str(ei.value)
        assert ei.value.report.nu == 1.0

    @pytest.mark.parametrize("target, tried", [(2.0, "2"), (1e-3, "0.01, 0.1, 1")],
                             ids=["one-start", "every-start"])
    def test_failed_start_names_the_viscosities_tried(self, fail_first_solve_at,
                                                      target, tried):
        # every start from rest fails once: at the target alone when it is
        # above 1, else at 1e-2 and tenfold up to 1; the message names them
        starts = [max(target, egns.solver._NU_START)]
        while starts[-1] * 10.0 <= 1.0:
            starts.append(starts[-1] * 10.0)
        for start in starts:
            fail_first_solve_at(start)
        with pytest.raises(NonConvergenceError) as ei:
            nu_continuation(_cavity_problem(4, target))
        assert f"no start from rest converged (tried nu = {tried}): " in str(ei.value)
        assert ei.value.stage == len(starts) - 1

    def test_step_floor_is_attributed(self, monkeypatch, fail_first_solve_at):
        # with a floor above every step, the first failed trial ends the
        # continuation, named by its stage and viscosity
        monkeypatch.setattr(egns.solver, "_MIN_LOG_STEP", 10.0)
        fail_first_solve_at(1e-4)
        with pytest.raises(NonConvergenceError, match="step in log") as ei:
            nu_continuation(_cavity_problem(4, 1e-4))
        assert ei.value.stage == 1
        assert "stage 1 (nu=0.0001)" in str(ei.value)

    def test_failed_trial_halves_step_and_retries(self, fail_first_solve_at):
        target = 1e-4
        calls = fail_first_solve_at(target)
        (field, _), reports = nu_continuation(_cavity_problem(4, target))
        nus, start = [nu for nu, _ in calls], egns.solver._NU_START
        assert [r.nu for r in reports] == nus
        assert nus[:2] == [start, target]
        assert not reports[1].converged
        assert nus[2] == pytest.approx(math.sqrt(start * target), rel=1e-12)
        # the retry starts from the last converged state, stage 0's
        assert calls[2][1] is calls[1][1]
        assert nus[-1] == target and reports[-1].converged
        assert np.abs(vertex_values(build_rect_uniform(4, 4), field)).max() > 0.1


class TestStepControl:
    """The viscosities the continuation solves at."""

    @staticmethod
    def _seen(monkeypatch, target, n=6):
        seen, real = [], egns.solver.newton_solve

        def spy(problem, config=None, initial=None):
            seen.append(problem.nu)
            return real(problem, config, initial)

        monkeypatch.setattr(egns.solver, "newton_solve", spy)
        _, reports = nu_continuation(_cavity_problem(n, target))
        assert [r.nu for r in reports] == seen
        return seen, reports

    def test_target_at_or_above_start(self, monkeypatch):
        for target in (egns.solver._NU_START, 0.05):
            seen, _ = self._seen(monkeypatch, target)
            assert seen == [target]

    def test_nus_strictly_decreasing(self, monkeypatch):
        # a target the direct jump from the start reaches; the retried
        # path is test_ends_exactly_on_target's
        seen, _ = self._seen(monkeypatch, egns.solver._NU_START / 10)
        assert len(seen) >= 2
        assert all(a > b for a, b in zip(seen, seen[1:]))

    def test_vortex_reaches_target_in_one_stage(self, monkeypatch):
        # from rest at 1e-2 one Stokes LU serves the whole first stage;
        # from 1e-3 the first chord step fails and factors again
        factored = []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: factored.append(1) or _SPLU(*a, **k))
        mesh = build_rect_uniform(32, 32)
        _, reports = nu_continuation(case_vortex_2d().problem(mesh, 1e-5))
        assert [r.nu for r in reports] == [1e-2, 1e-5]
        assert all(r.converged for r in reports)
        assert len(factored) == sum(r.factorizations for r in reports) == 2

    def test_readme_states_the_continuation_constants(self, fail_first_solve_at):
        def sci(v):  # 0.01 as the README writes it, 1e-2
            mantissa, exponent = f"{v:.0e}".split("e")
            return f"{mantissa}e{int(exponent)}"

        text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        start, floor = egns.solver._NU_START, egns.solver._MIN_LOG_STEP
        assert f"It first solves from rest at `max(nu, {sci(start)})`." in text
        assert f"A target at or above {sci(start)} that converges from rest" in text
        assert f"On the n = 64 vortex this goes from {sci(start)} to 1e-5 in one stage" in text
        assert f"Below {sci(floor)} in log(nu) the continuation raises" in text
        # the retreat upward: a failed start from rest is tried at ten times nu
        assert "solving from rest at ten times the viscosity" in text
        calls = fail_first_solve_at(start)
        nu_continuation(_cavity_problem(4, start))
        assert [(nu, initial) for nu, initial in calls[:2]] == [(start, None), (10 * start, None)]

    def test_ends_exactly_on_target(self, monkeypatch):
        # the direct jump to 2.5e-4 fails on this mesh and is retried
        seen, reports = self._seen(monkeypatch, 2.5e-4)
        accepted = [r.nu for r in reports if r.converged]
        assert any(not r.converged for r in reports)
        assert all(a > b for a, b in zip(accepted, accepted[1:]))
        assert accepted[-1] == 2.5e-4
        assert accepted.count(2.5e-4) == 1


# the hard flows' cost from rest, pinned exactly: splu calls, Newton
# iterations, trial stages and rejected ones.  A change that moves a row
# repins it and lists old -> new in CHANGES.md.  Beside the counts, the
# answer: ||u_h|| and the area-weighted L2 norm of p minus its mean, pinned
# to a relative 1e-7 from a rel_tol = 1e-12 solve (the default solve is
# within 7e-10 of them)
LEDGER = {
    "step h=0.25 Re=400": ((lambda: build_step_domain(0.25), case_step(), 1 / 400),
                           (69, 97, 8, 3), (4.321107424, 1.450462258)),
    "step h=0.125 Re=400": ((lambda: build_step_domain(0.125), case_step(), 1 / 400),
                            (28, 37, 2, 0), (4.834505218, 2.006131596)),
    "cavity f1 8x8 Re=4000": ((lambda: build_rect_uniform(8, 8), case_cavity("f1"), 1 / 4000),
                              (27, 53, 6, 2), (0.1999259302, 0.01266067248)),
    "cavity f1 32x32 Re=400": ((lambda: build_rect_uniform(32, 32), case_cavity("f1"), 1 / 400),
                               (6, 13, 2, 0), (0.2719856711, 0.07551673711)),
    "cavity f1 64x64 Re=4000": ((lambda: build_rect_uniform(64, 64), case_cavity("f1"),
                                 1 / 4000), (35, 50, 6, 2), (0.2372788936, 0.04665472875)),
}


@pytest.mark.slow
def test_hard_flow_ledger(monkeypatch):
    factored = []
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factored.append(1) or _SPLU(*a, **k))
    rows, answers = {}, {}
    for name, ((build, case, nu), _, _) in LEDGER.items():
        factored.clear()
        mesh = build()
        (u, p), reports = nu_continuation(case.problem(mesh, nu))
        rows[name] = (len(factored), sum(r.iterations for r in reports), len(reports),
                      sum(not r.converged for r in reports))
        dp = p - (mesh.areas @ p) / mesh.areas.sum()
        answers[name] = (velocity_l2_norm(mesh, u), float(np.sqrt(mesh.areas @ dp**2)))
    print("\n| flow | `splu` | Newton its | trials | rejected |\n|---|---|---|---|---|")
    for name, row in rows.items():
        print(f"| {name} | " + " | ".join(map(str, row)) + " |")
    assert rows == {name: counts for name, (_, counts, _) in LEDGER.items()}
    assert answers == {name: pytest.approx(pins, rel=1e-7)
                       for name, (_, _, pins) in LEDGER.items()}
