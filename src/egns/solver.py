"""Direct saddle-point solves, Newton iteration, viscosity continuation.

One linear solve factors the full saddle matrix with sparse LU; problem
sizes stay in direct-solver territory.  For pure-Dirichlet problems the
pressure is only determined up to a constant: the factorization pins one
pressure unknown and drops the matching redundant mass row, then shifts
the result back to zero area-weighted mean.  Pinning instead of a
Lagrange multiplier matters for cost: the multiplier column is dense in
the pressure block and inflates LU fill by roughly an order of magnitude.

Convergence is declared when the relative update of the stacked free
velocity/pressure vector drops below the tolerance, or when the assembled
nonlinear residual at the new iterate is already at solver precision.  The
second test is what lets linear problems finish in one iteration.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

logger = logging.getLogger(__name__)

__all__ = [
    "SolverError",
    "SingularSystemError",
    "NonConvergenceError",
    "NewtonConfig",
    "SolveReport",
    "solve_saddle",
    "newton_solve",
    "default_schedule",
    "nu_continuation",
]

_TINY = 1e-300


class SolverError(Exception):
    pass


class SingularSystemError(SolverError):
    """Factorization hit an exactly singular pivot."""


class NonConvergenceError(SolverError):
    """Newton ran out of iterations; carries the best iterate seen."""

    def __init__(self, message, best=None, report=None, stage=None):
        super().__init__(message)
        self.best = best
        self.report = report
        self.stage = stage


@dataclass
class NewtonConfig:
    rel_tol: float = 1e-7
    max_iter: int = 1000

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class SolveReport:
    iterations: int
    final_update: float
    history: list
    wall_time: float
    converged: bool = True

    def to_log(self):
        lines = [
            f"iter {i + 1}: rel_update {u:.6e}" for i, u in enumerate(self.history)
        ]
        lines.append(
            f"converged={self.converged} iterations={self.iterations} "
            f"final_update={self.final_update:.6e} wall_time={self.wall_time:.3f}s"
        )
        return "\n".join(lines)


def solve_saddle(system):
    """Solve one linearized system, returning (velocity field, pressures).

    Constrained velocity entries are reinserted from the dof map.  One
    iterative refinement pass follows the factorization; the block
    residuals are then required to sit at solver precision relative to
    the data.
    """
    dm = system.dof_map
    free = dm.free_indices()
    nf = free.size

    A_ff = system.A[free][:, free]
    B_f = system.B[:, free]
    pinned = system.mean_constraint is not None
    if pinned:
        # mass row 0 is an exact linear combination of the others over the
        # free columns, so dropping it together with pressure unknown 0
        # leaves an equivalent nonsingular system
        B_red = B_f[1:]
        K = sp.bmat([[A_ff, -B_red.T], [B_red, None]], format="csc")
        rhs = np.concatenate([system.rhs_u[free], system.rhs_p[1:]])
    else:
        K = sp.bmat([[A_ff, -B_f.T], [B_f, None]], format="csc")
        rhs = np.concatenate([system.rhs_u[free], system.rhs_p])

    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc

    x = lu.solve(rhs)
    x += lu.solve(rhs - K @ x)

    uf = x[:nf]
    if pinned:
        a = system.mean_constraint
        pressure = np.concatenate([[0.0], x[nf:]])
        pressure -= (a @ pressure) / a.sum()
    else:
        pressure = x[nf:].copy()

    xf = np.zeros(dm.total)
    xf[free] = uf
    ru, rp, scale = _block_residuals(system, free, xf, pressure)
    # written so that NaN residuals or data fail the check
    if not (ru <= 1e-10 * scale and rp <= 1e-10 * scale):
        raise SolverError(
            f"saddle solve residuals too large: momentum {ru:.3e}, "
            f"mass {rp:.3e}, data scale {scale:.3e}"
        )
    return dm.unpack(np.where(dm.constrained, dm.values, xf)), pressure


def _block_residuals(system, free, xf, pressure):
    """Momentum and mass residual norms and the data scale at a state.

    xf is the full velocity vector with zeros on the constrained entries,
    whose data the right-hand sides already carry.  The momentum residual
    is taken on the free rows.  With a pinned pressure the mass residual
    is projected off the mean constraint, the one mass equation that the
    pinned solve drops.
    """
    ru = (system.A @ xf - system.B.T @ pressure - system.rhs_u)[free]
    rp = system.B @ xf - system.rhs_p
    a = system.mean_constraint
    if a is not None:
        rp = rp - ((a @ rp) / (a @ a)) * a
    scale = max(
        float(np.linalg.norm(system.rhs_u[free])),
        float(np.linalg.norm(system.rhs_p)),
        _TINY,
    )
    return float(np.linalg.norm(ru)), float(np.linalg.norm(rp)), scale


def _stacked(system, fld, pressure):
    free = system.dof_map.free_indices()
    return np.concatenate([system.dof_map.pack(fld)[free], pressure])


def _nonlinear_residual(system, fld, pressure):
    """Relative residual of the discrete equations at the given state.

    Valid when the system was assembled at that same state: the Newton
    value terms on the right cancel the linearization overshoot exactly.
    """
    dm = system.dof_map
    xf = np.where(dm.constrained, 0.0, dm.pack(fld))
    ru, rp, scale = _block_residuals(system, dm.free_indices(), xf, pressure)
    return max(ru, rp) / scale


def newton_solve(problem, config=None, initial=None):
    """Run the Newton loop on a steady problem from rest or a warm start.

    problem only needs newton_system(state), which returns the saddle
    system linearized at a velocity field (None = rest).  initial is a
    (velocity, pressure) pair.  Returns ((velocity, pressure), report).
    Raises NonConvergenceError with the last iterate attached if the
    iteration budget runs out.
    """
    config = config or NewtonConfig()
    t0 = time.perf_counter()

    if initial is None:
        system = problem.newton_system(None)
        prev = 0.0  # the rest state: the first update is the whole iterate
    else:
        system = problem.newton_system(initial[0])
        prev = _stacked(system, *initial)

    history = []
    residual_tol = 1e-2 * config.rel_tol
    solution = None

    for it in range(1, config.max_iter + 1):
        fld, pressure = solve_saddle(system)
        new = _stacked(system, fld, pressure)
        denom = max(float(np.linalg.norm(new)), _TINY)
        rel = float(np.linalg.norm(new - prev)) / denom
        history.append(rel)
        solution = (fld, pressure)
        logger.debug("newton iter %d: rel update %.3e", it, rel)

        if rel < config.rel_tol:
            report = SolveReport(it, rel, history, time.perf_counter() - t0)
            return solution, report

        system = problem.newton_system(fld)
        res = _nonlinear_residual(system, fld, pressure)
        if res < residual_tol:
            # the fresh iterate already satisfies the nonlinear equations;
            # the next update would be zero, so record the residual measure
            report = SolveReport(it, res, history, time.perf_counter() - t0)
            return solution, report
        prev = new

    report = SolveReport(
        config.max_iter, history[-1], history, time.perf_counter() - t0,
        converged=False,
    )
    raise NonConvergenceError(
        f"no convergence after {config.max_iter} iterations "
        f"(last relative update {history[-1]:.3e})",
        best=solution,
        report=report,
    )


def default_schedule(nu_target, start=1e-3):
    """Viscosity ladder: halve from `start` and finish exactly on target."""
    if nu_target <= 0:
        raise ValueError(f"target viscosity must be positive, got {nu_target}")
    if nu_target >= start:
        return [nu_target]
    schedule = [start]
    while schedule[-1] / 2.0 > nu_target:
        schedule.append(schedule[-1] / 2.0)
    if schedule[-1] != nu_target:
        schedule.append(nu_target)
    return schedule


def nu_continuation(factory, schedule, config=None):
    """Solve a decreasing viscosity sequence, warm-starting each stage.

    factory maps a viscosity to a problem, for example a problem's
    with_nu, or a callable that also rebuilds viscosity-dependent
    forcing.  Returns ((velocity, pressure), [stage reports]).
    """
    schedule = list(schedule)
    if not schedule:
        raise ValueError("continuation schedule is empty")
    if any(not a > b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("continuation schedule must be strictly decreasing")

    state = None
    reports = []
    for stage, nu in enumerate(schedule):
        problem = factory(nu)
        try:
            state, report = newton_solve(problem, config, initial=state)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"continuation stage {stage} (nu={nu:g}) failed: {exc}",
                best=exc.best,
                report=exc.report,
                stage=stage,
            ) from exc
        reports.append(report)
        logger.info(
            "continuation stage %d: nu=%.6g converged in %d iterations",
            stage,
            nu,
            report.iterations,
        )
    return state, reports
