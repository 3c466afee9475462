"""Direct saddle-point solves, damped Newton iteration, viscosity continuation.

One linear solve factors the full saddle matrix with sparse LU; problem
sizes stay in direct-solver territory.  For pure-Dirichlet problems the
pressure is only determined up to a constant: the factorization pins one
pressure unknown and drops the matching redundant mass row, then shifts
the result back to zero area-weighted mean.  Pinning instead of a
Lagrange multiplier matters for cost: the multiplier column is dense in
the pressure block and inflates LU fill by roughly an order of magnitude.

Newton is damped by residual decrease (Deuflhard, *Newton Methods for
Nonlinear Problems*): a step of length lambda, full first, is kept if it
lowers the nonlinear residual by the fraction 1e-4 lambda, else lambda is
halved down to 1/64.  A trial step costs one assembly, no factorization.

Convergence is declared when the relative update of the stacked free
velocity/pressure vector drops below the tolerance, or when the assembled
nonlinear residual at the new iterate is already at solver precision.  The
second test is what lets linear problems finish in one iteration.

nu_continuation reaches a small viscosity by step control on log(nu)
(Allgower and Georg, *Numerical Continuation Methods*).  It solves from
rest at max(nu, 1e-3), tenfold higher while that fails, up to nu = 1.
Each later trial first goes the whole remaining way.  A failed trial is
retried from the last converged state with the smaller of half its step
and the last accepted step, doubled if that stage took at most 2 Newton
iterations.  Each stage runs at most 8 Newton iterations.
"""

from __future__ import annotations

import dataclasses
import logging
import math
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
    "nu_continuation",
]

_TINY = 1e-300

_DECREASE, _MIN_LAMBDA = 1e-4, 1.0 / 64  # damping
# continuation: first nu from rest, iterations per stage, least log step
_NU_START, _STAGE_MAX_ITER, _MIN_LOG_STEP = 1e-3, 8, 1e-3


class SolverError(Exception):
    pass


class SingularSystemError(SolverError):
    """Factorization hit an exactly singular pivot."""


class NonConvergenceError(SolverError):
    """Newton ran out of iterations or step length; carries the best iterate."""

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
    """One Newton solve, or one trial stage of nu_continuation (with nu).

    Per iteration: relative Newton update (history), residual at the kept
    iterate (NaN if the update test ended the solve first) and step length
    lambda (0 if the line search failed).
    """

    iterations: int
    final_update: float
    history: list
    residuals: list
    steps: list
    wall_time: float
    converged: bool = True
    nu: float | None = None

    accepted = property(lambda self: self.converged)  # as a continuation trial

    def to_log(self):
        lines = [
            f"iter {i + 1}: rel_update {u:.6e} residual {r:.6e} step {s:g}"
            for i, (u, r, s) in enumerate(zip(self.history, self.residuals, self.steps))
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
    """Run the damped Newton loop on a steady problem from rest or a warm start.

    problem only needs newton_system(state), which returns the saddle
    system linearized at a velocity field (None = rest).  initial is a
    (velocity, pressure) pair.  Returns ((velocity, pressure), report).
    Raises NonConvergenceError with the best iterate attached if the
    iteration budget runs out or the line search fails.
    """
    config = config or NewtonConfig()
    t0 = time.perf_counter()
    system = problem.newton_system(None if initial is None else initial[0])
    dm = system.dof_map
    # rest is the Dirichlet data on the constrained entries, zero elsewhere
    state = initial or (dm.unpack(dm.values), np.zeros(system.B.shape[0]))
    prev, res = _stacked(system, *state), _nonlinear_residual(system, *state)
    history, residuals, steps = [], [], []

    def report(it, final, converged=True):
        return SolveReport(it, final, history, residuals, steps,
                           time.perf_counter() - t0, converged)

    for it in range(1, config.max_iter + 1):
        full = solve_saddle(system)
        new = _stacked(system, *full)
        rel = float(np.linalg.norm(new - prev)) / max(float(np.linalg.norm(new)), _TINY)
        history.append(rel)
        logger.debug("newton iter %d: rel update %.3e", it, rel)
        if rel < config.rel_tol:
            residuals.append(math.nan)
            steps.append(1.0)
            return full, report(it, rel)

        lam, trial = 1.0, full
        while True:
            trial_system = problem.newton_system(trial[0])
            trial_res = _nonlinear_residual(trial_system, *trial)
            if trial_res <= (1.0 - _DECREASE * lam) * res:  # False for NaN
                break
            lam /= 2.0
            if lam < _MIN_LAMBDA:
                residuals.append(res)
                steps.append(0.0)
                raise NonConvergenceError(
                    f"line search failed at iteration {it}: no step down to "
                    f"lambda = {_MIN_LAMBDA:g} lowers the residual {res:.3e}",
                    best=state, report=report(it, rel, converged=False))
            x0, x1 = dm.pack(state[0]), dm.pack(full[0])
            trial = dm.unpack(x0 + lam * (x1 - x0)), state[1] + lam * (full[1] - state[1])

        state, system, res = trial, trial_system, trial_res
        prev = _stacked(system, *state)
        residuals.append(res)
        steps.append(lam)
        if res < 1e-2 * config.rel_tol:
            # the fresh iterate already satisfies the nonlinear equations;
            # the next update would be zero, so record the residual measure
            return state, report(it, res)

    raise NonConvergenceError(
        f"no convergence after {config.max_iter} iterations "
        f"(last relative update {history[-1]:.3e})",
        best=state, report=report(config.max_iter, history[-1], converged=False))


def nu_continuation(factory, nu, config=None):
    """Solve at viscosity nu by step-controlled continuation (see above).

    factory maps a viscosity to a problem: a problem's with_nu, or a
    callable that also rebuilds nu-dependent forcing.  Returns ((velocity,
    pressure), reports), one per trial stage, rejected ones included.
    Raises NonConvergenceError naming the stage when no start from rest
    converges or the step in log(nu) falls below 1e-3.
    """
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"target viscosity must be positive and finite, got {nu}")
    config = config or NewtonConfig()
    config = dataclasses.replace(config, max_iter=min(_STAGE_MAX_ITER, config.max_iter))
    reports = []

    def trial(trial_nu, initial):
        """One stage: its solution, or None, and its failure, or None."""
        try:
            state, report = newton_solve(factory(trial_nu), config, initial)
            failure = None
        except NonConvergenceError as exc:
            state, report, failure = None, exc.report, exc
        report.nu = trial_nu
        reports.append(report)
        logger.info("continuation stage %d: nu=%.6g %s after %d iterations",
                    len(reports) - 1, trial_nu,
                    "accepted" if report.accepted else "rejected", report.iterations)
        return state, failure

    def give_up(failure, why):
        stage = len(reports) - 1
        raise NonConvergenceError(
            f"continuation stage {stage} (nu={reports[-1].nu:g}) failed: {why}: {failure}",
            best=failure.best, report=reports[-1], stage=stage) from failure

    current = max(nu, _NU_START)
    state, failure = trial(current, None)
    while state is None:
        current *= 10.0
        if current > 1.0:
            give_up(failure, "no start from rest up to nu = 1 converged")
        state, failure = trial(current, None)

    step = controlled = math.inf  # the next trial's step in log(nu), the controlled one
    while current > nu:
        remaining = math.log(current / nu)
        step = min(step, remaining)
        trial_nu = nu if step == remaining else current * math.exp(-step)
        new_state, failure = trial(trial_nu, state)
        if new_state is not None:
            state, current = new_state, trial_nu
            controlled = 2.0 * step if reports[-1].iterations <= 2 else step
            step = math.inf
        else:
            step = controlled = min(controlled, step / 2.0)
            if step < _MIN_LOG_STEP:
                give_up(failure, f"step in log(nu) below {_MIN_LOG_STEP:g}")
    return state, reports
