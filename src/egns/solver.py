"""Null-space linear solves, damped Newton iteration, viscosity continuation.

Newton works in correction form: a Newton system is K = Z^T A Z for the
Jacobian A at the velocity dof vector x, A as a function, and the
residual (ru, rp) there; one linear solve gives the correction dx and
the new pressure.  The solve works on the divergence-free subspace (see
egns.nullspace), so pressure robustness holds by construction: a sweep
over a dual spanning tree gives a flux with B dx = -rp, sparse LU of K
over (free v0x, free v0y, stream function) the divergence-free part,
and a second sweep the pressure.  K has no zero block and under half
the unknowns of the saddle matrix; its pattern, explicit zeros
included, is fixed per mesh.  The null space also fixes the pressure
constant of pure-Dirichlet problems; incompatible boundary flux is
rejected when the problem's dof map is built.

K is factored on three rungs, each tried when the one before raises or
its solve fails the block-residual check: float32 and float64 in
SuperLU's symmetric mode (Li, *ACM TOMS* 31, 2005), pivots in Z's column
order, minimum degree on the vertex graph (see egns.nullspace); then
float64 with partial pivoting.  Float64 saddle solves take one
refinement pass; float32 ones are refined in float64 (Carson and Higham,
*SIAM J. Sci. Comput.* 40, 2018).  A pass leaves about kappa u32 of the
residual, a float64 solve kappa u64, so the pass taking in at most
u64/u32 = 2^-29 of the first residual is the last, as is one failing to
halve it.  A chord step (below), which the next Newton iteration
corrects, takes one float64 solve, or the float32 solve and one pass:
at a measured 2e-4 to 3e-2 per pass they leave about 1e-3 of it.

Newton is damped by residual decrease (Deuflhard, *Newton Methods for
Nonlinear Problems*): a step of length lambda, full first, is kept if it
lowers the nonlinear residual by the fraction 1e-4 lambda, else lambda is
halved down to 1/64; every iterate is x + lambda dx.  The residual F
comes from vectors alone (SteadyProblem.residual), so a trial step
assembles no matrix.  After a full step the last LU gives the simplified
Newton correction -Z LU^-1 Z^T F(x) and the contraction theta, its norm
over the step's.  While theta <= 1/4 that chord step is the next
iteration, its pressure fitted to the new velocity on the tree edges, if
it passes the decrease test at lambda = 1; otherwise the LU is dropped
before the system is assembled and factored again, so one assembly
serves each factorization.

Convergence is declared when the relative update of the stacked free
velocity/pressure vector drops below the tolerance, or when the nonlinear
residual at the new iterate is already at solver precision.  The second
test is what lets linear problems finish in one iteration.

The Newton iterate is (x, p), x the velocity dof vector [v0x | v0y | edge]
with the Dirichlet values on its constrained entries, the same vector
that newton_solve takes and returns.

nu_continuation is how every egns command reaches its viscosity: step
control on log(nu) (Allgower and Georg, *Numerical Continuation
Methods*).  It solves from rest at max(nu, 1e-2), tenfold higher while
that fails, up to nu = 1, so a target at or above 1e-2 that converges
from rest is one plain Newton solve.  From rest at 1e-2 the Stokes LU
still contracts Newton's steps (theta 0.009 on the vortex), so one
factorization serves the start; at 1e-3 the first chord step fails the
decrease test, and on the lid cavity the whole start can fail.  Each
later trial first goes the whole remaining way.  A failed trial is
retried from the last converged state with the smaller of half its step
and the last accepted step, doubled if that stage took at most 2
factorizations (splu calls, a rung's handover included).  Every stage runs
up to the configured max_iter, on problem.with_nu: nu-free data shared.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_divergence

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

# K's factorizations in the order tried (see above): Z's column order first
_SYMMETRIC_MODE = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
_RUNGS = ((np.float32, _SYMMETRIC_MODE), (np.float64, _SYMMETRIC_MODE), (np.float64, {}))

# damping; the largest contraction theta at which the last LU is reused
_DECREASE, _MIN_LAMBDA, _THETA_MAX = 1e-4, 1.0 / 64, 0.25
# continuation: first nu from rest, least step in log(nu)
_NU_START, _MIN_LOG_STEP = 1e-2, 1e-3


class SolverError(Exception):
    pass


class SingularSystemError(SolverError):
    """Factorization hit an exactly singular pivot.

    Raised only when the last, partial-pivoting factorization does; the
    symmetric-mode ones that fail are retried with it first.
    """


class NonConvergenceError(SolverError):
    """Newton ran out of iterations or step length; carries the best iterate."""

    def __init__(self, message, best=None, report=None, stage=None):
        super().__init__(message)
        self.best, self.report, self.stage = best, report, stage


@dataclass
class NewtonConfig:
    rel_tol: float = 1e-7
    max_iter: int = 1000

    def __post_init__(self):
        if not np.finfo(float).eps <= self.rel_tol < math.inf:  # also NaN
            raise ValueError("rel_tol must be finite and at least machine epsilon "
                             f"{np.finfo(float).eps:.3g}, got {self.rel_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class SolveReport:
    """One Newton solve, or one trial stage of nu_continuation, at nu.

    records holds one dict per iteration: update (relative Newton update),
    residual (at the kept iterate, NaN if the update test ended the solve),
    step (lambda, 0 if the line search failed), single and fallback (the LU
    it used is float32, the pivoting one), passes (of its refined solve:
    at most 2 for a chord step, 1 in float64), factored (its splu calls:
    0 for a chord step with the last LU, one per rung solve_saddle tried)
    and theta (contraction estimate of its step, NaN where not computed).
    """

    records: list
    wall_time: float
    converged: bool
    nu: float  # the viscosity of the problem solved

    @property
    def iterations(self):
        return len(self.records)

    @property
    def factorizations(self):
        return sum(r["factored"] for r in self.records)

    def to_log(self):
        lines = [
            f"iter {i}: rel_update {r['update']:.6e} residual {r['residual']:.6e} "
            f"step {r['step']:g} single {r['single']} passes {r['passes']} "
            f"fallback {r['fallback']} factored {r['factored']} theta {r['theta']:.3e}"
            for i, r in enumerate(self.records, 1)
        ]
        lines.append(f"converged={self.converged} iterations={self.iterations} "
                     f"factorizations={self.factorizations} wall_time={self.wall_time:.3f}s")
        return "\n".join(lines)


class _Factor:
    """K's LU on one rung, and its refined solves; single and fallback
    tell float32 and pivoting, passes the last solve's."""

    def __init__(self, K, A, Z, dtype, options):
        self.A, self.Z = A, Z
        self.single, self.fallback = dtype is np.float32, not options
        with np.errstate(over="ignore"):  # beyond float32's range: the check fails
            # on K's own index arrays: astype would copy them too
            data = K.data.astype(dtype, copy=False)
            self.lu = spla.splu(sp.csc_matrix((data, K.indices, K.indptr), K.shape), **options)

    def refine(self, ru, dx=None):
        """dx - Z LU^-1 Z^T (A dx + ru), refined, in place of dx (summing the
        psi instead would round every flux again at eps |psi| / |e|).

        Given dx, a saddle solve: two passes in float64, and in float32 as
        above, at most 12, on unit-norm right-hand sides.  Without dx, a
        chord step from zero, whose first residual is Z^T ru: the next
        Newton iteration corrects it, so it takes one solve in float64 and
        at most two passes in float32, which leave about 1e-3 of it."""
        Z, chord = self.Z, dx is None
        dx = np.zeros(Z.shape[0]) if chord else dx
        cap = ((1, 2) if chord else (2, 12))[self.single]  # (float64, float32) passes
        self.passes, last, first = 0, math.inf, None
        while self.passes < cap:
            r = Z.T @ (ru if chord and not self.passes else self.A(dx) + ru)
            if self.single:
                size = _norm(r)
                if not 0.0 < size < last / 2:  # solved, or no gain (also inf or NaN)
                    break
                r, first, last = (r / size).astype(np.float32), first or size, size
            dx -= (Z @ self.lu.solve(r)) * (last if self.single else 1.0)
            self.passes += 1
            if self.single and last <= 2.0**-29 * first:  # a float64 solve's level
                break
        return dx


def solve_saddle(problem, system):
    """Solve one Newton system, returning (dx, pressure, lu).

    system is problem.newton_system(x): K = Z^T A Z, the function y -> A y
    and the residual (ru, rp) at x.  dx, zero on constrained entries, is
    the tree's flux with B dx = -rp minus Z psi, where K psi = Z^T (A dx +
    ru), refined as above.  The pressure solves B^T p = A dx + ru on the
    tree edges in the null space's gauge; ru holds no pressure, so p is the
    new pressure.  The block residuals A dx + ru - B^T p and B dx + rp must
    then sit at solver precision relative to (ru, rp).

    K is factored on the first rung (see above) whose solve passes that
    check; only the last rung's failure is raised, or the first one's on
    non-finite data.  One factor is alive at a time: a rejected rung's LU
    is freed before the next rung factors, and the float32 copy of K
    shares K's index arrays.  lu is that factor, with single, fallback
    (whether it is the partial-pivoting one), passes and factorizations
    (the splu calls made for it: its rung's number).
    """
    (K, A, ru, rp), ns = system, problem.null_space
    B, free = assemble_divergence(problem.mesh), problem.dof_map.free_indices()
    for calls, (dtype, options) in enumerate(_RUNGS, 1):
        try:
            lu = _Factor(K, A, ns.Z, dtype, options)
        except RuntimeError as exc:
            if not options:
                raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
            logger.info("%s factorization failed (%s); next rung", dtype.__name__, exc)
            continue
        dx = lu.refine(ru, ns.particular(-rp))
        mom = A(dx) + ru  # the linearized momentum residual, less B^T p
        pressure = ns.pressure(mom)
        nru, nrp, scale = _norms(free, mom - B.T @ pressure, B @ dx + rp, ru, rp)
        # written so that NaN residuals or data fail the check
        if nru <= 1e-10 * scale and nrp <= 1e-10 * scale:
            lu.factorizations = calls
            return dx, pressure, lu
        message = (f"saddle solve residuals too large: momentum {nru:.3e}, "
                   f"mass {nrp:.3e}, data scale {scale:.3e}")
        if lu.fallback or not math.isfinite(scale):  # no factorization mends the data
            raise SolverError(message)
        logger.info("symmetric-mode factorization: %s; next rung", message)
        lu = None  # freed before the next rung factors


def _norm(v):
    """The 2-norm, inf where its square overflows: every test it feeds fails."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def _norms(free, ru, rp, rhs_u, rhs_p):
    return _norm(ru[free]), _norm(rp), max(_norm(rhs_u[free]), _norm(rhs_p), _TINY)


def _nonlinear_residual(problem, x, pressure=None):
    """(pressure, momentum residual, relative residual, at_x) at (x, pressure).

    The relative residual is the larger norm of problem.residual's
    momentum (free rows) and mass residuals over the data scale of its
    rhs_u and rhs_p.  It tests the iterate; solve_saddle's check, scaled
    by the Newton residual, tests one correction.  at_x is what
    newton_system(x, at_x) takes, so a state is evaluated once.
    """
    pressure, ru, rp, rhs_u, rhs_p, at_x = problem.residual(x, pressure)
    nru, nrp, scale = _norms(problem.dof_map.free_indices(), ru, rp, rhs_u, rhs_p)
    return pressure, ru, max(nru, nrp) / scale, at_x


def newton_solve(problem, config=None, initial=None):
    """Run the damped Newton loop on a steady problem from rest or a warm start.

    problem needs newton_system(x, at_x), the Newton system at the velocity
    dof vector x (None = zero velocity), residual(x, pressure),
    mesh, nu, dof_map and null_space; every iterate is x + lambda dx, dx from
    solve_saddle or the last LU.  initial, whose constrained entries give
    way to the problem's Dirichlet values, and the result are (x,
    pressure) pairs; returns (result, report).  Raises
    NonConvergenceError with the best iterate attached if the iteration
    budget runs out or the line search fails.  No returned x shares
    memory with the dof map.
    """
    config = config or NewtonConfig()
    t0 = time.perf_counter()
    dm, free = problem.dof_map, problem.dof_map.free_indices()
    # a warm start takes the problem's Dirichlet values: every dx is zero there
    x, p = ((None, np.zeros(problem.mesh.num_triangles)) if initial is None
            else (np.where(dm.constrained, dm.values, initial[0]), initial[1]))
    res, at = _nonlinear_residual(problem, x, p)[2:]
    if x is None:  # rest: the Dirichlet data, zero elsewhere.  Its residual has no
        # convection values, so newton_system forms it again: none is held through the first LU
        x, at = dm.values, None
    prev, records, lu = np.concatenate([x[free], p]), [], None

    def report(converged=True):
        return SolveReport(records, time.perf_counter() - t0, converged, problem.nu)

    while len(records) < config.max_iter:
        factored = lu is None
        if factored:  # the last LU is gone before the next assembly
            rest = initial is None and not records  # linearized at zero velocity
            dx, p1, lu = solve_saddle(problem, problem.newton_system(None if rest else x, at))
        else:  # simplified Newton: the chord step found with the last LU
            dx = chord
            p1, ru1, res1, at1 = _nonlinear_residual(problem, x + dx)
        x1 = x + dx
        new = np.concatenate([x1[free], p1])
        rel = _norm(new - prev) / max(_norm(new), _TINY)
        logger.debug("newton iter %d: rel update %.3e", len(records) + 1, rel)
        record = {"update": rel, "residual": math.nan, "step": 1.0, "single": lu.single,
                  "passes": lu.passes, "fallback": lu.fallback,
                  "factored": lu.factorizations if factored else 0, "theta": math.nan}
        if rel < config.rel_tol:
            records.append(record)
            return (x1, p1), report()

        lam, xt, pt = 1.0, x1, p1
        while factored:
            ru1, res1, at1 = _nonlinear_residual(problem, xt, pt)[1:]
            if res1 <= (1.0 - _DECREASE * lam) * res:  # False for NaN
                break
            lam /= 2.0
            if lam < _MIN_LAMBDA:
                records.append({**record, "residual": res, "step": 0.0})
                raise NonConvergenceError(
                    f"line search failed at iteration {len(records)}: no step down "
                    f"to lambda = {_MIN_LAMBDA:g} lowers the residual {res:.3e}",
                    best=(x.copy(), p), report=report(converged=False))
            xt, pt = x + lam * dx, p + lam * (p1 - p)
        if not (factored or res1 <= (1.0 - _DECREASE) * res):
            lu = None  # the chord step does not lower the residual: factor at x
            continue

        x, p, res, at = xt, pt, res1, at1
        prev = np.concatenate([x[free], p])
        record.update(residual=res, step=lam)
        records.append(record)
        if res < 1e-2 * config.rel_tol:
            # the fresh iterate already satisfies the nonlinear equations;
            # the next update would be zero
            return (x, p), report()
        if lam == 1.0:  # the chord step from the same LU, and its contraction
            chord = lu.refine(ru1)
            record["theta"] = _norm(chord) / max(_norm(dx), _TINY)
        if not record["theta"] <= _THETA_MAX:  # also when damped: theta is NaN
            lu = None

    raise NonConvergenceError(
        f"no convergence after {config.max_iter} iterations "
        f"(last relative update {records[-1]['update']:.3e})",
        best=(x, p), report=report(converged=False))


def nu_continuation(problem, config=None):
    """Solve problem at its viscosity by step-controlled continuation (see above).

    Each stage solves problem.with_nu(stage nu).  With problem.nu at or
    above 1e-2 the first trial is newton_solve(problem) from rest, and the
    whole solve when it converges; below it, the first trial is from rest
    at 1e-2 and the next one tries problem.nu.  Returns ((velocity,
    pressure), reports), one report per trial stage, rejected ones
    included.  Raises NonConvergenceError naming the stage when no start
    from rest converges or the step in log(nu) falls below 1e-3.
    """
    nu, config = problem.nu, config or NewtonConfig()
    reports = []

    def trial(trial_nu, initial):
        """One stage: its solution, or None, and its failure, or None."""
        try:
            state, report = newton_solve(problem.with_nu(trial_nu), config, initial)
            failure = None
        except NonConvergenceError as exc:
            state, report, failure = None, exc.report, exc
        reports.append(report)
        logger.info("continuation stage %d: nu=%.6g %s after %d iterations",
                    len(reports) - 1, trial_nu,
                    "accepted" if report.converged else "rejected", report.iterations)
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
            tried = ", ".join(f"{r.nu:g}" for r in reports)  # all from rest so far
            give_up(failure, f"no start from rest converged (tried nu = {tried})")
        state, failure = trial(current, None)

    step = controlled = math.inf  # the next trial's step in log(nu), the controlled one
    while current > nu:
        remaining = math.log(current / nu)
        step = min(step, remaining)
        trial_nu = nu if step == remaining else current * math.exp(-step)
        new_state, failure = trial(trial_nu, state)
        if new_state is not None:
            state, current = new_state, trial_nu
            controlled = 2.0 * step if reports[-1].factorizations <= 2 else step
            step = math.inf
        else:
            step = controlled = min(controlled, step / 2.0)
            if step < _MIN_LOG_STEP:
                give_up(failure, f"step in log(nu) below {_MIN_LOG_STEP:g}")
    return state, reports
