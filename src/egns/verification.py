"""Benchmark case definitions, error norms, and flow diagnostics.

A :class:`FlowCase` carries the nu-free data of one flow: boundary data
and forcing. A manufactured case also carries its exact solution,
one evaluator of velocity, gradient and pressure, checked at construction
against finite differences: the velocity's divergence, the gradient, and
the force against the rotational-form momentum equation, in that order.
Typos in hand-derived forcing terms surface immediately instead of as
mysterious convergence-rate losses.

Error norms integrate the continuous velocity part against the exact
fields with a refined high-order quadrature so that the quadrature error
sits far below the discretization error being measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import SteadyProblem
from .eg_space import element_ops, vertex_values
from .mesh import (
    TAG_BOTTOM,
    TAG_INLET,
    TAG_LEFT,
    TAG_OUTLET,
    TAG_RIGHT,
    TAG_TOP,
    TAG_WALL,
    Mesh2D,
)
from .quadrature import NORM_RULE

__all__ = [
    "VerificationError",
    "FlowCase",
    "case_vortex_2d",
    "case_noflow",
    "case_cavity",
    "case_step",
    "constant_velocity",
    "parabolic_velocity",
    "STEP_RECIRCULATION_BOX",
    "error_norms",
    "convergence_table",
    "ConvergenceTable",
    "velocity_l2_norm",
    "velocity_l2_difference",
    "kinematic_pressure",
    "recirculation_detect",
]

VectorFn = Callable[[np.ndarray], np.ndarray]
# points (..., 2) -> (u (..., 2), grad u (..., 2, 2), p (...,))
ExactFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

# region of the backward-facing-step channel scanned for reversed flow
STEP_RECIRCULATION_BOX = (0.0, 4.0, 0.0, 1.0)
_SQUARE_SIDES = (TAG_BOTTOM, TAG_RIGHT, TAG_TOP, TAG_LEFT)  # a manufactured case's walls
_REVERSED_UX = -1e-3  # the u_x of reversed flow, see recirculation_detect


class VerificationError(ValueError):
    """A benchmark definition or diagnostic input is inconsistent."""


def _fd_jacobian(u: VectorFn, pts, h):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    dx = (u(pts + ex) - u(pts - ex)) / (2.0 * h)
    dy = (u(pts + ey) - u(pts - ey)) / (2.0 * h)
    return np.stack([dx, dy], axis=-1)  # [..., i, j] = du_i/dx_j


def _check_manufactured(case: "FlowCase") -> None:
    # sample points inside the unit square, where every manufactured case lives
    rng = np.random.default_rng(7)
    pts = 0.05 + 0.9 * rng.random((24, 2))

    def velocity(X):
        return case.exact(X)[0]

    u, grad, _ = case.exact(pts)
    uscale = max(1.0, float(np.abs(u).max()))

    # divergence via fourth-order differences, exact for quintics
    hd = 1e-3

    def d1(axis, comp):
        e = np.zeros(2)
        e[axis] = hd
        return (
            -velocity(pts + 2 * e)[:, comp]
            + 8.0 * velocity(pts + e)[:, comp]
            - 8.0 * velocity(pts - e)[:, comp]
            + velocity(pts - 2 * e)[:, comp]
        ) / (12.0 * hd)

    div = d1(0, 0) + d1(1, 1)
    worst = float(np.abs(div).max())
    if worst > 1e-10 * uscale:
        raise VerificationError(
            f"case {case.name!r}: velocity divergence reaches {worst:.3e}, "
            "the field is not divergence free"
        )

    h1 = 1e-5
    J = _fd_jacobian(velocity, pts, h1)
    dev = float(np.abs(grad - J).max())
    if dev > 1e-5 * max(1.0, float(np.abs(J).max())):
        raise VerificationError(
            f"case {case.name!r}: velocity gradient deviates from finite "
            f"differences by {dev:.3e}"
        )

    # momentum residual in rotational form, at every nu:
    #   -nu*lap(u) + curl(u) x u + grad(p) = f = body_force + nu*force_per_nu,
    # each part (what, force, finite differences, viscous term) on its own scale
    h2 = 1e-4
    ex = np.array([h2, 0.0])
    ey = np.array([0.0, h2])
    lap = (
        velocity(pts + ex)
        + velocity(pts - ex)
        + velocity(pts + ey)
        + velocity(pts - ey)
        - 4.0 * u
    ) / h2**2
    gradp = _fd_jacobian(lambda X: case.exact(X)[2], pts, h1)
    omega = J[:, 1, 0] - J[:, 0, 1]
    rest = omega[:, None] * np.stack([-u[:, 1], u[:, 0]], axis=-1) + gradp
    for what, force, f_fd, viscous in [("force per unit nu", case.force_per_nu, -lap, lap),
                                       ("body force", case.body_force, rest, 0.0)]:
        f = force(pts) if force is not None else 0.0 * u
        fscale = max(float(np.abs(f).max()), float(np.abs(viscous).max()), 1.0)
        dev = float(np.abs(f - f_fd).max())
        if dev > 1e-6 * fscale:
            raise VerificationError(
                f"case {case.name!r}: {what} deviates from the momentum "
                f"equation by {dev:.3e} (scale {fscale:.3e})"
            )


@dataclass
class FlowCase:
    """Boundary data and forcing of one flow, with its exact solution if known.

    dirichlet is an ordered list of (tags, u_D) segments, and later segments
    win at shared vertices; neumann_tags name the traction-free outflow sides.
    All field callables take points with shape (..., 2); the forces return
    (..., 2). exact returns the tuple (u (..., 2), grad u (..., 2, 2) with
    [i, j] = du_i/dx_j, p (...,)) of fresh arrays, which the caller may
    overwrite. The force is body_force + nu force_per_nu at the nu that
    problem(mesh, nu) is given. Given an exact solution, construction
    cross-checks its fields against each other and each force part inside
    the unit square and raises VerificationError on any mismatch.
    """

    name: str
    dirichlet: list
    body_force: Optional[VectorFn] = None
    neumann_tags: tuple = ()
    exact: Optional[ExactFn] = None
    force_per_nu: Optional[VectorFn] = None

    def __post_init__(self):
        if self.exact is not None:
            _check_manufactured(self)

    def problem(self, mesh: Mesh2D, nu: float) -> SteadyProblem:
        return SteadyProblem(mesh, nu, self)


def constant_velocity(ux: float, uy: float) -> VectorFn:
    """Boundary profile u = (ux, uy)."""
    val = np.array([ux, uy])

    def fn(xy):
        return np.broadcast_to(val, xy.shape).copy()

    return fn


def parabolic_velocity(scale: float, y0: float, y1: float) -> VectorFn:
    """Boundary profile u = (scale (y - y0) (y1 - y), 0)."""

    def fn(xy):
        y = xy[..., 1]
        return np.stack([scale * (y - y0) * (y1 - y), np.zeros_like(y)], axis=-1)

    return fn


def case_vortex_2d() -> FlowCase:
    """Polynomial vortex on the unit square with a bilinear pressure.

    The stream function is 5*a(x)*a(y) with a(s) = s^2 (s-1)^2, so the
    velocity vanishes on the whole boundary and at the center. The force
    is omega (-u2, u1) + grad p + nu (-lap u), the rotational form, where
    the pressure plays the role of total (Bernoulli) pressure.
    """

    def a(s, n):
        # a(s) and its first n - 1 derivatives, one row each
        t = s * (s - 1.0)
        out = np.empty((n,) + s.shape)
        out[0], out[1] = t * t, 2.0 * t * (2.0 * s - 1.0)
        if n > 2:
            out[2] = 12.0 * t + 2.0
        if n > 3:
            out[3] = 24.0 * s - 12.0
        return out

    def exact(xy):
        ax, ay = a(xy[..., 0], 3), a(xy[..., 1], 3)
        u = np.empty(xy.shape)
        u[..., 0], u[..., 1] = 5.0 * ax[0] * ay[1], -5.0 * ax[1] * ay[0]
        g = np.empty(xy.shape + (2,))
        g[..., 0, 0] = 5.0 * ax[1] * ay[1]
        g[..., 0, 1] = 5.0 * ax[0] * ay[2]
        g[..., 1, 0] = -5.0 * ax[2] * ay[0]
        g[..., 1, 1] = -g[..., 0, 0]
        return u, g, 10.0 * (2.0 * xy[..., 0] - 1.0) * (2.0 * xy[..., 1] - 1.0)

    def body_force(xy):
        # omega (-u2, u1) + grad p, and w = -omega
        ax, ay = a(xy[..., 0], 3), a(xy[..., 1], 3)
        w = 5.0 * (ax[2] * ay[0] + ax[0] * ay[2])
        out = np.empty(xy.shape)
        out[..., 0], out[..., 1] = -5.0 * w * ax[1] * ay[0], -5.0 * w * ax[0] * ay[1]
        out += 20.0 * (2.0 * xy[..., ::-1] - 1.0)
        return out

    def force_per_nu(xy):  # -lap u
        ax, ay = a(xy[..., 0], 4), a(xy[..., 1], 4)
        return 5.0 * np.stack([-ax[2] * ay[1] - ax[0] * ay[3], ax[3] * ay[0] + ax[1] * ay[2]],
                              axis=-1)

    return FlowCase(
        name="vortex",
        exact=exact,
        body_force=body_force,
        force_per_nu=force_per_nu,
        dirichlet=[(_SQUARE_SIDES, lambda xy: exact(xy)[0])],
    )


def case_noflow(ra: float = 1000.0) -> FlowCase:
    """Hydrostatic balance: zero velocity, gravity-like forcing.

    The force is the exact gradient of a quadratic pressure, so any
    velocity the discrete solver produces is a pressure-robustness defect.
    """

    def exact(xy):
        y = xy[..., 1]
        return (np.zeros(xy.shape), np.zeros(xy.shape + (2,)),
                -0.5 * ra * y * y + ra * y - ra / 3.0)

    def body_force(xy):
        y = xy[..., 1]
        return np.stack([np.zeros_like(y), ra * (1.0 - y)], axis=-1)

    return FlowCase(
        name="noflow",
        exact=exact,
        body_force=body_force,
        dirichlet=[(_SQUARE_SIDES, lambda xy: exact(xy)[0])],
    )


def case_cavity(forcing: str = "f1") -> FlowCase:
    """Lid-driven cavity, optionally with a large gradient body force.

    forcing "f1" is unforced; "f2" adds the gradient field
    (1e6/3) * grad(x^3 + y^3), which a pressure-robust scheme must absorb
    into the pressure without disturbing the velocity.
    """
    if forcing not in ("f1", "f2"):
        raise ValueError(f"unknown cavity forcing {forcing!r}")

    body = None
    if forcing == "f2":

        def body(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([1e6 * x * x, 1e6 * y * y], axis=-1)

    return FlowCase(
        name=f"cavity_{forcing}",
        dirichlet=[
            ((TAG_BOTTOM, TAG_LEFT, TAG_RIGHT), constant_velocity(0.0, 0.0)),
            ((TAG_TOP,), constant_velocity(1.0, 0.0)),
        ],
        body_force=body,
    )


def case_step(inlet: str = "parabolic") -> FlowCase:
    """Backward-facing step channel.

    The inlet occupies x = -4, 1 <= y <= 2. The parabolic profile
    (6 (y-1) (2-y), 0) has unit mean speed, so the Reynolds number is
    1/nu directly; the "constant" variant imposes a plug profile (1, 0).
    The outlet at x = 20 is traction free.
    """
    if inlet == "parabolic":
        inflow = parabolic_velocity(6.0, 1.0, 2.0)
    elif inlet == "constant":
        inflow = constant_velocity(1.0, 0.0)
    else:
        raise ValueError(f"unknown inlet profile {inlet!r}")

    return FlowCase(
        name=f"step_{inlet}",
        dirichlet=[((TAG_WALL,), constant_velocity(0.0, 0.0)), ((TAG_INLET,), inflow)],
        neumann_tags=(TAG_OUTLET,),
    )


# triangles per error_norms pass: its 64-point temporaries, under 10 MB,
# then fit in the heap the solve before them freed: no new peak
_NORM_BLOCK = 1024


def error_norms(mesh: Mesh2D, solution, exact: ExactFn):
    """L2 and broken H1 errors of the continuous velocity part and the
    L2 pressure error, as a (e_l2, e_h1, e_p) tuple.

    ``solution`` is a (dof vector, element pressures) pair and ``exact`` a
    FlowCase's exact solution. It is called once per block of _NORM_BLOCK
    triangles, on the degree-8 rule refined once, and the discrete fields
    are subtracted in place from the arrays it returns.
    """
    u, p_h = solution
    points, w = NORM_RULE
    gradl = element_ops(mesh)["gradl"]
    p_h = np.asarray(p_h)

    sums = np.zeros(3)
    for lo in range(0, mesh.num_triangles, _NORM_BLOCK):
        blk = slice(lo, lo + _NORM_BLOCK)
        tri = mesh.triangles[blk]
        X = points @ mesh.vertices[tri]  # (nb, nq, 2)
        V = vertex_values(mesh, u)[tri]  # (nb, 3, 2)
        du, dg, dp = exact(X)
        du -= points @ V
        dg -= (V.transpose(0, 2, 1) @ gradl[blk])[:, None]  # constant per element
        dp -= p_h[blk, None]
        areas = mesh.areas[blk]
        sums += (
            areas @ np.einsum("q,tqd,tqd->t", w, du, du),
            areas @ np.einsum("q,tqde,tqde->t", w, dg, dg),
            areas @ np.einsum("q,tq,tq->t", w, dp, dp),
        )
    e_l2, e_h1, e_p = np.sqrt(sums)
    return float(e_l2), float(e_h1), float(e_p)


def _mean_sq(mesh: Mesh2D, u: np.ndarray) -> np.ndarray:
    """Element means of |u0|^2: (sum |a_k|^2 + |sum a_k|^2) / 12, a_k its vertex values."""
    a = vertex_values(mesh, u)[mesh.triangles]
    s = a.sum(axis=1)
    return (np.einsum("tkd,tkd->t", a, a) + np.einsum("td,td->t", s, s)) / 12.0


def velocity_l2_norm(mesh: Mesh2D, u: np.ndarray) -> float:
    """L2 norm of the continuous velocity part (exact for piecewise P1)."""
    return float(np.sqrt(mesh.areas @ _mean_sq(mesh, u)))


def velocity_l2_difference(mesh: Mesh2D, a: np.ndarray, b: np.ndarray) -> float:
    return velocity_l2_norm(mesh, a - b)


def kinematic_pressure(mesh: Mesh2D, u: np.ndarray, pressure) -> np.ndarray:
    """Convert total pressure to kinematic pressure per element.

    Subtracts half the element mean of |u0|^2.
    """
    return np.asarray(pressure, float) - 0.5 * _mean_sq(mesh, u)


def recirculation_detect(mesh: Mesh2D, u: np.ndarray, region):
    """Scan vertex velocities in an axis-aligned box for reversed flow.

    region is (xmin, xmax, ymin, ymax). Returns (detected, min u_x,
    reversed), where reversed masks the box vertices with u_x below
    _REVERSED_UX; the flow counts as recirculating when that mask is not
    empty. The threshold filters solver-level noise around zero.
    """
    xmin, xmax, ymin, ymax = region
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    inside = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
    if not inside.any():
        raise VerificationError("recirculation region contains no mesh vertices")
    ux = vertex_values(mesh, u)[:, 0]
    mn = float(ux[inside].min())
    return mn < _REVERSED_UX, mn, inside & (ux < _REVERSED_UX)


@dataclass
class ConvergenceTable:
    """Mesh sizes, error triples, and the observed convergence orders."""

    h: np.ndarray
    errors: np.ndarray  # (levels, 3): velocity L2, velocity H1, pressure L2
    orders: np.ndarray  # (levels, 3), first row is nan

    def to_csv(self) -> str:
        return self._table("h,e_l2,order,e_h1,order,e_p,order", ",",
                           ".10g", ".6e", ".2f", "") + "\n"

    def to_log(self) -> str:
        header = f"{'h':>10} {'|u-u0|_0':>12} {'ord':>6} {'|u-u0|_1':>12} {'ord':>6} {'|p-p_h|_0':>12} {'ord':>6}"
        return self._table(header, " ", ">10.6f", ">12.3e", ">6.2f", "     -")

    def _table(self, header, sep, h_fmt, e_fmt, o_fmt, blank):
        """The header and one line per level, an order blank where nan."""
        lines = [header]
        for h, errors, orders in zip(self.h, self.errors, self.orders):
            cells = [format(h, h_fmt)]
            for e, o in zip(errors, orders):
                cells += [format(e, e_fmt), blank if np.isnan(o) else format(o, o_fmt)]
            lines.append(sep.join(cells))
        return "\n".join(lines)


def convergence_table(h_values, errors) -> ConvergenceTable:
    """Observed orders log(e_{i-1}/e_i) / log(h_{i-1}/h_i) for error triples.

    Takes any number of levels in any order.  An order is blank in the
    first row, after a repeated mesh size and next to a zero error.
    """
    h = np.asarray(h_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        e = e.reshape(0, 3)  # no level: [] has shape (0,)
    if h.ndim != 1:
        raise ValueError("mesh sizes must be one-dimensional")
    if e.shape != (h.size, 3):
        raise ValueError(f"errors must have shape ({h.size}, 3), got {e.shape}")
    if np.any(e < 0):
        raise ValueError("error norms cannot be negative")

    orders = np.full_like(e, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = e[:-1] / e[1:]
        orders[1:] = np.log(ratio) / np.log(h[:-1] / h[1:])[:, None]
    orders[~np.isfinite(orders)] = np.nan
    return ConvergenceTable(h=h, errors=e, orders=orders)
