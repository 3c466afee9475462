"""Config-driven experiment runner.

Subcommands:

converge
    Manufactured-vortex mesh refinement study; writes convergence.csv.
noflow
    Hydrostatic balance check; reports the spurious velocity maxima.
cavity
    Lid-driven cavity solved twice, with and without a large gradient
    forcing; reports the relative velocity difference and writes both
    fields plus their difference as VTK.
step
    Backward-facing step channel; reports recirculation behind the step.
run
    Generic runner: mesh generator or imported mesh, per-tag boundary
    recipes, optional viscosity continuation.

Configuration is an INI file with sections [experiment], [mesh],
[physics], [newton], [output], and [boundary]. Unknown sections or keys
are rejected. Boundary recipes (run subcommand) map integer edge tags to
one of::

    noslip
    velocity <ux> <uy>
    parabolic <scale> <y0> <y1>     u = (scale (y-y0)(y1-y), 0)
    outflow                          zero-traction outlet

Exit codes: 0 success, 1 solver or check failure, 2 config/mesh error.
The environment variable EGNS_THREADS caps the worker count used by the
converge subcommand; --serial forces single-threaded execution.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .assembly import SteadyProblem
from .eg_space import EGField, element_divergence, element_ops, local_dof_vectors
from .mesh import MeshError, build_rect_uniform, build_step_domain, import_mesh
from .reconstruction import rt_at_centroids
from .solver import (
    NewtonConfig,
    NonConvergenceError,
    SolverError,
    default_schedule,
    newton_solve,
    nu_continuation,
)
from .verification import (
    STEP_RECIRCULATION_BOX,
    ConvergenceTable,
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

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """The run configuration cannot be parsed or is inconsistent."""


# section -> key -> parser; keys not listed here are rejected
_SCHEMA = {
    "experiment": {"name": "str"},
    "mesh": {
        "generator": "str",
        "resolution": "int",
        "levels": "ints",
        "h": "float",
        "path": "str",
    },
    "physics": {
        "nu": "float",
        "reynolds": "float",
        "reynolds_scale": "float",
        "continuation": "bool",
        "ra": "float",
        "inlet": "str",
        "forcing_scale": "float",
        "threshold": "float",
    },
    "newton": {"rel_tol": "float", "max_iter": "int"},
    "output": {"directory": "str"},
}

# (section, key) -> RunConfig attribute, where the names differ
_ATTR = {("mesh", "path"): "mesh_path", ("output", "directory"): "out_dir"}


@dataclass
class RunConfig:
    name: str = "egns"
    generator: Optional[str] = None
    resolution: Optional[int] = None
    levels: Optional[list] = None
    h: Optional[float] = None
    mesh_path: Optional[str] = None
    nu: Optional[float] = None
    reynolds: Optional[float] = None
    reynolds_scale: float = 1.0
    continuation: bool = False
    ra: float = 1000.0
    inlet: str = "parabolic"
    forcing_scale: float = 1.0
    threshold: Optional[float] = None
    rel_tol: float = 1e-7
    max_iter: int = 1000
    out_dir: Path = Path(".")
    serial: bool = False
    boundary: dict = field(default_factory=dict)


def _parse_value(section, key, raw, kind):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not np.isfinite(value):
                raise ConfigError(f"[{section}] {key}: {raw!r} is not finite")
            return value
        if kind == "ints":
            vals = [int(tok) for tok in raw.split()]
            if not vals:
                raise ValueError("empty list")
            return vals
        if kind == "bool":
            states = configparser.ConfigParser.BOOLEAN_STATES
            if raw.lower() not in states:
                raise ValueError("not a boolean")
            return states[raw.lower()]
        return raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind}"
        ) from None


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    cfg = RunConfig()
    for section in parser.sections():
        if section == "boundary":
            for key, raw in parser.items("boundary"):
                try:
                    tag = int(key)
                except ValueError:
                    raise ConfigError(
                        f"[boundary] keys are integer edge tags, got {key!r}"
                    ) from None
                cfg.boundary[tag] = raw.strip()
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            value = _parse_value(section, key, raw, _SCHEMA[section][key])
            attr = _ATTR.get((section, key), key)
            if attr == "out_dir":
                value = Path(value)
            setattr(cfg, attr, value)

    if cfg.nu is not None and cfg.reynolds is not None:
        raise ConfigError("set either [physics] nu or reynolds, not both")
    if cfg.nu is not None and cfg.nu <= 0:
        raise ConfigError("[physics] nu must be positive")
    if cfg.reynolds is not None and cfg.reynolds <= 0:
        raise ConfigError("[physics] reynolds must be positive")
    if cfg.reynolds_scale <= 0:
        raise ConfigError("[physics] reynolds_scale must be positive")
    if cfg.resolution is not None and cfg.resolution < 1:
        raise ConfigError("[mesh] resolution must be at least 1")
    if cfg.levels is not None and any(n < 1 for n in cfg.levels):
        raise ConfigError("[mesh] levels must be positive integers")
    if cfg.h is not None and cfg.h <= 0:
        raise ConfigError("[mesh] h must be positive")
    if cfg.ra < 0:
        raise ConfigError("[physics] ra cannot be negative")
    if cfg.rel_tol <= 0 or cfg.max_iter < 1:
        raise ConfigError("[newton] settings out of range")
    return cfg


def _resolve_nu(cfg: RunConfig, default: Optional[float] = None) -> float:
    if cfg.nu is not None:
        return cfg.nu
    if cfg.reynolds is not None:
        return 1.0 / (cfg.reynolds * cfg.reynolds_scale)
    if default is None:
        raise ConfigError("viscosity required: set [physics] nu or reynolds")
    return default


def _newton_config(cfg: RunConfig) -> NewtonConfig:
    return NewtonConfig(rel_tol=cfg.rel_tol, max_iter=cfg.max_iter)


def worker_count(serial: bool, jobs: int) -> int:
    """Workers for level-parallel runs, honoring EGNS_THREADS."""
    if serial or jobs <= 1:
        return 1
    env = os.environ.get("EGNS_THREADS", "")
    cap = None
    if env:
        try:
            cap = max(1, int(env))
        except ValueError:
            logger.warning("ignoring unparsable EGNS_THREADS=%r", env)
    if cap is None:
        cap = os.cpu_count() or 1
    return max(1, min(jobs, cap))


_F = "{:.15e}".format


def write_vtk(mesh, solution, path) -> None:
    """Write a solution as a legacy ASCII VTK unstructured grid.

    Point data: the continuous velocity (z = 0). Cell data: total
    pressure, kinematic pressure, broken divergence, the scalar curl of
    the vertex part, and the flux-corrected velocity at element
    centroids. Identical inputs produce identical bytes.
    """
    fld, pressure = solution
    pressure = np.asarray(pressure, dtype=float)
    ops = element_ops(mesh)
    loc = local_dof_vectors(mesh, fld)
    cell_scalars = [
        ("pressure", pressure),
        ("kinematic_pressure", kinematic_pressure(mesh, fld, pressure)),
        ("divergence", element_divergence(mesh, fld)),
        ("vorticity", np.einsum("tk,tk->t", ops["curl"], loc[:, :6])),
    ]
    recon = rt_at_centroids(mesh, fld)

    out = [
        "# vtk DataFile Version 3.0",
        "incompressible flow solution",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    zero = _F(0.0)
    for x, y in mesh.vertices:
        out.append(f"{_F(x + 0.0)} {_F(y + 0.0)} {zero}")
    out.append(f"CELLS {mesh.num_triangles} {4 * mesh.num_triangles}")
    for i, j, k in mesh.triangles:
        out.append(f"3 {i} {j} {k}")
    out.append(f"CELL_TYPES {mesh.num_triangles}")
    out.extend(["5"] * mesh.num_triangles)

    out.append(f"POINT_DATA {mesh.num_vertices}")
    out.append("VECTORS velocity double")
    for ux, uy in fld.vertex_values:
        out.append(f"{_F(ux + 0.0)} {_F(uy + 0.0)} {zero}")

    out.append(f"CELL_DATA {mesh.num_triangles}")
    for name, arr in cell_scalars:
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out.extend(_F(v + 0.0) for v in arr)
    out.append("VECTORS reconstructed_velocity double")
    for vx, vy in recon:
        out.append(f"{_F(vx + 0.0)} {_F(vy + 0.0)} {zero}")

    path = Path(path)
    try:
        path.write_text("\n".join(out) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write VTK file {path}: {exc}") from exc


def _ensure_out(cfg: RunConfig) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir


def _log_report(report) -> None:
    logger.info("%s", report.to_log())


def _solve(cfg: RunConfig, factory, nu: float, ncfg: NewtonConfig):
    """Solve at viscosity nu, through the viscosity ladder if configured.

    factory maps a viscosity to a SteadyProblem. Returns the solution and
    the Newton reports, one per continuation stage.
    """
    if cfg.continuation:
        return nu_continuation(factory, default_schedule(nu), ncfg)
    sol, report = newton_solve(factory(nu), ncfg)
    return sol, [report]


def cmd_converge(cfg: RunConfig) -> int:
    levels = cfg.levels or [16, 32, 64, 128]
    nu = _resolve_nu(cfg, 1.0)
    ncfg = _newton_config(cfg)

    def run_level(n):
        mesh = build_rect_uniform(n, n)
        sol, reports = _solve(
            cfg, lambda v: case_vortex_2d(v).problem(mesh), nu, ncfg
        )
        case = case_vortex_2d(nu)
        errs = error_norms(
            mesh, sol, case.velocity, case.pressure, case.velocity_gradient
        )
        return errs, sum(r.iterations for r in reports)

    done = []
    failure = None
    workers = worker_count(cfg.serial, len(levels))
    if workers == 1:
        for n in levels:
            try:
                done.append(run_level(n))
            except SolverError as exc:
                failure = (n, exc)
                break
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_level, n) for n in levels]
            for n, fut in zip(levels, futures):
                try:
                    done.append(fut.result())
                except SolverError as exc:
                    failure = (n, exc)
                    # later levels would be discarded: drop those not started
                    pool.shutdown(cancel_futures=True)
                    break

    for n, (errs, iters) in zip(levels, done):
        logger.info(
            "level n=%d: e_l2=%.4e  e_h1=%.4e  e_p=%.4e  (%d Newton iterations)",
            n,
            *errs,
            iters,
        )

    hs = [1.0 / n for n in levels[: len(done)]]
    errs = [d[0] for d in done]
    if len(done) >= 2:
        table = convergence_table(hs, errs)
        print(table.to_log())
    else:
        # orders need two levels: write the errors with blank orders
        table = ConvergenceTable(
            h=np.asarray(hs, dtype=float),
            errors=np.asarray(errs, dtype=float).reshape(-1, 3),
            orders=np.full((len(hs), 3), np.nan),
        )
    csv = table.to_csv()

    out = _ensure_out(cfg) / "convergence.csv"
    out.write_text(csv)
    print(f"wrote {out}")
    if failure is not None:
        n, exc = failure
        print(f"level n={n} failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_noflow(cfg: RunConfig) -> int:
    n = cfg.resolution or 32
    nu = _resolve_nu(cfg, 1.0)
    mesh = build_rect_uniform(n, n)
    problem = case_noflow(cfg.ra).problem(mesh, nu=nu)
    sol, report = newton_solve(problem, _newton_config(cfg))
    _log_report(report)
    fld = sol[0]
    mx = float(np.abs(fld.vertex_values[:, 0]).max())
    my = float(np.abs(fld.vertex_values[:, 1]).max())
    mb = float(np.abs(fld.edge_values).max())
    threshold = cfg.threshold if cfg.threshold is not None else 1e-9 * cfg.ra
    print(f"max |u0_x| = {mx:.6e}")
    print(f"max |u0_y| = {my:.6e}")
    print(f"max |u_b|  = {mb:.6e}")
    print(f"threshold  = {threshold:.6e}")
    ok = max(mx, my) <= threshold
    print(f"noflow: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_cavity(cfg: RunConfig) -> int:
    n = cfg.resolution or 32
    nu = _resolve_nu(cfg, 1.0)
    mesh = build_rect_uniform(n, n)
    ncfg = _newton_config(cfg)

    plain = case_cavity("f1", nu)
    forced = case_cavity("f2", nu)
    body = forced.body_force
    if cfg.forcing_scale != 1.0:
        scale = cfg.forcing_scale
        inner = forced.body_force
        body = lambda xy: scale * inner(xy)

    sol1, rep1 = newton_solve(plain.problem(mesh), ncfg)
    sol2, rep2 = newton_solve(forced.problem(mesh, body_force=body), ncfg)
    _log_report(rep1)
    _log_report(rep2)

    denom = velocity_l2_norm(mesh, sol1[0])
    diff = velocity_l2_difference(mesh, sol1[0], sol2[0])
    rel = diff / denom if denom > 0 else diff
    print(f"relative velocity difference = {rel:.6e}")

    out = _ensure_out(cfg)
    write_vtk(mesh, sol1, out / "cavity_f1.vtk")
    write_vtk(mesh, sol2, out / "cavity_f2.vtk")
    dfield = EGField(
        sol2[0].vertex_values - sol1[0].vertex_values,
        sol2[0].edge_values - sol1[0].edge_values,
    )
    write_vtk(mesh, (dfield, sol2[1] - sol1[1]), out / "cavity_diff.vtk")
    for name in ("cavity_f1.vtk", "cavity_f2.vtk", "cavity_diff.vtk"):
        print(f"wrote {out / name}")
    return 0


def cmd_step(cfg: RunConfig) -> int:
    h = cfg.h or 0.25
    if cfg.reynolds is not None:
        re = cfg.reynolds * cfg.reynolds_scale
    elif cfg.nu is not None:
        re = 1.0 / cfg.nu
    else:
        re = 100.0
    try:
        case = case_step(re=re, inlet=cfg.inlet)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    mesh = build_step_domain(h)
    logger.info(
        "step mesh: h=%g, %d vertices, %d triangles, Re=%g",
        h,
        mesh.num_vertices,
        mesh.num_triangles,
        re,
    )
    sol, reports = _solve(
        cfg, case.problem(mesh).with_nu, case.nu, _newton_config(cfg)
    )
    _log_report(reports[-1])
    print(f"Newton iterations: {sum(r.iterations for r in reports)}")

    hit, mn, reversed_flow = recirculation_detect(
        mesh, sol[0], STEP_RECIRCULATION_BOX
    )
    print(f"recirculation: {hit} (min u_x = {mn:.6e})")
    if hit:
        x = mesh.vertices[reversed_flow, 0]
        print(f"approximate reattachment x = {float(x.max()):.3f}")

    out = _ensure_out(cfg)
    write_vtk(mesh, sol, out / "step.vtk")
    print(f"wrote {out / 'step.vtk'}")
    return 0


def _const_velocity(ux, uy):
    val = np.array([ux, uy])

    def fn(xy):
        return np.broadcast_to(val, xy.shape).copy()

    return fn


def _parabolic_velocity(scale, y0, y1):
    def fn(xy):
        y = xy[..., 1]
        return np.stack(
            [scale * (y - y0) * (y1 - y), np.zeros_like(y)], axis=-1
        )

    return fn


# boundary recipe -> number of numeric arguments
_RECIPE_ARITY = {"noslip": 0, "velocity": 2, "parabolic": 3, "outflow": 0}


def _boundary_setup(cfg: RunConfig, mesh):
    if not cfg.boundary:
        raise ConfigError("the run subcommand needs a [boundary] section")
    present = {int(t) for t in mesh.boundary_tags[mesh.boundary_edge_indices]}
    given = set(cfg.boundary)
    if present - given:
        raise ConfigError(
            f"no boundary recipe for tag(s) {sorted(present - given)}"
        )
    if given - present:
        raise ConfigError(
            f"boundary recipe for nonexistent tag(s) {sorted(given - present)}"
        )

    noslip, dirichlet, neumann = [], [], []
    for tag in sorted(cfg.boundary):
        recipe = cfg.boundary[tag]
        kind, *words = recipe.split() or [""]
        if _RECIPE_ARITY.get(kind) != len(words):
            raise ConfigError(f"unknown boundary recipe {recipe!r} for tag {tag}")
        try:
            nums = [float(w) for w in words]
        except ValueError:
            raise ConfigError(f"bad numbers in boundary recipe {recipe!r}") from None
        if not np.isfinite(nums).all():
            raise ConfigError(f"non-finite number in boundary recipe {recipe!r}")
        if kind == "noslip":
            noslip.append(((tag,), _const_velocity(0.0, 0.0)))
        elif kind == "velocity":
            dirichlet.append(((tag,), _const_velocity(*nums)))
        elif kind == "parabolic":
            dirichlet.append(((tag,), _parabolic_velocity(*nums)))
        else:
            neumann.append(tag)
    # later segments win at shared corners, so walls go first and the lid
    # or inflow keeps its corners, as in case_cavity
    return noslip + dirichlet, tuple(neumann)


def _build_mesh(cfg: RunConfig):
    generator = cfg.generator or "unit_square"
    if generator == "unit_square":
        n = cfg.resolution or 32
        return build_rect_uniform(n, n)
    if generator == "step":
        return build_step_domain(cfg.h or 0.25)
    if generator == "import":
        if not cfg.mesh_path:
            raise ConfigError("[mesh] path is required for generator = import")
        return import_mesh(cfg.mesh_path)
    raise ConfigError(f"unknown mesh generator {generator!r}")


def cmd_run(cfg: RunConfig) -> int:
    mesh = _build_mesh(cfg)
    dirichlet, neumann = _boundary_setup(cfg, mesh)
    nu = _resolve_nu(cfg)
    problem = SteadyProblem(
        mesh, nu=nu, dirichlet=dirichlet, neumann_tags=neumann
    )
    sol, reports = _solve(cfg, problem.with_nu, nu, _newton_config(cfg))
    _log_report(reports[-1])
    out = _ensure_out(cfg)
    write_vtk(mesh, sol, out / "run.vtk")
    print(f"wrote {out / 'run.vtk'}")
    return 0


COMMANDS = {
    "converge": cmd_converge,
    "noflow": cmd_noflow,
    "cavity": cmd_cavity,
    "step": cmd_step,
    "run": cmd_run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="egns",
        description="Pressure-robust enriched Galerkin solver for steady "
        "incompressible Navier-Stokes flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else None)
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--serial", action="store_true", help="disable level parallelism"
        )
    args = parser.parse_args(argv)

    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="%(message)s", stream=sys.stderr
        )

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        cfg.serial = bool(args.serial)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            _log_report(exc.report)
        return 1
    except SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
