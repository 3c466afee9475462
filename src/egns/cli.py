"""Config-driven experiment runner.

Every subcommand takes its viscosity, mesh, solve and VTK output through
the same helpers and differs only in its data and its report; `egns
--help` lists them. Every subcommand resolves its viscosity once, gives
it to problem(mesh, nu), reaches it through nu_continuation and writes
into the directory given by --out. Configuration is an INI file with
sections [mesh], [physics], [newton] and [boundary].
Each RunConfig field declares the key it is read from. Unknown sections or
keys are rejected, and so is a key the chosen subcommand does not read:

    all       [physics] nu reynolds continuation; [newton] rel_tol
              max_iter
    converge  [mesh] levels
    noflow    [mesh] resolution; [physics] ra threshold
    cavity    [mesh] resolution; [physics] forcing_scale
    step      [mesh] h; [physics] inlet
    run       [mesh] generator and its key (unit_square resolution, step
              h, import path); [boundary]

[physics] continuation is obsolete: it is parsed as a boolean and
otherwise ignored. Boundary recipes (run subcommand) map integer edge
tags to one of::

    noslip
    velocity <ux> <uy>
    parabolic <scale> <y0> <y1>     u = (scale (y-y0)(y1-y), 0)
    outflow                          zero-traction outlet

Exit codes: 0 success, 1 solver or check failure, 2 config/mesh error.
The converge subcommand runs its levels largest first, one thread per CPU
this process may run on (`taskset -c 0` runs them one after another).
Each level returns the heap it freed to the system when it ends.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .assembly import SteadyProblem
from .eg_space import edge_values, element_curl, element_divergence, vertex_values
from .mesh import MeshError, build_rect_uniform, build_step_domain, import_mesh
from .reconstruction import rt_at_centroids
from .solver import NewtonConfig, SolverError, nu_continuation
from .verification import (
    STEP_RECIRCULATION_BOX,
    FlowCase,
    case_cavity,
    case_noflow,
    case_step,
    case_vortex_2d,
    constant_velocity,
    convergence_table,
    error_norms,
    kinematic_pressure,
    parabolic_velocity,
    recirculation_detect,
    velocity_l2_difference,
    velocity_l2_norm,
)

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """The run configuration cannot be parsed or is inconsistent."""


_ALL = "converge noflow cavity step run"


# range rule -> (the test a value must pass, what the error says)
_RANGES = {
    "positive": (lambda v: v > 0, "must be positive"),
    "at least 1": (lambda v: v >= 1, "must be at least 1"),
    "not negative": (lambda v: v >= 0, "cannot be negative"),
    "positive integers": (lambda v: min(v) >= 1, "must be positive integers"),
    "at least eps": (lambda v: v >= np.finfo(float).eps,
                     f"must be at least machine epsilon {np.finfo(float).eps:.3g}"),
}


def _key(section, kind, readers=_ALL, default=None, rule=None):
    """A field read from [section] under its own name as kind, to a _RANGES rule."""
    return field(default=default, metadata={"section": section, "read": (kind, readers, rule)})


@dataclass
class RunConfig:
    generator: Optional[str] = _key("mesh", "str", "run")
    resolution: Optional[int] = _key("mesh", "int", "noflow cavity run", rule="at least 1")
    levels: Optional[list] = _key("mesh", "ints", "converge", rule="positive integers")
    h: Optional[float] = _key("mesh", "float", "step run", rule="positive")
    path: Optional[str] = _key("mesh", "str", "run")
    nu: Optional[float] = _key("physics", "float", rule="positive")
    reynolds: Optional[float] = _key("physics", "float", rule="positive")
    ra: float = _key("physics", "float", "noflow", 1000.0, rule="not negative")
    inlet: str = _key("physics", "str", "step", "parabolic")
    forcing_scale: float = _key("physics", "float", "cavity", 1.0)
    threshold: Optional[float] = _key("physics", "float", "noflow", rule="not negative")
    rel_tol: float = _key("newton", "float", default=1e-7, rule="at least eps")
    max_iter: int = _key("newton", "int", default=1000, rule="at least 1")
    out_dir: Path = Path(".")  # set by --out
    boundary: dict = field(default_factory=dict)


def _schema():
    # section -> key -> (parser, the subcommands that read it, range rule);
    # other keys are rejected.  The obsolete continuation key has no field:
    # it is validated and dropped
    schema = {"physics": {"continuation": ("bool", _ALL, None)}}
    for f in fields(RunConfig):
        if f.metadata:
            schema.setdefault(f.metadata["section"], {})[f.name] = f.metadata["read"]
    return schema


_SCHEMA = _schema()


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


def load_config(path, command=None) -> RunConfig:
    """Parse an INI file; with a command, reject the keys it does not read."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # values are literal (no % interpolation), and every key is in a named section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with path.open(encoding="utf-8") as f:  # an unreadable file is an i/o error
            parser.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if parser.defaults():
        raise ConfigError("unknown config section [DEFAULT]")

    cfg = RunConfig()
    for section in parser.sections():
        if section == "boundary":
            if command not in (None, "run"):
                raise ConfigError(f"[boundary] is not read by the {command} command")
            for key, raw in parser.items("boundary"):
                try:
                    tag = int(key)
                except ValueError:
                    raise ConfigError(
                        f"[boundary] keys are integer edge tags, got {key!r}"
                    ) from None
                if tag in cfg.boundary:  # 3 and 03 name one tag
                    raise ConfigError(f"[boundary] tag {tag} is given twice")
                cfg.boundary[tag] = raw.strip()
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            kind, readers, rule = _SCHEMA[section][key]
            if command is not None and command not in readers.split():
                raise ConfigError(
                    f"[{section}] {key} is not read by the {command} command"
                )
            value = _parse_value(section, key, raw, kind)
            if rule is not None and not _RANGES[rule][0](value):
                raise ConfigError(f"[{section}] {key} {_RANGES[rule][1]}")
            if key != "continuation":
                setattr(cfg, key, value)

    if cfg.nu is not None and cfg.reynolds is not None:
        raise ConfigError("set either [physics] nu or reynolds, not both")
    return cfg


def _resolve_nu(cfg: RunConfig, default: Optional[float] = None) -> float:
    if cfg.nu is not None:
        return cfg.nu
    if cfg.reynolds is not None:
        if not 1.0 / cfg.reynolds < np.inf:
            raise ConfigError(f"[physics] reynolds {cfg.reynolds!r} is too small: "
                              "the viscosity 1/reynolds is infinite")
        return 1.0 / cfg.reynolds
    if default is None:
        raise ConfigError("viscosity required: set [physics] nu or reynolds")
    return default


def worker_count(jobs: int) -> int:
    """Workers for level-parallel runs: at most one per CPU this process
    may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every OS
    return max(1, min(jobs, len(affinity(0)) if affinity else os.cpu_count() or 1))


try:  # glibc's
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # another C library: freed heap stays
    _malloc_trim = None


_F = "%.15e"
_XY0 = f"{_F} {_F} {_F % 0.0}"  # a 2D vector with z = 0


def write_vtk(mesh, solution, path) -> None:
    """Write a solution as a legacy ASCII VTK unstructured grid.

    Point data: the continuous velocity (z = 0). Cell data: total
    pressure, kinematic pressure, broken divergence, the scalar curl of
    the vertex part, and the flux-corrected velocity at element
    centroids. Identical inputs produce identical bytes; -0.0 is
    written as 0.
    """
    u, pressure = solution
    pressure = np.asarray(pressure, dtype=float)
    cell_scalars = [
        ("pressure", pressure),
        ("kinematic_pressure", kinematic_pressure(mesh, u, pressure)),
        ("divergence", element_divergence(mesh, u)),
        ("vorticity", element_curl(mesh, u)),
    ]
    recon = rt_at_centroids(mesh, u)

    out = [
        "# vtk DataFile Version 3.0",
        "incompressible flow solution",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]

    def vectors(arr):  # + 0.0 turns -0.0 into 0.0
        return (_XY0 % (a, b) for a, b in (arr + 0.0).tolist())

    out.extend(vectors(mesh.vertices))
    out.append(f"CELLS {mesh.num_triangles} {4 * mesh.num_triangles}")
    out.extend("3 %d %d %d" % tuple(t) for t in mesh.triangles.tolist())
    out.append(f"CELL_TYPES {mesh.num_triangles}")
    out.extend(["5"] * mesh.num_triangles)

    out.append(f"POINT_DATA {mesh.num_vertices}")
    out.append("VECTORS velocity double")
    out.extend(vectors(vertex_values(mesh, u)))

    out.append(f"CELL_DATA {mesh.num_triangles}")
    for name, arr in cell_scalars:
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out.extend(_F % v for v in (arr + 0.0).tolist())
    out.append("VECTORS reconstructed_velocity double")
    out.extend(vectors(recon))

    path = Path(path)
    try:
        path.write_text("\n".join(out) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write VTK file {path}: {exc}") from exc


# mesh generator -> the one [mesh] key it reads
_GENERATOR_KEY = {"unit_square": "resolution", "step": "h", "import": "path"}


def _checked(what, read):
    """read(): a mesh or problem data built from the config, refused
    before any factorization.  Past the keys' _RANGES rules the mesh
    generators refuse only a grid too large to index; either refusal is a
    config error naming what."""
    try:
        return read()
    except (MeshError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _build_mesh(cfg: RunConfig, default_generator: str):
    generator = cfg.generator or default_generator
    if generator not in _GENERATOR_KEY:
        raise ConfigError(f"unknown mesh generator {generator!r}")
    for key in _GENERATOR_KEY.values():
        if key != _GENERATOR_KEY[generator] and getattr(cfg, key) is not None:
            raise ConfigError(f"[mesh] {key} is not read by the {generator} generator")
    if generator == "unit_square":
        n = cfg.resolution or 32
        mesh = _checked("[mesh] resolution", lambda: build_rect_uniform(n, n))
    elif generator == "step":
        mesh = _checked("[mesh] h", lambda: build_step_domain(cfg.h or 0.25))
    else:
        if not cfg.path:
            raise ConfigError("[mesh] path is required for generator = import")
        mesh = import_mesh(cfg.path)
    logger.info("%s mesh: %d vertices, %d triangles",
                generator, mesh.num_vertices, mesh.num_triangles)
    return mesh


def _solve(cfg: RunConfig, problem: SteadyProblem):
    """Solve a problem at its viscosity through viscosity continuation.

    Logs the last Newton report and returns the solution and the reports,
    one per continuation trial, rejected ones included.
    """
    ncfg = NewtonConfig(rel_tol=cfg.rel_tol, max_iter=cfg.max_iter)
    sol, reports = nu_continuation(problem, ncfg)
    logger.info("%s", reports[-1].to_log())
    return sol, reports


def _write_vtk_files(cfg: RunConfig, mesh, solutions: dict) -> None:
    """Write each solution to its file name in the output directory."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for name, sol in solutions.items():
        write_vtk(mesh, sol, cfg.out_dir / name)
        print(f"wrote {cfg.out_dir / name}")


def cmd_converge(cfg: RunConfig) -> int:
    levels = cfg.levels or [16, 32, 64, 128]
    nu, case = _resolve_nu(cfg, 1.0), case_vortex_2d()

    def solve_level(n):
        mesh = _checked("[mesh] levels", lambda: build_rect_uniform(n, n))
        problem = case.problem(mesh, nu)
        _checked("[physics] nu", lambda: problem.load_vector)
        sol, reports = _solve(cfg, problem)
        errs = error_norms(mesh, sol, case.exact)
        return errs, sum(r.iterations for r in reports), sum(r.factorizations for r in reports)

    def run_level(n):
        result = solve_level(n)
        # solve_level's mesh, LU and operators are freed now. glibc would
        # keep their pages in this thread's arena, resident beside the
        # level the other worker is solving: hand them back
        if _malloc_trim is not None:
            _malloc_trim(0)
        return result

    with ThreadPoolExecutor(max_workers=worker_count(len(levels))) as pool:
        # largest first, so that smaller levels, not the next largest,
        # run beside the largest one's LU
        futures = [None] * len(levels)
        for i in sorted(range(len(levels)), key=lambda i: -levels[i]):
            futures[i] = pool.submit(run_level, levels[i])
        # the first failure ends the run: drop the levels not started
        failed = next((f for f in as_completed(futures) if f.exception() is not None), None)
        if failed is not None:
            pool.shutdown(cancel_futures=True)

    # the table keeps the levels in order up to the first one that did not finish
    stop = next((i for i, f in enumerate(futures) if f.cancelled() or f.exception() is not None),
                len(levels))
    done = [f.result() for f in futures[:stop]]
    failure = None if failed is None else (levels[futures.index(failed)], failed.exception())
    if failure is not None and not isinstance(failure[1], SolverError):
        raise failure[1]

    for n, (errs, iters, factored) in zip(levels, done):
        logger.info(
            "level n=%d: e_l2=%.4e  e_h1=%.4e  e_p=%.4e  "
            "(%d Newton iterations, %d factorizations)",
            n,
            *errs,
            iters,
            factored,
        )

    hs = [1.0 / n for n in levels[: len(done)]]
    table = convergence_table(hs, [errs for errs, *_ in done])
    print(table.to_log())

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.out_dir / "convergence.csv"
    out.write_text(table.to_csv())
    print(f"wrote {out}")
    if failure is not None:
        n, exc = failure
        print(f"level n={n} failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_noflow(cfg: RunConfig) -> int:
    mesh = _build_mesh(cfg, "unit_square")
    problem = case_noflow(cfg.ra).problem(mesh, _resolve_nu(cfg, 1.0))
    _checked("ra", lambda: problem.load_vector)
    (u, _), _ = _solve(cfg, problem)
    mx, my = np.abs(vertex_values(mesh, u)).max(axis=0).tolist()
    mb = float(np.abs(edge_values(mesh, u)).max())
    threshold = cfg.threshold if cfg.threshold is not None else 1e-9 * cfg.ra
    print(f"max |u0_x| = {mx:.6e}")
    print(f"max |u0_y| = {my:.6e}")
    print(f"max |u_b|  = {mb:.6e}")
    print(f"threshold  = {threshold:.6e}")
    ok = max(mx, my) <= threshold
    print(f"noflow: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_cavity(cfg: RunConfig) -> int:
    mesh = _build_mesh(cfg, "unit_square")
    nu, forced = _resolve_nu(cfg, 1.0), case_cavity("f2")

    def body(xy):
        return cfg.forcing_scale * forced.body_force(xy)

    problem = replace(forced, body_force=body).problem(mesh, nu)
    _checked("forcing_scale", lambda: problem.load_vector)
    sol1, _ = _solve(cfg, case_cavity("f1").problem(mesh, nu))
    sol2, _ = _solve(cfg, problem)

    denom = velocity_l2_norm(mesh, sol1[0])
    diff = velocity_l2_difference(mesh, sol1[0], sol2[0])
    rel = diff / denom if denom > 0 else diff
    print(f"relative velocity difference = {rel:.3e}")

    _write_vtk_files(cfg, mesh, {
        "cavity_f1.vtk": sol1,
        "cavity_f2.vtk": sol2,
        "cavity_diff.vtk": (sol2[0] - sol1[0], sol2[1] - sol1[1]),
    })
    return 0


def cmd_step(cfg: RunConfig) -> int:
    case = _checked("[physics] inlet", lambda: case_step(inlet=cfg.inlet))
    mesh = _build_mesh(cfg, "step")
    sol, reports = _solve(cfg, case.problem(mesh, _resolve_nu(cfg, 0.01)))
    print(f"Newton iterations: {sum(r.iterations for r in reports)}")

    hit, mn, reversed_flow = recirculation_detect(
        mesh, sol[0], STEP_RECIRCULATION_BOX
    )
    print(f"recirculation: {hit} (min u_x = {mn:.6e})")
    if hit:
        x = mesh.vertices[reversed_flow, 0]
        print(f"approximate reattachment x = {float(x.max()):.3f}")
    _write_vtk_files(cfg, mesh, {"step.vtk": sol})
    return 0


# boundary recipe -> number of numeric arguments
_RECIPE_ARITY = {"noslip": 0, "velocity": 2, "parabolic": 3, "outflow": 0}


def _boundary_case(cfg: RunConfig, mesh):
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
            noslip.append(((tag,), constant_velocity(0.0, 0.0)))
        elif kind == "velocity":
            dirichlet.append(((tag,), constant_velocity(*nums)))
        elif kind == "parabolic":
            dirichlet.append(((tag,), parabolic_velocity(*nums)))
        else:
            neumann.append(tag)
    # later segments win at shared corners, so walls go first and the lid
    # or inflow keeps its corners, as in case_cavity
    return FlowCase(name="run", dirichlet=noslip + dirichlet, neumann_tags=tuple(neumann))


def cmd_run(cfg: RunConfig) -> int:
    mesh = _build_mesh(cfg, "unit_square")
    problem = _boundary_case(cfg, mesh).problem(mesh, _resolve_nu(cfg))
    _checked("boundary recipes", lambda: problem.dof_map)
    sol, _ = _solve(cfg, problem)
    _write_vtk_files(cfg, mesh, {"run.vtk": sol})
    return 0


# name -> (function, one-line description)
_COMMAND_TABLE = {
    "converge": (cmd_converge, "manufactured-vortex refinement study; "
                 "writes convergence.csv"),
    "noflow": (cmd_noflow, "hydrostatic balance check; reports the "
               "spurious velocity maxima"),
    "cavity": (cmd_cavity, "lid-driven cavity with and without a large "
               "gradient forcing; reports their velocity difference"),
    "step": (cmd_step, "backward-facing step channel; reports "
             "recirculation behind the step"),
    "run": (cmd_run, "any generated or imported mesh with per-tag "
            "boundary recipes"),
}
COMMANDS = {name: fn for name, (fn, _) in _COMMAND_TABLE.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="egns",
        description="Pressure-robust enriched Galerkin solver for steady "
        "incompressible Navier-Stokes flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMAND_TABLE.items():
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="%(message)s", stream=sys.stderr
        )

    try:
        cfg = load_config(args.config, args.command) if args.config else RunConfig()
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        if getattr(exc, "report", None) is not None:  # a NonConvergenceError
            logger.info("%s", exc.report.to_log())
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
