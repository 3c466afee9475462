"""One egns CLI command in a fresh process, timed or traced.

    python3 child.py MODE RECORD [CLI-ARGS...]

MODE is one of

``plain``
    Untraced.  The only instrumentation is one timer at the solve entry
    points (``newton_solve`` and ``nu_continuation``), which splits the
    run into set-up (``import egns`` up to the first solve call) and
    solve (first solve call to the last one returning).
``trace``
    Spans around the public entry points of every layer, see ``TARGETS``.
``setup``
    Stops the process at the first solve call, having recorded only the
    set-up time; this gives more set-up samples at little cost.
``probe``
    Runs no command; records the environment fingerprint.  Importing egns
    here also warms the file cache and the bytecode cache before any
    timed run.

The record is written to RECORD as JSON.  The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import sys
import threading
import time

from spans import Tracer

# the calls that start solving: set-up ends at the first of them
SOLVE_ENTRY_POINTS = ("newton_solve", "nu_continuation")

# (module, attribute, span name): the public entry points of each layer.
# quadrature has no entry: its rules are built inside the assembly and
# verification calls and cached there, so their cost lands in those spans.
TARGETS = [
    ("egns.mesh", "build_rect_uniform", "mesh.build"),
    ("egns.mesh", "build_step_domain", "mesh.build"),
    ("egns.eg_space", "element_ops", "eg_space.element_ops"),
    ("egns.assembly", "assemble_load", "assembly.load"),
    ("egns.assembly", "assemble_convection_newton", "assembly.convection"),
    ("egns.assembly", "assemble_neumann", "assembly.neumann"),
    ("egns.assembly", "apply_dirichlet", "assembly.dirichlet"),
    ("egns.assembly.SteadyProblem", "newton_system", "assembly.newton_system"),
    ("scipy.sparse.linalg", "splu", "solver.factor"),
    ("egns.solver", "solve_saddle", "solver.solve_saddle"),
    ("egns.solver", "newton_solve", "solver.newton"),
    ("egns.solver", "nu_continuation", "solver.continuation"),
    ("egns.reconstruction", "reconstruct", "reconstruction"),
    ("egns.reconstruction", "rt_at_centroids", "reconstruction"),
    ("egns.verification", "case_vortex_2d", "verification.case"),
    ("egns.verification", "case_noflow", "verification.case"),
    ("egns.verification", "case_cavity", "verification.case"),
    ("egns.verification", "case_step", "verification.case"),
    ("egns.verification", "error_norms", "verification.error_norms"),
    ("egns.verification", "recirculation_detect", "verification.checks"),
    ("egns.verification", "velocity_l2_norm", "verification.checks"),
    ("egns.verification", "velocity_l2_difference", "verification.checks"),
    ("egns.cli", "load_config", "cli.config"),
    ("egns.cli", "write_vtk", "cli.write_vtk"),
]


def _mesh_counts(args, mesh):
    return {"triangles": mesh.num_triangles, "edges": mesh.num_edges}


def _factor_counts(args, lu):
    K = args[0]
    return {"dim": K.shape[0], "nnz": K.nnz, "fill": lu.L.nnz + lu.U.nnz}


def _newton_counts(args, result):
    return {"iters": result[1].iterations}


def _vtk_counts(args, result):
    return {"bytes": os.path.getsize(args[2])}


COUNTS = {
    "mesh.build": _mesh_counts,
    "solver.factor": _factor_counts,
    "solver.newton": _newton_counts,
    "cli.write_vtk": _vtk_counts,
}


def _resolve(dotted):
    """Import a module path, allowing a class as its last component."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def _replace(owner, attr, new):
    """Swap owner.attr for new, and every egns module's alias of it."""
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    for name, mod in list(sys.modules.items()):
        if name.startswith("egns") and getattr(mod, attr, None) is old:
            setattr(mod, attr, new)


def install_tracer(cli):
    tracer = Tracer()
    for owner, attr, name in TARGETS:
        owner = _resolve(owner)
        _replace(owner, attr, tracer.wrap(getattr(owner, attr), name, COUNTS.get(name)))
    for key, fn in cli.COMMANDS.items():
        cli.COMMANDS[key] = tracer.wrap(fn, "cli.command")

    class TracedPool(cli.ThreadPoolExecutor):
        """Level workers: each submitted level is a span of the submitter."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.workers = self._max_workers

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            return super().submit(tracer.call, "cli.level", fn, args, kwargs, None, parent)

    cli.ThreadPoolExecutor = TracedPool
    tracer.workers = 1
    return tracer


def install_solve_timer():
    """Record (start, end) of every solve call; nothing else is timed."""
    import egns.solver

    calls = []

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((start, time.perf_counter()))

        return wrapper

    for attr in SOLVE_ENTRY_POINTS:
        _replace(egns.solver, attr, timed(getattr(egns.solver, attr)))
    return calls


def install_setup_stop(t0, record, record_path):
    """End the process at the first solve call, recording set-up time."""
    import egns.solver

    # level workers may reach a solve call together: the first one writes
    # the record and ends the process, the others wait on the lock for that
    first = threading.Lock()

    def stop(*args, **kwargs):
        first.acquire()
        record["setup_s"] = time.perf_counter() - t0
        write_record(record, record_path)
        os._exit(0)

    for attr in SOLVE_ENTRY_POINTS:
        _replace(egns.solver, attr, stop)


def write_record(record, record_path):
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(record_path, "w") as fh:
        json.dump(record, fh)


def fingerprint():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "EGNS_THREADS")
        },
    }


def main(argv):
    mode, record_path, cli_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import egns.cli

    record = {"mode": mode, "egns_file": egns.cli.__file__}
    code = 0
    if mode == "probe":
        record["env"] = fingerprint()
    else:
        if mode == "trace":
            tracer = install_tracer(egns.cli)
        elif mode == "setup":
            install_setup_stop(t0, record, record_path)
        else:
            calls = install_solve_timer()
        try:
            code = egns.cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        t_end = time.perf_counter()
        record["wall_s"] = t_end - t0
        if mode == "trace":
            record["spans"] = tracer.as_dicts()
            record["workers"] = tracer.workers
        elif mode == "plain" and calls:
            first = min(start for start, _ in calls)
            record["setup_s"] = first - t0
            record["solve_s"] = max(end for _, end in calls) - first
    record["exit_code"] = code
    write_record(record, record_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
