"""The traced benchmark run wraps the library attributes listed in
bench/child.py TARGETS; each one must still exist, and the CLI must
accept every config that bench/run.py WORKLOADS writes.  Both files are
parsed, not imported, so these tests neither run nor change the
benchmark.

It also wraps every entry of egns.cli.COMMANDS and swaps
egns.cli.ThreadPoolExecutor for a subclass that sees every level of
``egns converge``; those seams are checked here too, as is the count of
``scipy.sparse.linalg.splu`` calls that the trace reports as
factorizations and the fill of the factor those calls return."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import egns.cli
import egns.solver
from egns.mesh import build_rect_uniform
from egns.verification import case_cavity, case_vortex_2d

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(path, name):
    """The literal value a module assigns to name, read without importing it."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no {name}")


def _resolve(dotted):
    """A module path, or a module path whose last component is a class."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def test_traced_benchmark_targets_resolve():
    targets = _literal(BENCH / "child.py", "TARGETS")
    assert targets
    for owner, attr, _span in targets:
        assert callable(getattr(_resolve(owner), attr, None)), f"{owner}.{attr}"


WORKLOADS = _literal(BENCH / "run.py", "WORKLOADS")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_configs_load(tmp_path, workload):
    for i, (command, sections) in enumerate(WORKLOADS[workload]):
        path = tmp_path / f"{i}.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        ))
        egns.cli.load_config(path, command)


def test_cli_commands_are_the_five_callables():
    assert list(egns.cli.COMMANDS) == ["converge", "noflow", "cavity", "step", "run"]
    assert all(callable(fn) for fn in egns.cli.COMMANDS.values())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_converge_submits_every_level_to_the_pool(tmp_path, monkeypatch, threads):
    submitted = []

    class RecordingPool(egns.cli.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(egns.cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setenv("EGNS_THREADS", threads)
    config = tmp_path / "run.ini"
    config.write_text("[mesh]\nlevels = 2 4 3\n")
    assert egns.cli.main(["converge", "--config", str(config), "--out", str(tmp_path)]) == 0
    # largest first; the table keeps the listed order
    assert submitted == [(4,), (3,), (2,)]
    rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx([1 / 2, 1 / 4, 1 / 3])


def test_one_factorization_per_linear_solve(monkeypatch):
    calls = {"splu": 0, "solve_saddle": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        scipy.sparse.linalg, "splu", counted("splu", scipy.sparse.linalg.splu)
    )
    monkeypatch.setattr(
        egns.solver, "solve_saddle", counted("solve_saddle", egns.solver.solve_saddle)
    )
    problem = case_cavity("f1").problem(build_rect_uniform(6, 6), 0.05)
    _, report = egns.solver.newton_solve(problem)
    assert report.iterations >= 2
    # chord steps reuse the last LU: only factored records factor
    factored = sum(r["factored"] for r in report.records)
    assert calls["splu"] == calls["solve_saddle"] == factored == report.factorizations


def test_symmetric_mode_cuts_the_fill(monkeypatch):
    # the factor solve_saddle keeps has well under the fill of the default
    # ordering: options that splu silently ignored would fail here
    real = scipy.sparse.linalg.splu
    factors = []

    def capture(K, **kwargs):
        factors.append((K, real(K, **kwargs)))
        return factors[-1][1]

    problem = case_vortex_2d().problem(build_rect_uniform(32, 32), 1e-3)
    dx = egns.solver.solve_saddle(problem, problem.newton_system(None))[0]
    system = problem.newton_system(problem.dof_map.values + dx)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", capture)
    assert not egns.solver.solve_saddle(problem, system)[2].fallback
    (K, lu), = factors
    default = real(K)
    fill = lu.L.nnz + lu.U.nnz
    assert fill < 0.7 * (default.L.nnz + default.U.nnz)


def test_traced_factor_is_the_float32_one(monkeypatch):
    # bench/child.py counts splu calls as factorizations, and reads nnz(K)
    # from the first argument and L.nnz + U.nnz from the factor returned:
    # one float32 call per solve_saddle, with the float64 factor's storage.
    # L and U leave out entries that are exactly 0.0, and those differ by
    # precision (4,603,267 against 4,607,586 of 4,611,936 at n = 96)
    real, real_saddle = scipy.sparse.linalg.splu, egns.solver.solve_saddle
    factors, saddles = [], []  # (K, factor) per splu call; K per solve_saddle

    def capture(K, **kwargs):
        factors.append((K, real(K, **kwargs)))
        return factors[-1][1]

    def saddle(problem, system):
        saddles.append(system[0])
        result = real_saddle(problem, system)
        assert len(factors) == len(saddles)
        return result

    monkeypatch.setattr(scipy.sparse.linalg, "splu", capture)
    monkeypatch.setattr(egns.solver, "solve_saddle", saddle)
    problem = case_cavity("f1").problem(build_rect_uniform(8, 8), 0.005)
    _, report = egns.solver.newton_solve(problem)
    assert report.factorizations == len(saddles) >= 2
    assert all(r["single"] for r in report.records)
    for K, (K32, lu) in zip(saddles, factors):
        assert K32.dtype == lu.L.dtype == np.float32 and K32.nnz == K.nnz
        double = real(K, **egns.solver._SYMMETRIC_MODE)
        fill = double.L.nnz + double.U.nnz
        assert lu.nnz == double.nnz
        assert abs(lu.L.nnz + lu.U.nnz - fill) <= 1e-3 * fill
