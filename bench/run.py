"""Time-to-solution benchmark for the egns command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload again and again for S seconds, each repetition
in fresh child processes that call ``egns.cli.main`` on generated INI
configs, and checks every output.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from spans recorded around
each layer's entry points (see README.md).  The last line of standard
output is one JSON object; the exit code is 1 if any output check failed
and 2 if the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference as ref
from spans import PROBE_PREFIX, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

# a child that takes longer than this is killed and its repetition fails
CHILD_TIMEOUT_S = 120.0

# set-up-only samples taken after each untraced repetition: set-up is a
# small, noisy share of a repetition, so its median needs more samples
SETUP_SAMPLES_PER_REP = 2

# workload -> sub-runs, each an egns command and its config sections
WORKLOADS = {
    "vortex-continuation": (
        ("converge", {"mesh": {"levels": "64"},
                      "physics": {"nu": "1e-5", "continuation": "yes"}}),
    ),
    "vortex-refine": (
        ("converge", {"mesh": {"levels": "16 32 64 96"}, "physics": {"nu": "1"}}),
    ),
    "small-flows": (
        ("cavity", {"mesh": {"resolution": "32"}}),
        ("step", {"mesh": {"h": "0.125"}, "physics": {"reynolds": "100"}}),
        ("noflow", {"mesh": {"resolution": "32"}}),
    ),
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "err_ratio": "ratio",
}

PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.triangles": "count",
    "mesh.edges": "count",
    "eg_space.element_ops_s": "s",
    "assembly.newton_system_s": "s",
    "assembly.newton_system_calls": "count",
    "assembly.convection_s": "s",
    "assembly.dirichlet_s": "s",
    "assembly.neumann_s": "s",
    "assembly.load_s": "s",
    "solver.factor_s": "s",
    "solver.factorizations": "count",
    "solver.lu_fill_max": "count",
    "solver.fill_ratio": "ratio",
    "solver.lu_bytes_computed": "bytes",
    "solver.saddle_dim": "count",
    "solver.saddle_nnz": "count",
    "solver.saddle_other_s": "s",
    "solver.newton_self_s": "s",
    "solver.newton_iters": "count",
    "solver.stages": "count",
    "solver.iters_per_stage": "ratio",
    "solver.stage_success_ratio": "ratio",
    "reconstruction.s": "s",
    "verification.case_s": "s",
    "verification.error_norms_s": "s",
    "verification.checks_s": "s",
    "cli.config_s": "s",
    "cli.write_vtk_s": "s",
    "cli.vtk_bytes": "bytes",
    "cli.parallel_eff": "ratio",
    "trace_overhead_frac": "ratio",
}

# span name -> per-layer metric holding the sum of its self times
SELF_TIME_METRICS = {
    "mesh.build": "mesh.build_s",
    "eg_space.element_ops": "eg_space.element_ops_s",
    "assembly.newton_system": "assembly.newton_system_s",
    "assembly.convection": "assembly.convection_s",
    "assembly.dirichlet": "assembly.dirichlet_s",
    "assembly.neumann": "assembly.neumann_s",
    "assembly.load": "assembly.load_s",
    "solver.factor": "solver.factor_s",
    "solver.solve_saddle": "solver.saddle_other_s",
    "solver.newton": "solver.newton_self_s",
    "reconstruction": "reconstruction.s",
    "verification.case": "verification.case_s",
    "verification.error_norms": "verification.error_norms_s",
    "verification.checks": "verification.checks_s",
    "cli.config": "cli.config_s",
    "cli.write_vtk": "cli.write_vtk_s",
}

# bytes per stored LU entry: a float64 value and an int32 row index
LU_ENTRY_BYTES = 12


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


# ----------------------------------------------------------------- children


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["EGNS_THREADS"] = str(nproc())
    return env


def run_child(mode, record, cli_args):
    """Run child.py; returns (stdout, wall seconds, record).

    Raises CheckFailed when the child exits non-zero, writes no record or
    imports egns from outside this checkout.
    """
    what = cli_args[0] if cli_args else mode
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(record), *cli_args]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{what} killed after {CHILD_TIMEOUT_S:.0f} s") from None
    finally:
        # also reached when this process is interrupted or terminated
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - start
    try:
        data = json.loads(Path(record).read_text())
    except (OSError, ValueError):
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise CheckFailed(f"{what} wrote no record (exit {proc.returncode}):\n{tail}")
    if Path(data["egns_file"]).resolve().parent != (SRC / "egns").resolve():
        raise CheckFailed(f"imported egns from {data['egns_file']}, not from {SRC}")
    if proc.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise CheckFailed(f"{what} exited {proc.returncode}:\n{tail}")
    return stdout, wall, data


def write_config(path, sections):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------------- checks


def _read_csv_errors(path):
    rows = path.read_text().strip().splitlines()[1:]
    return [tuple(float(c) for c in row.split(",")[1:6:2]) for row in rows]


def check_converge(workload, sections, out, stdout):
    levels = [int(n) for n in sections["mesh"]["levels"].split()]
    errors = _read_csv_errors(out / "convergence.csv")
    if len(errors) != len(levels):
        raise CheckFailed(f"convergence.csv has {len(errors)} rows, expected {len(levels)}")
    ratios = []
    for n, errs in zip(levels, errors):
        for e, band, pinned in zip(errs, ref.REF_ERRORS_NU1[n],
                                   ref.PINNED_ERRORS[workload][n]):
            if not ref.BAND_LOW <= e / band <= ref.BAND_HIGH:
                raise CheckFailed(f"n={n}: error {e:.6e} outside the band around {band:.6e}")
            ratios.append(e / pinned)
    if float(sections["physics"]["nu"]) < 1.0:
        for n, errs in zip(levels, errors):
            for e, e1 in zip(errs, ref.PINNED_NU1[n]):
                if e > ref.ROBUSTNESS_MAX * e1:
                    raise CheckFailed(f"n={n}: small-viscosity error {e:.6e} > "
                                      f"{ref.ROBUSTNESS_MAX} x {e1:.6e}")
    if len(levels) >= 2:
        (n0, e0), (n1, e1) = list(zip(levels, errors))[-2:]
        for a, b, least in zip(e0, e1, ref.MIN_ORDERS):
            order = math.log(a / b) / math.log(n1 / n0)
            if order < least:
                raise CheckFailed(f"finest-level order {order:.3f} below {least}")
    return max(ratios)


def _check_vtk(path):
    text = path.read_text()
    if not text.startswith("# vtk DataFile"):
        raise CheckFailed(f"{path.name} is not a VTK file")
    if "VECTORS reconstructed_velocity" not in text:
        raise CheckFailed(f"{path.name} lacks the reconstructed velocity")


def _number_after(label, stdout):
    match = re.search(re.escape(label) + r"\s*([-+0-9.eE]+)", stdout)
    if match is None:
        raise CheckFailed(f"output lacks {label!r}")
    return float(match.group(1))


def check_cavity(workload, sections, out, stdout):
    rel = _number_after("relative velocity difference =", stdout)
    if not rel <= ref.CAVITY_INVARIANCE_MAX:
        raise CheckFailed(f"cavity invariance {rel:.3e} > {ref.CAVITY_INVARIANCE_MAX}")
    for name in ("cavity_f1.vtk", "cavity_f2.vtk", "cavity_diff.vtk"):
        _check_vtk(out / name)
    return None


def check_step(workload, sections, out, stdout):
    if "recirculation: True" not in stdout:
        raise CheckFailed("no recirculation detected behind the step")
    _check_vtk(out / "step.vtk")
    min_ux = _number_after("min u_x =", stdout)
    return 1.0 + abs(min_ux - ref.PINNED_STEP_MIN_UX) / abs(ref.PINNED_STEP_MIN_UX)


def check_noflow(workload, sections, out, stdout):
    if "noflow: PASS" not in stdout:
        raise CheckFailed("noflow reported spurious velocity")
    return None


CHECKS = {
    "converge": check_converge,
    "cavity": check_cavity,
    "step": check_step,
    "noflow": check_noflow,
}


# -------------------------------------------------------------- repetitions


def sub_run(mode, command, sections, rep_dir):
    """One egns command in a child; returns (stdout, wall, record, out dir)."""
    out = rep_dir / command
    out.mkdir(parents=True)
    config = out / "run.ini"
    write_config(config, sections)
    stdout, wall, data = run_child(
        mode, out / "record.json", [command, "--config", str(config), "--out", str(out)]
    )
    return stdout, wall, data, out


def run_rep(workload, order, mode, rep_dir):
    """One repetition: every sub-run in order, each in its own process.

    Returns a sample dict; raises CheckFailed if any output is wrong.
    """
    sample = {"run_s": 0.0, "setup_s": 0.0, "solve_s": 0.0, "peak_rss_mb": 0.0,
              "records": {}}
    err_ratios = []
    for command, sections in order:
        stdout, wall, data, out = sub_run(mode, command, sections, rep_dir)
        ratio = CHECKS[command](workload, sections, out, stdout)
        if ratio is not None:
            err_ratios.append(ratio)
        sample["run_s"] += wall
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], data["peak_rss_mb"])
        if mode == "plain":
            sample["setup_s"] += data["setup_s"]
            sample["solve_s"] += data["solve_s"]
        sample["records"][command] = data
    sample["err_ratio"] = max(err_ratios) if err_ratios else None
    return sample


def setup_sample(order, rep_dir):
    """Set-up seconds of every sub-run, each stopped at its first solve."""
    return sum(sub_run("setup", command, sections, rep_dir)[2]["setup_s"]
               for command, sections in order)


def layer_metrics(records):
    """Per-layer metrics from the trace records of one repetition."""
    m = dict.fromkeys(PER_LAYER, 0)
    fill = []  # (L.nnz + U.nnz, nnz(K)) per factorization
    level_s = command_s = 0.0
    workers = 1
    stages_ok = 0
    for data in records:
        spans = data["spans"]
        own = self_times(spans)
        for s in spans:
            name, counts = s["name"], s["counts"]
            if name in SELF_TIME_METRICS:
                m[SELF_TIME_METRICS[name]] += own[s["id"]]
            if name == "mesh.build":
                m["mesh.triangles"] += counts["triangles"]
                m["mesh.edges"] += counts["edges"]
            elif name == "assembly.newton_system":
                m["assembly.newton_system_calls"] += 1
            elif name == "solver.factor":
                m["solver.factorizations"] += 1
                m["solver.saddle_dim"] = max(m["solver.saddle_dim"], counts["dim"])
                m["solver.saddle_nnz"] = max(m["solver.saddle_nnz"], counts["nnz"])
                fill.append((counts["fill"], counts["nnz"]))
            elif name == "solver.newton":
                m["solver.stages"] += 1
                if s["ok"]:
                    stages_ok += 1
                    m["solver.newton_iters"] += counts["iters"]
            elif name == "cli.write_vtk":
                m["cli.vtk_bytes"] += counts["bytes"]
            elif name == "cli.level":
                level_s += s["end"] - s["start"]
            elif name == "cli.command":
                command_s += s["end"] - s["start"]
        workers = max(workers, data["workers"])
    if fill:
        top, nnz = max(fill)
        m["solver.lu_fill_max"] = top
        m["solver.fill_ratio"] = top / nnz
        m["solver.lu_bytes_computed"] = top * LU_ENTRY_BYTES
    if m["solver.stages"]:
        m["solver.iters_per_stage"] = m["solver.newton_iters"] / m["solver.stages"]
        m["solver.stage_success_ratio"] = stages_ok / m["solver.stages"]
    # a workload without level parallelism runs on one worker, all busy
    m["cli.parallel_eff"] = level_s / (workers * command_s) if level_s else 1.0
    return m


def largest_self_time(records):
    """(span name, seconds) of the layer with the most self time."""
    total = defaultdict(float)
    for data in records:
        own = self_times(data["spans"])
        for s in data["spans"]:
            if not s["name"].startswith(PROBE_PREFIX):
                total[s["name"]] += own[s["id"]]
    return max(total.items(), key=lambda kv: kv[1])


# ------------------------------------------------------------------ reports


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        refname = text[5:]
        loose = ROOT / ".git" / refname
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + refname):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def summarize(values, unit):
    """Median, sample count and the highest tail percentile with >= 10
    samples beyond it, as one line."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit} (n={n}"
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            p = statistics.quantiles(values, n=100)[pct - 1]
            text += f", p{pct} {p:.6g} {unit}"
            break
    return text + ")"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn termination into an exception, so running children are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "egns" / "cli.py").is_file():
        print(f"egns sources not found under {SRC}", file=sys.stderr)
        return 2

    # the seed orders the sub-runs and, in a traced run, whether the first
    # repetition is traced; program inputs are the fixed configs above
    rng = random.Random(args.seed)
    order = list(WORKLOADS[args.workload])
    rng.shuffle(order)
    modes = ["plain", "trace"] if args.trace else ["plain"]
    rng.shuffle(modes)

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _, _, probe = run_child("probe", work / "probe.json", [])
    except CheckFailed as exc:
        print(f"cannot start egns: {exc}", file=sys.stderr)
        return 2
    env = probe["env"]
    env["commit"] = git_commit()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, sub-run order "
          f"{[c for c, _ in order]}, closed loop, 1 client")

    samples = {mode: [] for mode in modes}
    setups = []
    failures = []
    attempted = 0
    start = time.perf_counter()
    while attempted < len(modes) or time.perf_counter() - start < args.seconds:
        mode = modes[attempted % len(modes)]
        rep_dir = work / f"rep{attempted}"
        attempted += 1
        try:
            sample = run_rep(args.workload, order, mode, rep_dir)
            if mode == "plain" and not args.trace:
                setups.append(sample["setup_s"])
                for i in range(SETUP_SAMPLES_PER_REP):
                    setups.append(setup_sample(order, rep_dir / f"setup{i}"))
            samples[mode].append(sample)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            failures.append(f"rep {attempted - 1} ({mode}): {exc}")
        shutil.rmtree(rep_dir, ignore_errors=True)

    for line in failures:
        print("FAILED " + line)
    print(f"fail_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")

    metrics = {}
    plain = samples["plain"]
    if args.trace == 0 and plain:
        for name, unit in END_TO_END.items():
            values = setups if name == "setup_s" else [s[name] for s in plain]
            if name == "err_ratio":
                # deterministic: report the worst repetition
                metrics[name] = {"value": max(values), "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{name} = {summarize(values, unit)}")
    elif args.trace == 1 and plain and samples["trace"]:
        traced = samples["trace"]
        per_rep = [layer_metrics(s["records"].values()) for s in traced]
        overhead = (statistics.median(s["run_s"] for s in traced)
                    / statistics.median(s["run_s"] for s in plain) - 1.0)
        for name, unit in PER_LAYER.items():
            value = overhead if name == "trace_overhead_frac" else statistics.median(
                m[name] for m in per_rep)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
        top, secs = largest_self_time(traced[0]["records"].values())
        print(f"largest self time: {top} {secs:.6g} s")

    correct = not failures and bool(metrics)
    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "order": [c for c, _ in order], "env": env,
        "attempted": attempted, "failures": failures, "metrics": metrics,
        "samples": {mode: [{k: v for k, v in s.items() if k != "records"} for s in reps]
                    for mode, reps in samples.items()},
        "setup_samples": setups,
    }
    (work / "result.json").write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
