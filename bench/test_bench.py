"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The count tests run each traced workload twice (about a minute on two
cores) and require every count to repeat exactly and to match the values
pinned in reference.py.
"""

import json
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run as bench
from spans import Tracer, self_times


def _span(i, parent, start, end):
    return {"id": i, "parent": parent, "name": f"s{i}", "start": start, "end": end}


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 5.0),
        _span(2, 0, 3.0, 7.0),  # overlaps span 1, as a second worker would
        _span(3, 0, 9.0, 12.0),  # runs past its parent's end
        _span(4, 1, 2.0, 4.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[4] == pytest.approx(2.0)


def test_tracer_links_parents_and_charges_probes_to_no_layer():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", counts=lambda args, r: {"r": r})
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    spans = {s["name"]: s for s in tracer.as_dicts()}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["counts"] == {"r": 2}
    assert spans["bench.probe"]["parent"] == spans["outer"]["id"]
    assert spans["bench.probe"]["start"] >= spans["inner"]["end"]


def test_output_checks_reject_wrong_results(tmp_path):
    workload = "vortex-continuation"
    (command, sections), = bench.WORKLOADS[workload]
    pinned = ref.PINNED_ERRORS[workload][64]
    csv = "h,e_l2,order,e_h1,order,e_p,order\n0.015625,{:e},,{:e},,{:e},\n"
    (tmp_path / "convergence.csv").write_text(csv.format(*pinned))
    assert bench.check_converge(workload, sections, tmp_path, "") == 1.0
    (tmp_path / "convergence.csv").write_text(csv.format(*(3 * e for e in pinned)))
    with pytest.raises(bench.CheckFailed):
        bench.check_converge(workload, sections, tmp_path, "")
    with pytest.raises(bench.CheckFailed):
        bench.check_step("small-flows", {}, tmp_path, "recirculation: False")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-flows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_counts(workload, commands, rep_dir):
    order = [sub for sub in bench.WORKLOADS[workload] if sub[0] in commands]
    sample = bench.run_rep(workload, order, "trace", rep_dir)
    metrics = bench.layer_metrics(sample["records"].values())
    return {k: v for k, v in metrics.items() if bench.PER_LAYER[k] == "count"}


@pytest.mark.parametrize(
    "key, workload, commands",
    [
        ("vortex-continuation", "vortex-continuation", ("converge",)),
        ("vortex-refine", "vortex-refine", ("converge",)),
        ("step", "small-flows", ("step",)),
    ],
)
def test_counts_repeat_exactly(key, workload, commands, tmp_path):
    first = _traced_counts(workload, commands, tmp_path / "first")
    second = _traced_counts(workload, commands, tmp_path / "second")
    assert first == second
    for name, value in ref.EXPECTED_COUNTS[key].items():
        assert first[name] == value, name


def test_benchmark_json_names_the_metrics_run_py_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_setup_stop_writes_one_whole_record_when_workers_race(tmp_path):
    # eight tiny levels on eight workers reach their first solve together
    config = tmp_path / "run.ini"
    config.write_text("[mesh]\nlevels = 2 2 2 2 2 2 2 2\n")
    env = dict(bench.child_env(), EGNS_THREADS="8")
    for i in range(10):
        record = tmp_path / f"record{i}.json"
        proc = subprocess.run(
            [sys.executable, str(bench.BENCH / "child.py"), "setup", str(record),
             "converge", "--config", str(config), "--out", str(tmp_path)],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(record.read_text())["setup_s"] > 0
