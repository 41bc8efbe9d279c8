"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import bisect
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quadexp import WeightedDigraph, brute_force_cycle_mean  # noqa: E402


def bench(workload, trace, seed=3, seconds=1, root=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return done


@pytest.mark.parametrize("workload", ["certify", "grid-scan"])
def test_seed_fixes_the_inputs(workload):
    a = workloads.make_inputs(workload, 5)
    assert a.items == workloads.make_inputs(workload, 5).items
    b = workloads.make_inputs(workload, 6)
    assert a.items != b.items
    if workload == "certify":
        assert a.items[0] == b.items[0] == workloads.FLAGSHIP
        drawn = [x for x in a.items if x != workloads.FLAGSHIP]
        assert all(workloads.CERTIFY_FIRST <= x.index < workloads.CERTIFY_LAST for x in drawn)
    else:
        assert set(a.items) != set(b.items)
        assert all(0 <= s and s + workloads.BLOCK <= workloads.GRID_SCAN_LAST for s in a.items)
        slots = workloads.GRID_SCAN_LAST // workloads.BLOCK
        cuts = [slots * s // 16 for s in range(17)]
        first_round = [bisect.bisect_right(cuts, s // workloads.BLOCK) - 1 for s in a.items[:16]]
        assert first_round == list(workloads.GRID_SCAN_ORDER)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == {name: (unit, better) for name, (unit, better, _) in table.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def grid_scan_runs():
    """Output of one grid-scan run per trace mode, seed 3, made once."""
    return {trace: bench("grid-scan", trace) for trace in (0, 1)}


def layer_lines(stdout):
    """Per-layer figures from the report lines of a traced run."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("layer "):
            name, value = line.split()[1], line.split()[3]
            out[name] = float(value)
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_unit_and_direction(trace, grid_scan_runs):
    done = grid_scan_runs[trace]
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, (unit, better, _) in table.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(f" {name} = " in ln and f" {unit} ({better} is better" in ln for ln in lines)
    for name in run.REPORT:
        assert any(f" {name} = " in ln and "is better" in ln for ln in lines)


def test_traced_counts_repeat_for_a_seed(grid_scan_runs):
    first = grid_scan_runs[1]
    again = bench("grid-scan", 1, seconds=5)
    assert again.returncode == 0, again.stdout + again.stderr
    a, b = layer_lines(first.stdout), layer_lines(again.stdout)
    units = {**run.PER_LAYER, **run.LAYER_REPORT}
    counts = [name for name, spec in units.items() if spec[0].startswith(("count", "B/"))]
    assert counts and {n: a[n] for n in counts} == {n: b[n] for n in counts}
    # every grid-scan row is a one-probe reject
    assert a["expansivity.bisect.probes"] == a["expansivity.bisect.early_exits"] == 1.0
    assert a["sweep.rows"] == workloads.QUALITY_OPS["grid-scan"] * workloads.BLOCK


def test_traced_and_untraced_outputs_are_bit_identical(tmp_path):
    inputs = workloads.make_inputs("certify", 3)
    plain = workloads.run_op(inputs, 0, str(tmp_path))
    tracer = spans.Tracer(str(tmp_path))
    spans.install_library_wrappers(tracer)
    try:
        traced = workloads.run_op(inputs, 0, str(tmp_path))
    finally:
        tracer.uninstall()
    assert traced.text == plain.text
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"expansivity.analyze", "expansivity.bisect", "expansivity.lambda",
            "partition", "family", "digraph.build", "digraph.solve"} <= names
    m = spans.layer_metrics(tracer.spans, [], 1000, 2)
    assert m["expansivity.bisect.probes"] == 21
    assert m["digraph.solve.busy_s"] > 0.5 * m["expansivity.analyze.busy_s"]


def test_output_checks_catch_a_wrong_endpoint(tmp_path):
    inputs = workloads.make_inputs("grid-scan", 3)
    out = workloads.run_op(inputs, 0, str(tmp_path))
    assert workloads.check_outputs(inputs, [out]) == (0, [])
    lines = out.text.splitlines()
    fields = lines[1].split(",")
    fields[2] = float(float.fromhex(fields[2]) * 1.5).hex()
    lines[1] = ",".join(fields)
    bad = workloads.OpOutput(out.item, "\n".join(lines) + "\n", out.rows, ())
    failed, messages = workloads.check_outputs(inputs, [bad])
    assert failed > 0 and any("endpoints" in m for m in messages)


def test_reference_work_is_fixed_and_gauged():
    ref = reference.Reference()
    assert ref.unit() == reference.Reference().unit() == ref.unit()
    gauge = reference.Gauge()
    gauge.sample(0.0)
    gauge.sample(3 * reference.NOMINAL_S)
    assert gauge.units == 4
    assert gauge.factor() == reference.NOMINAL_S * 4 / gauge.seconds
    with gauge.ticking():
        end = time.perf_counter() + 3 * reference.TICK_S
        while time.perf_counter() < end:
            pass
    assert gauge.units >= 6
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_greedy_witness_bounds_the_minimum_cycle_mean():
    graph = WeightedDigraph.from_edges(
        4, [(0, 1, 1.0), (1, 0, 3.0), (1, 2, 0.5), (2, 1, 0.75), (2, 3, 2.0)]
    )
    witness = workloads.greedy_witness_mean(graph)
    assert witness == 0.625
    assert brute_force_cycle_mean(graph).value <= witness


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("grid-scan", 0, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
