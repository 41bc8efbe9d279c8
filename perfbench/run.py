"""quadexp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, runs its operations in a
closed loop against the library in ../src for about --seconds seconds,
checks every output, and prints a report followed by one JSON line with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The traced run ignores --seconds: it runs the workload's fixed number of
operations untraced, then replays them traced, and reports the per-layer
figures per interval; both passes must give the same output bits.  Exits 1
when any output check fails, 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 5
# reference work run after each grid-scan operation, as a share of its time
GAUGE_SHARE = 0.05

# name: (unit, better, what).  BENCHMARK.json lists END_TO_END and
# PER_LAYER; the other tables are printed in the report only.
END_TO_END = {
    "interval_s": ("s", "lower", "timed wall time over intervals completed, at the reference speed"),
    "peak_rss_mb": ("MB", "lower", "peak RSS of the benchmark process plus sweep workers"),
    "setup_s": ("s", "lower", "import quadexp plus input generation, median of set-ups, at the reference speed"),
}
REPORT = {
    "intervals_per_hour": ("1/h", "higher", "rows completed per hour of timed wall time"),
    "certified_fraction": ("ratio", "higher", "SUCCESS rows over rows of the quality prefix"),
    "lambda_bar_mean": ("1/step", "higher", "mean certified exponent over SUCCESS rows"),
    "delta_bar_mean": ("1", "lower", "mean certified radius over SUCCESS rows"),
    "error_rate": ("ratio", "lower", "ERROR rows, exceptions and failed checks over rows attempted"),
}
# Traced figures are per interval (per analyze call, lambda_bound call or
# sweep row) over a fixed number of operations, so counts repeat for a
# seed.  PER_LAYER holds those that are non-zero on every workload.
PER_LAYER = {
    "digraph.solve.calls": ("count/interval", "lower", "min_cycle_mean_lowmem calls"),
    "digraph.solve.busy_s": ("s/interval", "lower", "time in min_cycle_mean_lowmem"),
    "digraph.solve.edges_per_s": ("1/s", "higher", "edges of solved graphs per solve second"),
    "digraph.solve.gap_max": ("1/step", "lower", "witness cycle mean minus certified value, max"),
    "digraph.solve.peak_mb": ("MB", "lower", "largest RSS growth inside one solve (sampled)"),
    "digraph.build.calls": ("count/interval", "lower", "build_representation calls"),
    "digraph.build.busy_s": ("s/interval", "lower", "time in build_representation"),
    "digraph.build.edges": ("count/interval", "lower", "edges built"),
    "digraph.build.bytes": ("B/interval", "lower", "edge-array bytes built (computed from edge counts)"),
    "partition.calls": ("count/interval", "lower", "phase_partition calls"),
    "partition.busy_s": ("s/interval", "lower", "time in phase_partition"),
    "partition.cells": ("count/interval", "lower", "cells partitioned"),
    "family.calls": ("count/interval", "lower", "phase_domain calls from partition and digraph"),
    "family.busy_s": ("s/interval", "lower", "time in phase_domain"),
}
# zero on the workloads that do not reach their layer
LAYER_REPORT = {
    "digraph.solve.coarse_busy_s": ("s/interval", "lower", "solve time on graphs of <= k_coarse+1 vertices"),
    "digraph.solve.fine_busy_s": ("s/interval", "lower", "solve time on larger graphs"),
    "digraph.solve.acyclic": ("count/interval", "lower", "solves that found no cycle"),
    "digraph.solve.witness_bad": ("count/interval", "lower", "witness cycles absent or below the bound"),
    "partition.grid_busy_s": ("s/interval", "lower", "time in subdivide_parameters"),
    "expansivity.analyze.calls": ("count/interval", "lower", "analyze calls"),
    "expansivity.analyze.busy_s": ("s/interval", "lower", "time in analyze"),
    "expansivity.analyze.self_s": ("s/interval", "lower", "analyze time outside its callees"),
    "expansivity.bisect.busy_s": ("s/interval", "lower", "time in delta_bound"),
    "expansivity.bisect.probes": ("count/interval", "lower", "lambda_bound calls under delta_bound"),
    "expansivity.bisect.early_exits": ("count/interval", "lower", "delta_bound calls returning None"),
    "expansivity.fine.busy_s": ("s/interval", "lower", "the k_fine lambda_bound under analyze"),
    "sweep.rows": ("count", "higher", "rows written by run_sweep in the traced pass"),
    "sweep.bytes_written": ("B/interval", "lower", "bytes of the results CSVs"),
    "sweep.wall_s": ("s/interval", "lower", "wall time of run_sweep calls"),
    "sweep.worker_busy_s": ("s/interval", "lower", "sum of worker analyze spans"),
    "sweep.worker_util": ("ratio", "higher", "worker_busy_s over workers x wall"),
    "sweep.overhead_s": ("s/interval", "lower", "wall minus worker_busy_s / workers"),
    "unattributed_s": ("s/interval", "lower", "operation time in no wrapped layer"),
    "trace.hook_s": ("s/interval", "lower", "time spent in the wrappers themselves"),
    "trace.overhead": ("ratio", "lower", "traced over untraced operation time, minus 1"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("certify", "grid-scan", "resolution"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_commit() -> str | None:
    """Commit of the checkout, when it is a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "load_start": list(os.getloadavg()),
    }


def measure(op, inputs, workdir, seconds, min_ops, count=None, gauge=None, between=False):
    """Run operations 0, 1, ... in a closed loop.  Without count, stop once
    min_ops are done and another operation would end past the deadline
    by more than half its typical time.  With a gauge, run reference work
    for GAUGE_SHARE of each operation's time after it (between) or on the
    gauge's timer during it; the timer's work is not counted in the
    operation's time.  Returns (outputs, times, errors), outputs[i] being
    None where operation i raised."""
    outputs, times, errors = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if count is None and i >= min_ops:
            typical = statistics.median(times)
            if time.perf_counter() - start + 0.5 * typical >= seconds:
                break
        ticked = gauge.seconds if gauge is not None else 0.0
        t0 = time.perf_counter()
        try:
            out = op(inputs, i, workdir)
        except Exception as exc:  # counted as a failed operation
            out = None
            errors.append(f"op {i}: {exc!r}")
        elapsed = time.perf_counter() - t0
        if gauge is not None:
            elapsed -= gauge.seconds - ticked
        times.append(elapsed)
        outputs.append(out)
        i += 1
        if between:
            gauge.sample(GAUGE_SHARE * times[-1])
    return outputs, times, errors


def peak_rss_mb(workload: str, workers: int) -> float:
    # ru_maxrss is in KiB on Linux.  On grid-scan the largest worker's
    # peak is counted once per worker; pages shared after fork count in
    # each process, as RSS does.
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "grid-scan":
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib * 1024 / 1e6


def setup_samples(workload: str, seed: int, n: int) -> list[tuple[float, float]]:
    """(seconds, speed factor) of n set-ups in fresh interpreters."""
    probe = os.path.join(HERE, "setup_probe.py")
    out = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, factor = done.stdout.strip().splitlines()[-1].split()
        out.append((float(seconds), float(factor)))
    return out


def fmt_line(kind, name, value, spec, note=""):
    unit, better, what = spec
    shown = "n/a" if value is None else repr(value)
    tail = f"; {note}" if note else ""
    return f"{kind} {name} = {shown} {unit} ({better} is better; {what}{tail})"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadexp", "__init__.py")):
        print(f"quadexp sources not found under {SRC}", file=sys.stderr)
        return 2

    from setup_probe import set_up

    inputs, setup_wall, setup_factor = set_up(args.workload, args.seed)
    import quadexp

    if os.path.dirname(os.path.abspath(quadexp.__file__)) != os.path.join(SRC, "quadexp"):
        print(f"imported quadexp from {quadexp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import spans
    import workloads

    env = environment(args.seed)
    min_ops = workloads.QUALITY_OPS[args.workload]
    rows_per_op = workloads.BLOCK if args.workload == "grid-scan" else 1
    op_name = "sweep.run_sweep" if args.workload == "grid-scan" else "bench.op"
    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    failures: list[str] = []
    metrics: dict[str, float] = {}

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        # the traced run's length is fixed by the workload, not by
        # --seconds, so its per-layer counts repeat exactly for a seed
        count = min_ops if args.trace else None
        # grid-scan's operations run in its sweep workers, which the timer
        # would compete with for the cores: gauge between its operations
        gauge = reference.Gauge()
        between = args.workload == "grid-scan"
        with contextlib.nullcontext() if between else gauge.ticking():
            outputs, times, errors = measure(
                workloads.run_op, inputs, workdir, args.seconds, min_ops, count, gauge, between
            )
        failures += errors
        attempted = len(outputs) * rows_per_op
        failed = len(errors) * rows_per_op
        if not args.trace:
            metrics["peak_rss_mb"] = peak_rss_mb(args.workload, workloads.SWEEP_WORKERS)
        else:
            tracer = spans.Tracer(workdir)
            spans.install_library_wrappers(tracer)
            try:
                traced, traced_times, errors = measure(
                    tracer.wrap(op_name, workloads.run_op), inputs, workdir, args.seconds,
                    min_ops, count,
                )
            finally:
                tracer.uninstall()
            failures += errors
            attempted += len(traced) * rows_per_op
            failed += len(errors) * rows_per_op
            for i, (a, b) in enumerate(zip(outputs, traced)):
                if a is not None and b is not None and a.text != b.text:
                    failures.append(f"op {i}: traced output differs from untraced")
                    failed += rows_per_op
            totals = spans.layer_metrics(
                tracer.spans, tracer.collect_workers(),
                quadexp.expansivity.DEFAULT_K_COARSE, workloads.SWEEP_WORKERS,
            )
            if totals["digraph.solve.witness_bad"]:
                failures.append(f"{totals['digraph.solve.witness_bad']} solves with a bad witness")
                failed += 1
            texts = [o.text for o in traced if o is not None]
            sweeping = args.workload == "grid-scan"
            totals["sweep.bytes_written"] = sum(len(t) for t in texts) if sweeping else 0
            layer = spans.per_interval(totals, len(traced) * rows_per_op)
            layer["sweep.rows"] = len(texts) * rows_per_op if sweeping else 0
            layer["trace.overhead"] = sum(traced_times) / sum(times) - 1.0
            outputs += traced

        good = [o for o in outputs if o is not None]
        bad_ops, messages = workloads.check_outputs(inputs, good)
        failures += messages
        failed = min(failed + bad_ops, attempted)

    setups = [(setup_wall, setup_factor)]
    if not args.trace:
        setups += setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
    env["load_end"] = list(os.getloadavg())

    per_op = sorted(t / rows_per_op for t in times)
    q = workloads.quality(inputs, [o for o in outputs[: len(times)] if o is not None])
    # the mean, not the median: certify's intervals cost about 4.5 s or
    # about 3.3 s by where they lie, and the median of a run's few
    # operations jumps between the two groups from seed to seed.  Times
    # are rescaled to the reference work's nominal speed, so that the
    # shared machine's drift from minute to minute cancels out.
    speed = gauge.factor()
    wall_interval = sum(times) / (len(times) * rows_per_op)
    metrics["interval_s"] = wall_interval * speed
    metrics["setup_s"] = statistics.median(t * f for t, f in setups)
    report = {
        "intervals_per_hour": 3600.0 / wall_interval,
        "certified_fraction": q["certified"] / q["base"] if q["base"] else None,
        "lambda_bar_mean": q["lambda_bar_mean"],
        "delta_bar_mean": q["delta_bar_mean"],
        "error_rate": failed / attempted if attempted else None,
    }

    lines.append("env " + json.dumps(env, sort_keys=True))
    quartiles = statistics.quantiles(per_op, n=4) if len(per_op) > 1 else per_op * 3
    # the highest percentile with at least ten samples beyond it
    top = int(100 * (1 - 10 / len(per_op)))
    tail = (
        f"p{top}={statistics.quantiles(per_op, n=100)[top - 1]!r}"
        if top > 50 else "too few samples for a tail percentile"
    )
    notes = {
        "interval_s": f"wall {wall_interval!r} s times speed factor {speed!r}"
        f" ({gauge.units} reference units in {gauge.seconds!r} s);"
        f" n={len(per_op)} operations, wall per interval median={statistics.median(per_op)!r},"
        f" q1={quartiles[0]!r}, q3={quartiles[2]!r}; {tail}; in run order: {[round(t, 4) for t in times]}",
        "intervals_per_hour": f"{len(times) * rows_per_op} rows in {sum(times)!r} s of wall time",
        "setup_s": f"{len(setups)} set-ups, (wall s, speed factor): {setups!r}",
        "certified_fraction": f"{q['certified']} of {q['base']} rows",
        "lambda_bar_mean": f"over {q['certified']} SUCCESS rows",
        "delta_bar_mean": f"over {q['certified']} SUCCESS rows",
        "error_rate": f"{failed} of {attempted}",
    }
    for name, spec in END_TO_END.items():
        if name in metrics:
            lines.append(fmt_line("metric", name, metrics[name], spec, notes.get(name, "")))
    for name, spec in REPORT.items():
        lines.append(fmt_line("metric", name, report[name], spec, notes[name]))
    if args.trace:
        for name, spec in {**PER_LAYER, **LAYER_REPORT}.items():
            lines.append(fmt_line("layer", name, layer[name], spec))
        for name in sorted(k for k in layer if k.startswith("self.")):
            lines.append(fmt_line("layer", name, layer[name], ("s/interval", "lower", "self time")))
    for msg in failures:
        lines.append(f"FAILED {msg}")
    print("\n".join(lines))

    chosen = PER_LAYER if args.trace else END_TO_END
    source = layer if args.trace else metrics
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": source[name], "unit": spec[0]} for name, spec in chosen.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
