"""Workload inputs, operations and output checks of the quadexp benchmark.

Each workload is a closed loop: one caller issues an operation, waits for
its result, then issues the next.  Inputs are a pure function of the
workload name and the seed.  The operations call only the public library
API; the checks run outside the timed region.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from quadexp import (
    ParamInterval,
    Status,
    build_representation,
    delta_bound,
    min_cycle_mean_karp,
    min_cycle_mean_lowmem,
    phase_partition,
    subdivide_parameters,
)
from quadexp import expansivity, sweep
from quadexp.rigor import representable
from quadexp.sweep import CSV_HEADER, SweepConfig, format_row, parse_row

WORKLOADS = ("certify", "grid-scan", "resolution")

# the standard 60,000-interval grid over [1.4, 2], as the sweep builds it
GRID_A_MIN = representable("1.4")
GRID_A_MAX = 2.0
GRID_N = 60000

FLAGSHIP = ParamInterval(0, representable("1.9999"), 2.0)

# Both multi-input workloads draw in rounds, one input from each equal
# slice of their index range, slices taken in the order given.  The cost
# of an input depends on where it lies, so a draw per slice keeps the cost
# mix of a run the same whatever the seed, and an order whose prefixes
# spread over the range keeps it the same whatever the run's length.
ROUNDS = 8

# certify: after the flagship, one interval from each sixth of
# [59000, 60000); the analyze cost falls with the index (about 4.5 s near
# 59000, 3.5 s near 60000)
CERTIFY_FIRST = 59000
CERTIFY_LAST = 60000
CERTIFY_ORDER = (0, 5, 1, 4, 2, 3)

# grid-scan: contiguous blocks of BLOCK rows at BLOCK-aligned starts in
# [0, 50000), a in [1.4, 1.9), one from each sixteenth of the range.
# [1.9, 1.99) is left out: there a block's share of 4-5 s full-bisection
# intervals swings from 0 to 100% with the seed.
GRID_SCAN_LAST = 50000
GRID_SCAN_ORDER = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)
BLOCK = 32
SWEEP_WORKERS = 2

# resolution: one large graph on the flagship at its certified radius
K_RESOLUTION = 80000

# operations always run, whatever the time budget: the certified fraction
# and the means are taken over these, so they repeat exactly for a seed.
# The traced run runs exactly these, so its per-layer counts repeat too.
QUALITY_OPS = {"certify": 4, "grid-scan": 4, "resolution": 1}

LEGAL_STATUSES = frozenset(s.value for s in Status)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload run needs, generated in set-up."""

    workload: str
    seed: int
    grid: object  # quadexp.ParamGrid
    items: tuple  # certify: ParamInterval; grid-scan: block start; resolution: ParamInterval
    delta: float | None = None  # resolution radius


@dataclass(frozen=True)
class OpOutput:
    """Result of one operation: its bit-exact text (CSV row, CSV file or
    hex float), the number of grid rows it covers, and parsed rows."""

    item: object
    text: str
    rows: int
    results: tuple  # AnalysisResult rows (certify, grid-scan) or (lambda_bar,)


def _stratified(rng, first: int, last: int, order: tuple) -> list[int]:
    """One draw from each of len(order) equal slices of [first, last),
    slices taken in the given order."""
    cuts = [first + (last - first) * s // len(order) for s in range(len(order) + 1)]
    return [rng.randrange(cuts[s], cuts[s + 1]) for s in order]


def make_inputs(workload: str, seed: int) -> Inputs:
    """Seeded inputs of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    grid = subdivide_parameters(GRID_A_MIN, GRID_A_MAX, GRID_N)
    if workload == "certify":
        items = []
        for _ in range(ROUNDS):
            items.append(FLAGSHIP)
            drawn = _stratified(rng, CERTIFY_FIRST, CERTIFY_LAST, CERTIFY_ORDER)
            items += [grid.interval(i) for i in drawn]
        return Inputs(workload, seed, grid, tuple(items))
    if workload == "grid-scan":
        slots = []
        for _ in range(ROUNDS):
            slots += _stratified(rng, 0, GRID_SCAN_LAST // BLOCK, GRID_SCAN_ORDER)
        return Inputs(workload, seed, grid, tuple(s * BLOCK for s in slots))
    if workload == "resolution":
        bound = delta_bound(FLAGSHIP)
        if bound is None:
            raise RuntimeError("flagship interval has no certified radius")
        return Inputs(workload, seed, grid, (FLAGSHIP,), bound.delta_bar)
    raise ValueError(f"unknown workload {workload!r}")


def run_op(inputs: Inputs, i: int, workdir: str) -> OpOutput:
    """Operation i of the workload (items are cycled).  The library calls
    go through the module attributes so that the traced run's wrappers
    see them."""
    item = inputs.items[i % len(inputs.items)]
    if inputs.workload == "certify":
        res = expansivity.analyze(item)
        return OpOutput(item, format_row(res), 1, (res,))
    if inputs.workload == "grid-scan":
        path = os.path.join(workdir, f"block-{i}.csv")
        sweep.run_sweep(
            SweepConfig(first=item, last=item + BLOCK, workers=SWEEP_WORKERS, output_path=path)
        )
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
        os.remove(path)
        return OpOutput(item, text, BLOCK, ())
    lam = expansivity.lambda_bound(item, inputs.delta, K_RESOLUTION)
    return OpOutput(item, "" if lam is None else float(lam).hex(), 1, (lam,))


# ---------------------------------------------------------------------------
# output checks (untimed)

def _check_result(res, where: str) -> list[str]:
    if res.status.value not in LEGAL_STATUSES or res.status is Status.ERROR:
        return [f"{where}: status {res.status.value}"]
    if res.status is Status.SUCCESS:
        d, lam = res.delta_bar, res.lambda_bar
        if d is None or not 0.0 < d <= expansivity.DEFAULT_DELTA0:
            return [f"{where}: SUCCESS with radius {d!r}"]
        if lam is None or not (math.isfinite(lam) and lam > 0.0):
            return [f"{where}: SUCCESS with exponent {lam!r}"]
    return []


def _check_coarse(res, where: str) -> list[str]:
    """The coarse-stage value at the returned radius agrees with the
    quadratic-memory Karp solver on the same k_coarse graph."""
    if res.delta_bar is None:
        return []
    omega = ParamInterval(res.index, res.a_lo, res.a_hi)
    graph = build_representation(omega, phase_partition(omega, res.delta_bar, res.k_coarse))
    low = min_cycle_mean_lowmem(graph).value
    karp = min_cycle_mean_karp(graph).value
    if low is None or karp is None:
        return [] if low is None and karp is None else [f"{where}: acyclic mismatch {low!r} {karp!r}"]
    if abs(low - karp) > 1e-9:
        return [f"{where}: coarse value {low!r} vs Karp {karp!r}"]
    if low <= 0.0:
        return [f"{where}: coarse value {low!r} at the certified radius"]
    return []


def parse_block(text: str, start: int, grid) -> tuple[list, list[str]]:
    """Rows of one grid-scan CSV and the failures found in it: header,
    one row per index in order, endpoints bit-equal to the grid."""
    where = f"block {start}"
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [], [f"{where}: missing header"]
    if len(lines) != BLOCK + 1:
        return [], [f"{where}: {len(lines) - 1} rows, expected {BLOCK}"]
    rows, failures = [], []
    for offset, line in enumerate(lines[1:]):
        index = start + offset
        try:
            res = parse_row(line, offset + 2)
        except ValueError as exc:
            failures.append(f"{where}: {exc}")
            continue
        rows.append(res)
        if res.index != index:
            failures.append(f"{where}: row {offset} has index {res.index}")
        elif res.a_lo != grid.points[index] or res.a_hi != grid.points[index + 1]:
            failures.append(f"{where}: endpoints of {index} differ from the grid")
        failures += _check_result(res, f"{where} row {index}")
    return rows, failures


def greedy_witness_mean(graph) -> Fraction | None:
    """Smallest exact mean over the cycles of the graph's cheapest-out-edge
    subgraph (each vertex keeps its lightest outgoing edge).  Every such
    cycle is a cycle of the graph, so no certified cycle-mean bound may
    exceed the returned value."""
    n = graph.num_vertices
    order = np.lexsort((graph.weight, graph.src))
    src = graph.src[order]
    first = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    succ = np.full(n, -1, dtype=np.int64)
    succ[src[first]] = graph.dst[order][first]
    weight = np.zeros(n)
    weight[src[first]] = graph.weight[order][first]
    succ, weight = succ.tolist(), weight.tolist()
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 finished
    best = None
    for v0 in range(n):
        walk, v = [], v0
        while v >= 0 and state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = succ[v]
        if v >= 0 and state[v] == 1:
            cycle = walk[walk.index(v):]
            mean = sum(Fraction(weight[u]) for u in cycle) / len(cycle)
            best = mean if best is None or mean < best else best
        for u in walk:
            state[u] = 2
    return best


def check_outputs(inputs: Inputs, outputs: list[OpOutput]) -> tuple[int, list[str]]:
    """Check every operation's output.  Returns the number of operations
    that failed and the failure messages."""
    failed_ops, messages = 0, []
    by_item: dict = {}
    for i, out in enumerate(outputs):
        failures = []
        first_run = out.item not in by_item
        if by_item.setdefault(out.item, out.text) != out.text:
            failures.append(f"op {i}: output differs from an earlier run of the same input")
        if inputs.workload == "certify":
            res = out.results[0]
            failures += _check_result(res, f"interval {res.index}")
            if first_run:
                failures += _check_coarse(res, f"interval {res.index}")
        elif inputs.workload == "grid-scan":
            failures += parse_block(out.text, out.item, inputs.grid)[1]
        else:
            lam = out.results[0]
            if lam is None or not (math.isfinite(lam) and lam > 0.0):
                failures.append(f"op {i}: exponent {lam!r}")
        if failures:
            failed_ops += out.rows if inputs.workload == "grid-scan" else 1
            messages += failures
    if inputs.workload == "resolution" and outputs and outputs[0].results[0] is not None:
        omega = inputs.items[0]
        graph = build_representation(omega, phase_partition(omega, inputs.delta, K_RESOLUTION))
        witness = greedy_witness_mean(graph)
        if witness is None or Fraction(outputs[0].results[0]) > witness:
            messages.append(f"exponent {outputs[0].results[0]!r} above witness mean {witness}")
            failed_ops = len(outputs)
    return failed_ops, messages


def quality(inputs: Inputs, outputs: list[OpOutput]) -> dict:
    """Certified fraction and means over the quality prefix of the run,
    which every run completes, so the figures repeat exactly for a seed."""
    prefix = outputs[: QUALITY_OPS[inputs.workload]]
    if inputs.workload == "resolution":
        lams = [o.results[0] for o in prefix if o.results[0] is not None and o.results[0] > 0.0]
        return {
            "base": len(prefix),
            "certified": len(lams),
            "lambda_bar_mean": sum(lams) / len(lams) if lams else None,
            "delta_bar_mean": None,
        }
    if inputs.workload == "grid-scan":
        rows = [r for o in prefix for r in parse_block(o.text, o.item, inputs.grid)[0]]
    else:
        rows = [o.results[0] for o in prefix]
    ok = [r for r in rows if r.status is Status.SUCCESS]
    return {
        "base": len(rows),
        "certified": len(ok),
        "lambda_bar_mean": sum(r.lambda_bar for r in ok) / len(ok) if ok else None,
        "delta_bar_mean": sum(r.delta_bar for r in ok) / len(ok) if ok else None,
    }
