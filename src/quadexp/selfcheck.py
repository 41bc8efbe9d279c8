"""Sampling-based diagnostics for a (parameter interval, radius, cell
count) configuration: edge validity, and the path inequality along
simulated orbits.  A point's cells are found by bisecting the partition's
bounds, and cell i is graph vertex i.

These checks exercise the certified pipeline from the outside with random
points; they are corroboration for debugging, not part of the proof (the
pipeline's guarantees come from the interval arithmetic itself).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from random import Random
from typing import TextIO

from .digraph import build_representation
from .family import ParamInterval
from .partition import phase_partition
from .rigor import add_down, mul_down, sqrt_down


def cells_at(bounds: list[float], x: float) -> list[int]:
    """Indices of the cells [bounds[i], bounds[i + 1]] holding x: two at an
    inner bound, none outside [bounds[0], bounds[-1]]."""
    i = bisect_right(bounds, x)
    return [j for j in (i - 2, i - 1) if 0 <= j < len(bounds) - 1 and bounds[j] <= x <= bounds[j + 1]]


def sample_orbit(a: float, x0: float, delta: float, sup: float, cap: int) -> list[float]:
    """Floating-point orbit of x0 under x -> a - x^2, stopped on entering
    the open critical neighborhood or leaving the phase domain; the
    returned points all lie outside (-delta, delta)."""
    orbit = []
    x = x0
    for _ in range(cap):
        if -delta < x < delta or not -sup <= x <= sup:
            break
        orbit.append(x)
        x = a - x * x
    return orbit


def _match_path_weight(graph_edges: dict, cells_seq: list[list[int]]):
    """Max-weight matched path through per-step candidate cells; None when
    some step admits no edge (a genuine violation for interior points)."""
    current = {c: 0.0 for c in cells_seq[0]}
    for nxt_cells in cells_seq[1:]:
        nxt: dict[int, float] = {}
        for c, acc in current.items():
            for d in nxt_cells:
                w = graph_edges.get((c, d))
                if w is not None and (d not in nxt or acc + w > nxt[d]):
                    nxt[d] = acc + w
        if not nxt:
            return None
        current = nxt
    return max(current.values())


def run_selfcheck(
    omega: ParamInterval,
    delta: float,
    k: int,
    rng: Random,
    orbits: int = 50,
    steps: int = 2000,
    out: TextIO | None = None,
) -> bool:
    partition = phase_partition(omega, delta, k)
    graph = build_representation(omega, partition)
    bounds = partition.bounds.tolist()
    sup = bounds[-1]
    edges = {(u, v): w for u, v, w in graph.edges()}
    ok = True

    def report(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        if out is not None:
            out.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")

    # edge validity: sampled transitions are graph edges
    missing = 0
    for _ in range(2000):
        a = rng.uniform(omega.a_lo, omega.a_hi)
        x = rng.uniform(delta, sup) * (1 if rng.random() < 0.5 else -1)
        here = cells_at(bounds, x)
        there = cells_at(bounds, a - x * x)
        if not here or not there:
            continue
        if not any((c, d) in edges for c in here for d in there):
            missing += 1
    report("edges", missing == 0, f"{missing} unmatched transitions of 2000")

    # path inequality: accumulated log-derivative dominates matched weight
    # up-rounded p_a at a = a_lo: starts orbits inside every I_a
    p_lo = -mul_down(0.5, add_down(1.0, sqrt_down(add_down(1.0, mul_down(4.0, omega.a_lo)))))
    violations = 0
    used = 0
    for _ in range(orbits):
        a = rng.uniform(omega.a_lo, omega.a_hi)
        x0 = rng.uniform(0.98 * p_lo, -0.98 * p_lo)
        orbit = sample_orbit(a, x0, delta, sup, steps)
        if len(orbit) < 2:
            continue
        cells_seq = [cells_at(bounds, x) for x in orbit]
        if not all(cells_seq):
            continue
        used += 1
        bound = _match_path_weight(edges, cells_seq)
        if bound is None:
            violations += 1
            continue
        logsum = math.fsum(math.log(abs(2.0 * x)) for x in orbit[:-1])
        # the final point contributes no edge; compare over n-1 steps
        if logsum < bound - 1e-9:
            violations += 1
    # over no orbit the check has checked nothing, which is no pass
    passed = used > 0 and violations == 0
    report("path-inequality", passed, f"{violations} violations over {used} orbits")
    return ok
