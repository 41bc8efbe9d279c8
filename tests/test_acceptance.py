"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete (under two minutes on two cores; the heavyweight pieces are the
enclosure sampling and the 200-interval sweep proxy).
"""

import math
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import iv

from quadexp.digraph import (
    WeightedDigraph,
    brute_force_cycle_mean,
    build_representation,
    min_cycle_mean_karp,
    min_cycle_mean_lowmem,
)
from quadexp.expansivity import Settings, Status, analyze, lambda_bound
from quadexp.family import ParamInterval, phase_domain
from quadexp.partition import phase_partition, subdivide_parameters
from quadexp.rigor import (
    add_down,
    add_up,
    log_down,
    mul_down,
    mul_up,
    representable,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
)
from quadexp.sweep import CSV_HEADER, SweepConfig, emit_plot_data, parse_row, run_sweep

from conftest import cells_of, random_int_graph

mpmath.mp.dps = 40

A_LEFT = representable("1.4")


def criterion(label):
    # the conftest report hook prints the verdict line outside capture
    return pytest.mark.acceptance(label)


# -- shared orbit machinery --------------------------------------------------


def _locate(cells, x):
    lo = 0
    hi = len(cells)
    while lo < hi:
        mid = (lo + hi) // 2
        if cells[mid].lo <= x:
            lo = mid + 1
        else:
            hi = mid
    found = []
    for j in (lo - 1, lo):
        if 0 <= j < len(cells) and cells[j].lo <= x <= cells[j].hi:
            found.append(j)
    return found


def follow_orbit(a, x0, delta, sup, cap):
    orbit = []
    x = x0
    for _ in range(cap):
        if -delta < x < delta or not -sup <= x <= sup:
            break
        orbit.append(x)
        x = a - x * x
    return orbit


def matched_path_weight(weights, cells, orbit):
    """Max-weight vertex path matching the orbit; asserts every transition
    is present in the graph."""
    seq = []
    for x in orbit:
        cand = _locate(cells, x)
        assert cand, f"orbit point {x!r} not covered by any cell"
        seq.append(cand)
    frontier = {c: 0.0 for c in seq[0]}
    for cand in seq[1:]:
        nxt = {}
        for c, acc in frontier.items():
            for d in cand:
                w = weights.get((c, d))
                if w is not None and (d not in nxt or acc + w > nxt[d]):
                    nxt[d] = acc + w
        assert nxt, "orbit transition missing from the representation graph"
        frontier = nxt
    return max(frontier.values())


def log_derivative_sum(orbit, steps=None):
    pts = orbit if steps is None else orbit[:steps]
    return mpmath.fsum(mpmath.log(abs(2 * mpmath.mpf(x))) for x in pts)


# -- criteria ----------------------------------------------------------------


@criterion("1. min-cycle-mean oracle equivalence (1000 random + 10 representation graphs)")
def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1)
    cyclic = 0
    for _ in range(1000):
        g = random_int_graph(rng)
        want = brute_force_cycle_mean(g)
        karp = min_cycle_mean_karp(g)
        low = min_cycle_mean_lowmem(g)
        if want.value is None:
            assert karp.value is None and low.value is None
            continue
        cyclic += 1
        assert karp.value == want.value
        assert abs(low.value - want.value) <= 1e-9
    assert cyclic > 500

    grid = subdivide_parameters(A_LEFT, 2.0, 60000)
    for index in range(0, 60000, 6000):
        omega = grid.interval(index)
        graph = build_representation(omega, phase_partition(omega, 0.001, 1000))
        karp = min_cycle_mean_karp(graph)
        low = min_cycle_mean_lowmem(graph)
        assert karp.value is not None and low.value is not None
        assert abs(karp.value - low.value) <= 1e-9, (index, karp.value, low.value)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s"


@criterion("2. memory scaling: lowmem linear in k, karp table quadratic")
def test_criterion_02_memory_scaling():
    omega = ParamInterval(0, 2.0, 2.0)

    def lowmem_peak(k):
        graph = build_representation(omega, phase_partition(omega, 0.001, k))
        tracemalloc.start()
        res = min_cycle_mean_lowmem(graph)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert res.value is not None
        return peak

    def karp_peak(k):
        graph = build_representation(omega, phase_partition(omega, 0.001, k))
        tracemalloc.start()
        res = min_cycle_mean_karp(graph)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert res.value is not None
        return peak

    low5 = lowmem_peak(5000)
    low50 = lowmem_peak(50000)
    ratio_low = low50 / low5
    assert 8.0 <= ratio_low <= 12.0, f"lowmem 5k->50k ratio {ratio_low:.2f}"

    karp25 = karp_peak(2500)
    karp50 = karp_peak(5000)
    ratio_karp = karp50 / karp25
    assert 3.2 <= ratio_karp <= 5.0, f"karp 2.5k->5k ratio {ratio_karp:.2f}"
    # the table dwarfs the linear solver's working set at equal k
    assert karp50 > 20 * low5


@criterion("3. enclosure soundness: 1e5 containment samples per operation")
def test_criterion_03_enclosure_soundness():
    start = time.perf_counter()
    rng = random.Random(3)
    N = 100000

    # directed sums, differences and products against exact rationals
    for _ in range(N):
        a, b = rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)
        fa, fb = Fraction(a), Fraction(b)
        assert Fraction(add_down(a, b)) <= fa + fb <= Fraction(add_up(a, b))
        assert Fraction(sub_down(a, b)) <= fa - fb <= Fraction(sub_up(a, b))
        assert Fraction(mul_down(a, b)) <= fa * fb <= Fraction(mul_up(a, b))

    # square roots by exact squaring, logs against 40-digit mpmath
    for _ in range(N):
        p = rng.uniform(0.0, 16.0)
        assert Fraction(sqrt_down(p)) ** 2 <= Fraction(p) <= Fraction(sqrt_up(p)) ** 2
        if p > 0:
            assert mpmath.mpf(log_down(p)) <= mpmath.log(mpmath.mpf(p))

    # representable: round-to-nearest of random decimal literals
    for _ in range(N):
        text = f"{rng.uniform(-16, 16):.12f}"
        f = representable(text)
        exact = Fraction(text)
        for neighbor in (math.nextafter(f, -math.inf), math.nextafter(f, math.inf)):
            assert abs(Fraction(f) - exact) <= abs(Fraction(neighbor) - exact)

    # the phase-domain bound: -p_a = (1 + sqrt(1 + 4a)) / 2 <= sup for
    # every a in omega, checked exactly as (2 sup - 1)^2 >= 1 + 4a
    for _ in range(N):
        a_lo = rng.uniform(1.4, 2.0)
        a_hi = min(2.0, a_lo + rng.uniform(0, 0.01))
        sup = Fraction(phase_domain(ParamInterval(0, a_lo, a_hi)))
        assert (2 * sup - 1) ** 2 >= 1 + 4 * Fraction(rng.uniform(a_lo, a_hi))

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"


def fixed_point_hi(omega):
    """Upper end of the negative fixed points p_a over omega, rounded on
    mpmath.iv at 53 bits: orbits started in (p, -p) stay in every I_a."""
    iv.prec = 53
    return float((-(1 + iv.sqrt(1 + 4 * iv.mpf([omega.a_lo, omega.a_hi]))) / 2).b)


@criterion("4. path inequality along 100 matched orbits (k=1000)")
def test_criterion_04_path_inequality(flagship, flagship_delta):
    partition = phase_partition(flagship, flagship_delta, 1000)
    graph = build_representation(flagship, partition)
    weights = {(u, v): w for u, v, w in graph.edges()}
    cells = cells_of(partition)
    sup = phase_domain(flagship)
    p_edge = fixed_point_hi(flagship)

    rng = random.Random(4)
    checked = 0
    while checked < 100:
        a = rng.uniform(flagship.a_lo, flagship.a_hi)
        x0 = rng.uniform(0.999 * p_edge, -0.999 * p_edge)
        orbit = follow_orbit(a, x0, flagship_delta, sup, 5000)
        if len(orbit) < 2:
            continue
        bound = matched_path_weight(weights, cells, orbit)
        total = log_derivative_sum(orbit[:-1])
        assert total >= mpmath.mpf(bound) - mpmath.mpf(1e-9), (a, x0)
        checked += 1


@criterion("5. certificate soundness on 5 SUCCESS intervals near a=2 (kFine=2000)")
def test_criterion_05_certificate_soundness():
    grid = subdivide_parameters(A_LEFT, 2.0, 60000)
    successes = []
    index = 59999
    while len(successes) < 5 and index > 59900:
        omega = grid.interval(index)
        res = analyze(omega, settings=Settings(k_fine=2000))
        if res.status is Status.SUCCESS:
            successes.append((omega, res))
        index -= 1
    assert len(successes) == 5, "not enough certified intervals near a = 2"

    rng = random.Random(5)
    for omega, res in successes:
        # lambda_bar is the larger of the coarse (k=1000) and fine bounds;
        # the graph and B come from the resolution that proved it
        k = next(k for k in (2000, 1000) if lambda_bound(omega, res.delta_bar, k) == res.lambda_bar)
        partition = phase_partition(omega, res.delta_bar, k)
        graph = build_representation(omega, partition)
        max_w = float(np.abs(graph.weight).max())
        lam = res.lambda_bar
        B = (k + 1) * (max_w + abs(lam))
        sup = phase_domain(omega)
        p_edge = fixed_point_hi(omega)

        qualifying = 0
        attempts = 0
        while qualifying < 25 and attempts < 4000:
            attempts += 1
            a = rng.uniform(omega.a_lo, omega.a_hi)
            x0 = rng.uniform(0.999 * p_edge, -0.999 * p_edge)
            orbit = follow_orbit(a, x0, res.delta_bar, sup, 5000)
            n = len(orbit)
            if n < 1000:
                continue
            qualifying += 1
            total = log_derivative_sum(orbit)
            lhs = total / n
            rhs = mpmath.mpf(lam) - mpmath.mpf(B) / n
            assert lhs >= rhs, (omega.index, a, x0, float(lhs), float(rhs))
        assert qualifying >= 25, f"only {qualifying} long orbits for index {omega.index}"


@criterion("6. partition-size experiment: eventually positive, stable, above 0.001")
def test_criterion_06_kstudy(flagship, flagship_delta):
    ks = [1000, 2000, 5000, 10000, 20000]
    values = []
    times = []
    for k in ks:
        t0 = time.perf_counter()
        v = lambda_bound(flagship, flagship_delta, k)
        times.append(time.perf_counter() - t0)
        assert v is not None
        values.append(v)
    # CI-scale assertion: positive by k = 5000
    assert values[ks.index(5000)] > 0.0
    # eventually positive and stable between the two largest sizes
    assert values[-1] > 0.0 and values[-2] > 0.0
    rel_change = abs(values[-1] - values[-2]) / abs(values[-1])
    assert rel_change < 0.10, f"relative change {rel_change:.3f}"
    assert values[-1] > 0.001
    # cost grows with k (weak monotone check over the extremes)
    assert times[-1] > times[0]


@criterion("7. failure regions: the a~1.77 window and small parameters")
def test_criterion_07_failure_regions():
    grid = subdivide_parameters(A_LEFT, 2.0, 60000)
    lo_edge = representable("1.765")
    hi_edge = representable("1.775")
    first = min(i for i in range(36000, 38000) if grid.points[i] >= lo_edge)
    last = max(i for i in range(36000, 38000) if grid.points[i + 1] <= hi_edge)
    assert last - first > 900
    for index in range(first, last + 1):
        omega = grid.interval(index)
        res = analyze(omega, settings=Settings(k_fine=2000))
        assert res.status is Status.NO_EXPANSION_AT_DELTA0, (index, res.status)

    low_failures = 0
    for index in (0, 2000, 5000, 8000):
        omega = grid.interval(index)
        assert omega.a_lo < 1.50
        res = analyze(omega, settings=Settings(k_fine=2000))
        low_failures += res.status is Status.NO_EXPANSION_AT_DELTA0
    assert low_failures >= 1


@criterion("8. parameter grid fidelity (bit-exact endpoints and refinement)")
def test_criterion_08_grid_fidelity():
    coarse = subdivide_parameters(A_LEFT, 2.0, 60000)
    fine = subdivide_parameters(A_LEFT, 2.0, 120000)
    assert coarse.points[0] == A_LEFT and fine.points[0] == A_LEFT
    assert coarse.points[-1] == 2.0 and fine.points[-1] == 2.0
    assert all(a <= b for a, b in zip(coarse.points, coarse.points[1:]))
    assert all(a <= b for a, b in zip(fine.points, fine.points[1:]))
    for i, p in enumerate(coarse.points):
        assert fine.points[2 * i] == p


def _sweep_config(tmp_path, name, workers):
    return SweepConfig(
        first=59980,
        last=60000,
        settings=Settings(k_coarse=400, k_fine=800, bisection_steps=8),
        workers=workers,
        output_path=str(tmp_path / name),
    )


@criterion("9. sweep determinism across worker counts and kill/resume")
def test_criterion_09_sweep_determinism(tmp_path):
    reference = None
    for workers in (1, 4, 8):
        path = run_sweep(_sweep_config(tmp_path, f"w{workers}.csv", workers))
        with open(path, "rb") as fh:
            data = fh.read()
        if reference is None:
            reference = data
        assert data == reference, f"workers={workers} diverged"

    # kill a subprocess sweep mid-run, then resume to completion
    out = tmp_path / "killed.csv"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "quadexp.cli", "sweep",
            "--first", "59980", "--last", "60000",
            "--k-coarse", "400", "--k-fine", "800", "--steps", "8",
            "--workers", "1",
            "--output", str(out),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 120
    while time.time() < deadline and proc.poll() is None:
        if out.exists():
            with open(out) as fh:
                if sum(1 for _ in fh) >= 7:  # header + >= 6 rows
                    break
        time.sleep(0.05)
    if proc.poll() is None:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait()

    run_sweep(_sweep_config(tmp_path, "killed.csv", workers=2))
    with open(out, "rb") as fh:
        assert fh.read() == reference


@criterion("10. sweep proxy over [1.99, 2]: majority certified, plot data well formed")
def test_criterion_10_sweep_proxy(tmp_path):
    config = SweepConfig(
        a_min=representable("1.99"),
        a_max=2.0,
        n=200,
        first=0,
        last=200,
        settings=Settings(k_fine=2000),
        workers=2,
        output_path=str(tmp_path / "proxy.csv"),
    )
    path = run_sweep(config)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [parse_row(s, i) for i, s in enumerate(lines[1:], 2)]
    assert len(rows) == 200
    success = [r for r in rows if r.status is Status.SUCCESS]
    ratio = len(success) / len(rows)
    assert ratio >= 0.5, f"only {ratio:.0%} certified"
    for r in success:
        assert r.delta_bar is not None and 0.0 < r.delta_bar <= 0.001
        assert r.lambda_bar is not None and r.lambda_bar > 0.0

    files = emit_plot_data(path, str(tmp_path))
    assert len(files) == 4
    for f in files:
        with open(f) as fh:
            data_lines = fh.read().splitlines()
        assert len(data_lines) == len(success)
        for line in data_lines:
            for field in line.split():
                float(field)
