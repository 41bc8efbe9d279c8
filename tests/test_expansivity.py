import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quadexp.expansivity as expansivity
from quadexp.digraph import build_representation, min_cycle_mean_lowmem
from quadexp.expansivity import (
    Settings,
    Status,
    _mid_up,
    analyze,
    delta_bound,
    lambda_bound,
)
from quadexp.family import ParamInterval
from quadexp.partition import PhasePartition, phase_partition, subdivide_parameters
from quadexp.rigor import representable
from quadexp.sweep import DEFAULT_N, format_row


def window_interval() -> ParamInterval:
    # inside the attracting window around a ~ 1.77
    return ParamInterval(0, representable("1.77"), representable("1.7701"))


class TestLambdaBound:
    def test_flagship_positive_at_delta0(self, flagship):
        v = lambda_bound(flagship, 0.001, 1000)
        assert v is not None and v > 0.0

    def test_window_nonpositive(self):
        v = lambda_bound(window_interval(), 0.001, 1000)
        assert v is not None and v <= 0.0

    def test_flagship_negative_at_k100(self, flagship):
        # the full solve's nonpositive value, bit for bit; the stopped solve
        # only keeps its sign
        assert lambda_bound(flagship, 0.001, 100).hex() == "-0x1.3d9e141d9c2bap-1"
        assert lambda_bound(flagship, 0.001, 100, stop_at_nonpositive=True) <= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_bound(ParamInterval(0, 0.0, 1.0), 0.001, 100)
        with pytest.raises(ValueError):
            lambda_bound(ParamInterval(0, 1.5, 1.4), 0.001, 100)
        with pytest.raises(ValueError):
            lambda_bound(ParamInterval(0, 1.5, 1.6), 0.001, 99)

    def test_deterministic(self, flagship):
        a = lambda_bound(flagship, 0.0005, 600)
        b = lambda_bound(flagship, 0.0005, 600)
        assert a == b


class TestMidpointRounding:
    def test_rounds_up_and_is_interior(self):
        cases = [(0.0, 0.001), (0.0001220703125, 0.000244140625), (0.3, 0.7)]
        for lo, hi in cases:
            mid = _mid_up(lo, hi)
            assert lo < mid <= hi
            assert Fraction(mid) >= (Fraction(lo) + Fraction(hi)) / 2

    def test_reaches_resolution(self):
        lo = 0.001
        hi = math.nextafter(lo, math.inf)
        mid = _mid_up(lo, hi)
        assert mid == hi  # no representable point strictly between


class TestDeltaBound:
    def test_flagship(self, flagship, flagship_delta):
        assert 0.0 < flagship_delta <= 0.001
        assert lambda_bound(flagship, flagship_delta, 1000) > 0.0

    def test_window_fails(self):
        assert delta_bound(window_interval()) is None

    def test_deterministic(self, flagship, flagship_delta):
        again = delta_bound(flagship)
        assert again is not None and again.delta_bar == flagship_delta

    def test_reproduces_published_run(self, flagship, flagship_delta):
        # regression lock on the certified values of the canonical interval
        # (bit-exact: the pipeline has no randomness)
        assert flagship_delta.hex() == "0x1.9484fdf3b645cp-11"
        lam = lambda_bound(flagship, flagship_delta, 2000)
        assert lam.hex() == "0x1.96925de477ec0p-3"
        # the policy-iteration certificate is tighter than the earlier
        # parametric search, never looser
        assert lam >= float.fromhex("0x1.96925dd59b248p-3")

    def test_rejects_bad_delta0(self, flagship):
        with pytest.raises(ValueError):
            delta_bound(flagship, settings=Settings(delta0=0.0))

    def test_checks_its_own_settings(self, flagship, monkeypatch):
        # a bad setting fails where the Settings are made, before any solve
        monkeypatch.setattr(expansivity, "lambda_bound", lambda *args, **kwargs: pytest.fail("solved"))
        with pytest.raises(ValueError, match="bisection steps must be >= 0, got -1"):
            delta_bound(flagship, settings=Settings(bisection_steps=-1))
        with pytest.raises(ValueError, match="initial radius must be positive and finite"):
            delta_bound(flagship, settings=Settings(delta0=math.nan))
        with pytest.raises(ValueError, match="coarse cell count must be even"):
            delta_bound(flagship, settings=Settings(k_coarse=999))
        with pytest.raises(ValueError, match="initial radius must be at most 1, got 1.5"):
            delta_bound(flagship, settings=Settings(delta0=1.5))
        for name, value in (("k_coarse", 1000.0), ("k_fine", "20000"), ("bisection_steps", 2.5)):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
                delta_bound(flagship, settings=Settings(**{name: value}))
        assert Settings(delta0=1.0).delta0 == 1.0
        assert Settings(k_coarse=np.int64(1000)).k_coarse == 1000

    def test_coarse_lambda_is_the_probe_at_delta_bar(self, flagship):
        bound = delta_bound(flagship)
        assert bound.coarse_lambda == lambda_bound(flagship, bound.delta_bar, 1000)


class TestAnalyze:
    def test_success_path(self, flagship):
        res = analyze(flagship, settings=Settings(k_fine=2000))
        assert res.status is Status.SUCCESS
        assert res.delta_bar is not None and 0.0 < res.delta_bar <= 0.001
        assert res.lambda_bar is not None and res.lambda_bar > 0.0
        assert res.k_coarse == 1000 and res.k_fine == 2000
        assert res.elapsed_ms >= 0
        assert res.certified()

    def test_failure_path(self):
        res = analyze(window_interval(), settings=Settings(k_fine=400))
        assert res.status is Status.NO_EXPANSION_AT_DELTA0
        assert res.delta_bar is None and res.lambda_bar is None
        assert not res.certified()

    def test_invalid_interval(self, monkeypatch):
        monkeypatch.setattr(expansivity, "build_representation", lambda *args: pytest.fail("built"))
        with pytest.raises(ValueError, match=r"outside \(0, 2\]"):
            analyze(ParamInterval(0, 2.5, 2.6))

    def test_bad_settings_fail_before_any_solve(self, flagship, monkeypatch):
        monkeypatch.setattr(expansivity, "lambda_bound", lambda *args, **kwargs: pytest.fail("solved"))
        with pytest.raises(ValueError, match="even"):
            analyze(flagship, settings=Settings(k_fine=2001))

    def test_settings_are_keyword_only(self, flagship, monkeypatch):
        # settings are passed by name, so no caller can give them in
        # another order
        monkeypatch.setattr(expansivity, "lambda_bound", lambda *args, **kwargs: pytest.fail("solved"))
        with pytest.raises(TypeError):
            Settings(1000, 20000, 0.001, 20)
        with pytest.raises(TypeError):
            analyze(flagship, Settings())
        with pytest.raises(TypeError):
            delta_bound(flagship, Settings())

    def test_fine_partition_artifact(self, flagship, monkeypatch):
        # a nonpositive fine bound leaves the coarse certificate standing
        monkeypatch.setattr(
            expansivity,
            "lambda_bound",
            lambda omega, delta, k, *, stop_at_nonpositive=False, successors=None, cycle=None: (
                0.5 if k == 200 else -0.125
            ),
        )
        res = analyze(flagship, settings=Settings(k_fine=64, k_coarse=200, bisection_steps=4))
        assert res.status is Status.SUCCESS
        assert res.delta_bar is not None and 0.0 < res.delta_bar <= 0.001
        assert res.lambda_bar == 0.5

    def test_coarse_bound_kept_where_the_fine_one_fails(self):
        # grid row 59245: the fine solve at the certified radius is
        # negative, and lambda_bar is the coarse probe's value, bit for bit
        omega = subdivide_parameters(representable("1.4"), 2.0, 60000).interval(59245)
        res = analyze(omega)
        assert res.status is Status.SUCCESS
        assert res.lambda_bar == lambda_bound(omega, res.delta_bar, 1000)
        assert res.lambda_bar > 0.1
        assert lambda_bound(omega, res.delta_bar, 20000) < 0.0


class TestLockedOutputs:
    # bit-exact locks on certified outputs: any change to the partition,
    # the graph or the cycle-mean solve that moves a certified value moves
    # these bytes

    def test_stratified_grid_rows(self):
        # a fixed stratified sample of the default 60,000-row grid, each at
        # its stratum's midpoint: 8 rows over [1.4, 1.9), 4 over
        # [1.9, 1.99) and 4 over [1.99, 2]; the CSV rows without the
        # elapsed field, hashed
        grid = subdivide_parameters(representable("1.4"), 2.0, DEFAULT_N)
        rows = (
            [3125 + 6250 * j for j in range(8)]
            + [51125 + 2250 * j for j in range(4)]
            + [59125 + 250 * j for j in range(4)]
        )
        text = "".join(format_row(analyze(grid.interval(i))) + "\n" for i in rows)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "723e597259db1e31fcc6e0763c2e6c1482b0bced28f361383a4a85e6a7937bb5"

    def test_flagship_at_k80000(self, flagship, flagship_delta):
        assert lambda_bound(flagship, flagship_delta, 80000).hex() == "0x1.62134053036c0p-2"


class TestDeltaMonotonicity:
    def test_nested_partitions_monotone_in_delta(self, flagship):
        # enlarging the critical cell to the next breakpoint, keeping the
        # remaining cells identical, removes vertices and edges only, so
        # the exponent bound cannot decrease
        part = phase_partition(flagship, 0.0005, 400)
        m = part.k // 2
        base = min_cycle_mean_lowmem(build_representation(flagship, part)).value
        bounds = part.bounds
        for strip in (1, 2, 3):
            # the critical cell grows to the strip-th bound past each of +-delta
            nested = PhasePartition(np.concatenate((bounds[: m + 1 - strip], bounds[m + 1 + strip:])))
            assert nested.k == part.k - 2 * strip and nested.delta == bounds[m + 1 + strip]
            wider = min_cycle_mean_lowmem(build_representation(flagship, nested)).value
            assert isinstance(wider, float) and wider >= base - 2e-9

    @given(
        a_lo=st.floats(1.4, 2.0),
        width=st.floats(0.0, 0.01),
        delta=st.floats(1e-4, 0.05),
        half=st.integers(1, 60),
        s=st.integers(2, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_refinement_never_lowers_the_bound(self, a_lo, width, delta, half, s):
        # splitting cells outside the critical one puts every new edge
        # inside an old one, with a weight no smaller: lambda cannot drop
        omega = ParamInterval(0, a_lo, min(a_lo + width, 2.0))
        part = phase_partition(omega, delta, 2 * half)
        b = part.bounds[half + 1:]  # delta .. sup
        steps = np.arange(s) / s
        pos = np.append((b[:-1, None] + (b[1:] - b[:-1])[:, None] * steps).ravel(), b[-1])
        assume(np.all(pos[1:] > pos[:-1]))
        fine = PhasePartition(np.concatenate((-pos[::-1], pos)))
        assert fine.k == s * part.k and fine.delta == delta
        coarse = min_cycle_mean_lowmem(build_representation(omega, part)).value
        refined = min_cycle_mean_lowmem(build_representation(omega, fine)).value
        assert refined >= coarse - 1e-12


class TestBisectionBehavior:
    def test_midpoints_only_shrink_hi_on_positive(self, flagship, monkeypatch):
        # with a threshold oracle the bisection must bracket the threshold
        threshold = 0.0004
        calls = []

        def fake(omega, delta, k, *, stop_at_nonpositive=False, successors=None, cycle=None):
            calls.append(delta)
            return 1.0 if delta >= threshold else -1.0

        monkeypatch.setattr(expansivity, "lambda_bound", fake)
        bound = delta_bound(flagship, settings=Settings(bisection_steps=20))
        assert bound is not None
        assert bound.delta_bar >= threshold
        assert bound.delta_bar - threshold < 0.001 * 2.0**-19
        # the returned radius was itself tested positive
        assert bound.delta_bar in calls

    def test_only_bisection_probes_stop_early(self, flagship, monkeypatch):
        # delta_bound reads only the sign of a failing probe, so every probe
        # may stop at a nonpositive cycle; the fine stage's value is
        # reported, so its solve runs in full.  Every probe gets a policy
        # buffer of k_coarse + 1 entries, the first one empty (all -1);
        # the fine stage gets none
        calls, starts, passed = [], [], []

        def fake(omega, delta, k, *, stop_at_nonpositive=False, successors=None, cycle=None):
            calls.append((k, stop_at_nonpositive))
            starts.append(None if successors is None else successors.copy())
            if successors is not None:
                successors.fill(len(calls))  # the policy this probe ends with
            passed.append(delta >= 0.0004)
            return 1.0 if passed[-1] else -1.0

        monkeypatch.setattr(expansivity, "lambda_bound", fake)
        res = analyze(flagship, settings=Settings(k_coarse=200, k_fine=64, bisection_steps=20))
        assert res.status is Status.SUCCESS
        assert calls == [(200, True)] * 21 + [(64, False)]
        assert all(start is not None and start.shape == (201,) for start in starts[:21])
        assert np.all(starts[0] == -1)
        assert starts[21] is None
        # each later probe starts from the policy of the last passing probe
        # before it: a failing probe's policy is dropped
        assert passed[0] and not all(passed[:21])
        for i in range(1, 21):
            last_pass = max(j for j in range(i) if passed[j])
            assert np.all(starts[i] == last_pass + 1)


def stopped(omega, cycle=None, delta=0.001, k=1000):
    return lambda_bound(omega, delta, k, stop_at_nonpositive=True, cycle=cycle)


class TestCandidateCycle:
    # a stopped probe first checks a candidate cycle: one that closes with
    # a nonpositive exact sum rejects without a graph or a solve

    def test_a_hit_skips_the_graph_and_the_solve(self, monkeypatch):
        omega = subdivide_parameters(representable("1.4"), 2.0, DEFAULT_N).interval(12800)
        cycle = []
        cold = stopped(omega, cycle)
        assert cold <= 0.0 and cycle
        witness = list(cycle)
        full = lambda_bound(omega, 0.001, 1000, cycle=cycle)
        assert full.hex() == lambda_bound(omega, 0.001, 1000).hex()
        monkeypatch.setattr(expansivity, "build_representation", lambda *args: pytest.fail("built"))
        cycle[:] = witness
        assert stopped(omega, cycle) == -math.inf
        assert cycle == witness

    def test_failed_candidates_give_the_cold_value(self):
        # a candidate with a missing edge, one through the critical vertex
        # and one of positive sum: each probe builds, solves from cold and
        # hands back the cold witness, bit for bit
        omega = subdivide_parameters(representable("1.4"), 2.0, DEFAULT_N).interval(12800)
        witness = []
        cold = stopped(omega, witness)
        part = phase_partition(omega, 0.001, 1000)
        graph = build_representation(omega, part)
        weight = {(u, v): w for u, v, w in graph.edges()}
        missing = next(u for u in range(1001) if u != 500 and (u, u) not in weight)
        positive = next(u for u in range(1001) if weight.get((u, u), 0.0) > 0.0)
        for candidate in ([missing], witness + [500], [positive]):
            total = expansivity.cycle_weight(omega, part, candidate)
            assert total is None or total > 0.0
            cycle = list(candidate)
            assert stopped(omega, cycle).hex() == cold.hex()
            assert cycle == witness

    def test_rows_51024_to_51036(self):
        # thirteen one-probe rejects in a row, each handed the previous
        # row's witness: every hit is a row whose cold stopped value is
        # <= 0, and every miss is that value bit for bit
        grid = subdivide_parameters(representable("1.4"), 2.0, DEFAULT_N)
        cycle, hits = [], 0
        for row in range(51024, 51037):
            omega = grid.interval(row)
            cold = stopped(omega)
            value = stopped(omega, cycle)
            if value == -math.inf:
                hits += 1
                assert cold <= 0.0
            else:
                assert value.hex() == cold.hex()
        assert hits >= 6

    def test_only_the_first_probe_gets_the_candidate(self, flagship, monkeypatch):
        calls = []

        def fake(omega, delta, k, *, stop_at_nonpositive=False, successors=None, cycle=None):
            calls.append(cycle)
            return 1.0 if delta >= 0.0004 else -1.0

        monkeypatch.setattr(expansivity, "lambda_bound", fake)
        candidate = [1, 2]
        res = analyze(flagship, settings=Settings(k_coarse=200, k_fine=64, bisection_steps=6),
                      cycle=candidate)
        assert res.status is Status.SUCCESS
        assert calls[0] is candidate and calls[1:] == [None] * 7
