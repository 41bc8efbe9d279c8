import math
from fractions import Fraction

import numpy as np
import pytest

import quadexp.expansivity as expansivity
from quadexp.expansivity import (
    Status,
    _mid_up,
    analyze,
    delta_bound,
    lambda_bound,
)
from quadexp.family import ParamInterval
from quadexp.rigor import representable


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
        check = lambda_bound(flagship, flagship_delta, 1000)
        assert check is None or check > 0.0

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
            delta_bound(flagship, delta0=0.0)


class TestAnalyze:
    def test_success_path(self, flagship):
        res = analyze(flagship, k_fine=2000)
        assert res.status is Status.SUCCESS
        assert res.delta_bar is not None and 0.0 < res.delta_bar <= 0.001
        assert res.lambda_bar is not None and res.lambda_bar > 0.0
        assert res.k_coarse == 1000 and res.k_fine == 2000
        assert res.elapsed_ms >= 0
        assert res.certified()

    def test_failure_path(self):
        res = analyze(window_interval(), k_fine=400)
        assert res.status is Status.NO_EXPANSION_AT_DELTA0
        assert res.delta_bar is None and res.lambda_bar is None
        assert not res.certified()

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            analyze(ParamInterval(0, 2.5, 2.6))

    def test_bad_settings_fail_before_any_solve(self, flagship, monkeypatch):
        monkeypatch.setattr(expansivity, "lambda_bound", lambda *args: pytest.fail("solved"))
        with pytest.raises(ValueError, match="even"):
            analyze(flagship, k_fine=2001)

    def test_settings_are_keyword_only(self, flagship, monkeypatch):
        # the three take the settings by name, so no caller can pass them
        # in another function's order
        monkeypatch.setattr(expansivity, "lambda_bound", lambda *args: pytest.fail("solved"))
        with pytest.raises(TypeError):
            analyze(flagship, 2000)
        with pytest.raises(TypeError):
            delta_bound(flagship, 0.001)
        with pytest.raises(TypeError):
            expansivity.check_settings(1000, 20000, 0.001, 20)

    def test_fine_partition_artifact(self, flagship, monkeypatch):
        monkeypatch.setattr(
            expansivity, "lambda_bound", lambda omega, delta, k: 0.5 if k == 200 else -0.125
        )
        res = analyze(flagship, k_fine=64, k_coarse=200, steps=4)
        assert res.status is Status.FINE_PARTITION_ARTIFACT
        assert res.delta_bar is None and res.lambda_bar is None

    def test_acyclic_fine_stage(self, flagship, monkeypatch):
        monkeypatch.setattr(
            expansivity, "lambda_bound", lambda omega, delta, k: 0.5 if k == 200 else None
        )
        res = analyze(flagship, k_fine=64, k_coarse=200, steps=4)
        assert res.status is Status.ACYCLIC
        assert res.delta_bar is not None and res.lambda_bar is None

    def test_acyclic_coarse_stage(self, flagship, monkeypatch):
        # vacuous coarse certificates propagate as ACYCLIC even when the
        # fine stage finds a finite exponent
        monkeypatch.setattr(
            expansivity, "lambda_bound", lambda omega, delta, k: None if k == 200 else 0.5
        )
        res = analyze(flagship, k_fine=64, k_coarse=200, steps=4)
        assert res.status is Status.ACYCLIC
        # vacuous certificates drive the bisection all the way down
        assert res.delta_bar is not None and 0.0 < res.delta_bar <= 0.001
        assert res.lambda_bar is None


class TestDeltaMonotonicity:
    def test_nested_partitions_monotone_in_delta(self, flagship):
        # enlarging the critical cell to the next breakpoint, keeping the
        # remaining cells identical, removes vertices and edges only, so
        # the exponent bound cannot decrease
        from quadexp.digraph import build_representation, min_cycle_mean_lowmem
        from quadexp.partition import PhasePartition, phase_partition

        part = phase_partition(flagship, 0.0005, 400)
        m = part.k // 2
        base = min_cycle_mean_lowmem(build_representation(flagship, part)).value
        los, his = part.los, part.his
        for strip in (1, 2, 3):
            inner_hi = float(his[m + strip - 1])
            nested = PhasePartition(
                inner_hi,
                np.concatenate((los[: m - strip], los[m + strip:])),
                np.concatenate((his[: m - strip], his[m + strip:])),
            )
            wider = min_cycle_mean_lowmem(build_representation(flagship, nested)).value
            assert wider is None or wider >= base - 2e-9


class TestBisectionBehavior:
    def test_midpoints_only_shrink_hi_on_positive(self, flagship, monkeypatch):
        # with a threshold oracle the bisection must bracket the threshold
        threshold = 0.0004
        calls = []

        def fake(omega, delta, k):
            calls.append(delta)
            return 1.0 if delta >= threshold else -1.0

        monkeypatch.setattr(expansivity, "lambda_bound", fake)
        bound = delta_bound(flagship, steps=20)
        assert bound is not None
        assert bound.delta_bar >= threshold
        assert bound.delta_bar - threshold < 0.001 * 2.0**-19
        # the returned radius was itself tested positive
        assert bound.delta_bar in calls
