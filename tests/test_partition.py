import hashlib
import math
import random

import numpy as np
import pytest

from quadexp.family import ParamInterval, phase_domain
from quadexp.partition import (
    breakpoint_dump,
    phase_partition,
    subdivide_parameters,
)
from quadexp.rigor import RigorError, representable

from conftest import cells_of


class TestParamGrid:
    def test_endpoints_exact(self):
        g = subdivide_parameters(representable("1.4"), 2.0, 60000)
        assert g.points[0] == representable("1.4")
        assert g.points[-1] == 2.0

    def test_halfway_matches_direct_formula(self):
        a = representable("1.4")
        g = subdivide_parameters(a, 2.0, 60000)
        # gcd(30000, 60000) = 30000 reduces the fraction to 1/2
        assert g.points[30000] == a + (1 * (2.0 - a)) / 2

    def test_monotone(self):
        g = subdivide_parameters(representable("1.4"), 2.0, 60000)
        for a, b in zip(g.points, g.points[1:]):
            assert a <= b

    def test_refinement_consistency(self):
        coarse = subdivide_parameters(representable("1.4"), 2.0, 6000)
        fine = subdivide_parameters(representable("1.4"), 2.0, 12000)
        for i, p in enumerate(coarse.points):
            assert fine.points[2 * i] == p

    @pytest.mark.parametrize("n", [1, 7, 6000, 60000, 120000])
    def test_points_match_the_formula_bit_for_bit(self, n):
        a_min, a_max = representable("1.4"), 2.0
        expect = []
        for i in range(n + 1):
            g = math.gcd(i, n)
            expect.append(a_min + ((i // g) * (a_max - a_min)) / (n // g))
        points = subdivide_parameters(a_min, a_max, n).points
        assert points.dtype == np.float64 and not points.flags.writeable
        assert [p.hex() for p in points.tolist()] == [p.hex() for p in expect]

    def test_interval_accessor(self):
        g = subdivide_parameters(representable("1.4"), 2.0, 100)
        om = g.interval(7)
        assert om.index == 7
        assert om.a_lo == g.points[7] and om.a_hi == g.points[8]
        assert type(om.a_lo) is float and type(om.a_hi) is float
        with pytest.raises(IndexError):
            g.interval(100)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            subdivide_parameters(2.0, 1.4, 10)
        with pytest.raises(ValueError):
            subdivide_parameters(1.4, 2.0, 0)


class TestPhasePartition:
    def test_k2_single_cells(self):
        part = phase_partition(ParamInterval(0, 1.0, 2.0), 1.0, 2)
        cells = cells_of(part)
        assert len(cells) == 3
        sup = phase_domain(ParamInterval(0, 1.0, 2.0))
        assert cells[0].lo == -sup and cells[0].hi == -1.0
        assert cells[1].lo == -1.0 and cells[1].hi == 1.0
        assert cells[2].lo == 1.0 and cells[2].hi == sup

    def test_k4_geometric_breakpoints(self):
        # sup of the domain for a in [1, 2] is 2, so ratio (p/delta) = 2 per half
        part = phase_partition(ParamInterval(0, 1.0, 2.0), 1.0, 4)
        pos = [c for c in cells_of(part) if c.lo > 0]
        bps = [pos[0].lo, pos[0].hi, pos[1].hi]
        assert bps[0] == 1.0 and bps[2] == 2.0
        assert abs(bps[1] - math.sqrt(2.0) * 1.0) <= 4 * math.ulp(2.0)

    def test_cell_count_and_critical(self):
        om = ParamInterval(0, 1.8, 1.81)
        part = phase_partition(om, 0.001, 100)
        assert part.k == 100 and part.delta == 0.001
        critical = cells_of(part)[part.k // 2]
        assert critical.lo == -0.001 and critical.hi == 0.001

    def test_coverage_sampling(self):
        rng = random.Random(23)
        om = ParamInterval(0, representable("1.9999"), 2.0)
        part = phase_partition(om, 0.001, 500)
        sup = phase_domain(om)
        cells = [c for j, c in enumerate(cells_of(part)) if j != part.k // 2]
        for _ in range(10000):
            x = rng.uniform(0.001, sup) * (1 if rng.random() < 0.5 else -1)
            assert any(c.lo <= x <= c.hi for c in cells), x

    def test_endpoint_chain(self):
        om = ParamInterval(0, 1.7, 1.71)
        part = phase_partition(om, 0.01, 64)
        m = part.k // 2
        cells = cells_of(part)
        neg, pos = cells[:m], cells[m + 1:]
        for a, b in zip(pos, pos[1:]):
            assert a.hi == b.lo
        for a, b in zip(neg, neg[1:]):
            assert a.hi == b.lo
        assert pos[0].lo == 0.01 and neg[-1].hi == -0.01
        assert pos[-1].hi == phase_domain(om)
        bounds = part.bounds
        assert bounds.dtype == np.float64 and not bounds.flags.writeable
        assert bounds.size == part.k + 2 and np.all(bounds[:-1] < bounds[1:])
        assert part.delta == bounds[m + 1] == 0.01

    def test_negative_cells_are_exact_negations(self):
        om = ParamInterval(0, 1.6, 1.62)
        part = phase_partition(om, 0.005, 40)
        m = part.k // 2
        cells = cells_of(part)
        for j in range(m):
            mirror = cells[m - 1 - j]
            cell = cells[m + 1 + j]
            assert mirror.lo == -cell.hi and mirror.hi == -cell.lo
        assert np.array_equal(part.bounds, -part.bounds[::-1])
        assert part.delta == part.bounds[m + 1] == 0.005

    def test_validation(self):
        om = ParamInterval(0, 1.8, 1.81)
        with pytest.raises(ValueError):
            phase_partition(om, 0.001, 7)  # odd
        with pytest.raises(ValueError):
            phase_partition(om, 0.0, 10)
        with pytest.raises(ValueError, match="critical radius must be positive"):
            phase_partition(om, math.nan, 10)
        with pytest.raises(ValueError, match=r"outside \(0, 2\]"):
            phase_partition(ParamInterval(0, 2.5, 2.6), 0.001, 10)
        with pytest.raises(ValueError):
            phase_partition(om, 5.0, 10)  # swallows the domain
        with pytest.raises(ValueError, match="critical radius must be at most 1, got 1.5"):
            phase_partition(om, 1.5, 10)
        # sup is 4 ulps above 1, too close for 20 cells in [1, sup]
        tiny = ParamInterval(0, 2.0**-50, 2.0**-50)
        assert phase_domain(tiny) == 1.0 + 4 * 2.0**-52
        with pytest.raises(RigorError, match="collide"):
            phase_partition(tiny, 1.0, 20)

    def test_subnormal_radius_is_named(self):
        # knee / delta overflows below about 1e-308: the error names the
        # radius, not the cell count, and 1e-300 still builds
        om = ParamInterval(0, 1.8, 1.81)
        with pytest.raises(RigorError, match=r"critical radius 1e-310 too small") as info:
            phase_partition(om, 1e-310, 4)
        assert "k=" not in str(info.value)
        part = phase_partition(om, 1e-300, 4)
        assert part.delta == 1e-300
        assert np.all(np.diff(part.bounds) > 0.0)

    def test_no_cell_contains_zero_interior(self):
        om = ParamInterval(0, 1.9, 1.91)
        part = phase_partition(om, 1e-6, 2000)
        for j, c in enumerate(cells_of(part)):
            assert j == part.k // 2 or not (c.lo < 0.0 < c.hi)


class TestBreakpointDump:
    def test_roundtrip_and_order(self):
        om = ParamInterval(0, 1.75, 1.76)
        part = phase_partition(om, 0.01, 30)
        lines = breakpoint_dump(part)
        values = [float.fromhex(s) for s in lines]
        assert len(values) == part.k + 2
        assert values == sorted(values)
        cells = cells_of(part)
        assert values[0] == cells[0].lo
        assert values[-1] == cells[-1].hi
        # both critical-cell boundaries appear
        assert -0.01 in values and 0.01 in values

    @pytest.mark.parametrize(
        "k, digest",
        [
            (4, "727612403f9964abf016466f17e9e352936e442abaf48a29697a62242e025f19"),
            (20000, "1e112196ba1908e9be58c33528a6da5f239548c8e5e79829378abcd29cff1579"),
            (80000, "7bdbc44de0125a7f7f029b75aa7fc29bdb6873a5e31d1d0d38e5016dddce8aaa"),
        ],
    )
    def test_breakpoint_bytes_are_locked(self, flagship, k, digest):
        # k = 4 has no endpoint band; at 20000 and 80000 the band is capped
        # by the parameter smear
        text = "\n".join(breakpoint_dump(phase_partition(flagship, 0.001, k))) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
