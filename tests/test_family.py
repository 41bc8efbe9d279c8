"""The quadratic family's geometry on the phase partition: the certified
phase-domain bound, and the images, preimages and derivative bounds of
f_a(x) = a - x^2 as ``build_representation`` realizes them in the edges
(images and preimages) and weights (log|f'| on the preimage slices)."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from quadexp.digraph import build_representation
from quadexp.family import ParamInterval, phase_domain
from quadexp.partition import phase_partition
from quadexp.rigor import RigorError, log_down, representable

from conftest import cells_of

mpmath.mp.dps = 50


def mp_fixed_point(a):
    return -mpmath.mpf(0.5) - mpmath.sqrt(1 + 4 * mpmath.mpf(a)) / 2


def point(a) -> ParamInterval:
    return ParamInterval(0, a, a)


def graph_of(omega, delta, k):
    part = phase_partition(omega, delta, k)
    return cells_of(part), build_representation(omega, part)


def out_edges(graph, j):
    return {v: w for u, v, w in graph.edges() if u == j}


def cell_with(cells, x):
    """The first cell other than the critical one (cells[len(cells) // 2])
    that holds x."""
    return next(j for j, c in enumerate(cells) if j != len(cells) // 2 and c.lo <= x <= c.hi)


def random_graphs(seed, count):
    """(omega, cells, graph) on narrow parameter intervals in [1.4, 2]."""
    rng = random.Random(seed)
    for _ in range(count):
        a_lo = rng.uniform(1.4, 2.0)
        omega = ParamInterval(0, a_lo, min(2.0, a_lo + rng.uniform(0, 0.01)))
        yield (omega, *graph_of(omega, rng.uniform(0.001, 0.05), 2 * rng.randint(2, 40)))


class TestFixedPoint:
    """phase_domain is -p_a, the negative fixed point's magnitude, rounded up."""

    def test_a2_exact_algebra(self):
        # sqrt(1 + 4 * 2) = 3 is exact, so no step rounds
        assert phase_domain(point(2.0)) == 2.0

    def test_a0(self):
        assert phase_domain(point(0.0)) == 1.0
        with pytest.raises(RigorError):
            phase_domain(ParamInterval(0, -0.25, 0.0))

    def test_sampled_containment(self, rng):
        # -p_a <= sup exactly: (2 sup - 1)^2 >= 1 + 4a
        for _ in range(1000):
            a = rng.uniform(0.0, 2.0)
            sup = Fraction(phase_domain(ParamInterval(0, rng.uniform(0.0, a), a)))
            assert (2 * sup - 1) ** 2 >= 1 + 4 * Fraction(a)

    def test_width_tracks_parameter_width(self):
        omega = ParamInterval(0, 1.5, 1.5 + 1e-6)
        width = mpmath.mpf(phase_domain(omega)) + mp_fixed_point(omega.a_lo)
        assert 0 <= width <= 1e-6 + 4 * math.ulp(2.0)


class TestPhaseDomain:
    def test_a2(self):
        # the bound for an interval is the bound at its right end
        assert phase_domain(ParamInterval(0, representable("1.9999"), 2.0)) == 2.0

    def test_a14_against_oracle(self):
        a14 = representable("1.4")
        sup = phase_domain(point(a14))
        exact = mpmath.mpf(0.5) + mpmath.sqrt(1 + 4 * mpmath.mpf(a14)) / 2
        assert exact <= mpmath.mpf(sup) <= exact + mpmath.mpf(1e-14)
        # frozen decimal reference for p at a = 1.4-hat: 1.78452325786651...
        assert abs(sup - 1.7845232578665129) < 1e-12

    def test_contains_sampled_endpoints(self):
        rng = random.Random(11)
        omega = ParamInterval(0, representable("1.4"), 2.0)
        sup = mpmath.mpf(phase_domain(omega))
        for _ in range(100):
            a = rng.uniform(omega.a_lo, omega.a_hi)
            assert -mp_fixed_point(a) <= sup


class TestImage:
    """An edge (c, t) is present when the image of cell c meets vertex t."""

    def test_fixed_point_of_a2(self):
        cells, g = graph_of(point(2.0), 0.01, 40)
        assert cell_with(cells, 1.0) in out_edges(g, cell_with(cells, -1.0))

    def test_critical_value(self):
        # cells next to the critical point reach the critical value a = 2
        cells, g = graph_of(point(2.0), 0.01, 40)
        top = cell_with(cells, 2.0)
        for j in (len(cells) // 2 - 1, len(cells) // 2 + 1):
            assert top in out_edges(g, j)

    def test_sampled_containment(self):
        rng = random.Random(13)
        for omega, cells, g in random_graphs(13, 20):
            edges = {(u, v) for u, v, _ in g.edges()}
            delta = cells[len(cells) // 2].hi
            for _ in range(100):
                a = rng.uniform(omega.a_lo, omega.a_hi)
                x = rng.uniform(delta, cells[-1].hi) * rng.choice((-1, 1))
                y = a - x * x
                if y < cells[0].lo:
                    continue  # x lies beyond this a's fixed point
                t = len(cells) // 2 if -delta < y < delta else cell_with(cells, y)
                assert (cell_with(cells, x), t) in edges, (omega, x, y)

    def test_per_parameter_invariance(self):
        omega = ParamInterval(0, 1.7, 1.9)
        part = phase_partition(omega, 0.01, 60)
        wide = {(u, v): w for u, v, w in build_representation(omega, part).edges()}
        for a in (1.7, 1.8, 1.9):
            for u, v, w in build_representation(point(a), part).edges():
                assert (u, v) in wide and wide[(u, v)] <= w

    def test_symmetry(self):
        # f_a is even: mirrored cells have the same targets
        cells, g = graph_of(ParamInterval(0, 1.5, 1.6), 0.01, 60)
        for j in range(len(cells)):
            assert out_edges(g, j).keys() == out_edges(g, len(cells) - 1 - j).keys()


class TestDerivLogInf:
    """An edge's weight is log_down(2 min|x|) over the part of its source
    that can reach its target."""

    def test_half_interval(self):
        cells, g = graph_of(point(2.0), 0.5, 2)
        v = min(out_edges(g, 2).values())
        assert v <= 0.0
        assert 0.0 - v <= 2 * math.ulp(1.0) + 5e-324

    def test_one_two(self):
        # f_2 maps [1, 2] onto [-2, 1]; the slice reaching [-1, 1] starts at 1
        cells, g = graph_of(point(2.0), 1.0, 2)
        v = out_edges(g, 2)[1]
        assert v == log_down(2.0) and v <= math.log(2.0)
        assert math.log(2.0) - v < 1e-15

    def test_even_symmetry(self):
        cells, g = graph_of(ParamInterval(0, 1.5, 1.6), 0.01, 60)
        for j in range(len(cells)):
            assert out_edges(g, j) == out_edges(g, len(cells) - 1 - j)

    def test_lower_bounds_samples(self):
        # every weight lies between log|2x| at the source's inner and outer ends
        for _, cells, g in random_graphs(17, 20):
            for u, _, w in g.edges():
                inner = min(abs(cells[u].lo), abs(cells[u].hi))
                outer = max(abs(cells[u].lo), abs(cells[u].hi))
                assert log_down(2 * inner) <= w
                assert mpmath.mpf(w) <= mpmath.log(2 * mpmath.mpf(outer))


class TestPreimage:
    """An edge's weight reflects the preimage of its target in its source."""

    def test_critical_point(self):
        # the critical value 2 has preimage 0: the inner cells' slice into
        # the top cell reaches their inner end delta
        cells, g = graph_of(point(2.0), 0.01, 40)
        top = cell_with(cells, 2.0)
        assert out_edges(g, len(cells) // 2 + 1)[top] == log_down(2 * 0.01)

    def test_unit(self):
        # the preimages of the cell around 1 under f_2 lie around -1 and 1
        cells, g = graph_of(point(2.0), 0.01, 40)
        one = cell_with(cells, 1.0)
        # |x| of a preimage lies in [sqrt(2 - hi), sqrt(2 - lo)], widened a little
        inner = math.sqrt(2.0 - cells[one].hi) * (1 - 1e-15)
        outer = math.sqrt(2.0 - cells[one].lo) * (1 + 1e-15)
        sources = {u for u, v, _ in g.edges() if v == one}
        assert {cell_with(cells, -1.0), one} <= sources
        for u in sources:
            assert min(abs(cells[u].lo), abs(cells[u].hi)) <= outer
            assert max(abs(cells[u].lo), abs(cells[u].hi)) >= inner

    def test_empty_when_unreachable(self):
        # no point maps above the parameter 1.5
        cells, g = graph_of(point(1.5), 0.01, 60)
        assert all(cells[v].lo <= 1.5 for v in g.dst.tolist())

    def test_sampled_membership(self):
        # a realized transition x -> y is an edge whose slice holds x
        rng = random.Random(19)
        for omega, cells, g in random_graphs(19, 20):
            weights = {(u, v): w for u, v, w in g.edges()}
            delta = cells[len(cells) // 2].hi
            for _ in range(100):
                a = rng.uniform(omega.a_lo, omega.a_hi)
                x = rng.uniform(delta, cells[-1].hi) * rng.choice((-1, 1))
                y = a - x * x
                if -delta < y < delta or y < cells[0].lo:
                    continue
                w = weights[(cell_with(cells, x), cell_with(cells, y))]
                assert mpmath.mpf(w) <= mpmath.log(abs(2 * mpmath.mpf(x))), (omega, x, y)

    def test_semi_conjugation(self):
        # the preimages of a cell's image cover the cell, inner end included
        for _, cells, g in random_graphs(23, 20):
            for j, c in enumerate(cells):
                if j != len(cells) // 2:
                    assert min(out_edges(g, j).values()) == log_down(2 * min(abs(c.lo), abs(c.hi)))
