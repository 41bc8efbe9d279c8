import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from mpmath import iv

import quadexp.digraph as digraph
from quadexp.digraph import (
    CycleMeanResult,
    WeightedDigraph,
    _certify,
    _evaluate,
    _positive_out_edges,
    _prune,
    brute_force_cycle_mean,
    build_representation,
    cycle_weight,
    dump_graph,
    load_graph,
    min_cycle_mean_karp,
    min_cycle_mean_lowmem,
)
from quadexp.expansivity import delta_bound, lambda_bound
from quadexp.family import ParamInterval, phase_domain
from quadexp.partition import breakpoint_dump, phase_partition, subdivide_parameters
from quadexp.rigor import RigorError, representable

from conftest import cells_of, random_int_graph


def reference_representation(omega, partition):
    """The graph construction cell by cell on mpmath.iv, a substrate that
    shares no code with quadexp.rigor and at 53 bits rounds + - * sqrt
    outward exactly as the directed primitives do.  Returns the domain bound
    sup and the edges (source, target, oracle) in (source, target) order;
    oracle is log(2 min|x|) over the part of the source that can reach the
    target, rounded down at 53 bits."""
    iv.prec = 53
    a = iv.mpf([omega.a_lo, omega.a_hi])
    sup = float(((1 + iv.sqrt(1 + 4 * a)) / 2).b)
    vertices = cells_of(partition)
    edges = []
    for j, (lo, hi) in enumerate(vertices):
        if j == partition.k // 2:
            continue  # the critical cell has no out-edges
        img = a - iv.mpf([lo, hi]) ** 2
        img_lo, img_hi = max(img.a, -sup), min(img.b, sup)
        for t, (t_lo, t_hi) in enumerate(vertices):
            if t_hi < img_lo or img_hi < t_lo:
                continue
            radicand = a - iv.mpf([t_lo, t_hi])
            root = iv.sqrt(iv.mpf([max(radicand.a, 0), radicand.b]))
            if lo > 0:
                piece = (max(lo, root.a), min(hi, root.b))
            else:
                piece = (max(lo, -root.b), min(hi, -root.a))
            assert piece[0] <= piece[1], "edge without a realizable slice"
            edges.append((j, t, float(iv.log(2 * min(abs(piece[0]), abs(piece[1]))).a)))
    return sup, edges


class TestGraphContainer:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            WeightedDigraph.from_edges(2, [(0, 1, 1.0), (0, 1, 2.0)])
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 0\)"):
            WeightedDigraph(2, [0, 1, 1], [1, 0, 0], [1.0, 2.0, 3.0])

    def test_unsorted_edges_rejected(self):
        # the constructor checks (source, target) order; only from_edges sorts
        with pytest.raises(ValueError, match=r"order \(0, 1\)"):
            WeightedDigraph(3, [1, 0], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"order \(0, 1\)"):
            WeightedDigraph(3, [0, 0], [2, 1], [1.0, 1.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            WeightedDigraph.from_edges(2, [(0, 2, 1.0)])

    def test_canonical_order(self):
        g = WeightedDigraph.from_edges(3, [(2, 0, 1.0), (0, 2, 2.0), (0, 1, 3.0)])
        assert list(g.edges()) == [(0, 1, 3.0), (0, 2, 2.0), (2, 0, 1.0)]


class TestBuildRepresentation:
    def test_vertex_count(self):
        om = ParamInterval(0, 1.8, 1.81)
        for k in (2, 10, 64):
            g = build_representation(om, phase_partition(om, 0.01, k))
            assert g.num_vertices == k + 1

    @given(
        a=st.floats(0.0, 2.0, exclude_min=True),
        b=st.one_of(st.none(), st.floats(0.0, 2.0, exclude_min=True)),
        delta=st.floats(0.0, 1.0, exclude_min=True),
        half=st.integers(1, 200),
    )
    @example(a=2.0, b=None, delta=0.5, half=2)  # p = -2, the cell [-2, ..] maps over itself
    @example(a=2.0**-1074, b=None, delta=1.0, half=1)
    @example(a=2.0**-1074, b=None, delta=2.0**-1074, half=1)  # delta^2 underflows
    @example(a=1.0, b=2.0, delta=1.0, half=200)
    @settings(max_examples=300, deadline=None)
    def test_fixed_point_self_loop(self, a, b, delta, half):
        # a radius of at most 1 leaves |p(a_hi)| > 1 outside the critical
        # cell; the negation c' of a cell c holding |p| holds p = f(|p|), so
        # the builder emits c -> c' and, copying c's targets, c' -> c'
        a_lo, a_hi = (a, a) if b is None else sorted((a, b))
        om, k = ParamInterval(0, a_lo, a_hi), 2 * half
        try:
            part = phase_partition(om, delta, k)
        except RigorError:
            reject()  # k too large for [delta, sup], or delta too small
        g = build_representation(om, part)
        weight = {(u, v): w for u, v, w in g.edges()}
        # the positive cells holding |p| = (1 + sqrt(1 + 4 a_hi))/2, located
        # exactly: for x > 1/2, |p| >= x iff (2x - 1)^2 <= 1 + 4 a_hi
        disc = 1 + 4 * Fraction(a_hi)
        holding = [
            j for j, c in enumerate(cells_of(part))
            if j > k // 2 and (2 * Fraction(c.lo) - 1) ** 2 <= disc <= (2 * Fraction(c.hi) - 1) ** 2
        ]
        assert holding
        lam = lambda_bound(om, delta, k)
        assert isinstance(lam, float)
        for j in holding:
            assert (j, k - j) in weight and (k - j, k - j) in weight
            assert lam <= weight[k - j, k - j]

    def test_critical_cell_has_no_out_edges(self):
        om = ParamInterval(0, representable("1.9999"), 2.0)
        g = build_representation(om, phase_partition(om, 0.001, 100))
        assert 50 not in g.src
        assert set(g.src.tolist()) == set(range(101)) - {50}

    def test_matches_scalar_reference(self):
        for a_lo, a_hi, delta, k in (
            (1.8, 1.81, 0.01, 16),
            (representable("1.9999"), 2.0, 0.001, 40),
            (representable("1.4"), representable("1.41"), 0.05, 24),
            # an image end exactly on a cell boundary (k < 12: no outer band,
            # so the breakpoints do not depend on a_lo), where a one-ulp slip
            # in rounding an image bound changes the edges.  Here the lower
            # image end of the cells next to the critical cell is delta ...
            (float.fromhex("0x1.f9f51069413d8p-4"), 2.0, float.fromhex("0x1.514e0af0d6290p-5"), 4),
            # ... and here their upper image end is delta
            (0.9, 0.973368850314211, 0.6060600572817966, 4),
        ):
            om = ParamInterval(0, a_lo, a_hi)
            part = phase_partition(om, delta, k)
            got = build_representation(om, part)
            sup, edges = reference_representation(om, part)
            assert phase_domain(om) == sup
            src, dst, oracle = (np.array(column) for column in zip(*edges))
            assert got.num_vertices == k + 1
            assert np.array_equal(got.src, src)
            assert np.array_equal(got.dst, dst)
            # log_down's documented bound: at most 2 ulp below log
            two_ulp_up = np.nextafter(np.nextafter(got.weight, np.inf), np.inf)
            assert np.all(got.weight <= oracle) and np.all(oracle <= two_ulp_up)

    def test_transition_sampling(self):
        rng = random.Random(29)
        om = ParamInterval(0, 1.85, 1.8501)
        part = phase_partition(om, 0.001, 200)
        g = build_representation(om, part)
        edges = {(u, v) for u, v, _ in g.edges()}
        cells = cells_of(part)
        m = part.k // 2
        sup = phase_domain(om)
        hits = 0
        for _ in range(10000):
            a = rng.uniform(om.a_lo, om.a_hi)
            x = rng.uniform(0.001, sup) * (1 if rng.random() < 0.5 else -1)
            sources = [j for j, c in enumerate(cells) if j != m and c.lo <= x <= c.hi]
            if not sources:
                continue
            y = a - x * x
            targets = [j for j, c in enumerate(cells) if j != m and c.lo <= y <= c.hi]
            if -0.001 < y < 0.001 or not targets:
                targets = targets + [m]
            assert any((s, t) in edges for s in sources for t in targets), (a, x, y)
            hits += 1
        assert hits > 9000

    def test_weights_lower_bound_log_derivative(self):
        rng = random.Random(31)
        om = ParamInterval(0, 1.75, 1.7501)
        part = phase_partition(om, 0.01, 60)
        g = build_representation(om, part)
        cells = cells_of(part)
        for u, v, w in g.edges():
            # sample points of the source that truly reach the target
            src, tgt = cells[u], cells[v]
            for _ in range(40):
                a = rng.uniform(om.a_lo, om.a_hi)
                x = rng.uniform(src.lo, src.hi)
                y = a - x * x
                if tgt.lo <= y <= tgt.hi:
                    assert w <= math.log(abs(2 * x)) + 1e-12, (u, v, w, x)


class TestCycleWeight:
    @given(
        a_lo=st.floats(1.0, 2.0),
        width=st.floats(0.0, 0.01),
        log2_delta=st.floats(-13.0, 0.0),
        half=st.integers(1, 120),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_chosen_sources_get_the_graphs_edges(self, a_lo, width, log2_delta, half, data):
        # the helper on any set of positive cells gives those cells' out-
        # edges in the whole graph, targets and weights bit for bit, and
        # so do their mirrors, the negative cells
        omega, k = ParamInterval(0, a_lo, min(a_lo + width, 2.0)), 2 * half
        try:
            part = phase_partition(omega, 2.0**log2_delta, k)
        except RigorError:
            reject()  # k too large for [delta, sup]
        graph = build_representation(omega, part)
        chosen = data.draw(st.sets(st.integers(0, half - 1)))
        sources = np.array(sorted(chosen), dtype=np.int64)
        cells = half + 1 + sources
        counts, at, dst, weight = _positive_out_edges(
            omega, part, part.bounds[cells], part.bounds[cells + 1]
        )
        assert counts.tolist() == np.bincount(at, minlength=sources.size).tolist()
        assert np.all(np.diff(at * (k + 1) + dst) > 0)
        for i, s in enumerate(sources.tolist()):
            for cell in (half + 1 + s, half - 1 - s):
                edges = graph.src == cell
                assert dst[at == i].tolist() == graph.dst[edges].tolist()
                assert weight[at == i].tobytes() == graph.weight[edges].tobytes()

    def test_cycles_of_the_graph(self):
        # every witness of a representation graph, stopped or full, and
        # every self-loop: the exact sum of the graph's weights, rounded
        grid = subdivide_parameters(representable("1.4"), 2.0, 60000)
        for row, delta, k in ((12800, 0.001, 1000), (51030, 0.001, 1000), (59245, 0.0005, 200)):
            omega = grid.interval(row)
            part = phase_partition(omega, delta, k)
            graph = build_representation(omega, part)
            weight = {(u, v): w for u, v, w in graph.edges()}
            cycles = [[u] for (u, v) in weight if u == v]
            for stop in (False, True):
                cycles.append(min_cycle_mean_lowmem(graph, stop_at_nonpositive=stop).witness_cycle)
            for cycle in cycles:
                closed = list(zip(cycle, cycle[1:] + cycle[:1]))
                exact = sum(Fraction(weight[e]) for e in closed)
                assert cycle_weight(omega, part, cycle) == math.fsum(weight[e] for e in closed)
                assert (cycle_weight(omega, part, cycle) <= 0) == (exact <= 0)

    def test_walks_off_the_graph(self):
        omega = subdivide_parameters(representable("1.4"), 2.0, 60000).interval(12800)
        part = phase_partition(omega, 0.001, 100)
        graph = build_representation(omega, part)
        witness = min_cycle_mean_lowmem(graph).witness_cycle
        assert cycle_weight(omega, part, witness) is not None
        edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
        lone = next(u for u in range(101) if u != 50 and (u, u) not in edges)
        for walk in ([lone], witness + [50], [50], [], [-1], [101], witness[:1] + witness):
            assert cycle_weight(omega, part, walk) is None, walk


class TestBruteForce:
    def test_triangle(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        r = brute_force_cycle_mean(g)
        assert r.value == 2.0
        assert r.witness_cycle == [0, 1, 2]

    def test_self_loop_beats_triangle(self):
        g = WeightedDigraph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (1, 1, 1.5)]
        )
        r = brute_force_cycle_mean(g)
        assert r.value == 1.5
        assert r.witness_cycle == [1]

    def test_acyclic_path(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert brute_force_cycle_mean(g) == CycleMeanResult(None, None)

    def test_rejects_large(self):
        g = WeightedDigraph.from_edges(13, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            brute_force_cycle_mean(g)

    def test_exact_rational_rounding(self):
        # mean 7/3 is not representable; result is its round-down image
        g = WeightedDigraph.from_edges(3, [(0, 1, 2.0), (1, 2, 2.0), (2, 0, 3.0)])
        r = brute_force_cycle_mean(g)
        assert Fraction(r.value) <= Fraction(7, 3)
        assert Fraction(math.nextafter(r.value, math.inf)) > Fraction(7, 3)


class TestSolverExamples:
    def test_single_self_loop(self):
        g = WeightedDigraph.from_edges(1, [(0, 0, 3.0)])
        assert min_cycle_mean_karp(g).value == 3.0
        assert abs(min_cycle_mean_lowmem(g).value - 3.0) <= 1e-9

    def test_two_cycle(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 3.0)])
        assert min_cycle_mean_karp(g).value == 2.0
        assert abs(min_cycle_mean_lowmem(g).value - 2.0) <= 1e-9

    def test_acyclic(self):
        for edges in (
            [(0, 1, -1.0), (1, 2, -2.0), (2, 3, -3.0)],
            # vertex 0 loses both out-edges in the same pruning round
            [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0), (1, 3, 0.0)],
        ):
            g = WeightedDigraph.from_edges(4, edges)
            assert min_cycle_mean_karp(g).value is None
            assert min_cycle_mean_lowmem(g) == CycleMeanResult(None, None)

    def test_negative_weights(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, -5.0), (1, 0, -1.0)])
        assert min_cycle_mean_karp(g).value == -3.0
        assert abs(min_cycle_mean_lowmem(g).value + 3.0) <= 1e-9


class TestSolverOracle:
    def test_random_graphs_against_brute_force(self, rng):
        checked = 0
        for _ in range(300):
            g = random_int_graph(rng)
            want = brute_force_cycle_mean(g)
            karp = min_cycle_mean_karp(g)
            low = min_cycle_mean_lowmem(g)
            if want.value is None:
                assert karp.value is None and low.value is None
                continue
            assert karp.value == want.value, (list(g.edges()), karp.value, want.value)
            assert abs(low.value - want.value) <= 1e-9
            checked += 1
        assert checked > 150

    def test_float_weight_graphs(self, rng):
        for _ in range(120):
            n = rng.randint(2, 7)
            edges = []
            for u in range(n):
                for v in range(n):
                    if rng.random() < 0.4:
                        edges.append((u, v, rng.uniform(-8, 8)))
            g = WeightedDigraph.from_edges(n, edges)
            want = brute_force_cycle_mean(g)
            karp = min_cycle_mean_karp(g)
            low = min_cycle_mean_lowmem(g)
            if want.value is None:
                assert karp.value is None and low.value is None
                continue
            # certified lower bounds within solver slack of the exact value
            assert karp.value <= math.nextafter(want.value, math.inf)
            assert want.value - karp.value <= 1e-10
            assert low.value <= math.nextafter(want.value, math.inf)
            assert want.value - low.value <= 1e-9


def exact_cycle_mean(graph, cycle) -> Fraction:
    """Exact mean weight of a cycle given by its vertices in edge order."""
    weights = {(u, v): w for u, v, w in graph.edges()}
    total = sum(Fraction(weights[(u, v)]) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    return total / len(cycle)


def exact_minimum(graph) -> Fraction | None:
    best = brute_force_cycle_mean(graph).witness_cycle
    return None if best is None else exact_cycle_mean(graph, best)


@st.composite
def float_graphs(draw):
    n = draw(st.integers(1, 6))
    weight = st.floats(-8.0, 8.0, allow_nan=False)
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n))
    edges = [(u, v, draw(weight)) for u, v in sorted(pairs)]
    return WeightedDigraph.from_edges(n, edges)


class TestCertificate:
    @given(
        graph=float_graphs(),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_never_above_exact_minimum(self, graph, data):
        # any potentials and labels, monotone along the edges or not
        n = graph.num_vertices
        x = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
        eta = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n)))
        want = exact_minimum(graph)
        if want is None:
            return
        got = _certify(graph.src, graph.dst, graph.weight, eta, x)
        assert Fraction(got) <= want

    @given(graph=float_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotone_labels_restrict_to_label_classes(self, graph, data):
        # labelling each vertex by its number of ancestors never decreases
        # along an edge, so the edges between label classes are left out
        n = graph.num_vertices
        x = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
        reach = np.eye(n, dtype=bool)
        reach[graph.src, graph.dst] = True
        for _ in range(n):
            reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
        eta = reach.sum(axis=0).astype(float)
        assert np.all(eta[graph.src] <= eta[graph.dst])
        want = exact_minimum(graph)
        if want is None:
            return
        got = _certify(graph.src, graph.dst, graph.weight, eta, x)
        assert Fraction(got) <= want

    def test_optimal_potentials_give_the_minimum(self):
        # triangle of mean 2 with potentials making every reduced weight 2
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        x = np.array([0.0, 1.0, 1.0])
        assert _certify(g.src, g.dst, g.weight, np.zeros(3), x) == 2.0


class TestHoward:
    def check(self, edges, n, want_cycle):
        g = WeightedDigraph.from_edges(n, edges)
        r = min_cycle_mean_lowmem(g)
        want = exact_minimum(g)
        assert Fraction(r.value) <= want
        assert float(want - Fraction(r.value)) <= 1e-12
        assert r.witness_cycle == want_cycle
        assert exact_cycle_mean(g, r.witness_cycle) == want
        return r

    def test_several_components_with_different_means(self):
        edges = [
            (0, 1, 5.0), (1, 0, 5.0),                  # mean 5
            (1, 2, 0.0),
            (2, 3, -1.0), (3, 4, -2.0), (4, 2, 0.0),  # mean -1
            (4, 5, 9.0),
            (5, 6, 2.5), (6, 5, 1.5),                  # mean 2
        ]
        self.check(edges, 7, [2, 3, 4])
        # the cheapest component upstream of the others
        flipped = [(v, u, w) for u, v, w in edges]
        self.check(flipped, 7, [2, 4, 3])

    def test_dead_end_branches(self):
        # 2 -> 3 -> 4 and 1 -> 2 lead only to the sink 4
        edges = [(0, 1, 1.0), (1, 0, 2.0), (1, 2, -9.0), (2, 3, -9.0), (3, 4, -9.0), (0, 3, -9.0)]
        self.check(edges, 5, [0, 1])

    def test_acyclic(self):
        for edges in (
            [(0, 1, -1.0), (1, 2, -2.0), (2, 3, -3.0)],
            # vertex 0 loses both out-edges in the same pruning round
            [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0), (1, 3, 0.0)],
        ):
            g = WeightedDigraph.from_edges(4, edges)
            assert min_cycle_mean_karp(g).value is None
            assert min_cycle_mean_lowmem(g) == CycleMeanResult(None, None)
    def test_self_loops(self):
        edges = [(0, 0, 0.75), (0, 1, -1.0), (1, 2, 0.5), (2, 0, 1.0), (2, 2, 0.0)]
        self.check(edges, 3, [2])

    def test_minimum_unreachable_from_vertex_zero(self):
        edges = [(0, 1, 3.0), (1, 0, 3.0), (2, 3, -2.0), (3, 2, -2.5), (3, 0, 4.0)]
        self.check(edges, 4, [2, 3])

    @given(graph=float_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_minimum(self, graph):
        want = exact_minimum(graph)
        r = min_cycle_mean_lowmem(graph)
        if want is None:
            assert r == CycleMeanResult(None, None)
            return
        assert Fraction(r.value) <= want
        assert float(want - Fraction(r.value)) <= 1e-12
        assert exact_cycle_mean(graph, r.witness_cycle) >= Fraction(r.value)


def evaluate_all_rounds(succ, cost):
    """Policy evaluation by pointer doubling in a fixed ceil(log2 n) rounds
    per loop: the oracle for the early-stopping rounds of _evaluate."""
    n = succ.size
    rounds = max(1, (n - 1).bit_length())
    jump, low = succ, np.arange(n)
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    cycle_of = low[jump]
    roots = np.flatnonzero(cycle_of == np.arange(n))
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[jump] = True
    members = cycle_of[on_cycle]
    mean = np.zeros(n)
    mean[roots] = (
        np.bincount(members, weights=cost[on_cycle], minlength=n)[roots]
        / np.bincount(members, minlength=n)[roots]
    )
    eta = mean[cycle_of]
    x = cost - eta
    x[roots] = 0.0
    nxt = succ.copy()
    nxt[roots] = roots
    for _ in range(rounds):
        x = x + x[nxt]
        nxt = nxt[nxt]
    return eta, x, roots


def policy(succ, cost):
    return np.array(succ, dtype=np.int64), np.array(cost, dtype=np.float64)


@st.composite
def functional_graphs(draw):
    n = draw(st.integers(1, 70))
    succ = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cost = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-8.0, 8.0))
    return policy(succ, draw(st.lists(cost, min_size=n, max_size=n)))


class TestPolicyEvaluation:
    @given(graph=functional_graphs())
    # one n-cycle: every round of the first loop is needed
    @example(graph=policy([(v + 1) % 33 for v in range(33)], [0.5] * 33))
    # a path of n - 1 vertices into a self-loop: every round of the second
    # loop, and one more than the fixed count in the first; with costs -0.0
    # the path's head reaches the root after exactly 2^2 steps
    @example(graph=policy([1, 2, 3, 4, 4], [-0.0, -0.0, -0.0, -0.0, 0.0]))
    @example(graph=policy([min(v + 1, 63) for v in range(64)], [float(v % 7) - 3.0 for v in range(64)]))
    # a long tail into a long cycle
    @example(graph=policy([v + 1 for v in range(59)] + [25], [0.125 * v - 2.0 for v in range(60)]))
    @settings(max_examples=400, deadline=None)
    def test_early_stop_matches_all_rounds(self, graph):
        succ, cost = graph
        eta, x, roots = _evaluate(succ, cost)
        want_eta, want_x, want_roots = evaluate_all_rounds(succ, cost)
        assert eta.tobytes() == want_eta.tobytes()
        assert x.tobytes() == want_x.tobytes()
        assert np.array_equal(roots, want_roots)


def check_stopped_solve(graph, successors=None):
    """min_cycle_mean_lowmem with the stop flag against the full solve from
    the same start (each on a copy of successors, then checked by
    check_returned_policy): the cold full solve's sign, the same result
    when the full value is positive, and when it stops, a witness cycle of
    exact mean <= 0 bounding the value from above.  Returns the cold and
    the started full solve's results."""
    cold = min_cycle_mean_lowmem(graph)
    starts = [None if successors is None else successors.copy() for _ in range(2)]
    full = min_cycle_mean_lowmem(graph, successors=starts[0])
    got = min_cycle_mean_lowmem(graph, stop_at_nonpositive=True, successors=starts[1])
    if successors is not None:
        for start in starts:
            check_returned_policy(graph, start)
    if full.value is None:
        assert got == full == cold
        return cold, full
    assert (got.value <= 0.0) == (cold.value <= 0.0)
    if full.value > 0.0:
        assert got.value.hex() == full.value.hex()
        assert got.witness_cycle == full.witness_cycle
    elif got != full:
        mean = exact_cycle_mean(graph, got.witness_cycle)
        assert mean <= 0
        assert Fraction(got.value) <= mean
    return cold, full


def count_evaluations(monkeypatch):
    """List that gains one entry per policy evaluation from now on."""
    calls = []
    evaluate = digraph._evaluate

    def counting(succ, cost):
        calls.append(1)
        return evaluate(succ, cost)

    monkeypatch.setattr(digraph, "_evaluate", counting)
    return calls


class TestStopAtNonpositive:
    def test_stops_at_the_first_nonpositive_policy_cycle(self):
        # the lightest-edge policy is already the cycle 0 -> 1 -> 0 of
        # mean -1.5; the value is the lightest edge, not the minimum
        g = WeightedDigraph.from_edges(3, [(0, 1, -1.0), (1, 0, -2.0), (1, 2, 3.0), (2, 2, 5.0)])
        assert min_cycle_mean_lowmem(g) == CycleMeanResult(-1.5, [0, 1])
        assert min_cycle_mean_lowmem(g, stop_at_nonpositive=True) == CycleMeanResult(-2.0, [0, 1])

    def test_positive_cycle_with_a_nonpositive_label_goes_on(self):
        # summed in vertex order the cycle's weights give eta = 0.0, while
        # their exact sum is 2^-60 > 0: no stop, and the full solve's result
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0**-60), (2, 0, -1.0)])
        eta, _, _ = _evaluate(np.array([1, 2, 0]), np.array([1.0, 2.0**-60, -1.0]))
        assert np.all(eta == 0.0)
        full = min_cycle_mean_lowmem(g)
        assert min_cycle_mean_lowmem(g, stop_at_nonpositive=True) == full

    @given(graph=float_graphs())
    @settings(max_examples=400, deadline=None)
    def test_random_graphs(self, graph):
        check_stopped_solve(graph)

    @given(
        a_lo=st.floats(1.0, 2.0),
        width=st.floats(0.0, 0.01),
        log2_delta=st.floats(-13.0, 0.0),
        half=st.integers(1, 200),
    )
    @settings(max_examples=120, deadline=None)
    def test_representation_graphs(self, a_lo, width, log2_delta, half):
        # radii spread on a log scale from 1e-4 to 1 give both signs: about
        # a third of the bounds come out positive
        omega, delta = ParamInterval(0, a_lo, min(a_lo + width, 2.0)), 2.0**log2_delta
        try:
            part = phase_partition(omega, delta, 2 * half)
        except RigorError:
            reject()  # k too large for [delta, sup]
        check_stopped_solve(build_representation(omega, part))

    def test_grid_row_12800_needs_one_evaluation(self, monkeypatch):
        # a one-probe reject of the default grid: the stopped solve reads
        # the lightest-edge policy only
        omega = subdivide_parameters(representable("1.4"), 2.0, 60000).interval(12800)
        graph = build_representation(omega, phase_partition(omega, 0.001, 1000))
        calls = count_evaluations(monkeypatch)
        assert min_cycle_mean_lowmem(graph, stop_at_nonpositive=True).value <= 0.0
        assert len(calls) == 1
        calls.clear()
        assert min_cycle_mean_lowmem(graph).value <= 0.0
        assert len(calls) == 7

    @pytest.mark.parametrize("row, evaluations", [(None, 58), (59245, 75)], ids=["flagship", "row-59245"])
    def test_bisection_evaluations_are_locked(self, flagship, monkeypatch, row, evaluations):
        # policy evaluations over the 21 probes of delta_bound, each after
        # the first starting from the last passing probe's policy: from
        # cold starts they take 161 on the flagship and 152 on grid row
        # 59245
        grid = subdivide_parameters(representable("1.4"), 2.0, 60000)
        omega = flagship if row is None else grid.interval(row)
        calls = count_evaluations(monkeypatch)
        assert delta_bound(omega) is not None
        assert len(calls) == evaluations


def random_start(rng, graph):
    """Starting policy for min_cycle_mean_lowmem: per vertex -1, an
    out-neighbour, a pruned vertex, the middle vertex (a representation
    graph's critical cell) or any vertex, most often not a neighbour."""
    n = graph.num_vertices
    out = [[] for _ in range(n)]
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        out[u].append(v)
    dead = np.flatnonzero(~_prune(graph)).tolist()
    start = []
    for u in range(n):
        # out-neighbours twice, so that a third of the starts are edges
        pools = [[-1], [n // 2], range(n), dead, out[u], out[u]]
        start.append(rng.choice(rng.choice([pool for pool in pools if pool])))
    return np.array(start, dtype=np.int64)


def check_returned_policy(graph, successors):
    """After a solve, every vertex left by pruning holds one of its
    out-neighbours, itself left by pruning, and -1 marks exactly the
    pruned vertices."""
    alive = _prune(graph)
    assert np.array_equal(successors == -1, ~alive)
    edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
    assert all((u, successors[u]) in edges for u in np.flatnonzero(alive).tolist())
    assert alive[successors[alive]].all()


def check_started_solve(graph, start):
    """The solve from start against the cold one: a value within 1e-9,
    a witness it bounds, the stopped solve's sign, and the returned
    policy.  Returns the started solve's result."""
    cold, got = check_stopped_solve(graph, start)
    if cold.value is None:
        return got
    assert abs(got.value - cold.value) <= 1e-9
    assert exact_cycle_mean(graph, got.witness_cycle) >= Fraction(got.value)
    return got


class TestStartingPolicy:
    def test_random_int_graphs(self, rng):
        for _ in range(300):
            g = random_int_graph(rng)
            got = check_started_solve(g, random_start(rng, g))
            if got.value is not None:
                assert got.value <= brute_force_cycle_mean(g).value

    @given(
        a_lo=st.floats(1.0, 2.0),
        width=st.floats(0.0, 0.01),
        log2_delta=st.floats(-13.0, 0.0),
        half=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_representation_graphs(self, a_lo, width, log2_delta, half, seed):
        omega, delta = ParamInterval(0, a_lo, min(a_lo + width, 2.0)), 2.0**log2_delta
        try:
            part = phase_partition(omega, delta, 2 * half)
        except RigorError:
            reject()  # k too large for [delta, sup]
        graph = build_representation(omega, part)
        check_started_solve(graph, random_start(random.Random(seed), graph))

    def test_no_start_is_the_cold_solve(self, rng, flagship):
        graphs = [random_int_graph(rng) for _ in range(100)]
        graphs.append(build_representation(flagship, phase_partition(flagship, 0.001, 1000)))
        for g in graphs:
            successors = np.full(g.num_vertices, -1, dtype=np.int64)
            cold = min_cycle_mean_lowmem(g)
            got = min_cycle_mean_lowmem(g, successors=successors)
            assert got == cold
            if got.value is not None:
                assert got.value.hex() == cold.value.hex()
            check_returned_policy(g, successors)

    def test_start_at_the_final_policy(self, flagship, monkeypatch):
        # the final policy is a fixed point: one evaluation, the same bits
        graph = build_representation(flagship, phase_partition(flagship, 0.001, 1000))
        successors = np.full(graph.num_vertices, -1, dtype=np.int64)
        cold = min_cycle_mean_lowmem(graph, successors=successors)
        calls = count_evaluations(monkeypatch)
        again = min_cycle_mean_lowmem(graph, successors=successors.copy())
        assert len(calls) == 1
        assert again.value.hex() == cold.value.hex()
        assert again.witness_cycle == cold.witness_cycle

    def test_wrong_length_rejected(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ValueError, match="successors must have 2 entries"):
            min_cycle_mean_lowmem(g, successors=np.zeros(3, dtype=np.int64))


class TestLockedSolves:
    """Value, witness and returned policy of production solves on the
    flagship, bit for bit: a refactor of the solver must not move any of
    them."""

    DELTA_BAR = float.fromhex("0x1.9484fdf3b645cp-11")
    K1000 = (
        "0x1.afe3040800000p-23",
        [39, 80, 121, 145, 501, 1000],
        "6d9fcb7290ae4bd3054810550ec9cb4f124131a458bf1f655969a90307fe0b98",
    )

    def solve(self, flagship, delta, k, want, start=None, stop=False):
        graph = build_representation(flagship, phase_partition(flagship, delta, k))
        successors = np.full(k + 1, -1, dtype=np.int64) if start is None else start.copy()
        got = min_cycle_mean_lowmem(graph, stop_at_nonpositive=stop, successors=successors)
        value, witness, digest = want
        assert got.value.hex() == value
        assert got.witness_cycle == witness
        assert hashlib.sha256(successors.tobytes()).hexdigest() == digest
        return successors

    def test_cold_and_warm_full_solves_at_k_1000(self, flagship):
        final = self.solve(flagship, self.DELTA_BAR, 1000, self.K1000)
        self.solve(flagship, self.DELTA_BAR, 1000, self.K1000, start=final)

    def test_cold_full_solve_at_k_20000(self, flagship):
        want = (
            "0x1.5d24b692baeb8p-2",
            [3, 6, 9, 12, 81, 1084, 19710, 10001, 20000],
            "1d6d7d0949f74b3a8550d514855f0d761c15e38df5e2d10fdd722db982030c76",
        )
        self.solve(flagship, self.DELTA_BAR, 20000, want)

    def test_stopped_solve_at_k_100(self, flagship):
        want = (
            "-0x1.8dbc239b0b863p+2",
            [10, 16, 51, 100],
            "28ce05616b788e4ad5c4064615a0bc9940fd152197e488cf6bcb5f8f8802bb8a",
        )
        self.solve(flagship, 0.001, 100, want, stop=True)


class TestWitnesses:
    def test_witness_attains_value(self, rng):
        for _ in range(100):
            g = random_int_graph(rng)
            res = brute_force_cycle_mean(g)
            for solver in (min_cycle_mean_karp, min_cycle_mean_lowmem):
                r = solver(g)
                if r.value is None or r.witness_cycle is None:
                    continue
                weights = {(u, v): w for u, v, w in g.edges()}
                cyc = r.witness_cycle
                total = Fraction(0)
                for i, u in enumerate(cyc):
                    v = cyc[(i + 1) % len(cyc)]
                    assert (u, v) in weights, (cyc, list(g.edges()))
                    total += Fraction(weights[(u, v)])
                mean = total / len(cyc)
                assert mean >= Fraction(res.value)
                assert float(mean) - r.value <= 1e-8

    def test_flagship_witness_is_tight(self, flagship, flagship_delta):
        g = build_representation(flagship, phase_partition(flagship, flagship_delta, 20000))
        r = min_cycle_mean_lowmem(g)
        gap = exact_cycle_mean(g, r.witness_cycle) - Fraction(r.value)
        assert 0 <= gap <= 1e-12

    def test_critical_cell_not_in_witness(self):
        om = ParamInterval(0, representable("1.9999"), 2.0)
        g = build_representation(om, phase_partition(om, 0.001, 200))
        for solver in (min_cycle_mean_karp, min_cycle_mean_lowmem):
            r = solver(g)
            assert r.witness_cycle is not None
            assert 100 not in r.witness_cycle


class TestMonotonicity:
    def test_weight_decrease_never_raises_result(self, rng):
        for _ in range(60):
            g = random_int_graph(rng, max_vertices=6)
            base_karp = min_cycle_mean_karp(g).value
            if base_karp is None:
                continue
            edges = list(g.edges())
            i = rng.randrange(len(edges))
            u, v, w = edges[i]
            edges[i] = (u, v, w - 1.0)
            g2 = WeightedDigraph.from_edges(g.num_vertices, edges)
            assert min_cycle_mean_karp(g2).value <= base_karp
            low2 = min_cycle_mean_lowmem(g2).value
            low1 = min_cycle_mean_lowmem(g).value
            assert low2 <= low1 + 2e-9


class TestPathInequality:
    def test_orbit_paths_dominated_by_weights(self):
        rng = random.Random(37)
        om = ParamInterval(0, 1.9, 1.9001)
        part = phase_partition(om, 0.005, 120)
        g = build_representation(om, part)
        weights = {(u, v): w for u, v, w in g.edges()}
        cells = cells_of(part)
        m = part.k // 2
        sup = phase_domain(om)
        checked = 0
        for _ in range(200):
            a = rng.uniform(om.a_lo, om.a_hi)
            x = rng.uniform(-sup * 0.95, sup * 0.95)
            orbit = []
            t = x
            for _ in range(400):
                if -0.005 < t < 0.005 or not -sup <= t <= sup:
                    break
                orbit.append(t)
                t = a - t * t
            if len(orbit) < 3:
                continue
            seq = []
            ok = True
            for t in orbit:
                cand = [j for j, c in enumerate(cells) if j != m and c.lo <= t <= c.hi]
                if not cand:
                    ok = False
                    break
                seq.append(cand)
            if not ok:
                continue
            frontier = {c: 0.0 for c in seq[0]}
            for cand in seq[1:]:
                nxt = {}
                for c, acc in frontier.items():
                    for d in cand:
                        w = weights.get((c, d))
                        if w is not None and (d not in nxt or acc + w > nxt[d]):
                            nxt[d] = acc + w
                assert nxt, "orbit transition missing from graph"
                frontier = nxt
            bound = max(frontier.values())
            log_sum = math.fsum(math.log(abs(2 * t)) for t in orbit[:-1])
            assert log_sum >= bound - 1e-9
            checked += 1
        assert checked > 50


class TestDumpFormat:
    def test_roundtrip(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 0.1), (1, 0, -2.5), (2, 1, 1e-9)])
        text = dump_graph(g)
        lines = text.splitlines()
        assert lines[0] == "vertices 3"
        assert all(line.startswith("  ") for line in lines[1:])
        g2 = load_graph(text)
        assert g2.num_vertices == 3
        assert list(g2.edges()) == list(g.edges())

    def test_malformed_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            load_graph("nonsense 3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_graph("vertices x\n")
        with pytest.raises(ValueError, match="line 2"):
            load_graph("vertices 2\n  0 1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_graph("vertices 2\n  0 1 0x1p0\n  1 0 zzz\n")
        with pytest.raises(ValueError, match="line 2"):
            load_graph("vertices 2\n  0 5 0x1p0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_graph("vertices 2\n  0 1 inf\n")
        with pytest.raises(ValueError, match="line 3: duplicate edge .*line 2"):
            load_graph("vertices 2\n  0 1 0x1p0\n  0 1 0x1p1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_graph("vertices 0\n")

    @pytest.mark.parametrize(
        "a_lo, a_hi, delta, k, digest",
        [
            ("1.9999", "2", "0.001", 1000, "acfadd3736aba02a4c5a0e4e4e81ad43da6dbb7f1af51ba73a08f281f3eb09d2"),
            ("1.8", "1.81", "0.01", 64, "b58fa5987b146eb1074aaf63a3321a1fe619804aa38913b59ed4d5fcb760f37f"),
        ],
    )
    def test_dump_bytes_are_locked(self, a_lo, a_hi, delta, k, digest):
        # SHA-256 of the breakpoint lines plus the graph dump: any change to
        # the rounding, the partition or the edge set moves these bytes.  The
        # digests were taken with the critical cell numbered k, so the dump
        # is hashed in that numbering: v < k/2 stays, k/2 -> k, v > k/2 -> v-1
        om = ParamInterval(0, representable(a_lo), representable(a_hi))
        part = phase_partition(om, representable(delta), k)
        g = build_representation(om, part)
        m = k // 2
        v = np.arange(k + 1)
        old = v - (v > m)
        old[m] = k
        renumbered = WeightedDigraph.from_edges(
            k + 1, zip(old[g.src].tolist(), old[g.dst].tolist(), g.weight.tolist())
        )
        text = "\n".join(breakpoint_dump(part)) + "\n" + dump_graph(renumbered)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
