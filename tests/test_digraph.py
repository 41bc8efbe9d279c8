import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from quadexp.digraph import (
    CycleMeanResult,
    WeightedDigraph,
    _certify,
    brute_force_cycle_mean,
    build_representation,
    dump_graph,
    load_graph,
    min_cycle_mean_karp,
    min_cycle_mean_lowmem,
)
from quadexp.family import ParamInterval, phase_domain
from quadexp.partition import breakpoint_dump, phase_partition
from quadexp.rigor import representable

from conftest import cells_of, critical_cell_of, random_int_graph


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
    vertices = cells_of(partition) + [critical_cell_of(partition)]
    edges = []
    for j, (lo, hi) in enumerate(vertices[:-1]):
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
        with pytest.raises(ValueError):
            WeightedDigraph.from_edges(2, [(0, 1, 1.0), (0, 1, 2.0)])

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

    def test_fixed_point_self_loop(self):
        # at a = 2 the positive fixed point is 1; its cell maps over itself
        om = ParamInterval(0, 2.0, 2.0)
        part = phase_partition(om, 0.5, 4)
        g = build_representation(om, part)
        edges = {(u, v) for u, v, _ in g.edges()}
        loops = [j for j, c in enumerate(cells_of(part)) if c.lo <= 1.0 <= c.hi and (j, j) in edges]
        assert loops

    def test_critical_cell_has_no_out_edges(self):
        om = ParamInterval(0, representable("1.9999"), 2.0)
        g = build_representation(om, phase_partition(om, 0.001, 100))
        assert int(g.src.max()) < g.num_vertices - 1

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
        sup = phase_domain(om)
        hits = 0
        for _ in range(10000):
            a = rng.uniform(om.a_lo, om.a_hi)
            x = rng.uniform(0.001, sup) * (1 if rng.random() < 0.5 else -1)
            sources = [j for j, c in enumerate(cells) if c.lo <= x <= c.hi]
            if not sources:
                continue
            y = a - x * x
            targets = [j for j, c in enumerate(cells) if c.lo <= y <= c.hi]
            if -0.001 < y < 0.001 or not targets:
                targets = targets + [len(cells)]
            assert any((s, t) in edges for s in sources for t in targets), (a, x, y)
            hits += 1
        assert hits > 9000

    def test_weights_lower_bound_log_derivative(self):
        rng = random.Random(31)
        om = ParamInterval(0, 1.75, 1.7501)
        part = phase_partition(om, 0.01, 60)
        g = build_representation(om, part)
        cells = cells_of(part) + [critical_cell_of(part)]
        for u, v, w in g.edges():
            # sample points of the source that truly reach the target
            src, tgt = cells[u], cells[v]
            for _ in range(40):
                a = rng.uniform(om.a_lo, om.a_hi)
                x = rng.uniform(src.lo, src.hi)
                y = a - x * x
                if tgt.lo <= y <= tgt.hi:
                    assert w <= math.log(abs(2 * x)) + 1e-12, (u, v, w, x)


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
            assert g.num_vertices - 1 not in r.witness_cycle


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
                cand = [j for j, c in enumerate(cells) if c.lo <= t <= c.hi]
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
        with pytest.raises(ValueError, match="line 2"):
            load_graph("vertices 2\n  0 1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_graph("vertices 2\n  0 1 0x1p0\n  1 0 zzz\n")

    @pytest.mark.parametrize(
        "a_lo, a_hi, delta, k, digest",
        [
            ("1.9999", "2", "0.001", 1000, "acfadd3736aba02a4c5a0e4e4e81ad43da6dbb7f1af51ba73a08f281f3eb09d2"),
            ("1.8", "1.81", "0.01", 64, "b58fa5987b146eb1074aaf63a3321a1fe619804aa38913b59ed4d5fcb760f37f"),
        ],
    )
    def test_dump_bytes_are_locked(self, a_lo, a_hi, delta, k, digest):
        # SHA-256 of the breakpoint lines plus the graph dump: any change to
        # the rounding, the partition or the edge set moves these bytes
        om = ParamInterval(0, representable(a_lo), representable(a_hi))
        part = phase_partition(om, representable(delta), k)
        text = "\n".join(breakpoint_dump(part)) + "\n" + dump_graph(build_representation(om, part))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
