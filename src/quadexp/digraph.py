"""Transition digraph of the map on the partitioned phase space, and
minimum-cycle-mean solvers over it.

The graph has one vertex per partition cell plus one for the closed
critical cell.  Edges over-approximate the transition relation (an edge is
present whenever the parameter-uniform image enclosure of the source cell
meets the target), and each edge weight under-approximates log|f'| on the
set of points realizing the transition.  Consequently the sum of weights
along any path matching a true orbit is a lower bound for the log of the
accumulated derivative, and the minimum mean weight over all cycles is a
certified lower bound for the expansion exponent.

Three solvers are provided:

* ``brute_force_cycle_mean`` enumerates simple cycles with exact rational
  arithmetic (test oracle, tiny graphs only);
* ``min_cycle_mean_karp`` fills the classic dynamic-programming table over
  walk lengths (working memory grows with the square of the vertex count);
* ``min_cycle_mean_lowmem`` runs Howard policy iteration, evaluating each
  policy by pointer doubling in numpy, with memory linear in the edge
  count.

The two fast solvers return the same certificate: for vertex labels that
never decrease along an edge and any potentials x, the least down-rounded
reduced weight w(u, v) + x[v] - x[u] over the edges joining equal labels
is at most every cycle mean, because each cycle keeps one label and its
reduced weights telescope to its own weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .family import ParamInterval, phase_domain
from .partition import PhasePartition
from .rigor import (
    add_down,
    float_down,
    log_down,
    mul_down,
    mul_up,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
)

__all__ = [
    "WeightedDigraph",
    "CycleMeanResult",
    "build_representation",
    "brute_force_cycle_mean",
    "min_cycle_mean_karp",
    "min_cycle_mean_lowmem",
    "dump_graph",
    "load_graph",
]

_INF = math.inf


def _ranges(begin, end):
    """Concatenation of the integer ranges [begin[i], end[i])."""
    counts = end - begin
    return np.arange(int(counts.sum())) + np.repeat(begin - np.cumsum(counts) + counts, counts)


# ---------------------------------------------------------------------------
# graph container

class WeightedDigraph:
    """Finite digraph with at most one weighted edge per vertex pair.

    Edges are held as parallel arrays sorted by (source, target); in
    representation graphs the last vertex is the critical cell, which never
    has outgoing edges.
    """

    __slots__ = ("num_vertices", "src", "dst", "weight")

    def __init__(self, num_vertices: int, src, dst, weight):
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        if not (src.shape == dst.shape == weight.shape):
            raise ValueError("edge arrays must have equal length")
        if src.size:
            if src.min() < 0 or src.max() >= num_vertices:
                raise ValueError("edge source out of range")
            if dst.min() < 0 or dst.max() >= num_vertices:
                raise ValueError("edge target out of range")
            if not np.all(np.isfinite(weight)):
                raise ValueError("edge weights must be finite")
            order = np.lexsort((dst, src))
            src, dst, weight = src[order], dst[order], weight[order]
            same = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if np.any(same):
                i = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate edge ({src[i]}, {dst[i]})")
        self.num_vertices = int(num_vertices)
        self.src = src
        self.dst = dst
        self.weight = weight

    @classmethod
    def from_edges(cls, num_vertices: int, edges) -> "WeightedDigraph":
        """Build from an iterable of (from, to, weight) triples."""
        src, dst, weight = list(zip(*edges)) or ((), (), ())
        return cls(num_vertices, src, dst, weight)

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    def edges(self):
        """Iterate (from, to, weight) in canonical (from, to) order."""
        yield from zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist())

    def __repr__(self) -> str:
        return f"WeightedDigraph(vertices={self.num_vertices}, edges={self.edge_count})"


@dataclass(frozen=True)
class CycleMeanResult:
    """Minimum-cycle-mean answer: ``value`` is None exactly when the graph
    is acyclic, otherwise a certified lower bound on every cycle's mean
    weight, attained by some cycle up to the solver's stated slack.
    ``witness_cycle`` lists the vertices of such a cycle (first vertex not
    repeated) when one was extracted."""

    value: float | None
    witness_cycle: list[int] | None = None


def _canonical_cycle(cycle: list[int]) -> list[int]:
    # rotate so the smallest vertex index comes first
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


# ---------------------------------------------------------------------------
# representation construction

def _edge_weights(omega: ParamInterval, lo, hi, t_los, t_his, srcs, pos):
    """Down-rounded infimum of log|2x| over the part of each edge's
    positive source cell [lo[srcs], hi[srcs]] inside the preimage enclosure
    of its target [t_los[pos], t_his[pos]].  A function of its own so that
    its per-edge temporaries are freed before the graph sorts its edges."""
    s_lo = sqrt_down(np.maximum(sub_down(omega.a_lo, t_his[pos]), 0.0))
    s_hi = sqrt_up(sub_up(omega.a_hi, t_los[pos]))
    j_lo = np.maximum(lo[srcs], s_lo)
    if j_lo.size and np.any(j_lo > np.minimum(hi[srcs], s_hi)):
        raise AssertionError("edge whose source does not meet the target preimage")
    j_lo *= 2.0
    return log_down(j_lo)


def build_representation(omega: ParamInterval, partition: PhasePartition) -> WeightedDigraph:
    """Weighted digraph representing the family on the partitioned phase
    space, uniformly over the parameter interval.

    Vertices 0..k-1 are the partition cells in ascending order; vertex k is
    the closed critical cell.  An edge (c, t) is included whenever the
    image enclosure of cell c (clamped to the phase domain) meets vertex t;
    its weight is the down-rounded infimum of log|2x| over the part of c
    that can actually reach t, i.e. the intersection of c with the
    preimage enclosure of t.
    """
    k = partition.k
    m = k // 2
    dom_sup = phase_domain(omega)

    # targets: the cells in ascending order with the critical cell at
    # position m, so one pair of searches finds every edge
    t_los = np.insert(partition.los, m, -partition.delta)
    t_his = np.insert(partition.his, m, partition.delta)

    # sources: the positive cells m+s.  f(x) = a - x^2 is even and cell
    # m-1-s is the exact negation of cell m+s, so both have the same image
    # enclosure (hence targets) and the same min|x| on each preimage slice
    # (hence bit-identical weights): the negative cell copies the edges.
    lo, hi = partition.los[m:], partition.his[m:]
    img_lo = np.maximum(sub_down(omega.a_lo, mul_up(hi, hi)), -dom_sup)
    img_hi = np.minimum(sub_up(omega.a_hi, mul_down(lo, lo)), dom_sup)

    # contiguous range of targets intersecting each image
    first = np.searchsorted(t_his, img_lo, side="left")
    counts = np.maximum(np.searchsorted(t_los, img_hi, side="right") - first, 0)
    srcs = np.repeat(np.arange(m, dtype=np.int64), counts)
    pos = _ranges(first, first + counts)

    weights = np.tile(_edge_weights(omega, lo, hi, t_los, t_his, srcs, pos), 2)
    dsts = np.tile(np.where(pos == m, k, pos - (pos > m)), 2)
    return WeightedDigraph(k + 1, np.concatenate((m + srcs, m - 1 - srcs)), dsts, weights)


# ---------------------------------------------------------------------------
# pruning, policy evaluation and the potential certificate

def _prune(graph: WeightedDigraph):
    """Mask of the vertices that can reach a cycle, found by repeatedly
    dropping vertices without an out-edge; all False exactly when the graph
    is acyclic.  Each round reads only the in-edges of the vertices it
    drops."""
    n = graph.num_vertices
    out_deg = np.bincount(graph.src, minlength=n)
    in_src = graph.src[np.argsort(graph.dst, kind="stable")]
    in_ptr = np.concatenate(([0], np.cumsum(np.bincount(graph.dst, minlength=n))))
    alive = np.ones(n, dtype=bool)
    drop = np.flatnonzero(out_deg == 0)
    while drop.size:
        alive[drop] = False
        preds, hits = np.unique(in_src[_ranges(in_ptr[drop], in_ptr[drop + 1])], return_counts=True)
        out_deg[preds] -= hits
        drop = preds[out_deg[preds] == 0]
    return alive


def _certify(src, dst, w, eta, x) -> float:
    """Certified lower bound on every cycle mean from vertex labels eta and
    potentials x: when eta[u] <= eta[v] on every edge (u, v), each cycle
    stays inside one label class, around it w + x[v] - x[u] sums to the
    cycle's weight, so the least down-rounded reduced weight over the
    edges joining equal labels (over all edges otherwise) is at most every
    cycle mean, whatever x is."""
    lu, lv = eta[src], eta[dst]
    counted = lu == lv if np.all(lu <= lv) else True
    reduced = sub_down(add_down(w, x[dst]), x[src])
    return float(reduced.min(where=counted, initial=_INF))


def _segment_argmin(values, starts):
    """Minimum of each segment values[starts[i]:starts[i+1]] and the index
    of its first occurrence."""
    lows = np.minimum.reduceat(values, starts)
    lengths = np.diff(np.append(starts, values.size))
    at = np.where(values == np.repeat(lows, lengths), np.arange(values.size), values.size)
    return lows, np.minimum.reduceat(at, starts)


def _evaluate(succ, cost):
    """Value of the policy v -> succ[v] paying cost[v], by pointer doubling
    in ceil(log2 n) rounds: eta[v] is the mean of the cycle that v's orbit
    reaches, and x[v] = cost[v] - eta[v] + x[succ[v]] holds for every v
    except each cycle's root (its smallest vertex), where x = 0.  Returns
    eta, x and the roots."""
    n = succ.size
    rounds = max(1, (n - 1).bit_length())
    jump, low = succ, np.arange(n)
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    # jump[v] lies on the cycle v's orbit reaches; low holds that cycle's
    # smallest vertex there
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


# ---------------------------------------------------------------------------
# solvers

def brute_force_cycle_mean(graph: WeightedDigraph) -> CycleMeanResult:
    """Exact minimum over all simple cycles, by exhaustive enumeration with
    rational arithmetic (the minimum cycle mean is attained on a simple
    cycle).  Only for small graphs."""
    if graph.num_vertices > 12:
        raise ValueError(f"brute force limited to 12 vertices, got {graph.num_vertices}")
    n = graph.num_vertices
    adj: dict[int, list[tuple[int, Fraction]]] = {u: [] for u in range(n)}
    for u, v, w in graph.edges():
        adj[u].append((v, Fraction(w)))

    best_mean: Fraction | None = None
    best_cycle: list[int] | None = None

    def consider(cycle: list[int], total: Fraction) -> None:
        nonlocal best_mean, best_cycle
        mean = total / len(cycle)
        if best_mean is None or mean < best_mean or (mean == best_mean and cycle < best_cycle):
            best_mean = mean
            best_cycle = list(cycle)

    def extend(start: int, v: int, total: Fraction, path: list[int], on_path: set[int]) -> None:
        for t, w in adj[v]:
            if t == start:
                consider(path, total + w)
            elif t > start and t not in on_path:
                path.append(t)
                on_path.add(t)
                extend(start, t, total + w, path, on_path)
                on_path.remove(t)
                path.pop()

    for s in range(n):
        extend(s, s, Fraction(0), [s], {s})

    if best_mean is None:
        return CycleMeanResult(None, None)
    return CycleMeanResult(float_down(best_mean), _canonical_cycle(best_cycle))


def min_cycle_mean_karp(graph: WeightedDigraph) -> CycleMeanResult:
    """Minimum cycle mean via the dynamic program over exact walk lengths
    0..n, characterized as min over vertices of the max over prefix lengths
    of the normalized table difference.

    When every table entry is exactly representable (integer weights on a
    modest graph), the recurrence is exact and the characterization is
    evaluated in rational arithmetic, so the result is the true minimum
    mean rounded toward minus infinity.  Otherwise the nearest-arithmetic
    candidate mu only supplies the potentials x[v] = -min_j(D_j(v) - j mu)
    read off the table, and the returned value is their certificate.
    """
    if not _prune(graph).any():
        return CycleMeanResult(None, None)

    n = graph.num_vertices
    order = np.lexsort((graph.src, graph.dst))
    src, w = graph.src[order], graph.weight[order]
    targets, seg_starts = np.unique(graph.dst[order], return_index=True)

    table = np.full((n + 1, n), _INF)
    table[0].fill(0.0)
    for j in range(1, n + 1):
        cand = table[j - 1][src] + w
        table[j][targets] = np.minimum.reduceat(cand, seg_starts)

    last = table[n]
    cols = np.flatnonzero(np.isfinite(last))

    integral = (
        n <= 256
        and bool(np.all(np.floor(w) == w))
        and float(np.abs(w).max()) * n < 2.0**52
    )
    if integral:
        # table sums are exact; evaluate the characterization rationally
        best: Fraction | None = None
        v_star = -1
        for col in cols.tolist():
            top = int(last[col])
            worst: Fraction | None = None
            for j in range(n):
                d = table[j][col]
                if math.isfinite(d):
                    q = Fraction(top - int(d), n - j)
                    if worst is None or q > worst:
                        worst = q
            if worst is not None and (best is None or worst < best):
                best = worst
                v_star = col
        witness = _karp_witness(src, w, targets, seg_starts, table, v_star)
        return CycleMeanResult(float_down(best), witness)

    per_vertex = np.full(cols.size, -_INF)
    for j in range(n):
        per_vertex = np.maximum(per_vertex, (last[cols] - table[j, cols]) / (n - j))
    pick = int(per_vertex.argmin())
    mu = float(per_vertex[pick])
    witness = _karp_witness(src, w, targets, seg_starts, table, int(cols[pick]))

    lowest = table[0].copy()
    for j in range(1, n + 1):
        np.minimum(lowest, table[j] - j * mu, out=lowest)
    value = _certify(graph.src, graph.dst, graph.weight, np.zeros(n), -lowest)
    return CycleMeanResult(value, witness)


def _karp_witness(src, w, targets, seg_starts, table, v_star: int) -> list[int] | None:
    """Walk optimal predecessors back from (n, v_star); the first repeated
    vertex closes a cycle attaining the minimum mean up to rounding slack.
    Predecessors are recovered on demand from the finished table (first
    minimum in target-then-source edge order, so ties take the smallest
    source)."""
    n = table.shape[1]
    seg_ends = np.append(seg_starts[1:], src.size)
    seq = [0] * (n + 1)
    seq[n] = v_star
    for j in range(n, 0, -1):
        v = seq[j]
        t = int(np.searchsorted(targets, v))
        if t >= targets.size or targets[t] != v:
            return None
        begin, end = int(seg_starts[t]), int(seg_ends[t])
        cand = table[j - 1][src[begin:end]] + w[begin:end]
        seq[j - 1] = int(src[begin + int(np.argmin(cand))])
    seen: dict[int, int] = {}
    for i, v in enumerate(seq):
        if v in seen:
            return _canonical_cycle(seq[seen[v]:i])
        seen[v] = i
    return None


def min_cycle_mean_lowmem(graph: WeightedDigraph) -> CycleMeanResult:
    """Minimum cycle mean by Howard policy iteration, with working memory
    linear in the edge count.

    After pruning the vertices that cannot reach a cycle, each vertex keeps
    one out-edge (its policy, initially the lightest).  Evaluation yields
    the cycle mean eta each vertex is led to and potentials x; improvement
    first moves vertices toward a strictly smaller eta and otherwise, among
    edges keeping eta, to an edge that lowers w - eta + x[v] below x[u].
    At the fixed point the labels are monotone along every edge, and the
    returned value is the certificate of those labels and potentials.  The
    witness is the policy cycle with the smallest eta.
    """
    alive = _prune(graph)
    if not alive.any():
        return CycleMeanResult(None, None)
    keep = alive[graph.src] & alive[graph.dst]
    index = np.cumsum(alive) - 1
    src, dst, w = index[graph.src[keep]], index[graph.dst[keep]], graph.weight[keep]
    # every remaining vertex has an out-edge, so the segments are 0..m-1
    starts = np.flatnonzero(np.diff(src, prepend=-1))

    policy = _segment_argmin(w, starts)[1]
    while True:
        eta, x, roots = _evaluate(dst[policy], w[policy])
        eta_dst = eta[dst]
        lows, choice = _segment_argmin(eta_dst, starts)
        switch = lows < eta
        if not switch.any():
            reduced = np.where(eta_dst == eta[src], w - eta[src] + x[dst], _INF)
            lows, choice = _segment_argmin(reduced, starts)
            # gains within the rounding noise of the potentials would let
            # equivalent edges swap forever; the certificate, not this
            # threshold, carries the guarantee
            switch = lows < x - 2.0**-44 * (1.0 + float(np.abs(x).max()))
            if not switch.any():
                break
        policy = np.where(switch, choice, policy)

    value = _certify(src, dst, w, eta, x)
    succ = dst[policy].tolist()
    root = int(roots[np.argmin(eta[roots])])
    cycle = [root]
    while succ[cycle[-1]] != root:
        cycle.append(succ[cycle[-1]])
    return CycleMeanResult(value, np.flatnonzero(alive)[cycle].tolist())


# ---------------------------------------------------------------------------
# dump format

def dump_graph(graph: WeightedDigraph) -> str:
    """Text dump: header line ``vertices <n>``, then one edge per line
    ``  <from> <to> <weight-hex-float>`` sorted by (from, to)."""
    lines = [f"vertices {graph.num_vertices}"]
    for u, v, w in graph.edges():
        lines.append(f"  {u} {v} {float(w).hex()}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> WeightedDigraph:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "vertices":
        raise ValueError("line 1: expected 'vertices <n>'")
    n = int(head[1])
    edges = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {i}: expected '<from> <to> <weight-hex>'")
        try:
            edges.append((int(parts[0]), int(parts[1]), float.fromhex(parts[2])))
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
    return WeightedDigraph.from_edges(n, edges)
