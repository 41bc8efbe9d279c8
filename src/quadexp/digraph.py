"""Transition digraph of the map on the partitioned phase space, and
minimum-cycle-mean solvers over it.

Graph vertex i is partition cell i, the closed critical cell included.
Edges over-approximate the transition relation (an edge is present
whenever the parameter-uniform image enclosure of the source cell meets
the target), and each edge weight under-approximates log|f'| on the set of
points realizing the transition.  Consequently the sum of weights
along any path matching a true orbit is a lower bound for the log of the
accumulated derivative, and the minimum mean weight over all cycles is a
certified lower bound for the expansion exponent.  ``cycle_weight`` sums
one closed walk's weights by ``build_representation``'s own arithmetic,
computing only the walk's source cells, so a known cycle can be
re-checked on a new partition without building its graph.

Three solvers are provided.  The pipeline and every command solve with
the third; the first two are references that only the tests and the
benchmark's output check call:

* ``brute_force_cycle_mean`` enumerates simple cycles with exact rational
  arithmetic (test oracle, tiny graphs only);
* ``min_cycle_mean_karp`` fills the classic dynamic-programming table over
  walk lengths (working memory grows with the square of the vertex count);
* ``min_cycle_mean_lowmem`` runs Howard policy iteration, evaluating each
  policy by pointer doubling in numpy, with memory linear in the edge
  count.  Each step does only the work its outcome needs: the doubling
  stops at the depth of the policy's trees instead of after ceil(log2 n)
  rounds, and only the vertices that switch edges search for their best
  edge; the sequence of policies, hence every result, is the one the full
  work would give.  On request it stops at the first policy cycle whose
  exact mean is nonpositive, when only the sign of the answer is wanted,
  and it starts from a given policy (``successors``, one successor per
  vertex), such as the final policy of a solve on a nearby graph, and
  hands back the policy it ends with.

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
    "cycle_weight",
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

    Edges are held as parallel arrays in strictly increasing (source,
    target) order: the constructor requires that order, and ``from_edges``
    sorts edges given in any order.  In representation graphs vertex i is
    partition cell i, so the critical cell is the middle vertex, which
    never has outgoing edges.
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
            key = src * num_vertices + dst
            bad = np.flatnonzero(key[1:] <= key[:-1])
            if bad.size:
                i = int(bad[0]) + 1
                what = "duplicate edge" if key[i] == key[i - 1] else "edge out of (source, target) order"
                raise ValueError(f"{what} ({src[i]}, {dst[i]})")
        self.num_vertices = int(num_vertices)
        self.src = src
        self.dst = dst
        self.weight = weight

    @classmethod
    def from_edges(cls, num_vertices: int, edges) -> "WeightedDigraph":
        """Build from an iterable of (from, to, weight) triples in any
        order."""
        edges = sorted(edges, key=lambda e: (e[0], e[1]))
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
    weight.  A full solve's value is attained by some cycle up to the
    solver's stated slack, and ``witness_cycle`` lists the vertices of such
    a cycle (first vertex not repeated) when one was extracted.  A solve
    stopped once its value is known to be nonpositive returns a bound that
    need not be attained, with a witness whose exact mean is at least that
    value and at most 0."""

    value: float | None
    witness_cycle: list[int] | None = None


def _canonical_cycle(cycle: list[int]) -> list[int]:
    # rotate so the smallest vertex index comes first
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


# ---------------------------------------------------------------------------
# representation construction

def _positive_out_edges(omega: ParamInterval, partition: PhasePartition, lo, hi):
    """Out-edges of the chosen positive cells [lo[i], hi[i]] of the
    partition, in ascending order: the number of edges of each cell, and
    each edge's source i, target cell and weight, in (source, target)
    order.  Every quantity is computed element by element, so an edge's
    target and weight do not depend on which other cells are chosen.

    An edge (c, t) is included whenever the image enclosure of c (clamped
    to the phase domain) meets cell t and c meets the preimage enclosure of
    t (the two disagree only where x^2 underflows); its weight is the
    down-rounded infimum of log|2x| over that intersection.
    """
    dom_sup = phase_domain(omega)
    cell_lo, cell_hi = partition.bounds[:-1], partition.bounds[1:]
    img_lo = np.maximum(sub_down(omega.a_lo, mul_up(hi, hi)), -dom_sup)
    img_hi = np.minimum(sub_up(omega.a_hi, mul_down(lo, lo)), dom_sup)

    # contiguous, ascending run of targets intersecting each image
    first = np.searchsorted(cell_hi, img_lo, side="left")
    counts = np.maximum(np.searchsorted(cell_lo, img_hi, side="right") - first, 0)
    at = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
    dsts = _ranges(first, first + counts)

    # weight: down-rounded log|2x| at the inner end of the part of the
    # source inside the target's preimage enclosure
    s_lo = sqrt_down(np.maximum(sub_down(omega.a_lo, cell_hi[dsts]), 0.0))
    s_hi = sqrt_up(sub_up(omega.a_hi, cell_lo[dsts]))
    j_lo = np.maximum(lo[at], s_lo)
    keep = j_lo <= np.minimum(hi[at], s_hi)
    if not keep.all():
        at, dsts, j_lo = at[keep], dsts[keep], j_lo[keep]
        counts = np.bincount(at, minlength=lo.size)
    j_lo *= 2.0
    return counts, at, dsts, log_down(j_lo)


def build_representation(omega: ParamInterval, partition: PhasePartition) -> WeightedDigraph:
    """Weighted digraph representing the family on the partitioned phase
    space, uniformly over the parameter interval.

    Vertex i is partition cell i, so vertex k/2 is the closed critical
    cell, which has no out-edge; the other cells' edges and weights are
    those of ``_positive_out_edges``.  The edges come out in (source,
    target) order.
    """
    k = partition.k
    m = k // 2
    # sources: the positive cells m+1+s.  f(x) = a - x^2 is even and cell
    # m-1-s is the exact negation of cell m+1+s, so both have the same image
    # enclosure (hence targets) and the same min|x| on each preimage slice
    # (hence bit-identical weights): the negative cell copies the edges.
    bounds = partition.bounds
    counts, srcs, dsts, weights = _positive_out_edges(
        omega, partition, bounds[m + 1:-1], bounds[m + 2:]
    )

    # the negative cells 0..m-1 copy the positive runs last run first, so
    # they precede the positive cells' edges in (source, target) order
    ends = np.cumsum(counts)[::-1]
    mirror = _ranges(ends - counts[::-1], ends)
    return WeightedDigraph(
        k + 1,
        np.concatenate((m - 1 - srcs[mirror], m + 1 + srcs)),
        np.concatenate((dsts[mirror], dsts)),
        np.concatenate((weights[mirror], weights)),
    )


def cycle_weight(omega: ParamInterval, partition: PhasePartition, cycle) -> float | None:
    """Total weight of the closed walk through the vertices ``cycle`` (first
    vertex not repeated) in ``build_representation(omega, partition)``,
    rounded correctly by ``math.fsum``, so with the exact sum's sign; None
    when one of its edges is not in that graph (the critical vertex has
    none).  Only the walk's source cells are computed, not the whole graph,
    and their weights are the graph's bit for bit.
    """
    k = partition.k
    m = k // 2
    cells = np.asarray(cycle, dtype=np.int64)
    if not cells.size or cells.min() < 0 or cells.max() > k or (cells == m).any():
        return None
    # a negative cell m-1-s has the edges of the positive cell m+1+s
    sources, at = np.unique(np.abs(cells - m) + m, return_inverse=True)
    bounds = partition.bounds
    _, src, dst, weights = _positive_out_edges(
        omega, partition, bounds[sources], bounds[sources + 1]
    )
    key = src * (k + 1) + dst
    wanted = at * (k + 1) + np.roll(cells, -1)
    pos = np.minimum(np.searchsorted(key, wanted), key.size - 1)
    if not key.size or not np.array_equal(key[pos], wanted):
        return None
    return math.fsum(weights[pos].tolist())


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


def _first_minima(values, lows, begin, count):
    """Index of the first occurrence of lows[i] in each segment
    values[begin[i]:begin[i] + count[i]], where lows[i] is that segment's
    minimum and count[i] >= 1."""
    at = _ranges(begin, begin + count)
    hits = values[at] == np.repeat(lows, count)
    at[~hits] = values.size
    return np.minimum.reduceat(at, np.cumsum(count) - count)


def _start_from(successors, alive, index, src, dst, policy) -> None:
    """Put each vertex u left by pruning on the edge (u, successors[u]) of
    the pruned graph where that edge exists; the others keep their edge in
    policy.  The pruned graph's m vertices are renumbered by index and its
    edges src -> dst are in (source, target) order, so one search of the
    keys src * m + dst finds every wanted edge."""
    n = alive.size
    want = successors[alive]
    ok = (want >= 0) & (want < n)
    ok[ok] = alive[want[ok]]
    u = np.flatnonzero(ok)
    if not u.size:
        return
    m = int(index[-1]) + 1
    key = src * m + dst
    wanted = u * m + index[want[u]]
    at = np.minimum(np.searchsorted(key, wanted), key.size - 1)
    found = key[at] == wanted
    policy[u[found]] = at[found]


def _policy_cycle(succ, root: int) -> list[int]:
    """Vertices of the policy cycle through root, from root in edge
    order."""
    cycle = [root]
    while (v := int(succ[cycle[-1]])) != root:
        cycle.append(v)
    return cycle


def _evaluate(succ, cost):
    """Value of the policy v -> succ[v] paying cost[v], by pointer doubling:
    eta[v] is the mean of the cycle that v's orbit reaches, and
    x[v] = cost[v] - eta[v] + x[succ[v]] holds for every v except each
    cycle's root (its smallest vertex), where x = 0.  Returns eta, x and
    the roots.

    Both doubling loops stop once their result is final, not after a fixed
    ceil(log2 n) rounds.  The first stops when the image of the jump
    pointers no longer shrinks, so they all land on cycles, and the cycle
    labels agree along every edge, so each label spans its whole cycle.
    The second stops when every pointer has reached its root; the rounds
    it skips would only add zeros.  So eta and x are bit for bit those of
    the fixed count, and policy iteration passes through the same policies.
    Policy trees are shallow: on the flagship at k = 1,000 to 80,000 the
    loops stop after 5-7 and 4-6 rounds, where the fixed count is 10-17.
    A path into a self-loop, the worst case, takes one round more than
    ceil(log2 n) in the first loop.
    """
    n = succ.size
    jump, low = succ, np.arange(n)
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[jump] = True
    size = np.count_nonzero(on_cycle)
    while True:
        # low[v] is the least of the 2N vertices v's orbit visits first,
        # and jump = succ^2N, for N the power before this round
        low = np.minimum(low, low[jump])
        jump = jump[jump]
        on_cycle = np.zeros(n, dtype=bool)
        on_cycle[jump] = True
        # The image of succ^N is the set of vertices with a backward path
        # of length N.  It shrinks as N grows, and once one step leaves it
        # unchanged it stays fixed: it is then the set of cycle vertices.
        # The images of succ^N, succ^N+1, ..., succ^2N are nested, so equal
        # sizes at the two ends mean it has stopped, and jump[v] now lies on
        # v's cycle.
        previous, size = size, np.count_nonzero(on_cycle)
        if size == previous:
            # low[jump[v]] is the least of 2N consecutive vertices of v's
            # cycle.  Should some cycle be longer than 2N, the vertex whose
            # window starts at the cycle's smallest vertex gets that vertex
            # and its successor does not, so agreement along every edge
            # means each window spans its whole cycle.
            cycle_of = low[jump]
            if (cycle_of[succ] == cycle_of).all():
                break
    roots = np.flatnonzero(cycle_of == np.arange(n))
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
    # x[v] sums the initial x over the first N vertices of v's orbit, in
    # which a root repeats once reached, and nxt[v] is the next one.  Once
    # every nxt[v] is a root, further rounds only add a root's x = +0.0,
    # which turns -0.0 into +0.0 and changes nothing else: the closing
    # addition does exactly that.  Every vertex reaches its root in fewer
    # than n steps, so this takes at most ceil(log2 n) rounds.
    while not (nxt == cycle_of).all():
        x += x[nxt]
        nxt = nxt[nxt]
    x += 0.0
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
        value = float_down(best)
    else:
        per_vertex = np.full(cols.size, -_INF)
        for j in range(n):
            per_vertex = np.maximum(per_vertex, (last[cols] - table[j, cols]) / (n - j))
        pick = int(per_vertex.argmin())
        mu = float(per_vertex[pick])
        v_star = int(cols[pick])
        lowest = table[0].copy()
        for j in range(1, n + 1):
            np.minimum(lowest, table[j] - j * mu, out=lowest)
        value = _certify(graph.src, graph.dst, graph.weight, np.zeros(n), -lowest)
    return CycleMeanResult(value, _karp_witness(src, w, targets, seg_starts, table, v_star))


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


def min_cycle_mean_lowmem(
    graph: WeightedDigraph, *, stop_at_nonpositive: bool = False, successors=None
) -> CycleMeanResult:
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

    An improvement step compares eta across every edge, then takes one
    ``minimum.reduceat``: of eta[dst] if some edge leads to a smaller eta,
    else of the reduced costs.  Only the vertices that switch then look for
    the first edge attaining their minimum (on the flagship at k = 80,000,
    4 to 8,862 of 79,998 vertices per step).  The edge-sized temporaries
    live in two float buffers and one mask reused by every step.

    With ``stop_at_nonpositive`` the solve ends as soon as the sign of the
    answer is settled nonpositive: after an evaluation whose smallest
    policy-cycle eta is <= 0, the weights of that cycle are summed by
    ``math.fsum``, whose correct rounding keeps the exact sum's sign.  If
    the sum is <= 0, the witness is that cycle and the value is the
    lightest edge weight left after pruning: a lower bound on every cycle
    mean, not attained in general, and at most the witness's mean, so <= 0.
    The full solve's value is at most that mean too, so both values are
    <= 0 together; when the solve does not stop, its result is the full
    solve's bit for bit, since the check only reads.

    ``successors``, when given, is an int64 array of ``num_vertices``
    entries that sets the starting policy and receives the final one.  On
    entry a vertex u left by pruning starts on the edge (u, successors[u])
    if the pruned graph has it, and on its lightest edge otherwise (so -1
    asks for no start).  On return it holds each such vertex's successor
    under the final policy, and -1 at the pruned vertices, the critical
    cell among them.  Howard's iteration converges from any policy, and
    the certificate holds whatever potentials it reads, so a start changes
    the work, not the guarantee; the value it ends at may differ from a
    cold solve's in the rounding of the potentials.
    """
    if successors is not None and successors.shape != (graph.num_vertices,):
        raise ValueError(f"successors must have {graph.num_vertices} entries, not {successors.shape}")
    alive = _prune(graph)
    if not alive.any():
        if successors is not None:
            successors.fill(-1)
        return CycleMeanResult(None, None)
    keep = alive[graph.src] & alive[graph.dst]
    index = np.cumsum(alive) - 1
    src, dst, w = index[graph.src[keep]], index[graph.dst[keep]], graph.weight[keep]
    # every remaining vertex has an out-edge, so the segments are 0..m-1
    starts = np.flatnonzero(np.diff(src, prepend=-1))
    lengths = np.diff(starts, append=src.size)

    policy = _first_minima(w, np.minimum.reduceat(w, starts), starts, lengths)
    if successors is not None:
        _start_from(successors, alive, index, src, dst, policy)
    # E-sized work space, reused by every iteration (the indices are in
    # range, so mode="clip" only spares np.take a buffered copy)
    vals, tmp = np.empty(src.size), np.empty(src.size)
    mask = np.empty(src.size, dtype=bool)
    while True:
        eta, x, roots = _evaluate(dst[policy], w[policy])
        root = int(roots[np.argmin(eta[roots])])
        if stop_at_nonpositive and eta[root] <= 0.0:
            cycle = _policy_cycle(dst[policy], root)
            # fsum is correctly rounded, so it has the exact sum's sign
            if math.fsum(w[policy[cycle]].tolist()) <= 0.0:
                value = float(w.min())
                break
        np.take(eta, dst, out=vals, mode="clip")
        np.take(eta, src, out=tmp, mode="clip")
        np.less(vals, tmp, out=mask)
        if mask.any():
            # some vertex has an edge to a strictly smaller eta
            lows = np.minimum.reduceat(vals, starts)
            switch = lows < eta
        else:
            # vals = w - eta[src] + x[dst] on the edges keeping eta, else inf
            np.not_equal(vals, tmp, out=mask)
            np.subtract(w, tmp, out=tmp)
            np.take(x, dst, out=vals, mode="clip")
            np.add(tmp, vals, out=vals)
            np.copyto(vals, _INF, where=mask)
            lows = np.minimum.reduceat(vals, starts)
            # gains within the rounding noise of the potentials would let
            # equivalent edges swap forever; the certificate, not this
            # threshold, carries the guarantee
            switch = lows < x - 2.0**-44 * (1.0 + float(np.abs(x).max()))
            if not switch.any():
                # the certificate's temporaries set the solve's peak memory
                del vals, tmp, mask
                value = _certify(src, dst, w, eta, x)
                cycle = _policy_cycle(dst[policy], root)
                break
        # only the switching vertices need the first minimum's position
        movers = np.flatnonzero(switch)
        policy[movers] = _first_minima(vals, lows[movers], starts[movers], lengths[movers])

    live = np.flatnonzero(alive)
    if successors is not None:
        successors.fill(-1)
        successors[live] = live[dst[policy]]
    return CycleMeanResult(value, live[cycle].tolist())


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
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    if n < 1:
        raise ValueError(f"line 1: graph needs at least one vertex, got {n}")
    edges: dict[tuple[int, int], tuple[float, int]] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {i}: expected '<from> <to> <weight-hex>'")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float.fromhex(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {i}: edge ({u}, {v}) has a vertex outside [0, {n})")
        if not math.isfinite(w):
            raise ValueError(f"line {i}: edge weight {w!r} is not finite")
        if (u, v) in edges:
            raise ValueError(f"line {i}: duplicate edge ({u}, {v}), first on line {edges[u, v][1]}")
        edges[u, v] = w, i
    return WeightedDigraph.from_edges(n, ((u, v, w) for (u, v), (w, _) in edges.items()))
