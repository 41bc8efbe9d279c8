"""Span recording for the benchmark's traced run.

Wrappers are installed from outside on the public functions of the
library, under the names their callers use.  Each call records a span:
name, start, end, parent span, interval id, the time the wrapper itself
spent (``hook_s``), and a few counts read from the arguments and result.
Spans stay in memory.  Sweep workers inherit the wrappers through fork;
each writes its spans to the work directory when it exits, and the parent
collects them after the sweep returns.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time
from fractions import Fraction
from multiprocessing import util as mp_util

import numpy as np

# span record fields
NAME, START, END, PARENT, KEY, HOOK, NOTE = range(7)


class RssSampler:
    """Highest resident set size seen while a call runs, sampled every
    2 ms from /proc/self/statm by a daemon thread.  (tracemalloc would
    slow the pure-Python solver about tenfold.)"""

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._active = threading.Event()
        self._lock = threading.Lock()
        self._peak = 0
        threading.Thread(target=self._run, daemon=True).start()

    def _rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _run(self) -> None:
        while True:
            self._active.wait()
            while self._active.is_set():
                rss = self._rss()
                with self._lock:
                    if self._active.is_set() and rss > self._peak:
                        self._peak = rss
                time.sleep(0.002)

    def start(self) -> int:
        base = self._rss()
        with self._lock:
            self._peak = base
        self._active.set()
        return base

    def stop(self, base: int) -> int:
        """Growth of the resident set over ``base`` during the call, bytes."""
        with self._lock:
            self._active.clear()
            peak = self._peak
        return max(peak, self._rss()) - base


def _witness_gap(graph, result) -> tuple[float | None, bool]:
    """Exact mean of the returned witness cycle minus the certified value,
    and whether the witness is a cycle of the graph whose mean is at least
    that value."""
    cycle = result.witness_cycle
    if result.value is None or not cycle:
        return None, True
    n = graph.num_vertices
    keys = graph.src * n + graph.dst
    wanted = np.array([u * n + v for u, v in zip(cycle, cycle[1:] + cycle[:1])], dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    if not np.array_equal(keys[pos], wanted):
        return None, False
    mean = sum(Fraction(w) for w in graph.weight[pos].tolist()) / len(cycle)
    gap = mean - Fraction(result.value)
    return float(gap), gap >= 0


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._installed: list[tuple[object, str, object]] = []
        self._fresh_process()

    def _fresh_process(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._sampler: RssSampler | None = None

    def _adopt_worker(self) -> None:
        # first call in a forked sweep worker: drop the parent's spans and
        # write this worker's own when it exits
        self._fresh_process()
        mp_util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = os.path.join(self.workdir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)

    def collect_workers(self) -> list[list[list]]:
        """Span lists written by exited workers (removed once read)."""
        out = []
        for path in sorted(glob.glob(os.path.join(self.workdir, "spans-*.json"))):
            with open(path, "r", encoding="ascii") as fh:
                out.append(json.load(fh))
            os.remove(path)
        return out

    def wrap(self, name: str, fn, kind: str | None = None):
        """fn wrapped to record a span called name.  kind selects the
        counts noted from the call: "build", "solve", "partition" or
        "bisect"."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h0 = time.perf_counter()
            if os.getpid() != self.pid:
                self._adopt_worker()
            parent = self._stack[-1] if self._stack else -1
            key = getattr(args[0], "index", None) if args else None
            if key is None and parent >= 0:
                key = self.spans[parent][KEY]
            rec = [name, 0.0, 0.0, parent, key, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            base = None
            if kind == "solve":
                if self._sampler is None:
                    self._sampler = RssSampler()
                base = self._sampler.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                rec[START], rec[END] = t0, t1
            if kind == "solve":
                grown = self._sampler.stop(base)
                gap, ok = _witness_gap(args[0], result)
                rec[NOTE] = {
                    "vertices": args[0].num_vertices,
                    "edges": args[0].edge_count,
                    "acyclic": result.value is None,
                    "gap": gap,
                    "witness_ok": ok,
                    "rss_growth": grown,
                }
            elif kind == "build":
                rec[NOTE] = {"edges": result.edge_count}
            elif kind == "partition":
                rec[NOTE] = {"cells": result.k}
            elif kind == "bisect":
                rec[NOTE] = {"early_exit": result is None}
            rec[HOOK] = (t0 - h0) + (time.perf_counter() - t1)
            return result

        return wrapper

    def install(self, module, attr: str, name: str, kind: str | None = None) -> None:
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, kind))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def install_library_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public functions under the names the calling
    modules use.  rigor is not wrapped: its scalar calls take under a
    microsecond, so a wrapper would measure itself."""
    import quadexp.digraph
    import quadexp.expansivity
    import quadexp.partition
    import quadexp.sweep

    exp = quadexp.expansivity
    tracer.install(exp, "phase_partition", "partition", "partition")
    tracer.install(exp, "build_representation", "digraph.build", "build")
    tracer.install(exp, "min_cycle_mean_lowmem", "digraph.solve", "solve")
    tracer.install(exp, "lambda_bound", "expansivity.lambda")
    tracer.install(exp, "delta_bound", "expansivity.bisect", "bisect")
    tracer.install(exp, "analyze", "expansivity.analyze")
    tracer.install(quadexp.sweep, "analyze", "expansivity.analyze")
    tracer.install(quadexp.sweep, "subdivide_parameters", "partition.grid")
    tracer.install(quadexp.partition, "phase_domain", "family")
    tracer.install(quadexp.digraph, "phase_domain", "family")


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans (with their
    wrapper time) cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= (s[END] - s[START]) + s[HOOK]
    return own


def layer_metrics(parent_spans, worker_spans, k_coarse: int, workers: int) -> dict:
    """Per-layer figures from the spans of one traced pass.

    parent_spans are the benchmark process's spans, whose roots are the
    benchmark's operation spans (bench.op, or sweep.run_sweep on
    grid-scan); worker_spans holds one span list per sweep worker, rooted
    at expansivity.analyze."""
    lists = [parent_spans] + list(worker_spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    m = {
        "digraph.solve.coarse_busy_s": 0.0,
        "digraph.solve.fine_busy_s": 0.0,
        "digraph.solve.edges": 0,
        "digraph.solve.gap_max": 0.0,
        "digraph.solve.acyclic": 0,
        "digraph.solve.witness_bad": 0,
        "digraph.solve.peak_mb": 0.0,
        "digraph.build.edges": 0,
        "partition.cells": 0,
        "expansivity.bisect.probes": 0,
        "expansivity.bisect.early_exits": 0,
        "expansivity.fine.busy_s": 0.0,
        "trace.hook_s": 0.0,
    }
    for spans in lists:
        for s, own in zip(spans, _self_times(spans)):
            name, dur, note = s[NAME], s[END] - s[START], s[NOTE]
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + own
            m["trace.hook_s"] += s[HOOK]
            if name == "digraph.solve":
                fine = note["vertices"] > k_coarse + 1
                m["digraph.solve.fine_busy_s" if fine else "digraph.solve.coarse_busy_s"] += dur
                m["digraph.solve.edges"] += note["edges"]
                if note["gap"] is not None:
                    m["digraph.solve.gap_max"] = max(m["digraph.solve.gap_max"], note["gap"])
                m["digraph.solve.acyclic"] += note["acyclic"]
                m["digraph.solve.witness_bad"] += not note["witness_ok"]
                m["digraph.solve.peak_mb"] = max(m["digraph.solve.peak_mb"], note["rss_growth"] / 1e6)
            elif name == "digraph.build":
                m["digraph.build.edges"] += note["edges"]
            elif name == "partition":
                m["partition.cells"] += note["cells"]
            elif name == "expansivity.bisect":
                m["expansivity.bisect.early_exits"] += note["early_exit"]
            elif name == "expansivity.lambda" and parent == "expansivity.bisect":
                m["expansivity.bisect.probes"] += 1
            elif name == "expansivity.lambda" and parent == "expansivity.analyze":
                m["expansivity.fine.busy_s"] += dur

    for layer in ("digraph.solve", "digraph.build", "partition", "family"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0)
    solve_busy = m["digraph.solve.busy_s"]
    m["digraph.solve.edges_per_s"] = m.pop("digraph.solve.edges") / solve_busy if solve_busy else 0.0
    # src and dst as int64 plus the float64 weight: computed, not measured
    m["digraph.build.bytes"] = 24 * m["digraph.build.edges"]
    m["partition.grid_busy_s"] = busy.get("partition.grid", 0.0)
    m["expansivity.analyze.calls"] = calls.get("expansivity.analyze", 0)
    m["expansivity.analyze.busy_s"] = busy.get("expansivity.analyze", 0.0)
    m["expansivity.analyze.self_s"] = self_s.get("expansivity.analyze", 0.0)
    m["expansivity.bisect.busy_s"] = busy.get("expansivity.bisect", 0.0)
    for layer, total in sorted(self_s.items()):
        if layer != "bench.op":
            m[f"self.{layer}_s"] = total
    # time inside the benchmark's operations but in no wrapped layer and
    # no wrapper; on grid-scan the operation is run_sweep, a layer itself
    m["unattributed_s"] = self_s.get("bench.op", 0.0)
    wall = busy.get("sweep.run_sweep", 0.0)
    worker_busy = sum(
        (s[END] - s[START] for spans in worker_spans for s in spans if s[PARENT] < 0), 0.0
    )
    m["sweep.wall_s"] = wall
    m["sweep.worker_busy_s"] = worker_busy
    m["sweep.worker_util"] = worker_busy / (workers * wall) if wall else 0.0
    m["sweep.overhead_s"] = wall - worker_busy / workers
    return m


# figures of layer_metrics that are not sums over spans
NOT_ADDITIVE = frozenset({
    "digraph.solve.edges_per_s", "digraph.solve.gap_max", "digraph.solve.peak_mb",
    "sweep.worker_util",
})


def per_interval(totals: dict, intervals: int) -> dict:
    """The additive figures of layer_metrics divided by the number of
    intervals traced; the others as they are."""
    return {k: v if k in NOT_ADDITIVE else v / intervals for k, v in totals.items()}
