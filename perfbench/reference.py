"""Fixed reference work that gauges how fast the machine runs right now.

The benchmark's machine is shared: its cores run the same code up to a
quarter faster or slower from minute to minute, with CPU time equal to
wall time.  Timing this fixed work while a run's operations go on gives
the machine's current speed, and the run rescales its timings to the
speed the reference work has at NOMINAL_S.  Operations that run in this
process are interrupted by a timer for one unit of the work every
TICK_S, and the units' time is taken out of theirs; around operations
that run in other processes, the work runs between them.

The work resembles the library's cycle-mean solver (numpy relaxation
sweeps over a small edge list, and pure-Python walks of a predecessor
map), so contention that slows the solver slows it alike.  It lives in
the benchmark and calls nothing in the library, so a change to the
library does not change it.
"""

from __future__ import annotations

import contextlib
import random
import signal
import time

import numpy as np

VERTICES = 1000
EDGES = 3000
SWEEPS = 24
WALK_EVERY = 2

# about the mean seconds of one call of unit() on the baseline machine
# when the timer runs it, so rescaled times stay close to its wall times
NOMINAL_S = 0.0082
# interval of the timer that interrupts in-process operations
TICK_S = 0.25


class Reference:
    """The fixed graph and its relaxation buffers."""

    def __init__(self):
        # stdlib random: numpy.random would add its modules to the RSS
        rng = random.Random(20150401)
        src = np.array([rng.randrange(VERTICES) for _ in range(EDGES)])
        dst = np.array([rng.randrange(VERTICES) for _ in range(EDGES)])
        w = np.array([rng.random() - 0.45 for _ in range(EDGES)])
        order = np.lexsort((src, dst))
        self.src, self.dst, self.w = src[order], dst[order], w[order]
        self.targets, self.starts = np.unique(self.dst, return_index=True)
        self.lengths = np.diff(np.append(self.starts, EDGES))
        self.src_list = self.src.tolist()
        self.d = np.zeros(VERTICES)

    def unit(self) -> float:
        """One unit of reference work; returns a checksum of its result."""
        d = self.d
        d.fill(0.0)
        total = 0.0
        for sweep in range(SWEEPS):
            cand = d[self.src] + self.w
            segmin = np.minimum.reduceat(cand, self.starts)
            d[self.targets] = np.minimum(d[self.targets], segmin)
            if sweep % WALK_EVERY == 0:
                total += self._walk(cand, segmin)
        return total + float(d.sum())

    def _walk(self, cand, segmin) -> int:
        hits = np.flatnonzero(cand == np.repeat(segmin, self.lengths))
        pred = np.full(VERTICES, -1, dtype=np.int64)
        pred[self.dst[hits]] = hits
        pred_list = pred.tolist()
        state = bytearray(VERTICES)
        steps = 0
        for start in range(VERTICES):
            path: list[int] = []
            pos: dict[int, int] = {}
            v = start
            while v >= 0 and state[v] == 0:
                state[v] = 1
                pos[v] = len(path)
                path.append(v)
                e = pred_list[v]
                v = self.src_list[e] if e >= 0 else -1
            if v >= 0 and v in pos:
                steps += len(path) - pos[v]
            for u in path:
                state[u] = 2
        return steps


class Gauge:
    """Accumulates timed reference work over a run."""

    def __init__(self):
        self.ref = Reference()
        self.ref.unit()  # warm-up, untimed
        self.units = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> None:
        """Run whole units for about the given time (at least one)."""
        n = max(1, round(seconds / NOMINAL_S))
        t0 = time.perf_counter()
        for _ in range(n):
            self.ref.unit()
        self.seconds += time.perf_counter() - t0
        self.units += n

    @contextlib.contextmanager
    def ticking(self):
        """Run one unit every TICK_S of wall time, interrupting the code
        that runs meanwhile in this thread."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.ref.unit()
        self.seconds += time.perf_counter() - t0
        self.units += 1

    def factor(self) -> float:
        """Nominal over measured speed: multiply a wall time taken during
        the samples by it to get the time at the nominal speed."""
        return NOMINAL_S * self.units / self.seconds
