"""The certified per-interval pipeline: expansion exponent bound for a
given critical radius, bisection for a small certified radius, and the
combined analysis with its failure taxonomy.

A SUCCESS result (delta_bar, lambda_bar) certifies that every map in the
parameter interval is lambda_bar-uniformly expanding outside
(-delta_bar, delta_bar): orbits avoiding that neighborhood for n steps
accumulate derivative at least C * exp(lambda_bar * n) for a constant C
independent of n.  Radii are at most 1, so every exponent bound is finite,
except the -inf with which a stopped probe reports a nonpositive cycle it
was handed (``lambda_bound``); no result carries that value.

The four settings that decide every result (the coarse and fine cell
counts, the initial radius and the number of bisection steps) travel as
one validated ``Settings`` value, so a bad setting fails where it is
made, before any solve.
"""

from __future__ import annotations

import enum
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .digraph import build_representation, cycle_weight, min_cycle_mean_lowmem
from .family import ParamInterval
from .partition import phase_partition
from .rigor import add_up

__all__ = [
    "Status",
    "AnalysisResult",
    "DeltaBound",
    "lambda_bound",
    "delta_bound",
    "analyze",
    "Settings",
    "DEFAULT_DELTA0",
    "DEFAULT_BISECTION_STEPS",
    "DEFAULT_K_COARSE",
    "DEFAULT_K_FINE",
]

DEFAULT_DELTA0 = 0.001
DEFAULT_BISECTION_STEPS = 20
DEFAULT_K_COARSE = 1000
DEFAULT_K_FINE = 20000


class Status(enum.Enum):
    """Outcome of the per-interval analysis.

    Every SUCCESS carries a finite exponent.  ERROR is defensive only: it
    marks a sweep row whose analysis raised, never on valid input.
    """

    SUCCESS = "SUCCESS"
    NO_EXPANSION_AT_DELTA0 = "NO_EXPANSION_AT_DELTA0"
    ERROR = "ERROR"


def require_integers(config, *names: str) -> None:
    """Raise ValueError naming the first of config's named fields that is
    not an integer: a bool, or a value ``operator.index`` refuses, such as
    1000.0."""
    for name in names:
        value = getattr(config, name)
        try:
            if isinstance(value, bool):  # an int to operator.index, but no count
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, kw_only=True)
class Settings:
    """The settings that decide an analysis: cell counts of the coarse
    (bisection) and fine stages, the initial radius, and the number of
    bisection steps.  Construction raises ValueError for settings that no
    interval can run with: a cell count or step count that is not an
    integer, a cell count that is odd or below 2, an initial radius outside
    (0, 1], or a negative number of steps."""

    k_coarse: int = DEFAULT_K_COARSE
    k_fine: int = DEFAULT_K_FINE
    delta0: float = DEFAULT_DELTA0
    bisection_steps: int = DEFAULT_BISECTION_STEPS

    def __post_init__(self) -> None:
        require_integers(self, "k_coarse", "k_fine", "bisection_steps")
        for name, k in (("coarse", self.k_coarse), ("fine", self.k_fine)):
            if k < 2 or k % 2 != 0:
                raise ValueError(f"{name} cell count must be even and >= 2, got {k}")
        if not 0.0 < self.delta0 < math.inf:
            raise ValueError(f"initial radius must be positive and finite, got {self.delta0!r}")
        if self.delta0 > 1.0:
            raise ValueError(f"initial radius must be at most 1, got {self.delta0!r}")
        if self.bisection_steps < 0:
            raise ValueError(f"bisection steps must be >= 0, got {self.bisection_steps}")


@dataclass(frozen=True)
class AnalysisResult:
    """One row of the parameter-space study."""

    index: int
    a_lo: float
    a_hi: float
    status: Status
    delta_bar: float | None
    lambda_bar: float | None
    k_coarse: int
    k_fine: int
    elapsed_ms: int

    def certified(self) -> bool:
        return self.status is Status.SUCCESS


@dataclass(frozen=True)
class DeltaBound:
    """Certified critical radius from the bisection stage, with the coarse
    expansion bound that certified it: the probe's value at delta_bar,
    which is positive."""

    delta_bar: float
    coarse_lambda: float


def lambda_bound(
    omega: ParamInterval,
    delta: float,
    k: int,
    *,
    stop_at_nonpositive: bool = False,
    successors=None,
    cycle: list[int] | None = None,
) -> float:
    """Certified lower bound for the expansion exponent of every map in
    omega outside (-delta, delta), from the minimum cycle mean of the
    representation graph on k cells; delta must lie in (0, 1].

    The graph always has a cycle (the self-loop at the repelling fixed
    point's cell), so the bound is a number, at most log(2 sup).  A value
    <= 0 certifies nothing at this resolution.  With
    ``stop_at_nonpositive`` the solve stops once the value is known to be
    <= 0 and returns a cheaper nonpositive bound, below the full solve's
    value in general; a positive value is the full solve's, bit for bit.
    ``successors`` is handed to ``min_cycle_mean_lowmem``: an array of
    k + 1 vertices' successors that the solve starts from and that
    receives the policy it ends with.

    ``cycle``, when given, is a list of vertices that holds a candidate
    cycle on entry (empty for none) and the solve's witness cycle on
    return.  A stopped solve first checks the candidate on this partition:
    if each of its edges is in the graph and their exact sum is <= 0, the
    graph has a cycle of nonpositive mean, and -inf, a lower bound on every
    cycle mean, is returned without building the graph or solving (the
    list is left as it was).  A probe that the full solve would pass never
    takes this path, since then every cycle's exact sum is positive.
    """
    partition = phase_partition(omega, delta, k)
    if stop_at_nonpositive and cycle:
        total = cycle_weight(omega, partition, cycle)
        if total is not None and total <= 0.0:
            return -math.inf
    graph = build_representation(omega, partition)
    result = min_cycle_mean_lowmem(
        graph, stop_at_nonpositive=stop_at_nonpositive, successors=successors
    )
    if cycle is not None:
        cycle[:] = result.witness_cycle or []
    return result.value


def _mid_up(lo: float, hi: float) -> float:
    # midpoint rounded upward (toward the initial radius) so the positivity
    # certificate attached to the returned radius is re-checkable bit-exactly
    return add_up(lo, hi) / 2.0


def delta_bound(
    omega: ParamInterval, *, settings: Settings = Settings(), cycle: list[int] | None = None
) -> DeltaBound | None:
    """A possibly small certified radius in (0, delta0], or None when the
    coarse expansion bound at delta0 is already nonpositive.

    Bisects on [0, delta0], keeping as the upper end the smallest radius
    whose coarse bound came out positive; after the fixed number of steps
    the upper end is returned with its probe's value.  Only a probe's sign
    is read unless it is positive, so every probe stops at its first
    nonpositive policy cycle: a failing probe skips the rest of the policy
    iteration and the certificate, and a passing one is the full solve.

    Every probe's graph has the same k_coarse + 1 vertices, and nearby
    radii give nearly the same graph, so each probe's policy iteration
    starts from the final policy of the last passing probe, passed as
    ``successors``; the probe at delta0 starts cold.  Howard's iteration
    converges from any start and the certificate does not depend on how
    the policy was reached, so the start changes only the work.

    ``cycle`` is handed to the probe at delta0 alone, as ``lambda_bound``
    describes: a candidate cycle, such as the witness of a neighbouring
    interval's rejected probe, which when it closes with a nonpositive
    sum here rejects the interval (that probe's value is then -inf)
    without a graph or a solve; it receives that probe's witness.
    """
    policy = np.full(settings.k_coarse + 1, -1, dtype=np.int64)
    coarse = lambda_bound(
        omega, settings.delta0, settings.k_coarse,
        stop_at_nonpositive=True, successors=policy, cycle=cycle,
    )
    if coarse <= 0.0:
        return None
    lo, hi = 0.0, settings.delta0
    for _ in range(settings.bisection_steps):
        mid = _mid_up(lo, hi)
        if not lo < mid < hi:
            break
        # a failing probe's policy is dropped: the next starts from the
        # last passing probe's
        trial = policy.copy()
        value = lambda_bound(
            omega, mid, settings.k_coarse, stop_at_nonpositive=True, successors=trial
        )
        if value > 0.0:
            hi, coarse, policy = mid, value, trial
        else:
            lo = mid
    return DeltaBound(hi, coarse)


def analyze(
    omega: ParamInterval, *, settings: Settings = Settings(), cycle: list[int] | None = None
) -> AnalysisResult:
    """Full certified analysis of one parameter interval: radius bisection
    at the coarse resolution, then the exponent bound at the fine one.

    Both bounds hold for every map in omega outside (-delta_bar,
    delta_bar), so lambda_bar is the larger of the two: the fine bound
    usually, the coarse one where re-partitioning lost ground.
    ``cycle`` is handed to ``delta_bound``; it changes the work, never the
    result.
    """
    start = time.perf_counter()

    def done(status, d=None, lam=None):
        elapsed = int(round((time.perf_counter() - start) * 1000.0))
        return AnalysisResult(
            omega.index, omega.a_lo, omega.a_hi, status, d, lam,
            settings.k_coarse, settings.k_fine, elapsed,
        )

    bound = delta_bound(omega, settings=settings, cycle=cycle)
    if bound is None:
        return done(Status.NO_EXPANSION_AT_DELTA0)
    fine = lambda_bound(omega, bound.delta_bar, settings.k_fine)
    if not math.isfinite(fine):
        raise AssertionError(f"non-finite exponent bound {fine!r}")
    return done(Status.SUCCESS, d=bound.delta_bar, lam=max(bound.coarse_lambda, fine))
