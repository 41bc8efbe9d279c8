"""The certified per-interval pipeline: expansion exponent bound for a
given critical radius, bisection for a small certified radius, and the
combined analysis with its failure taxonomy.

A SUCCESS result (delta_bar, lambda_bar) certifies that every map in the
parameter interval is lambda_bar-uniformly expanding outside
(-delta_bar, delta_bar): orbits avoiding that neighborhood for n steps
accumulate derivative at least C * exp(lambda_bar * n) for a constant C
independent of n.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

from .digraph import build_representation, min_cycle_mean_lowmem
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
    "check_settings",
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

    ERROR is defensive only: it marks a sweep row whose analysis raised,
    which the pipeline itself never does on valid input.
    """

    SUCCESS = "SUCCESS"
    NO_EXPANSION_AT_DELTA0 = "NO_EXPANSION_AT_DELTA0"
    FINE_PARTITION_ARTIFACT = "FINE_PARTITION_ARTIFACT"
    ACYCLIC = "ACYCLIC"
    ERROR = "ERROR"


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
    """Certified critical radius from the bisection stage.  The coarse
    expansion bound at delta_bar re-verifies positive (or the coarse graph
    is acyclic, a vacuous certificate: every orbit enters the neighborhood
    within k steps)."""

    delta_bar: float
    coarse_acyclic: bool


def _validate(omega: ParamInterval) -> None:
    if not (0.0 < omega.a_lo <= omega.a_hi <= 2.0):
        raise ValueError(
            f"parameter interval [{omega.a_lo!r}, {omega.a_hi!r}] outside (0, 2]"
        )


def check_settings(*, k_coarse: int, k_fine: int, delta0: float, steps: int) -> None:
    """Raise ValueError for analysis settings that no interval can run
    with: a cell count that is odd or below 2, an initial radius that is
    not positive and finite, or a negative number of bisection steps.
    Callers check before doing any work, so a bad setting fails at once."""
    for name, k in (("coarse", k_coarse), ("fine", k_fine)):
        if k < 2 or k % 2 != 0:
            raise ValueError(f"{name} cell count must be even and >= 2, got {k}")
    if not 0.0 < delta0 < math.inf:
        raise ValueError(f"initial radius must be positive and finite, got {delta0!r}")
    if steps < 0:
        raise ValueError(f"bisection steps must be >= 0, got {steps}")


def lambda_bound(omega: ParamInterval, delta: float, k: int) -> float | None:
    """Certified lower bound for the expansion exponent of every map in
    omega outside (-delta, delta), from the minimum cycle mean of the
    representation graph on k cells.

    Returns None when the graph is acyclic (no orbit stays outside the
    critical neighborhood for k consecutive steps, so expansion holds
    vacuously at every exponent).  A value <= 0 certifies nothing at this
    resolution.
    """
    _validate(omega)
    partition = phase_partition(omega, delta, k)
    graph = build_representation(omega, partition)
    return min_cycle_mean_lowmem(graph).value


def _mid_up(lo: float, hi: float) -> float:
    # midpoint rounded upward (toward the initial radius) so the positivity
    # certificate attached to the returned radius is re-checkable bit-exactly
    return add_up(lo, hi) / 2.0


def delta_bound(
    omega: ParamInterval,
    *,
    k_coarse: int = DEFAULT_K_COARSE,
    delta0: float = DEFAULT_DELTA0,
    steps: int = DEFAULT_BISECTION_STEPS,
) -> DeltaBound | None:
    """A possibly small certified radius in (0, delta0], or None when the
    coarse expansion bound at delta0 is already nonpositive.

    Bisects on [0, delta0], keeping as the upper end the smallest radius
    whose coarse bound came out positive (an acyclic coarse graph counts as
    a positive, vacuous certificate); after the fixed number of steps the
    upper end is returned.
    """
    if delta0 <= 0.0:
        raise ValueError(f"initial radius must be positive, got {delta0!r}")
    probe = lambda_bound(omega, delta0, k_coarse)
    if probe is not None and probe <= 0.0:
        return None
    lo, hi = 0.0, delta0
    hi_acyclic = probe is None
    for _ in range(steps):
        mid = _mid_up(lo, hi)
        if not lo < mid < hi:
            break
        value = lambda_bound(omega, mid, k_coarse)
        if value is None or value > 0.0:
            hi = mid
            hi_acyclic = value is None
        else:
            lo = mid
    return DeltaBound(hi, hi_acyclic)


def analyze(
    omega: ParamInterval,
    *,
    k_coarse: int = DEFAULT_K_COARSE,
    k_fine: int = DEFAULT_K_FINE,
    delta0: float = DEFAULT_DELTA0,
    steps: int = DEFAULT_BISECTION_STEPS,
) -> AnalysisResult:
    """Full certified analysis of one parameter interval: radius bisection
    at the coarse resolution, then the exponent bound at the fine one.

    A nonpositive fine bound after a successful coarse stage is a known
    artifact of re-partitioning and is reported as a failure of its own
    kind; an acyclic graph at the accepted coarse radius or at the fine
    stage yields the ACYCLIC status with the radius but no finite exponent.
    """
    start = time.perf_counter()
    _validate(omega)
    check_settings(k_coarse=k_coarse, k_fine=k_fine, delta0=delta0, steps=steps)

    def done(status, d=None, lam=None):
        elapsed = int(round((time.perf_counter() - start) * 1000.0))
        return AnalysisResult(
            omega.index, omega.a_lo, omega.a_hi, status, d, lam, k_coarse, k_fine, elapsed
        )

    bound = delta_bound(omega, k_coarse=k_coarse, delta0=delta0, steps=steps)
    if bound is None:
        return done(Status.NO_EXPANSION_AT_DELTA0)
    fine = lambda_bound(omega, bound.delta_bar, k_fine)
    if bound.coarse_acyclic or fine is None:
        return done(Status.ACYCLIC, d=bound.delta_bar)
    if fine <= 0.0:
        return done(Status.FINE_PARTITION_ARTIFACT)
    if not math.isfinite(fine):
        raise AssertionError(f"non-finite exponent bound {fine!r}")
    return done(Status.SUCCESS, d=bound.delta_bar, lam=fine)
