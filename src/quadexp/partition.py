"""Deterministic subdivision of parameter space and of the phase interval.

The parameter grid uses the gcd-truncated formula

    theta_i = a_min + ((i / gcd(i, N)) * (a_max - a_min)) / (N / gcd(i, N))

with every arithmetic step rounded to nearest, so grids for N and 2N agree
bit-exactly at shared points.

The phase partition is one ascending array of k + 2 cell bounds: its
middle cell is the closed critical cell [-delta, delta], and the k cells
outside it are sized non-uniformly.  Two effects drive the cell sizing.
Near the critical neighborhood, breakpoints geometric in |x| keep the
per-cell oscillation of log|2x| constant, so edge weight bounds are
uniformly tight.  Near the endpoints +-p of the phase interval the
dynamics is most sensitive: orbits leaving the critical neighborhood land
in a sliver below the critical value (width ~ the parameter interval plus
delta^2) next to +p, and then creep away from the repelling fixed point at
-p, multiplying their distance by about |2p| per step.  Cells of constant
relative width in |x| are widest exactly there, which lets transitions
composed through them cut the creep short and produces spuriously negative
cycle means at moderate k.  The outer band is therefore graded
geometrically in the distance u = p - |x| instead, down to a resolution
floor matched to the sliver width.  For small k the outer band is empty
and the construction reduces to the plain geometric one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .family import ParamInterval, phase_domain
from .rigor import RigorError

__all__ = ["ParamGrid", "PhasePartition", "subdivide_parameters", "phase_partition"]


@dataclass(frozen=True, slots=True, eq=False)
class ParamGrid:
    """Ordered subdivision points theta_0 .. theta_N of [a_min, a_max], a
    read-only float64 array."""

    n: int
    points: np.ndarray

    def interval(self, i: int) -> ParamInterval:
        if not 0 <= i < self.n:
            raise IndexError(f"grid interval index {i} out of range [0, {self.n})")
        return ParamInterval(i, float(self.points[i]), float(self.points[i + 1]))


def subdivide_parameters(a_min: float, a_max: float, n: int) -> ParamGrid:
    if n < 1:
        raise ValueError(f"need at least one interval, got n={n}")
    if not a_min < a_max:
        raise ValueError(f"empty parameter range [{a_min!r}, {a_max!r}]")
    # int64 quotients below 2**53 convert to float64 exactly, so each
    # element takes the formula's three rounded steps
    i = np.arange(n + 1, dtype=np.int64)
    g = np.gcd(i, n)
    points = a_min + ((i // g) * (a_max - a_min)) / (n // g)
    points.flags.writeable = False
    return ParamGrid(n, points)


@dataclass(frozen=True, slots=True, eq=False)
class PhasePartition:
    """k + 1 cells [bounds[i], bounds[i + 1]] covering I_omega; cell k/2 is
    the closed critical cell [-delta, delta].

    ``bounds`` is a read-only, strictly ascending float64 array of k + 2
    values from -sup to sup, so adjacent cells share endpoints exactly and
    the covered set has no gaps.  It is an exact negation of itself
    reversed: negative-side cells are exact negations of positive-side
    cells.
    """

    bounds: np.ndarray

    @property
    def k(self) -> int:
        """The number of cells outside the critical cell."""
        return self.bounds.size - 2

    @property
    def delta(self) -> float:
        return float(self.bounds[self.bounds.size // 2])


# share of each half's cells available to the endpoint band, and the
# band's resolution floor relative to sup/k: finer k resolves the creep
# away from the repelling fixed point proportionally deeper, which is what
# makes the computed exponent grow toward its plateau as k increases
_TOP_SHARE = 3
_TOP_FLOOR = 1.5


def _pow_each(base: float, exponents: np.ndarray) -> np.ndarray:
    # math.pow, not np.power: the two differ in the last bit on some inputs,
    # and the breakpoints (hence every certified bound) are pinned to math.pow
    return np.fromiter(map(math.pow, repeat(base), exponents.tolist()), np.float64, exponents.size)


def _breakpoints(delta: float, sup: float, k: int, smear: float) -> np.ndarray:
    # Positive-side boundaries delta = b_0 < ... < b_m = sup.  Inner band
    # geometric in x (b_j ~ delta * r^j); outer band geometric in u = sup-x
    # from sup/8 down to the resolution floor, with its cell count capped so
    # no band cell is narrower than the parameter smear (an image enclosure
    # is at least that wide, so finer band cells only multiply edges without
    # sharpening any bound).  Plain nearest rounding throughout: coverage
    # comes from the shared-endpoint chain, not from how interiors round.
    m = k // 2
    u_max = sup / 8.0
    u_min = sup * max(_TOP_FLOOR / k, 1e-12)
    knee = sup - u_max

    m_top = m // _TOP_SHARE
    if m_top >= 2 and knee > delta and u_min < u_max:
        span = math.log(u_max / u_min)
        coarsest = math.log1p(smear / u_min)
        if coarsest > 0.0:
            m_top = min(m_top, max(2, math.ceil(span / coarsest)))
    else:
        m_top = 0
        knee = sup

    # b_0 = delta and, with an outer band, its first point is the knee.  The
    # inner band is geometric in knee / delta, which a radius below about
    # 1e-308 overflows to inf, sending every inner breakpoint past b_0 to sup
    m_geo = m - m_top
    if m_geo > 1 and knee / delta == math.inf:
        raise RigorError(f"critical radius {delta!r} too small: knee/radius overflows at {knee!r}")
    bands = [delta * _pow_each(knee / delta, np.arange(m_geo) / m_geo)]
    if m_top:
        bands.append(sup - u_max * _pow_each(u_min / u_max, np.arange(m_top) / (m_top - 1)))
    points = np.minimum(np.maximum.accumulate(np.concatenate(bands + [[sup]])), sup)
    collide = np.flatnonzero(points[:-1] >= points[1:])
    if collide.size:
        a, b = points[collide[0] : collide[0] + 2].tolist()
        raise RigorError(
            f"degenerate phase partition: breakpoints {a!r} and {b!r} collide "
            f"(k={k} too large for [{delta!r}, {sup!r}])"
        )
    return points


def phase_partition(omega: ParamInterval, delta: float, k: int) -> PhasePartition:
    if not 0.0 < omega.a_lo <= omega.a_hi <= 2.0:
        raise ValueError(f"parameter interval [{omega.a_lo!r}, {omega.a_hi!r}] outside (0, 2]")
    if not delta > 0.0:
        raise ValueError(f"critical radius must be positive, got {delta!r}")
    # Radii of at most 1 give every representation graph a cycle.  For
    # p = p(a_hi), 1 < |p| = (1 + sqrt(1 + 4 a_hi))/2 <= sup, so a positive
    # cell c holds |p|.  Its outward-rounded image enclosure holds
    # f_{a_hi}(|p|) = p, which lies in c's exact negation c', so the builder
    # emits c -> c'; c' copies c's targets, so c' -> c' is a self-loop, and
    # lambda_bound is at most its weight, at most log(2 sup).
    if delta > 1.0:
        raise ValueError(f"critical radius must be at most 1, got {delta!r}")
    if k < 2 or k % 2 != 0:
        raise ValueError(f"cell count must be even and >= 2, got {k}")
    sup = phase_domain(omega)
    smear = max(omega.a_hi - omega.a_lo, sup * 2.0**-48)
    b = _breakpoints(delta, sup, k, smear)
    bounds = np.concatenate((-b[::-1], b))
    bounds.flags.writeable = False
    return PhasePartition(bounds)


def breakpoint_dump(partition: PhasePartition) -> list[str]:
    """Hex-float lines of the cell bounds in ascending order (the
    ``partition`` CLI subcommand's output)."""
    return [v.hex() for v in partition.bounds.tolist()]
