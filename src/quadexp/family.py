"""Rigorous enclosures for the quadratic family f_a(x) = a - x^2.

All operations are uniform over a parameter interval: the returned
enclosures contain the corresponding quantity for every parameter a in the
interval at once.  The dynamically invariant phase interval for a single
parameter is I_a = [p_a, -p_a], where p_a = -1/2 - sqrt(1 + 4a)/2 is the
negative fixed point; the family-wide domain used here is the union of the
I_a over the parameter interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rigor import (
    EMPTY,
    Enclosure,
    RigorError,
    iv_add,
    iv_mul,
    iv_neg,
    iv_sqrt,
    iv_square,
    iv_sub,
    log_down,
)

_ONE = Enclosure(1.0, 1.0)
_FOUR = Enclosure(4.0, 4.0)
_HALF = Enclosure(0.5, 0.5)


@dataclass(frozen=True, slots=True)
class ParamInterval:
    """A parameter-space subinterval [a_lo, a_hi] with its grid index.

    The certified pipeline requires 0 < a_lo <= a_hi <= 2 so that every
    f_a maps its phase interval into itself; entry points validate this.
    """

    index: int
    a_lo: float
    a_hi: float

    def as_enclosure(self) -> Enclosure:
        return Enclosure(self.a_lo, self.a_hi)


@dataclass(frozen=True, slots=True)
class PhaseDomain:
    """Symmetric enclosure [-(sup), sup] of the union of the I_a."""

    domain: Enclosure

    @property
    def sup(self) -> float:
        return self.domain.hi


def fixed_point_neg(omega: ParamInterval) -> Enclosure:
    """Enclosure of the negative fixed points p_a = -1/2 - sqrt(1+4a)/2
    over a in omega."""
    if omega.a_lo <= -0.25:
        raise RigorError(f"fixed point undefined for a_lo={omega.a_lo!r}")
    radicand = iv_add(_ONE, iv_mul(_FOUR, omega.as_enclosure()))
    root = iv_sqrt(radicand)
    return iv_neg(iv_mul(_HALF, iv_add(_ONE, root)))


def phase_domain(omega: ParamInterval) -> PhaseDomain:
    """Symmetric interval containing I_a for every a in omega."""
    p = fixed_point_neg(omega)
    return PhaseDomain(Enclosure(p.lo, -p.lo))


def image(omega: ParamInterval, x: Enclosure) -> Enclosure:
    """Enclosure of {a - t^2 : a in omega, t in x}."""
    return iv_sub(omega.as_enclosure(), iv_square(x))


def deriv_log_inf(x: Enclosure) -> float:
    """Down-rounded infimum of log|f'(t)| = log|2t| over t in x.

    Cells of the phase partition never contain 0, so the infimum is
    log(2 * min|t|) with the minimum attained at an endpoint.
    """
    if x.lo <= 0.0 <= x.hi:
        raise RigorError(f"derivative bound undefined on {x!r} containing 0")
    m = min(abs(x.lo), abs(x.hi))
    return log_down(2.0 * m)


def preimage(omega: ParamInterval, y: Enclosure):
    """Two enclosures (negative branch, positive branch) jointly containing
    every preimage of y under any f_a with a in omega.

    The branches are +/- sqrt(R) for the radicand enclosure R of
    {a - t : a in omega, t in y}; both are EMPTY when R is entirely
    negative (y above every attainable value).
    """
    radicand = iv_sub(omega.as_enclosure(), y)
    if radicand.hi < 0.0:
        return (EMPTY, EMPTY)
    clamped = Enclosure(max(radicand.lo, 0.0), radicand.hi)
    pos = iv_sqrt(clamped)
    return (iv_neg(pos), pos)
