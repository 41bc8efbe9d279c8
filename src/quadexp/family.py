"""Parameter intervals of the quadratic family f_a(x) = a - x^2 and the
certified bound on their phase domain.

The dynamically invariant phase interval for a single parameter is
I_a = [p_a, -p_a], where p_a = -1/2 - sqrt(1 + 4a)/2 is the negative fixed
point; the family-wide domain used here is the union of the I_a over the
parameter interval, [-sup, sup] with sup = -p_{a_hi}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rigor import RigorError, add_up, mul_up, sqrt_up


@dataclass(frozen=True, slots=True)
class ParamInterval:
    """A parameter-space subinterval [a_lo, a_hi] with its grid index.

    The certified pipeline requires 0 < a_lo <= a_hi <= 2 so that every
    f_a maps its phase interval into itself; ``phase_partition``, where
    every solve starts, validates this.
    """

    index: int
    a_lo: float
    a_hi: float


def phase_domain(omega: ParamInterval) -> float:
    """Up-rounded sup of (1 + sqrt(1 + 4a)) / 2 over a in omega: [-sup, sup]
    contains I_a for every a in omega."""
    if omega.a_lo <= -0.25:
        raise RigorError(f"fixed point undefined for a_lo={omega.a_lo!r}")
    return mul_up(0.5, add_up(1.0, sqrt_up(add_up(1.0, mul_up(4.0, omega.a_hi)))))
