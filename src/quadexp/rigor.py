"""Directed rounding on binary64 numbers, for floats and float64 arrays.

Each primitive (``add_down`` ... ``log_down``) returns a representable
bound on the exact real result from the named side, so any quantity built
from them downstream (image intervals, derivative bounds, cycle means) is a
mathematically valid bound.  Directed rounding is realized without
touching the FPU rounding mode: each primitive computes the
round-to-nearest result together with an error-free indicator of the
rounding direction (TwoSum for +/-, Veltkamp-Dekker splitting for *), and
steps to the adjacent representable number only when the nearest result
landed on the wrong side.  Exact results are therefore returned unchanged,
and all functions are pure and safe under unrestricted concurrency.

Every primitive runs one formula on a float (giving a float, without
numpy) or elementwise on a float64 array, as the transforms are plain
``+ - *``.  Below 2**-1000 a product or the square of a root may have lost
bits to underflow, so there a nonzero result is stepped outward
unconditionally.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "representable",
    "add_down",
    "add_up",
    "sub_down",
    "sub_up",
    "mul_down",
    "mul_up",
    "sqrt_down",
    "sqrt_up",
    "log_down",
    "float_down",
]

_INF = math.inf

# Veltkamp splitting constant for binary64 (2**27 + 1).
_SPLIT = 134217729.0

# below this magnitude a product may have underflowed, so the error-free
# transform is unreliable and the result is stepped outward regardless
_TINY = 2.0**-1000


class RigorError(ValueError):
    """Raised when an operation's precondition is violated or a bound
    leaves the finite range."""


def _per_kind(x, scalar, array):
    """scalar(x) when x is a float (or bool), array(x) when it is an array:
    the one place that tells the two apart, so a float never meets numpy."""
    return array(x) if isinstance(x, np.ndarray) else scalar(x)


def _step(x, toward: float, where):
    """x moved one ulp toward ``toward`` where ``where`` holds (in place
    for an array)."""
    return _per_kind(
        x,
        lambda v: math.nextafter(v, toward) if where else v,
        lambda v: np.nextafter(v, toward, out=v, where=where),
    )


def _two_sum_err(a, b, s):
    # Knuth TwoSum: exact error of the rounded sum s = fl(a + b).
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _two_prod_err(a, b, p):
    # Dekker's product error via Veltkamp splitting; exact when p is normal
    # and the splitting does not overflow (the tiny zone is handled apart).
    ah = a * _SPLIT
    ah = ah - (ah - a)
    al = a - ah
    bh = b * _SPLIT
    bh = bh - (bh - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def add_down(a, b):
    """Largest representable number <= a + b (exact sum)."""
    s = a + b
    return _step(s, -_INF, _two_sum_err(a, b, s) < 0.0)


def add_up(a, b):
    """Smallest representable number >= a + b (exact sum)."""
    s = a + b
    return _step(s, _INF, _two_sum_err(a, b, s) > 0.0)


def sub_down(a, b):
    return add_down(a, -b)


def sub_up(a, b):
    return add_up(a, -b)


def _tiny_product(a, b, p):
    return (abs(p) < _TINY) & (a != 0.0) & (b != 0.0)


def mul_down(a, b):
    """Largest representable number <= a * b; a nonzero product below
    2**-1000 is stepped down regardless."""
    p = a * b
    return _step(p, -_INF, _tiny_product(a, b, p) | (_two_prod_err(a, b, p) < 0.0))


def mul_up(a, b):
    """Smallest representable number >= a * b; a nonzero product below
    2**-1000 is stepped up regardless."""
    p = a * b
    return _step(p, _INF, _tiny_product(a, b, p) | (_two_prod_err(a, b, p) > 0.0))


def _sqrt_nearest(x):
    # correctly rounded square root and its exactly split square r*r = rr + err
    if _per_kind(x < 0.0, bool, np.any):
        raise RigorError(f"sqrt of negative number {x!r}")
    r = _per_kind(x, math.sqrt, np.sqrt)
    rr = r * r
    return r, rr, _two_prod_err(r, r, rr), (rr < _TINY) & (x != 0.0)


def sqrt_down(x):
    """Largest representable number <= sqrt(x), for x >= 0 (stepped down
    regardless when the root squares below 2**-1000)."""
    # the nearest root is within half an ulp, so at most one step is needed
    r, rr, err, tiny = _sqrt_nearest(x)
    return _step(r, -_INF, tiny | (rr > x) | ((rr == x) & (err > 0.0)))


def sqrt_up(x):
    """Smallest representable number >= sqrt(x), for x >= 0 (stepped up
    regardless when the root squares below 2**-1000)."""
    r, rr, err, tiny = _sqrt_nearest(x)
    return _step(r, _INF, tiny | (rr < x) | ((rr == x) & (err < 0.0)))


def log_down(x):
    """A representable lower bound for log(x), within 2 ulp of exact, for
    x > 0.

    Rests on the platform ``math.log`` being faithful (error < 1 ulp), so
    one downward step yields a lower bound; ``tests/test_rigor.py::
    test_platform_log_is_faithful`` checks that against 40-digit mpmath on
    [2**-40, 4], the range of 2 min|x| over every edge.  Arrays are mapped
    through ``math.log`` element by element, not ``np.log``, whose own
    accuracy that argument does not cover.
    """
    if _per_kind(x <= 0.0, bool, np.any):
        raise RigorError(f"log requires a positive argument, got {x!r}")
    logs = _per_kind(x, math.log, lambda v: np.fromiter(map(math.log, v.tolist()), np.float64, v.size))
    return _step(logs, -_INF, True)


def float_down(q) -> float:
    """Largest float <= the rational q (a ``fractions.Fraction``)."""
    value = float(q)
    return math.nextafter(value, -_INF) if value > q else value


def representable(value: float | int | str) -> float:
    """Round-to-nearest binary64 image of a decimal literal or hex-float.

    Strings are parsed as decimal unless they carry an explicit ``0x``
    prefix, in which case they are read as hex-floats (bit-exact).
    """
    if isinstance(value, str):
        text = value.strip()
        if text.lower().startswith(("0x", "-0x", "+0x")):
            result = float.fromhex(text)
        else:
            result = float(text)
    else:
        result = float(value)
    if not math.isfinite(result):
        raise RigorError(f"non-finite value {value!r}")
    return result
