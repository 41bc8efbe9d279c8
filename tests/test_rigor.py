import concurrent.futures
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadexp.rigor import (
    RigorError,
    add_down,
    add_up,
    float_down,
    log_down,
    mul_down,
    mul_up,
    representable,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
)

mpmath.mp.dps = 50


def ulps_apart(a: float, b: float) -> int:
    n = 0
    x = a
    while x < b and n < 64:
        x = math.nextafter(x, math.inf)
        n += 1
    return n if x >= b else 64


class TestRepresentable:
    def test_powers_of_two_exact(self):
        assert representable("2") == 2.0
        assert representable(2) == 2.0
        assert representable("0.5") == 0.5

    def test_1_4_is_nearest_and_below(self):
        x = representable("1.4")
        # frozen image of the decimal-to-binary conversion
        assert x.hex() == "0x1.6666666666666p+0"
        exact = Fraction(14, 10)
        assert Fraction(x) < exact
        # nearest: the next float up is farther from 14/10
        up = math.nextafter(x, math.inf)
        assert exact - Fraction(x) <= Fraction(up) - exact

    def test_0_001_nearest(self):
        x = representable("0.001")
        assert x.hex() == "0x1.0624dd2f1a9fcp-10"
        exact = Fraction(1, 1000)
        down = math.nextafter(x, -math.inf)
        up = math.nextafter(x, math.inf)
        assert abs(Fraction(x) - exact) <= abs(Fraction(down) - exact)
        assert abs(Fraction(x) - exact) <= abs(Fraction(up) - exact)

    def test_hex_floats(self):
        assert representable("0x1.8p1") == 3.0
        assert representable("-0x1.0p-1") == -0.5

    def test_rejects_non_finite(self):
        with pytest.raises(RigorError):
            representable("inf")
        with pytest.raises(RigorError):
            representable("nan")


class TestEnclosureBasics:
    """Worked examples: each pair (f_down, f_up) of directed primitives
    encloses the exact result, returns an exact result unchanged, and
    brackets an inexact one by adjacent floats."""

    def test_add_example(self):
        lo, hi = add_down(0.1, 0.2), add_up(0.1, 0.2)
        assert Fraction(lo) < Fraction(0.1) + Fraction(0.2) < Fraction(hi)
        assert math.nextafter(lo, math.inf) == hi

    def test_add_identity_bounds_unchanged(self):
        for x in (0.1, 0.7, -3.25):
            assert add_down(0.0, x) == x == add_up(0.0, x)

    def test_neg_exact(self):
        assert sub_down(0.0, 1.5) == -1.5 == sub_up(0.0, 1.5)
        assert sub_down(0.0, -2.5) == 2.5 == sub_up(0.0, -2.5)

    def test_square_positive(self):
        assert mul_down(0.5, 0.5) == 0.25 == mul_up(0.5, 0.5)
        lo, hi = mul_down(0.6, 0.6), mul_up(0.6, 0.6)
        assert Fraction(lo) < Fraction(0.6) ** 2 < Fraction(hi)
        assert math.nextafter(lo, math.inf) == hi

    def test_square_negative_orients(self):
        assert mul_down(-0.6, -0.6) == mul_down(0.6, 0.6)
        assert mul_up(-0.6, -0.6) == mul_up(0.6, 0.6)
        assert mul_down(-0.6, 0.6) == -mul_up(0.6, 0.6)

    def test_sqrt_example(self):
        assert sqrt_down(4.0) == 2.0 == sqrt_up(4.0)
        assert sqrt_down(9.0) == 3.0 == sqrt_up(9.0)
        lo, hi = sqrt_down(2.0), sqrt_up(2.0)
        assert Fraction(lo) ** 2 < 2 < Fraction(hi) ** 2
        assert math.nextafter(lo, math.inf) == hi

    def test_sqrt_zero(self):
        assert sqrt_down(0.0) == 0.0 == sqrt_up(0.0)

    def test_sqrt_negative_rejected(self):
        with pytest.raises(RigorError):
            sqrt_down(-1.0)
        with pytest.raises(RigorError):
            sqrt_up(-1e-300)

    def test_log_one(self):
        v = log_down(1.0)
        assert v <= 0.0
        assert ulps_apart(v, 0.0) <= 1

    def test_log_e(self):
        # float e is below the real e, so the bound stays below 1
        v = log_down(math.e)
        assert v <= 1.0
        assert mpmath.mpf(v) <= mpmath.log(mpmath.mpf(math.e))
        assert ulps_apart(v, 1.0) <= 2

    def test_log_rejects_nonpositive(self):
        with pytest.raises(RigorError):
            log_down(0.0)
        with pytest.raises(RigorError):
            log_down(-1.0)


def _wide(rng):
    # a float of either sign with a magnitude anywhere in [2**-60, 2**60]
    return rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-60.0, 60.0)


class TestContainmentSampling:
    """Smaller-scale versions of the acceptance containment sweep."""

    N = 3000

    def test_add_sub_mul_square_exact_rational(self, rng):
        for _ in range(self.N):
            a, b = _wide(rng), _wide(rng)
            fa, fb = Fraction(a), Fraction(b)
            assert Fraction(add_down(a, b)) <= fa + fb <= Fraction(add_up(a, b))
            assert Fraction(sub_down(a, b)) <= fa - fb <= Fraction(sub_up(a, b))
            assert Fraction(mul_down(a, b)) <= fa * fb <= Fraction(mul_up(a, b))
            assert Fraction(mul_down(a, a)) <= fa * fa <= Fraction(mul_up(a, a))

    def test_sqrt_log_extended_precision(self, rng):
        for _ in range(800):
            p = abs(_wide(rng))
            root = mpmath.sqrt(mpmath.mpf(p))
            assert mpmath.mpf(sqrt_down(p)) <= root <= mpmath.mpf(sqrt_up(p))
            assert mpmath.mpf(log_down(p)) <= mpmath.log(mpmath.mpf(p))

    def test_directed_scalar_helpers(self, rng):
        for _ in range(self.N):
            a = rng.uniform(-8, 8)
            b = rng.uniform(-8, 8)
            assert Fraction(add_down(a, b)) <= Fraction(a) + Fraction(b) <= Fraction(add_up(a, b))
            assert Fraction(mul_down(a, b)) <= Fraction(a) * Fraction(b) <= Fraction(mul_up(a, b))
        for _ in range(self.N):
            a = abs(rng.uniform(0, 16))
            fd, fu = Fraction(sqrt_down(a)), Fraction(sqrt_up(a))
            assert fd * fd <= Fraction(a) <= fu * fu


class TestTightness:
    def test_within_two_ulp(self, rng):
        # each bound is within one ulp of the nearest result, so a directed
        # pair is at most two ulp wide
        for _ in range(500):
            a, b = rng.uniform(-8, 8), rng.uniform(-8, 8)
            assert ulps_apart(add_down(a, b), a + b) <= 1 and ulps_apart(a + b, add_up(a, b)) <= 1
            assert ulps_apart(sub_down(a, b), a - b) <= 1 and ulps_apart(a - b, sub_up(a, b)) <= 1
            assert ulps_apart(mul_down(a, b), a * b) <= 1 and ulps_apart(a * b, mul_up(a, b)) <= 1
            p = abs(a) + 0.125
            assert ulps_apart(sqrt_down(p), math.sqrt(p)) <= 1
            assert ulps_apart(math.sqrt(p), sqrt_up(p)) <= 1
            assert ulps_apart(log_down(p), math.log(p)) <= 1


class TestDeterminismAndConcurrency:
    def test_bit_identical_across_threads(self):
        def work(_):
            lo, hi = mul_down(0.1, -0.3), mul_up(0.7, 1.9)
            return (lo, hi, sqrt_down(hi), sqrt_up(hi), log_down(2.0 + hi))

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = set(pool.map(work, range(64)))
        assert len(results) == 1


finite = st.floats(min_value=-16.0, max_value=16.0, allow_nan=False)


@given(a=finite, b=finite)
@settings(max_examples=300, deadline=None)
def test_property_containment_add_mul(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert Fraction(add_down(a, b)) <= fa + fb <= Fraction(add_up(a, b))
    assert Fraction(mul_down(a, b)) <= fa * fb <= Fraction(mul_up(a, b))
    assert Fraction(mul_down(a, a)) <= fa * fa <= Fraction(mul_up(a, a))


@given(a=st.floats(min_value=0.0, max_value=16.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_property_containment_sqrt(a):
    # exactly, via squaring (both bounds are nonnegative)
    assert Fraction(sqrt_down(a)) ** 2 <= Fraction(a) <= Fraction(sqrt_up(a)) ** 2


class TestArrayPath:
    """Every directed primitive takes float64 arrays through the scalar
    formula: each element encloses the exact result and equals the scalar
    call on that element bit for bit, and a scalar call returns a float."""

    # normal and exact products, zeros, and products below 2**-1000 (one
    # exact, one subnormal, one underflowing to zero)
    A = [1.0 / 3.0, -0.1, 1.5, 0.5, 0.0, -0.0, 3.0, 1e-160, -(2.0**-520), 1e-200, 7.25, -2.0]
    B = [0.7, 0.3, 2.0, 0.25, 5.0, -1.0, 0.0, 1e-160, 2.0**-490, -1e-200, -(2.0**-60), 1e300]
    ROOTS = [2.0, 4.0, 2.25, 0.0, 0.1, 1e-310, 2.0**-1020, 2.0**-998, 1e300, 7.0]
    LOGS = [1.0, math.e, 2.0**-40, 4.0, 0.3, 1.0 + 2.0**-52]

    @staticmethod
    def _check(f, args, exact, below, of=Fraction):
        out = f(*(np.array(a) for a in args))
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        for i, got in enumerate(out.tolist()):
            scalar = f(*(a[i] for a in args))
            assert type(scalar) is float
            assert got.hex() == scalar.hex(), (f.__name__, i)
            want = exact(*(a[i] for a in args))
            assert (of(got) <= want) if below else (of(got) >= want), (f.__name__, i)

    def test_sums(self):
        plus = lambda a, b: Fraction(a) + Fraction(b)  # noqa: E731
        minus = lambda a, b: Fraction(a) - Fraction(b)  # noqa: E731
        self._check(add_down, (self.A, self.B), plus, True)
        self._check(add_up, (self.A, self.B), plus, False)
        self._check(sub_down, (self.A, self.B), minus, True)
        self._check(sub_up, (self.A, self.B), minus, False)

    def test_products(self):
        times = lambda a, b: Fraction(a) * Fraction(b)  # noqa: E731
        self._check(mul_down, (self.A, self.B), times, True)
        self._check(mul_up, (self.A, self.B), times, False)
        # below 2**-1000 even an exact product is stepped outward
        assert mul_down(2.0**-520, 2.0**-490) < 2.0**-1010 < mul_up(2.0**-520, 2.0**-490)
        assert mul_down(1e-200, 1e-200) < 0.0 < mul_up(1e-200, 1e-200)

    def test_square_roots(self):
        square = lambda r: Fraction(r) ** 2  # noqa: E731
        self._check(sqrt_down, (self.ROOTS,), Fraction, True, of=square)
        self._check(sqrt_up, (self.ROOTS,), Fraction, False, of=square)
        assert sqrt_down(2.0**-1020) < 2.0**-510 < sqrt_up(2.0**-1020)
        with pytest.raises(RigorError):
            sqrt_down(np.array([1.0, -1.0]))

    def test_logs(self):
        exact = lambda x: mpmath.log(mpmath.mpf(x))  # noqa: E731
        self._check(log_down, (self.LOGS,), exact, True, of=mpmath.mpf)
        with pytest.raises(RigorError):
            log_down(np.array([1.0, 0.0]))

    def test_float_down(self):
        assert float_down(Fraction(1, 3)) < Fraction(1, 3)
        assert float_down(Fraction(3, 4)) == 0.75
        assert math.nextafter(float_down(Fraction(-1, 3)), math.inf) > Fraction(-1, 3)


def test_platform_log_is_faithful():
    """log_down steps math.log down once, which is a lower bound exactly
    when math.log is within 1 ulp of log(x); checked on log-uniform samples
    over [2**-40, 4] (every 2 min|x| an edge weight can take) against
    40-digit mpmath."""
    rng = random.Random(40)
    xs = [2.0**-40, 4.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
    xs += [2.0 ** rng.uniform(-40.0, 2.0) for _ in range(20000)]
    with mpmath.workdps(40):
        for x in xs:
            got = math.log(x)
            exact = mpmath.log(mpmath.mpf(x))
            assert mpmath.mpf(math.nextafter(got, -math.inf)) < exact, x
            assert exact < mpmath.mpf(math.nextafter(got, math.inf)), x
