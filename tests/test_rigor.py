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
    EMPTY,
    Enclosure,
    RigorError,
    add_down,
    add_up,
    float_down,
    iv_add,
    iv_hull,
    iv_intersect,
    iv_mul,
    iv_neg,
    iv_sqrt,
    iv_square,
    iv_sub,
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
    def test_inverted_rejected(self):
        with pytest.raises(RigorError):
            Enclosure(2.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(RigorError):
            Enclosure(0.0, math.inf)

    def test_add_example(self):
        r = iv_add(Enclosure(1.0, 2.0), Enclosure(3.0, 4.0))
        assert r.lo <= 4.0 <= 6.0 <= r.hi
        assert ulps_apart(r.lo, 4.0) <= 1 and ulps_apart(6.0, r.hi) <= 1

    def test_add_identity_bounds_unchanged(self):
        x = Enclosure(0.1, 0.7)
        r = iv_add(Enclosure(0.0, 0.0), x)
        assert r.lo == x.lo and r.hi == x.hi

    def test_neg_exact(self):
        assert iv_neg(Enclosure(-1.5, 2.5)) == Enclosure(-2.5, 1.5)

    def test_square_spanning_zero(self):
        r = iv_square(Enclosure(-2.0, 1.0))
        assert r.lo == 0.0
        assert r.hi >= 4.0 and ulps_apart(4.0, r.hi) <= 1

    def test_square_positive(self):
        r = iv_square(Enclosure(0.5, 0.6))
        assert r.lo <= 0.25 and r.hi >= 0.36
        assert ulps_apart(r.lo, 0.25) <= 1

    def test_square_negative_orients(self):
        r = iv_square(Enclosure(-0.6, -0.5))
        assert r.lo <= 0.25 and r.hi >= 0.36

    def test_sqrt_example(self):
        r = iv_sqrt(Enclosure(4.0, 9.0))
        assert r.lo <= 2.0 and r.hi >= 3.0
        assert ulps_apart(r.lo, 2.0) <= 1 and ulps_apart(3.0, r.hi) <= 1

    def test_sqrt_zero(self):
        assert iv_sqrt(Enclosure(0.0, 0.0)) == Enclosure(0.0, 0.0)

    def test_sqrt_negative_rejected(self):
        with pytest.raises(RigorError):
            iv_sqrt(Enclosure(-1.0, 1.0))

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

    def test_intersect(self):
        assert iv_intersect(Enclosure(0.0, 2.0), Enclosure(1.0, 3.0)) == Enclosure(1.0, 2.0)
        assert iv_intersect(Enclosure(0.0, 1.0), Enclosure(2.0, 3.0)) is EMPTY
        # shared endpoint counts
        assert iv_intersect(Enclosure(0.0, 1.0), Enclosure(1.0, 2.0)) == Enclosure(1.0, 1.0)

    def test_hull(self):
        assert iv_hull(Enclosure(0.0, 1.0), Enclosure(2.0, 3.0)) == Enclosure(0.0, 3.0)
        assert iv_hull(EMPTY, Enclosure(1.0, 2.0)) == Enclosure(1.0, 2.0)


def _rand_enclosure(rng, span=8.0):
    a = rng.uniform(-span, span)
    b = rng.uniform(-span, span)
    lo, hi = min(a, b), max(a, b)
    return Enclosure(lo, hi)


def _sample_in(rng, x: Enclosure) -> float:
    t = rng.random()
    # clamp: the interpolation can round outside the enclosure
    return min(max(x.lo + (x.hi - x.lo) * t, x.lo), x.hi)


class TestContainmentSampling:
    """Smaller-scale versions of the acceptance containment sweep."""

    N = 3000

    def test_add_sub_mul_square_exact_rational(self, rng):
        for _ in range(self.N):
            x = _rand_enclosure(rng)
            y = _rand_enclosure(rng)
            px, py = _sample_in(rng, x), _sample_in(rng, y)
            fx, fy = Fraction(px), Fraction(py)
            r = iv_add(x, y)
            assert Fraction(r.lo) <= fx + fy <= Fraction(r.hi)
            r = iv_sub(x, y)
            assert Fraction(r.lo) <= fx - fy <= Fraction(r.hi)
            r = iv_mul(x, y)
            assert Fraction(r.lo) <= fx * fy <= Fraction(r.hi)
            r = iv_square(x)
            assert Fraction(r.lo) <= fx * fx <= Fraction(r.hi)

    def test_sqrt_log_extended_precision(self, rng):
        for _ in range(800):
            x = _rand_enclosure(rng)
            lo = abs(x.lo)
            x = Enclosure(lo, lo + (x.hi - x.lo))
            p = _sample_in(rng, x)
            r = iv_sqrt(x)
            assert mpmath.mpf(r.lo) <= mpmath.sqrt(mpmath.mpf(p)) <= mpmath.mpf(r.hi)
            if p > 0:
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
        for _ in range(500):
            x = _rand_enclosure(rng)
            y = _rand_enclosure(rng)
            r = iv_add(x, y)
            assert ulps_apart(r.lo, x.lo + y.lo) <= 2
            assert ulps_apart(x.hi + y.hi, r.hi) <= 2
            r = iv_sub(x, y)
            assert ulps_apart(r.lo, x.lo - y.hi) <= 2
            r = iv_mul(x, y)
            lo = min(x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
            assert ulps_apart(r.lo, lo) <= 2
            pos = Enclosure(abs(x.lo) + 0.125, abs(x.lo) + 0.25)
            r = iv_square(pos)
            assert ulps_apart(r.lo, pos.lo * pos.lo) <= 2
            r = iv_sqrt(pos)
            assert ulps_apart(r.lo, math.sqrt(pos.lo)) <= 2
            assert ulps_apart(math.sqrt(pos.hi), r.hi) <= 2


class TestDeterminismAndConcurrency:
    def test_bit_identical_across_threads(self):
        x = Enclosure(0.1, 0.7)
        y = Enclosure(-0.3, 1.9)

        def work(_):
            r1 = iv_mul(x, y)
            r2 = iv_sqrt(iv_square(r1))
            return (r1.lo, r1.hi, r2.lo, r2.hi, log_down(2.0 + r2.hi))

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = set(pool.map(work, range(64)))
        assert len(results) == 1


finite = st.floats(min_value=-16.0, max_value=16.0, allow_nan=False)


@given(a=finite, b=finite, c=finite, d=finite, t=st.floats(0, 1), u=st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_property_containment_add_mul(a, b, c, d, t, u):
    x = Enclosure(min(a, b), max(a, b))
    y = Enclosure(min(c, d), max(c, d))
    px = min(max(x.lo + (x.hi - x.lo) * t, x.lo), x.hi)
    py = min(max(y.lo + (y.hi - y.lo) * u, y.lo), y.hi)
    fx, fy = Fraction(px), Fraction(py)
    r = iv_add(x, y)
    assert Fraction(r.lo) <= fx + fy <= Fraction(r.hi)
    r = iv_mul(x, y)
    assert Fraction(r.lo) <= fx * fy <= Fraction(r.hi)
    r = iv_square(x)
    assert Fraction(r.lo) <= fx * fx <= Fraction(r.hi)


@given(a=st.floats(min_value=0.0, max_value=16.0, allow_nan=False), t=st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_property_containment_sqrt(a, t):
    x = Enclosure(min(a * t, a), a)
    p = min(max(x.lo + (x.hi - x.lo) * 0.5, x.lo), x.hi)
    r = iv_sqrt(x)
    # r.lo <= sqrt(p) <= r.hi, exactly, via squaring (bounds are nonnegative)
    assert Fraction(r.lo) ** 2 <= Fraction(p) <= Fraction(r.hi) ** 2


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
