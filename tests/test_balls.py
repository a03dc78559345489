"""Enclosure arithmetic: containment, constants, quadrature cross-checks."""

import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from binom4k import balls
from binom4k.balls import (
    Ball,
    BallDomainError,
    QuadratureError,
    const_log,
    const_pi,
    const_sqrt,
    _atan_fixed,
    _decimal_normalise,
    _fixed_sum,
    _fraction_decimal,
    _round,
    quad_integrate,
)

PI_DIGITS = F("3.14159265358979323846264338327950288")
LOG2_DIGITS = F("0.69314718055994530941723212145817657")


def _mercator_enclosure(t: F, digits: int) -> tuple[F, F]:
    """log(1+t) for 0 <= t <= 1/2 by the alternating series, with the
    first-omitted-term remainder.  Independent of the package's atanh route."""
    assert 0 <= t <= F(1, 2)
    target = F(1, 10 ** (digits + 2))
    s = F(0)
    sign = 1
    power = t
    n = 1
    while True:
        s += sign * power / n
        power *= t
        n += 1
        sign = -sign
        if power / n <= target:
            nxt = sign * power / n
            lo, hi = sorted((s, s + nxt))
            return lo, hi


def _atan_oracle(u: F, hyperbolic: bool, bits: int) -> tuple[F, F]:
    """Exact enclosure of atan(u) (atanh(u) if hyperbolic) for |u| <= 1/2: a
    partial sum of the odd-power series and its geometric remainder bound,
    of width below 2^-bits."""
    s, power, k = F(0), u, 0
    while True:
        rest = abs(power) / ((2 * k + 1) * (1 - u * u))
        if rest < F(1, 2 ** (bits + 1)):
            return s - rest, s + rest
        s += power / (2 * k + 1) if hyperbolic or k % 2 == 0 else -power / (2 * k + 1)
        power *= u * u
        k += 1


def _log_oracle(q: F, digits: int = 50) -> tuple[F, F]:
    """Exact-rational enclosure of log q via multiplicative reduction into
    (1, 4/3] and the Mercator series; remainder bounds are explicit."""
    assert q > 0
    lo32, hi32 = _mercator_enclosure(F(1, 2), digits)   # log(3/2)
    lo2a, hi2a = _mercator_enclosure(F(1, 3), digits)   # log(4/3)
    lo2, hi2 = lo2a + lo32, hi2a + hi32                  # log 2
    m2 = m32 = 0
    while q > F(4, 3):
        if q / 2 > 1:
            q, m2 = q / 2, m2 + 1
        else:
            q, m32 = q / F(3, 2), m32 + 1
    while q <= 1:
        q, m2 = q * 2, m2 - 1
        if q > F(4, 3):
            q, m32 = q / F(3, 2), m32 + 1
    core_lo, core_hi = _mercator_enclosure(q - 1, digits)
    lo = core_lo + min(m2 * lo2, m2 * hi2) + min(m32 * lo32, m32 * hi32)
    hi = core_hi + max(m2 * lo2, m2 * hi2) + max(m32 * lo32, m32 * hi32)
    return lo, hi


class TestBallArithmetic:
    def test_exact_add(self):
        b = Ball.exact(2, 96) + Ball.exact(3, 96)
        assert b.lo == b.hi == 5

    def test_sub_mul_containment_random(self):
        rng = random.Random(5)
        for _ in range(60):
            x = F(rng.randint(-99, 99), rng.randint(1, 40))
            y = F(rng.randint(-99, 99), rng.randint(1, 40))
            bx, by = Ball.exact(x, 80), Ball.exact(y, 80)
            for b, v in ((bx + by, x + y), (bx - by, x - y), (bx * by, x * y)):
                assert b.lo <= v <= b.hi
            if y != 0 and not by.contains_zero():
                q = bx / by
                assert q.lo <= x / y <= q.hi

    def test_sqrt_contains(self):
        s = const_sqrt(2, 80)
        lo, hi = _isqrt_oracle(2, 30)
        assert s.lo_fraction() <= hi and lo <= s.hi_fraction()
        s2 = s * s
        assert s2.lo <= 2 <= s2.hi

    def test_log_additivity(self):
        d = const_log(4, 128) - 2 * const_log(2, 128)
        assert d.contains_zero()

    def test_division_by_zero_enclosure(self):
        with pytest.raises(BallDomainError):
            Ball.exact(1, 64) / (Ball.exact(1, 64) - Ball.exact(1, 64))

    def test_log_domain(self):
        for q in (0, -1):
            with pytest.raises(BallDomainError):
                const_log(q, 64)

    def test_pow(self):
        b = Ball.exact(F(3, 7), 96)
        b2 = b * b
        b5 = b2 * b2 * b
        assert b5.lo <= F(3, 7) ** 5 <= b5.hi
        inv2 = 1 / b2
        assert inv2.lo <= F(49, 9) <= inv2.hi

    def test_sqrt_containment_random(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(1, 10**9)
            s = const_sqrt(n, 72)
            assert s.lo ** 2 <= n <= s.hi ** 2
        assert const_sqrt(rng.randint(1, 10**9) ** 2, 72).width() == 0

    def test_round_directed(self):
        """_round gives at most prec significant bits, encloses x from the
        requested side, keeps short dyadics exact and carries into 2^k."""
        def bits(v):
            m, d = abs(v.numerator), v.denominator
            assert d & (d - 1) == 0     # dyadic
            return (m >> ((m & -m).bit_length() - 1)).bit_length() if m else 0

        rng = random.Random(23)
        for _ in range(300):
            prec = rng.randint(1, 80)
            x = F(rng.randint(1, 10**rng.randint(1, 40)), rng.randint(1, 10**rng.randint(1, 40)))
            for v in (x, -x):
                lo, hi = _round(v, prec, False), _round(v, prec, True)
                assert bits(lo) <= prec and bits(hi) <= prec
                assert lo <= v <= hi
                assert hi - lo <= abs(v) / 2 ** (prec - 1)
        for prec in (1, 5, 53):
            for _ in range(50):
                d = (rng.getrandbits(prec) | 1) * F(2) ** rng.randint(-60, 60)
                for v in (d, -d):
                    assert _round(v, prec, False) == v == _round(v, prec, True)
            for k in (-40, 0, 7, 90):
                v = F(2) ** k * (1 - F(1, 2 ** (prec + 5)))    # just below 2^k
                assert _round(v, prec, True) == F(2) ** k
                assert _round(-v, prec, False) == -F(2) ** k
        assert _round(F(0), 10, True) == 0 == _round(F(0), 10, False)

    def test_decimal_normalise_matches_decade_loop(self):
        """The exponent from digit counts gives what dividing or multiplying
        by 10 once per decade gives, at every magnitude and for both signs."""
        def reference(x):
            y, e = abs(x), 0
            while y >= 10:
                y /= 10
                e += 1
            while y < 1:
                y *= 10
                e -= 1
            return y, e

        rng = random.Random(17)
        values = []
        for p in range(-400, 401, 7):
            ten = F(10) ** p
            values += [ten, ten - ten / 10**40, ten + ten / 10**40, ten * 9999 / 10000,
                       ten / 3, ten * F(2, 3)]
        values += [F(rng.randint(1, 10**rng.randint(1, 60)), rng.randint(1, 10**rng.randint(1, 60)))
                   for _ in range(200)]
        values += [F(1, 2**1100), F(3**700, 2**60), F(2**1024 - 1), F(1, 10**303) * F(7, 9)]
        for v in values:
            for x in (v, -v):
                assert _decimal_normalise(x) == reference(x), x


def _isqrt_oracle(n: int, digits: int) -> tuple[F, F]:
    scale = 10 ** digits
    r = math.isqrt(n * scale * scale)
    return F(r, scale), F(r + 1, scale)


class TestConstants:
    def test_pi_against_digits(self):
        # the literal is pi truncated at 36 digits, so compare at that scale
        p = const_pi(128)
        assert abs(p.midpoint() - PI_DIGITS) < F(1, 10**34)
        assert p.radius() < F(1, 10**34)

    def test_pi_second_formula(self):
        # independent arctan decomposition: pi = 20 atan(1/7) + 8 atan(3/79)
        a7 = _atan_oracle(F(1, 7), False, 150)
        a379 = _atan_oracle(F(3, 79), False, 150)
        lo = 20 * a7[0] + 8 * a379[0]
        hi = 20 * a7[1] + 8 * a379[1]
        p = const_pi(128)
        assert lo <= p.hi_fraction() and p.lo_fraction() <= hi

    def test_log_one_is_zero(self):
        b = const_log(1, 77)
        assert b.lo == b.hi == 0

    def test_log2_against_digits(self):
        b = const_log(2, 128)
        assert abs(b.midpoint() - LOG2_DIGITS) < F(1, 10**34)

    def test_sqrt_contains_at_every_precision(self):
        # sqrt of a small n has prec + 1 or prec + 2 bits, so the outward
        # rounding to prec bits cannot make up for an upper endpoint one unit low
        for n in (2, 3, 5):
            for prec in range(10, 200):
                s = const_sqrt(n, prec)
                assert s.lo ** 2 <= n <= s.hi ** 2, (n, prec)

    def test_sqrt_examples(self):
        s = const_sqrt(2, 128)
        lo, hi = _isqrt_oracle(2, 35)
        assert lo <= s.hi_fraction() and s.lo_fraction() <= hi

    def test_radius_contract(self):
        for prec in (64, 128, 256):
            assert const_pi(prec).radius() <= F(1, 2 ** (prec - 8))
            assert const_log(F(7, 3), prec).radius() <= F(1, 2 ** (prec - 8))
            assert const_sqrt(5, prec).radius() <= F(1, 2 ** (prec - 8))

    def test_monotone_radius(self):
        for mk in (lambda p: const_pi(p), lambda p: const_log(2, p),
                   lambda p: const_sqrt(3, p)):
            assert mk(192).radius() < mk(128).radius()

    def test_refinement_containment(self):
        for mk in (lambda p: const_pi(p), lambda p: const_log(F(9, 7), p)):
            a, b = mk(96), mk(192)
            assert a.lo_fraction() <= b.hi_fraction() and b.lo_fraction() <= a.hi_fraction()

    def test_log_oracle_containment_random(self):
        """const_log(r) intersects a 50-digit exact-rational series oracle
        with explicit remainder, for random rationals in (0, 10)."""
        rng = random.Random(41)
        for _ in range(100):
            r = F(rng.randint(1, 1000), rng.randint(1, 1000))
            if not 0 < r < 10:
                continue
            lo, hi = _log_oracle(r, 50)
            b = const_log(r, 200)
            assert b.lo_fraction() <= hi and lo <= b.hi_fraction()
            assert hi - lo < F(1, 10**48)

    def test_width_contract_every_precision(self, monkeypatch):
        """Before the outward rounding to prec bits, pi and log q are
        [S - E, S + E] / 2^P of width at most 2^-(prec+8) at every precision,
        with a guard that grows with the term count, and E <= 2P + 4."""
        monkeypatch.setattr(balls, "Ball", lambda lo, hi, prec: hi - lo)
        for prec in list(range(1, 300)) + [1000, 5000]:
            for terms in ([(16, 1, 5, False), (-4, 1, 239, False)],   # pi
                          [(2, -1, 7, True), (4, 1, 3, True)],        # log 3
                          [(2, 0, 1, True), (-600, 1, 3, True)]):     # log 2^-300
                assert _fixed_sum(prec, terms) <= F(1, 2 ** (prec + 8)), (prec, terms)
        for p, q, P in ((1, 2, 1), (1, 2, 57), (1, 3, 400), (1, 5, 2000), (-1, 7, 333)):
            for hyperbolic in (False, True):
                assert _atan_fixed(p, q, P, hyperbolic)[1] <= 2 * P + 4

    def test_domain_errors(self):
        with pytest.raises(BallDomainError):
            const_log(0, 64)
        with pytest.raises(BallDomainError):
            const_log(F(-1, 2), 64)
        with pytest.raises(BallDomainError):
            const_sqrt(0, 64)


class TestFixedPointKernel:
    """_atan_fixed against exact Fraction enclosures at 8-40 bits, where one
    missing unit of error shows."""

    @staticmethod
    def check(p, q, P, hyperbolic):
        s, e = _atan_fixed(p, q, P, hyperbolic)
        lo, hi = _atan_oracle(F(p, q), hyperbolic, P + 40)
        assert F(s - e, 2**P) <= lo and hi <= F(s + e, 2**P), (p, q, P, hyperbolic)

    @pytest.mark.parametrize("u", ["1/3", "1/5", "1/7", "1/9", "1/239", "3/79", "-1/7"])
    def test_named_arguments(self, u):
        u = F(u)
        for P in range(8, 41):
            for hyperbolic in (False, True):
                self.check(u.numerator, u.denominator, P, hyperbolic)

    def test_random_arguments(self):
        rng = random.Random(29)
        for _ in range(400):
            q = rng.randint(5, 10**rng.randint(1, 12))
            p = rng.randint(-(q // 5), q // 5)
            self.check(p, q, rng.randint(8, 40), rng.random() < 0.5)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by integer Newton steps from above."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class TestQuadrature:
    """Integrands map 2^B t to 2^B f(t) as ints, B = quad_bits(dps); mpmath
    serves as an oracle only."""

    def test_linear(self):
        q = quad_integrate(lambda t: t, F(0), F(1), tol=1e-20, dps=38)
        assert abs(q.value - F(1, 2)) < F(1, 10**20)
        assert q.error_estimate <= 1e-20
        assert q.evaluations > 0

    def test_log2_crosscheck(self):
        B = balls.quad_bits(40)
        q = quad_integrate(lambda t: (1 << 2 * B) // ((1 << B) + t), F(0), F(1),
                           tol=1e-22, dps=40)
        assert abs(q.value - const_log(2, 160).midpoint()) < F(1, 10**22)

    def test_pi_crosscheck(self):
        B = balls.quad_bits(40)
        q = quad_integrate(lambda t: (4 << 2 * B) // ((1 << B) + (t * t >> B)), F(0), F(1),
                           tol=1e-22, dps=40)
        assert abs(q.value - const_pi(160).midpoint()) < F(1, 10**22)

    def test_budget_error_carries_best(self):
        # |t - 1/3|^(1/9) has an interior kink; 15 digits cannot meet 1e-30
        B = balls.quad_bits(15)
        third = (1 << B) // 3
        with pytest.raises(QuadratureError) as exc:
            quad_integrate(lambda t: _iroot(abs(t - third) << 8 * B, 9), F(0), F(1),
                           tol=1e-30, dps=15)
        assert exc.value.best is not None
        assert exc.value.best.evaluations > 0

    def test_quad_bits_are_mpmath_precision_plus_40(self):
        import mpmath
        for dps in (15, 38, 40, 60, 100):
            assert balls.quad_bits(dps) == mpmath.libmp.dps_to_prec(dps) + 40

    @pytest.mark.parametrize("P", [64, 243])
    def test_exp_kernel_against_mpmath(self, P):
        import mpmath
        points = [F(-200), F(-50), F(-3, 7), F(-1, 10**30), F(0), F(1, 10**30), F(1, 3),
                  F(5, 2), F(75), F(300)]
        rng = random.Random(31)
        points += [F(rng.randint(-300 * 10**12, 300 * 10**12), 10**rng.randint(12, 40))
                   for _ in range(40)]
        with mpmath.workprec(2 * P + 500):
            for point in points:
                x = math.floor(point * (1 << P))
                ref = mpmath.exp(mpmath.mpf(x) / 2**P) * 2**P
                got = balls._exp_fixed(x, P)
                assert abs(got - ref) <= 4 + ref / 2**P, (P, point)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_nodes_match_mpmath_calc_nodes(self, degree):
        """The nodes and weights of each level at 60 digits (prec 203) are
        mpmath's own, as many and within 2^-235; mpmath computes them at
        prec + 40 bits, with the context at prec + 20 as `quad` sets it."""
        import mpmath
        P = 243
        with mpmath.workprec(223):
            ref = mpmath.mp._tanh_sinh.calc_nodes(degree, 203)
        ours = balls._tanh_sinh_nodes(degree, 203)
        assert len(ref) == sum(2 if x else 1 for x, _ in ours)
        ref = sorted((F(*mpmath.libmp.to_rational(x._mpf_)), F(*mpmath.libmp.to_rational(w._mpf_)))
                     for x, w in ref if x >= 0)
        for (x, w), (rx, rw) in zip(sorted(ours), ref):
            assert abs(F(x, 1 << P) - rx) <= F(1, 1 << 235)
            assert abs(F(w, 1 << P) - rw) <= F(1, 1 << 235)

    @pytest.mark.parametrize("dps", [15, 30, 60])
    @pytest.mark.parametrize("name", ["log2", "sqrt", "kink"])
    def test_levels_and_estimate_match_mpmath_quad(self, dps, name):
        """Smooth, endpoint-singular and kinked integrands stop after as many
        evaluations as mpmath.quad takes, with its error estimate to within
        a factor 10 (one step of 10^int(D) between floats and mpf logs), when
        they converge and when they miss the tolerance."""
        import mpmath
        B = balls.quad_bits(dps)
        third = (1 << B) // 3
        integrand = {"log2": lambda t: (1 << 2 * B) // ((1 << B) + t),
                     "sqrt": lambda t: math.isqrt(t << B),
                     "kink": lambda t: _iroot(abs(t - third) << 8 * B, 9)}[name]
        try:
            ours = quad_integrate(integrand, F(0), F(1), tol=1.0, dps=dps)
        except QuadratureError as exc:
            ours = exc.best
        count = 0

        def f(t):
            nonlocal count
            count += 1
            return mpmath.ldexp(integrand(int(mpmath.floor(mpmath.ldexp(t, B)))), -B)

        with mpmath.workdps(dps):
            value, err = mpmath.quad(f, [0, 1], error=True)
        err = F(*mpmath.libmp.to_rational(err._mpf_))
        assert ours.evaluations == count
        assert abs(ours.value - F(*mpmath.libmp.to_rational(value._mpf_))) <= \
            10 * err + F(1, 10**dps)
        assert err / 10 <= F(ours.error_estimate) <= 10 * err


def test_rounded_rendering_matches_mpmath_nstr():
    """mpmath.nstr at 3 and 25 significant digits on the same dyadic values,
    from 1e-45 to 1e3 and of either sign.  The denominators avoid 2 and 5, so
    no value is an exact decimal tie, which mpmath rounds from a truncated
    binary expansion."""
    import mpmath
    from binom4k.balls import _fraction_rounded
    rng = random.Random(17)
    values = []
    for _ in range(3000):
        den = rng.randrange(3, 10 ** rng.randint(1, 40), 2)
        x = F(rng.randint(1, 10 ** rng.randint(1, 40)), den + 2 * (den % 5 == 0))
        if x.denominator == 1:
            continue
        x *= F(10) ** (rng.randint(-45, 3) - _decimal_normalise(x)[1])
        values.append(-x if rng.random() < 0.3 else x)
    with mpmath.workprec(300):
        for x in values:
            m = mpmath.mpf(x.numerator) / x.denominator
            for digits in (3, 25):
                got = _fraction_rounded(F(*mpmath.libmp.to_rational(m._mpf_)), digits)
                assert got == mpmath.nstr(m, digits), (x, digits)
    # the shapes the cross-checks print: a kept zero, a stripped trailing zero
    assert _fraction_rounded(F(4, 10**31), 3) == "4.0e-31"
    assert _fraction_rounded(F(912166315085864023104315, 10**24), 25) == \
        "0.912166315085864023104315"
    assert _fraction_rounded(F(0), 3) == "0.0"


@settings(max_examples=25, deadline=None)
@given(num=st.integers(-10**80, 10**80).filter(bool), den=st.integers(1, 10**80),
       scale=st.integers(-60, 60), digits=st.integers(1, 6000))
def test_fraction_decimal_matches_str_of_int(num, den, scale, digits):
    """The mantissa split by powers of 10 gives the digits str(int) gives,
    with the int-to-str limit lifted for the reference only."""
    x = F(num, den) * F(10) ** scale
    y, exp10 = _decimal_normalise(x)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        mant = str(int(y * F(10) ** (digits - 1))).rjust(digits, "0")
    finally:
        sys.set_int_max_str_digits(old)
    out = _fraction_decimal(x, digits)
    assert out.startswith("-") == (x < 0)
    assert out.lstrip("-").split("e")[0].replace(".", "").lstrip("0") == mant
    assert ("e" in out) == (not -4 <= exp10 < digits)
