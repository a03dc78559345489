"""Generating-function facts: truncated series, functional equations,
Lagrange inversion, the algebraic contexts, rigorous evaluation of f."""

import math
import random
from fractions import Fraction as F

import pytest

from binom4k import genfunc
from binom4k.exact import Poly, RatFunc, _mul_nums
from binom4k.genfunc import (
    TruncSeries,
    check_derivatives_f,
    check_f_log,
    check_gm,
    check_lagrange,
    check_log_gm,
    check_quartic_f,
    coeffs_f,
    eval_f,
    f_prime,
    f_second,
    gm_series,
    point_context,
    relation_at,
)


class TestTruncSeries:
    def test_mul_div_roundtrip(self):
        rng = random.Random(3)
        for _ in range(10):
            a = TruncSeries([F(rng.randint(-9, 9)) for _ in range(12)])
            b = TruncSeries([F(rng.randint(1, 9))] + [F(rng.randint(-9, 9)) for _ in range(11)])
            assert (a * b) / b == a

    def test_log_of_product(self):
        rng = random.Random(5)
        mk = lambda: TruncSeries([F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 3))
                                           for _ in range(10)])
        a, b = mk(), mk()
        lhs = (a * b).log()
        rhs = a.log() + b.log()
        assert lhs == rhs

    def test_pow_binary_matches_repeated(self):
        s = TruncSeries([1, 2, 3, 4, 5, 6])
        assert s ** 5 == s * s * s * s * s

    def test_derivative_integrate(self):
        s = TruncSeries([3, 1, 4, 1, 5])
        assert s.derivative().integrate() == TruncSeries([0, 1, 4, 1, 5])


def _school_mul(a, b):
    """Schoolbook Fraction product of two coefficient lists, through the
    common order."""
    n = min(len(a), len(b))
    out = [F(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += F(a[i]) * F(b[j])
    return out


def _school_div(a, b):
    """a/b through the common order by the recurrence
    q_n = (a_n - sum_{i<n} q_i b_{n-i}) / b_0."""
    n = min(len(a), len(b))
    out = []
    for k in range(n):
        out.append((F(a[k]) - sum(out[i] * b[k - i] for i in range(k))) / b[0])
    return out


def _random_coeffs(rng, n, rational=False):
    """n seeded signed coefficients of 0 to 300 bits, with runs of zeros;
    over small random denominators when `rational`."""
    out = []
    for _ in range(n):
        c = rng.choice([0, 1]) * rng.randint(-2**rng.randint(0, 300), 2**rng.randint(0, 300))
        out.append(F(c, rng.randint(1, 10**rng.randint(0, 12))) if rational else c)
    return out


class TestKernel:
    """The integer kernel of TruncSeries against Fraction references."""

    def test_random_products_match_schoolbook(self):
        rng = random.Random(8)
        for _ in range(60):
            n, m = rng.randint(1, 40), rng.randint(1, 40)
            a = _random_coeffs(rng, n, rational=rng.random() < 0.5)
            b = _random_coeffs(rng, m, rational=rng.random() < 0.5)
            prod = TruncSeries(a) * TruncSeries(b)
            assert prod.order == min(n, m) - 1
            assert list(prod.coeffs) == _school_mul(a, b)

    def test_zero_runs(self):
        a = [F(3, 7)] + [0] * 30 + [-(2**250)] + [0] * 20 + [F(1, 9)]
        b = [0] * 25 + [2**200 + 1] + [0] * 27
        for x, y in ((a, b), (b, a), (a, a), (b, b), (a, [0] * 53), ([0], [0])):
            assert list((TruncSeries(x) * TruncSeries(y)).coeffs) == _school_mul(x, y)
        zero = TruncSeries([0] * 12)
        assert zero.is_zero() and zero.first_nonzero() is None
        assert (zero * TruncSeries(a)).is_zero() and zero.den == 1
        assert TruncSeries(b).first_nonzero() == 25

    def test_order_zero(self):
        a, b = TruncSeries([F(-3, 4)]), TruncSeries([F(5, 6)])
        assert (a * b).coeffs == (F(-5, 8),)
        assert (a / b).coeffs == (F(-9, 10),)
        assert a.derivative() == TruncSeries([0])
        assert a.integrate() == TruncSeries([0, F(-3, 4)])
        assert TruncSeries([1]).log() == TruncSeries([0])

    def test_common_order_truncates(self):
        rng = random.Random(9)
        long = _random_coeffs(rng, 30, rational=True)
        short = [F(7, 3)] + _random_coeffs(rng, 5, rational=True)
        for x, y in ((long, short), (short, long)):
            assert list((TruncSeries(x) * TruncSeries(y)).coeffs) == _school_mul(x, y)
            assert list((TruncSeries(x) + TruncSeries(y)).coeffs) == [
                F(u) + F(v) for u, v in zip(x, y)]
        assert list((TruncSeries(long) / TruncSeries(short)).coeffs) == _school_div(long, short)

    def test_products_at_the_slot_edge(self):
        """Coefficients of the largest magnitude of their bit length, whose
        product coefficient n (2^p - 1)(2^q - 1) (n terms) sits just under
        the top of the slot the kernel sizes for it, in either sign; and
        powers of two, the least magnitude of their bit length."""
        for p, q, r in ((1, 1, 1), (7, 9, 3), (64, 1, 5), (300, 299, 6)):
            M, N, n = 2**p - 1, 2**q - 1, 2**r - 1
            for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                for a, b in (([sa * M] * n, [sb * N] * n),
                             ([sa * (-1)**i * M for i in range(n)], [sb * (-1)**i * N for i in range(n)]),
                             ([sa * 2**p] * n, [sb * 2**q] * n)):
                    got = _mul_nums(a, b, n)
                    assert got == _school_mul(a, b), (p, q, r, sa, sb)
                    assert all(isinstance(c, int) for c in got)
                    assert (TruncSeries(a) * TruncSeries(b)).coeffs == tuple(_school_mul(a, b))

    def test_division_matches_recurrence_and_roundtrips(self):
        rng = random.Random(10)
        for _ in range(25):
            n = rng.randint(1, 34)
            a = _random_coeffs(rng, n, rational=True)
            b = [F(rng.choice([-1, 1]) * rng.randint(1, 2**rng.randint(0, 80)), rng.randint(1, 99))]
            b += _random_coeffs(rng, n - 1, rational=True)
            q = TruncSeries(a) / TruncSeries(b)
            assert list(q.coeffs) == _school_div(a, b)
            assert q * TruncSeries(b) == TruncSeries(a)
        with pytest.raises(ZeroDivisionError):
            TruncSeries([1, 2]) / TruncSeries([0, 1])

    def test_canonical_form(self):
        a, b = TruncSeries([F(1, 2), F(1, 3)]), TruncSeries([F(3, 6), F(2, 6)])
        assert a == b and hash(a) == hash(b)
        rng = random.Random(11)
        s = TruncSeries(_random_coeffs(rng, 20, rational=True))
        t = TruncSeries([F(5, 3)] + _random_coeffs(rng, 19, rational=True))
        for u in (s * t / t, s * 12 / 12, (s + t) - t, -(-s), s * F(1, 3) * 3,
                  s.integrate().derivative()):
            assert u == s and hash(u) == hash(s)
            assert u.den > 0 and math.gcd(u.den, *u.nums) == 1
        assert TruncSeries([4, 6]).nums == (4, 6) and (TruncSeries([4, 6]) / 2).nums == (2, 3)
        assert s != s.truncate(18) and TruncSeries([1, 0]) != TruncSeries([1])


class TestExactTypes:
    """Poly coefficients are ints or Fractions, TruncSeries
    coefficients ints or Fractions, and a RatFunc is a pair of Polys over Q."""

    def test_poly_rejects_float(self):
        with pytest.raises(TypeError):
            Poly([0.5, 1])

    def test_truncseries_rejects_float(self):
        with pytest.raises(TypeError):
            TruncSeries([0.1])
        with pytest.raises(TypeError):
            TruncSeries([1, 2]) * 0.5

    def test_ratfunc_rejects_float(self):
        with pytest.raises(TypeError):
            RatFunc(Poly([1, 0.1]), Poly([0.1, 1]))
        with pytest.raises(TypeError):
            RatFunc(0.5)


class TestPerturbed:
    """A coefficient of f or G_m changed at order 37 of 64 by a tiny
    rational shows as the first bad order of every check that reads it."""

    TINY = F(1, 10**40)

    def _bump(self, s):
        cs = list(s.coeffs)
        cs[37] += self.TINY
        return TruncSeries(cs)

    def test_quartic(self):
        r = check_quartic_f(64, f=self._bump(coeffs_f(64)))
        assert not r.ok and r.witness == "first nonzero order 37"

    def test_f_log(self, monkeypatch):
        monkeypatch.setattr(genfunc, "coeffs_f", lambda K: self._bump(coeffs_f(K)))
        r = check_f_log(64)
        assert not r.ok and r.witness == "first nonzero order 37"

    def test_gm_and_lagrange(self, monkeypatch):
        monkeypatch.setattr(genfunc, "gm_series", lambda m, K: self._bump(gm_series(m, K)))
        for m in range(1, 6):
            r = check_gm(m, 64)
            assert not r.ok and r.witness == "first nonzero order 37", m
            for n in range(1, 5):
                r = check_lagrange(m, n, 64)
                assert not r.ok and r.witness == "first nonzero order 37", (m, n)


class TestCoefficients:
    def test_f_order0(self):
        assert coeffs_f(0).coeffs == (F(1),)

    def test_f_first_orders(self):
        # factorial oracle
        expected = [math.factorial(4 * k) // (math.factorial(k) * math.factorial(3 * k))
                    for k in range(5)]
        assert list(coeffs_f(4).coeffs) == expected == [1, 4, 28, 220, 1820]

    def test_ratio_oracle(self):
        # product-form ratio at k=2: (4k+1)(4k+2)(4k+3)(4k+4)/((k+1)(3k+1)(3k+2)(3k+3))
        f = coeffs_f(4)
        k = 2
        ratio = F((4 * k + 1) * (4 * k + 2) * (4 * k + 3) * (4 * k + 4),
                  (k + 1) * (3 * k + 1) * (3 * k + 2) * (3 * k + 3))
        assert f[3] / f[2] == ratio == F(55, 7)


class TestFunctionalEquations:
    def test_quartic_order1_by_hand(self):
        # 27*16 - 18*8 - 8*4 - 256 = 0 at order x
        assert 27 * 16 - 18 * 8 - 8 * 4 - 256 == 0
        assert check_quartic_f(1).ok

    def test_quartic_deep(self):
        assert check_quartic_f(64).ok

    def test_quartic_perturbed_fails(self):
        r = check_quartic_f(1, f=TruncSeries([1, 5]))
        assert not r.ok and r.witness == "first nonzero order 1"

    def test_g1_is_geometric(self):
        assert gm_series(1, 8).coeffs == tuple(F(1) for _ in range(9))
        assert check_gm(1, 8).ok

    def test_g2_catalan(self):
        # Catalan recurrence oracle: c_{n+1} = sum c_i c_{n-i}
        cat = [F(1)]
        for n in range(11):
            cat.append(sum(cat[i] * cat[n - i] for i in range(n + 1)))
        assert gm_series(2, 11).coeffs == tuple(cat)
        assert check_gm(2, 12).ok

    def test_gm_log_suite(self):
        for m in range(1, 6):
            assert check_gm(m, 64).ok
            assert check_log_gm(m, 64).ok

    def test_f_log(self):
        assert check_f_log(12).ok
        assert check_f_log(64).ok

    def test_derivative_order0_by_hand(self):
        f = coeffs_f(3)
        assert f.derivative()[0] == 4        # f'(0) = 4 = 64/16
        assert f.derivative().derivative()[0] == 56  # 2*28 = 4096*14/1024
        assert check_derivatives_f(48).ok


class TestLagrange:
    def test_k1_cases(self):
        assert check_lagrange(4, 1, 1).ok
        assert check_lagrange(4, 2, 1).ok

    def test_full_grid(self):
        for m in range(1, 6):
            for n in range(1, 5):
                assert check_lagrange(m, n, 32).ok, (m, n)


class TestContexts:
    def test_alpha_interval(self):
        ctx = point_context(F(1, 16))
        lo, hi = ctx.field.embedding.refine(F(1, 1000))
        assert F(1473, 1000) < lo < hi < F(1475, 1000)

    def test_alpha_relation_is_exact_zero(self):
        a = point_context(F(1, 16)).gamma
        rel = F(11, 128) * f_second(a) - F(35, 8) * f_prime(a) + 11 * a + 5
        assert rel.is_zero()

    def test_beta_embedding(self):
        ctx = point_context(F(-1, 256), 2)
        lo, hi = ctx.field.embedding.refine(F(1, 10**6))
        assert F(984, 1000) < lo < hi < F(986, 1000)

    def test_beta_quadratic(self):
        ctx = point_context(F(-1, 256), 2)
        b, s2 = ctx.gamma, ctx.sqrt_d
        assert (14 * b * b - 7 * s2 * b - 1 - 2 * s2).is_zero()
        assert s2 * s2 == 2

    def test_alpha_cubic_is_the_relation_without_its_root(self):
        assert genfunc.ALPHA_CUBIC == Poly([-1, -7, -11, 11])
        assert genfunc.ALPHA_CUBIC * Poly([1, 1]) == relation_at(F(1, 16))
        assert relation_at(F(-1, 256)) == Poly([-1, -8, -18, 0, 28])

    def test_rational_roots_are_divided_out(self):
        ctx = point_context(F(1, 16))
        assert ctx.field.modulus == genfunc.ALPHA_CUBIC.monic() and ctx.sqrt_d is None
        assert point_context(F(-1, 256)).field.degree == 4

    def test_rational_value_gives_the_rational_field(self):
        """Where f(x0) is rational the field is Q: f(12167/331776) = 6/5 is a
        simple root, f(0) = 1 a simple root beside the triple root -1/3."""
        ctx = point_context(F(12167, 331776))
        assert ctx.gamma == F(6, 5) and ctx.field.modulus == Poly([F(-6, 5), 1])
        assert relation_at(0) == Poly([-1, 1]) * Poly([1, 3]) ** 3
        assert point_context(0).gamma == 1

    def test_quartic_check_reads_the_relation(self, monkeypatch):
        assert check_quartic_f(20).ok
        monkeypatch.setattr(genfunc, "F_RELATION", ((-1, 0), (-8, 0), (-18, 0), (0, 0), (27, -255)))
        assert check_quartic_f(20).witness == "first nonzero order 1"


class TestEvalF:
    def test_at_zero(self):
        b = eval_f(0, 20)
        assert b.lo == b.hi == 1

    def test_matches_cubic_root(self):
        ball = eval_f(F(1, 16), 33)
        lo, hi = point_context(F(1, 16)).field.embedding.refine(F(1, 10**30))
        assert lo <= ball.lo_fraction() and ball.hi_fraction() <= hi

    def test_beta_range(self):
        b = eval_f(F(-1, 256), 25)
        assert F(984, 1000) < b.lo_fraction() < b.hi_fraction() < F(986, 1000)

    def test_domain(self):
        with pytest.raises(ValueError):
            eval_f(F(27, 256), 10)

    def test_quartic_containment_property(self):
        rng = random.Random(71)
        for _ in range(6):
            x = F(rng.randint(-26, 26), 256)
            b = eval_f(x, 20)
            b2 = b * b
            b4 = b2 * b2
            resid = 27 * b4 - 18 * b2 - 8 * b - 1 - 256 * x * b4
            assert resid.contains_zero()
