"""Generating-function facts: truncated series, functional equations,
Lagrange inversion, the algebraic contexts, rigorous evaluation of f."""

import math
import random
from fractions import Fraction as F

import pytest

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
    gm_series,
    make_alpha,
    make_beta,
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

    def test_compose(self):
        # (1/(1-u)) o (x + x^2) has coefficients of sum_k (x+x^2)^k
        geom = TruncSeries([1] * 7)
        inner = TruncSeries([0, 1, 1, 0, 0, 0, 0])
        expected = TruncSeries([1])
        acc = TruncSeries([1, 0, 0, 0, 0, 0, 0])
        total = TruncSeries([0] * 7)
        for _ in range(7):
            total = total + acc
            acc = acc * inner
        assert geom.compose(inner) == total

    def test_derivative_integrate(self):
        s = TruncSeries([3, 1, 4, 1, 5])
        assert s.derivative().integrate() == TruncSeries([0, 1, 4, 1, 5])


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
        assert not r.ok and r.first_bad_order == 1

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
        ctx = make_alpha()
        lo, hi = ctx.alpha.refine(F(1, 1000))
        assert F(1473, 1000) < lo < hi < F(1475, 1000)

    def test_alpha_relation_is_exact_zero(self):
        ctx = make_alpha()
        rel = F(11, 128) * ctx.alpha_pp - F(35, 8) * ctx.alpha_p + 11 * ctx.elem + 5
        assert rel.is_zero()

    def test_beta_embedding(self):
        ctx = make_beta()
        lo, hi = ctx.field.embedding.refine(F(1, 10**6))
        assert F(984, 1000) < lo < hi < F(986, 1000)

    def test_beta_quadratic(self):
        ctx = make_beta()
        b, s2 = ctx.beta, ctx.sqrt2
        assert (14 * b * b - 7 * s2 * b - 1 - 2 * s2).is_zero()
        assert s2 * s2 == 2


class TestEvalF:
    def test_at_zero(self):
        b = eval_f(0, 20)
        assert b.lo == b.hi == 1

    def test_matches_cubic_root(self):
        ball = eval_f(F(1, 16), 33)
        lo, hi = make_alpha().alpha.refine(F(1, 10**30))
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
