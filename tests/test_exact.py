"""Exact kernel: polynomials, root counting, number fields and their roots."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from binom4k.balls import Ball
from binom4k.exact import (
    NFElem,
    NumberField,
    Poly,
    RatFunc,
    ZeroDivisorError,
    count_roots,
)

ALPHA_CUBIC = Poly([-1, -7, -11, 11])


def _long_division(a, b):
    """Independent long-division oracle on coefficient lists."""
    r = list(a)
    q = [F(0)] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        f = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = f
        for i, c in enumerate(b):
            r[i + d] -= f * c
        r.pop()
    return q, r


class TestPolySuite:
    def test_difference_of_squares(self):
        assert Poly([1, 1]) * Poly([-1, 1]) == Poly([-1, 0, 1])

    def test_derivative_oracle(self):
        # derivative of (81y^3 - 54y^2 - 243y + 216)/2, term-by-term oracle
        p = Poly([216, -243, -54, 81]).scale(F(1, 2))
        expected = Poly([F(c * i, 2) for i, c in enumerate([216, -243, -54, 81])][1:])
        assert p.derivative() == expected
        assert p.derivative() == Poly([F(-243, 2), -54, F(243, 2)])

    def test_divrem_oracle(self):
        a, b = Poly([0, 0, 0, 1]), ALPHA_CUBIC
        q, r = a.divrem(b)
        qo, ro = _long_division([F(0), F(0), F(0), F(1)], [F(-1), F(-7), F(-11), F(11)])
        assert q == Poly(qo) and r == Poly(ro)
        assert q == Poly([F(1, 11)])
        assert r == Poly([F(1, 11), F(7, 11), 1])
        assert q * b + r == a

    def test_divrem_property(self):
        rng = random.Random(7)
        for _ in range(40):
            a = Poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 7))])
            b = Poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))])
            if b.is_zero():
                continue
            q, r = a.divrem(b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisorError):
            Poly([1, 2]).divrem(Poly())

    def test_rational_field_axioms(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = (F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    def test_gcd_divisibility_property(self):
        rng = random.Random(13)
        for _ in range(25):
            mk = lambda d: Poly([F(rng.randint(-5, 5)) for _ in range(d + 1)])
            g = mk(rng.randint(1, 3))
            if g.is_zero():
                continue
            a, b = mk(rng.randint(0, 4)), mk(rng.randint(0, 4))
            if a.is_zero() or b.is_zero():
                continue
            got = (a * g).gcd(b * g)
            _, rem = got.divrem(g.monic())
            assert rem.is_zero()  # gcd(ag, bg) divisible by g

    def test_gcd_matches_fraction_euclid(self):
        """The integer primitive gcd equals the monic gcd of the Fraction
        Euclid loop, kept here as the reference."""
        def reference(a, b):
            while not b.is_zero():
                a, b = b, a % b
            return a.monic() if not a.is_zero() else a

        rng = random.Random(41)

        def coeff():
            kind = rng.random()
            if kind < 0.1:
                return F(rng.randint(-10**40, 10**40), rng.randint(1, 10**35))
            if kind < 0.2:
                return F(rng.randint(-10**33, 10**33))
            return F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 12]))

        def poly(d):
            cs = [coeff() for _ in range(d + 1)]
            if d >= 0 and cs[-1] == 0:
                cs[-1] = F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4]))
            return Poly(cs)

        pairs = [(Poly(), Poly()), (Poly(), Poly([3])), (Poly([F(-2, 3)]), Poly()),
                 (Poly([5]), Poly([F(1, 7)])), (Poly([0, 1]), Poly()), (Poly(), Poly([1, 2, -3]))]
        for _ in range(1200):
            g = poly(rng.randint(0, 3))
            a, b = poly(rng.randint(-1, 4)), poly(rng.randint(-1, 4))
            pairs.append((a * g, b * g) if rng.random() < 0.7 else (a, b))
        for a, b in pairs:
            got = a.gcd(b)
            assert got.coeffs == reference(a, b).coeffs, (a, b)
            assert got == b.gcd(a)

    def test_exact_division_test(self):
        assert Poly([-1, 0, 1]).divrem(Poly([1, 1]))[1].is_zero()
        assert not Poly([1, 0, 1]).divrem(Poly([1, 1]))[1].is_zero()

    def test_pow_and_compose(self):
        p = Poly([1, 1])
        assert p ** 3 == Poly([1, 3, 3, 1])
        assert Poly([0, 0, 1]).compose(Poly([1, 1])) == Poly([1, 2, 1])


class TestSturm:
    def test_sqrt2_on_positive_axis(self):
        p = Poly([-2, 0, 1])
        assert count_roots(p, F(0), F(3)) == 1
        assert count_roots(p, F(1), F(2)) == 1
        assert count_roots(p, F(-3), F(3)) == 2

    def test_cubic_on_positive_axis(self):
        # sign-evaluation oracle: p(1) = -8, p(2) = 29, single sign change
        p = ALPHA_CUBIC
        assert p(F(1)) == -8 and p(F(2)) == 29
        assert count_roots(p, F(0), F(100)) == 1
        assert count_roots(p, F(1), F(2)) == 1

    def test_no_real_roots(self):
        assert count_roots(Poly([1, 0, 1]), F(-100), F(100)) == 0

    def test_count_matches_bruteforce_grid(self):
        """Sturm count vs sign-change count on a fine grid (brute-force oracle),
        for products of distinct linear factors with roots in (-10, 10)."""
        rng = random.Random(17)
        for _ in range(25):
            roots = sorted(rng.sample(range(-9, 10), rng.randint(1, 4)))
            p = Poly([1])
            for r in roots:
                p = p * Poly([-r, 1])
            grid_changes = 0
            prev = None
            for i in range(-1001, 1002):
                v = p(F(i, 100) + F(1, 997))  # offset avoids exact roots
                s = (v > 0) - (v < 0)
                if prev is not None and s != prev:
                    grid_changes += 1
                prev = s
            assert count_roots(p, F(-10), F(10)) == len(roots) == grid_changes
            for r in roots:
                assert count_roots(p, r - F(1, 2), r + F(1, 2)) == 1
                # open interval: a root at either endpoint is not counted
                assert count_roots(p, F(r), F(r) + F(1, 2)) == 0
                assert count_roots(p, F(r) - F(1, 2), F(r)) == 0


class TestAlgebraicReal:
    """The field's root gamma: an algebraic real held by the squarefree
    modulus and its isolating interval."""

    def test_sqrt2_refine(self):
        a = NumberField(Poly([-2, 0, 1]), (F(1), F(2)))
        lo, hi = a.refine(F(1, 1000))
        assert hi - lo <= F(1, 1000)
        assert a.modulus(lo) < 0 < a.modulus(hi)  # still brackets the root
        lo, hi = a.refine(F(1, 10**6))
        assert F(1414, 1000) < lo < hi < F(1415, 1000)

    def test_alpha_refine(self):
        a = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        lo, hi = a.refine(F(1, 1000))
        assert F(1473, 1000) < lo < hi < F(1475, 1000)

    def test_exact_root_collapses(self):
        a = NumberField(Poly([-3, 1]), (F(2), F(4)))
        assert a.refine(F(1, 10)) == (F(3), F(3))

    def test_nested_refinement(self):
        a = NumberField(Poly([-2, 0, 1]), (F(1), F(2)))
        outer = a.refine(F(1, 10))
        inner = NumberField(a.modulus, outer).refine(F(1, 10**6))
        assert outer[0] <= inner[0] <= inner[1] <= outer[1]

    def test_refine_is_the_first_narrow_bracket(self):
        """Down to 1e-60, refine(w) is the first of brackets() no wider than
        w; each bracket nests in the one before and halves it, and a root at
        a bisection point or at an endpoint ends the sequence on that point."""
        from binom4k.proofs import alpha_context, beta_context, cbrt2_field

        fields = {
            "alpha": alpha_context().field,
            "beta": beta_context().field,
            "cbrt2": cbrt2_field(),
            "sqrt2": NumberField(Poly([-2, 0, 1]), (F(1), F(2))),
            "rational": NumberField(Poly([-3, 8]), (F(0), F(1))),   # 3/8: a bisection point
            "endpoint-lo": NumberField(Poly([-1, 0, 1]), (F(1), F(2))),
            "endpoint-hi": NumberField(Poly([-4, 0, 1]), (F(1), F(2))),
        }
        widths = sorted({F(1, 16**i) for i in range(51)} | {F(1, 10**i) for i in range(61)}
                        | {F(3, 7 * 10**i) for i in range(0, 60, 7)}, reverse=True)
        for name, K in fields.items():
            seq = []
            for lo, hi in K.brackets():
                seq.append((lo, hi))
                if hi - lo < widths[-1]:
                    break
            for (lo0, hi0), (lo1, hi1) in zip(seq, seq[1:]):
                assert lo0 <= lo1 <= hi1 <= hi0, name
                assert hi1 - lo1 in (0, (hi0 - lo0) / 2), name
            for w in widths:
                assert K.refine(w) == next(b for b in seq if b[1] - b[0] <= w), (name, w)
            if name == "rational":
                assert seq[-1] == (F(3, 8), F(3, 8))
            if name.startswith("endpoint"):
                assert len(seq) == 1 and seq[0][0] == seq[0][1] in (K.lo, K.hi)
            else:
                assert seq[0] == (K.lo, K.hi)

    def test_refine_rejects_a_width_that_is_not_positive(self):
        a = NumberField(Poly([-2, 0, 1]), (F(1), F(2)))
        for w in (F(0), F(-1, 100)):
            with pytest.raises(ValueError, match="positive"):
                a.refine(w)

    def test_rejects_multi_root_interval(self):
        """An interval must hold exactly one root: endpoints of one sign (round
        no root, or round both square roots of 2) do not bracket, and
        endpoints that bracket may hold two roots (one at an endpoint) or
        three.  A root of the modulus counts once however often it divides it."""
        for p, iv, message in (
                (Poly([-2, 0, 1]), (F(2), F(3)), "do not bracket"),
                (Poly([-2, 0, 1]), (F(-2), F(2)), "do not bracket"),
                (Poly([-1, 0, 1]), (F(-1), F(2)), "contains 2 roots"),
                (Poly([0, 2, -3, 1]), (F(-1, 2), F(5, 2)), "contains 3 roots"),
                (Poly([-2, 0, 1]), (F(2), F(1)), "empty")):
            with pytest.raises(ValueError, match=message):
                NumberField(p, iv)
        K = NumberField(Poly([-1, 1]) ** 3 * Poly([2, 1]), (F(0), F(2)))
        assert K.modulus == Poly([-2, 1, 1]) and K.gen() == 1

    def test_a_root_at_an_endpoint_is_decided_there(self):
        """gamma at lo or at hi: the element t - gamma is zero, its sign is 0,
        and t - gamma + 1 has sign 1."""
        for p, iv, root in ((Poly([-1, 0, 1]), (F(1), F(2)), 1),
                            (Poly([-4, 0, 1]), (F(1), F(2)), 2)):
            t = NumberField(p, iv).gen()
            assert t == root and (t - root).sign() == 0 and (t - root + 1).sign() == 1


class TestNumberField:
    def test_defining_relation(self):
        K = NumberField(Poly([-2, 0, 0, 1]), (F(1), F(2)))
        t = K.gen()
        assert t * (t * t) == 2

    def test_alpha_cube_reduction(self):
        K = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        a = K.gen()
        assert a ** 3 == NFElem(K, Poly([F(1, 11), F(7, 11), 1]))

    def test_power_identity(self):
        # consequence of (3a+1)^3 (a-1) = 16 a^4, raised to the fifth power
        K = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        a = K.gen()
        assert ((3 * a + 1) ** 3 * (a - 1) - 16 * a ** 4).is_zero()
        assert ((3 * a + 1) ** 15 * (a - 1) ** 5 - 16 ** 5 * a ** 20).is_zero()

    def test_nf_reduce_is_ring_homomorphism(self):
        K = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        rng = random.Random(23)
        for _ in range(20):
            p = Poly([F(rng.randint(-9, 9)) for _ in range(6)])
            q = Poly([F(rng.randint(-9, 9)) for _ in range(6)])
            assert NFElem(K, p * q) == NFElem(K, p) * NFElem(K, q)
            assert NFElem(K, p + q) == NFElem(K, p) + NFElem(K, q)

    def test_inverse(self):
        K = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        a = K.gen()
        x = 3 * a ** 2 - a + 7
        assert x * x.inverse() == 1
        with pytest.raises(ZeroDivisorError):
            K.const(F(0)).inverse()

    def test_embedding_sign_and_interval(self):
        K = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        a = K.gen()
        lo, hi = (a * a - 2).embedding_interval(F(1, 10**9))
        assert lo > 0  # alpha^2 > 2 since alpha > 1.47
        assert (a - 2).sign() == -1

    def test_sign_of_an_element_smaller_than_any_checkpoint(self):
        """gamma - m, m the midpoint of a 1e-40 bracket of gamma = f(1/16), is
        below 1e-40 in size; its sign is read off a 1e-60 bracket."""
        from binom4k.proofs import alpha_context

        gamma = alpha_context()
        lo, hi = gamma.field.refine(F(1, 10**40))
        m = (lo + hi) / 2
        lo, hi = gamma.field.refine(F(1, 10**60))
        assert not lo <= m <= hi
        assert (gamma - m).sign() == (1 if m < lo else -1)
        assert (m - gamma).sign() == (-1 if m < lo else 1)

    def test_embedding_interval_rejects_a_width_that_is_not_positive(self):
        a = NumberField(ALPHA_CUBIC, (F(1), F(2))).gen()
        with pytest.raises(ValueError, match="positive"):
            a.embedding_interval(F(0))

    def test_reducible_modulus_accepted(self):
        """t^2 - 1 has the root 1 in (1/2, 2): the field is Q at that root."""
        K = NumberField(Poly([-1, 0, 1]), (F(1, 2), F(2)))
        assert K.degree == 2 and K.gen() == 1 and K.gen() != -1

    def test_elements_are_unhashable(self):
        """Equality is decided at the root, so no hash can agree with it; a
        rational element still equals its Fraction, and a Poly takes no
        field coefficients."""
        K = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        assert K.one() == 1 and 1 == K.one()
        pytest.raises(TypeError, hash, K.one())
        pytest.raises(TypeError, hash, K.gen())
        with pytest.raises(TypeError):
            Poly([1, K.one()])


# Q[t]/((t + 1) ALPHA_CUBIC) at alpha = f(1/16), the root of ALPHA_CUBIC in (1, 2)
_T_PLUS_1 = Poly([1, 1])


def _split_field():
    return NumberField(_T_PLUS_1 * ALPHA_CUBIC, (F(1), F(2)))


class TestReducibleModulus:
    """Dynamic evaluation: a modulus with the root alpha and the root -1."""

    def test_zero_at_the_root_though_not_at_another(self):
        K = _split_field()
        X = NFElem(K, ALPHA_CUBIC)
        assert not X.rep.is_zero() and X.rep(-1) != 0
        assert X.is_zero() and X == 0 and X.sign() == 0
        assert X + K.gen() == K.gen()

    def test_a_zero_divisor_at_the_root_raises(self):
        K = _split_field()
        for rep in (ALPHA_CUBIC, ALPHA_CUBIC * Poly([2, 0, 1]), Poly()):
            with pytest.raises(ZeroDivisorError):
                NFElem(K, rep).inverse()
        with pytest.raises(ZeroDivisorError):
            K.one() / NFElem(K, ALPHA_CUBIC)

    def test_a_factor_shared_away_from_the_root_inverts(self):
        """t + 1 and (t + 1)(t - 3) divide by the modulus's factor t + 1, zero
        at -1 only: each inverts modulo ALPHA_CUBIC."""
        K = _split_field()
        a = K.gen()
        for X in (a + 1, (a + 1) * (a - 3)):
            inv = X.inverse()
            assert X * inv == 1 and not (X * inv - 1).rep.is_zero()
        c = NumberField(ALPHA_CUBIC, (F(1), F(2))).gen()
        assert (a + 1).inverse() == NFElem(K, (c + 1).inverse().rep)

    def test_a_check_on_an_element_nonzero_at_the_root_fails(self):
        """zero_check on t + 1, which vanishes at -1 but not at alpha, fails
        with the element as its witness."""
        from binom4k.genfunc import zero_check

        X = _split_field().gen() + 1
        outcome = zero_check(X)
        assert not outcome.ok and outcome.witness == "NFElem(t + 1)"
        assert X.sign() == 1 and X != 0

    def test_agrees_with_the_reference_modulo_alpha_cubic(self):
        """Seeded small-integer reps, some multiples of t + 1 or of
        ALPHA_CUBIC: equality is agreement modulo ALPHA_CUBIC, the sign is that
        of the enclosure, and a quotient times its divisor is the dividend."""
        K, rng = _split_field(), random.Random(32)

        def draw():
            rep = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
            return NFElem(K, rep * rng.choice((Poly([1]), _T_PLUS_1, ALPHA_CUBIC)))

        for _ in range(40):
            X, Y = draw(), draw()
            assert (X == Y) == ((X.rep - Y.rep) % ALPHA_CUBIC).is_zero()
            s = Y.sign()
            lo, hi = Y.embedding_interval(F(1, 10**40))
            assert (lo <= 0 <= hi) if s == 0 else (lo * s > 0 and hi * s > 0)
            if s:
                assert (X / Y) * Y == X


class TestRatFunc:
    def test_cancellation(self):
        y = RatFunc(Poly([0, 1]))
        assert (y ** 2 - 1) / (y - 1) == y + 1

    def test_constant_equals_its_fraction_and_is_unhashable(self):
        assert RatFunc(Poly([1])) == 1 and RatFunc(Poly([F(1, 2)])) == F(1, 2)
        pytest.raises(TypeError, hash, RatFunc(Poly([1])))
        pytest.raises(TypeError, hash, RatFunc(Poly([F(1, 2)])))

    def test_equality_is_cross_multiplication(self):
        """A common factor is kept in both parts, yet the value equals the
        one without it, and their difference is zero."""
        p, q, g = Poly([F(1, 2), -3, 1]), Poly([2, 0, F(5, 7)]), Poly([-1, 4, 1])
        a, b = RatFunc(p * g, q * g), RatFunc(p, q)
        assert (a.num, a.den) == (p * g, ((q * g, 1),))
        assert a == b and b == a and (a - b).is_zero()
        assert a != RatFunc(p, q * g) and not (a - RatFunc(q, p)).is_zero()

    def test_derivative(self):
        y = RatFunc(Poly([0, 1]))
        assert (1 / y).derivative() == -1 / y ** 2

    def test_zero_divisor(self):
        y = RatFunc(Poly([0, 1]))
        with pytest.raises(ZeroDivisorError):
            y / (y - y)

    def test_only_polynomials_over_q(self):
        K = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        with pytest.raises(TypeError):
            RatFunc(Poly([K.gen()]))
        with pytest.raises(TypeError):
            RatFunc(Poly([1]), Poly([K.gen(), 1]))
        with pytest.raises(TypeError):
            Poly([RatFunc(Poly([0, 1]))])

    def test_poly_times_ratfunc_is_the_ratfunc_product(self):
        y = RatFunc(Poly([0, 1]))
        got = Poly([1, 1]) * y
        assert isinstance(got, RatFunc)
        assert got == RatFunc(Poly([1, 1])) * y == y * Poly([1, 1])
        assert got.num == Poly([0, 1, 1]) and got.den == ()

    def test_field_ops_random(self):
        rng = random.Random(31)
        y = RatFunc(Poly([0, 1]))
        for _ in range(15):
            a = RatFunc(Poly([rng.randint(-4, 4) for _ in range(3)]),
                        Poly([rng.randint(-4, 4) for _ in range(2)] + [1]))
            b = RatFunc(Poly([rng.randint(-4, 4) for _ in range(2)] + [1]))
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a / b) * b == a

    def test_pairs_are_merged_and_constants_taken_into_the_numerator(self):
        f, g = Poly([1, -1]), Poly([1, 2, 3])
        v = RatFunc(Poly([3]), [(f, 2), (Poly([2]), 1), (g, -1), (Poly([1, -1]), -2)])
        assert v.num == Poly([F(3, 2)]) and v.den == ((g, -1),)
        assert RatFunc(Poly([1]), Poly([4])).num == Poly([F(1, 4)])
        with pytest.raises(ZeroDivisorError):
            RatFunc(Poly([1]), [(f, 1), (Poly(), 2)])
        with pytest.raises(TypeError):
            RatFunc(Poly([1]), [(1, 1)])

    def test_a_factor_equals_its_expansion(self):
        """(1 - z)^2 held as a factor and the same polynomial expanded, below
        and above the fraction bar."""
        f = Poly([1, -1])
        for e in (2, -2):
            held = RatFunc(Poly([1]), [(f, e)])
            expanded = RatFunc(Poly([1]), [(f * f, e // 2)])
            assert held == expanded and (held - expanded).is_zero()
            assert held.den != expanded.den
        assert RatFunc(Poly([1]), [(f, -2)]) == RatFunc(f * f)
        assert RatFunc(Poly([3]), [(f, 2)]) != RatFunc(Poly([3]), f)

    def test_derivative_is_the_quotient_rule(self):
        """Over seeded random values with repeated factors and negative
        exponents: the derivative equals (N'D - N D')/D^2 of the expanded
        N/D, and each exponent e of the result's denominator is e + 1."""
        rng = random.Random(41)
        for _ in range(25):
            pairs = [(Poly([rng.randint(-4, 4) or 1 for _ in range(rng.randint(2, 3))]),
                      rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(rng.randint(1, 3))]
            v = RatFunc(Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]), pairs)
            N = v.num * math.prod((f ** -e for f, e in v.den if e < 0), start=Poly([1]))
            D = math.prod((f ** e for f, e in v.den if e > 0), start=Poly([1]))
            d = v.derivative()
            assert d == RatFunc(N.derivative() * D - N * D.derivative(), D * D)
            assert d.den == tuple((f, e + 1) for f, e in v.den if e != -1)

    def test_compose(self):
        """v(p(y)) factor by factor: the value of v at p(t) for rational t,
        and the same value as `__call__` on the polynomial as a RatFunc."""
        f, g = Poly([1, -1]), Poly([2, 0, 1])
        v = RatFunc(Poly([F(1, 3), 2, -1]), [(f, 2), (g, -1)])
        p = Poly([-1, 1, F(1, 2)])
        w = v.compose(p)
        assert w.den == ((f.compose(p), 2), (g.compose(p), -1))
        assert w == v(RatFunc(p))
        for t in (F(0), F(3), F(-5, 7)):
            assert w(t) == v(p(t))
        assert v.compose(Poly([3])) == v(3) and v.compose(Poly([3])).den == ()
        with pytest.raises(ZeroDivisorError):
            v.compose(Poly([1]))

    def test_evaluation_at_a_factor_zero_raises(self):
        f = Poly([1, -1])
        v = RatFunc(Poly([1, 1]), [(f, 2), (Poly([1, 1]), -1)])
        assert v(F(1, 2)) == F(3, 2) * F(3, 2) / F(1, 4)
        with pytest.raises(ZeroDivisorError):
            v(1)
        K = NumberField(ALPHA_CUBIC, (F(1), F(2)))
        with pytest.raises(ZeroDivisorError):
            RatFunc(Poly([1]), ALPHA_CUBIC)(K.gen())
        assert RatFunc(Poly([1]), [(f, -1)])(1) == 0
        assert v(-1) == 0


def _ball_or_value(v):
    return (v.lo, v.hi) if isinstance(v, Ball) else v


_K = NumberField(ALPHA_CUBIC, (F(1), F(2)))


@pytest.mark.parametrize("a, b, field", [
    (Poly([1, 2, F(1, 3)]), Poly([F(-3, 2)]), False),
    (3 * _K.gen() ** 2 - _K.gen() + 7, _K.gen() + 2, True),
    (RatFunc(Poly([1, 0, 1]), Poly([-3, 1])), RatFunc(Poly([2, 1]), Poly([1, 0, 1])), True),
    (RatFunc(Poly([3, -12]), [(Poly([1, -1]), 2), (Poly([1, -4]), -1)]),
     RatFunc(Poly([2, -2]), [(Poly([1, -4]), 1), (Poly([1, -1]), 3)]), True),
    (Ball(F(1, 2), 2, 64), Ball(-4, F(-1, 4), 64), True),
], ids=["Poly", "NFElem", "RatFunc", "RatFunc-factored", "Ball"])
def test_derived_operators(a, b, field):
    """-, /, ** and the reflected operators that `exact.Value` derives agree
    with +, unary -, * and inverse() (a Ball compared by its endpoints, its
    samples dyadic so that no rounding intervenes)."""
    def eq(x, y):
        return _ball_or_value(x) == _ball_or_value(y)

    assert eq(a - b, a + (-b)) and eq(a - 1, a + (-1))
    assert eq(3 - a, -a + 3) and eq(F(1, 2) + a, a + F(1, 2)) and eq(2 * a, a * 2)
    assert eq(a / b, a * b.inverse()) and eq(1 / b, b.inverse())
    assert eq(a ** 3, a * a * a) and eq(a ** 0, a._coerce(1))
    if field:
        assert eq(a ** -2, (a ** 2).inverse())
    else:
        with pytest.raises(ValueError):
            a ** -2
    for bad in (lambda: a - 0.5, lambda: 0.5 - a, lambda: a / "x", lambda: "x" / a):
        with pytest.raises(TypeError):
            bad()


def test_power_starts_at_the_lowest_set_bit(monkeypatch):
    """x ** 4 is two squarings, with no product by one."""
    import binom4k.exact as exact

    calls, kernel = [], exact._mul_nums
    monkeypatch.setattr(exact, "_mul_nums", lambda *a: calls.append(a) or kernel(*a))
    x = Poly([1, 2, F(1, 3), -4])
    assert x ** 4 == x * x * x * x
    calls.clear()
    x ** 4
    assert len(calls) == 2


@pytest.mark.parametrize("x, one", [
    (Poly([1, 2, F(1, 3)]), Poly([1])),
    (Poly([]), Poly([1])),
    (3 * _K.gen() ** 2 - _K.gen() + 7, _K.one()),
    (RatFunc(Poly([1, 0, 1]), Poly([-3, 1])), RatFunc(Poly([1]))),
    (RatFunc(Poly([1, 2, F(1, 3), -4]), [(Poly([1, -1]), 3), (Poly([1, -4]), -2)]),
     RatFunc(Poly([1]))),
], ids=["Poly", "zero-Poly", "NFElem", "RatFunc", "RatFunc-factored"])
def test_zeroth_power_is_one(x, one):
    assert x ** 0 == one


def test_scalar_ring_operations_of_poly():
    """Zero test, negation, scalar product and derivative; a polynomial drops
    trailing zeros."""
    cs = [F(1, 2), 3, 0, F(-5, 7)]
    p = Poly(cs)
    assert (-p).coeffs == tuple(-c for c in cs)
    assert p.scale(F(2, 3)).coeffs == (p * F(2, 3)).coeffs == tuple(F(2, 3) * c for c in cs)
    assert p.derivative().coeffs == (3, 0, F(-15, 7))
    assert Poly([4]).derivative() == Poly() and Poly(cs + [0, 0]) == p
    assert p.scale(0).is_zero() and p.scale(0).degree == -1 and not p.is_zero()


def test_count_roots_open_interval():
    p = Poly([-2, 0, 1])
    assert count_roots(p, F(0), F(2)) == 1
    assert count_roots(p, F(-2), F(2)) == 2
    assert count_roots(p, F(2), F(3)) == 0


# ---------------------------------------------------------------------------
# the integer form of Poly over Q against a reference on Fraction lists


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_mul(a, b):
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_horner(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _ref_interval_horner(cs, lo, hi):
    acc = (F(0), F(0))
    for c in reversed(cs):
        ps = (acc[0] * lo, acc[0] * hi, acc[1] * lo, acc[1] * hi)
        acc = (min(ps) + c, max(ps) + c)
    return acc


# small, huge and slot-edge (2^p - 1, the largest magnitude of its bit length)
# coefficients; the repeated slot-edge lists put a product coefficient just
# under the top of the Kronecker slot
_coeff = st.one_of(
    st.fractions(max_denominator=12).filter(lambda q: abs(q) <= 20),
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**20)),
    st.builds(lambda p, s: F(s * (2**p - 1)), st.integers(1, 70), st.sampled_from([1, -1])))
_edge = st.builds(lambda p, s, n: [F(s * (2**p - 1))] * n,
                  st.integers(1, 70), st.sampled_from([1, -1]), st.integers(3, 13))
_coeffs = st.one_of(st.lists(_coeff, max_size=13), _edge)   # degree <= 12
_nonzero = _coeffs.map(_trim).filter(bool)
_PROP = settings(max_examples=15, deadline=None, derandomize=True)


def _canonical(p, cs):
    """p holds cs in the stored form: den > 0, gcd(den, *nums) = 1, no
    trailing zero."""
    cs = _trim(cs)
    assert p.coeffs == tuple(cs)
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert all(isinstance(c, int) for c in p.nums)


class TestIntegerPolyProperties:
    @_PROP
    @given(a=_coeffs, b=_coeffs)
    def test_ring_operations(self, a, b):
        pa, pb = Poly(a), Poly(b)
        _canonical(pa + pb, _ref_add(a, b))
        _canonical(pa - pb, _ref_add(a, [-c for c in b]))
        _canonical(pa * pb, _ref_mul(a, b))
        _canonical(-pa, [-c for c in a])

    @_PROP
    @given(a=_coeffs, b=_nonzero)
    def test_divrem(self, a, b):
        q, r = Poly(a).divrem(Poly(b))
        _canonical(q, q.coeffs)
        _canonical(r, r.coeffs)
        assert _ref_add(_ref_mul(list(q.coeffs), b), list(r.coeffs)) == _trim(a)
        assert r.degree < len(b) - 1

    @_PROP
    @given(a=_coeffs, b=_coeffs, g=_nonzero)
    def test_gcd_is_monic_and_divides(self, a, b, g):
        a, b = _ref_mul(a, g), _ref_mul(b, g)
        d = Poly(a).gcd(Poly(b))
        if not a and not b:
            assert d.is_zero()
            return
        _canonical(d, d.coeffs)
        assert d[d.degree] == 1
        for x in (a, b):
            assert Poly(x).divrem(d)[1].is_zero()
        assert d.degree >= len(g) - 1        # g divides both

    @_PROP
    @given(a=_coeffs, x=st.fractions(max_denominator=10**9).filter(lambda q: abs(q) < 10**6))
    def test_call_at_a_rational(self, a, x):
        assert Poly(a)(x) == _ref_horner(a, x)

    @_PROP
    @given(a=_coeffs, ends=st.lists(st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 100),
                                    min_size=2, max_size=2))
    def test_eval_interval_is_the_fraction_horner_interval(self, a, ends):
        lo, hi = sorted(ends)
        assert Poly(a).eval_interval((lo, hi)) == _ref_interval_horner(a, lo, hi)

    @_PROP
    @given(a=_coeffs)
    def test_derivative_and_monic(self, a):
        p = Poly(a)
        _canonical(p.derivative(), [i * c for i, c in enumerate(a)][1:])
        cs = _trim(a)
        _canonical(p.monic(), [c / cs[-1] for c in cs] if cs else [])

    @_PROP
    @given(a=_coeffs, b=_coeffs, k=_coeff.filter(bool))
    def test_equal_polynomials_have_equal_nums_and_den(self, a, b, k):
        p = Poly(a)
        for q in ((p + Poly(b)) - Poly(b), p.scale(k).scale(1 / k), (p * Poly([k])) // Poly([k]),
                  Poly([c * 3 for c in a]).scale(F(1, 3))):
            assert q == p and hash(q) == hash(p)
            assert (q.nums, q.den) == (p.nums, p.den)
            _canonical(q, a)
