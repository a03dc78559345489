"""Generating-function facts: the identities in Q(z), the recurrences that
tie closed forms to coefficients, Lagrange inversion, the algebraic
contexts, rigorous evaluation of f; and the Kronecker product kernel of
`Poly`."""

import math
import random
from fractions import Fraction as F

import pytest

from binom4k import genfunc, series
from binom4k.exact import Poly, RatFunc, _mul_nums
from binom4k.genfunc import (
    check_derivatives_f,
    check_f_log,
    check_gm,
    check_lagrange,
    check_log_gm,
    check_quartic_f,
    d_dx,
    eval_f,
    f_prime,
    f_second,
    point_context,
    relation_at,
    theta,
)


def _school_mul(a, b):
    """Schoolbook Fraction product of two coefficient lists."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += F(x) * F(y)
    return out


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _school_div(a, b):
    """Quotient of a by b, len(a) >= len(b), b[-1] != 0, by the long-division
    recurrence q_k = (a_{k+d} - sum_{i<d} q_{k+d-i} b_i) / b_d, k from the top."""
    d, q = len(b) - 1, [F(0)] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        top = sum(q[k + d - i] * b[i] for i in range(d) if k + d - i < len(q))
        q[k] = (F(a[k + d]) - top) / b[d]
    return q


def _random_coeffs(rng, n, rational=False):
    """n seeded signed coefficients of 0 to 300 bits, with runs of zeros;
    over small random denominators when `rational`."""
    out = []
    for _ in range(n):
        c = rng.choice([0, 1]) * rng.randint(-2**rng.randint(0, 300), 2**rng.randint(0, 300))
        out.append(F(c, rng.randint(1, 10**rng.randint(0, 12))) if rational else c)
    return out


class TestKernel:
    """The integer product kernel of Poly against Fraction references."""

    def test_random_products_match_schoolbook(self):
        rng = random.Random(8)
        for _ in range(60):
            n, m = rng.randint(1, 40), rng.randint(1, 40)
            a = _random_coeffs(rng, n, rational=rng.random() < 0.5)
            b = _random_coeffs(rng, m, rational=rng.random() < 0.5)
            assert (Poly(a) * Poly(b)).coeffs == _trimmed(_school_mul(a, b))

    def test_zero_runs(self):
        a = [F(3, 7)] + [0] * 30 + [-(2**250)] + [0] * 20 + [F(1, 9)]
        b = [0] * 25 + [2**200 + 1] + [0] * 27 + [5]
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            assert (Poly(x) * Poly(y)).coeffs == _trimmed(_school_mul(x, y))
        zero = Poly([0] * 12)
        assert zero.is_zero() and zero.nums == () and zero.den == 1
        assert (zero * Poly(a)).is_zero() and (Poly(a) * zero).is_zero()

    def test_order_zero(self):
        a, b = Poly([F(-3, 4)]), Poly([F(5, 6)])
        assert (a * b).coeffs == (F(-5, 8),)
        assert (a / b).coeffs == (F(-9, 10),)
        assert a.derivative() == Poly() and _mul_nums([3], [1, -2, 0]) == [3, -6, 0]

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
                    got = _mul_nums(a, b)
                    assert got == _school_mul(a, b), (p, q, r, sa, sb)
                    assert all(isinstance(c, int) for c in got)
                    assert (Poly(a) * Poly(b)).coeffs == _trimmed(_school_mul(a, b))

    def test_division_matches_recurrence_and_roundtrips(self):
        rng = random.Random(10)
        for _ in range(25):
            n = rng.randint(1, 34)
            a = _random_coeffs(rng, n, rational=True)
            b = _random_coeffs(rng, rng.randint(0, n - 1), rational=True)
            lead = rng.choice([-1, 1]) * rng.randint(1, 2**rng.randint(0, 80))
            b.append(F(lead, rng.randint(1, 99)))
            q, r = Poly(a).divrem(Poly(b))
            if len(a) >= len(b):
                assert q.coeffs == _trimmed(_school_div(a, b))
            assert q * Poly(b) + r == Poly(a) and r.degree < len(b) - 1
            assert (Poly(a) * Poly(b)).divrem(Poly(b)) == (Poly(a), Poly())

    def test_canonical_form(self):
        a, b = Poly([F(1, 2), F(1, 3)]), Poly([F(3, 6), F(2, 6), 0])
        assert a == b and hash(a) == hash(b)
        rng = random.Random(11)
        s = Poly(_random_coeffs(rng, 20, rational=True))
        t = Poly([F(5, 3)] + _random_coeffs(rng, 19, rational=True) + [1])
        for u in ((s * t) // t, s * 12 / 12, (s + t) - t, -(-s), s * F(1, 3) * 3):
            assert u == s and hash(u) == hash(s)
            assert u.den > 0 and math.gcd(u.den, *u.nums) == 1
        assert Poly([4, 6]).nums == (4, 6) and (Poly([4, 6]) / 2).nums == (2, 3)
        assert Poly([1, 0]) == Poly([1]) and Poly([1, 1]) != Poly([1])


class TestExactTypes:
    """Poly coefficients are ints or Fractions, a RatFunc is a Poly over
    factors that are Polys over Q, and it combines only with its own kind,
    Polys, ints and Fractions."""

    def test_poly_rejects_float(self):
        with pytest.raises(TypeError):
            Poly([0.5, 1])

    def test_ratfunc_rejects_float(self):
        with pytest.raises(TypeError):
            RatFunc(Poly([1, 0.1]), Poly([0.1, 1]))
        with pytest.raises(TypeError):
            RatFunc(0.5)
        with pytest.raises(TypeError):
            RatFunc(Poly([1]), [(Poly([1, -1]), 1), (0.5, 1)])
        with pytest.raises(TypeError):
            RatFunc(Poly([1]), Poly([1, -4])) * 0.5
        with pytest.raises(TypeError):
            0.1 + RatFunc(Poly([1]), Poly([1, -4]))

    def test_zfrac_rejects_float(self):
        """A value in the z-fraction form N/((1-z)^a (1-mz)^b) that genfunc
        builds, here 1/(1-z), takes no float operand on either side."""
        with pytest.raises(TypeError):
            RatFunc(Poly([1]), [(Poly([1, -1]), 1)]) * 0.5
        with pytest.raises(TypeError):
            0.1 + RatFunc(Poly([1]), [(Poly([1, -1]), 1)])


def _wrong_rho(k):
    """series._rho with (3k+2) in the denominator replaced by (3k+4)."""
    return 4 * (4 * k + 1) * (4 * k + 2) * (4 * k + 3), (3 * k + 1) * (3 * k + 4) * (3 * k + 3)


class TestPerturbed:
    """A planted error FAILs, and the witness names the identity that broke."""

    def test_quartic(self, monkeypatch):
        monkeypatch.setattr(series, "_rho", _wrong_rho)
        assert check_quartic_f().witness == "recurrence residual nonzero from order 0"

    def test_f_log(self, monkeypatch):
        monkeypatch.setattr(series, "_rho", _wrong_rho)
        assert check_f_log().witness == "recurrence residual nonzero from order 0"
        assert check_derivatives_f().witness == "recurrence residual nonzero from order 0"

    def test_f_prime_numerator(self, monkeypatch):
        monkeypatch.setattr(genfunc, "f_prime", lambda f: 63 * f**5 / (3 * f + 1) ** 2)
        assert check_derivatives_f().witness == "f' residual nonzero from order 0"

    def test_f_second_numerator(self, monkeypatch):
        monkeypatch.setattr(genfunc, "f_second",
                            lambda f: 4096 * f**9 * (9 * f + 4) / (3 * f + 1) ** 5)
        assert check_derivatives_f().witness == "f'' residual nonzero from order 0"

    def test_gm_and_lagrange(self, monkeypatch):
        """(mk+n+i) for i = m-1 replaced by (mk+n+m), a factor of the ratio of
        n/(mk+n) C(mk+n, k) off by (mk+n+m)/(mk+n+m-1)."""
        step = genfunc._lagrange_step

        def wrong(m, n, k):
            q, p = step(m, n, k)
            return q // (m * k + n + m - 1) * (m * k + n + m), p
        monkeypatch.setattr(genfunc, "_lagrange_step", wrong)
        for m in range(1, 6):
            assert check_gm(m).witness == "recurrence residual nonzero from order 0", m
            assert check_log_gm(m).witness == "recurrence residual nonzero from order 0", m
            for n in range(1, 5):
                r = check_lagrange(m, n)
                assert r.witness == "recurrence residual nonzero from order 0", (m, n)

    def test_closed_form_off_the_recurrence(self, monkeypatch):
        """y(0) = c_0 fails before any theta is applied."""
        monkeypatch.setattr(genfunc, "_param", lambda m: (
            RatFunc(Poly([0, 1]), [(Poly([1, -1]), 1 - m)]), RatFunc(Poly([2]), Poly([1, -1])),
            RatFunc(Poly([1]), Poly([1, -m]))))
        with pytest.raises(ValueError, match="does not vanish"):
            check_lagrange(3, 2)


def _identities(monkeypatch):
    """Every (name, lhs, rhs) that the six checks hand to `_verdict`."""
    seen, verdict = [], genfunc._verdict
    monkeypatch.setattr(genfunc, "_verdict", lambda m, *ids: seen.extend(ids) or verdict(m, *ids))
    assert check_quartic_f().ok and check_f_log().ok and check_derivatives_f().ok
    for m in range(1, 6):
        assert check_gm(m).ok and check_log_gm(m).ok
        assert all(check_lagrange(m, n).ok for n in range(1, 5))
    return seen


class TestQz:
    """The values in Q(z) and the operators on them."""

    def test_denominators_are_nonzero_at_zero(self, monkeypatch):
        """What lets the series z(x) = x + O(x^2) be substituted into every
        identity: each side is N / prod f^e with every factor f nonzero at
        z = 0."""
        seen = _identities(monkeypatch)
        assert {name for name, _, _ in seen} == {
            "relation", "equation", "log", "f'", "f''", "recurrence"}
        assert len(seen) == 2 + 2 + 3 + 5 * 2 + 5 * 2 + 20
        for name, *sides in seen:
            for v in sides:
                for f, e in RatFunc._coerce(v).den:
                    assert f.degree > 0 and e != 0 and f(0) != 0, name

    def test_a_factor_vanishing_at_zero_fails(self, monkeypatch):
        """f = 1/(1 - 4z) held as z/(z (1 - 4z)) is the same function, and
        every identity about it is still one in Q(z); but its series in x
        is no longer read off the numerator, so the check must not pass."""
        param = genfunc._param
        planted = RatFunc(Poly([0, 1]), [(Poly([0, 1]), 1), (Poly([1, -4]), 1)])
        assert planted == param(4)[2]
        monkeypatch.setattr(genfunc, "_param", lambda m: param(m)[:2] + (planted,))
        assert check_quartic_f().witness == "relation: factor z vanishes at z = 0"
        for check in (check_f_log, check_derivatives_f):
            r = check()
            assert not r.ok and r.witness.endswith("vanishes at z = 0"), check

    def test_values_of_different_m_stay_apart(self):
        """1/(1 - 3z) and 1/(1 - 4z) differ, and a sum of values built for
        m = 3 and m = 4 carries the factors of both."""
        x3, G3, B3 = genfunc._param(3)
        f = genfunc._param(4)[2]
        assert B3 != f and not (B3 - f).is_zero()
        one_z, one_4z = Poly([1, -1]), Poly([1, -4])
        s = x3 + f  # x's (1 - z)^2 over the factor of f
        assert s.num == Poly([0, 1]) * one_z**2 * one_4z + 1 and s.den == ((one_4z, 1),)
        assert set((G3 + f).den) == {(one_z, 1), (one_4z, 1)}

    def test_theta_of_powers_of_x(self):
        """theta x^j = j x^j and d/dx x^j = j x^(j-1) at every m."""
        for m in range(1, 6):
            x = genfunc._param(m)[0]
            for j in range(4):
                assert theta(x**j, m) == j * x**j, (m, j)
                if j:
                    assert d_dx(x**j, m) == j * x**(j - 1), (m, j)

    def test_units_and_the_rest(self):
        m = 3
        num = Poly([5]) * Poly([1, -1]) ** 2 * Poly([1, -3])
        u = RatFunc(num, [(Poly([1, -1]), 1), (Poly([1, -3]), 4)])
        assert u * u.inverse() == 1
        assert (1 / u).den == ((Poly([1, -1]), -1), (Poly([1, -3]), -4), (num, 1))
        assert RatFunc(Poly([1, 1])).inverse().den == ((Poly([1, 1]), 1),)
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly()).inverse()
        x, G, B = genfunc._param(m)
        # G = 1 + x G^m, and sum_k C(mk,k) x^k = 1/(1 - m + m/G) (Concrete Math (5.61))
        assert G == 1 + x * G**m and B == 1 / (1 - m + m / G) and B != G

    def test_residual_order_is_the_order_in_x(self):
        x = genfunc._param(4)[0]
        r = genfunc._verdict(4, ("relation", x**3 * 7 + x**5, 0))
        assert not r.ok and r.witness == "relation residual nonzero from order 3"


def _coefficients(step, K):
    """c_0 = 1, ..., c_K from the ratio step(k) = (q(k), p(k))."""
    cs = [F(1)]
    for k in range(K):
        q, p = step(k)
        cs.append(cs[-1] * F(q, p))
    return cs


class TestCoefficients:
    """The recurrences of the checks against factorial oracles."""

    def test_f_order0(self):
        f = genfunc._param(4)[2]
        assert f.num(0) == 1 and f.den == ((Poly([1, -4]), 1),)

    def test_f_first_orders(self):
        expected = [math.factorial(4 * k) // (math.factorial(k) * math.factorial(3 * k))
                    for k in range(5)]
        assert _coefficients(series._rho, 4) == expected == [1, 4, 28, 220, 1820]
        assert _coefficients(series._rho, 40) == [math.comb(4 * k, k) for k in range(41)]

    def test_ratio_oracle(self):
        # product-form ratio at k=2: (4k+1)(4k+2)(4k+3)(4k+4)/((k+1)(3k+1)(3k+2)(3k+3))
        k = 2
        ratio = F((4 * k + 1) * (4 * k + 2) * (4 * k + 3) * (4 * k + 4),
                  (k + 1) * (3 * k + 1) * (3 * k + 2) * (3 * k + 3))
        assert F(*series._rho(k)) == ratio == F(55, 7)

    def test_lagrange_coefficients(self):
        """(n/k) C(mk+n-1, k-1) for k >= 1 and 1 at k = 0."""
        for m in range(1, 6):
            for n in range(1, 5):
                got = _coefficients(lambda k: genfunc._lagrange_step(m, n, k), 30)
                assert got == [1] + [F(n, k) * math.comb(m * k + n - 1, k - 1)
                                     for k in range(1, 31)], (m, n)


class TestFunctionalEquations:
    def test_quartic_order1_by_hand(self):
        # 27*16 - 18*8 - 8*4 - 256 = 0 at order x
        assert 27 * 16 - 18 * 8 - 8 * 4 - 256 == 0
        assert check_quartic_f().ok

    def test_quartic_deep(self):
        """The relation holds in Q(z), so at every order."""
        r = check_quartic_f()
        assert r.ok and r.witness is None and r.note == "in Q(z), x = z(1-z)^3"

    def test_quartic_perturbed_fails(self, monkeypatch):
        """f = (1 + z)/(1 - 4z) keeps f(0) = 1 but breaks the relation."""
        param = genfunc._param
        monkeypatch.setattr(genfunc, "_param", lambda m: param(m)[:2] + (
            RatFunc(Poly([1, 1]), Poly([1, -m])),))
        assert check_quartic_f().witness == "relation residual nonzero from order 1"

    def test_g1_is_geometric(self):
        assert _coefficients(lambda k: genfunc._lagrange_step(1, 1, k), 8) == [1] * 9
        assert check_gm(1).ok and check_gm(1).note == "in Q(z), x = z"

    def test_g2_catalan(self):
        # Catalan recurrence oracle: c_{n+1} = sum c_i c_{n-i}
        cat = [F(1)]
        for n in range(11):
            cat.append(sum(cat[i] * cat[n - i] for i in range(n + 1)))
        assert _coefficients(lambda k: genfunc._lagrange_step(2, 1, k), 11) == cat
        assert check_gm(2).ok

    def test_gm_log_suite(self):
        for m in range(1, 6):
            assert check_gm(m).ok
            assert check_log_gm(m).ok

    def test_f_log(self):
        assert check_f_log().ok

    def test_derivative_order0_by_hand(self):
        f = genfunc._param(4)[2]
        assert d_dx(f, 4)(0) == 4           # f'(0) = 4 = 64/16
        assert d_dx(d_dx(f, 4), 4)(0) == 56  # 2*28 = 4096*14/1024
        assert check_derivatives_f().ok


class TestLagrange:
    def test_k1_cases(self):
        assert check_lagrange(4, 1).ok
        assert check_lagrange(4, 2).ok

    def test_full_grid(self):
        for m in range(1, 6):
            for n in range(1, 5):
                assert check_lagrange(m, n).ok, (m, n)
        with pytest.raises(ValueError):
            check_lagrange(0, 1)


class TestContexts:
    def test_alpha_interval(self):
        lo, hi = point_context(F(1, 16)).field.refine(F(1, 1000))
        assert F(1473, 1000) < lo < hi < F(1475, 1000)

    def test_alpha_relation_is_exact_zero(self):
        a = point_context(F(1, 16))
        rel = F(11, 128) * f_second(a) - F(35, 8) * f_prime(a) + 11 * a + 5
        assert rel.is_zero()

    def test_beta_embedding(self):
        lo, hi = point_context(F(-1, 256)).field.refine(F(1, 10**6))
        assert F(984, 1000) < lo < hi < F(986, 1000)

    def test_beta_quadratic(self):
        """L = 14b^2 - 1 and R = 7b + 2 have L^2 = 2 R^2 and are both
        positive, so L/R is sqrt 2 in Q(b)."""
        b = point_context(F(-1, 256))
        L, R = 14 * b * b - 1, 7 * b + 2
        assert (L * L - 2 * R * R).is_zero() and L.sign() == R.sign() == 1
        s2 = L / R
        assert (14 * b * b - 7 * s2 * b - 1 - 2 * s2).is_zero()
        assert s2 * s2 == 2

    def test_alpha_cubic_is_the_relation_without_its_root(self):
        assert genfunc.ALPHA_CUBIC == Poly([-1, -7, -11, 11])
        assert genfunc.ALPHA_CUBIC * Poly([1, 1]) == relation_at(F(1, 16))
        assert relation_at(F(-1, 256)) == Poly([-1, -8, -18, 0, 28])

    def test_the_modulus_is_the_relation_as_it_stands(self):
        """point_context divides no root out and returns the field's
        generator; alpha_context builds Q(f(1/16)) on ALPHA_CUBIC, and a
        modulus that does not divide the relation raises."""
        from binom4k.proofs import alpha_context

        g = point_context(F(1, 16))
        assert g.field.modulus == relation_at(F(1, 16)).monic() and g.field.degree == 4
        assert g.rep == Poly([0, 1]) and g == g.field.gen()
        assert alpha_context().field.modulus == genfunc.ALPHA_CUBIC.monic()
        assert point_context(F(-1, 256)).field.degree == 4
        with pytest.raises(genfunc.ContextError):
            point_context(F(1, 16), Poly([-2, 0, 1]))

    def test_rational_value_gives_the_rational_field(self):
        """Where f(x0) is rational the field is Q at its root: f(12167/331776)
        = 6/5 is a simple root of the quartic modulus, and gamma equals 6/5."""
        g = point_context(F(12167, 331776))
        assert g.field.degree == 4 and not (g - F(6, 5)).rep.is_zero()
        assert g == F(6, 5) and (g - F(6, 5)).sign() == 0 and g * g + 1 == F(61, 25)

    def test_a_repeated_factor_of_the_relation(self):
        """f(0) = 1 is the simple root of (y - 1)(3y + 1)^3; the field takes its
        squarefree part, so 3 gamma + 1, which shares the factor 3y + 1 with
        it, inverts at gamma."""
        assert relation_at(0) == Poly([-1, 1]) * Poly([1, 3]) ** 3
        g = point_context(0)
        inv = (3 * g + 1).inverse()
        assert g == 1 and inv == F(1, 4) and (3 * g + 1) * inv == 1

    def test_quartic_check_reads_the_relation(self, monkeypatch):
        assert check_quartic_f().ok
        monkeypatch.setattr(genfunc, "F_RELATION", ((-1, 0), (-8, 0), (-18, 0), (0, 0), (27, -255)))
        assert check_quartic_f().witness == "relation residual nonzero from order 1"


class TestEvalF:
    def test_at_zero(self):
        b = eval_f(0, 20)
        assert b.lo == b.hi == 1

    def test_matches_cubic_root(self):
        ball = eval_f(F(1, 16), 33)
        lo, hi = point_context(F(1, 16)).field.refine(F(1, 10**30))
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
