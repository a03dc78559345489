"""The cross-check integrands and their quadratures: the reduced plain forms
against the composite expressions in y(z) they stand for, the fixed-point
quotients that the quadratures call against exact evaluations of those
expressions, and each quadrature against mpmath.quad (an oracle only)."""

import math
from fractions import Fraction as F

import mpmath
import pytest

from binom4k import cli
from binom4k.balls import quad_bits
from binom4k.exact import Poly
from binom4k.genfunc import eval_f, relation_at
from binom4k.proofs import alpha_context, substituted_integrands


def composite(j, z, alpha):
    """The plain z-substituted integrand of sum C(4k,k) H_{jk}/16^k composed
    from y(z) and dy/dz (j=3 in w = z/cbrt2, times cbrt2)."""
    if j == 2:
        z2 = z * z
        y = -(z2 + 1) / (3 * z2 - 1)
        ym1 = -4 * z2 / (3 * z2 - 1)
        core = 2 * (y - alpha) / (y * ((3 * y + 1) * ym1 - 4 * y * y * z))
        return core * 8 * z / (3 * z2 - 1) ** 2
    if j == 3:
        w = z
        z3 = 2 * w ** 3
        y = 1 / (1 - z3)
        ym1 = z3 / (1 - z3)
        core = 4 * (y - alpha) / (3 * y * ym1 * (3 * y + 1 - 2 * y / w))
        return core * 6 * w * w / (z3 - 1) ** 2
    z4 = z ** 4
    y = -(z4 + 1) / (3 * z4 - 1)
    ym1 = -4 * z4 / (3 * z4 - 1)
    core = (y - alpha) / (y * ym1 * (3 * y + 1 - 2 * y / z))
    return core * 16 * z ** 3 / (3 * z4 - 1) ** 2


def reduced(j, z, alpha):
    a, b, d = cli._PLAIN_FORMS[j]
    return (Poly(a)(z) + alpha * Poly(b)(z)) / Poly(d)(z)


@pytest.mark.parametrize("j", [2, 3, 4])
def test_reduced_plain_forms_equal_the_composites(j):
    """Built step by step, each composite is a quotient of polynomials of
    degree at most 20 over 25 in z (j=4; fewer for j=2, 3), and each reduced
    form of at most 4 over 8, so their difference has a numerator of degree at
    most 29 and a coefficient linear in alpha.  It vanishes at 42 rational
    points for two values of alpha, so it is zero."""
    for alpha in (F(3, 7), F(-5, 2)):
        for k in range(1, 43):
            z = F(k, 43)
            assert composite(j, z, alpha) == reduced(j, z, alpha), (j, alpha, z)


BITS = quad_bits(60)


def _captured_integrals(monkeypatch, j, x):
    """(integrand, lower, upper, result) of each quadrature of one cross-check."""
    seen = []
    real = cli.quad_integrate

    def recording(integrand, a, b, **kw):
        result = real(integrand, a, b, **kw)
        seen.append((integrand, a, b, result))
        return result

    monkeypatch.setattr(cli, "quad_integrate", recording)
    assert cli.run_crosscheck(j, x, 1e-20).status == "PASS"
    return seen


def _references(j, x):
    """Per quadrature, the exact integrand of the expression it evaluates and
    that expression's denominator."""
    if j == 1:
        gamma = eval_f(x, 50).midpoint()
        q3 = []       # the quartic relation divided by (y - gamma), synthetically
        for c in reversed(relation_at(x).coeffs[1:]):
            q3.insert(0, c + (gamma * q3[0] if q3 else 0))
        den = Poly([0, 1]) * Poly(q3)
        return [(lambda y: 4 * (1 + 3 * y) ** 2 / den(y), den)]
    alpha = sum(alpha_context().field.refine(cli.QUAD_WIDTH)) / 2
    si = substituted_integrands(j, cli.QUAD_WIDTH)
    return [(lambda z: composite(j, z, alpha), Poly(cli._PLAIN_FORMS[j][2])),
            (lambda z: si.num(z) / si.den(z), si.den)]


@pytest.mark.parametrize("j, x", [(1, F(1, 16)), (1, F(-1, 50)), (1, F(26, 256)),
                                  (2, F(1, 16)), (3, F(1, 16)), (4, F(1, 16))])
def test_fixed_point_integrands_match_the_exact_expressions(monkeypatch, j, x):
    """At the quadrature's fixed point, in the interior and 1e-41 from both
    endpoints, every integrand is within 1e-58 of the exact value of its
    expression at the same point; within 1e-58 / |D(t)| where the plain forms'
    denominator D nears its zero at the upper limit, since the 0/0 there is
    removable only for the exact alpha and limit, not for their midpoints."""
    integrals = _captured_integrals(monkeypatch, j, x)
    references = _references(j, x)
    assert len(integrals) == len(references)
    for (integrand, a, b, _), (exact, den) in zip(integrals, references):
        near = F(1, 10**41) * (1 if b > a else -1)
        points = [a + near, b - near] + [a + (b - a) * F(k, 7) for k in range(1, 7)]
        for point in points:
            t = math.floor(point * (1 << BITS))
            tq = F(t, 1 << BITS)
            tol = F(1, 10**58) * max(1, 1 / abs(den(tq)))
            assert abs(F(integrand(t), 1 << BITS) - exact(tq)) <= tol, (j, x, point)


def test_fixed_quotient_at_negative_and_tiny_points():
    num, den = Poly([F(1, 3), 2, -5]), Poly([7, 0, F(1, 2), 1])
    integrand = cli._fixed_quotient(num, den, 240)
    for point in (F(-3, 4), F(-1, 10**41), F(0), F(1, 10**41), F(5, 2)):
        t = math.floor(point * (1 << 240))
        tq = F(t, 1 << 240)
        assert abs(F(integrand(t), 1 << 240) - num(tq) / den(tq)) <= F(1, 10**60), point


@pytest.mark.parametrize("j, x", [(1, F(1, 16)), (1, F(-1, 50)), (1, F(26, 256)),
                                  (1, F(-26, 256)), (1, F(1, 1000)), (1, F(1, 11)),
                                  (2, F(1, 16)), (3, F(1, 16)), (4, F(1, 16))])
def test_quadratures_match_mpmath_quad(monkeypatch, j, x):
    """Each of the cross-check integrals takes as many evaluations as
    mpmath.quad at 60 digits takes of the same integrand, read through mpf
    nodes, and its value is within 1e-58 of mpmath's."""
    for integrand, a, b, result in _captured_integrals(monkeypatch, j, x):
        count = 0

        def f(t):
            nonlocal count
            count += 1
            fixed = integrand(int(mpmath.floor(mpmath.ldexp(t, BITS))))
            return mpmath.ldexp(fixed, -BITS)

        with mpmath.workdps(60):
            value = mpmath.quad(f, [mpmath.mpf(a.numerator) / a.denominator,
                                    mpmath.mpf(b.numerator) / b.denominator])
            assert count == result.evaluations, (j, x)
            assert abs(result.value - F(*mpmath.libmp.to_rational(value._mpf_))) <= \
                F(1, 10**58), (j, x)
