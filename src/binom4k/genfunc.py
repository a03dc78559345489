"""The exact algebraic facts about

    f(x)   = sum_k C(4k,k) x^k            (|x| < 27/256)
    G_m(x) = sum_k C(mk,k)/((m-1)k+1) x^k (the generalized binomial series)

each checked as an identity in Q(z): the quartic functional equation of f,
the G_m equation G = 1 + x G^m, the log formulas, the closed forms of f' and
f'', Lagrange inversion for powers of G_m.  Under x = z (1 - z)^(m-1),
G_m = 1/(1 - z) and sum_k C(mk,k) x^k = 1/(1 - mz), so f = 1/(1 - 4z)
(Graham, Knuth & Patashnik, Concrete Mathematics, 2nd ed., 5.4).  A closed
form y is tied to its coefficients by their recurrence p(k) c_{k+1} =
q(k) c_k, as the identity p(theta)[(y - c_0)/x] = q(theta) y with
theta = x d/dx.  Also the number fields Q(f(x0)), each cut out by the same
quartic relation of f: `point_context` returns the generator f(x0), an
`NFElem` whose field carries the isolated root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Optional

from . import series
from .balls import Ball
from .exact import NFElem, NumberField, Poly, RatFunc
from .series import RADIUS, SeriesSpec, sum_series


@cache
def _param(m: int) -> tuple[RatFunc, RatFunc, RatFunc]:
    """x = z (1 - z)^(m-1), G_m = 1/(1 - z) and sum_k C(mk,k) x^k = 1/(1 - mz)."""
    return (RatFunc(Poly([0, 1]), [(Poly([1, -1]), 1 - m)]), RatFunc(Poly([1]), Poly([1, -1])),
            RatFunc(Poly([1]), Poly([1, -m])))


@cache
def _multipliers(m: int) -> tuple[RatFunc, RatFunc]:
    """(x/x', 1/x'), x' = dx/dz: theta = x d/dx and d/dx are these times d/dz."""
    x = _param(m)[0]
    return x / x.derivative(), 1 / x.derivative()


def theta(y: RatFunc, m: int) -> RatFunc:
    """theta y = x dy/dx under x = z (1 - z)^(m-1): z (1 - z)/(1 - mz) dy/dz."""
    return _multipliers(m)[0] * y.derivative()


def d_dx(y: RatFunc, m: int) -> RatFunc:
    """dy/dx under x = z (1 - z)^(m-1)."""
    return _multipliers(m)[1] * y.derivative()


def _apply(p: Poly, y: RatFunc, m: int) -> RatFunc:
    """p(theta) y, by Horner's rule in theta."""
    *rest, lead = p.coeffs
    acc = y * lead
    for c in reversed(rest):
        acc = theta(acc, m) + y * c if c else theta(acc, m)
    return acc


def _recurrence(y: RatFunc, m: int, c0, step) -> tuple:
    """The identity p(theta)[(y - c0)/x] = q(theta) y for (q, p) = step(k), the
    ratio c_{k+1}/c_k in k: it says p(k) c_{k+1} = q(k) c_k for the
    coefficients c_k of y, and with y(0) = c0 and p(k) > 0 for k >= 0 it
    fixes every c_k (Petkovsek, Wilf & Zeilberger, A = B, 1996)."""
    q, p = step(Poly([0, 1]))
    if not all(c > 0 for c in p.nums):  # positive coefficients: p(k) > 0 for k >= 0
        raise ValueError(f"recurrence: p(k) = {p.pretty('k')} may vanish at some k >= 0")
    u = y - c0
    if u.num[0]:
        raise ValueError(f"recurrence: y(0) - c_0 = {u.num[0]} does not vanish")
    # (y - c0)/x: the numerator over z, times z/x = 1/(1 - z)^(m-1)
    u_over_x = RatFunc(Poly._make(u.num.nums[1:], u.num.den), u.den + ((Poly([1, -1]), m - 1),))
    return "recurrence", _apply(p, u_over_x, m), _apply(q, y, m)


def _lagrange_step(m: int, n: int, k):
    """c_{k+1}/c_k for c_k = [x^k] G_m^n = n/(mk+n) C(mk+n, k), as
    (numerator, denominator)."""
    return (math.prod(m * k + n + i for i in range(m)),
            (k + 1) * math.prod((m - 1) * k + n + i for i in range(1, m)))


class CheckOutcome(NamedTuple):
    """The result of an exact check: a pass, or a failure with its witness;
    `note` says what was checked where that is not plain from its name."""

    ok: bool
    witness: Optional[str] = None
    note: Optional[str] = None


def zero_check(residual, witness=repr) -> CheckOutcome:
    """Pass iff the exact residual is zero, else fail with witness(residual)."""
    if residual.is_zero():
        return CheckOutcome(True)
    return CheckOutcome(False, witness(residual))


def times_sqrt(X: NFElem, Y: NFElem, d: int) -> CheckOutcome:
    """Pass iff X = Y sqrt(d), d > 0, under the real embedding: X^2 - d Y^2 is
    exactly zero and X has the sign of Y, nonzero; else fail naming the part
    that does not hold."""
    square = X * X - d * Y * Y
    if not square.is_zero():
        return CheckOutcome(False, f"square: X^2 - {d} Y^2 = {square!r}")
    sx, sy = X.sign(), Y.sign()
    if sy == 0 or sx != sy:
        return CheckOutcome(False, f"sign: X has sign {sx}, Y sign {sy}")
    return CheckOutcome(True)


def _verdict(m: int, *identities) -> CheckOutcome:
    """Pass iff each (name, lhs, rhs) is an identity in Q(z), else fail with
    the name of the first that is not and the order in x of its residual,
    read off its numerator: every factor must be nonzero at z = 0."""
    for name, lhs, rhs in identities:
        for f, _ in RatFunc._coerce(lhs).den + RatFunc._coerce(rhs).den:
            if f[0] == 0:
                return CheckOutcome(False, f"{name}: factor {f.pretty('z')} vanishes at z = 0")
        r = (lhs - rhs).num
        if not r.is_zero():
            order = next(i for i, c in enumerate(r.nums) if c)
            return CheckOutcome(False, f"{name} residual nonzero from order {order}")
    power = {1: "", 2: "(1-z)"}.get(m, f"(1-z)^{m - 1}")
    return CheckOutcome(True, note=f"in Q(z), x = z{power}")


# f's relation (27 - 256x) f^4 - 18 f^2 - 8 f - 1 = 0: the coefficient of f^i
# is the affine function a + b x of x, F_RELATION[i] = (a, b)
F_RELATION = ((-1, 0), (-8, 0), (-18, 0), (0, 0), (27, -256))


def relation_at(x0) -> Poly:
    """f's relation at x = x0, a polynomial in y with f(x0) among its roots."""
    x0 = Fraction(x0)
    return Poly([a + b * x0 for a, b in F_RELATION])


def check_quartic_f() -> CheckOutcome:
    """f's relation sum_i (a_i + b_i x) f^i = 0, and f's recurrence, whose
    ratio `series._rho` is the one the series engine steps by."""
    x, _, f = _param(4)
    relation = sum((a + b * x) * f**i for i, (a, b) in enumerate(F_RELATION))
    return _verdict(4, ("relation", relation, 0), _recurrence(f, 4, 1, series._rho))


def check_gm(m: int) -> CheckOutcome:
    """G_m = 1 + x G_m^m, and G_m's recurrence."""
    if m < 1:
        raise ValueError("need m >= 1")
    x, G, _ = _param(m)
    return _verdict(m, ("equation", G, 1 + x * G**m),
                    _recurrence(G, m, 1, lambda k: _lagrange_step(m, 1, k)))


def check_log_gm(m: int) -> CheckOutcome:
    """Coefficient k of m log G_m is C(mk,k)/k = ((m-1)k+1) c_k/k, c_k that of
    G_m: theta of both sides, m theta(G)/G = ((m-1) theta + 1) G - 1, both
    vanishing at x = 0; and G_m's recurrence."""
    if m < 1:
        raise ValueError("need m >= 1")
    G = _param(m)[1]
    dG = theta(G, m)
    return _verdict(m, ("log", m * dG / G, (m - 1) * dG + G - 1),
                    _recurrence(G, m, 1, lambda k: _lagrange_step(m, 1, k)))


def check_f_log() -> CheckOutcome:
    """Coefficient k of 4 log(4f/(3f+1)) is C(4k,k)/k: theta of both sides,
    4 theta(w)/w = f - 1 with w = 4f/(3f+1), both vanishing at x = 0; and
    f's recurrence."""
    f = _param(4)[2]
    w = 4 * f / (3 * f + 1)
    return _verdict(4, ("log", 4 * theta(w, 4) / w, f - 1), _recurrence(f, 4, 1, series._rho))


def f_prime(f):
    """f' as a function of f: 64 f^5/(3f+1)^2, for f in any ring with division
    (a number-field element, a rational function of y = f or of z)."""
    return 64 * f**5 / (3 * f + 1) ** 2


def f_second(f):
    """f'' as a function of f: 4096 f^9 (9f+5)/(3f+1)^5."""
    return 4096 * f**9 * (9 * f + 5) / (3 * f + 1) ** 5


def check_derivatives_f() -> CheckOutcome:
    """f' = f_prime(f) and f'' = f_second(f), and f's recurrence."""
    f = _param(4)[2]
    d1 = d_dx(f, 4)
    return _verdict(4, ("f'", d1, f_prime(f)), ("f''", d_dx(d1, 4), f_second(f)),
                    _recurrence(f, 4, 1, series._rho))


def check_lagrange(m: int, n: int) -> CheckOutcome:
    """Coefficient k of G_m^n is (n/k) C(mk+n-1, k-1) = n/(mk+n) C(mk+n, k)
    for k >= 1, and coefficient 0 is 1: the recurrence of G^n, G = 1/(1 - z)
    (that G is G_m is `check_gm`)."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return _verdict(m, _recurrence(_param(m)[1] ** n, m, 1, lambda k: _lagrange_step(m, n, k)))


# ---------------------------------------------------------------------------
# f's quartic relation and the fields Q(f(x0))


class ContextError(ArithmeticError):
    """An exact invariant failed: a residual is not zero, a sign is wrong, or
    a division leaves a remainder."""


def exact_quotient(p: Poly, q: Poly) -> Poly:
    """p / q, checked to leave no remainder."""
    quotient, rem = p.divrem(q)
    if not rem.is_zero():
        raise ContextError(f"{q.pretty()} does not divide {p.pretty()}")
    return quotient


# minimal polynomial of f(1/16): the relation at 1/16 is (y + 1)(11y^3 - 11y^2 - 7y - 1)
ALPHA_CUBIC = exact_quotient(relation_at(Fraction(1, 16)), Poly([1, 1]))


def point_context(x0, modulus: Optional[Poly] = None) -> NFElem:
    """gamma = f(x0) as the generator of Q(f(x0)): the field on f's relation at
    x0 as it stands, or on `modulus`, a factor of it.  gamma is the one root of
    the relation in an enclosure of f(x0), and of the factor there too."""
    x0 = Fraction(x0)
    relation = relation_at(x0)
    ball = eval_f(x0, digits=12)
    field = NumberField(relation, (ball.lo, ball.hi))
    if modulus is not None:
        exact_quotient(relation, modulus)  # raises unless modulus divides the relation
        field = NumberField(modulus, (field.lo, field.hi))
    return field.gen()


def eval_f(x, digits: int = 30) -> Ball:
    """Rigorous enclosure of f(x) for rational |x| < 27/256."""
    x = Fraction(x)
    if abs(x) >= RADIUS:
        raise ValueError(f"|x| = {abs(x)} is outside the open radius 27/256")
    return sum_series(SeriesSpec(x=x, channels={0: (Fraction(1),)}), digits)
