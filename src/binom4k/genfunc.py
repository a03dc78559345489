"""Truncated formal power series over Q and the exact algebraic facts about

    f(x)   = sum_k C(4k,k) x^k            (|x| < 27/256)
    G_m(x) = sum_k C(mk,k)/((m-1)k+1) x^k (the generalized binomial series)

verified coefficient-by-coefficient: the quartic functional equation of f,
the G_m equation G = 1 + x G^m, the log formulas, the closed forms of f' and
f'', Lagrange inversion for powers of G_m; and the number fields Q(f(x0)),
each cut out by the same quartic relation of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .balls import Ball
from .exact import (AlgebraicReal, IntCoeffs, NFElem, NumberField, Poly, _mul_nums,
                    _rational_roots, sqrt_in_field)
from .series import RADIUS, SeriesSpec, sum_series


class TruncSeries(IntCoeffs):
    """Formal power series truncated at a fixed order, exact coefficients.

    Stored as `exact.IntCoeffs`, integer numerators over one reduced
    denominator: equal series have equal representations, and a product is
    one big-integer product of the numerators (`exact._mul_nums`).
    """

    __slots__ = ()

    def __init__(self, coeffs):
        cs = list(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least order 0")
        super().__init__(cs)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den)

    def truncate(self, K: int) -> "TruncSeries":
        if K >= self.order:
            return self
        return TruncSeries._make(self.nums[: K + 1], self.den)

    @staticmethod
    def constant(c, K: int) -> "TruncSeries":
        return TruncSeries((c,) + (0,) * K)

    # -- ring operations (exact through the common order) --------------------

    def _coerce(self, x):
        if isinstance(x, TruncSeries):
            return x
        if isinstance(x, (int, Fraction)):
            return TruncSeries.constant(x, self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return TruncSeries._make([a * sa + b * sb for a, b in zip(self.nums, other.nums)], den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(len(self.nums), len(other.nums))
        return TruncSeries._make(_mul_nums(self.nums, other.nums, n), self.den * other.den)

    def inverse(self) -> "TruncSeries":
        """1/self through self.order by Newton's iteration g <- g (2 - self g),
        which doubles the number of correct coefficients of g at each step."""
        if self.nums[0] == 0:
            raise ZeroDivisionError("inverse of a series with zero constant term")
        g = TruncSeries([Fraction(self.den, self.nums[0])])
        n = 1
        while n <= self.order:
            n = min(2 * n, self.order + 1)
            g = TruncSeries._make(g.nums + (0,) * (n - len(g.nums)), g.den)
            g = g * (2 - self.truncate(n - 1) * g)
        return g

    def shift_x(self) -> "TruncSeries":
        """Multiply by x, keeping the order."""
        return TruncSeries._make((0,) + self.nums[:-1], self.den)

    def integrate(self) -> "TruncSeries":
        L = math.lcm(*range(1, len(self.nums) + 1))
        return TruncSeries._make([0] + [c * (L // (i + 1)) for i, c in enumerate(self.nums)],
                                 self.den * L)

    def log(self) -> "TruncSeries":
        """log of a series with constant term 1, via integrating f'/f."""
        if self[0] != 1:
            raise ValueError("log needs constant term 1")
        if self.order == 0:
            return TruncSeries([0])
        q = self.derivative() / self.truncate(self.order - 1)
        return q.integrate()

    def first_nonzero(self) -> Optional[int]:
        return next((i for i, c in enumerate(self.nums) if c), None)

    def __repr__(self):
        head = ", ".join(str(self[i]) for i in range(min(len(self.nums), 6)))
        tail = ", ..." if self.order > 5 else ""
        return f"TruncSeries([{head}{tail}], order={self.order})"


# ---------------------------------------------------------------------------
# the concrete series


def coeffs_f(K: int) -> TruncSeries:
    """Truncation of sum_k C(4k,k) x^k."""
    if K < 0:
        raise ValueError("order must be >= 0")
    return TruncSeries([math.comb(4 * k, k) for k in range(K + 1)])


def gm_series(m: int, K: int) -> TruncSeries:
    """Truncation of G_m(x) = sum_k C(mk,k)/((m-1)k+1) x^k."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return TruncSeries([Fraction(math.comb(m * k, k), (m - 1) * k + 1) for k in range(K + 1)])


@dataclass(frozen=True)
class CheckOutcome:
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


def _first_nonzero(residual: TruncSeries) -> CheckOutcome:
    return zero_check(residual, lambda r: f"first nonzero order {r.first_nonzero()}")


# f's relation (27 - 256x) f^4 - 18 f^2 - 8 f - 1 = 0: the coefficient of f^i
# is the affine function a + b x of x, F_RELATION[i] = (a, b)
F_RELATION = ((-1, 0), (-8, 0), (-18, 0), (0, 0), (27, -256))


def relation_at(x0) -> Poly:
    """f's relation at x = x0, a polynomial in y with f(x0) among its roots."""
    x0 = Fraction(x0)
    return Poly([a + b * x0 for a, b in F_RELATION])


def check_quartic_f(K: int, f: Optional[TruncSeries] = None) -> CheckOutcome:
    """Residual of f's relation, sum_i (a_i + b_i x) f^i, through order K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if f is None:
        f = coeffs_f(K)
    powers = [TruncSeries.constant(1, f.order), f]
    while len(powers) < len(F_RELATION):
        powers.append(powers[-1] * f)
    return _first_nonzero(sum((a * p + b * p.shift_x() for (a, b), p in zip(F_RELATION, powers)),
                              0 * f))


def check_gm(m: int, K: int) -> CheckOutcome:
    """Residual of G_m - 1 - x G_m^m through order K."""
    if m < 1 or K < 1:
        raise ValueError("need m >= 1 and K >= 1")
    G = gm_series(m, K)
    return _first_nonzero(G - 1 - (G**m).shift_x())


def check_log_gm(m: int, K: int) -> CheckOutcome:
    """Coefficient k of m log G_m must equal C(mk,k)/k."""
    if m < 1 or K < 1:
        raise ValueError("need m >= 1 and K >= 1")
    expected = TruncSeries([0] + [Fraction(math.comb(m * k, k), k) for k in range(1, K + 1)])
    return _first_nonzero(m * gm_series(m, K).log() - expected)


def check_f_log(K: int) -> CheckOutcome:
    """Coefficient k of 4 log(4f/(3f+1)) must equal C(4k,k)/k."""
    if K < 1:
        raise ValueError("K must be >= 1")
    f = coeffs_f(K)
    expected = TruncSeries([0] + [Fraction(math.comb(4 * k, k), k) for k in range(1, K + 1)])
    return _first_nonzero(4 * ((4 * f) / (3 * f + 1)).log() - expected)


def f_prime(f):
    """f' as a function of f: 64 f^5/(3f+1)^2, for f in any ring with division
    (a series, a number-field element, a rational function)."""
    return 64 * f**5 / (3 * f + 1) ** 2


def f_second(f):
    """f'' as a function of f: 4096 f^9 (9f+5)/(3f+1)^5."""
    return 4096 * f**9 * (9 * f + 5) / (3 * f + 1) ** 5


def check_derivatives_f(K: int) -> CheckOutcome:
    """Termwise f' vs f_prime(f) (order K-1), then f'' vs f_second(f) (order K-2)."""
    if K < 2:
        raise ValueError("K must be >= 2")
    f = coeffs_f(K)
    d1 = f.derivative()
    r1 = d1 - f_prime(f).truncate(K - 1)
    if not r1.is_zero():
        return _first_nonzero(r1)
    return _first_nonzero(d1.derivative() - f_second(f).truncate(K - 2))


def check_lagrange(m: int, n: int, K: int) -> CheckOutcome:
    """Coefficient k of G_m^n must equal (n/k) C(mk+n-1, k-1) for 1 <= k <= K,
    and coefficient 0 must be 1."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    expected = TruncSeries([1] + [Fraction(n, k) * math.comb(m * k + n - 1, k - 1)
                                  for k in range(1, K + 1)])
    return _first_nonzero(gm_series(m, K) ** n - expected)


# ---------------------------------------------------------------------------
# f's quartic relation and the fields Q(f(x0))


class ContextError(ArithmeticError):
    """An exact invariant of an algebraic context failed to reduce to zero."""


def _divide_root(p: Poly, r: Fraction) -> Poly:
    """p / (y - r), checked to leave no remainder."""
    q, rem = p.divrem(Poly([-r, 1]))
    if not rem.is_zero():
        raise ContextError(f"{r} is not a root of {p.pretty()}")
    return q


# minimal polynomial of f(1/16): the relation at 1/16 is (y + 1)(11y^3 - 11y^2 - 7y - 1)
ALPHA_CUBIC = _divide_root(relation_at(Fraction(1, 16)), Fraction(-1))


@dataclass(frozen=True)
class PointContext:
    """The number field Q(gamma), gamma = f(x0), with the positive square root
    of d in it when one was asked for (`point_context`)."""

    x0: Fraction
    field: NumberField
    gamma: NFElem
    sqrt_d: Optional[NFElem]


def point_context(x0, d: Optional[int] = None) -> PointContext:
    """The field Q(f(x0)), its embedding the root of f's relation at x0 that
    an enclosure of f(x0) isolates: Q itself when that root is a rational r
    (modulus y - r), else the field cut out by the relation with each
    rational root divided out as often as it divides."""
    x0 = Fraction(x0)
    relation = relation_at(x0)
    ball = eval_f(x0, digits=12)
    interval = (ball.lo, ball.hi)
    AlgebraicReal(relation, interval)  # raises unless it isolates one root
    roots = _rational_roots(relation)
    inside = [r for r in roots if ball.lo <= r <= ball.hi]
    if inside:
        modulus = Poly([-inside[0], 1])
    else:
        modulus = relation
        for r in roots:
            while modulus(r) == 0:
                modulus = _divide_root(modulus, r)
    field = NumberField(modulus, interval)
    return PointContext(x0, field, field.gen(), None if d is None else sqrt_in_field(field, d))


def eval_f(x, digits: int = 30) -> Ball:
    """Rigorous enclosure of f(x) for rational |x| < 27/256."""
    x = Fraction(x)
    if abs(x) >= RADIUS:
        raise ValueError(f"|x| = {abs(x)} is outside the open radius 27/256")
    return sum_series(SeriesSpec(x=x, channels={0: (Fraction(1),)}), digits)
