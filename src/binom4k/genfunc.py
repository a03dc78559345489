"""Truncated formal power series over Q and the exact algebraic facts about

    f(x)   = sum_k C(4k,k) x^k            (|x| < 27/256)
    G_m(x) = sum_k C(mk,k)/((m-1)k+1) x^k (the generalized binomial series)

verified coefficient-by-coefficient: the quartic functional equation of f,
the G_m equation G = 1 + x G^m, the log formulas, the closed forms of f' and
f'', Lagrange inversion for powers of G_m, and the construction of the
algebraic constants attached to x = 1/16 and x = -1/256.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .balls import Ball
from .exact import (AlgebraicReal, IntCoeffs, NFElem, NumberField, Poly, _mul_nums,
                    pow_by_squaring, sqrt_in_field)
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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.order)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return TruncSeries._make([a * sa + b * sb for a, b in zip(self.nums, other.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries._make([c * other.numerator for c in self.nums],
                                     self.den * other.denominator)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(len(self.nums), len(other.nums))
        return TruncSeries._make(_mul_nums(self.nums, other.nums, n), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if other.nums[0] == 0:
            raise ZeroDivisionError("division by a series with zero constant term")
        return self * other.truncate(self.order)._inverse()

    def _inverse(self) -> "TruncSeries":
        """1/self through self.order by Newton's iteration g <- g (2 - self g),
        which doubles the number of correct coefficients of g at each step."""
        g = TruncSeries([Fraction(self.den, self.nums[0])])
        n = 1
        while n <= self.order:
            n = min(2 * n, self.order + 1)
            g = TruncSeries._make(g.nums + (0,) * (n - len(g.nums)), g.den)
            g = g * (2 - self.truncate(n - 1) * g)
        return g

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative series power")
        return pow_by_squaring(self, n, TruncSeries.constant(1, self.order))

    def shift_x(self) -> "TruncSeries":
        """Multiply by x, keeping the order."""
        return TruncSeries._make((0,) + self.nums[:-1], self.den)

    def derivative(self) -> "TruncSeries":
        if self.order == 0:
            return TruncSeries([0])
        return TruncSeries._make([i * self.nums[i] for i in range(1, len(self.nums))], self.den)

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

    def is_zero(self) -> bool:
        return not any(self.nums)

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


def check_quartic_f(K: int, f: Optional[TruncSeries] = None) -> CheckOutcome:
    """Residual of 27 f^4 - 18 f^2 - 8 f - 1 - 256 x f^4 through order K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if f is None:
        f = coeffs_f(K)
    f2 = f * f
    f4 = f2 * f2
    return _first_nonzero(27 * f4 - 18 * f2 - 8 * f - 1 - 256 * f4.shift_x())


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
# algebraic contexts at the special points


class ContextError(ArithmeticError):
    """An exact invariant of an algebraic context failed to reduce to zero."""


# minimal polynomial of f(1/16): 11 t^3 - 11 t^2 - 7 t - 1
ALPHA_CUBIC = Poly([-1, -7, -11, 11])
# minimal polynomial of f(-1/256): 28 t^4 - 18 t^2 - 8 t - 1
BETA_QUARTIC = Poly([-1, -8, -18, 0, 28])


@dataclass(frozen=True)
class AlphaContext:
    """The value a = f(1/16) with the exact closed forms of f'(1/16), f''(1/16).

    Invariant (checked at construction): (11/128) a'' - (35/8) a' + 11 a + 5 = 0.
    """

    field: NumberField
    alpha: AlgebraicReal
    elem: NFElem       # a as a field element
    alpha_p: NFElem    # f_prime(a)
    alpha_pp: NFElem   # f_second(a)


@dataclass(frozen=True)
class BetaContext:
    """The value b = f(-1/256) inside the quartic field that also contains
    sqrt(2).

    Invariant (checked at construction): 14 b^2 - 7 sqrt2 b - 1 - 2 sqrt2 = 0
    with sqrt2 the positive square root of 2 expressed in the field, and the
    real embedding of b lies in (0.9, 1).
    """

    field: NumberField
    beta: NFElem
    sqrt2: NFElem


def make_alpha() -> AlphaContext:
    field = NumberField(ALPHA_CUBIC, (Fraction(1), Fraction(2)))
    a = field.gen()
    ap, app = f_prime(a), f_second(a)
    relation = Fraction(11, 128) * app - Fraction(35, 8) * ap + 11 * a + 5
    if not relation.is_zero():
        raise ContextError(f"closed-form relation residual is nonzero: {relation!r}")
    return AlphaContext(field=field, alpha=field.embedding, elem=a, alpha_p=ap, alpha_pp=app)


def make_beta() -> BetaContext:
    field = NumberField(BETA_QUARTIC, (Fraction(1, 2), Fraction(1)))
    b = field.gen()
    s2 = sqrt_in_field(field, 2)
    if not (s2 * s2 == 2 and s2.sign() > 0):
        raise ContextError("sqrt(2) construction failed")
    quad = 14 * b * b - 7 * s2 * b - 1 - 2 * s2
    if not quad.is_zero():
        raise ContextError(f"quadratic residual is nonzero: {quad!r}")
    lo, hi = field.embedding.refine(Fraction(1, 100))
    if not (Fraction(9, 10) < lo and hi < 1):
        raise ContextError("embedding escaped (0.9, 1)")
    return BetaContext(field=field, beta=b, sqrt2=s2)


def eval_f(x, digits: int = 30) -> Ball:
    """Rigorous enclosure of f(x) for rational |x| < 27/256."""
    x = Fraction(x)
    if abs(x) >= RADIUS:
        raise ValueError(f"|x| = {abs(x)} is outside the open radius 27/256")
    return sum_series(SeriesSpec(x=x, channels={0: (Fraction(1),)}), digits)
