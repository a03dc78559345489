"""Rigorous enclosure arithmetic at arbitrary working precision.

A Ball is an exact rational interval [lo, hi] (an `exact.Ival`) whose
Fraction endpoints are rounded outward to a working precision of `prec`
significant bits, so containment of the true value is preserved through any
chain of operations.  Enclosures of pi, log q and sqrt(n) come with proved
remainder bounds (alternating / geometric series tails, integer square
roots), so the radius contract is rigorous, not heuristic.

The quadrature routine at the bottom is the one deliberately *non-rigorous*
piece: it wraps mpmath's adaptive tanh-sinh integrator and reports an error
estimate.  It is used only for cross-checks, never inside an acceptance
verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .exact import Ival, ival_add, ival_mul


def _round(x: Fraction, prec: int, up: bool) -> Fraction:
    """x rounded up (toward +inf) or down to at most prec significant bits."""
    n, d = x.numerator, x.denominator
    # scale so that the quotient has more than prec bits, then drop the excess:
    # two directed roundings by powers of 2 compose into one
    s = prec + 1 - (abs(n).bit_length() - d.bit_length())
    num, den = (n << s, d) if s >= 0 else (n, d << -s)
    q = -(-num // den) if up else num // den
    excess = max(abs(q).bit_length() - prec, 0)
    q = -(-q >> excess) if up else q >> excess
    e = excess - s
    return Fraction(q << e) if e >= 0 else Fraction(q, 1 << -e)


class BallDomainError(ArithmeticError):
    """Domain violation: division by an enclosure of 0, log of a non-positive
    rational, sqrt of a non-positive integer."""


class Ball:
    """Real enclosure: the `exact.Ival` (lo, hi) with dyadic Fraction endpoints.

    `prec` is the working precision in bits; the constructor rounds each
    endpoint outward to that many significant bits, so every operation that
    builds its result through it keeps the true value inside.
    """

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec: int):
        lo, hi = _round(Fraction(lo), prec, False), _round(Fraction(hi), prec, True)
        if lo > hi:
            raise ValueError("inverted enclosure")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("Ball is immutable")

    @staticmethod
    def exact(x, prec: int = 64) -> "Ball":
        """Enclosure of an int / Fraction; exact when x is dyadic."""
        return Ball(x, x, prec)

    # -- structure -----------------------------------------------------------

    # the endpoints under the names that callers outside the package use
    def lo_fraction(self) -> Fraction:
        return self.lo

    def hi_fraction(self) -> Fraction:
        return self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x, prec: int) -> "Ball":
        if isinstance(x, Ball):
            return x
        if isinstance(x, (int, Fraction)):
            return Ball.exact(x, prec)
        return NotImplemented

    def __add__(self, other):
        o = Ball._coerce(other, self.prec)
        if o is NotImplemented:
            return o
        return Ball(*ival_add((self.lo, self.hi), (o.lo, o.hi)), max(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self):
        return Ball(-self.hi, -self.lo, self.prec)

    def __sub__(self, other):
        o = Ball._coerce(other, self.prec)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = Ball._coerce(other, self.prec)
        if o is NotImplemented:
            return o
        return Ball(*ival_mul((self.lo, self.hi), (o.lo, o.hi)), max(self.prec, o.prec))

    __rmul__ = __mul__

    def reciprocal(self) -> "Ball":
        if self.contains_zero():
            raise BallDomainError("division by an enclosure containing 0")
        return Ball(1 / self.hi, 1 / self.lo, self.prec)

    def __truediv__(self, other):
        o = Ball._coerce(other, self.prec)
        if o is NotImplemented:
            return o
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return Ball._coerce(other, self.prec) * self.reciprocal()

    # -- display -------------------------------------------------------------

    def decimal(self, digits: int = 20) -> str:
        """Midpoint +/- radius rendering, midpoint to `digits` significant digits."""
        mid, rad = self.midpoint(), self.radius()
        return f"{_fraction_decimal(mid, digits)} +/- {_fraction_sci(rad)}"

    def __repr__(self):
        return f"Ball({self.decimal(12)}, prec={self.prec})"


def _decimal_normalise(x: Fraction) -> tuple[Fraction, int]:
    """(y, e) with |x| = y * 10^e and 1 <= y < 10, for x != 0."""
    y = abs(x)
    # log10 |x| lies within log10(2) of (bitlen(num) - bitlen(den)) log10(2),
    # so one division by a power of 10 leaves y in (1/2, 20)
    e = (y.numerator.bit_length() - y.denominator.bit_length()) * 30103 // 100000
    y = y / 10**e if e >= 0 else y * 10**-e
    while y >= 10:
        y /= 10
        e += 1
    while y < 1:
        y *= 10
        e -= 1
    return y, e


def _fraction_decimal(x: Fraction, digits: int) -> str:
    """Truncated decimal rendering to `digits` significant digits (display only)."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    y, exp10 = _decimal_normalise(x)
    mant = str(int(y * Fraction(10) ** (digits - 1))).rjust(digits, "0")
    if -4 <= exp10 < digits:
        if exp10 >= 0:
            ip, fp = mant[: exp10 + 1], mant[exp10 + 1:]
            return sign + ip + ("." + fp if fp else "")
        return sign + "0." + "0" * (-exp10 - 1) + mant
    return f"{sign}{mant[0]}.{mant[1:]}e{exp10:+d}"


def _fraction_sci(x: Fraction) -> str:
    if x == 0:
        return "0"
    y, e = _decimal_normalise(x)
    lead = int(y * 100)
    return f"{lead/100:.2f}e{e:+d}"


# ---------------------------------------------------------------------------
# constants with proved remainder bounds

def _atan_inv_enclosure(c: int, prec: int) -> Ival:
    """Exact rational enclosure of arctan(1/c) for integer c >= 2.

    Alternating series; the truth lies between consecutive partial sums.
    """
    target = Fraction(1, 1 << (prec + 8))
    s = Fraction(0)
    k = 0
    while True:
        term = Fraction(1, (2 * k + 1) * c ** (2 * k + 1))
        s_next = s + term if k % 2 == 0 else s - term
        nxt = Fraction(1, (2 * k + 3) * c ** (2 * k + 3))
        if nxt <= target:
            lo, hi = sorted((s_next, s_next + (nxt if k % 2 == 1 else -nxt)))
            return lo, hi
        s = s_next
        k += 1


@lru_cache(maxsize=None)
def const_pi(prec: int) -> Ball:
    """Rigorous enclosure of pi (Machin: 16 atan(1/5) - 4 atan(1/239))."""
    a5 = _atan_inv_enclosure(5, prec + 6)
    a239 = _atan_inv_enclosure(239, prec + 6)
    return Ball(16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0], prec)


@lru_cache(maxsize=None)
def _log2_enclosure(prec: int) -> Ival:
    """log 2 = 2 atanh(1/3), with the geometric tail bound."""
    lo, hi = _atanh_enclosure(Fraction(1, 3), prec)
    return 2 * lo, 2 * hi


def _atanh_enclosure(u: Fraction, prec: int) -> Ival:
    """Exact enclosure of atanh(u) for |u| < 1/2 via the odd-power series.

    Tail after the u^(2n+1) term is bounded by |u|^(2n+3)/((2n+3)(1-u^2)).
    """
    assert abs(u) < Fraction(1, 2)
    target = Fraction(1, 1 << (prec + 8))
    u2 = u * u
    s = Fraction(0)
    power = u
    n = 0
    one_minus = 1 - u2
    while True:
        s += power / (2 * n + 1)
        power *= u2
        n += 1
        bound = abs(power) / ((2 * n + 1) * one_minus)
        if bound <= target:
            return s - bound, s + bound


@lru_cache(maxsize=None)
def const_log(q, prec: int) -> Ball:
    """Rigorous enclosure of log q for rational q > 0."""
    q = Fraction(q)
    if q <= 0:
        raise BallDomainError("log requires a positive rational")
    e = q.numerator.bit_length() - q.denominator.bit_length()
    r = q / Fraction(2) ** e
    if r < Fraction(2, 3):
        r, e = 2 * r, e - 1
    elif r > Fraction(4, 3):
        r, e = r / 2, e + 1
    # log q = 2 atanh(u) + e log 2 with |u| <= 1/5 after the adjustment above
    lo, hi = _atanh_enclosure((r - 1) / (r + 1), prec)
    iv = (2 * lo, 2 * hi)
    if e:
        iv = ival_add(iv, ival_mul((e, e), _log2_enclosure(prec)))
    return Ball(*iv, prec)


@lru_cache(maxsize=None)
def const_sqrt(n: int, prec: int) -> Ball:
    """Rigorous enclosure of sqrt(n) for a positive integer n."""
    if n <= 0:
        raise BallDomainError("sqrt requires a positive integer")
    # sqrt(n) lies in [r, r + 1] / 2^prec, and at r / 2^prec when n 4^prec = r^2
    s = n << 2 * prec
    r = math.isqrt(s)
    return Ball(Fraction(r, 1 << prec), Fraction(r + (r * r != s), 1 << prec), prec)


# ---------------------------------------------------------------------------
# cross-check quadrature (non-rigorous, error-estimating)


@dataclass(frozen=True)
class QuadResult:
    value: object          # mpmath mpf
    error_estimate: float
    evaluations: int


class QuadratureError(ArithmeticError):
    """Raised when the integrator cannot meet the tolerance; carries the best
    estimate found."""

    def __init__(self, msg: str, best: Optional[QuadResult] = None):
        super().__init__(msg)
        self.best = best


def quad_integrate(integrand: Callable, a, b, tol: float = 1e-20,
                   dps: Optional[int] = None) -> QuadResult:
    """Adaptive tanh-sinh quadrature of a smooth integrand on [a, b].

    Non-rigorous: the returned error is an estimate, not a bound.  Backed by
    mpmath; the working precision defaults to comfortably past `tol`.
    """
    import mpmath

    if dps is None:
        dps = max(30, int(-math.log10(tol)) + 18)
    count = 0

    def f(t):
        nonlocal count
        count += 1
        return integrand(t)

    with mpmath.workdps(dps):
        aa = mpmath.mpf(a.numerator) / a.denominator if isinstance(a, Fraction) else mpmath.mpf(a)
        bb = mpmath.mpf(b.numerator) / b.denominator if isinstance(b, Fraction) else mpmath.mpf(b)
        val, err = mpmath.quad(f, [aa, bb], error=True)
        res = QuadResult(value=val, error_estimate=float(err), evaluations=count)
        if not (float(err) <= tol):
            raise QuadratureError(
                f"quadrature error estimate {float(err):.3g} exceeds tol {tol:.3g}", best=res)
    return res
