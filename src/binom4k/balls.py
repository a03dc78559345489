"""Rigorous enclosure arithmetic at arbitrary working precision.

A Ball is an exact rational interval [lo, hi] (an `exact.Ival`) whose
Fraction endpoints are rounded outward to a working precision of `prec`
significant bits, so containment of the true value is preserved through any
chain of operations.

pi and log q are summed in integer fixed point with tracked error, as in
`series`: for u = p/q, |u| <= 1/2, one kernel gives |2^P atan(u) - S| <= E
(or atanh) from

    power_k ~ 2^P u^(2k+1): power_0 = floor(2^P p / q), low by e_0 <= 1, and
              power_{k+1} = floor(power_k p^2 / q^2), e_{k+1} = ceil(e_k p^2 / q^2) + 1
    S += +-floor(power_k / (2k+1)) (alternating for atan), E += ceil(e_k / (2k+1)) + 1
    tail <= (power_n + e_n) q^2 / ((2n+1)(q^2 - p^2)) (geometric, either sign)

stopping at the first n whose tail bound is at most E, which it joins.  Every
term adds at most 2 to E and power_n = 0 once 2n+1 > P, so E <= 2P + 4.
Machin's pi = 16 atan(1/5) - 4 atan(1/239) and log q = 2 atanh(u) + e log 2,
log 2 = 2 atanh(1/3), add the (S, E) pairs as integers at the least P that
keeps [S - E, S + E] / 2^P within 2^-(prec+8), so the guard bits P - prec grow
with the term count.  sqrt(n) comes from one integer square root.

`quad_integrate` at the bottom is the one *non-rigorous* piece (mpmath's
tanh-sinh with an error estimate): cross-checks only, never in a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .exact import Value


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
    """Division by an enclosure of 0, log or sqrt of a non-positive number."""


class Ball(Value):
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
        self._set(lo=lo, hi=hi, prec=prec)

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

    def _coerce(self, x) -> "Ball":
        if isinstance(x, Ball):
            return x
        if isinstance(x, (int, Fraction)):
            return Ball.exact(x, self.prec)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Ball(self.lo + o.lo, self.hi + o.hi, max(self.prec, o.prec))

    def __neg__(self):
        return Ball(-self.hi, -self.lo, self.prec)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ps = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Ball(min(ps), max(ps), max(self.prec, o.prec))

    def inverse(self) -> "Ball":
        if self.contains_zero():
            raise BallDomainError("division by an enclosure containing 0")
        return Ball(1 / self.hi, 1 / self.lo, self.prec)

    # -- display -------------------------------------------------------------

    def decimal(self, digits: int = 20) -> str:
        """Midpoint +/- radius rendering, midpoint to `digits` significant digits."""
        return f"{_fraction_decimal(self.midpoint(), digits)} +/- {_fraction_sci(self.radius())}"

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


def _int_digits(n: int, width: int) -> str:
    """The digits of 0 <= n < 10^width, zero-padded: split by powers of 10 into
    pieces of at most 512 digits, below any `sys.set_int_max_str_digits`."""
    if width <= 512:
        return str(n).rjust(width, "0")
    high, low = divmod(n, 10 ** (width // 2))
    return _int_digits(high, width - width // 2) + _int_digits(low, width // 2)


def _fraction_decimal(x: Fraction, digits: int) -> str:
    """Truncated decimal rendering to `digits` significant digits (display only)."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    y, exp10 = _decimal_normalise(x)
    mant = _int_digits(int(y * Fraction(10) ** (digits - 1)), digits)
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
# constants in integer fixed point (see the module docstring)

def _atan_fixed(p: int, q: int, P: int, hyperbolic: bool) -> tuple[int, int]:
    """(S, E) with |2^P atan(p/q) - S| <= E, or atanh(p/q) if `hyperbolic`,
    for |p/q| <= 1/2 and q > 0 (both odd functions)."""
    sign, p = (-1 if p < 0 else 1), abs(p)
    assert 2 * p <= q
    p2, q2 = p * p, q * q
    power, rem = divmod(p << P, q)
    e = int(rem != 0)
    s = err = k = 0
    while True:
        tail = -(-(power + e) * q2 // ((2 * k + 1) * (q2 - p2)))
        if tail <= err:
            return sign * s, err + tail
        term = power // (2 * k + 1)
        s += term if hyperbolic or k % 2 == 0 else -term
        err += -(-e // (2 * k + 1)) + 1
        power = power * p2 // q2
        e = -(-e * p2 // q2) + 1
        k += 1


def _fixed_sum(prec: int, terms: list) -> Ball:
    """The sum of w atan(p/q) (atanh if hyperbolic) over (w, p, q, hyperbolic)
    in `terms`, of width at most 2^-(prec+8) before the rounding to prec."""
    weight = sum(abs(t[0]) for t in terms)
    P = prec + 9
    while weight * (2 * P + 4) > 1 << (P - prec - 9):
        P += 1
    s = e = 0
    for w, p, q, hyperbolic in terms:
        sk, ek = _atan_fixed(p, q, P, hyperbolic) if w else (0, 0)
        s, e = s + w * sk, e + abs(w) * ek
    return Ball(Fraction(s - e, 1 << P), Fraction(s + e, 1 << P), prec)


@lru_cache(maxsize=None)
def const_pi(prec: int) -> Ball:
    """Rigorous enclosure of pi (Machin: 16 atan(1/5) - 4 atan(1/239))."""
    return _fixed_sum(prec, [(16, 1, 5, False), (-4, 1, 239, False)])


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
    # log q = 2 atanh(u) + 2 e atanh(1/3) with |u| <= 1/5 after the adjustment above
    u = (r - 1) / (r + 1)
    return _fixed_sum(prec, [(2, u.numerator, u.denominator, True), (2 * e, 1, 3, True)])


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
    """The integrator missed the tolerance; `best` is its best estimate."""

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
