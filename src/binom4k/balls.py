"""Rigorous enclosure arithmetic at arbitrary working precision.

A Ball is a pair of exact dyadic endpoints [lo, hi] with every operation
rounded outward, so containment of the true value is preserved through any
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

from .exact import pow_by_squaring

# ---------------------------------------------------------------------------
# dyadic numbers: value = m * 2**e, held as plain Python integers


def _dy_round(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """Round m*2^e to at most prec significant bits, directed."""
    if m == 0:
        return 0, 0
    bl = m.bit_length() if m > 0 else (-m).bit_length()
    if bl <= prec:
        return m, e
    shift = bl - prec
    if up:
        q = -((-m) >> shift)  # ceil(m / 2^shift)
    else:
        q = m >> shift  # floor
    return q, e + shift


def _dy_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    (ma, ea), (mb, eb) = a, b
    if ma == 0:
        return b
    if mb == 0:
        return a
    if ea >= eb:
        return ma * (1 << (ea - eb)) + mb, eb
    return ma + mb * (1 << (eb - ea)), ea


def _dy_neg(a: tuple[int, int]) -> tuple[int, int]:
    return -a[0], a[1]


def _dy_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0], a[1] + b[1]


def _dy_cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    m, e = _dy_add(a, _dy_neg(b))
    return (m > 0) - (m < 0)


def _dy_from_fraction(x: Fraction, prec: int, up: bool) -> tuple[int, int]:
    """Directed rounding of an exact rational to a dyadic with prec bits."""
    n, d = x.numerator, x.denominator
    if n == 0:
        return 0, 0
    # scale so the quotient carries prec+2 significant bits
    shift = prec + 2 - (n.bit_length() - d.bit_length())
    if shift < 0:
        shift = 0
    scaled = n << shift
    if up:
        q = -((-scaled) // d)
    else:
        q = scaled // d
    return _dy_round(q, -shift, prec, up)


def _dy_to_fraction(a: tuple[int, int]) -> Fraction:
    m, e = a
    return Fraction(m) * Fraction(2) ** e if e < 0 else Fraction(m * (1 << e)) if e > 0 else Fraction(m)


def _dy_recip(a: tuple[int, int], prec: int, up: bool) -> tuple[int, int]:
    """Directed reciprocal of a nonzero dyadic."""
    m, e = a
    if m == 0:
        raise ZeroDivisionError("reciprocal of zero")
    return _dy_from_fraction(Fraction(1) / _dy_to_fraction(a), prec, up)


def _dy_sqrt(a: tuple[int, int], prec: int, up: bool) -> tuple[int, int]:
    """Directed square root of a nonnegative dyadic."""
    m, e = a
    if m < 0:
        raise ValueError("sqrt of negative dyadic")
    if m == 0:
        return 0, 0
    if e % 2:
        m <<= 1
        e -= 1
    g = e // 2
    s = m << (2 * prec)
    r = math.isqrt(s)
    if up and r * r != s:
        r += 1
    return _dy_round(r, g - prec, prec, up)


# ---------------------------------------------------------------------------


class BallDomainError(ArithmeticError):
    """Domain violation: division by an enclosure of 0, log of a non-positive
    enclosure, sqrt of a negative enclosure."""


class Ball:
    """Real enclosure [lo, hi] with exact dyadic endpoints.

    `prec` is the working precision in bits; results of arithmetic are
    rounded outward to that many significant bits per endpoint.
    """

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo: tuple[int, int], hi: tuple[int, int], prec: int):
        if _dy_cmp(lo, hi) > 0:
            raise ValueError("inverted enclosure")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("Ball is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def exact(x, prec: int = 64) -> "Ball":
        """Enclosure of an int / Fraction; exact when x is dyadic."""
        x = Fraction(x)
        return Ball(_dy_from_fraction(x, prec, False), _dy_from_fraction(x, prec, True), prec)

    @staticmethod
    def from_fractions(lo: Fraction, hi: Fraction, prec: int) -> "Ball":
        return Ball(_dy_from_fraction(Fraction(lo), prec, False),
                    _dy_from_fraction(Fraction(hi), prec, True), prec)

    # -- structure -----------------------------------------------------------

    def lo_fraction(self) -> Fraction:
        return _dy_to_fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        return _dy_to_fraction(self.hi)

    def midpoint(self) -> Fraction:
        return (self.lo_fraction() + self.hi_fraction()) / 2

    def radius(self) -> Fraction:
        return (self.hi_fraction() - self.lo_fraction()) / 2

    def width(self) -> Fraction:
        return self.hi_fraction() - self.lo_fraction()

    def contains_zero(self) -> bool:
        return self.lo[0] <= 0 <= self.hi[0]

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo_fraction() <= x <= self.hi_fraction()

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
        p = max(self.prec, o.prec)
        return Ball(_dy_round(*_dy_add(self.lo, o.lo), p, False),
                    _dy_round(*_dy_add(self.hi, o.hi), p, True), p)

    __radd__ = __add__

    def __neg__(self):
        return Ball(_dy_neg(self.hi), _dy_neg(self.lo), self.prec)

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
        p = max(self.prec, o.prec)
        cands = [_dy_mul(self.lo, o.lo), _dy_mul(self.lo, o.hi),
                 _dy_mul(self.hi, o.lo), _dy_mul(self.hi, o.hi)]
        lo = min(cands, key=_dy_to_fraction)
        hi = max(cands, key=_dy_to_fraction)
        return Ball(_dy_round(*lo, p, False), _dy_round(*hi, p, True), p)

    __rmul__ = __mul__

    def reciprocal(self) -> "Ball":
        if self.contains_zero():
            raise BallDomainError("division by an enclosure containing 0")
        p = self.prec
        return Ball(_dy_recip(self.hi, p, False), _dy_recip(self.lo, p, True), p)

    def __truediv__(self, other):
        o = Ball._coerce(other, self.prec)
        if o is NotImplemented:
            return o
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return Ball._coerce(other, self.prec) * self.reciprocal()

    def __pow__(self, n: int) -> "Ball":
        if n < 0:
            return self.reciprocal() ** (-n)
        return pow_by_squaring(self, n, Ball.exact(1, self.prec))

    def sqrt(self) -> "Ball":
        if self.lo[0] < 0:
            raise BallDomainError("sqrt of an enclosure reaching below 0")
        p = self.prec
        return Ball(_dy_sqrt(self.lo, p, False), _dy_sqrt(self.hi, p, True), p)

    def log(self) -> "Ball":
        if self.lo[0] <= 0:
            raise BallDomainError("log of a non-positive enclosure")
        p = self.prec
        lo = _log_fraction(self.lo_fraction(), p)[0]
        hi = _log_fraction(self.hi_fraction(), p)[1]
        return Ball(_dy_from_fraction(lo, p, False), _dy_from_fraction(hi, p, True), p)

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

def _atan_inv_enclosure(c: int, prec: int) -> tuple[Fraction, Fraction]:
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
    lo = 16 * a5[0] - 4 * a239[1]
    hi = 16 * a5[1] - 4 * a239[0]
    return Ball.from_fractions(lo, hi, prec)


@lru_cache(maxsize=None)
def _log2_enclosure(prec: int) -> tuple[Fraction, Fraction]:
    """log 2 = 2 atanh(1/3), with the geometric tail bound."""
    lo, hi = _atanh_enclosure(Fraction(1, 3), prec)
    return 2 * lo, 2 * hi


def _atanh_enclosure(u: Fraction, prec: int) -> tuple[Fraction, Fraction]:
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


def _log_fraction(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of log q for rational q > 0."""
    if q <= 0:
        raise BallDomainError("log of a non-positive rational")
    if q == 1:
        return Fraction(0), Fraction(0)
    e = q.numerator.bit_length() - q.denominator.bit_length()
    r = q / Fraction(2) ** e
    if r < Fraction(2, 3):
        r, e = 2 * r, e - 1
    elif r > Fraction(4, 3):
        r, e = r / 2, e + 1
    u = (r - 1) / (r + 1)  # |u| <= 1/5 after the adjustment above
    slo, shi = _atanh_enclosure(u, prec)
    lo, hi = 2 * slo, 2 * shi
    if e:
        l2lo, l2hi = _log2_enclosure(prec)
        if e > 0:
            lo, hi = lo + e * l2lo, hi + e * l2hi
        else:
            lo, hi = lo + e * l2hi, hi + e * l2lo
    return lo, hi


@lru_cache(maxsize=None)
def const_log(q, prec: int) -> Ball:
    """Rigorous enclosure of log q for rational q > 0."""
    q = Fraction(q)
    if q <= 0:
        raise BallDomainError("log requires a positive rational")
    return Ball.from_fractions(*_log_fraction(q, prec), prec)


@lru_cache(maxsize=None)
def const_sqrt(n: int, prec: int) -> Ball:
    """Rigorous enclosure of sqrt(n) for a positive integer n."""
    if n <= 0:
        raise BallDomainError("sqrt requires a positive integer")
    return Ball(_dy_sqrt((n, 0), prec, False), _dy_sqrt((n, 0), prec, True), prec)


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
