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

`quad_integrate` at the bottom is the one *non-rigorous* piece (tanh-sinh
with an error estimate, in integer fixed point): cross-checks only, never in
a verdict.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

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


def _fraction_rounded(x: Fraction, digits: int) -> str:
    """x rounded half up to `digits` significant digits in mpmath.nstr's shapes:
    positional for a decimal exponent strictly between min(-(digits // 3), -5)
    and `digits`, else d.ddde-X; trailing zeros stripped to one after the point."""
    if x == 0:
        return "0.0"
    y, e = _decimal_normalise(x)
    mant = str(int(y * 10 ** (digits - 1) + Fraction(1, 2)))
    mant, e = (mant[:digits], e + 1) if len(mant) > digits else (mant, e)   # 10^digits
    fixed = min(-(digits // 3), -5) < e < digits
    mant, point = ("0" * -e + mant, 1) if fixed and e < 0 else (mant, e + 1 if fixed else 1)
    text = (mant[:point] + "." + mant[point:]).rstrip("0")
    return ("-" if x < 0 else "") + text + "0" * text.endswith(".") + ("" if fixed else f"e{e:+d}")


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


def _exp_fixed(x: int, P: int) -> int:
    """2^P exp(x / 2^P) to a relative 2^-(P+20) or a unit (not rigorous): the
    2^s-th power of the Taylor sum of exp(x / 2^(P+s)), x / 2^(P+s) < 2^-12,
    at 30 + s guard bits; exp(-x) = 1 / exp(x)."""
    if x < 0:
        return (1 << 2 * P) // _exp_fixed(-x, P)
    s = max(x.bit_length() - P + 12, 0)
    Q, n = P + 30 + s, 1
    total = term = 1 << Q
    while term:
        term = term * x // (n << P + s)
        total, n = total + term, n + 1
    for _ in range(s):
        total = total * total >> Q
    return total >> Q - P


def quad_bits(dps: int) -> int:
    """The bits of `quad_integrate` at `dps` digits: mpmath's prec + 40."""
    return round((dps + 1) * math.log2(10)) + 40


@lru_cache(maxsize=None)
def _tanh_sinh_nodes(degree: int, prec: int) -> tuple:
    """The nodes (x, w) with x >= 0 that level `degree` adds on [-1, 1], at
    prec + 40 bits; x = 0 first, at degree 1 only."""
    P = prec + 40
    one, pi = 1 << P, round(const_pi(P + 4).midpoint() * (1 << P))
    nodes, h = ([(0, pi >> 1)], one >> 1) if degree == 1 else ([], one >> degree - 1)
    e0, up = _exp_fixed(one >> degree, P), _exp_fixed(h, P)     # e^t0, t0 = 2^-degree
    a, b = pi * e0 >> P + 2, (pi << P - 2) // e0            # pi/4 e^t, pi/4 e^-t
    for _ in range(20 * 2**degree + 1):
        c2 = _exp_fixed(a - b, P) ** 2                      # 2^2P exp(pi sinh t)
        s = c2 + (one << P)
        x = ((c2 - (one << P)) << P) // s
        if one - x <= one >> prec + 10:
            break
        nodes.append((x, ((a + b) * c2 << 2 * P + 2) // (s * s)))
        a, b = a * up >> P, (b << P) // up
    return tuple(nodes)


class QuadResult(NamedTuple):
    value: Fraction
    error_estimate: float
    evaluations: int


class QuadratureError(ArithmeticError):
    """The integrator missed the tolerance; `best` is its best estimate."""

    def __init__(self, msg: str, best: QuadResult):
        super().__init__(msg)
        self.best = best


def quad_integrate(integrand: Callable[[int], int], a: Fraction, b: Fraction, tol: float,
                   dps: int) -> QuadResult:
    """Tanh-sinh quadrature (Takahasi & Mori) of a smooth integrand on [a, b],
    step for step as mpmath's `TanhSinh` at `dps` digits, so it stops at the
    same level after the same evaluations; `integrand` maps 2^B t to 2^B f(t)
    as ints, B = quad_bits(dps).  Level m adds the nodes x = tanh(pi/2 sinh t),
    weights pi/2 cosh t / cosh^2(pi/2 sinh t), at the odd multiples t of 2^-m
    (and t = 0 at m = 1), sums h (S_{m-1} / 2h + sum w f), h = 2^-m, and
    estimates the error from the last three sums (Borwein, Bailey & Girgensohn).
    Non-rigorous: QuadratureError reports an estimate above `tol`."""
    B, prec = quad_bits(dps), quad_bits(dps) - 40
    half, mid = round((b - a) * (1 << B - 1)), round((a + b) * (1 << B - 1))
    results, total, err, count = [], 0, 0, 0
    for degree in range(1, int(4 + max(0, math.log2(prec / 30))) + 3):
        for x, w in _tanh_sinh_nodes(degree, prec):
            dx = half * x >> B
            total += w * (integrand(mid + dx) + integrand(mid - dx) if x else integrand(mid))
            count += 2 if x else 1
        # the level sum, in units of 2^-(3B + degree): total gains each
        # level's sum of w f, and the previous sum's 2^-(degree-1) halves
        results.append(Fraction(half * total, 1 << 3 * B + degree))
        diffs = [abs(results[-1] - r) for r in results[-2:-4:-1]]
        if degree > 2 and any(diffs):
            # 10^int(D), D from the log10 of the last two differences, in [-prec, 0]
            d1, d2 = (math.log10(q.numerator) - math.log10(q.denominator) if q else -math.inf
                      for q in diffs)
            err = Fraction(10) ** int(min(0, max(d1 * d1 / d2, 2 * d1, -prec)))
        elif degree > 1:
            err = diffs[0] if degree == 2 else 0
        if degree > 1 and err <= Fraction(1, 1 << prec + 2):     # mpmath's eps / 8
            break
    res = QuadResult(results[-1], float(err), count)
    if not float(err) <= tol:
        raise QuadratureError(
            f"quadrature error estimate {float(err):.3g} exceeds tol {tol:.3g}", best=res)
    return res
