"""Rigorous evaluation of the series family

    sum_k  x^k * C(4k,k)^(+-1) * [R0(k) + sum_j Rj(k) * H_{jk}] / D(k)

with rational channel polynomials Rj (j = 1..4 attaches the harmonic number
H_{jk}) and D(k) a product of the linear factors that occur in the catalog.

The terms up to a cutoff K are summed in integer fixed-point arithmetic at P
bits, every value scaled by 2^P, each carried with an integer bound on its
error in units of the last place (the series evaluation of Haible and
Papanikolaou, with midpoint-radius error accounting as in Arb):

    B_k    ~ 2^P |x|^k C(4k,k)^(+-1), advanced by B_{k+1} = floor(B_k a_k / b_k)
             with a_k / b_k the exact term ratio; B_k is low by at most e_k,
             e_{k+1} = ceil(e_k a_k / b_k) + 1 (+0 when the floor was exact)
    Hh_j   ~ 2^P H_{jk}, advanced by floor(2^P / i) for each new i; low by
             less than jk

One common denominator L makes every channel polynomial integral, so
N_k = sum_j L Rj(k) Hh_j (with Hh_0 = 2^P) is an integer, and term k becomes
floor(+-B_k N_k / (2^P |D(k)|)) ~ L 2^P t_k.  Its integer error bound covers the
errors of B_k and N_k through the product and one more unit for the floor,
unless that floor divided exactly: an exactly representable sum stays exact.
With S the sum of the terms and E the sum of their bounds, the partial sum
lies in [(S - E) / (L 2^P), (S + E) / (L 2^P)].  P is fixed before the sum from
the digits, K, the coefficient sizes and the peak of |x|^k C(4k,k)^(+-1) for
k <= K.  Floats only choose P; the enclosure is built from the tracked
integers, and a bound that still misses the target raises PrecisionError.

The tail after the cutoff K is bounded by a certified geometric envelope:

    |t_k| <= T(k) := |x|^k C(4k,k)^e (R0+(k) + sum_j Rj+(k) H_{jk}) / D(k)

with Rj+ the absolute-coefficient polynomials, and for k > K

    T(k+1)/T(k) <= qbar(K) := |x| * rho_bound * (1 + 1/(K+1))^(dmax+1) < 1,

where rho(k) = C(4(k+1),k+1)/C(4k,k) = 4(4k+1)(4k+2)(4k+3)/((3k+1)(3k+2)(3k+3))
is strictly increasing to 256/27 (each factor (4k+i)/(3k+i) is increasing),
dmax is the largest channel degree, the extra +1 absorbs harmonic growth via
H_{j(k+1)} <= H_{jk} * (1 + 1/k), and D is increasing.  Hence

    sum_{k>K} |t_k| <= T(K+1) / (1 - qbar),

and T(K+1) is evaluated exactly except for its harmonic numbers, which are
replaced by the rational upper bound H_n <= 1 + ln n < 1 + (7/10) bitlength(n).
K is found by bisection on this bound, never above the work budget
MAX_TERMS.  No asymptotics are assumed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from .balls import Ball

# linear factors a*k + b allowed in denominators
DENOM_FACTORS: dict[str, tuple[int, int]] = {
    "k": (1, 0),
    "k+1": (1, 1),
    "2k-1": (2, -1),
    "3k-1": (3, -1),
    "3k-2": (3, -2),
    "3k+1": (3, 1),
    "3k+2": (3, 2),
    "4k-1": (4, -1),
    "4k-3": (4, -3),
}

RADIUS = Fraction(27, 256)  # convergence radius of sum C(4k,k) x^k

# Work budget: the largest cutoff K a sum may use.  At this K one tail
# envelope takes about a second, and summing the terms about as long at
# low digits; a sum that needs more terms ends in PrecisionError.
MAX_TERMS = 100_000

# bits of P beyond the a-priori error estimate
GUARD_BITS = 8


class SpecError(ValueError):
    """Invalid series specification."""


class PrecisionError(ArithmeticError):
    """Requested enclosure radius unreachable within the budget."""


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = sum_{0<i<=n} 1/i."""
    if n < 0:
        raise ValueError("harmonic number of a negative index")
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def _harmonic_upper(n: int) -> Fraction:
    """Rational upper bound of H_n: H_n <= 1 + ln n and ln n < (7/10) bitlength(n)."""
    return Fraction(0) if n == 0 else 1 + Fraction(7 * n.bit_length(), 10)


@dataclass(frozen=True)
class SeriesSpec:
    """Declarative description of one series of the supported shape."""

    x: Fraction
    binomial_power: int = 1
    start: int = 0
    channels: Mapping[int, tuple[Fraction, ...]] = field(default_factory=dict)
    denominator_factors: tuple[str, ...] = ()

    def __post_init__(self):
        x = Fraction(self.x)
        object.__setattr__(self, "x", x)
        if self.binomial_power not in (1, -1):
            raise SpecError("binomial_power must be +1 or -1")
        if self.start not in (0, 1):
            raise SpecError("start index must be 0 or 1")
        chans = {}
        for j, coeffs in dict(self.channels).items():
            j = int(j)
            if j not in (0, 1, 2, 3, 4):
                raise SpecError(f"channel {j} outside 0..4")
            tup = tuple(Fraction(c) for c in coeffs)
            while tup and tup[-1] == 0:
                tup = tup[:-1]
            if tup:
                chans[j] = tup
        object.__setattr__(self, "channels", chans)
        for name in self.denominator_factors:
            if name not in DENOM_FACTORS:
                raise SpecError(f"unknown denominator factor {name!r}")
        object.__setattr__(self, "denominator_factors", tuple(self.denominator_factors))
        if self.binomial_power == 1:
            if abs(x) >= RADIUS:
                raise SpecError(f"|x| = {abs(x)} is outside the radius 27/256")
        else:
            if abs(x) >= 1 / RADIUS:
                raise SpecError(f"|x| = {abs(x)} is outside the reciprocal radius 256/27")
        if self.start == 0 and any(DENOM_FACTORS[n] == (1, 0) for n in self.denominator_factors):
            raise SpecError("factor k in the denominator requires start index 1")

    # -- helpers -------------------------------------------------------------

    def denominator_at(self, k: int) -> int:
        d = 1
        for name in self.denominator_factors:
            a, b = DENOM_FACTORS[name]
            d *= a * k + b
        if d == 0:
            raise SpecError(f"index excluded: denominator vanishes at k={k}")
        return d

    def channel_abs_value(self, j: int, k: int) -> Fraction:
        coeffs = self.channels.get(j)
        if not coeffs:
            return Fraction(0)
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * k + abs(c)
        return acc

    def max_degree(self) -> int:
        return max((len(c) - 1 for c in self.channels.values()), default=0)

    def is_zero(self) -> bool:
        return not self.channels


def _rho(k: int) -> tuple[int, int]:
    """rho(k) = C(4(k+1),k+1) / C(4k,k) as (numerator, denominator)."""
    return 4 * (4 * k + 1) * (4 * k + 2) * (4 * k + 3), (3 * k + 1) * (3 * k + 2) * (3 * k + 3)


def _magnitude_step(spec: SeriesSpec, k: int) -> tuple[int, int]:
    """(a, b) with |x|^(k+1) C(4k+4,k+1)^e = |x|^k C(4k,k)^e * a / b."""
    num, den = _rho(k)
    if spec.binomial_power == -1:
        num, den = den, num
    return abs(spec.x.numerator) * num, spec.x.denominator * den


# ---------------------------------------------------------------------------
# certified tail bounds


def _ratio_bound(spec: SeriesSpec, K: int) -> Fraction:
    """qbar(K): upper bound for T(k+1)/T(k) valid for every k >= K+1."""
    growth = (1 + Fraction(1, K + 1)) ** (spec.max_degree() + 1)
    if spec.binomial_power == 1:
        rho = Fraction(256, 27)  # rho(k) < 256/27 for all k
    else:
        rho = Fraction(*reversed(_rho(K + 1)))  # rho increasing => 1/rho(k) <= 1/rho(K+1)
    return abs(spec.x) * rho * growth


def min_tail_cutoff(spec: SeriesSpec) -> int:
    """First K with a certified contraction ratio qbar(K) < 1 in steps of
    about 1.5x from max(start, 1)."""
    K = max(spec.start, 1)
    while _ratio_bound(spec, K) >= 1:
        K += max(1, K // 2)
        if K > MAX_TERMS:
            raise PrecisionError(f"no certified contraction ratio at cutoff K <= {MAX_TERMS}: "
                                 f"the work budget is {MAX_TERMS} terms")
    return K


def _envelope_at(spec: SeriesSpec, k: int) -> Fraction:
    """Upper bound of T(k), rounded up to 64 significant bits.

    Exact but for H_n, which is bounded above, and the final rounding, which
    spares a gcd of numbers with O(k) digits."""
    num = sum((spec.channel_abs_value(j, k) * (_harmonic_upper(j * k) if j else 1)
               for j in spec.channels), Fraction(0))
    a = abs(spec.x.numerator) ** k * num.numerator
    b = spec.x.denominator ** k * num.denominator * abs(spec.denominator_at(k))
    if spec.binomial_power == 1:
        a *= math.comb(4 * k, k)
    else:
        b *= math.comb(4 * k, k)
    shift = 64 - a.bit_length() + b.bit_length()
    if shift >= 0:
        return Fraction(_ceil_div(a << shift, b), 1 << shift)
    return Fraction(_ceil_div(a, b << -shift) << -shift)


def tail_bound_exact(spec: SeriesSpec, K: int) -> Fraction:
    """Rigorous upper bound on |sum_{k>K} term_k| as an exact rational."""
    if spec.is_zero():
        return Fraction(0)
    qbar = _ratio_bound(spec, K)
    if qbar >= 1:
        raise SpecError(f"cutoff {K} below the certified index K0={min_tail_cutoff(spec)}")
    head = _envelope_at(spec, K + 1)
    return head / (1 - qbar)


def _cutoff(spec: SeriesSpec, budget: Fraction) -> int:
    """A cutoff K <= MAX_TERMS with tail_bound_exact(spec, K) <= budget:
    exponential search from min_tail_cutoff, then bisection.

    The bisection stops once the bracket is within 1/64 of K: one envelope
    at K costs about as much as summing a few hundred terms."""
    lo = hi = min_tail_cutoff(spec)
    while tail_bound_exact(spec, hi) > budget:
        if hi == MAX_TERMS:
            raise PrecisionError(f"the tail bound needs a cutoff K > {MAX_TERMS}: "
                                 f"the work budget is {MAX_TERMS} terms")
        lo, hi = hi + 1, min(2 * hi, MAX_TERMS)
    while hi - lo > hi // 64:  # hi meets the budget, the last K < lo checked missed it
        mid = (lo + hi) // 2
        if tail_bound_exact(spec, mid) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return hi


# ---------------------------------------------------------------------------
# fixed-point summation


def channel_scale(spec: SeriesSpec) -> int:
    """L: the least common denominator of every channel coefficient."""
    return math.lcm(*(c.denominator for cs in spec.channels.values() for c in cs))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(slots=True)
class TermState:
    """Fixed-point state at index k, every value scaled by 2^prec:
    B ~ 2^prec |x|^k C(4k,k)^(+-1), low by at most eB, and, for each harmonic
    channel j the spec uses, harm[j] ~ 2^prec H_{jk}, low by less than jk."""

    k: int
    prec: int
    B: int
    eB: int
    harm: dict[int, int]

    @staticmethod
    def initial(spec: SeriesSpec, prec: int) -> "TermState":
        """The state at k = 0, where every value is exact."""
        return TermState(0, prec, 1 << prec, 0, {j: 0 for j in spec.channels if j})

    def advance(self, spec: SeriesSpec) -> None:
        """Step to k + 1 by floor divisions, growing the error bounds."""
        k, one = self.k, 1 << self.prec
        a, b = _magnitude_step(spec, k)
        self.B, rem = divmod(self.B * a, b)
        self.eB = _ceil_div(self.eB * a, b) + (rem != 0)
        for j, h in self.harm.items():
            for i in range(j * k + 1, j * k + j + 1):
                h += one // i
            self.harm[j] = h
        self.k = k + 1


def fixed_point_terms(spec: SeriesSpec, K: int, prec: int) -> Iterator[tuple[int, int, int]]:
    """Yield (k, T, err) for spec.start <= k <= K, where T and the integer err
    bound the exact term: |T - L 2^prec t_k| <= err, with L = channel_scale(spec)."""
    one = 1 << prec
    scale = channel_scale(spec)
    polys = {j: [int(c * scale) for c in cs] for j, cs in spec.channels.items()}
    negative = spec.x < 0
    state = TermState.initial(spec, prec)
    while True:
        k = state.k
        if k >= spec.start:
            N = eN = 0
            for j, coeffs in polys.items():
                r = 0
                for c in reversed(coeffs):
                    r = r * k + c
                N += r * state.harm[j] if j else r * one
                eN += abs(r) * j * k
            d = spec.denominator_at(k)
            B, eB = state.B, state.eB
            v = B * N
            if (negative and k % 2 == 1) != (d < 0):
                v = -v
            d = abs(d)
            T, rem = divmod(v >> prec, d)
            exact = rem == 0 and v & (one - 1) == 0
            err = B * eN + abs(N) * eB + eB * eN
            yield k, T, _ceil_div(_ceil_div(err, one), d) + (not exact)
        if k == K:
            return
        state.advance(spec)


def _working_bits(spec: SeriesSpec, K: int, digits: int) -> int:
    """P for a sum to K whose tracked error is below 10^-digits / 4.

    Per term the error is at most about 2^-P (m_k A_k 4k + A_k H_{4k} e_k + 2),
    with m_k = |x|^k C(4k,k)^e, A_k = sum_j |Rj(k)| / |D(k)| and the
    magnitude bound e_k <= 2k max_{i<=k} m_i.  Floats only estimate the logs.
    """
    peak = 0.0                      # log2 of max_{k<=K} m_k; m_0 = 1
    level, k = 0.0, 0
    while k < K:                    # m_k rises only while the ratio exceeds 1
        a, b = _magnitude_step(spec, k)
        if a <= b:
            break
        level += math.log2(a / b)
        peak = max(peak, level)
        k += 1
    coeff = max(sum(abs(c) for c in cs) for cs in spec.channels.values())
    coeff_bits = coeff.numerator.bit_length() - coeff.denominator.bit_length() + 4
    per_term = (peak + coeff_bits + spec.max_degree() * math.log2(K + 1)
                + math.log2(4 * K + 2 * K * (2 + math.log(4 * K + 1)) + 1))
    bits = digits * math.log2(10) + 2 + math.log2(K + 1) + max(per_term, 0.0) + 2
    return math.ceil(bits) + GUARD_BITS


def sum_series(spec: SeriesSpec, digits: int = 50) -> Ball:
    """Enclosure of the series value with radius <= 10^-digits.

    The cutoff K is chosen first, so that the certified tail bound is at most
    half the radius budget; then one fixed-point pass at an a-priori
    precision sums the terms up to K.  The last tail bound computed is the
    one at K, so a trace of the calls reads the cutoff the sum used.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    target = Fraction(1, 10**digits)
    out_prec = _bits_for_digits(digits + 20)
    if spec.is_zero():
        return Ball.exact(0, out_prec)
    K = _cutoff(spec, target / 2)
    tail = tail_bound_exact(spec, K)
    prec = _working_bits(spec, K, digits)
    S = E = 0
    for _, T, err in fixed_point_terms(spec, K, prec):
        S += T
        E += err
    unit = channel_scale(spec) << prec
    # endpoints keep out_prec bits below the leading bit of the value
    magnitude = (abs(S) + E).bit_length() - unit.bit_length() + 1
    ball = Ball(Fraction(S - E, unit) - tail, Fraction(S + E, unit) + tail,
                out_prec + max(magnitude, 0))
    if ball.radius() > target:
        raise PrecisionError("radius target unreachable")
    return ball


def _bits_for_digits(digits: int) -> int:
    """floor(digits log2(10)) + 16, in integers."""
    return (10**digits).bit_length() + 15
