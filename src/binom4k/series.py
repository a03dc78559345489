"""Rigorous evaluation of the series family

    sum_k  x^k * C(4k,k)^(+-1) * [R0(k) + sum_j Rj(k) * H_{jk}] / D(k)

with rational channel polynomials Rj (j = 1..4 attaches the harmonic number
H_{jk}) and D(k) a product of the linear factors that occur in the catalog.

Every term is assembled as an exact rational and only then rounded into the
enclosure accumulator, so rounding error enters exactly once per term.  The
tail after a cutoff K is bounded by a certified geometric envelope:

    |t_k| <= T(k) := |x|^k C(4k,k)^e (R0+(k) + sum_j Rj+(k) H_{jk}) / D(k)

with Rj+ the absolute-coefficient polynomials, and for k > K

    T(k+1)/T(k) <= qbar(K) := |x| * rho_bound * (1 + 1/(K+1))^(dmax+1) < 1,

where rho(k) = C(4(k+1),k+1)/C(4k,k) = 4(4k+1)(4k+2)(4k+3)/((3k+1)(3k+2)(3k+3))
is strictly increasing to 256/27 (each factor (4k+i)/(3k+i) is increasing),
dmax is the largest channel degree, the extra +1 absorbs harmonic growth via
H_{j(k+1)} <= H_{jk} * (1 + 1/k), and D is increasing.  Hence

    sum_{k>K} |t_k| <= T(K+1) / (1 - qbar)

with T(K+1) evaluated exactly.  No asymptotics are assumed anywhere.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

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


class SpecError(ValueError):
    """Invalid series specification."""


class PrecisionError(ArithmeticError):
    """Requested enclosure radius unreachable within the budget; carries the
    best enclosure found."""

    def __init__(self, msg: str, best: Optional[Ball] = None):
        super().__init__(msg)
        self.best = best


_harmonic_memo: list[Fraction] = [Fraction(0)]
_harmonic_lock = threading.Lock()


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = sum_{0<i<=n} 1/i."""
    if n < 0:
        raise ValueError("harmonic number of a negative index")
    memo = _harmonic_memo
    if len(memo) <= n:
        # growth reads memo[-1] and len(memo) before appending: two threads
        # growing at once would append the same entry twice
        with _harmonic_lock:
            while len(memo) <= n:
                memo.append(memo[-1] + Fraction(1, len(memo)))
    return memo[n]


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

    def denominator_at(self, k: int) -> Fraction:
        d = 1
        for name in self.denominator_factors:
            a, b = DENOM_FACTORS[name]
            d *= a * k + b
        if d == 0:
            raise SpecError(f"index excluded: denominator vanishes at k={k}")
        return Fraction(d)

    def channel_value(self, j: int, k: int) -> Fraction:
        coeffs = self.channels.get(j)
        if not coeffs:
            return Fraction(0)
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * k + c
        return acc

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


@dataclass
class TermState:
    """Exact per-index state, advanced by the product recurrences

    C(4(k+1),k+1) = C(4k,k) * (4k+1)(4k+2)(4k+3)(4k+4) / ((k+1)(3k+1)(3k+2)(3k+3))
    H_{j(k+1)}    = H_{jk} + sum_{i=1..j} 1/(jk+i).
    """

    k: int
    binom: int
    power: Fraction
    harmonics: dict[int, Fraction]

    @staticmethod
    def initial(spec: SeriesSpec) -> "TermState":
        k = spec.start
        return TermState(
            k=k,
            binom=math.comb(4 * k, k),
            power=spec.x ** k,
            harmonics={j: harmonic(j * k) for j in (1, 2, 3, 4)},
        )

    def advance(self, spec: SeriesSpec) -> None:
        k = self.k
        self.binom = (
            self.binom
            * ((4 * k + 1) * (4 * k + 2) * (4 * k + 3) * (4 * k + 4))
            // ((k + 1) * (3 * k + 1) * (3 * k + 2) * (3 * k + 3))
        )
        self.power *= spec.x
        for j in (1, 2, 3, 4):
            h = self.harmonics[j]
            base = j * k
            for i in range(1, j + 1):
                h += Fraction(1, base + i)
            self.harmonics[j] = h
        self.k = k + 1


def term_exact(spec: SeriesSpec, state: TermState) -> Fraction:
    """The exact rational value of term k of the series."""
    num = spec.channel_value(0, state.k)
    for j in (1, 2, 3, 4):
        if j in spec.channels:
            num += spec.channel_value(j, state.k) * state.harmonics[j]
    if num == 0:
        return Fraction(0)
    t = state.power * num / spec.denominator_at(state.k)
    if spec.binomial_power == 1:
        return t * state.binom
    return t / state.binom


# ---------------------------------------------------------------------------
# certified tail bounds


def _binom_ratio(k: int) -> Fraction:
    return Fraction(4 * (4 * k + 1) * (4 * k + 2) * (4 * k + 3),
                    (3 * k + 1) * (3 * k + 2) * (3 * k + 3))


def _ratio_bound(spec: SeriesSpec, K: int) -> Fraction:
    """qbar(K): upper bound for T(k+1)/T(k) valid for every k >= K+1."""
    growth = (1 + Fraction(1, K + 1)) ** (spec.max_degree() + 1)
    if spec.binomial_power == 1:
        rho = Fraction(256, 27)  # rho(k) < 256/27 for all k
    else:
        rho = 1 / _binom_ratio(K + 1)  # rho increasing => 1/rho(k) <= 1/rho(K+1)
    return abs(spec.x) * rho * growth


def min_tail_cutoff(spec: SeriesSpec) -> int:
    """Smallest K with a certified contraction ratio qbar(K) < 1."""
    K = max(spec.start, 1)
    while _ratio_bound(spec, K) >= 1:
        K += max(1, K // 2)
        if K > 10**7:
            raise SpecError("no certified contraction ratio found")
    return K


def _envelope_at(spec: SeriesSpec, k: int) -> Fraction:
    """T(k): exact triangle-inequality envelope of |term k|."""
    num = spec.channel_abs_value(0, k)
    for j in (1, 2, 3, 4):
        if j in spec.channels:
            num += spec.channel_abs_value(j, k) * harmonic(j * k)
    if num == 0:
        return Fraction(0)
    env = abs(spec.x) ** k * num / abs(spec.denominator_at(k))
    c = math.comb(4 * k, k)
    return env * c if spec.binomial_power == 1 else env / c


def tail_bound_exact(spec: SeriesSpec, K: int) -> Fraction:
    """Rigorous upper bound on |sum_{k>K} term_k| as an exact rational."""
    if spec.is_zero():
        return Fraction(0)
    K0 = min_tail_cutoff(spec)
    if K < K0:
        raise SpecError(f"cutoff {K} below the certified index K0={K0}")
    qbar = _ratio_bound(spec, K)
    head = _envelope_at(spec, K + 1)
    return head / (1 - qbar)


# ---------------------------------------------------------------------------
# full summation


def sum_series(spec: SeriesSpec, digits: int = 50) -> Ball:
    """Enclosure of the series value with radius <= 10^-digits.

    Summation is a single pass in increasing k; each term is exact until its
    one outward rounding.  The cutoff doubles until the certified tail bound
    is below half the radius budget; working precision escalates if the
    accumulated rounding consumes the other half.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    target = Fraction(1, 10**digits)
    if spec.is_zero():
        return Ball.zero(_bits_for_digits(digits))
    K = max(min_tail_cutoff(spec), 16)
    while tail_bound_exact(spec, K) > target / 2:
        K *= 2
        if K > 10**7:
            raise PrecisionError("tail bound did not reach the budget")
    tail = tail_bound_exact(spec, K)
    for extra in (20, 40, 80):
        prec = _bits_for_digits(digits + extra)
        acc = Ball.zero(prec)
        state = TermState.initial(spec)
        while state.k <= K:
            t = term_exact(spec, state)
            if t:
                acc = acc + Ball.exact(t, prec)
            state.advance(spec)
        acc = acc + Ball.from_fractions(-tail, tail, prec)
        if acc.radius() <= target:
            return acc
    raise PrecisionError("radius target unreachable", best=acc)


def _bits_for_digits(digits: int) -> int:
    return int(digits * math.log2(10)) + 16
