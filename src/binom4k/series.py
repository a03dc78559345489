"""Rigorous evaluation of the series family

    sum_k  x^k * C(4k,k)^(+-1) * [R0(k) + sum_j Rj(k) * H_{jk}] / D(k)

with rational channel polynomials Rj (j = 1..4 attaches the harmonic number
H_{jk}) and D(k) a product of the linear factors that occur in the catalog.

The terms up to a cutoff K are summed in integer fixed-point arithmetic at P
bits, every value scaled by 2^P, each carried with an integer bound on its
error in units of the last place (the series evaluation of Haible and
Papanikolaou, with midpoint-radius error accounting as in Arb).  With
m_k = |x|^k C(4k,k)^(+-1) and a_k / b_k = m_{k+1} / m_k the exact term ratio
(small integers), every value is advanced by a small-integer multiply and a
floor division, as in mpmath's hypergeometric summator:

    B_k     ~ 2^P m_k, advanced by B_{k+1} = floor(B_k a_k / b_k); B_k is low
              by at most e_k, e_{k+1} = ceil(e_k a_k / b_k) + 1 (+0 when the
              floor was exact)
    C_{j,k} ~ 2^P m_k H_{jk} for each harmonic channel j the spec uses,
              advanced by C_{j,k+1} = floor((C_{j,k} + sum_i floor(B_k / i)) a_k / b_k)
              over i = jk+1 .. jk+j; it is low by at most e_{C_j,k}, with
              e_{C_j,k+1} = ceil((e_{C_j,k} + sum_i (ceil(e_k / i) + 1)) a_k / b_k) + 1
              (+0 when the floor was exact)

One common denominator L makes every channel polynomial integral, and with
C_0 = B term k is floor(+-sum_j L Rj(k) C_j / |D(k)|) ~ L 2^P t_k, a sum of
P-bit by small-integer products.  Its integer error bound is
ceil(sum_j |L Rj(k)| e_{C_j} / |D(k)|) plus one unit for the floor, unless that
floor divided exactly: an exactly representable sum stays exact.  With S the
sum of the terms and E the sum of their bounds, the partial sum lies in
[(S - E) / (L 2^P), (S + E) / (L 2^P)].  P is fixed before the sum from the
digits, K, the coefficient sizes and the peak of m_k for k <= K.  Floats only
choose P; the enclosure is built from the tracked integers, and a bound that
still misses the target raises PrecisionError.  Specs that share x and the
binomial power share B_k and every C_{j,k}: `sum_many` sums them in one pass,
to their largest K at their largest P (more bits only shrink the tracked
error), each taking its terms up to its own K.  With jobs > 1 the passes
run in forked processes (`workers`), with the same results.

Every integer of a spec is derived once, at its first use, into its integer
form `SeriesSpec.ints`: |x| = xn / xd and the sign of x, L, the coefficients
of each L Rj from the highest degree and their absolute values, the (a, b)
of each factor a k + b of D(k), and the largest degree.  The pass, the unit
of `sum_many`, the ratio bound (an integer pair), the envelope (one integer
Horner over 10 L), `_working_bits` and the cutoff estimate all read it.

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
K is chosen by bisection on a float estimate of the log2 of this bound
(lgamma for C(4k,k), log2 of the exact integers for the rest), never above
the work budget MAX_TERMS; one exact evaluation of the bound then certifies
K, and only if it misses does the search step upward on the exact bound.
Floats only choose K, as they only choose P.  No asymptotics are assumed
anywhere.
"""

from __future__ import annotations

import math
import operator
import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def ints(self) -> IntForm:
        """The integer form of the module docstring, derived at its first use."""
        return _integer_form(self)

    def denominator_at(self, k: int) -> int:
        d = math.prod(a * k + b for a, b in self.ints.factors)
        if d == 0:
            raise SpecError(f"index excluded: denominator vanishes at k={k}")
        return d

    def is_zero(self) -> bool:
        return not self.channels


IntForm = namedtuple("IntForm", "xn xd negative scale channels abs_channels factors degree")


def _integer_form(spec: SeriesSpec) -> IntForm:
    L = math.lcm(*(c.denominator for cs in spec.channels.values() for c in cs))
    chans = tuple((j, tuple(c.numerator * (L // c.denominator) for c in reversed(cs)))
                  for j, cs in spec.channels.items())
    return IntForm(abs(spec.x.numerator), spec.x.denominator, spec.x < 0, L, chans,
                   tuple((j, tuple(map(abs, cs))) for j, cs in chans),
                   tuple(DENOM_FACTORS[n] for n in spec.denominator_factors),
                   max((len(cs) - 1 for cs in spec.channels.values()), default=0))


def _rho(k: int) -> tuple[int, int]:
    """rho(k) = C(4(k+1),k+1) / C(4k,k) as (numerator, denominator)."""
    return 4 * (4 * k + 1) * (4 * k + 2) * (4 * k + 3), (3 * k + 1) * (3 * k + 2) * (3 * k + 3)


# ---------------------------------------------------------------------------
# certified tail bounds


def _ratio_bound(spec: SeriesSpec, K: int) -> tuple[int, int]:
    """qbar(K) as (N, D), qbar = N / D: upper bound for T(k+1)/T(k) valid for every k >= K+1."""
    f, g = spec.ints, spec.ints.degree + 1   # growth (1 + 1/(K+1))^g
    if spec.binomial_power == 1:
        num, den = 256, 27  # rho(k) < 256/27 for all k
    else:
        num, den = _rho(K + 1)[::-1]  # rho increasing => 1/rho(k) <= 1/rho(K+1)
    return f.xn * num * (K + 2) ** g, f.xd * den * (K + 1) ** g


def min_tail_cutoff(spec: SeriesSpec) -> int:
    """The least K >= max(start, 1) with a certified contraction ratio
    qbar(K) < 1 (qbar decreases in K), by the same search as the cutoff."""
    return _first_fit(max(spec.start, 1), lambda K: operator.lt(*_ratio_bound(spec, K)),
                      "no certified contraction ratio at cutoff K <=")


def _envelope_sum(spec: SeriesSpec, k: int) -> int:
    """n = 10 L sum_j Rj+(k) h_j, with h_j = 1 + (7/10) bitlength(jk) >= H_{jk}
    for k >= 1 (H_n <= 1 + ln n) and h_0 = 1: the channel sum of T(k) times
    10 L, the one place the envelope's channels and harmonic bound are read."""
    n = 0
    for j, cs in spec.ints.abs_channels:
        r = 0
        for c in cs:
            r = r * k + c
        n += r * (10 + 7 * (j * k).bit_length())
    return n


def _envelope_at(spec: SeriesSpec, k: int) -> Fraction:
    """Upper bound of T(k), rounded up to 64 significant bits.

    Exact but for H_n, which is bounded above, and the final rounding, which
    spares a gcd of numbers with O(k) digits."""
    f = spec.ints
    num = Fraction(_envelope_sum(spec, k), 10 * f.scale)  # reduced, for the rounding's bit lengths
    a = f.xn ** k * num.numerator
    b = f.xd ** k * num.denominator * abs(spec.denominator_at(k))
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
    N, D = _ratio_bound(spec, K)
    if N >= D:
        raise SpecError(f"cutoff {K} below the certified index K0={min_tail_cutoff(spec)}")
    return _envelope_at(spec, K + 1) * D / (D - N)


def _tail_log2_estimator(spec: SeriesSpec):
    """K -> a float estimate of log2 tail_bound_exact(spec, K): the log2 of
    the certificate's own integers, the envelope sum n, the ratio bound
    (N, D), 10 L and D(k), with lgamma for C(4k,k) and log2 |x| its only
    floats.  -inf when the bound is 0, +inf exactly when N >= D.  It never
    raises: nothing that can leave the float range is exponentiated."""
    f = spec.ints
    log2_x = math.log2(f.xn) - math.log2(f.xd) if f.xn else -math.inf

    def estimate(K: int) -> float:
        k = K + 1
        n = _envelope_sum(spec, k)
        if not n or log2_x == -math.inf:
            return -math.inf
        N, D = _ratio_bound(spec, K)
        if N >= D:
            return math.inf
        ln_binom = math.lgamma(4 * k + 1) - math.lgamma(k + 1) - math.lgamma(3 * k + 1)
        return (k * log2_x + spec.binomial_power * ln_binom / math.log(2) + math.log2(n * D)
                - math.log2((D - N) * 10 * f.scale * abs(spec.denominator_at(k))))

    return estimate


# log2 slack of the float cutoff search.  The estimate is within about 1e-9 of
# the exact log2 (lgamma of arguments up to 4 MAX_TERMS), so the K it picks is
# never above the minimal certified one, and is below it only when the bound
# at the minimal K - 1 misses the budget by less than this factor.
ESTIMATE_SLACK = 1e-6


def _first_fit(lo: int, fits, miss: str = "the tail bound needs a cutoff K >") -> int:
    """Least K >= lo with fits(K), for a predicate that stays true once true:
    doubling steps capped at MAX_TERMS, then bisection.  PrecisionError,
    its message opening with `miss` and MAX_TERMS, when MAX_TERMS misses or
    lo is above it (then before any probe)."""
    hi = min(lo, MAX_TERMS)
    while lo > MAX_TERMS or not fits(hi):
        if hi == MAX_TERMS:
            raise PrecisionError(f"{miss} {MAX_TERMS}: the work budget is {MAX_TERMS} terms")
        lo, hi = hi + 1, min(2 * hi, MAX_TERMS)
    while lo < hi:  # hi fits, every K < lo checked missed
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _cutoff(spec: SeriesSpec, budget: Fraction) -> tuple[int, Fraction]:
    """The least cutoff K <= MAX_TERMS with tail_bound_exact(spec, K) <= budget,
    and that bound.

    The search runs on the float estimate; one exact bound then certifies
    its K, and only when that misses does the search go on upward on the
    exact bound.  Either way the last exact bound computed is the one at
    the K returned."""
    target = math.log2(budget.numerator) - math.log2(budget.denominator) + ESTIMATE_SLACK
    estimate = _tail_log2_estimator(spec)
    K = _first_fit(min_tail_cutoff(spec), lambda K: estimate(K) <= target)
    bound = tail_bound_exact(spec, K)
    if bound > budget:
        K = _first_fit(K + 1, lambda K: tail_bound_exact(spec, K) <= budget)
        # the bisection may have ended on a miss at K - 1
        bound = tail_bound_exact(spec, K)
    return K, bound


# ---------------------------------------------------------------------------
# fixed-point summation


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class TermState:
    """The start of a pass, called once per pass (a tracer counts passes by it)."""

    @staticmethod
    def initial(channels: list[int], prec: int) -> tuple[list[int], list[int]]:
        """The fixed-point values at k = 0, where every value is exact, and
        their error bounds, all 0: slot 0 holds B = 2^prec m_0 and slot n the
        C_j = 2^prec m_0 H_0 = 0 of the n-th harmonic channel in `channels`."""
        return [1 << prec] + [0] * len(channels), [0] * (len(channels) + 1)


def fixed_point_terms(specs: list[SeriesSpec], cutoffs: list[int],
                      prec: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (i, k, T, err) for each spec i and specs[i].start <= k <= cutoffs[i]:
    |T - L 2^prec t_k| <= err for the exact term t_k of spec i, L = specs[i].ints.scale.
    The specs share x and the binomial power, so one B stream and one C_j stream
    per harmonic channel serve them all (the recurrences of the module docstring)."""
    js = sorted({j for s in specs for j in s.channels if j})
    values, errors = TermState.initial(js, prec)  # slot n > 0 holds C_j, j = js[n - 1]
    slot = {j: n for n, j in enumerate([0] + js)}
    plans = [(i, spec.start, K, [(slot[j], cs) for j, cs in spec.ints.channels], spec.ints.factors)
             for i, (spec, K) in enumerate(zip(specs, cutoffs))]
    f, power = specs[0].ints, specs[0].binomial_power
    for k in range(max(cutoffs) + 1):
        flip = f.negative and k % 2 == 1   # the sign of x^k
        if k:
            num, den = _rho(k - 1)[::power]   # m_k / m_{k-1} = |x| rho(k-1)^(+-1)
            a, b = f.xn * num, f.xd * den
            B, eB = values[0], errors[0]
            for n, j in enumerate(js, 1):
                s, es = values[n], errors[n]
                for i in range(j * k - j + 1, j * k + 1):
                    s += B // i
                    es += -(-eB // i) + 1
                values[n], rem = divmod(s * a, b)
                errors[n] = -(-es * a // b) + (rem != 0)
            values[0], rem = divmod(B * a, b)
            errors[0] = -(-eB * a // b) + (rem != 0)
        for i, start, K, rs, factors in plans:
            if not start <= k <= K:
                continue
            v = e = 0
            for n, coeffs in rs:
                r = 0
                for c in coeffs:
                    r = r * k + c
                v += r * values[n]
                e += abs(r) * errors[n]
            d = 1
            for fa, fb in factors:
                d *= fa * k + fb
            if flip != (d < 0):
                v = -v
            d = abs(d)
            T, rem = divmod(v, d)
            yield i, k, T, -(-e // d) + (rem != 0)


def _working_bits(spec: SeriesSpec, K: int, digits: int) -> int:
    """P for a sum to K whose tracked error is below 10^-digits / 4.

    Per term the error is at most about 2^-P (A_k e_{C,k} + 1), with
    A_k = sum_j |Rj(k)| / |D(k)|, the magnitude bound e_k <= 2k max_{i<=k} m_i
    and e_{C,k} <= H_{4k} e_k + 9k max_{i<=k} m_i, since each step adds at
    most e_k (H_{j(k+1)} - H_{jk}) + 2j + 1 units to e_C before scaling.
    Floats only estimate the logs.
    """
    f = spec.ints
    peak = 0.0                      # log2 of max_{k<=K} m_k; m_0 = 1
    level, k = 0.0, 0
    while k < K:                    # m_k rises only while the ratio exceeds 1
        num, den = _rho(k)[::spec.binomial_power]
        a, b = f.xn * num, f.xd * den
        if a <= b:
            break
        level += math.log2(a / b)
        peak = max(peak, level)
        k += 1
    coeff = Fraction(max(sum(cs) for _, cs in f.abs_channels), f.scale)  # reduced, as below
    coeff_bits = coeff.numerator.bit_length() - coeff.denominator.bit_length() + 4
    per_term = (peak + coeff_bits + f.degree * math.log2(K + 1)
                + math.log2(K * (11 + 2 * math.log(4 * K + 1)) + 1))
    bits = digits * math.log2(10) + 2 + math.log2(K + 1) + max(per_term, 0.0) + 2
    return math.ceil(bits) + GUARD_BITS


def sum_many(requests: list[tuple[SeriesSpec, int]],
             jobs: int = 1) -> list[tuple[Ball | Exception, float]]:
    """For each (spec, digits): an enclosure with radius <= 10^-digits, or the
    SpecError or ArithmeticError that spec ran into; and its seconds, its
    cutoff search plus its share of its pass by the terms it summed.  Specs
    that share x and the binomial power share one pass (module docstring)."""
    results: list = [None] * len(requests)
    groups: dict[tuple, list[int]] = {}
    for n, (spec, digits) in enumerate(requests):
        if digits < 1:
            raise ValueError("digits must be >= 1")
        groups.setdefault((spec.x, spec.binomial_power), []).append(n)
    items = []  # (P, members), a member (n, spec, K, tail, cutoff seconds)
    for group in groups.values():
        members, prec = [], 0
        for n in group:
            spec, digits = requests[n]
            t0 = time.perf_counter()
            if spec.is_zero():
                results[n] = Ball.exact(0, _bits_for_digits(digits + 20)), time.perf_counter() - t0
                continue
            try:
                K, tail = _cutoff(spec, Fraction(1, 10**digits) / 2)
                prec = max(prec, _working_bits(spec, K, digits))
            except (SpecError, ArithmeticError) as exc:
                results[n] = exc, time.perf_counter() - t0
                continue
            members.append((n, spec, K, tail, time.perf_counter() - t0))
        if members:
            items.append((prec, members))
    if jobs > 1:
        from .workers import run_passes
        done = run_passes(items, jobs)
    else:
        done = [(item, _run_pass(item)) for item in items]
    for (prec, members), outcome in done:
        if isinstance(outcome, Exception):
            for n, _, _, _, cutoff_s in members:
                results[n] = outcome, cutoff_s
            continue
        S, E, pass_s = outcome
        terms = sum(K - spec.start + 1 for _, spec, K, _, _ in members)
        for i, (n, spec, K, tail, cutoff_s) in enumerate(members):
            digits = requests[n][1]
            unit = spec.ints.scale << prec
            # endpoints keep out_prec bits below the leading bit of the value
            magnitude = (abs(S[i]) + E[i]).bit_length() - unit.bit_length() + 1
            ball = Ball(Fraction(S[i] - E[i], unit) - tail, Fraction(S[i] + E[i], unit) + tail,
                        _bits_for_digits(digits + 20) + max(magnitude, 0))
            if ball.radius() > Fraction(1, 10**digits):
                ball = PrecisionError("radius target unreachable")
            results[n] = ball, cutoff_s + pass_s * (K - spec.start + 1) / terms
    return results


def _run_pass(item):
    """S and E per member of an item, and the pass's seconds."""
    prec, members = item
    S, E = [0] * len(members), [0] * len(members)
    t0 = time.perf_counter()
    for i, _, T, err in fixed_point_terms([m[1] for m in members], [m[2] for m in members], prec):
        S[i] += T
        E[i] += err
    return S, E, time.perf_counter() - t0


def sum_series(spec: SeriesSpec, digits: int = 50) -> Ball:
    """`sum_many` of one spec, raising its error.  The last tail bound it
    computes is the one at its cutoff K, so a trace reads the K it used."""
    result, _ = sum_many([(spec, digits)])[0]
    if isinstance(result, Exception):
        raise result
    return result


def _bits_for_digits(digits: int) -> int:
    """floor(digits log2(10)) + 16, in integers."""
    return (10**digits).bit_length() + 15
