"""Checks that run outside the timed region.

`series_reference` sums a near-radius spec with mpmath at a working precision
well past the requested digits, by its own recurrences (no binom4k code), so
a binom4k enclosure can be checked against it.  `minimal_cutoff` finds the
smallest certified cutoff for the term-efficiency metric.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from workloads import DENOM_FACTORS


def series_reference(obj: dict, dps: int = 40, cut_digits: int = 32):
    """mpmath value of the series an `eval --spec` dict describes.

    Sums until an envelope of |term| has stayed below 10^-cut_digits and
    been shrinking for 20 consecutive terms; past that point the terms
    shrink geometrically, so the omitted tail is about that size too.
    """
    x = Fraction(obj["x"])
    bp = obj["binomial_power"]
    chans = {int(j): [Fraction(c) for c in cs] for j, cs in obj["channels"].items()}
    dens = [DENOM_FACTORS[d] for d in obj["denominator_factors"]]
    k = obj["start"]
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x.numerator) / x.denominator
        c0 = math.comb(4 * k, k)
        base = xm ** k * (c0 if bp == 1 else mpmath.mpf(1) / c0)   # x^k C(4k,k)^bp
        harm = {j: mpmath.fsum(mpmath.mpf(1) / i for i in range(1, j * k + 1))
                for j in chans if j}
        eps = mpmath.mpf(10) ** -cut_digits
        total = mpmath.mpf(0)
        quiet, last_env = 0, None
        while quiet < 20:
            num = env = mpmath.mpf(0)
            for j, cs in chans.items():
                poly = sum(c * k ** i for i, c in enumerate(cs))
                poly_abs = sum(abs(c) * k ** i for i, c in enumerate(cs))
                h = harm[j] if j else 1
                num += (mpmath.mpf(poly.numerator) / poly.denominator) * h
                env += (mpmath.mpf(poly_abs.numerator) / poly_abs.denominator) * h
            d = math.prod(a * k + b for a, b in dens)
            total += base * num / d
            env = abs(base) * env / abs(d)
            quiet = quiet + 1 if (env < eps and last_env is not None and env < last_env) else 0
            last_env = env
            ratio = Fraction((4 * k + 1) * (4 * k + 2) * (4 * k + 3) * (4 * k + 4),
                             (k + 1) * (3 * k + 1) * (3 * k + 2) * (3 * k + 3))
            if bp == -1:
                ratio = 1 / ratio
            base = base * xm * ratio.numerator / ratio.denominator
            for j in harm:
                for i in range(1, j + 1):
                    harm[j] += mpmath.mpf(1) / (j * k + i)
            k += 1
        return total


def enclosure_agrees(ball, reference, slack=Fraction(1, 10**25)) -> bool:
    """True when the reference lies in the enclosure widened by `slack`,
    which covers the reference's own error."""
    lo, hi = ball.lo_fraction() - slack, ball.hi_fraction() + slack
    with mpmath.workdps(60):
        return (mpmath.mpf(lo.numerator) / lo.denominator <= reference
                <= mpmath.mpf(hi.numerator) / hi.denominator)


def minimal_cutoff(series, spec, digits: int, upper: int) -> int:
    """Smallest K whose certified tail bound meets the budget `sum_series`
    gives the tail (half of 10^-digits), found by bisection on
    `series.tail_bound_exact`, which decreases in K from `min_tail_cutoff` on."""
    budget = Fraction(1, 10**digits) / 2
    lo, hi = series.min_tail_cutoff(spec), upper
    while lo < hi:
        mid = (lo + hi) // 2
        if series.tail_bound_exact(spec, mid) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return lo
