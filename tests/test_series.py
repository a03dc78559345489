"""Series engine: terms, recurrences, certified tails, full summation."""

import math
import random
from fractions import Fraction as F

import pytest

from binom4k.balls import const_pi
from binom4k.series import (
    DENOM_FACTORS,
    SeriesSpec,
    SpecError,
    channel_scale,
    fixed_point_terms,
    harmonic,
    min_tail_cutoff,
    sum_series,
    tail_bound_exact,
)

EQ11 = SeriesSpec(x=F(1, 16), channels={0: (11, -92, 22)})
RECIP_PI = SeriesSpec(x=F(8), binomial_power=-1, start=1, channels={0: (1, -4, 5)},
                      denominator_factors=("k", "3k-1", "3k-2"))


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(2) == F(3, 2)
    assert harmonic(4) == sum(F(1, i) for i in range(1, 5)) == F(25, 12)


def test_harmonic_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


class TestSpecValidation:
    def test_radius_rejected(self):
        with pytest.raises(SpecError, match="radius"):
            SeriesSpec(x=F(1, 8), channels={0: (1,)})

    def test_reciprocal_radius_rejected(self):
        with pytest.raises(SpecError):
            SeriesSpec(x=F(10), binomial_power=-1, channels={0: (1,)})

    def test_k_factor_needs_start_one(self):
        with pytest.raises(SpecError, match="start"):
            SeriesSpec(x=F(1, 16), channels={0: (1,)}, denominator_factors=("k",))

    def test_unknown_factor(self):
        with pytest.raises(SpecError, match="factor"):
            SeriesSpec(x=F(1, 16), channels={0: (1,)}, denominator_factors=("5k+1",))

    def test_bad_channel(self):
        with pytest.raises(SpecError):
            SeriesSpec(x=F(1, 16), channels={7: (1,)})


def _exact_terms(spec, K):
    """t_k for start <= k <= K from math.comb and exact harmonic sums."""
    terms = {}
    for k in range(spec.start, K + 1):
        num = F(0)
        for j, cs in spec.channels.items():
            pv = sum(c * k**i for i, c in enumerate(cs))
            num += pv if j == 0 else pv * sum(F(1, i) for i in range(1, j * k + 1))
        t = spec.x**k * num / spec.denominator_at(k)
        c = math.comb(4 * k, k)
        terms[k] = t * c if spec.binomial_power == 1 else t / c
    return terms


def _checked_terms(spec, K, prec=200):
    """The fixed-point terms, each checked against the exact term within its
    tracked error bound."""
    scale = channel_scale(spec) << prec
    exact = _exact_terms(spec, K)
    got = list(fixed_point_terms(spec, K, prec))
    assert [k for k, _, _ in got] == list(exact)
    for k, T, err in got:
        assert abs(T - scale * exact[k]) <= err, k
    return got


class TestTerms:
    def test_eq11_k0(self):
        assert _checked_terms(EQ11, 0) == [(0, 11 << 200, 0)]

    def test_eq11_k1(self):
        # (22-92+11)*4/16, exact in binary
        assert _checked_terms(EQ11, 1)[1] == (1, -59 << 198, 0)

    def test_reciprocal_k1(self):
        # 2*8/(1*2*1*4), exact in binary
        assert _checked_terms(RECIP_PI, 1) == [(1, 2 << 200, 0)]

    def test_inexact_floor_costs_one_unit(self):
        # B_1 = 2^198 and N_1 = 2^200 are exact; dividing by D(1) = 5 is not
        spec = SeriesSpec(x=F(1, 16), channels={0: (1,)}, denominator_factors=("3k+2",))
        assert _checked_terms(spec, 1) == [(0, 1 << 199, 0), (1, (1 << 198) // 5, 1)]

    def test_recurrences_match_direct(self):
        spec = SeriesSpec(x=F(-1, 72), start=0,
                          channels={0: (1, 2), 1: (3,), 2: (1, 1), 3: (2,), 4: (0, 5)},
                          denominator_factors=("3k+1",))
        got = _checked_terms(spec, 30)
        # the bounds are tight: a few thousand ulps of 2^-200
        assert max(err for _, _, err in got) < 2**16

    def test_reciprocal_terms_grow_then_shrink(self):
        """At x = 9 the ratios x/rho(k) exceed 1 for the first terms, so the
        magnitude errors grow before they shrink."""
        spec = SeriesSpec(x=F(9), binomial_power=-1, start=1, channels={0: (1, -4, 5), 2: (1,)},
                          denominator_factors=("3k-1",))
        got = _checked_terms(spec, 60)
        assert max(err for _, _, err in got) < 2**16

    def test_vanishing_denominator_is_error(self):
        spec = SeriesSpec(x=F(1, 16), start=1, channels={0: (1,)},
                          denominator_factors=("k",))
        with pytest.raises(SpecError, match="excluded"):
            spec.denominator_at(0)


class TestTailBound:
    def test_oracle_200_terms(self):
        """Bound at K=10 dominates the exact remainder summed to 200 terms."""
        spec = SeriesSpec(x=F(1, 16), channels={0: (1,)})
        exact_tail = sum(F(math.comb(4 * k, k)) * F(1, 16) ** k for k in range(11, 201))
        assert tail_bound_exact(spec, 10) >= exact_tail

    def test_oracle_with_harmonics(self):
        spec = SeriesSpec(x=F(1, 16), start=1, channels={4: (0, 11, -92, 22)},
                          denominator_factors=("k",))
        K = max(min_tail_cutoff(spec), 12)
        exact_tail = abs(sum(
            F(math.comb(4 * k, k)) * F(1, 16) ** k
            * (11 * k - 92 * k**2 + 22 * k**3)
            * sum(F(1, i) for i in range(1, 4 * k + 1)) / k
            for k in range(K + 1, 300)))
        assert tail_bound_exact(spec, K) >= exact_tail

    def test_x_zero_tail(self):
        spec = SeriesSpec(x=F(0), channels={0: (1,)})
        assert tail_bound_exact(spec, 5) == 0

    def test_strict_decrease(self):
        spec = SeriesSpec(x=F(1, 16), channels={0: (1,)})
        assert tail_bound_exact(spec, 20) < tail_bound_exact(spec, 10)

    def test_below_cutoff_errors(self):
        K0 = min_tail_cutoff(RECIP_PI)
        assert K0 > 1
        with pytest.raises(SpecError, match="K0"):
            tail_bound_exact(RECIP_PI, 1)

    def test_reciprocal_ratio_contracts(self):
        """Certified ratio is < 1 at K0 and decreases with K."""
        from binom4k.series import _ratio_bound
        K0 = min_tail_cutoff(RECIP_PI)
        q0 = _ratio_bound(RECIP_PI, K0)
        assert q0 < 1
        assert _ratio_bound(RECIP_PI, K0 + 10) < q0


class TestSumSeries:
    def test_eq11_thirty_digits(self):
        b = sum_series(EQ11, 30)
        assert b.lo <= -5 <= b.hi
        assert b.radius() <= F(1, 10**30)

    def test_lemma43_value(self):
        spec = SeriesSpec(x=F(1, 16), start=1, channels={0: (-59, -199, 194, 966, 638)},
                          denominator_factors=("k+1", "3k+1", "3k+2"))
        b = sum_series(spec, 30)
        assert b.lo <= F(103, 2) <= b.hi

    def test_zero_spec(self):
        b = sum_series(SeriesSpec(x=F(1, 16), channels={}), 20)
        assert b.lo == b.hi == 0

    def test_reciprocal_pi(self):
        b = sum_series(RECIP_PI, 30)
        d = b - F(3, 2) * const_pi(160)
        assert d.contains_zero()

    def test_nesting_and_radius_drop(self):
        b10 = sum_series(EQ11, 10)
        b20 = sum_series(EQ11, 20)
        assert b10.lo_fraction() <= b20.hi_fraction() and b20.lo_fraction() <= b10.hi_fraction()
        assert b20.radius() * 10 <= b10.radius()

    def test_partial_sum_inside_enclosure_with_tail(self):
        spec = SeriesSpec(x=F(-1, 256), channels={4: (2,), 2: (-3,), 1: (1,), 0: (5, 182)})
        b = sum_series(spec, 10)
        s = F(0)
        for k in range(0, 120):
            h = [sum(F(1, i) for i in range(1, j * k + 1)) for j in (1, 2, 4)]
            val = (2 * h[2] - 3 * h[1] + h[0]) + (5 + 182 * k)
            s += math.comb(4 * k, k) * F(-1, 256) ** k * val
        # 120 exact terms lie within the enclosure plus its own tail bound
        tb = tail_bound_exact(spec, 119)
        assert b.lo_fraction() - tb <= s <= b.hi_fraction() + tb


def test_reciprocal_random_specs_contain_partial_sums():
    """Same property for reciprocal-binomial specs with |x| up to 9."""
    rng = random.Random(101)
    for _ in range(4):
        x = F(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 3))
        spec = SeriesSpec(x=x, binomial_power=-1, start=1,
                          channels={0: (F(rng.randint(-9, 9)), F(rng.randint(1, 9)))},
                          denominator_factors=("3k-1",))
        b = sum_series(spec, 12)
        s = F(0)
        for k in range(1, 801):
            num = spec.channels[0][0] + spec.channels[0][1] * k
            s += x**k * num / ((3 * k - 1) * math.comb(4 * k, k))
        tb = tail_bound_exact(spec, 800)
        assert b.lo_fraction() - tb <= s <= b.hi_fraction() + tb


def test_random_specs_contain_partial_sums():
    """Property: enclosure at D=12 contains a 400-term independent partial sum
    within the certified tail bound, for random well-formed specs."""
    rng = random.Random(99)
    for _ in range(8):
        x = F(rng.choice([1, -1]) * rng.randint(1, 20), 256)
        chans = {}
        for j in rng.sample((0, 1, 2, 3, 4), rng.randint(1, 3)):
            chans[j] = tuple(F(rng.randint(-30, 30)) for _ in range(rng.randint(1, 3)))
        dens = tuple(rng.sample(("k+1", "3k+1", "3k+2", "2k-1"), rng.randint(0, 2)))
        spec = SeriesSpec(x=x, start=1, channels=chans, denominator_factors=dens)
        if spec.is_zero():
            continue
        b = sum_series(spec, 12)
        s = F(0)
        H = dict.fromkeys(spec.channels, F(0))     # running H_{jk}
        for k in range(1, 401):
            num = F(0)
            for j, cs in spec.channels.items():
                H[j] += sum(F(1, i) for i in range(j * (k - 1) + 1, j * k + 1))
                pv = sum(c * k**i for i, c in enumerate(cs))
                num += pv if j == 0 else pv * H[j]
            den = F(1)
            for name in dens:
                a, bb = {"k+1": (1, 1), "3k+1": (3, 1), "3k+2": (3, 2), "2k-1": (2, -1)}[name]
                den *= a * k + bb
            s += math.comb(4 * k, k) * x**k * num / den
        tb = tail_bound_exact(spec, 400)
        assert b.lo_fraction() - tb <= s <= b.hi_fraction() + tb


def _mpmath_sum(spec, dps: int, cut_digits: int):
    """mpmath value of the series at `dps` digits by the test's own
    recurrences, summed until the absolute-value envelope of the terms has
    stayed below 10^-cut_digits and shrunk for 20 consecutive terms."""
    import mpmath

    with mpmath.workdps(dps):
        mpq = lambda q: mpmath.mpf(q.numerator) / q.denominator
        x = mpq(spec.x)
        coeffs = {j: [mpq(cf) for cf in cs] for j, cs in spec.channels.items()}
        k = spec.start
        c = math.comb(4 * k, k)
        base = x**k * c if spec.binomial_power == 1 else x**k / c
        harm = {j: mpmath.fsum(1 / mpmath.mpf(i) for i in range(1, j * k + 1))
                for j in spec.channels if j}
        eps = mpmath.mpf(10) ** -cut_digits
        total, quiet, last = mpmath.mpf(0), 0, None
        while quiet < 20:
            num = env = mpmath.mpf(0)
            for j, cs in coeffs.items():
                powers = [k**i for i in range(len(cs))]
                h = harm[j] if j else 1
                num += sum(cf * p for cf, p in zip(cs, powers)) * h
                env += sum(abs(cf) * p for cf, p in zip(cs, powers)) * h
            d = 1
            for name in spec.denominator_factors:
                a, b = DENOM_FACTORS[name]
                d *= a * k + b
            total += base * num / d
            env = abs(base) * env / abs(d)
            quiet = quiet + 1 if env < eps and last is not None and env < last else 0
            last = env
            rho = F(4 * (4 * k + 1) * (4 * k + 2) * (4 * k + 3),
                    (3 * k + 1) * (3 * k + 2) * (3 * k + 3))
            base *= x * mpq(rho if spec.binomial_power == 1 else 1 / rho)
            for j in harm:
                for i in range(1, j + 1):
                    harm[j] += 1 / mpmath.mpf(j * k + i)
            k += 1
        return total


def test_catalog_components_200_digits_against_mpmath():
    """Every catalog component at 200 digits: radius <= 10^-200, and the
    enclosure holds an mpmath sum at 260 digits (a test oracle only)."""
    import mpmath

    from binom4k.catalog import builtin_catalog

    slack = F(1, 10**240)
    for entry in builtin_catalog():
        for _, spec in entry.components:
            b = sum_series(spec, 200)
            assert b.radius() <= F(1, 10**200), entry.id
            ref = _mpmath_sum(spec, 260, 250)
            lo, hi = b.lo_fraction() - slack, b.hi_fraction() + slack
            with mpmath.workdps(300):
                assert (mpmath.mpf(lo.numerator) / lo.denominator <= ref
                        <= mpmath.mpf(hi.numerator) / hi.denominator), entry.id
