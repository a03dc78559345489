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


def _group_terms(specs, cutoffs, prec):
    """The group kernel's terms of each spec, as a list of (k, T, err) per
    spec: exactly the k with start <= k <= its cutoff, each within its
    tracked error bound of the exact term."""
    got = [[] for _ in specs]
    for i, k, T, err in fixed_point_terms(specs, cutoffs, prec):
        got[i].append((k, T, err))
    for spec, K, terms in zip(specs, cutoffs, got):
        scale = spec.ints.scale << prec
        exact = _exact_terms(spec, K)
        assert [k for k, _, _ in terms] == list(exact)
        for k, T, err in terms:
            assert abs(T - scale * exact[k]) <= err, (spec, prec, k)
    return got


def _checked_terms(spec, K, prec=200):
    """The fixed-point terms of one spec, in a group of one."""
    return _group_terms([spec], [K], prec)[0]


class TestTerms:
    def test_eq11_k0(self):
        assert _checked_terms(EQ11, 0) == [(0, 11 << 200, 0)]

    def test_eq11_k1(self):
        # (22-92+11)*4/16, exact in binary
        assert _checked_terms(EQ11, 1)[1] == (1, -59 << 198, 0)

    def test_terms_step_by_the_certified_ratio(self, monkeypatch):
        """The magnitudes step by `series._rho`, the ratio that
        `genfunc.check_quartic_f` certifies: doubling it doubles the k = 1
        term, and the reciprocal series steps by its inverse."""
        from binom4k import series
        rho = series._rho
        monkeypatch.setattr(series, "_rho", lambda k: (2 * rho(k)[0], rho(k)[1]))
        assert list(fixed_point_terms([EQ11], [1], 200))[1] == (0, 1, -59 << 199, 0)
        assert list(fixed_point_terms([RECIP_PI], [1], 200)) == [(0, 1, 1 << 200, 0)]

    def test_reciprocal_k1(self):
        # 2*8/(1*2*1*4), exact in binary
        assert _checked_terms(RECIP_PI, 1) == [(1, 2 << 200, 0)]

    def test_inexact_floor_costs_one_unit(self):
        # B_1 = 2^198 is exact; dividing by D(1) = 5 is not
        spec = SeriesSpec(x=F(1, 16), channels={0: (1,)}, denominator_factors=("3k+2",))
        want = [(0, 1 << 199, 0), (1, (1 << 198) // 5, 1)]
        assert _checked_terms(spec, 1) == want
        # in a group of three its terms are the same, to its own cutoff
        others = [SeriesSpec(x=F(1, 16), start=1, channels={2: (1,)}),
                  SeriesSpec(x=F(1, 16), channels={0: (3,), 4: (1,)})]
        assert _group_terms([others[0], spec, others[1]], [4, 1, 3], 200)[1] == want

    def test_underflowed_magnitude_keeps_its_harmonic_channel(self):
        """At P = 8 and x = 1/16, B_7 ~ 2^8 m_7 = 1.13 floors to 0 while
        C_{4,7} ~ 2^8 m_7 H_28 = 4.4 does not: the bound of C_4 has to carry
        the error of every B_k it folded in, not only its own floors."""
        x = F(1, 16)
        k, B, eB = _checked_terms(SeriesSpec(x=x, channels={0: (1,)}), 7, prec=8)[7]
        assert (k, B) == (7, 0) and eB > 0
        k, C, eC = _checked_terms(SeriesSpec(x=x, channels={4: (1,)}), 7, prec=8)[7]
        assert k == 7 and 0 < C < 4
        mixed = SeriesSpec(x=x, channels={0: (2, 1), 4: (-1, 3)}, denominator_factors=("3k+1",))
        _checked_terms(mixed, 7, prec=8)
        # the three in one group: the shared B and C_4 streams give each the
        # terms it gets alone
        group = [SeriesSpec(x=x, channels={0: (1,)}), SeriesSpec(x=x, channels={4: (1,)}), mixed]
        assert _group_terms(group, [7, 7, 7], 8) == [_checked_terms(s, 7, prec=8) for s in group]
        assert _group_terms(group, [3, 7, 5], 8) == [
            _checked_terms(s, K, prec=8) for s, K in zip(group, [3, 7, 5])]

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
        q0 = F(*_ratio_bound(RECIP_PI, K0))
        assert q0 < 1
        assert F(*_ratio_bound(RECIP_PI, K0 + 10)) < q0


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


def _random_spec(rng, xs, recip_xs, like=None):
    """A seeded spec with |x| drawn from `xs` (C(4k,k)) or `recip_xs`
    (1/C(4k,k)): either sign of x, either binomial power, any channels
    (small integer coefficients, or up to about 10^12 over denominators up
    to 10^6) and any denominator factors.  Given `like`, x and the binomial
    power are those of `like`."""
    if like is None:
        power = rng.choice([1, -1])
        sign = rng.choice([1, -1])
        x = sign * rng.choice(xs if power == 1 else recip_xs)
    else:
        power, x = like.binomial_power, like.x
    big = rng.random() < 0.5
    chans = {j: tuple(F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6)) if big
                      else F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3)))
             for j in rng.sample(range(5), rng.randint(1, 5))}
    dens = tuple(rng.sample(sorted(DENOM_FACTORS), rng.randint(0, 3)))
    start = 1 if "k" in dens else rng.randint(0, 1)
    return SeriesSpec(x=x, binomial_power=power, start=start, channels=chans,
                      denominator_factors=dens)


def _random_group(rng, size, xs, recip_xs):
    """`size` seeded specs that share x and the binomial power."""
    first = _random_spec(rng, xs, recip_xs)
    return [first] + [_random_spec(rng, xs, recip_xs, like=first) for _ in range(size - 1)]


def test_low_precision_terms_within_their_bounds():
    """At P = 8..24 bits the floors of B_k, of the B_k / i folded into each
    C_j and of the C_j themselves are a visible share of each term, so a
    bound that misses a part of the error shows: |T - L 2^P t_k| <= err
    against exact Fraction terms, for groups of one and of three specs with
    cutoffs of their own."""
    rng = random.Random(2718)
    for size in [1] * 12 + [3] * 6:
        group = _random_group(rng, size, [F(n, 256) for n in (1, 7, 16, 26)],
                              [F(n, 2) for n in (1, 5, 11, 18)])
        cutoffs = [40] if size == 1 else [rng.randint(20, 40) for _ in group]
        for prec in (8, 12, 16, 20, 24):
            _group_terms(group, cutoffs, prec)


def _partial_sum(spec, K):
    """The exact partial sum S_K from running H_{jk} and x^k C(4k,k)^(+-1)."""
    s, H = F(0), dict.fromkeys(spec.channels, F(0))     # running H_{jk}
    mag = F(1)                                           # x^k C(4k,k)^(+-1)
    for k in range(K + 1):
        if k:
            for j in H:
                H[j] += sum(F(1, i) for i in range(j * (k - 1) + 1, j * k + 1))
            c = F(math.comb(4 * k, k), math.comb(4 * k - 4, k - 1))
            mag *= spec.x * (c if spec.binomial_power == 1 else 1 / c)
        if k < spec.start:
            continue
        num = sum(sum(c * k**i for i, c in enumerate(cs)) * (H[j] if j else 1)
                  for j, cs in spec.channels.items())
        s += mag * num / spec.denominator_at(k)
    return s


def test_enclosure_less_tail_contains_partial_sum():
    """sum_series narrowed by the tail bound at its own cutoff K still holds
    the exact partial sum S_K: the tracked error E alone must cover the
    floors of the fixed-point sum, whatever slack the tail bound has."""
    from binom4k.series import _cutoff

    rng = random.Random(3141)
    for _ in range(16):
        spec = _random_spec(rng, [F(n, 256) for n in (1, 5, 12, 20)], [F(n, 2) for n in (1, 3, 7, 9)])
        digits = rng.choice([5, 12, 30])
        b = sum_series(spec, digits)
        K, tail = _cutoff(spec, F(1, 10**digits) / 2)
        s = _partial_sum(spec, K)
        assert b.lo_fraction() + tail <= s <= b.hi_fraction() - tail, (spec, digits)


def test_batch_holds_each_partial_sum_to_its_own_cutoff(monkeypatch):
    """sum_many on seeded groups that share x but differ in start, channels,
    denominator factors and digits, next to a spec at another x: spec i
    takes exactly the terms start_i <= k <= K_i of the shared pass, its
    ball has radius <= 10^-digits_i, and the ball narrowed by its own tail
    bound holds the exact partial sum S_{K_i}.  Both binomial powers and
    both signs of x occur."""
    import binom4k.series as series

    yielded = []
    kernel = series.fixed_point_terms

    def recorded(specs, cutoffs, prec):
        for i, k, T, err in kernel(specs, cutoffs, prec):
            yielded.append((specs[i], k))
            yield i, k, T, err

    monkeypatch.setattr(series, "fixed_point_terms", recorded)
    rng = random.Random(1729)
    xs, recip_xs = [F(n, 256) for n in (1, 5, 12, 20)], [F(n, 2) for n in (1, 3, 7, 9)]
    seen, cutoffs_differ = set(), 0
    for _ in range(8):
        group = _random_group(rng, 3, xs, recip_xs)
        requests = [(spec, rng.choice([5, 12, 30])) for spec in group]
        requests.insert(1, (SeriesSpec(x=F(1, 16), start=1, channels={1: (1,)}), 8))
        seen.add((group[0].binomial_power, group[0].x > 0))
        yielded.clear()
        results = series.sum_many(requests)
        assert len(results) == len(requests)
        cutoffs = []
        for (spec, digits), (ball, seconds) in zip(requests, results):
            K, tail = series._cutoff(spec, F(1, 10**digits) / 2)
            cutoffs.append(K)
            assert [k for s, k in yielded if s is spec] == list(range(spec.start, K + 1)), spec
            assert ball.radius() <= F(1, 10**digits), (spec, digits)
            s = _partial_sum(spec, K)
            assert ball.lo_fraction() + tail <= s <= ball.hi_fraction() - tail, (spec, digits)
            assert seconds > 0
        cutoffs_differ += len({cutoffs[0], *cutoffs[2:]}) == 3
    assert len(seen) == 4 and cutoffs_differ >= 4


def test_cutoff_is_the_least_certified():
    """On seeded specs (both powers, both signs of x, every channel, |x| up
    to near the radius) the cutoff's tail bound meets the budget, and the
    bound at K - 1 misses it wherever it is defined."""
    from binom4k.series import _cutoff

    rng = random.Random(1618)
    seen = set()
    for _ in range(40):
        spec = _random_spec(rng, [F(n, 256) for n in (1, 7, 16, 26)] + [F(27, 256) * F(99, 100)],
                            [F(n, 2) for n in (1, 5, 11, 18)])
        seen |= {(spec.binomial_power, spec.x > 0, j) for j in spec.channels}
        digits = rng.choice([5, 20, 60, 200])
        budget = F(1, 10**digits) / 2
        K, bound = _cutoff(spec, budget)
        assert bound == tail_bound_exact(spec, K) <= budget, spec
        if K - 1 >= min_tail_cutoff(spec):
            assert tail_bound_exact(spec, K - 1) > budget, spec
        # a budget just below the bound at K fits the estimate within its
        # slack, so the exact certificate has to send the search on to K + 1
        assert _cutoff(spec, bound * (1 - F(1, 10**9)))[0] == K + 1, spec
    assert len(seen) == 20


def test_low_budget_cutoff_is_the_least_certified():
    """At budget 1/20 the least certified cutoff lies near the least K with
    a contraction ratio below 1, so a search that overshoots that K misses
    it: K = 5 for the component of eq-1.4 and K = 27 for intro-recip-pi."""
    from binom4k.catalog import catalog_by_id
    from binom4k.series import _cutoff, _ratio_bound

    budget = F(1, 20)
    entries = catalog_by_id()
    for entry_id, least in (("eq-1.4", 5), ("intro-recip-pi", 27)):
        ((_, spec),) = entries[entry_id].components
        K0 = min_tail_cutoff(spec)
        assert F(*_ratio_bound(spec, K0)) < 1
        assert K0 == max(spec.start, 1) or F(*_ratio_bound(spec, K0 - 1)) >= 1
        assert _cutoff(spec, budget) == (least, tail_bound_exact(spec, least))
        assert tail_bound_exact(spec, least) <= budget
        assert least == K0 or tail_bound_exact(spec, least - 1) > budget


def test_cutoff_never_exceeds_the_work_budget(monkeypatch):
    """When the estimate's K is MAX_TERMS and the exact bound there misses
    the budget, the search upward has no room left: PrecisionError, and no
    bound is probed past MAX_TERMS."""
    import binom4k.series as series

    monkeypatch.setattr(series, "MAX_TERMS", 50)
    spec = SeriesSpec(x=F(1, 16), channels={0: (1,)})
    budget = tail_bound_exact(spec, 50) * (1 - F(1, 10**12))
    probed = []
    exact = series.tail_bound_exact
    monkeypatch.setattr(series, "tail_bound_exact", lambda s, K: probed.append(K) or exact(s, K))
    with pytest.raises(series.PrecisionError, match="cutoff K > 50: the work budget is 50 terms"):
        series._cutoff(spec, budget)
    assert probed == [50]
    assert series._cutoff(spec, exact(spec, 50))[0] == 50


def test_one_tail_bound_per_sum_at_its_cutoff(monkeypatch):
    """Verifying the catalog at 50 digits computes exactly one exact tail
    bound per sum, at the K that sum then runs to: every spec of a pass had
    its bound computed before the pass, at the cutoff the pass gives it."""
    import binom4k.series as series
    from binom4k.catalog import builtin_catalog
    from binom4k.cli import verify_entry

    pending, passes = [], 0
    tail, terms = series.tail_bound_exact, series.fixed_point_terms

    def counted_tail(spec, K):
        pending.append((spec, K))
        return tail(spec, K)

    def counted_terms(specs, cutoffs, prec):
        nonlocal passes
        passes += 1
        for spec, K in zip(specs, cutoffs):
            pending.remove((spec, K))
        return terms(specs, cutoffs, prec)

    monkeypatch.setattr(series, "tail_bound_exact", counted_tail)
    monkeypatch.setattr(series, "fixed_point_terms", counted_terms)
    for entry in builtin_catalog():
        assert verify_entry(entry, 50).status == "PASS", entry.id
        assert pending == [], entry.id
    assert passes >= 36


def test_cutoff_miss_path_ends_on_its_bound(monkeypatch):
    """When the exact bound rejects the estimate's K, the search goes on
    upward on exact bounds; the last bound it computes, and the one it
    returns, is the one at the K it returns.  Driven by a budget just below
    the bound at K, and by an estimate skewed 40 bits low, whose upward
    search bisects and can end on a miss at K - 1."""
    import binom4k.series as series

    calls = []
    exact = series.tail_bound_exact

    def counted(spec, K):
        calls.append(K)
        return exact(spec, K)

    monkeypatch.setattr(series, "tail_bound_exact", counted)
    for spec in (EQ11, RECIP_PI, SeriesSpec(x=F(-25, 256), start=1, channels={4: (1,), 1: (2, 1)})):
        K, bound = series._cutoff(spec, F(1, 10**30))
        calls.clear()
        K1, bound1 = series._cutoff(spec, bound * (1 - F(1, 10**9)))
        assert K1 == K + 1 and calls[-1] == K1 and bound1 == exact(spec, K1), spec

    estimator = series._tail_log2_estimator
    monkeypatch.setattr(series, "_tail_log2_estimator",
                        lambda spec: lambda K: estimator(spec)(K) - 40)
    ended_on_miss = 0
    for spec in (EQ11, RECIP_PI):
        for digits in range(20, 60):
            calls.clear()
            budget = F(1, 10**digits)
            K, bound = series._cutoff(spec, budget)
            assert calls[-1] == K and bound == exact(spec, K) <= budget, (spec, digits)
            assert exact(spec, K - 1) > budget, (spec, digits)
            ended_on_miss += len(calls) > 1 and calls[-2] == K - 1
    assert ended_on_miss


def _log2(q):
    """log2 of a positive rational from its integers, which may lie far
    outside the float range."""
    return math.log2(q.numerator) - math.log2(q.denominator)


def test_tail_estimate_never_raises():
    """The float estimate of log2 tail_bound_exact stays finite and close
    for coefficients 10^(+-400) and |x| = 10^-400, and is -inf for x = 0."""
    from binom4k.series import _tail_log2_estimator

    assert _tail_log2_estimator(SeriesSpec(x=F(0), channels={0: (1,), 4: (1,)}))(5) == -math.inf
    for spec in (SeriesSpec(x=F(1, 16), start=1, channels={0: (F(10**400),), 2: (0, F(1, 10**400))},
                            denominator_factors=("k",)),
                 SeriesSpec(x=F(-1, 10**400), channels={0: (F(1, 10**400),)}),
                 SeriesSpec(x=F(7, 2), binomial_power=-1, channels={3: (F(10**400), F(-3))})):
        estimate = _tail_log2_estimator(spec)
        for K in (min_tail_cutoff(spec), 100, 2000):
            assert abs(estimate(K) - _log2(tail_bound_exact(spec, K))) < 1e-6, (spec, K)


def _near_radius_specs(rng):
    """Seeded specs with |x| at two shares of the radius 27/256 (C(4k,k)) or of
    256/27 (1/C(4k,k)), one per binomial power, share and highest channel
    0..4, with either sign of x, a lower channel, small coefficients of
    degree up to 2 and up to two denominator factors."""
    specs = []
    for power, radius, shares in ((1, F(27, 256), (F(93, 100), F(965, 1000))),
                                  (-1, F(256, 27), (F(9, 10), F(945, 1000)))):
        for share in shares:
            for top in range(5):
                chans = {j: tuple(F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 2)))
                         + (F(rng.choice((-3, -1, 1, 2))),) for j in {top, rng.randint(0, top)}}
                dens = tuple(rng.sample(sorted(DENOM_FACTORS), rng.randint(0, 2)))
                x = rng.choice((1, -1)) * (radius * share).limit_denominator(130)
                specs.append(SeriesSpec(x=x, binomial_power=power, channels=chans,
                                        start=1 if "k" in dens else rng.randint(0, 1),
                                        denominator_factors=dens))
    return specs


def test_tail_estimate_within_1e_9_of_the_bound():
    """The estimate lies within 1e-9 of log2 tail_bound_exact, the accuracy
    that ESTIMATE_SLACK relies on: at K0, K0 + 1 and the cutoff for
    10^-50 / 2 and 10^-300 / 2, on every catalog component and on seeded
    specs near the radius (both binomial powers, highest channel 0..4)."""
    from binom4k.catalog import builtin_catalog
    from binom4k.series import _cutoff, _tail_log2_estimator

    near = _near_radius_specs(random.Random(34))
    assert {(s.binomial_power, max(s.channels)) for s in near} == {(p, j) for p in (1, -1)
                                                                   for j in range(5)}
    for spec in [spec for entry in builtin_catalog() for _, spec in entry.components] + near:
        estimate, K0 = _tail_log2_estimator(spec), min_tail_cutoff(spec)
        for digits in (50, 300):
            K, _ = _cutoff(spec, F(1, 10**digits) / 2)
            for k in (K0, K0 + 1, K):
                assert abs(estimate(k) - _log2(tail_bound_exact(spec, k))) < 1e-9, (spec, digits, k)


def _ref_denominator(spec, k):
    return math.prod(a * k + b for a, b in (DENOM_FACTORS[n] for n in spec.denominator_factors))


def _ref_ratio_bound(spec, K):
    """qbar(K) by the Fraction formula of the module docstring."""
    from binom4k.series import _rho

    degree = max(len(cs) - 1 for cs in spec.channels.values())
    rho = F(256, 27) if spec.binomial_power == 1 else F(*reversed(_rho(K + 1)))
    return abs(spec.x) * rho * (1 + F(1, K + 1)) ** (degree + 1)


def _ref_envelope_at(spec, k):
    """T(k) from Fraction coefficients, H_n <= 1 + (7/10) bitlength(n) and
    the rounding up to 64 significant bits, on the reduced numerator and
    denominator of the channel sum."""
    num = F(0)
    for j, cs in spec.channels.items():
        value = sum(abs(c) * k**i for i, c in enumerate(cs))
        num += value * (1 + F(7 * (j * k).bit_length(), 10) if j else 1)
    a = abs(spec.x.numerator) ** k * num.numerator
    b = spec.x.denominator ** k * num.denominator * abs(_ref_denominator(spec, k))
    if spec.binomial_power == 1:
        a *= math.comb(4 * k, k)
    else:
        b *= math.comb(4 * k, k)
    shift = 64 - a.bit_length() + b.bit_length()
    if shift >= 0:
        return F(-(-(a << shift) // b), 1 << shift)
    return F(-(-a // (b << -shift)) << -shift)


def _ref_working_bits(spec, K, digits):
    """P from the peak of m_k, stepped by Fraction ratios, and the reduced
    sum of the absolute coefficients of each channel."""
    from binom4k.series import GUARD_BITS, _rho

    peak = level = 0.0
    for k in range(K):
        ratio = abs(spec.x) * F(*_rho(k)) ** spec.binomial_power
        if ratio <= 1:
            break
        level += math.log2(ratio.numerator / ratio.denominator)
        peak = max(peak, level)
    coeff = max(sum(abs(c) for c in cs) for cs in spec.channels.values())
    coeff_bits = coeff.numerator.bit_length() - coeff.denominator.bit_length() + 4
    degree = max(len(cs) - 1 for cs in spec.channels.values())
    per_term = (peak + coeff_bits + degree * math.log2(K + 1)
                + math.log2(K * (11 + 2 * math.log(4 * K + 1)) + 1))
    bits = digits * math.log2(10) + 2 + math.log2(K + 1) + max(per_term, 0.0) + 2
    return math.ceil(bits) + GUARD_BITS


def test_integer_form_matches_the_fraction_formulas():
    """The ratio bound, the envelope, the tail bound and P, read from the
    integer form, equal the Fraction formulas exactly (P and the envelope's
    rounding read bit lengths, so a pair of the same value is not enough):
    every catalog component and seeded groups of both binomial powers and
    both signs of x, at K0, K0 + 1, 2 K0 and the cutoffs at 20 and 300
    digits."""
    import binom4k.series as series
    from binom4k.catalog import builtin_catalog

    specs = [spec for entry in builtin_catalog() for _, spec in entry.components]
    assert len(specs) == 46
    rng = random.Random(4669)
    seen = set()
    while len(seen) < 4:
        group = _random_group(rng, 3, [F(n, 256) for n in (1, 7, 16, 26)],
                              [F(n, 2) for n in (1, 5, 11, 18)])
        seen.add((group[0].binomial_power, group[0].x > 0))
        specs += group
    for spec in specs:
        K0 = min_tail_cutoff(spec)
        cutoffs = {20: series._cutoff(spec, F(1, 10**20) / 2)[0],
                   300: series._cutoff(spec, F(1, 10**300) / 2)[0]}
        for K in (K0, K0 + 1, 2 * K0, *cutoffs.values()):
            ratio = _ref_ratio_bound(spec, K)
            assert F(*series._ratio_bound(spec, K)) == ratio, (spec, K)
            head = _ref_envelope_at(spec, K + 1)
            assert series._envelope_at(spec, K + 1) == head, (spec, K)
            assert tail_bound_exact(spec, K) == head / (1 - ratio), (spec, K)
            for digits in cutoffs:
                assert series._working_bits(spec, K, digits) == _ref_working_bits(spec, K, digits)
        if K0 > max(spec.start, 1):
            assert F(*series._ratio_bound(spec, K0 - 1)) == _ref_ratio_bound(spec, K0 - 1) >= 1


def test_integer_form_is_derived_once_at_first_use(monkeypatch):
    """Building the catalog derives no integer form; one sum_many over its
    components derives each component's form exactly once."""
    import binom4k.series as series
    from binom4k import catalog

    derived = []
    derive = series._integer_form
    monkeypatch.setattr(series, "_integer_form", lambda spec: derived.append(id(spec)) or derive(spec))
    catalog._builtin_entries.cache_clear()
    specs = [spec for entry in catalog.builtin_catalog() for _, spec in entry.components]
    assert derived == [] and not any("ints" in vars(spec) for spec in specs)
    results = series.sum_many([(spec, 20) for spec in specs])
    assert all(isinstance(ball, series.Ball) for ball, _ in results)
    assert sorted(derived) == sorted({id(spec) for spec in specs})


def test_near_radius_cutoff_takes_few_envelopes(monkeypatch):
    """x = 27/256 (1 - 10^-3), channels 4 and 1, 20 digits: the cutoff is
    near 50000, where each exact envelope is costly, and the sum evaluates
    at most three of them."""
    import binom4k.series as series

    calls = []
    exact = series.tail_bound_exact

    def counted(spec, K):
        calls.append(K)
        return exact(spec, K)

    monkeypatch.setattr(series, "tail_bound_exact", counted)
    spec = SeriesSpec(x=F(27, 256) * (1 - F(1, 1000)), start=1, channels={4: (1,), 1: (1,)})
    assert sum_series(spec, 20).radius() <= F(1, 10**20)
    assert len(calls) <= 3 and calls[-1] > 50000


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
