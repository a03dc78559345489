"""Series engine: terms, recurrences, certified tails, full summation."""

import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest

from binom4k.balls import const_pi
from binom4k.series import (
    SeriesSpec,
    SpecError,
    TermState,
    harmonic,
    min_tail_cutoff,
    sum_series,
    tail_bound_exact,
    term_exact,
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


def test_harmonic_memo_concurrent_growth(monkeypatch):
    """Four threads growing a fresh memo at once must leave H_i = H_{i-1} + 1/i
    for every entry (the tail envelopes read this memo)."""
    from binom4k import series

    memo = [F(0)]
    monkeypatch.setattr(series, "_harmonic_memo", memo)
    threads = [threading.Thread(target=harmonic, args=(3000,)) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(memo) > 3000
    assert all(memo[i] == memo[i - 1] + F(1, i) for i in range(1, len(memo)))


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


class TestTerms:
    def test_eq11_k0(self):
        st = TermState.initial(EQ11)
        assert term_exact(EQ11, st) == 11

    def test_eq11_k1(self):
        st = TermState.initial(EQ11)
        st.advance(EQ11)
        assert term_exact(EQ11, st) == F(-59, 4)  # (22-92+11)*4/16

    def test_reciprocal_k1(self):
        st = TermState.initial(RECIP_PI)
        assert term_exact(RECIP_PI, st) == 2  # 2*8/(1*2*1*4)

    def test_recurrences_match_direct(self):
        spec = SeriesSpec(x=F(-1, 72), start=0,
                          channels={0: (1, 2), 1: (3,), 2: (1, 1), 3: (2,), 4: (0, 5)},
                          denominator_factors=("3k+1",))
        st = TermState.initial(spec)
        for k in range(0, 31):
            assert st.binom == math.comb(4 * k, k)
            assert st.power == F(-1, 72) ** k
            for j in (1, 2, 3, 4):
                assert st.harmonics[j] == sum(F(1, i) for i in range(1, j * k + 1))
            st.advance(spec)

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
        assert b.contains(-5)
        assert b.radius() <= F(1, 10**30)

    def test_lemma43_value(self):
        spec = SeriesSpec(x=F(1, 16), start=1, channels={0: (-59, -199, 194, 966, 638)},
                          denominator_factors=("k+1", "3k+1", "3k+2"))
        b = sum_series(spec, 30)
        assert b.contains(F(103, 2))

    def test_zero_spec(self):
        b = sum_series(SeriesSpec(x=F(1, 16), channels={}), 20)
        assert b.width() == 0 and b.contains(0)

    def test_reciprocal_pi(self):
        b = sum_series(RECIP_PI, 30)
        d = b - F(3, 2) * const_pi(160)
        assert d.contains_zero()

    def test_nesting_and_radius_drop(self):
        b10 = sum_series(EQ11, 10)
        b20 = sum_series(EQ11, 20)
        assert b10.intersects(b20)
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
        for k in range(1, 401):
            num = F(0)
            for j, cs in spec.channels.items():
                pv = sum(c * k**i for i, c in enumerate(cs))
                num += pv if j == 0 else pv * sum(F(1, i) for i in range(1, j * k + 1))
            den = F(1)
            for name in dens:
                a, bb = {"k+1": (1, 1), "3k+1": (3, 1), "3k+2": (3, 2), "2k-1": (2, -1)}[name]
                den *= a * k + bb
            s += math.comb(4 * k, k) * x**k * num / den
        tb = tail_bound_exact(spec, 400)
        assert b.lo_fraction() - tb <= s <= b.hi_fraction() + tb
