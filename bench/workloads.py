"""Seeded inputs of the benchmark workloads.

The seed is the only source of variation.  It picks the wrong identities
(catalog entries whose right-hand side is shifted by a small rational) and
the near-radius series specs.  Both are drawn from cost-balanced strata, so
that two seeds ask for about the same amount of work and the run-to-run
spread of a workload's time reflects the program, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Wrong identities are drawn one from each group.  The entries of a group
# cost about the same to verify at every precision the workloads use, so the
# seed changes which identity is planted but not how long it takes.
WRONG_GROUPS = (
    ("thm1.3-m25", "thm1.3-m25-32", "thm1.3-24", "thm1.3-24-32"),
    ("thm1.3-m256", "thm1.3-m256-32", "sec5-abel-H-31", "sec5-abel-H-32"),
    ("lem5.1-m25", "lem5.1-24"),
)


@dataclass(frozen=True)
class WrongIdentity:
    """A catalog entry id and the rational added to its right-hand side."""

    base_id: str
    shift: Fraction


def wrong_identities(seed: int, digits: int) -> list[WrongIdentity]:
    """One wrong identity per group, shifted by about 10^(5 - digits).

    The shift is far above the 10^(1 - digits) pass threshold, so each one
    must give FAIL.
    """
    rng = random.Random(f"wrong/{seed}/{digits}")
    out = []
    for group in WRONG_GROUPS:
        m = rng.randint(1, 9) * rng.choice((1, -1))
        out.append(WrongIdentity(rng.choice(group), Fraction(m, 10 ** (digits - 5))))
    return out


# near-radius specs.  |x| sits on a fixed grid of shares q of the radius of
# convergence and the highest channel degree and the number of denominator
# factors are fixed per cell: these set the cutoff K, and the doubling cutoff
# search turns a small change of K into twice the terms.  Drawing them from
# the seed would make the work of a seed vary by a factor of two.
BINOM_Q = (0.934, 0.948, 0.965)     # C(4k,k) x^k,    |x| = q * 27/256
RECIP_Q = (0.905, 0.925, 0.945)     # x^k / C(4k,k),  |x| = q * 256/27
# the linear denominator factors a*k + b that `eval --spec` accepts
DENOM_FACTORS = {"k": (1, 0), "k+1": (1, 1), "2k-1": (2, -1), "3k-1": (3, -1), "3k-2": (3, -2),
                 "3k+1": (3, 1), "3k+2": (3, 2), "4k-1": (4, -1), "4k-3": (4, -3)}


def _x_grid(q: float, bp: int) -> Fraction:
    """The rational with a small denominator nearest to q times the radius."""
    if bp == 1:
        return (Fraction(27, 256) * Fraction(q)).limit_denominator(130)
    return (Fraction(256, 27) * Fraction(q)).limit_denominator(40)


def _channels(rng: random.Random, top: int, lower: int, degree: int) -> dict[str, list[str]]:
    """Channel `top` of the given degree plus `lower` channels drawn from
    0..top-1, each of degree at most `degree`; small integer coefficients."""
    chans = {}
    for j in sorted(rng.sample(range(top), min(lower, top))) + [top]:
        deg = degree if j == top else rng.randint(0, degree)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        chans[str(j)] = [f"{c}/1" for c in coeffs]
    return chans


def near_radius_specs(seed: int) -> list[dict]:
    """`eval --spec`-shaped dicts close to the radius of convergence.

    One spec per cell of (binomial power +1/-1, q on the grid, highest
    channel 0..4).  Within a cell the seed draws the sign of x, which lower
    channels occur, their degrees, every coefficient, which denominator
    factors occur and the start index.
    """
    rng = random.Random(f"near/{seed}")
    specs = []
    for bp, grid in ((1, BINOM_Q), (-1, RECIP_Q)):
        for qi, q in enumerate(grid):
            for top in range(5):
                x = _x_grid(q, bp) * rng.choice((1, -1))
                den = rng.sample(list(DENOM_FACTORS), (top + qi) % 3)
                start = 1 if "k" in den else rng.randint(0, 1)
                specs.append({
                    "x": f"{x.numerator}/{x.denominator}",
                    "binomial_power": bp,
                    "start": start,
                    "channels": _channels(rng, top, 1 + qi % 2, (top + 2 * qi) % 3),
                    "denominator_factors": den,
                })
    return specs
