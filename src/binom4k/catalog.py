"""Declarative catalog of the series identities under verification.

Every displayed "series = closed form" identity of the source collection is
encoded exactly as printed (start index, channel polynomials, denominator
factors, weights), one entry per identity; multi-component entries encode
the equivalence combinations of lemma 5.1.  Each entry carries a provenance
anchor naming where it came from.

Two encodings deviate from the printed text, both confirmed numerically to
50+ digits before being frozen here (the printed variants fail):

* lem5.1-m256: the printed statement carries "+36/5" on the G_4 component;
  the proof (and the truth) uses -36/5.
* sec4-abel-Hk-32's non-harmonic channel is 48(3k+1)(3k+2) as printed; note
  its middle coefficient 432 (the companion of entry sec4-abel-Hk-31).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

from .balls import Ball, const_log, const_pi, const_sqrt
from .series import DENOM_FACTORS, SeriesSpec, SpecError


class CatalogError(ValueError):
    """A malformed component spec or an entry violating a spec invariant."""


# The digit budget.  It bounds --digits and BINOM4K_DIGITS, though not by
# series.MAX_TERMS: `intro-recip-pi` (x = 8, reciprocal) needs about 13.6 D
# terms, so past about 7,400 digits it exceeds that budget, as the entries
# at x = 1/16 (about 4.4 D terms) do past about 22,000.  It bounds a
# rational string of a spec before `Fraction` parses it (length and decimal
# exponent: 10^e costs superlinear time to build and reduce), and `eval`
# bounds the numerator and denominator of x and of the coefficients by it,
# since the work grows with their size.
MAX_DIGITS = 20_000
# The most coefficients a channel of a spec may have: D is absolute, so a
# channel of degree d costs about d K bignum products, and the cutoff K grows
# with d too.  The catalog's channels have at most 5.
MAX_COEFFS = 64


# ---------------------------------------------------------------------------
# closed-form right-hand sides


@dataclass(frozen=True)
class ClosedForm:
    """Expression tree over {rationals, pi, log q, sqrt n} and + - * /."""

    node: str
    value: object = None
    args: tuple = ()

    def __post_init__(self):
        if self.node not in ("rat", "pi", "log", "sqrt", "add", "sub", "mul", "div"):
            raise CatalogError(f"unknown node tag {self.node!r}")
        if self.node == "div" and _is_zero_tree(self.args[1]):
            raise CatalogError("division by an identically-zero subtree")

    # operator sugar with the ClosedForm on the left; ints/Fractions lift to rat leaves
    def __add__(self, other):
        return ClosedForm("add", args=(self, _lift(other)))

    def __sub__(self, other):
        return ClosedForm("sub", args=(self, _lift(other)))

    def __mul__(self, other):
        return ClosedForm("mul", args=(self, _lift(other)))

    def __truediv__(self, other):
        return ClosedForm("div", args=(self, _lift(other)))

    def __neg__(self):
        return ClosedForm("sub", args=(_lift(0), self))

    def eval(self, prec: int) -> Ball:
        """Rigorous enclosure at the given working precision (bits)."""
        if self.node == "rat":
            return Ball.exact(self.value, prec)
        if self.node == "pi":
            return const_pi(prec)
        if self.node == "log":
            return const_log(self.value, prec)
        if self.node == "sqrt":
            return const_sqrt(self.value, prec)
        a = self.args[0].eval(prec)
        b = self.args[1].eval(prec)
        if self.node == "add":
            return a + b
        if self.node == "sub":
            return a - b
        if self.node == "mul":
            return a * b
        return a / b  # div; Ball raises if 0 is inside the divisor

    def render(self) -> str:
        if self.node == "rat":
            return str(self.value)
        if self.node == "pi":
            return "pi"
        if self.node == "log":
            return f"log({self.value})"
        if self.node == "sqrt":
            return f"sqrt({self.value})"
        a, b = (x.render() for x in self.args)
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[self.node]
        return f"({a} {op} {b})"


def _is_zero_tree(cf: "ClosedForm") -> bool:
    if cf.node == "rat":
        return cf.value == 0
    if cf.node == "mul":
        return any(_is_zero_tree(a) for a in cf.args)
    if cf.node in ("add", "sub"):
        return all(_is_zero_tree(a) for a in cf.args)
    if cf.node == "div":
        return _is_zero_tree(cf.args[0])
    return False


def _lift(x) -> ClosedForm:
    if isinstance(x, ClosedForm):
        return x
    return rat(x)


def rat(q) -> ClosedForm:
    return ClosedForm("rat", value=Fraction(q))


def pi() -> ClosedForm:
    return ClosedForm("pi")


def log(q) -> ClosedForm:
    q = Fraction(q)
    if q <= 0:
        raise CatalogError("log leaf needs a positive rational")
    return ClosedForm("log", value=q)


def sqrt(n: int) -> ClosedForm:
    if n <= 0:
        raise CatalogError("sqrt leaf needs a positive integer")
    return ClosedForm("sqrt", value=n)


def eval_closed_form(cf: ClosedForm, digits: int = 50) -> Ball:
    """Enclosure with radius <= 10^-digits, from one evaluation at
    3.33 digits + 32 bits; ArithmeticError if that misses the radius (the
    built-in trees never do, see their tests)."""
    b = cf.eval(int(digits * 3.33) + 32)
    if b.radius() > Fraction(1, 10**digits):
        raise ArithmeticError("closed-form radius target unreachable")
    return b


# ---------------------------------------------------------------------------
# identity entries


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    provenance: str
    components: tuple  # of (Fraction weight, SeriesSpec)
    rhs: ClosedForm

    def __post_init__(self):
        if not self.components:
            raise CatalogError(f"{self.id}: empty component list")


def _spec(x, channels, den=(), start=0, bp=1) -> SeriesSpec:
    return SeriesSpec(x, bp, start, channels, den)


def _hk(q: list, r0: list) -> dict:
    """Channels for Q(k)*H(k) + R0(k), where H(k) = 2H_{4k} - 3H_{2k} + H_k."""
    return {
        4: [2 * Fraction(c) for c in q],
        2: [-3 * Fraction(c) for c in q],
        1: [Fraction(c) for c in q],
        0: r0,
    }


_F = Fraction

# Polynomials in k that the proof suite and the cross-checks read too, as
# coefficients in ascending powers of k: the weights P(k) of (1.1) and Q(k)
# of (1.3), and the H_k channels of the section 4 Abel instances, which are
# the cubic numerators of the partial-fraction display (over 3k+1 and over
# (3k+1)(3k+2), in the corrected pairing).
P_COEFFS = (11, -92, 22)             # 22k^2 - 92k + 11
Q_COEFFS = (1, 8, 11)                # 11k^2 + 8k + 1
CUBIC_31 = (24, 224, 384, -176)      # -176k^3 + 384k^2 + 224k + 24
CUBIC_32 = (24, 80, -48, -176)       # -176k^3 - 48k^2 + 80k + 24
_KP = (0, *P_COEFFS)                 # k P(k)
_KQ = (0, *Q_COEFFS)                 # k Q(k)

# The lemma 5.1 combinations, one per x0 of theorem 1.3: case -> (x0, d,
# weights (wa, wb, wc), numerator (q0, q1) of the linear-weight series, r)
# with value r*sqrt(d).  The components are, in order, the linear-weight
# series (q0 + q1 k), the G_4 series over (3k+1) and the (8k+2) series over
# (3k+1)(3k+2).  The exact proof suite reduces the same table in Q(f(x0)).
LEMMA51_CASES: dict[str, tuple[Fraction, int, tuple, tuple, Fraction]] = {
    "m256": (_F(-1, 256), 2, (_F(64, 5), _F(-36, 5), _F(-1)), (_F(5), _F(182)), _F(72, 5)),
    "128": (_F(1, 128), 2, (_F(32, 5), _F(-12, 5), _F(1)), (_F(-49), _F(725)), _F(-576, 5)),
    "m72": (_F(-1, 72), 3, (_F(242, 65), _F(-28, 5), _F(-1)), (_F(12), _F(175)), _F(216, 65)),
    "m25": (_F(-1, 25), 5, (_F(1, 115), _F(-96, 5), _F(-4)), (_F(17320), _F(118237)),
            _F(72, 23)),
    "24": (_F(1, 24), 3, (_F(1, 5), _F(-4, 5), _F(1)), (_F(1160), _F(-3038)), _F(216, 5)),
}


def builtin_catalog() -> list[IdentityEntry]:
    """Every displayed series identity, in source order; the frozen entries are built once."""
    return list(_builtin_entries())


@lru_cache(maxsize=None)
def _builtin_entries() -> tuple[IdentityEntry, ...]:
    E = IdentityEntry
    entries = [
        E("eq-1.1", "intro (1.1)",
          ((_F(1), _spec(_F(1, 16), {0: P_COEFFS})),), rat(-5)),
        E("eq-1.2", "intro (1.2)",
          ((_F(1), _spec(_F(1, 16), {0: [-2, 17, 22]}, den=("k+1",))),), rat(17)),
        E("eq-1.3", "intro (1.3)",
          ((_F(1), _spec(_F(1, 16), {0: Q_COEFFS}, den=("3k+1", "3k+2"))),), rat(1)),
        E("eq-1.4", "intro (1.4)",
          ((_F(1), _spec(_F(1, 16), {0: [3, -18, 22]}, den=("2k-1", "4k-1", "4k-3"))),),
          rat(_F(-1, 3))),
        E("intro-recip-pi", "intro, first reciprocal series",
          ((_F(1), _spec(8, {0: [1, -4, 5]}, den=("k", "3k-1", "3k-2"), start=1, bp=-1)),),
          rat(_F(3, 2)) * pi()),
        E("intro-recip-log2", "intro, second reciprocal series",
          ((_F(1), _spec(_F(-1, 8), {0: [62, -343, 415]}, den=("k", "3k-1", "3k-2"),
                         start=1, bp=-1)),),
          rat(-3) * log(2)),
        E("thm1.1-Hk", "thm 1.1 (H_k)",
          ((_F(1), _spec(_F(1, 16), {1: _KP, 0: [_F(-10, 3), 108, -54]}, den=("k",), start=1)),),
          rat(_F(-20, 3)) * log(2)),
        E("thm1.1-H2k", "thm 1.1 (H_2k)",
          ((_F(1), _spec(_F(1, 16), {2: _KP, 0: [_F(-25, 6), -115, 287]}, den=("k",), start=1)),),
          rat(214) - rat(_F(40, 3)) * log(2)),
        E("thm1.1-H3k", "thm 1.1 (H_3k)",
          ((_F(1), _spec(_F(1, 16), {3: _KP, 0: [_F(-25, 3), 178, -296]}, den=("k",), start=1)),),
          rat(-196) - rat(_F(80, 3)) * log(2)),
        E("thm1.1-H4k", "thm 1.1 (H_4k)",
          ((_F(1), _spec(_F(1, 16), {4: _KP, 0: [_F(-85, 12), _F(275, 2), _F(-449, 2)]},
                         den=("k",), start=1)),),
          rat(-151) - rat(_F(80, 3)) * log(2)),
        E("thm1.2-Hk", "thm 1.2, first",
          ((_F(1), _spec(_F(1, 16), {1: _KQ, 0: [_F(4, 3), 6, 6]},
                         den=("k", "3k+1", "3k+2"), start=1)),),
          rat(_F(4, 3)) * log(2)),
        E("thm1.2-H2k-Hk", "thm 1.2, second",
          ((_F(1), _spec(_F(1, 16),
                         {2: Q_COEFFS, 1: [_F(-5, 4) * c for c in Q_COEFFS], 0: [1, 4]},
                         den=("3k+1", "3k+2"))),),
          log(2)),
        E("thm1.2-H4k-H2k", "thm 1.2, third",
          ((_F(1), _spec(_F(1, 16),
                         {4: [10 * c for c in Q_COEFFS], 2: [-17 * c for c in Q_COEFFS],
                          0: [18, 2]},
                         den=("3k+1", "3k+2"))),),
          rat(8) * log(2)),
        E("thm1.3-m256", "thm 1.3 (x=-1/256)",
          ((_F(1), _spec(_F(-1, 256), _hk([1, -86, 224], [5, 182]))),),
          (rat(9) - rat(5) * log(2)) / (rat(4) * sqrt(2))),
        E("thm1.3-m256-32", "thm 1.3 (x=-1/256, 3k+1 3k+2)",
          ((_F(1), _spec(_F(-1, 256), _hk([23, 110, 112], [16, 28]),
                         den=("3k+1", "3k+2"))),),
          rat(8) * sqrt(2) * log(2)),
        E("thm1.3-128", "thm 1.3 (x=1/128)",
          ((_F(1), _spec(_F(1, 128), _hk([-17, 76, 200], [392, -5800]))),),
          sqrt(2) * (rat(144) + rat(5) * log(2))),
        E("thm1.3-128-32", "thm 1.3 (x=1/128, 3k+1 3k+2)",
          ((_F(1), _spec(_F(1, 128), _hk([11, 44, 40], [-8, -8]),
                         den=("3k+1", "3k+2"))),),
          rat(-4) * sqrt(2) * log(2)),
        E("thm1.3-m72", "thm 1.3 (x=-1/72)",
          ((_F(1), _spec(_F(-1, 72), _hk([67, -1026, 3575],
                                         [_F(2904, 13), _F(42350, 13)]))),),
          sqrt(3) * (rat(_F(216, 13)) - rat(15) * log(3))),
        E("thm1.3-m72-32", "thm 1.3 (x=-1/72, 3k+1 3k+2)",
          ((_F(1), _spec(_F(-1, 72), _hk([11, 54, 55], [12, 22]),
                         den=("3k+1", "3k+2"))),),
          rat(3) * sqrt(3) * log(3)),
        E("thm1.3-m25", "thm 1.3 (x=-1/25)",
          ((_F(1), _spec(_F(-1, 25), _hk([1036, -1409, 21413],
                                         [_F(69280, 23), _F(472948, 23)]))),),
          sqrt(5) * (rat(_F(1440, 23)) - rat(100) * log(5))),
        E("thm1.3-m25-32", "thm 1.3 (x=-1/25, 3k+1 3k+2)",
          ((_F(1), _spec(_F(-1, 25), _hk([26, 131, 133], [40, 76]),
                         den=("3k+1", "3k+2"))),),
          rat(5) * sqrt(5) * log(5)),
        E("thm1.3-24", "thm 1.3 (x=1/24)",
          ((_F(1), _spec(_F(1, 24), _hk([21, -146, 49], [1160, -3038]))),),
          sqrt(3) * (rat(216) - rat(5) * log(3))),
        E("thm1.3-24-32", "thm 1.3 (x=1/24, 3k+1 3k+2)",
          ((_F(1), _spec(_F(1, 24), _hk([3, 10, 7], [-4, -2]),
                         den=("3k+1", "3k+2"))),),
          -(sqrt(3) * log(3))),
        E("lem4.3-103", "lemma 4.3, first",
          ((_F(1), _spec(_F(1, 16), {0: [-59, -199, 194, 966, 638]},
                         den=("k+1", "3k+1", "3k+2"), start=1)),),
          rat(_F(103, 2))),
        E("lem4.3-117", "lemma 4.3, second",
          ((_F(1), _spec(_F(1, 16), {0: [-105, -381, 82, 1134, 770]},
                         den=("k+1", "3k+1", "3k+2"), start=1)),),
          rat(_F(117, 2))),
        E("lem4.4", "lemma 4.4",
          ((_F(1), _spec(_F(1, 16), {2: _KQ, 0: [_F(5, 3), _F(17, 2), _F(23, 2)]},
                         den=("k", "3k+1", "3k+2"), start=1)),),
          rat(_F(8, 3)) * log(2) - rat(_F(1, 2))),
        E("lem4.5", "lemma 4.5",
          ((_F(1), _spec(_F(1, 16), {4: _KQ, 0: [_F(17, 6), _F(65, 4), _F(79, 4)]},
                         den=("k", "3k+1", "3k+2"), start=1)),),
          rat(_F(16, 3)) * log(2) - rat(_F(7, 4))),
        E("sec4-abel-Hk-31", "sec 4 Abel instance (H_k, 3k+1)",
          ((_F(1), _spec(_F(1, 16), {1: CUBIC_31, 0: [-48, 0, 432]},
                         den=("3k+1",), start=1)),),
          rat(0)),
        E("sec4-abel-Hk-32", "sec 4 Abel instance (H_k, 3k+1 3k+2)",
          ((_F(1), _spec(_F(1, 16), {1: CUBIC_32, 0: [96, 432, 432]},
                         den=("3k+1", "3k+2"), start=1)),),
          rat(0)),
        E("sec5-abel-H-31", "sec 5 Abel instance (H, 3k+1)",
          ((_F(1), _spec(_F(-1, 256), _hk([3, -74, 48, 896], [2]), den=("3k+1",))),),
          rat(0)),
        E("sec5-abel-H-32", "sec 5 Abel instance (H, 3k+1 3k+2)",
          ((_F(1), _spec(_F(-1, 256), _hk([3, 214, 912, 896], [2]),
                         den=("3k+1", "3k+2"))),),
          rat(0)),
    ]
    for suffix, (x, d, ws, q, r) in LEMMA51_CASES.items():
        entries.append(E(
            f"lem5.1-{suffix}", f"lemma 5.1 (x={x})",
            (
                (ws[0], _spec(x, {0: q})),
                (ws[1], _spec(x, {0: [1]}, den=("3k+1",))),
                (ws[2], _spec(x, {0: [2, 8]}, den=("3k+1", "3k+2"))),
            ),
            rat(r) * sqrt(d)))
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids)) == CATALOG_SIZE
    return tuple(entries)


CATALOG_SIZE = 36


def catalog_by_id() -> dict[str, IdentityEntry]:
    return {e.id: e for e in builtin_catalog()}


# ---------------------------------------------------------------------------
# component specs, the JSON objects that `eval --spec` reads


# the exponent of a decimal string as `Fraction` reads it ("1.5e-7", "2E+1_0")
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _parse_frac(s, where: str) -> Fraction:
    if not isinstance(s, str):
        raise CatalogError(f"{where}: rational must be a 'p/q' string, got {s!r}")
    if len(s) > 2 * MAX_DIGITS + 4:
        raise CatalogError(f"{where}: rational string longer than {2 * MAX_DIGITS + 4} "
                           "characters")
    m = _EXPONENT.search(s)
    try:
        too_large = m is not None and abs(int(m.group(1))) > MAX_DIGITS
    except ValueError:  # not an exponent that Fraction reads either
        too_large = False
    if too_large:
        raise CatalogError(f"{where}: decimal exponent beyond {MAX_DIGITS} in {s[:40]!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        limit = sys.get_int_max_str_digits()
        digits = f", with at most {limit} digits in each integer" if limit else ""
        raise CatalogError(f"{where}: bad rational {s[:40]!r}: write it as p/q, q nonzero, "
                           f"or as a decimal{digits}") from None


def parse_component(obj: dict, where: str) -> tuple[Fraction, SeriesSpec]:
    if not isinstance(obj, dict):
        raise CatalogError(f"{where}: component must be an object")
    for key in ("weight", "x", "binomial_power", "start", "channels", "denominator_factors"):
        if key not in obj:
            raise CatalogError(f"{where}: missing field {key!r}")
    for key in ("binomial_power", "start"):
        if type(obj[key]) is not int:  # JSON true/false would pass as 1/0
            raise CatalogError(f"{where}.{key}: must be an integer, got {obj[key]!r}")
    weight = _parse_frac(obj["weight"], where + ".weight")
    chans = {}
    if not isinstance(obj["channels"], dict):
        raise CatalogError(f"{where}.channels: must be an object")
    for js, coeffs in obj["channels"].items():
        try:  # only the canonical spelling, so that two keys cannot name one channel
            j = int(js)
            if str(j) != js:
                raise ValueError
        except ValueError:
            raise CatalogError(f"{where}.channels: bad channel key {js!r}: "
                               "write a channel as a plain decimal integer like '0' or '2'") from None
        if not isinstance(coeffs, list):
            raise CatalogError(f"{where}.channels.{js}: must be a list")
        if len(coeffs) > MAX_COEFFS:
            raise CatalogError(f"{where}.channels.{js}: {len(coeffs)} coefficients, "
                               f"more than {MAX_COEFFS}")
        chans[j] = tuple(_parse_frac(c, f"{where}.channels.{js}") for c in coeffs)
    dens = obj["denominator_factors"]
    if not isinstance(dens, list) or not all(isinstance(d, str) for d in dens):
        raise CatalogError(f"{where}.denominator_factors: must be a list of strings")
    for d in dens:
        if d not in DENOM_FACTORS:
            raise CatalogError(f"{where}.denominator_factors: unknown factor {d!r}")
    x = _parse_frac(obj["x"], where + ".x")
    try:
        spec = SeriesSpec(
            x=x,
            binomial_power=obj["binomial_power"],
            start=obj["start"],
            channels=chans,
            denominator_factors=tuple(dens),
        )
    except SpecError as exc:
        raise CatalogError(f"{where}: {exc}") from None
    except ValueError:  # a radius message, whose x is past the int-to-str digit limit
        raise CatalogError(f"{where}.x: outside the radius of convergence") from None
    return weight, spec
