"""Exact verification of the proof-level identities behind the catalog.

Everything here is a zero-test in an exact structure: the polynomial ring
over Q, the rational functions over Q, or a number field, where a claim
X = r sqrt(d) is its square and the sign of X under the real embedding.  A
formula printed with coefficients in a number field is rewritten over Q
before it is checked: the cube-root case by the change of variable
z = cbrt2 w, the bracket decomposition row by row.  A check either passes or
returns a nonzero witness; there are no tolerances anywhere in this module.

Several printed formulas in the source collection contain transcription
slips.  Where that happens the checks compute the truth rather than assert
the misprint, and record which variant closes:

* the sigma2 chain prints two quartics (33y^4+... and 97y^4+...) in adjacent
  denominators; the 33-quartic closes the rational part, the 97-quartic the
  log part (both probes are run, see `run_exact_checks`);
* the sigma4 rational part is printed over (11y^3+27y^2+9y+1)^3 but closes
  over the 33-quartic cube, consistent with degree counting;
* the partial-fraction display transposes its two cubic numerators;
* the summation-by-parts lemma omits the k=0 boundary term 24*psi(0)
  (respectively 12*psi(0)); all of its uses have psi(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import series
from .catalog import CUBIC_31, CUBIC_32, LEMMA51_CASES, P_COEFFS, Q_COEFFS, catalog_by_id
from .exact import Ival, NFElem, NumberField, Poly, RatFunc, count_roots
from .genfunc import (ALPHA_CUBIC, CheckOutcome, ContextError, exact_quotient, f_prime,
                      f_second, point_context, times_sqrt, zero_check)
from .series import harmonic

F = Fraction


@lru_cache(maxsize=1)
def alpha_context() -> NFElem:
    """a = f(1/16), the generator of Q(a) on its minimal polynomial
    ALPHA_CUBIC, checked: (11/128) a'' - (35/8) a' + 11 a + 5 = 0 with
    a' = f_prime(a) and a'' = f_second(a)."""
    a = point_context(F(1, 16), ALPHA_CUBIC)
    relation = F(11, 128) * f_second(a) - F(35, 8) * f_prime(a) + 11 * a + 5
    if not relation.is_zero():
        raise ContextError(f"closed-form relation residual is nonzero: {relation!r}")
    return a


# 14 b^2 - 7 sqrt2 b - 1 - 2 sqrt2 = 0 as L(b) = sqrt2 R(b): (L, R)
_BETA_SIDES = (Poly([-1, 0, 14]), Poly([2, 7]))


@lru_cache(maxsize=1)
def beta_context() -> NFElem:
    """b = f(-1/256), the generator of Q(b) of the lemma 5.1 case m256,
    checked: 14 b^2 - 7 sqrt2 b - 1 - 2 sqrt2 = 0 and b in (0.9, 1)."""
    b = case_context("m256")
    L, R = (p(b) for p in _BETA_SIDES)
    outcome = times_sqrt(L, R, 2)
    if not outcome.ok:
        raise ContextError(f"quadratic: {outcome.witness}")
    lo, hi = b.field.refine(F(1, 100))
    if not (F(9, 10) < lo and hi < 1):
        raise ContextError("embedding escaped (0.9, 1)")
    return b


@lru_cache(maxsize=None)
def case_context(case: str) -> NFElem:
    """f(x0), the generator of Q(f(x0)), for a lemma 5.1 case."""
    return point_context(LEMMA51_CASES[case][0])


# ---------------------------------------------------------------------------
# logarithmic-rational expressions and antiderivative checks


@dataclass(frozen=True)
class LogRationalExpr:
    """rational_part + sum_i coef_i * log(arg_i), args rational functions."""

    rational_part: RatFunc
    log_terms: tuple  # of (coef, RatFunc)

    def __post_init__(self):
        for _, arg in self.log_terms:
            if arg.is_zero():
                raise ValueError("log of the zero rational function")


def diff_log_rational(e: LogRationalExpr) -> RatFunc:
    """Exact derivative: (rational_part)' + sum coef_i * arg_i'/arg_i."""
    total = e.rational_part.derivative()
    for coef, arg in e.log_terms:
        total = total + coef * (arg.derivative() / arg)
    return total


def check_antiderivative(g: LogRationalExpr, integrand: RatFunc) -> CheckOutcome:
    """Pass iff g' - integrand is the zero rational function (cross-multiplied)."""
    return zero_check(diff_log_rational(g) - integrand)


def check_poly_identity(lhs: Poly, rhs: Poly) -> CheckOutcome:
    return zero_check(lhs - rhs, Poly.pretty)


# -- the four antiderivative instances --------------------------------------

# The quadratic 27y^2 - 3y - 40 of the g integrand and the bracket target.
_G_QUADRATIC = Poly([-40, -3, 27])

# Integrand factors of g2, g3 and g4.  `substituted_integrands` reuses these
# Polys as they are, so the cross-checks integrate the verified coefficients.
_G2_NUM = 16 * Poly([1, 3, -1, 1]) * Poly([4, 0, -75, 0, 81])
_G2_DEN = Poly([-1, 1]) * Poly([-1, 0, 3]) ** 4 * Poly([1, 0, 1])
_G3_SEXTIC = Poly([16, 0, 0, -83, 0, 0, 40])
_G3_NONIC = Poly([-8, 0, 0, 28, 0, 0, -10, 0, 0, 1])   # z^9 - 10z^6 + 28z^3 - 8
_G3_CUBE_FACTOR = 2 * Poly([-1, 0, 0, 1]) ** 4
_G4_NUM = (8 * Poly([1, 1, -1, 1]) * Poly([1, 0, 3, 0, -1, 0, 1])
           * Poly([4, 0, 0, 0, -75, 0, 0, 0, 81]))
_G4_DEN = Poly([-1, 1]) * Poly([-1, 0, 0, 0, 3]) ** 4 * Poly([1, 0, 0, 0, 1])


@lru_cache(maxsize=1)
def antiderivative_g() -> tuple[LogRationalExpr, RatFunc]:
    """g(y) with g' = (27y^2-3y-40)(3y+1)^2 / (2y(y+1))."""
    g = LogRationalExpr(
        rational_part=RatFunc(Poly([216, -243, -54, 81]).scale(F(1, 2))),
        log_terms=((F(-20), RatFunc(Poly([0, 2]), Poly([1, 1]))),),
    )
    integrand = RatFunc(
        _G_QUADRATIC * Poly([1, 3]) ** 2,
        2 * (Poly([0, 1]) * Poly([1, 1])),
    )
    return g, integrand


@lru_cache(maxsize=1)
def antiderivative_g2() -> tuple[LogRationalExpr, RatFunc]:
    g2 = LogRationalExpr(
        rational_part=RatFunc(
            Poly([0, 1]) * Poly([11, 27, -126, -351, 135, 486]).scale(4),
            Poly([-1, 0, 3]) ** 3,
        ),
        log_terms=((F(10), RatFunc(Poly([-1, 1]) ** 2, Poly([1, 0, 1]))),),
    )
    return g2, RatFunc(_G2_NUM, _G2_DEN)


@lru_cache(maxsize=1)
def cbrt2_field() -> NumberField:
    return NumberField(Poly([-2, 0, 0, 1]), (F(1), F(2)))


def _g3_quartic() -> tuple:
    """z^4 - 4z + 2 cbrt2, the factor of the g3 integrand over Q(cbrt(2)), as
    its coefficients in ascending powers of z."""
    return (2 * cbrt2_field().gen(), -4, 0, 0, 1)


def _g3_z_factors() -> tuple:
    """The printed factors of g3 and its integrand in z over Q(cbrt(2)), as
    coefficient tuples, each with its class r for `_in_w`: the rational part's
    numerator and denominator, the cube (cbrt2 - z)^3 in the log argument
    2/(cbrt2 - z)^3, then the integrand's."""
    c = cbrt2_field().gen()
    c2 = c * c
    num = (0, 12 * c2, 22 * c, 36, -44 * c2, -80 * c, -135, 20 * c2, 40 * c, 72)
    return ((num, 0), ((2 * Poly([-1, 0, 0, 1]) ** 3).coeffs, 0), ((2, -3 * c2, 3 * c, -1), 0),
            (_G3_SEXTIC.coeffs, 0), (_G3_NONIC.coeffs, 0), (_G3_CUBE_FACTOR.coeffs, 0),
            (_g3_quartic(), 1))


def _in_w(zs: Sequence, r: int = 0) -> Poly:
    """The polynomial over Q in w with p(cbrt2 w) = cbrt2^r _in_w(zs, r)(w), for
    p(z) = sum_n zs[n] z^n with each zs[n] an int, a Fraction or an NFElem of
    Q(cbrt(2)): each monomial cbrt2^i z^n of p must have i + n = r (mod 3),
    and becomes 2^((i+n-r)/3) w^n."""
    out = []
    for n, coef in enumerate(zs):
        acc = F(0)
        for i, q in enumerate(coef.rep.coeffs if isinstance(coef, NFElem) else (coef,)):
            if q:
                if (i + n - r) % 3:
                    raise ValueError(f"monomial cbrt2^{i} z^{n} is not in the class r = {r} mod 3")
                acc += q * 2 ** ((i + n - r) // 3)
        out.append(acc)
    return Poly(out)


@lru_cache(maxsize=1)
def antiderivative_g3() -> tuple[LogRationalExpr, RatFunc]:
    """The cube-root case, printed in z over Q(cbrt(2)), as the pair g3(cbrt2 w)
    and cbrt2 I(cbrt2 w) over Q: z = cbrt2 w is a change of variable, so g3' = I
    iff d/dw g3(cbrt2 w) = cbrt2 I(cbrt2 w).  Each printed factor is cbrt2^r
    times a polynomial over Q in w (`_in_w`); the log argument becomes
    1/(1 - w)^3, and the quartic's cbrt2 (r = 1) cancels the one before I."""
    num, den, log_cube, sextic, nonic, cube, quartic = (
        _in_w(p, r) for p, r in _g3_z_factors())
    g3 = LogRationalExpr(rational_part=RatFunc(num, den),
                         log_terms=((F(-20, 3), RatFunc(Poly([2]), log_cube)),))
    return g3, RatFunc(sextic * nonic, cube * quartic)


@lru_cache(maxsize=1)
def antiderivative_g4() -> tuple[LogRationalExpr, RatFunc]:
    Qz = Poly([6, 11, 18, 27, -68, -126, -216, -351, 54, 135, 270, 486])
    g4 = LogRationalExpr(
        rational_part=RatFunc(2 * Poly([0, 1]) * Qz, Poly([-1, 0, 0, 0, 3]) ** 3),
        log_terms=((F(5), RatFunc(Poly([-1, 1]) ** 4, Poly([1, 0, 0, 0, 1]))),),
    )
    return g4, RatFunc(_G4_NUM, _G4_DEN)


# ---------------------------------------------------------------------------
# the bracket decomposition


S5 = Poly([0, 5, 14, -16, -30, 27])   # 27y^5 - 30y^4 - 16y^3 + 14y^2 + 5y
S3 = Poly([0, -1, -2, 3])             # 3y^3 - 2y^2 - y


def standard_basis() -> tuple:
    """The basis elements 16 S5 - a'', 4 S3 - a' and y - a, each as its part
    over Q and its constant in Q(alpha)."""
    a = alpha_context()
    return ((S5.scale(16), -f_second(a)), (S3.scale(4), -f_prime(a)), (Poly([0, 1]), -a))


class DecompositionResult(NamedTuple):
    coefficients: tuple  # (c1, c2, c3) Fractions
    residual: Poly       # rows y^1 and up, over Q; zero on success
    constant: NFElem     # the constant row, in Q(alpha); zero on success

    @property
    def ok(self) -> bool:
        return self.residual.is_zero() and self.constant.is_zero()


def solve_decomposition(target: Poly, basis: tuple) -> DecompositionResult:
    """Rationals (c1, c2, c3) with target = c1 (16 S5 - a'') + c2 (4 S3 - a')
    + c3 (y - a), for a target over Q and a basis of three (part over Q,
    constant in Q(alpha)) pairs such as `standard_basis()`.

    Least-structured exact solve from the y^5, y^3, y^1 rows.  The ci are
    rational and the target is over Q, so the rows y^1 and up of the residual
    are over Q and only its constant row lives in Q(alpha): each is computed
    in its own ring, and both are returned, never assumed."""
    t5, t3, t1 = (target[i] for i in (5, 3, 1))
    c1 = t5 / 432
    c2 = (t3 + 256 * c1) / 12
    c3 = t1 - 80 * c1 + 4 * c2
    coefficients = (c1, c2, c3)
    rows = target
    for c, (part, _) in zip(coefficients, basis):
        rows = rows - part.scale(c)
    constant = rows[0] - sum(c * k for c, (_, k) in zip(coefficients, basis))
    return DecompositionResult(coefficients, rows - Poly([rows[0]]), constant)


def standard_decomposition() -> DecompositionResult:
    """The decomposition used by every sigma chain: target is the series-level
    scaling (1/8)(27y^2-3y-40)(cubic), for which the solved weights are
    (11/128, -35/8, 11)."""
    target = (_G_QUADRATIC * ALPHA_CUBIC).scale(F(1, 8))
    return solve_decomposition(target, standard_basis())


# ---------------------------------------------------------------------------
# sigma chains: assembled rational parts and their printed closures


Q33 = Poly([1, 12, 54, 108, 33])
Q97 = Poly([1, 12, 54, 108, 97])
C3 = Poly([1, 9, 27, 11])   # 11y^3 + 27y^2 + 9y + 1

P1 = Poly([99, 3580, 59938, 615636, 4319865, 21786588, 80835264, 221967000,
           447600789, 649292868, 654760746, 437065524, 178503183, 40573764, 3750516])
P2 = Poly([1, 44, 881, 10640, 86653, 504220, 2167757, 7024768, 17347827,
           32761508, 47083971, 50600432, 39021903, 19641236, 4964927])
P3 = Poly([9, 311, 4712, 41220, 229586, 845834, 2077344, 3356404, 3436765,
           2018295, 599104, 71632])
P4 = Poly([27, 1172, 23114, 275580, 2221641, 12792132, 54045864, 169175304,
           390925197, 655999884, 773801154, 604283868, 276465231, 63476028, 5867532])
P5 = Poly([1, 24, 245, 1356, 4177, 5660, -5139, -30728, -30309, 41488,
           108295, 20604, -111085, -54788, 82967])

_Y = Poly([0, 1])
_U = RatFunc(Poly([0, 2]), Poly([1, 3]))        # 2y/(3y+1)
_DERIV_NUM = f_prime(RatFunc(_Y))               # f' in terms of y = f
_Y5_64 = 64 * _Y ** 5                           # the numerator of f' = 64y^5/(3y+1)^2

# r_j, the rational constant of the right-hand side of thm1.1-H_jk
_SIGMA_R = (0, 214, -196, -151)


@lru_cache(maxsize=None)
def sigma_rational(idx: int) -> RatFunc:
    """The rational part of sigma_idx: that of g_idx at its substituted point
    (y for idx=1, then u^2, cbrt2*u and u with u = 2y/(3y+1); g3 is held in
    w = z/cbrt2, so its point is u), plus (c2/16) f' + c1 (y - 1) - r_idx, with
    c1 and c2 the k and k^2 coefficients of channel 0 of thm1.1-H_jk, j = idx."""
    if idx not in (1, 2, 3, 4):
        raise ValueError("idx must be 1..4")
    builder = (antiderivative_g, antiderivative_g2, antiderivative_g3, antiderivative_g4)[idx - 1]
    g = builder()[0].rational_part
    if idx > 1:
        g = g(_U * _U if idx == 2 else _U)
    spec = catalog_by_id()["thm1.1-Hk" if idx == 1 else f"thm1.1-H{idx}k"].components[0][1]
    _, c1, c2 = spec.channels[0]
    return g + c2 / 16 * _DERIV_NUM + c1 * RatFunc(Poly([-1, 1])) - _SIGMA_R[idx - 1]


def sigma_rational_closure(idx: int, quartic: Poly = Q33) -> CheckOutcome:
    """The printed closed form of each sigma rational part, as an identity of
    rational functions in y.  idx=2 and idx=4 take the disambiguation quartic."""
    if idx == 1:
        rhs = RatFunc(27 * _Y * Poly([1, 1]) * ALPHA_CUBIC, 2 * Poly([1, 3]) ** 2)
    elif idx == 2:
        rhs = RatFunc(ALPHA_CUBIC * P1, Poly([1, 3]) ** 2 * quartic ** 3)
    elif idx == 3:
        rhs = RatFunc(-2 * ALPHA_CUBIC * P3, Poly([1, 3]) ** 2 * C3 ** 3)
    elif idx == 4:
        rhs = RatFunc(-(ALPHA_CUBIC * P4), 2 * Poly([1, 3]) ** 2 * quartic ** 3)
    else:
        raise ValueError("idx must be 1..4")
    return zero_check(sigma_rational(idx) - rhs)


def sigma_log_ident(idx: int, quartic: Poly = Q97) -> CheckOutcome:
    """Polynomial identities behind the log cancellations.  idx=2 and idx=4
    take the disambiguation quartic; the 97-quartic closes them, the 33 one
    does not."""
    if idx in (1, 3):
        lhs = Poly([1, 1]) ** 3 * Poly([1, 3]) ** 2 + Poly([1, 2, 5]) * ALPHA_CUBIC
        return check_poly_identity(lhs, _Y5_64)
    if idx == 2:
        lhs = (_Y5_64 * quartic ** 3
               - Poly([1, 1]) ** 6 * Poly([1, 3]) ** 5 * Poly([1, 5]) ** 6)
        return check_poly_identity(lhs, ALPHA_CUBIC * P2)
    if idx == 4:
        lhs = Poly([-1, 1]) ** 5 * quartic ** 3 - ALPHA_CUBIC * P5
        return check_poly_identity(lhs, 4 * Poly([0, 0, 0, 1]) * Poly([1, 1]) ** 12 * Poly([1, 3]) ** 2)
    raise ValueError("idx must be 1..4")


def p_identity(which: int, quartic: Optional[Poly] = None) -> CheckOutcome:
    """The p1..p5 closures; p1/p2 (and the p4 denominator) accept a candidate
    quartic so both printed variants can be probed."""
    if which == 1:
        return sigma_rational_closure(2, quartic if quartic is not None else Q33)
    if which == 2:
        return sigma_log_ident(2, quartic if quartic is not None else Q97)
    if which == 3:
        return sigma_rational_closure(3)
    if which == 4:
        return sigma_rational_closure(4, quartic if quartic is not None else Q33)
    if which == 5:
        return sigma_log_ident(4)
    raise ValueError("which must be 1..5")


def sigma_value_closure(idx: int) -> CheckOutcome:
    """Direct evaluation at the algebraic point: the sigma rational part
    reduces to 0 in Q(alpha) and the merged log argument reduces to exactly 1,
    which together close sigma = stated constant."""
    a = alpha_context()
    one = a.field.one()
    u = _U(a)                           # 2a/(3a+1); the j=2 point is u^2
    if idx == 1:
        M = (2 * a / (a + 1)) ** 3 * (2 * u) ** 2 / 2
    elif idx == 2:
        w = u * u
        M = ((w - 1) ** 2 / (w * w + 1)) ** 3 / (2 * u) ** 5 * 16
    elif idx == 3:
        M = ((3 * a + 1) / (a + 1)) ** 3 * (2 * u) ** 5 / 16
    elif idx == 4:
        M = ((u - 1) ** 4 / (u ** 4 + 1)) ** 3 / (2 * u) ** 17 * (2 ** 16)
    else:
        raise ValueError("idx must be 1..4")
    r = sigma_rational(idx)(a)
    if not r.is_zero():
        return CheckOutcome(False, witness=f"rational part {r!r}")
    if not (M - one).is_zero():
        return CheckOutcome(False, witness=f"log argument {M!r}")
    return CheckOutcome(True)


def alpha_power_identity() -> CheckOutcome:
    """(3a+1)^15 (a-1)^5 = 16^5 a^20 in Q(alpha)."""
    a = alpha_context()
    return zero_check((3 * a + 1) ** 15 * (a - 1) ** 5 - (16 ** 5) * a ** 20)


# ---------------------------------------------------------------------------
# summation-by-parts per-step identity (over Q(k), coefficient by coefficient in m)

# The printed kernel numerators K0(k) + m K1(k), as (K0, K1) in ascending powers
# of k: A is (256 - 27m)k^3 + 384k^2 + (176 + 3m)k + 24 over 3k+1, B is
# (256 - 27m)k^3 + 3(128 - 9m)k^2 + 2(88 - 3m)k + 24 over (3k+1)(3k+2).
_ABEL_K0 = (24, 176, 384, 256)
_ABEL_KERNELS = {"A": (_ABEL_K0, (0, 3, 0, -27)), "B": (_ABEL_K0, (0, -6, -27, -27))}


def _abel_weight(variant: str) -> tuple[RatFunc, Poly]:
    """(w, den) of a variant: w(k) = 8(2k+1)(4k+1)(4k+3)/den(k), den(k) the
    kernel denominator 3k+1 (A) or (3k+1)(3k+2) (B)."""
    if variant not in ("A", "B"):
        raise ValueError("variant must be 'A' or 'B'")
    den = Poly([1, 3]) if variant == "A" else Poly([1, 3]) * Poly([2, 3])
    return RatFunc(8 * Poly([1, 2]) * Poly([1, 4]) * Poly([3, 4]), den), den


def check_abel_step(variant: str) -> CheckOutcome:
    """w(k) - m w(k-1)/rho(k) equals the printed summand kernel K0(k) + m K1(k)
    for every m.  Both sides have degree 1 in m with coefficients in Q(k), and
    m is free, so the identity holds iff w = K0 and -w(k-1)/rho = K1: two
    identities of rational functions over Q in k.  The witness names the m^0
    or m^1 part that fails.  rho(k) = C(4k,k)/C(4k-4,k-1) is `series._rho` at k-1."""
    w, den = _abel_weight(variant)
    shift = Poly([-1, 1])  # k -> k-1
    rho = RatFunc(*series._rho(Poly([0, 1]))).compose(shift)
    k0, k1 = _ABEL_KERNELS[variant]
    for part, lhs, kernel in (("m^0", w, k0), ("m^1", -w.compose(shift) / rho, k1)):
        diff = lhs - RatFunc(Poly(kernel), den)
        if not diff.is_zero():
            return CheckOutcome(False, witness=f"{part} part: {diff!r}")
    return CheckOutcome(True)


def abel_telescoped_sum(variant: str, m: Fraction, psi, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the finite summation-by-parts identity with the corrected
    boundary term w(0)*psi(0); returns (lhs, rhs) as exact rationals."""
    m = Fraction(m)
    weight, den = _abel_weight(variant)
    k0, k1 = (Poly(c) for c in _ABEL_KERNELS[variant])
    lhs = Fraction(0)
    for k in range(1, n + 1):
        lhs += math.comb(4 * k, k) * psi(k) * (k0(k) + m * k1(k)) / (den(k) * m**k)

    def w(k: int) -> Fraction:
        return weight(k) * math.comb(4 * k, k)

    rhs = w(n) * psi(n) / m**n - w(0) * psi(0)
    for k in range(0, n):
        rhs -= w(k) * (psi(k + 1) - psi(k)) / m**k
    return lhs, rhs


def abel_boundary_discrepancy(variant: str = "A") -> Fraction:
    """Printed form of the summation lemma minus the truth, for psi = 1, n = 1,
    m = 16: equals -w(0)*psi(0), i.e. -24 (variant A) / -12 (variant B)."""
    psi = lambda k: Fraction(1)
    lhs, rhs_corrected = abel_telescoped_sum(variant, Fraction(16), psi, 1)
    rhs_printed = rhs_corrected + _abel_weight(variant)[0](0) * psi(0)
    return lhs - rhs_printed


# ---------------------------------------------------------------------------
# partial fractions


def partial_fraction_decomposition(corrected: bool = True) -> CheckOutcome:
    """(11k^2+8k+1)/((3k+1)(3k+2)) as the four-term combination.  The printed
    display transposes the two cubic numerators; `corrected=False` probes the
    display as printed (it fails at k=1)."""
    lhs = RatFunc(Poly(Q_COEFFS), Poly([1, 3]) * Poly([2, 3]))
    cubic_a, cubic_b = Poly(CUBIC_31), Poly(CUBIC_32)
    if not corrected:
        cubic_a, cubic_b = cubic_b, cubic_a
    rhs = (RatFunc(Poly(P_COEFFS).scale(F(-1, 5)))
           - F(3, 40) * RatFunc(cubic_a, Poly([1, 3]))
           + F(3, 8) * RatFunc(cubic_b, Poly([1, 3]) * Poly([2, 3])))
    return zero_check(lhs - rhs)


# ---------------------------------------------------------------------------
# the five x-specializations of section 5


def theorem3_combination(case: str, gamma: NFElem) -> NFElem:
    """X, the closed form of the lemma 5.1 combination, which it states is r sqrt(d)."""
    x0, _, (wa, wb, wc), (q0, q1), _ = LEMMA51_CASES[case]
    g = gamma
    xg = x0 * f_prime(g)                           # sum k C(4k,k) x^k = x f'(x)
    sa = q1 * xg + q0 * g                          # sum (q0 + q1 k) C x^k
    sb = 4 * g / (3 * g + 1)                       # sum C x^k/(3k+1)
    sc = sb * sb                                   # sum (8k+2) C x^k/((3k+1)(3k+2))
    return wa * sa + wb * sb + wc * sc


def check_theorem3_reduction(case: str) -> CheckOutcome:
    """The combination X is r sqrt(d) in Q(f(x0))."""
    _, d, _, _, r = LEMMA51_CASES[case]
    g = case_context(case)
    return times_sqrt(theorem3_combination(case, g), g.field.const(r), d)


# ---------------------------------------------------------------------------
# substituted integrands of section 3


class SubstitutedIntegrand(NamedTuple):
    j: int
    num: Poly
    den: Poly
    upper_desc: str
    upper_interval: Ival                # rational enclosure of the upper limit

    def denominator_root_free(self) -> bool:
        """No denominator zero on the closed segment [0, upper limit]."""
        hi = self.upper_interval[1]
        if self.den(F(0)) == 0 or self.den(hi) == 0:
            return False
        return count_roots(self.den.squarefree_part(), F(0), hi) == 0


def substituted_integrands(j: int, width: Fraction = F(1, 10**9)) -> SubstitutedIntegrand:
    """The z-substituted forms of the weighted integrals at x = 1/16, with the
    removable endpoint factor of j=3 cancelled exactly, and the upper limit
    enclosed to about `width`.

    j=3 is printed in z over Q(cbrt(2)) and is returned in w = z/cbrt2, over
    Q: z = cbrt2 w is a change of variable, so the integral of I(z) over
    [0, cbrt2 u] is that of cbrt2 I(cbrt2 w) over [0, u], u = 2a/(3a+1).
    Each printed factor is cbrt2^r times a polynomial over Q in w (`_in_w`),
    and the quartic's cbrt2 (r = 1) cancels the one from dz.  The quartic
    z^4 - 4z + 2 cbrt2 becomes 2(w^4 - 2w + 1) = (w - 1) M_w, with
    z - cbrt2 = cbrt2 (w - 1) and M_w = 2(w^3 + w^2 + w - 1) the image of the
    upper endpoint's minimal polynomial; M_w divides the nonic
    z^9 - 10z^6 + 28z^3 - 8 = 8(w^9 - 5w^6 + 7w^3 - 1) exactly.  Both
    divisions are checked (a nonzero remainder raises).
    """
    u = _U(alpha_context())             # 2a/(3a+1)
    if j == 2:
        return SubstitutedIntegrand(
            j=2,
            num=_G2_NUM,
            den=_G2_DEN,
            upper_desc="4a^2/(3a+1)^2 with a = f(1/16)",
            upper_interval=(u * u).embedding_interval(width),
        )
    if j == 4:
        return SubstitutedIntegrand(
            j=4,
            num=_G4_NUM,
            den=_G4_DEN,
            upper_desc="2a/(3a+1) with a = f(1/16)",
            upper_interval=u.embedding_interval(width),
        )
    if j == 3:
        w_minus_1 = Poly([-1, 1])
        m_w = exact_quotient(_in_w(_g3_quartic(), 1), w_minus_1)
        n6 = exact_quotient(_in_w(_G3_NONIC.coeffs), m_w)
        return SubstitutedIntegrand(
            j=3,
            num=_in_w(_G3_SEXTIC.coeffs) * n6,
            den=_in_w(_G3_CUBE_FACTOR.coeffs) * w_minus_1,
            upper_desc="2 cbrt2 a/(3a+1) with a = f(1/16)",   # named in z; the interval is u
            upper_interval=u.embedding_interval(width),
        )
    raise ValueError("j must be 2, 3 or 4")


# ---------------------------------------------------------------------------
# the composite exact-check suite


class ExactCheck(NamedTuple):
    name: str
    passed: bool
    witness: Optional[str] = None
    note: Optional[str] = None


def run_exact_checks(only: Optional[str] = None) -> list[ExactCheck]:
    """Run the exact suite, or the check named `only`, or else those whose names contain it."""
    from . import genfunc

    suite = []   # (name, fn, args), run once `only` is resolved

    def add(name, fn, *args):
        suite.append((name, fn, args))

    add("quartic-f", genfunc.check_quartic_f)
    for m in range(1, 6):
        add(f"gm-equation-m{m}", genfunc.check_gm, m)
        add(f"gm-log-m{m}", genfunc.check_log_gm, m)
    add("f-log", genfunc.check_f_log)
    add("f-derivatives", genfunc.check_derivatives_f)

    def lagrange():
        for m in range(1, 6):
            for n in range(1, 5):
                r = genfunc.check_lagrange(m, n)
                if not r.ok:
                    return CheckOutcome(False, f"m={m} n={n} {r.witness}")
        return CheckOutcome(True, note="m in 1..5, n in 1..4, in Q(z), x = z(1-z)^(m-1)")
    add("lagrange", lagrange)

    def alpha_ctx():
        alpha_context()  # raises on any invariant failure
        return CheckOutcome(True, note="(11/128)a'' - (35/8)a' + 11a + 5 reduced to exact 0")
    add("alpha-context", alpha_ctx)

    def beta_ctx():
        beta_context()
        return CheckOutcome(True, note="quadratic in sqrt(2) reduced to exact 0; "
                                       "embedding in (0.9, 1)")
    add("beta-context", beta_ctx)

    add("alpha-power-identity", alpha_power_identity)

    def decomposition():
        r = standard_decomposition()
        expected = (F(11, 128), F(-35, 8), F(11))
        ok = r.ok and r.coefficients == expected
        wit = None if ok else (f"coefficients {r.coefficients}, residual {r.residual.pretty()}, "
                               f"constant {r.constant!r}")
        return CheckOutcome(ok, wit, note="weights solved, not assumed: the printed display "
                                          "scaling does not balance, the series-level scaling does")
    add("decomposition", decomposition)

    for tag, builder in (("g", antiderivative_g), ("g2", antiderivative_g2),
                         ("g3", antiderivative_g3), ("g4", antiderivative_g4)):
        def anti(builder=builder, tag=tag):
            oc = check_antiderivative(*builder())
            return CheckOutcome(oc.ok, oc.witness, "over Q(cbrt(2))" if tag == "g3" else None)
        add(f"antiderivative-{tag}", anti)

    add("sigma1-rational-closure", sigma_rational_closure, 1)
    add("sigma1-log-closure", sigma_log_ident, 1)
    for idx in (1, 2, 3, 4):
        add(f"sigma{idx}-value-closure", sigma_value_closure, idx)

    def closes_only(true, wrong, both_closed: str, note: str):
        """A check that passes when the true variant closes and the wrong
        (printed or adjacent) variant does not."""
        def run():
            good, bad = true(), wrong()
            ok = good.ok and not bad.ok
            return CheckOutcome(ok, None if ok else (good.witness or both_closed), note)
        return run

    add("p1-identity", closes_only(
        lambda: p_identity(1, Q33), lambda: p_identity(1, Q97),
        "both quartic candidates closed",
        "closes with the 33-quartic; the 97-quartic does not "
        "(the two printed quartics serve different spots)"))
    add("p2-identity", closes_only(
        lambda: p_identity(2, Q97), lambda: p_identity(2, Q33),
        "both quartic candidates closed",
        "closes with the 97-quartic; the 33-quartic does not"))
    add("p3-identity", p_identity, 3)
    add("p4-identity", closes_only(
        lambda: p_identity(4, Q33), lambda: sigma_rational_closure(4, C3),
        "printed denominator also closed",
        "denominator is the 33-quartic cube; the printed "
        "(11y^3+27y^2+9y+1)^3 does not close (degree mismatch)"))

    add("p5-identity", p_identity, 5)

    for variant in ("A", "B"):
        add(f"abel-step-{variant}", check_abel_step, variant)

    def abel_numeric():
        psi = lambda k: harmonic(k)
        for variant in ("A", "B"):
            lhs, rhs = abel_telescoped_sum(variant, F(16), psi, 2)
            if lhs != rhs:
                return CheckOutcome(False, f"variant {variant}: {lhs} != {rhs}")
        return CheckOutcome(True, note="n=2, m=16, psi=H_k, exact rationals")
    add("abel-telescoping-numeric", abel_numeric)

    def abel_boundary():
        dA = abel_boundary_discrepancy("A")
        dB = abel_boundary_discrepancy("B")
        ok = (dA == -24) and (dB == -12)
        return CheckOutcome(ok, None if ok else f"A: {dA}, B: {dB}",
                            note="printed lemma omits the k=0 boundary term w(0)psi(0); "
                                 "discrepancy -24 psi(0) (A) / -12 psi(0) (B); every use "
                                 "has psi(0) = 0")
    add("abel-boundary-convention", abel_boundary)

    add("partial-fractions", closes_only(
        lambda: partial_fraction_decomposition(corrected=True),
        lambda: partial_fraction_decomposition(corrected=False),
        "printed transposition also closed",
        "printed display transposes the two cubic numerators; "
        "the corrected pairing closes, the printed one fails"))

    for case in LEMMA51_CASES:
        add(f"theorem3-reduction-{case}", check_theorem3_reduction, case)

    for j in (2, 3, 4):
        def domain(j=j):
            si = substituted_integrands(j)
            ok = si.denominator_root_free()
            return CheckOutcome(ok, None if ok else "denominator zero inside [0, upper]",
                                note=f"upper limit {si.upper_desc}")
        add(f"integrand-domain-j{j}", domain)

    chosen = [c for c in suite if c[0] == only] or [c for c in suite if (only or "") in c[0]]
    checks: list[ExactCheck] = []
    for name, fn, args in chosen:
        try:
            oc = fn(*args)
        except Exception as exc:  # a crash is a failure with the message as witness
            oc = CheckOutcome(False, f"{type(exc).__name__}: {exc}")
        checks.append(ExactCheck(name, oc.ok, oc.witness, oc.note))
    return checks
