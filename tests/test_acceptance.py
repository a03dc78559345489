"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to see
them).  Tolerances are pinned here, not configured elsewhere:

  1. full numeric catalog at 50 digits, each difference enclosure contains 0
     with width <= 1e-49, single-threaded runtime <= 120 s
  2. exact functional-equation suite as identities in Q(z), <= 10 s
  3. Lagrange inversion exact for m in 1..5, n in 1..4, as identities in Q(z)
  4. algebraic contexts reduce to exact zero
  5. symbolic proof suite (antiderivatives, decomposition, p-closures with
     the quartic disambiguation, summation by parts, partial fractions)
  6. quadrature cross-checks at 1e-20
  7. every entry's 10-digit enclosure contains an independent 500-term
     partial sum within the certified tail bound
  8. report determinism across worker counts
"""

import math
import re
import time
from fractions import Fraction as F

from binom4k.catalog import builtin_catalog
from binom4k.cli import records_json, run_crosscheck, run_verify_all
from binom4k.genfunc import (
    check_derivatives_f,
    check_f_log,
    check_gm,
    check_lagrange,
    check_log_gm,
    check_quartic_f,
    f_prime,
    f_second,
)
from binom4k.proofs import (
    Q33,
    Q97,
    alpha_context,
    beta_context,
    case_context,
    check_abel_step,
    check_antiderivative,
    antiderivative_g,
    antiderivative_g2,
    antiderivative_g3,
    antiderivative_g4,
    p_identity,
    partial_fraction_decomposition,
    sigma_rational_closure,
    standard_decomposition,
)
from binom4k.series import DENOM_FACTORS, tail_bound_exact


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_numeric_suite_50_digits():
    t0 = time.perf_counter()
    records = run_verify_all(50, jobs=1)
    elapsed = time.perf_counter() - t0
    assert len(records) == 36
    widths_ok = all(r.status == "PASS" for r in records)
    # PASS already encodes: difference contains 0 and width <= 10^(1-50)
    _report("1 (verify-all, 50 digits)",
            widths_ok and elapsed <= 120.0,
            f"36 entries, {elapsed:.1f}s single-threaded")


def test_criterion_2_functional_equations_order_64():
    t0 = time.perf_counter()
    ok = check_quartic_f().ok
    for m in range(1, 6):
        ok = ok and check_gm(m).ok and check_log_gm(m).ok
    ok = ok and check_f_log().ok and check_derivatives_f().ok
    elapsed = time.perf_counter() - t0
    _report("2 (functional equations, identities in Q(z))",
            ok and elapsed <= 10.0, f"{elapsed:.2f}s")


def test_criterion_3_lagrange_inversion():
    ok = all(check_lagrange(m, n).ok
             for m in range(1, 6) for n in range(1, 5))
    _report("3 (Lagrange inversion m<=5, n<=4, identities in Q(z))", ok)


def test_criterion_4_algebraic_contexts():
    a = alpha_context()
    relation = F(11, 128) * f_second(a) - F(35, 8) * f_prime(a) + 11 * a + 5
    b = beta_context()
    L, R = 14 * b * b - 1, 7 * b + 2
    square = (L * L - 2 * R * R).is_zero() and L.sign() == R.sign() == 1
    s2 = L / R  # sqrt 2, by the square and the signs
    quad = 14 * b * b - 7 * s2 * b - 1 - 2 * s2
    power = (3 * a + 1) ** 15 * (a - 1) ** 5 - 16 ** 5 * a ** 20
    one_field = beta_context().field is case_context("m256").field
    ok = relation.is_zero() and square and quad.is_zero() and power.is_zero() and one_field
    _report("4 (algebraic contexts exact)", ok)


def test_criterion_5_symbolic_proof_suite():
    ok = True
    for builder in (antiderivative_g, antiderivative_g2, antiderivative_g3,
                    antiderivative_g4):
        g, integrand = builder()
        ok = ok and check_antiderivative(g, integrand).ok
    dec = standard_decomposition()
    ok = ok and dec.ok and dec.coefficients == (F(11, 128), F(-35, 8), F(11))
    ok = ok and p_identity(2).ok and p_identity(3).ok
    ok = ok and p_identity(4, Q33).ok and p_identity(5).ok
    ok = ok and check_abel_step("A").ok and check_abel_step("B").ok
    ok = ok and partial_fraction_decomposition().ok
    # quartic disambiguation: exactly one of the two printed quartics closes
    # each sigma2 identity, and the tool reports which
    rational_33 = sigma_rational_closure(2, Q33).ok
    rational_97 = sigma_rational_closure(2, Q97).ok
    log_97 = p_identity(2, Q97).ok
    log_33 = p_identity(2, Q33).ok
    disamb = (rational_33 and not rational_97) and (log_97 and not log_33)
    _report("5 (symbolic proof suite)", ok and disamb,
            "33-quartic closes the rational part, 97-quartic the log part")


def test_criterion_6_quadrature_crosschecks():
    ok = True
    details = []
    for j in (1, 2, 3, 4):
        rec = run_crosscheck(j, F(1, 16), 1e-20)
        ok = ok and rec.status == "PASS"
        details.append(f"j={j} {rec.status}")
    _report("6 (quadrature cross-checks, 1e-20)", ok, ", ".join(details))


def _independent_partial_sum(spec, terms: int) -> F:
    """500-term oracle: math.comb plus a local harmonic accumulator; no use
    of the engine's recurrences or tail machinery."""
    H = [F(0)]
    for i in range(1, 4 * terms + 5):
        H.append(H[-1] + F(1, i))
    total = F(0)
    for k in range(spec.start, terms + 1):
        num = F(0)
        for j, coeffs in spec.channels.items():
            val = sum(c * k**i for i, c in enumerate(coeffs))
            num += val if j == 0 else val * H[j * k]
        den = F(1)
        for name in spec.denominator_factors:
            aa, bb = DENOM_FACTORS[name]
            den *= aa * k + bb
        term = spec.x**k * num / den
        c4k = math.comb(4 * k, k)
        total += term * c4k if spec.binomial_power == 1 else term / c4k
    return total


def test_criterion_7_oracle_equivalence_500_terms():
    from binom4k.series import sum_series
    bad = []
    for entry in builtin_catalog():
        for weight, spec in entry.components:
            ball = sum_series(spec, 10)
            oracle = _independent_partial_sum(spec, 500)
            tb = tail_bound_exact(spec, 500)
            if not (ball.lo_fraction() - tb <= oracle <= ball.hi_fraction() + tb):
                bad.append(entry.id)
    _report("7 (independent 500-term oracle, 10 digits)", not bad,
            f"failures: {bad}" if bad else "all components")


def test_criterion_8_determinism():
    r1 = re.sub(r'"elapsed_ms": [0-9.]+', "", records_json(run_verify_all(12, 1)))
    r8 = re.sub(r'"elapsed_ms": [0-9.]+', "", records_json(run_verify_all(12, 8)))
    _report("8 (jobs=1 vs jobs=8 determinism)", r1 == r8)
