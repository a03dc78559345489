"""Symbolic proof suite: antiderivatives, decomposition, polynomial closures,
summation by parts, partial fractions, the five quartic-field reductions,
and the substituted integrands."""

import dataclasses
import random
import types
from fractions import Fraction as F

import pytest

from binom4k import proofs
from binom4k.catalog import LEMMA51_CASES, catalog_by_id
from binom4k.exact import Poly, RatFunc
from binom4k.genfunc import ALPHA_CUBIC, f_second
from binom4k.proofs import (
    C3,
    Q33,
    Q97,
    LogRationalExpr,
    abel_boundary_discrepancy,
    abel_telescoped_sum,
    alpha_power_identity,
    antiderivative_g,
    antiderivative_g2,
    antiderivative_g3,
    antiderivative_g4,
    case_context,
    cbrt2_field,
    check_abel_step,
    check_antiderivative,
    check_poly_identity,
    check_theorem3_reduction,
    diff_log_rational,
    p_identity,
    partial_fraction_decomposition,
    run_exact_checks,
    sigma_log_ident,
    sigma_rational_closure,
    sigma_value_closure,
    solve_decomposition,
    standard_basis,
    standard_decomposition,
    substituted_integrands,
    theorem3_combination,
    _g3_quartic,
    _g3_z_factors,
    _in_w,
)
from binom4k.series import harmonic


def _at(zs, z):
    """The value at z of the polynomial with coefficients zs (ascending), by
    Horner in whatever ring z and zs lie in."""
    acc = 0
    for c in reversed(zs):
        acc = acc * z + c
    return acc


def _rf(num, den=None) -> RatFunc:
    return RatFunc(Poly(num) if not isinstance(num, Poly) else num,
                   Poly(den) if den is not None and not isinstance(den, Poly) else den)


class TestDiffLogRational:
    def test_log_y(self):
        e = LogRationalExpr(rational_part=_rf([0]), log_terms=((F(1), _rf([0, 1])),))
        assert diff_log_rational(e) == _rf([1], [0, 1])

    def test_quotient_chain_rule(self):
        # d/dz [10 log((z-1)^2/(z^2+1))] = 20/(z-1) - 20z/(z^2+1)
        e = LogRationalExpr(
            rational_part=_rf([0]),
            log_terms=((F(10), RatFunc(Poly([-1, 1]) ** 2, Poly([1, 0, 1]))),))
        got = diff_log_rational(e)
        expected = _rf([20], [-1, 1]) - _rf([0, 20], [1, 0, 1])
        assert got == expected

    def test_g_derivative_matches_printed(self):
        g, integrand = antiderivative_g()
        assert diff_log_rational(g) == integrand
        # and the printed form explicitly
        printed = RatFunc(Poly([-40, -3, 27]) * Poly([1, 3]) ** 2,
                          2 * Poly([0, 1]) * Poly([1, 1]))
        assert diff_log_rational(g) == printed

    def test_linearity_random(self):
        rng = random.Random(17)
        for _ in range(10):
            mk_rf = lambda: RatFunc(Poly([rng.randint(-5, 5) for _ in range(3)]),
                                    Poly([rng.randint(1, 5), rng.randint(1, 4)]))
            mk = lambda: LogRationalExpr(
                rational_part=mk_rf(),
                log_terms=((F(rng.randint(1, 7)), mk_rf() + 9),))
            e1, e2 = mk(), mk()
            combined = LogRationalExpr(
                rational_part=e1.rational_part + e2.rational_part,
                log_terms=e1.log_terms + e2.log_terms)
            assert diff_log_rational(combined) == \
                diff_log_rational(e1) + diff_log_rational(e2)


class TestAntiderivatives:
    def test_all_four(self):
        for builder in (antiderivative_g, antiderivative_g2,
                        antiderivative_g3, antiderivative_g4):
            g, integrand = builder()
            assert check_antiderivative(g, integrand).ok

    def test_g3_factors_in_w(self):
        """Each printed factor p of g3 and its integrand, with its class r:
        p(cbrt2 w) = cbrt2^r _in_w(p, r)(w) at rational w, the left side
        evaluated in Q(cbrt(2))."""
        c = cbrt2_field().gen()
        factors = _g3_z_factors()
        assert [r for _, r in factors] == [0, 0, 0, 0, 0, 0, 1]
        assert factors[2][0] == (2, -3 * c * c, 3 * c, -1)  # (cbrt2 - z)^3
        for zs, r in factors:
            q = _in_w(zs, r)
            for w in (F(-3), F(-1, 2), F(1, 3), F(2, 5), F(7, 4)):
                assert _at(zs, c * w) == c ** r * q(w)

    def test_g3_log_argument_in_w(self):
        g3, _ = antiderivative_g3()
        # the log argument 2/(cbrt2 - z)^3 at z = cbrt2 w
        assert g3.log_terms == ((F(-20, 3), RatFunc(Poly([1]), Poly([1, -1]) ** 3)),)

    def test_in_w_rejects_a_monomial_outside_its_class(self):
        c = cbrt2_field().gen()
        with pytest.raises(ValueError, match="class"):
            _in_w((c, 1))
        with pytest.raises(ValueError, match="class"):
            _in_w(_g3_quartic())          # its class is r = 1
        with pytest.raises(ValueError, match="class"):
            _in_w((0, 0, 1), 1)
        assert _in_w((c, -1), 1) == Poly([1, -1])

    def test_constructed_mismatch(self):
        e = LogRationalExpr(rational_part=_rf([0]), log_terms=((F(1), _rf([0, 1])),))
        bad = _rf([1], [1, 1])  # 1/(y+1), not the derivative of log y
        r = check_antiderivative(e, bad)
        assert not r.ok and r.witness


class TestDecomposition:
    def test_standard_weights(self):
        r = standard_decomposition()
        assert r.ok
        assert r.coefficients == (F(11, 128), F(-35, 8), F(11))

    def test_zero_target(self):
        basis = standard_basis()
        zero = Poly()
        r = solve_decomposition(zero, basis)
        assert r.ok and r.coefficients == (0, 0, 0)

    def test_basis_element_target(self):
        """The part over Q of each basis element solves to that element alone,
        and leaves exactly minus its constant in Q(alpha) on the constant
        row; twice the standard target solves to twice its weights."""
        basis = standard_basis()
        for i, (part, k) in enumerate(basis):
            r = solve_decomposition(part, basis)
            assert r.coefficients == tuple(int(n == i) for n in range(3))
            assert r.residual.is_zero() and r.constant == -k and not r.ok
        target = (Poly([-40, -3, 27]) * ALPHA_CUBIC).scale(F(1, 4))
        r = solve_decomposition(target, basis)
        assert r.ok and r.coefficients == (F(11, 64), F(-35, 4), F(22))

    def test_inconsistent_target_reports_residual(self):
        basis = standard_basis()
        bad = Poly([1, 2, 3])  # 3y^2+2y+1 is not in the span
        r = solve_decomposition(bad, basis)
        assert not r.ok
        assert not r.residual.is_zero()
        # the standard target plus 1: every row y^1 and up closes, the
        # constant row alone is off, by exactly 1
        target = (Poly([-40, -3, 27]) * ALPHA_CUBIC).scale(F(1, 8)) + Poly([1])
        r = solve_decomposition(target, basis)
        assert r.coefficients == (F(11, 128), F(-35, 8), F(11))
        assert r.residual.is_zero() and r.constant == 1 and not r.ok


class TestPolyIdentities:
    def test_trivial(self):
        assert check_poly_identity(Poly([1, 1]) ** 2, Poly([1, 2, 1])).ok
        r = check_poly_identity(Poly([1, 1]) ** 2, Poly([1, 2, 2]))
        assert not r.ok and r.witness

    def test_sigma1(self):
        assert sigma_rational_closure(1).ok
        assert sigma_log_ident(1).ok

    def test_p1_closes_with_33_only(self):
        assert p_identity(1, Q33).ok
        assert not p_identity(1, Q97).ok

    def test_p2_closes_with_97_only(self):
        assert p_identity(2, Q97).ok
        assert not p_identity(2, Q33).ok

    def test_p3(self):
        assert p_identity(3).ok

    def test_p4_denominator_disambiguation(self):
        assert p_identity(4, Q33).ok
        assert not sigma_rational_closure(4, C3).ok  # as printed: degree mismatch

    def test_p5(self):
        assert p_identity(5).ok

    def test_sigma_value_closures(self):
        for idx in (1, 2, 3, 4):
            assert sigma_value_closure(idx).ok

    def test_sigma_rational_reads_the_catalog(self, monkeypatch):
        """The corrections of sigma_2 are the k and k^2 coefficients of channel
        0 of thm1.1-H2k: one changed coefficient there breaks its closure."""
        with pytest.raises(ValueError):
            proofs.sigma_rational(5)
        entries = catalog_by_id()
        entry = entries["thm1.1-H2k"]
        (weight, spec), = entry.components
        c0, c1, c2 = spec.channels[0]
        spec = dataclasses.replace(spec, channels={**spec.channels, 0: (c0, c1 + 1, c2)})
        entries[entry.id] = dataclasses.replace(entry, components=((weight, spec),))
        monkeypatch.setattr(proofs, "catalog_by_id", lambda: entries)
        proofs.sigma_rational.cache_clear()
        try:
            assert not sigma_rational_closure(2).ok
            assert sigma_rational_closure(3).ok
        finally:
            proofs.sigma_rational.cache_clear()

    def test_alpha_power(self):
        assert alpha_power_identity().ok


class TestAbel:
    def test_symbolic_both_variants(self):
        assert check_abel_step("A").ok
        assert check_abel_step("B").ok

    @pytest.mark.parametrize("variant, kernels, part", [
        ("A", ([24, 176, 384, 256], [0, 4, 0, -27]), "m^1"),     # 176 + 4m
        ("B", ([24, 176, 385, 256], [0, -6, -27, -27]), "m^0"),  # 3(128 - 9m) + 1
    ])
    def test_a_wrong_kernel_names_its_part(self, monkeypatch, variant, kernels, part):
        monkeypatch.setitem(proofs._ABEL_KERNELS, variant, kernels)
        r = check_abel_step(variant)
        assert not r.ok and r.witness.startswith(f"{part} part: ")

    def test_numeric_spot_check(self):
        lhs, rhs = abel_telescoped_sum("A", F(16), lambda k: harmonic(k), 2)
        assert lhs == rhs
        lhs, rhs = abel_telescoped_sum("B", F(16), lambda k: harmonic(2 * k), 3)
        assert lhs == rhs

    def test_symbolic_m_spot_values(self):
        # the per-step identity specialized by hand at k=1
        for m in (F(16), F(-256), F(7, 3)):
            wA = lambda k: F(8 * (2 * k + 1) * (4 * k + 1) * (4 * k + 3), 3 * k + 1)
            rho1 = F(1 * 2 * 3 * 4, 1 * 1 * 2 * 3)
            lhs = wA(1) - m * wA(0) / rho1
            rhs = ((256 - 27 * m) + 384 + (176 + 3 * m) + 24) / F(4)
            assert lhs == rhs

    def test_boundary_convention(self):
        assert abel_boundary_discrepancy("A") == -24
        assert abel_boundary_discrepancy("B") == -12


class TestPartialFractions:
    def test_corrected_passes(self):
        assert partial_fraction_decomposition().ok

    def test_printed_fails(self):
        assert not partial_fraction_decomposition(corrected=False).ok

    def test_telescoping_toy(self):
        k = Poly([0, 1])
        lhs = RatFunc(Poly([1]), k * (k + Poly([1])))
        rhs = RatFunc(Poly([1]), k) - RatFunc(Poly([1]), k + Poly([1]))
        assert lhs == rhs

    def test_altered_coefficient_fails(self):
        k = Poly([0, 1])
        lhs = RatFunc(Poly([1, 8, 12]), Poly([1, 3]) * Poly([2, 3]))
        rhs = (RatFunc(Poly([-11, 92, -22]).scale(F(1, 5)))
               - F(3, 40) * RatFunc(Poly([24, 224, 384, -176]), Poly([1, 3]))
               + F(3, 8) * RatFunc(Poly([24, 80, -48, -176]), Poly([1, 3]) * Poly([2, 3])))
        assert lhs != rhs


class TestTheorem3:
    def test_all_cases_reduce(self):
        for case in LEMMA51_CASES:
            assert check_theorem3_reduction(case).ok, case

    def test_combination_square_and_sign_are_exact(self):
        for case, (_, d, _, _, r) in LEMMA51_CASES.items():
            X = theorem3_combination(case, case_context(case))
            assert X * X == r * r * d
            assert X.sign() == (1 if r > 0 else -1)

    def test_random_rational_substitution_fails(self):
        _, d, _, _, r = LEMMA51_CASES["m256"]
        fake = case_context("m256").field.const(F(97, 100))
        X = theorem3_combination("m256", fake)
        assert not (X * X - r * r * d).is_zero()

    @pytest.mark.parametrize("case", list(LEMMA51_CASES))
    def test_negated_r_fails_on_the_sign(self, monkeypatch, case):
        x0, d, ws, q, r = LEMMA51_CASES[case]
        monkeypatch.setitem(LEMMA51_CASES, case, (x0, d, ws, q, -r))
        oc = check_theorem3_reduction(case)
        assert not oc.ok and oc.witness.startswith("sign: X has sign")
        name = f"theorem3-reduction-{case}"
        check = next(c for c in run_exact_checks(name) if c.name == name)
        assert not check.passed and check.witness == oc.witness

    @pytest.mark.parametrize("case", list(LEMMA51_CASES))
    def test_another_square_free_d_fails_on_the_square(self, monkeypatch, case):
        x0, d, ws, q, r = LEMMA51_CASES[case]
        monkeypatch.setitem(LEMMA51_CASES, case, (x0, {2: 3, 3: 5, 5: 2}[d], ws, q, r))
        oc = check_theorem3_reduction(case)
        assert not oc.ok and oc.witness.startswith("square: X^2 - ")

    def test_conjugate_beta_quadratic_fails_on_the_sign(self, monkeypatch):
        """14 b^2 + 7 sqrt2 b - 1 + 2 sqrt2 = 0, the conjugate quadratic, says
        L = -sqrt2 R: its square holds in Q(b), its sign does not."""
        L, R = proofs._BETA_SIDES
        monkeypatch.setattr(proofs, "_BETA_SIDES", (L, -R))
        proofs.beta_context.cache_clear()
        try:
            [check] = run_exact_checks("beta-context")
        finally:
            proofs.beta_context.cache_clear()
        assert not check.passed
        assert check.witness == "ContextError: quadratic: sign: X has sign 1, Y sign -1"

    def test_gamma_matches_eval_f(self):
        from binom4k.genfunc import eval_f
        ball = eval_f(LEMMA51_CASES["128"][0], 20)
        lo, hi = case_context("128").embedding_interval(F(1, 10**18))
        assert lo <= ball.hi_fraction() and ball.lo_fraction() <= hi


class TestSubstitutedIntegrands:
    def test_j2_matches_printed(self):
        si = substituted_integrands(2)
        assert si.num == 16 * Poly([1, 3, -1, 1]) * Poly([4, 0, -75, 0, 81])
        assert si.den == Poly([-1, 1]) * Poly([-1, 0, 3]) ** 4 * Poly([1, 0, 1])
        assert si.denominator_root_free()

    def test_j4_upper_limit_value(self):
        si = substituted_integrands(4)
        lo, hi = si.upper_interval
        assert F(543, 1000) < lo < hi < F(545, 1000)
        assert si.denominator_root_free()

    # j=3 in w = z/cbrt2: the endpoint cofactor M_w, the cancelled quotient
    # of the nonic, and their z-forms M(z), N6(z) over Q(cbrt(2))
    M_W = 2 * Poly([-1, 1, 1, 1])                 # 2(w^3 + w^2 + w - 1)
    N6_W = 4 * Poly([1, 1, 2, -3, 0, -1, 1])      # 4(w^6 - w^5 - 3w^3 + 2w^2 + w + 1)
    Z_POINTS = (F(-3), F(-1, 2), F(0), F(1, 3), F(2, 5), F(7, 4))

    def test_j3_exact_division(self):
        si = substituted_integrands(3)
        # the sextic 40z^6 - 83z^3 + 16 in w, times the cancelled quotient
        assert si.num == Poly([16, 0, 0, -166, 0, 0, 160]) * self.N6_W
        # the denominator 2(z^3 - 1)^4 in w kept the linear cofactor w - 1,
        # and (w - 1) M_w is the quartic 2w^4 - 4w + 2
        assert si.den == 2 * Poly([-1, 0, 0, 2]) ** 4 * Poly([-1, 1])
        assert Poly([-1, 1]) * self.M_W == Poly([2, -4, 0, 0, 2])
        assert si.denominator_root_free()
        # z side: (z - cbrt2) M(z) = z^4 - 4z + 2 cbrt2, M(cbrt2 w) = M_w(w)
        c = cbrt2_field().gen()
        m_z = (-2, c * c, c, 1)
        for z in self.Z_POINTS:
            assert (z - c) * _at(m_z, z) == z ** 4 - 4 * z + 2 * c
            assert _at(m_z, c * z) == self.M_W(z)

    def test_j3_divisibility_oracle(self):
        nonic_w = 8 * Poly([-1, 0, 0, 7, 0, 0, -5, 0, 0, 1])  # z^9 - 10z^6 + 28z^3 - 8
        q, r = nonic_w.divrem(self.M_W)
        assert r.is_zero() and q == self.N6_W
        assert q * self.M_W == nonic_w
        # z side: M(z) N6(z) = z^9 - 10z^6 + 28z^3 - 8, N6(cbrt2 w) = N6_w(w)
        c = cbrt2_field().gen()
        m_z, n6_z = (-2, c * c, c, 1), (4, 2 * c * c, 4 * c, -6, 0, -c, 1)
        for z in self.Z_POINTS:
            assert _at(m_z, z) * _at(n6_z, z) == z ** 9 - 10 * z ** 6 + 28 * z ** 3 - 8
            assert _at(n6_z, c * z) == self.N6_W(z)

    def test_bad_j(self):
        with pytest.raises(ValueError):
            substituted_integrands(5)


class TestAbelCatalogConsistency:
    """The displayed zero-sum entries are the m=16, psi=H_k limits of the
    summation-by-parts identity; their channel polynomials must match the
    kernel at m=16 and the reindexed boundary term."""

    def test_kernels_match_entry_channels(self):
        from binom4k.catalog import builtin_catalog
        by_id = {e.id: e for e in builtin_catalog()}
        m = F(16)
        kernel_a = [24, 176 + 3 * m, 384, 256 - 27 * m]
        kernel_b = [24, 2 * (88 - 3 * m), 3 * (128 - 9 * m), 256 - 27 * m]
        assert by_id["sec4-abel-Hk-31"].components[0][1].channels[1] == tuple(kernel_a)
        assert by_id["sec4-abel-Hk-32"].components[0][1].channels[1] == tuple(kernel_b)

    def test_boundary_reindex_identities(self):
        # 16 w(k-1) / (k rho(k)) collapses to the printed non-harmonic channel:
        # 48(3k-1) for the (3k+1) variant, the constant 48 for the other
        k = Poly([0, 1])
        rho = RatFunc((4 * k - Poly([3])) * (4 * k - Poly([2])) * (4 * k - Poly([1])) * (4 * k),
                      k * (3 * k - Poly([2])) * (3 * k - Poly([1])) * (3 * k))
        prev = Poly([-1, 1])
        w_num = 8 * (2 * k + Poly([1])) * (4 * k + Poly([1])) * (4 * k + Poly([3]))
        wa_prev = RatFunc(w_num.compose(prev), (3 * k + Poly([1])).compose(prev))
        lhs_a = 16 * wa_prev / (RatFunc(k) * rho)
        assert lhs_a == RatFunc(Poly([-48, 144]))  # 48(3k-1)
        wb_prev = RatFunc(w_num.compose(prev),
                          ((3 * k + Poly([1])) * (3 * k + Poly([2]))).compose(prev))
        lhs_b = 16 * wb_prev / (RatFunc(k) * rho)
        assert lhs_b == RatFunc(Poly([48]))


def test_full_suite_green():
    checks = run_exact_checks()
    assert len(checks) >= 40
    failures = [c.name for c in checks if not c.passed]
    assert failures == []


def test_suite_filter():
    subset = run_exact_checks("antiderivative")
    assert {c.name for c in subset} == {"antiderivative-g", "antiderivative-g2",
                                        "antiderivative-g3", "antiderivative-g4"}


# ---------------------------------------------------------------------------
# planted errors, each failing its one exact check alone


def _seen_by(fn, **names):
    """fn, unwrapped from its lru_cache, with `names` rebound in the globals
    it reads: one function sees the planted error, the module does not."""
    fn = getattr(fn, "__wrapped__", fn)
    return types.FunctionType(fn.__code__, {**fn.__globals__, **names}, fn.__name__,
                              fn.__defaults__, fn.__closure__)


def _sigma_rational_plus_one(idx):
    return lambda i: proofs.sigma_rational(i) + (1 if i == idx else 0)


# the Abel kernels with the constant coefficient of one variant's K0 one larger
_KERNEL_A_OFF, _KERNEL_B_OFF = ({**proofs._ABEL_KERNELS,
                                 v: ((25,) + proofs._ABEL_K0[1:], proofs._ABEL_KERNELS[v][1])}
                                for v in ("A", "B"))

# check -> (the proofs function that run_exact_checks calls for it, the input
# rebound where that function reads it)
_PLANTED = {
    "alpha-context": ("alpha_context", {"f_second": lambda y: f_second(y) + 1}),
    "alpha-power-identity": ("alpha_power_identity",
                             {"alpha_context": lambda: case_context("24")}),
    **{f"sigma{i}-value-closure": ("sigma_value_closure",
                                   {"sigma_rational": _sigma_rational_plus_one(i)})
       for i in (1, 2, 3, 4)},
    "sigma1-log-closure": ("sigma_log_ident", {"_Y5_64": proofs._Y5_64 + 1}),
    "abel-telescoping-numeric": ("abel_telescoped_sum", {"_ABEL_KERNELS": _KERNEL_A_OFF}),
    "abel-boundary-convention": ("abel_boundary_discrepancy", {
        "abel_telescoped_sum": _seen_by(proofs.abel_telescoped_sum, _ABEL_KERNELS=_KERNEL_A_OFF)}),
    # a denominator factor with a root in [0, upper]: 1/4 < u^2 for j = 2, and
    # 1/2 < u for j = 3 (z^3 - 1/4 is 2w^3 - 1/4 in w) and j = 4
    "integrand-domain-j2": ("substituted_integrands",
                            {"_G2_DEN": proofs._G2_DEN * Poly([F(-1, 4), 1])}),
    "integrand-domain-j3": ("substituted_integrands",
                            {"_G3_CUBE_FACTOR": proofs._G3_CUBE_FACTOR * Poly([F(-1, 4), 0, 0, 1])}),
    "integrand-domain-j4": ("substituted_integrands",
                            {"_G4_DEN": proofs._G4_DEN * Poly([F(-1, 2), 1])}),
    "antiderivative-g": ("antiderivative_g", {"_G_QUADRATIC": proofs._G_QUADRATIC + 1}),
    "antiderivative-g2": ("antiderivative_g2", {"_G2_NUM": proofs._G2_NUM + 1}),
    "antiderivative-g3": ("antiderivative_g3", {
        "_g3_z_factors": _seen_by(proofs._g3_z_factors, _G3_SEXTIC=proofs._G3_SEXTIC + 1)}),
    "antiderivative-g4": ("antiderivative_g4", {"_G4_NUM": proofs._G4_NUM + 1}),
    "abel-step-A": ("check_abel_step", {"_ABEL_KERNELS": _KERNEL_A_OFF}),
    "abel-step-B": ("check_abel_step", {"_ABEL_KERNELS": _KERNEL_B_OFF}),
}


@pytest.mark.parametrize("name", list(_PLANTED))
def test_a_planted_error_fails_its_check_alone(name):
    """The suite, with one input of one check perturbed as that check reads
    it, fails that check with a witness and passes the other 45."""
    for value in vars(proofs).values():
        getattr(value, "cache_clear", lambda: None)()
    fn_name, names = _PLANTED[name]
    run = _seen_by(run_exact_checks, **{fn_name: _seen_by(getattr(proofs, fn_name), **names)})
    checks = run()
    failed = [c for c in checks if not c.passed]
    assert len(checks) == 46 and [c.name for c in failed] == [name]
    assert failed[0].witness


def test_each_field_isolates_its_root_once(monkeypatch):
    """Building a field takes one squarefree part and one Sturm chain: one of
    each for every lemma 5.1 case and for Q(cbrt 2), and at most two for
    Q(f(1/16)) on ALPHA_CUBIC, where the relation's isolation is checked too."""
    from binom4k import exact
    from binom4k.genfunc import point_context

    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Poly, "squarefree_part", counted("squarefree", Poly.squarefree_part))
    monkeypatch.setattr(exact, "_sturm_chain", counted("sturm", exact._sturm_chain))

    def count(build):
        calls.update(squarefree=0, sturm=0)
        build()
        return calls["squarefree"], calls["sturm"]

    for case in LEMMA51_CASES:
        assert count(lambda: case_context.__wrapped__(case)) == (1, 1), case
    squarefree, sturm = count(lambda: point_context(F(1, 16), ALPHA_CUBIC))
    assert squarefree <= 2 and sturm <= 2
    assert count(cbrt2_field.__wrapped__) == (1, 1)
