"""Catalog: builtin entries, closed forms, the component spec format."""

from fractions import Fraction as F

import pytest

from binom4k.balls import BallDomainError
from binom4k.catalog import (
    CATALOG_SIZE,
    CatalogError,
    builtin_catalog,
    eval_closed_form,
    log,
    parse_component,
    pi,
    rat,
    sqrt,
)


class TestBuiltin:
    def test_size_and_unique_ids(self):
        entries = builtin_catalog()
        assert len(entries) == CATALOG_SIZE == 36
        assert len({e.id for e in entries}) == 36

    def test_every_entry_well_formed(self):
        for e in builtin_catalog():
            assert e.provenance
            assert e.components
            for w, spec in e.components:
                assert w != 0
                assert spec.channels  # no degenerate zero series in the catalog
                if spec.binomial_power == 1:
                    assert abs(spec.x) < F(27, 256)
                else:
                    assert abs(spec.x) < F(256, 27)

    def test_eq11_shape(self):
        e = {x.id: x for x in builtin_catalog()}["eq-1.1"]
        assert len(e.components) == 1
        w, spec = e.components[0]
        assert w == 1
        assert spec.x == F(1, 16)
        assert spec.channels[0] == (11, -92, 22)
        assert e.rhs == rat(-5)

    def test_thm13_first_shape(self):
        e = {x.id: x for x in builtin_catalog()}["thm1.3-m256"]
        _, spec = e.components[0]
        assert spec.x == F(-1, 256)
        assert spec.channels[1] == (1, -86, 224)
        assert spec.channels[2] == (-3, 258, -672)
        assert spec.channels[4] == (2, -172, 448)
        assert e.rhs.render() == "((9 - (5 * log(2))) / (4 * sqrt(2)))"

    def test_lookup_unknown(self):
        assert "no-such-id" not in {e.id for e in builtin_catalog()}


class TestClosedForm:
    def test_rational_exact(self):
        b = eval_closed_form(rat(17), 20)
        assert b.lo == b.hi == 17

    def test_log1_exact_zero(self):
        b = eval_closed_form(log(1), 20)
        assert b.lo == b.hi == 0

    def test_thm11_h4k_rhs_radius(self):
        cf = rat(-151) - rat(F(80, 3)) * log(2)
        b = eval_closed_form(cf, 50)
        assert b.radius() <= F(1, 10**50)

    @pytest.mark.parametrize("digits", [10, 13, 20, 50, 53, 200, 300, 303, 1000, 1003])
    def test_one_evaluation_meets_every_catalog_rhs(self, digits):
        # eval_closed_form evaluates once at 3.33 digits + 32 bits; a miss
        # would be an ArithmeticError, so every catalog rhs must meet it, at
        # the verify-all precisions (digits + 3) and at round digit counts
        for e in builtin_catalog():
            assert eval_closed_form(e.rhs, digits).radius() <= F(1, 10**digits), e.id

    def test_missed_radius_is_an_error(self):
        # 10^400 log 2 at 20 digits keeps about 98 significant bits
        with pytest.raises(ArithmeticError, match="unreachable"):
            eval_closed_form(rat(10**400) * log(2), 20)

    def test_nested_precision_intersects(self):
        cf = (rat(9) - rat(5) * log(2)) / (rat(4) * sqrt(2))
        a, b = eval_closed_form(cf, 20), eval_closed_form(cf, 40)
        assert a.lo_fraction() <= b.hi_fraction() and b.lo_fraction() <= a.hi_fraction()

    def test_division_by_zero_tree_rejected(self):
        with pytest.raises(CatalogError):
            rat(1) / rat(0)
        with pytest.raises(CatalogError):
            rat(1) / (rat(0) * pi())

    def test_division_by_zero_enclosure(self):
        cf = rat(1) / (log(2) - log(2))
        with pytest.raises(BallDomainError):
            cf.eval(64)

    def test_bad_leaves(self):
        with pytest.raises(CatalogError):
            log(0)
        with pytest.raises(CatalogError):
            sqrt(-2)


COMPONENT = {
    "weight": "1/1", "x": "1/16", "binomial_power": 1, "start": 0,
    "channels": {"0": ["11/1", "-92/1", "22/1"]}, "denominator_factors": [],
}


class TestFileFormat:
    """The component objects that `eval --spec` reads."""

    def test_eq11_component(self):
        weight, spec = parse_component(COMPONENT, "spec")
        assert weight == 1
        assert spec == builtin_catalog()[0].components[0][1]

    def test_out_of_radius_rejected(self):
        # 1/8 = 0.125 > 27/256 ~ 0.1055, so binomial_power +1 is outside
        with pytest.raises(CatalogError, match="radius"):
            parse_component({**COMPONENT, "x": "1/8"}, "spec")

    def test_unknown_factor_rejected(self):
        with pytest.raises(CatalogError, match="factor"):
            parse_component({**COMPONENT, "denominator_factors": ["9k+1"]}, "spec")

    def test_diagnostics_name_the_field(self):
        with pytest.raises(CatalogError, match=r"spec\.weight"):
            parse_component({**COMPONENT, "weight": 5}, "spec")

    @pytest.mark.parametrize("key", ["binomial_power", "start"])
    @pytest.mark.parametrize("value", [True, False, 1.0, "1"])
    def test_integer_fields_reject_non_integers(self, key, value):
        with pytest.raises(CatalogError, match=rf"spec\.{key}: must be an integer"):
            parse_component({**COMPONENT, key: value}, "spec")
