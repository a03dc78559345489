"""Catalog: builtin entries, closed forms, the file format round trip."""

import json
from fractions import Fraction as F

import pytest

from binom4k.balls import BallDomainError
from binom4k.catalog import (
    CATALOG_SIZE,
    CatalogError,
    builtin_catalog,
    eval_closed_form,
    log,
    parse_catalog,
    pi,
    rat,
    serialize_catalog,
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


class TestFileFormat:
    def test_round_trip(self):
        entries = builtin_catalog()
        text = serialize_catalog(entries)
        back = parse_catalog(text)
        assert back == entries

    def test_round_trip_twice_stable(self):
        text = serialize_catalog(builtin_catalog())
        assert serialize_catalog(parse_catalog(text)) == text

    def test_duplicate_id_rejected(self):
        data = json.loads(serialize_catalog(builtin_catalog()[:2]))
        data["entries"][1]["id"] = data["entries"][0]["id"]
        with pytest.raises(CatalogError, match="duplicate"):
            parse_catalog(json.dumps(data))

    def test_out_of_radius_rejected(self):
        # 1/8 = 0.125 > 27/256 ~ 0.1055, so binomial_power +1 is outside
        data = json.loads(serialize_catalog(builtin_catalog()[:1]))
        data["entries"][0]["components"][0]["x"] = "1/8"
        with pytest.raises(CatalogError, match="radius"):
            parse_catalog(json.dumps(data))

    def test_missing_provenance_rejected(self):
        data = json.loads(serialize_catalog(builtin_catalog()[:1]))
        del data["entries"][0]["provenance"]
        with pytest.raises(CatalogError, match="provenance"):
            parse_catalog(json.dumps(data))

    def test_unknown_factor_rejected(self):
        data = json.loads(serialize_catalog(builtin_catalog()[:1]))
        data["entries"][0]["components"][0]["denominator_factors"] = ["9k+1"]
        with pytest.raises(CatalogError, match="factor"):
            parse_catalog(json.dumps(data))

    def test_diagnostics_name_the_field(self):
        data = json.loads(serialize_catalog(builtin_catalog()[:1]))
        data["entries"][0]["components"][0]["weight"] = 5
        with pytest.raises(CatalogError, match=r"components\[0\].weight"):
            parse_catalog(json.dumps(data))

    def test_not_json(self):
        with pytest.raises(CatalogError, match="JSON"):
            parse_catalog("{nope")

    def test_wrong_version(self):
        with pytest.raises(CatalogError, match="version"):
            parse_catalog(json.dumps({"version": 2, "entries": []}))
