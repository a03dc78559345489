"""CLI behavior: exit codes, report formats, determinism, schema validation."""

import dataclasses
import hashlib
import json
import re
import time
from fractions import Fraction as F

import pytest

from binom4k.balls import Ball
from binom4k.cli import (
    REPORT_SCHEMA,
    SystemExit2,
    _lhs,
    build_parser,
    default_digits,
    main,
    records_csv,
    records_json,
    run_verify_all,
    verify_entry,
)
from binom4k import series, workers
from binom4k.catalog import builtin_catalog, catalog_by_id, pi, rat, serialize_catalog
from binom4k.series import MAX_TERMS, SeriesSpec, sum_series


def _strip_timing(text: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', text)


class TestVerify:
    def test_eq11_passes(self, capsys):
        code = main(["verify", "eq-1.1", "--digits", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "eq-1.1" in out

    def test_unknown_id_exit2(self, capsys):
        assert main(["verify", "no-such-id"]) == 2
        assert "unknown identity" in capsys.readouterr().err

    def test_digits_too_small_exit2(self, capsys):
        assert main(["verify", "eq-1.1", "--digits", "3"]) == 2
        assert main(["verify", "eq-1.1", "--digits", "0"]) == 2
        assert "digits must be >= 10" in capsys.readouterr().err

    def test_thm11_h4k_at_50(self):
        entry = {e.id: e for e in builtin_catalog()}["thm1.1-H4k"]
        rec = verify_entry(entry, 50)
        assert rec.status == "PASS"
        assert rec.digits == 50


class TestVerifyAll:
    def test_ten_digits_all_pass(self, capsys):
        code = main(["verify-all", "--digits", "10", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "36/36 PASS" in out

    def test_json_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        records = run_verify_all(10, 1)
        doc = json.loads(records_json(records))
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert len(doc["records"]) == 36

    def test_jobs_determinism(self):
        r1 = records_json(run_verify_all(10, 1))
        r8 = records_json(run_verify_all(10, 8))
        assert _strip_timing(r1) == _strip_timing(r8)

    def test_jobs_determinism_300_digits(self, capsys, monkeypatch):
        # two usable CPUs, so --jobs 2 forks one worker on any machine
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        outputs = []
        for jobs in ("1", "2"):
            assert main(["verify-all", "--digits", "300", "--jobs", jobs, "--format", "json"]) == 0
            outputs.append(_strip_timing(capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_csv(self):
        text = records_csv(run_verify_all(10, 4))
        lines = text.strip().splitlines()
        assert lines[0].startswith("id,status")
        assert len(lines) == 37


class TestExactChecksCommand:
    def test_full_suite_exit_zero(self, capsys):
        code = main(["exact-checks"])
        out = capsys.readouterr().out
        assert code == 0
        # the two documented disambiguation notes are surfaced
        assert "33-quartic" in out and "97-quartic" in out
        assert "transposes the two cubic numerators" in out

    def test_filter_subset(self, capsys):
        code = main(["exact-checks", "--only", "partial-fractions"])
        out = capsys.readouterr().out
        assert code == 0
        assert "partial-fractions" in out and "1/1 PASS" in out

    def test_no_match_exit2(self, capsys):
        assert main(["exact-checks", "--only", "zzz-none"]) == 2

    def test_json_format(self, capsys):
        code = main(["exact-checks", "--only", "abel-step", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert {r["name"] for r in doc["records"]} == {"abel-step-A", "abel-step-B"}
        assert all(r["status"] == "PASS" for r in doc["records"])


class TestCatalogCommand:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "eq-1.1" in out and "lem5.1-24" in out
        assert len(out.strip().splitlines()) == 36

    def test_show(self, capsys):
        assert main(["catalog", "show", "thm1.3-m256"]) == 0
        out = capsys.readouterr().out
        assert "x = -1/256" in out
        assert "channel 4" in out

    def test_show_unknown(self, capsys):
        assert main(["catalog", "show", "nope"]) == 2


EQ11_SPEC = {
    "x": "1/16", "binomial_power": 1, "start": 0,
    "channels": {"0": ["11/1", "-92/1", "22/1"]},
    "denominator_factors": [],
}


class TestEvalCommand:
    def test_eval_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(EQ11_SPEC))
        assert main(["eval", "--spec", str(path), "--digits", "25"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("-5.0000000000")

    def test_eval_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"x": "1/8", "binomial_power": 1, "start": 0,
                                    "channels": {"0": ["1/1"]},
                                    "denominator_factors": []}))
        assert main(["eval", "--spec", str(path)]) == 2

    def test_eval_missing_file(self):
        assert main(["eval", "--spec", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_eval_nonpositive_digits_exit2(self, tmp_path, capsys, digits):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(EQ11_SPEC))
        assert main(["eval", "--spec", str(path), "--digits", digits]) == 2
        assert "digits must be >= 1" in capsys.readouterr().err

    def test_eval_json_array_exit2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([EQ11_SPEC]))
        assert main(["eval", "--spec", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_eval_unreachable_radius_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # qbar < 1 needs a cutoff near 10^9 here, far above the work budget:
        # the error comes from the a-priori cutoff, before any tail envelope
        # or term is evaluated
        def never(*args):
            raise AssertionError("evaluated above the work budget")

        monkeypatch.setattr(series, "_envelope_at", never)
        monkeypatch.setattr(series, "fixed_point_terms", never)
        x = F(27, 256) * (1 - F(1, 10**9))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**EQ11_SPEC, "x": str(x), "channels": {"4": ["1/1"]}}))
        assert main(["eval", "--spec", str(path), "--digits", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"K <= {MAX_TERMS}" in captured.err

    def test_eval_huge_coefficient_is_contained(self, tmp_path, capsys):
        """Terms of size 10^200 at 10 digits: the working precision grows with
        the coefficients, and the enclosure contains 10^200 times that of the
        unit-coefficient series."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**EQ11_SPEC, "channels": {"0": [f"{10**200}/1"]}}))
        assert main(["eval", "--spec", str(path), "--digits", "10"]) == 0
        assert capsys.readouterr().out.startswith("1.473679689e+200 +/- ")
        big = sum_series(SeriesSpec(x=F(1, 16), channels={0: (10**200,)}), 10)
        unit = sum_series(SeriesSpec(x=F(1, 16), channels={0: (1,)}), 240)
        assert big.radius() <= F(1, 10**10)
        assert big.lo_fraction() <= 10**200 * unit.lo_fraction()
        assert 10**200 * unit.hi_fraction() <= big.hi_fraction()


class TestCrosscheckCommand:
    def test_j1_trivial_x0(self, capsys):
        assert main(["crosscheck", "--j", "1", "--x", "0"]) == 0

    def test_j2_requires_x16(self, capsys):
        assert main(["crosscheck", "--j", "2", "--x", "1/8"]) == 2

    def test_bad_rational(self):
        assert main(["crosscheck", "--j", "1", "--x", "abc"]) == 2


def test_default_digits_env(monkeypatch, capsys):
    monkeypatch.delenv("BINOM4K_DIGITS", raising=False)
    assert default_digits() == 50
    monkeypatch.setenv("BINOM4K_DIGITS", "64")
    assert default_digits() == 64
    for bad in ("junk", "3"):
        monkeypatch.setenv("BINOM4K_DIGITS", bad)
        with pytest.raises(SystemExit2, match="BINOM4K_DIGITS"):
            default_digits()
        assert main(["verify", "eq-1.1"]) == 2
        assert "BINOM4K_DIGITS" in capsys.readouterr().err


# A perturbed rhs must FAIL once the offset is above the resolution of the
# difference enclosure, and a divisor enclosing 0 must give ERROR, never FAIL.
# At 1e-60 the offset is below the 1e-49 pass threshold and below the
# resolution of all three difference enclosures (radius 4e-54 to 5e-54 with
# the minimal certified cutoff), so PASS is the sound verdict; an enclosure narrow
# enough to exclude 0 there would give FAIL, which is sound as well.
@pytest.mark.parametrize("entry_id, sub_resolution", [
    ("eq-1.1", "PASS"), ("thm1.1-H4k", "PASS"), ("lem5.1-m25", "PASS")])
def test_verify_entry_negative_paths(entry_id, sub_resolution):
    entry = catalog_by_id()[entry_id]

    def status(rhs):
        return verify_entry(dataclasses.replace(entry, rhs=rhs), 50).status

    assert status(entry.rhs + rat(F(1, 10**20))) == "FAIL"
    assert status(entry.rhs + rat(F(1, 10**60))) == sub_resolution
    assert status(rat(1) / (pi() - pi())) == "ERROR"


@pytest.mark.parametrize("digits", [12, 50])
def test_folded_entries_keep_the_lhs_radius(digits):
    # the three components of a lem5.1 entry share x and are summed in one
    # pass; the lhs radius stays within 10^-(D+3)
    for entry in builtin_catalog():
        if entry.id.startswith("lem5.1-"):
            record = verify_entry(entry, digits)
            assert record.status == "PASS", entry.id
            radius = F(record.lhs.split(" +/- ")[1])
            assert radius <= F(1, 10 ** (digits + 3)), (entry.id, record.lhs)


def _lhs_ball(record):
    mid, radius = (F(p) for p in record.lhs.split(" +/- "))
    return mid - radius, mid + radius, radius


def test_verify_and_verify_all_agree():
    """At 50 digits every entry gets the same verdict alone as in the shared
    passes of verify-all, where the working bits are those of its whole
    group: same status, rhs, digits, provenance and message, overlapping lhs
    enclosures, both with radius <= 10^-(D+3)."""
    digits = 50
    for alone, shared in zip((verify_entry(e, digits) for e in builtin_catalog()),
                             run_verify_all(digits, 1), strict=True):
        assert (alone.id, alone.status, alone.rhs, alone.digits, alone.provenance,
                alone.message) == (shared.id, shared.status, shared.rhs, shared.digits,
                                   shared.provenance, shared.message)
        lo1, hi1, r1 = _lhs_ball(alone)
        lo2, hi2, r2 = _lhs_ball(shared)
        assert lo1 <= hi2 and lo2 <= hi1, alone.id
        assert max(r1, r2) <= F(1, 10 ** (digits + 3)), alone.id


@pytest.mark.parametrize("failure", ["cutoff", "radius"])
def test_one_failed_component_spoils_only_its_entry(monkeypatch, failure):
    """A cutoff that raises, or a ball that misses its radius, for one
    component of thm1.1-H2k (x = 1/16) gives that entry an ERROR record; the
    other 1/16 entries, summed in the same pass, keep their PASS."""
    victim = catalog_by_id()["thm1.1-H2k"].components[0][1]
    cutoff = series._cutoff

    def failing(spec, budget):
        if spec != victim:
            return cutoff(spec, budget)
        if failure == "cutoff":
            raise series.PrecisionError("planted cutoff failure")
        K, tail = cutoff(spec, budget)
        return K, tail * 10**6

    monkeypatch.setattr(series, "_cutoff", failing)
    records = {r.id: r for r in run_verify_all(30, 1)}
    bad = records.pop("thm1.1-H2k")
    assert bad.status == "ERROR" and bad.lhs == ""
    assert bad.message == ("planted cutoff failure" if failure == "cutoff"
                           else "radius target unreachable")
    sixteenths = [e.id for e in builtin_catalog()
                  if e.id != "thm1.1-H2k" and e.components[0][1].x == F(1, 16)]
    assert len(sixteenths) == 16
    assert all(r.status == "PASS" for r in records.values()), \
        [r.id for r in records.values() if r.status != "PASS"]


def test_weight_one_lhs_is_the_component_ball():
    """A weight-1 single-component entry's lhs is its component's ball, and
    every entry's lhs has the (lo, hi, prec) of the weighted sum started at
    an exact 0."""
    for entry in builtin_catalog():
        summed = series.sum_many([(spec, 33) for _, spec in entry.components])
        lhs = _lhs(entry, summed)
        reference = sum((w * ball for (w, _), (ball, _) in zip(entry.components, summed)),
                        Ball.exact(0))
        assert (lhs.lo, lhs.hi, lhs.prec) == (reference.lo, reference.hi, reference.prec)
        if [w for w, _ in entry.components] == [1]:
            ball = summed[0][0]
            assert (lhs.lo, lhs.hi, lhs.prec) == (ball.lo, ball.hi, ball.prec)


def test_elapsed_ms_shares_the_passes():
    """Each record's elapsed_ms is its own work plus its components' share
    of the cutoffs and passes: every value is > 0 and they add up to no more
    than the wall time of the run."""
    t0 = time.perf_counter()
    records = run_verify_all(50, 1)
    wall_ms = 1000 * (time.perf_counter() - t0)
    assert all(r.elapsed_ms > 0 for r in records)
    assert sum(r.elapsed_ms for r in records) <= wall_ms


def test_data_derived_outputs_pinned(capsys):
    """SHA-256 digests of the outputs derived from the paper data: a change to
    any paper constant, or to these report formats, changes one of them."""
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert sha(serialize_catalog(builtin_catalog())) == \
        "1930b17ed0f46cbacfd41f790a6c7a7a3ddfbf313bab813873bd512f2ad50ddc"
    assert main(["exact-checks", "--format", "json"]) == 0
    assert sha(capsys.readouterr().out) == \
        "d65366f2b8f7921c64fe85cb272a21d7b8c63ed621cf2c8721561a93db26615e"
    assert main(["catalog", "list"]) == 0
    assert sha(capsys.readouterr().out) == \
        "3ace5728a45573357bd616bb756029cd9b950f5a25cd2e5d3e9e8562de96d65e"


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
