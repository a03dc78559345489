"""CLI behavior: exit codes, report formats, determinism, schema validation."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from binom4k.balls import Ball
from binom4k.cli import (
    MAX_DIGITS,
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
from binom4k import cli, series, workers
from binom4k.catalog import builtin_catalog, catalog_by_id, pi, rat
from binom4k.series import MAX_TERMS, SeriesSpec, sum_series


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "records"],
    "properties": {
        "version": {"const": 1},
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "status", "lhs", "rhs", "difference",
                             "digits", "elapsed_ms", "provenance"],
                "properties": {
                    "id": {"type": "string"},
                    "status": {"enum": ["PASS", "FAIL", "ERROR"]},
                    "lhs": {"type": "string"},
                    "rhs": {"type": "string"},
                    "difference": {"type": "string"},
                    "digits": {"type": "integer"},
                    "elapsed_ms": {"type": "number"},
                    "provenance": {"type": "string"},
                    "message": {"type": "string"},
                },
            },
        },
    },
}


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

    def test_exact_name_selects_that_check_alone(self, capsys):
        """theorem3-reduction-m25 is a prefix of theorem3-reduction-m256, and
        its exact name runs it alone."""
        code = main(["exact-checks", "--only", "theorem3-reduction-m25", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["name"] for r in doc["records"]] == ["theorem3-reduction-m25"]

    def test_part_of_a_name_selects_every_match(self, capsys):
        from binom4k.proofs import run_exact_checks

        assert main(["exact-checks", "--only", "gm-log"]) == 0
        assert "5/5 PASS" in capsys.readouterr().out
        assert [c.name for c in run_exact_checks("gm-log")] == [f"gm-log-m{m}" for m in range(1, 6)]
        # the filters of the benchmark's hook test
        assert [c.name for c in run_exact_checks("context")] == ["alpha-context", "beta-context"]
        assert [c.name for c in run_exact_checks("reduction-m256")] == ["theorem3-reduction-m256"]

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

    @pytest.mark.parametrize("key", ["binomial_power", "start"])
    def test_eval_rejects_boolean_integer_fields(self, tmp_path, capsys, key):
        # JSON true equals 1 in Python, which both fields would otherwise accept
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**EQ11_SPEC, key: True}))
        assert main(["eval", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"spec.{key}: must be an integer" in captured.err

    @pytest.mark.parametrize("channels, key", [
        ({"0": ["11/1", "-92/1", "22/1"], "00": ["1/1"]}, "00"),   # used to print f(1/16)
        ({"1_0": ["1/1"]}, "1_0"), ({"+1": ["1/1"]}, "+1"), ({" 1": ["1/1"]}, " 1"),
        ({"01": ["1/1"]}, "01"), ({"1.0": ["1/1"]}, "1.0"), ({"one": ["1/1"]}, "one")])
    def test_eval_rejects_noncanonical_channel_keys(self, tmp_path, capsys, channels, key):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**EQ11_SPEC, "channels": channels}))
        assert main(["eval", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad channel key {key!r}" in captured.err

    @pytest.mark.parametrize("x", [f"1e-{MAX_DIGITS + 1}", f"-3e-{5 * MAX_DIGITS}", "1e-2000000",
                                   f"1.5e-{MAX_DIGITS}"])
    def test_eval_x_budget(self, tmp_path, capsys, x):
        # the exact tail bound computes with x at its full size: "1e-2000000"
        # used to run for minutes in its gcds.  An exponent past MAX_DIGITS is
        # refused before Fraction builds 10^e; 1.5e-20000 = 3/(2 10^20000) by
        # the size of x
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**EQ11_SPEC, "x": x}))
        assert main(["eval", "--spec", str(path), "--digits", "10"]) == 2
        captured = capsys.readouterr()
        reason = "numerator and denominator" if x.startswith("1.5") else "decimal exponent beyond"
        assert captured.out == "" and f"spec.x: {reason}" in captured.err

    @pytest.mark.parametrize("field, where", [("x", "spec.x"), ("weight", "spec.weight"),
                                              ("coefficient", "spec.channels.0")])
    @pytest.mark.parametrize("text", ["1e-20000000", "1" * (2 * MAX_DIGITS + 5)],
                             ids=["exponent", "length"])
    def test_eval_rational_string_budget(self, tmp_path, capsys, field, where, text):
        # Fraction("1e-20000000") alone took 41 s: the string is refused first
        spec = {**EQ11_SPEC, "weight": "1/1"}
        if field == "coefficient":
            spec["channels"] = {"0": [text]}
        else:
            spec[field] = text
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        t0 = time.perf_counter()
        assert main(["eval", "--spec", str(path), "--digits", "10"]) == 2
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {where}: ")

    def test_eval_bad_rational_echo_is_bounded(self, tmp_path, capsys):
        # 5000 digits pass the length bound but not Python's int-string limit,
        # whose message (and the string) used to be echoed in full
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**EQ11_SPEC, "channels": {"0": ["7" * 5000 + "/3"]}}))
        assert main(["eval", "--spec", str(path), "--digits", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert len(captured.err) < 200 and "spec.channels.0: bad rational" in captured.err

    def test_eval_coefficient_budget(self, tmp_path, capsys, monkeypatch):
        # D is absolute, so a coefficient 10^20000 at 10 digits would ask for
        # 20010 digits of the sum (it ran for minutes)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**EQ11_SPEC, "channels": {"0": ["1e20000"]}}))
        t0 = time.perf_counter()
        assert main(["eval", "--spec", str(path), "--digits", "10"]) == 2
        assert time.perf_counter() - t0 < 1
        assert "error: spec.channels: " in capsys.readouterr().err
        # the edge, D plus the size of the numerator or denominator at most
        # MAX_DIGITS, on a budget small enough to run
        monkeypatch.setattr(cli, "MAX_DIGITS", 30)
        for coeff, code in (("1e20", 0), (f"{10**20 + 1}", 2), (f"1/{10**20 + 1}", 2)):
            path.write_text(json.dumps({**EQ11_SPEC, "channels": {"0": [coeff]}}))
            assert main(["eval", "--spec", str(path), "--digits", "10"]) == code, coeff
        assert "error: spec.channels: " in capsys.readouterr().err

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

    def test_eval_past_the_int_str_limit(self, tmp_path, capsys):
        """4400 digits, more than int-to-str conversion allows by default
        (4300): the midpoint is rendered in full, with no traceback."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**EQ11_SPEC, "x": "1/1000000", "channels": {"0": ["1/1"]}}))
        assert main(["eval", "--spec", str(path), "--digits", "4400"]) == 0
        mid = capsys.readouterr().out.split(" +/- ")[0]
        assert mid.startswith("1.000004000028")
        assert len(mid.replace(".", "")) == 4400


class TestCrosscheckCommand:
    def test_j1_trivial_x0(self, capsys):
        assert main(["crosscheck", "--j", "1", "--x", "0"]) == 0

    def test_j2_requires_x16(self, capsys):
        assert main(["crosscheck", "--j", "2", "--x", "1/8"]) == 2

    def test_bad_rational(self):
        assert main(["crosscheck", "--j", "1", "--x", "abc"]) == 2

    def test_negative_x(self, capsys):
        # argparse takes "--x -1/50" for a missing value; the help names "--x=-1/50"
        assert main(["crosscheck", "--j", "1", "--x=-1/50"]) == 0
        assert capsys.readouterr().out.startswith("PASS  crosscheck-j1  series -0.0659154906")

    @pytest.mark.parametrize("x", ["26999/256000", "-2699/25600"])
    def test_series_over_the_term_budget_is_an_error_record(self, capsys, x):
        # near the radius the series needs more than MAX_TERMS terms
        assert main(["crosscheck", "--j", "1", f"--x={x}"]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("ERROR crosscheck-j1  series \n")
        assert f"work budget is {MAX_TERMS} terms" in out
        assert err == ""

    @pytest.mark.parametrize("x, line", [
        ("1/16", "0.6511953363752348454059045  delta 3.19e-31  tol 1e-20  evaluations 291"),
        ("-1/50", "-0.06591549066719576587873244  delta 1.21e-31  tol 1e-20  evaluations 291"),
        ("1/50", "0.1007725496549680456556645  delta 1.78e-31  tol 1e-20  evaluations 291"),
        ("1/20", "0.3998197976771103091078667  delta 3.3e-31  tol 1e-20  evaluations 291"),
        ("-1/10", "-0.1874034123088711379833974  delta 1.16e-32  tol 1e-20  evaluations 291"),
        ("1/10", "7.154990931426655889585579  delta 4.33e-31  tol 1e-20  evaluations 291"),
        ("26/256", "9.642663442861450910477106  delta 4.46e-31  tol 1e-20  evaluations 291"),
        ("-26/256", "-0.1886577736656469953057043  delta 8.47e-33  tol 1e-20  evaluations 291"),
        ("1/1000", "0.004042407160733659102642714  delta 1.78e-31  tol 1e-20  evaluations 145"),
        ("1/11", "2.722916830391909369751466  delta 4.22e-31  tol 1e-20  evaluations 291"),
        ("0", "0  delta 0  tol 1e-20  evaluations 0"),
        ("-1/16", "-0.1478867702478442929530342  delta 8.21e-32  tol 1e-20  evaluations 291"),
        ("1/12", "1.679125034544033788961872  delta 4.16e-31  tol 1e-20  evaluations 291"),
    ])
    def test_j1_quadrature_lines_pinned(self, capsys, x, line):
        """The quadrature value to 25 digits, the delta to 3 and the evaluation
        count of the j=1 cross-check over x inside the radius."""
        assert main(["crosscheck", "--j", "1", f"--x={x}"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "      quadrature " + line

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "0", "-1", "1e-400", "1e-70",
                                     "1e-31", "1.5"])
    def test_tol_outside_1e_30_to_1_is_a_usage_error(self, capsys, tol):
        assert main(["crosscheck", "--j", "1", f"--tol={tol}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: tol must be a number from 1e-30 to 1")

    @pytest.mark.parametrize("tol", ["1e-30", "1"])
    def test_tol_range_ends_pass(self, capsys, tol):
        assert main(["crosscheck", "--j", "1", f"--tol={tol}"]) == 0

    @pytest.mark.parametrize("j", [1, 2])
    def test_tol_below_the_series_radius_is_an_error_not_a_fail(self, j):
        """The series are summed to 30 digits: a delta against a tol of 1e-70
        decides nothing, so the record is an ERROR without any quadrature."""
        rec = cli.run_crosscheck(j, F(1, 16), 1e-70)
        assert (rec.status, rec.evaluations, rec.quad_value) == ("ERROR", 0, "")
        assert rec.message == "tol 1e-70 is below the radius of a series enclosure"

    def test_substituted_precision_error_is_an_error_record(self, monkeypatch):
        def over_budget(spec, digits):
            raise series.PrecisionError("over budget")

        monkeypatch.setattr(cli, "sum_series", over_budget)
        rec = cli.crosscheck_substituted(2, 1e-20)
        assert (rec.status, rec.message, rec.evaluations) == ("ERROR", "over budget", 0)


def test_commands_do_not_import_mpmath(tmp_path):
    """mpmath is a test oracle only: the cross-checks, a verify-all, the exact
    suite and an eval run in a fresh interpreter without loading it."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(EQ11_SPEC))
    script = (
        "import contextlib, io, sys\n"
        "from binom4k.cli import main\n"
        "runs = [['crosscheck', '--j', str(j)] for j in (1, 2, 3, 4)]\n"
        "runs += [['verify-all', '--digits', '20'], ['exact-checks'],\n"
        f"         ['eval', '--spec', {str(spec)!r}, '--digits', '20']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(run) for run in runs]\n"
        "print(codes, 'mpmath' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["[0,", "0,", "0,", "0,", "0,", "0,", "0]", "False"]


def test_only_four_dataclasses_after_import():
    """Records that only carry fields are NamedTuples, so `@dataclass` builds
    no methods by `exec` at start-up: in a fresh interpreter, after the
    command and proof modules are imported, the dataclasses in binom4k are
    exactly the four that validate, normalise or are copied with `replace`."""
    script = (
        "import sys\n"
        "import binom4k.cli, binom4k.proofs\n"
        "found = {c.__qualname__ for name, mod in list(sys.modules.items())\n"
        "         if name.split('.')[0] == 'binom4k'\n"
        "         for c in vars(mod).values()\n"
        "         if isinstance(c, type) and hasattr(c, '__dataclass_fields__')\n"
        "         and c.__module__.split('.')[0] == 'binom4k'}\n"
        "print(' '.join(sorted(found)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == ["ClosedForm", "IdentityEntry", "LogRationalExpr", "SeriesSpec"]


def test_package_import_loads_no_module():
    """`import binom4k` re-exports nothing, so in a fresh interpreter it
    leaves no binom4k submodule in sys.modules: callers import the module
    they need."""
    script = (
        "import sys\n"
        "import binom4k\n"
        "print(binom4k.__version__, *sorted(m for m in sys.modules if m.startswith('binom4k.')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == ["0.1.0"]


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_reader_that_leaves_early_gets_no_traceback(unbuffered):
    """`binom4k verify-all | head -1`: the reader closes its end before the
    report is written, buffered or not, and the command exits 1 with nothing
    on stderr.  `main` flushes stdout itself, so that the broken pipe raises
    there and not at exit, and then points stdout at devnull, so that the
    flush at exit cannot raise again."""
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "binom4k", "verify-all", "--digits", "10"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert "Traceback" not in err
    assert (proc.wait(timeout=60), err) == (1, "")


def test_returned_records_are_immutable():
    """A record handed back by a command's work cannot be edited after the
    fact: assigning any of its fields raises AttributeError."""
    from binom4k.balls import quad_bits, quad_integrate
    from binom4k.genfunc import check_quartic_f
    from binom4k.proofs import run_exact_checks

    one = 1 << quad_bits(15)
    records = [
        verify_entry(catalog_by_id()["eq-1.1"], 20),
        cli.run_crosscheck(1, F(1, 16), 1e-20),
        *run_exact_checks("quartic"),
        check_quartic_f(),
        quad_integrate(lambda t: one, F(0), F(1), tol=1e-10, dps=15),
    ]
    assert len(records) == 5
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


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


def test_digits_budget(monkeypatch, capsys):
    """Above MAX_DIGITS, --digits and BINOM4K_DIGITS are usage errors that
    end at once, before any series is summed."""
    monkeypatch.delenv("BINOM4K_DIGITS", raising=False)
    t0 = time.perf_counter()
    assert main(["verify-all", "--digits", "1000000"]) == 2
    assert time.perf_counter() - t0 < 1
    for argv in (["verify", "eq-1.1", "--digits", str(MAX_DIGITS + 1)],
                 ["eval", "--spec", "/nonexistent.json", "--digits", str(MAX_DIGITS + 1)]):
        assert main(argv) == 2
        assert f"digits must be <= {MAX_DIGITS}" in capsys.readouterr().err
    monkeypatch.setenv("BINOM4K_DIGITS", str(MAX_DIGITS))
    assert default_digits() == MAX_DIGITS
    monkeypatch.setenv("BINOM4K_DIGITS", str(MAX_DIGITS + 1))
    assert main(["verify", "eq-1.1"]) == 2
    assert "BINOM4K_DIGITS" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify-all", "--help"])
    assert f"at most {MAX_DIGITS}" in capsys.readouterr().out


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
def test_record_decides_on_the_width_of_a_difference_that_contains_0(digits):
    """A difference enclosure around 0 is ERROR at every width from just over
    10^(1-D) to just under 10^(3-D), and PASS just under 10^(1-D)."""
    base = catalog_by_id()["eq-1.1"]
    entry = dataclasses.replace(base, components=((F(1), base.components[0][1]),),
                                rhs=rat(F(1, 3)))
    rhs = cli.eval_closed_form(entry.rhs, digits + cli.COMPONENT_PAD)
    threshold = F(1, 10 ** (digits - 1))

    def decide(width):
        lhs = Ball(F(1, 3) - width / 3, F(1, 3) + 2 * width / 3, 4 * digits + 64)
        diff = lhs - rhs
        assert diff.contains_zero()
        return cli._record(entry, digits, [(lhs, 0.0)]).status, diff.width()

    for scale in (F(1001, 1000), 2, 10, F(999, 10)):
        status, width = decide(scale * threshold)
        assert threshold < width < 100 * threshold and status == "ERROR", scale
    status, width = decide(threshold * F(999, 1000))
    assert width < threshold and status == "PASS"


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

    # weights, x, binomial power, start, channels, denominators and rhs
    for e in builtin_catalog():
        assert main(["catalog", "show", e.id]) == 0
    assert sha(capsys.readouterr().out) == \
        "589b8fd32477ea40928d0dd8ca1b75645e673125b1bd2adbb709bf8bceff1667"
    assert main(["exact-checks", "--format", "json"]) == 0
    assert sha(capsys.readouterr().out) == \
        "4f151fefa034b64c6586dc312a477ea4c17c8b532e36030c879fb9d15332ccfc"
    assert main(["catalog", "list"]) == 0
    assert sha(capsys.readouterr().out) == \
        "3ace5728a45573357bd616bb756029cd9b950f5a25cd2e5d3e9e8562de96d65e"
    # verify-all reports without their timing field: every lhs, rhs and
    # difference rendering, so a constant that moves one digit changes them
    for digits, digest in (
            (50, "0dcb8ef51b2499889e57f45ef4a5024356dea22d39fa1c3bb31a8368e2428f3c"),
            (300, "cb78206069f4141f47a75ce024d962207299e830bf8c973330e266489ca1af95")):
        assert main(["verify-all", "--digits", str(digits), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        for record in report["records"]:
            del record["elapsed_ms"]
        assert sha(json.dumps(report, indent=1)) == digest, digits
    # the quadrature cross-checks, whose integrands read the NFElem embedding
    # intervals, with their exit codes
    text = ""
    for j in (1, 2, 3, 4):
        code = main(["crosscheck", "--j", str(j)])
        text += capsys.readouterr().out + f"exit {code}\n"
    assert sha(text) == "85c1a9720b6094a838289ad4db73f1357588c00f7de11db5832260a880391a4c"


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
