"""Fuzzed command lines, run in process through `cli.main`: every input ends
in exit 0, 1 or 2 within BUDGET_MS, and no traceback is printed."""

import json
import operator
import time
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from binom4k.catalog import MAX_COEFFS
from binom4k.cli import DEFAULT_DIGITS_ENV, MAX_DIGITS, main
from binom4k.series import DENOM_FACTORS, RADIUS


# the time every example must end in, about 20 times the slowest one here
BUDGET_MS = 2000


def _fuzz(examples: int):
    return settings(max_examples=examples, deadline=BUDGET_MS, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _run(argv, capsys) -> None:
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, (argv, err)
    if code == 0 and argv[0] == "eval":
        assert " +/- " in out
    if code == 2:
        assert out == "" and err


# rational strings that the parse bounds refuse before Fraction reads them:
# an exponent past MAX_DIGITS, in the spellings Fraction accepts ("1e-20000000"
# alone took Fraction 41 s), or a string past the length bound
_HOSTILE = st.one_of(
    st.builds("{}e{}{}".format, st.sampled_from(["1", "-9", "2.5", " 4.", "0"]),
              st.sampled_from(["", "+", "-"]),
              st.integers(MAX_DIGITS + 1, 10**12).map(str) | st.just("2_000_000")),
    st.builds(operator.mul, st.sampled_from(["1", "0", "-9", "1/3", " "]),
              st.integers(2 * MAX_DIGITS + 5, 3 * MAX_DIGITS)),
)
# tiny rationals within the bounds, cheap however long their denominators
_TINY = st.builds("{}e-{}".format, st.sampled_from(["1", "-9", "2.5"]),
                  st.integers(300, MAX_DIGITS))
_COEFF = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(1, 50)),
    st.sampled_from(["0", "1e200", "-1e-200", f"{10**300}/7", f"1e{MAX_DIGITS}"]),
    _TINY,
)


@st.composite
def _valid_spec(draw) -> dict:
    """A spec that parses: x on both sides of the radius of its binomial
    power (27/256 or 256/27), 10^-9 inside needing a cutoff past the work
    budget; channels of degree up to 39 with huge and tiny coefficients;
    denominator factors, among them k, which vanishes at k = 0; or x
    written with an exponent: past the radius, its digits past the
    int-to-str limit, beyond the bounds or tiny; and an optional weight."""
    power = draw(st.sampled_from([1, -1]))
    radius = RADIUS if power == 1 else 1 / RADIUS
    x = draw(st.one_of(
        st.sampled_from([0, F(1, 1000), F(1, 2), F(9, 10), 1 - F(1, 10**9), 1,
                         1 + F(1, 10**9), F(11, 10)]).map(lambda t: t * radius),
        st.builds(F, st.integers(0, 30), st.integers(1, 300)),
        st.sampled_from([F(1, 10**300), F(10**200 + 1, 10**202)])))
    x = str(-x if draw(st.booleans()) else x)
    # or written with an exponent
    x = draw(st.just(x) | st.one_of(
        st.sampled_from([f"1e-{MAX_DIGITS + 1}", f"-9e-{3 * MAX_DIGITS}", "1e-100000",
                         f"1.5e-{MAX_DIGITS}"]),
        st.builds("{}e{}".format, st.sampled_from(["1", "-9"]), st.integers(1, MAX_DIGITS)),
        _TINY))
    spec = {"x": x, "binomial_power": power,
            "start": draw(st.sampled_from([0, 1])),
            "channels": draw(st.dictionaries(st.sampled_from("01234"),
                                             st.lists(_COEFF, max_size=40), max_size=3)),
            "denominator_factors": draw(st.lists(st.sampled_from(sorted(DENOM_FACTORS)),
                                                 max_size=3))}
    if draw(st.booleans()):
        spec["weight"] = draw(_COEFF)
    return spec


@_fuzz(60)
@given(spec=_valid_spec(), digits=st.integers(1, 12))
@example(spec={"x": str(-RADIUS * (1 - F(1, 10**9))), "binomial_power": 1, "start": 1,
               "channels": {"4": ["1e200"] * 40}, "denominator_factors": ["k"]},
         digits=12).via("past the work budget: exit 1")
@example(spec={"x": "1e5000", "binomial_power": 1, "start": 0, "channels": {},
               "denominator_factors": []},
         digits=10).via("past the radius, x past the int-to-str limit: exit 2")
@example(spec={"x": "1/16", "binomial_power": 1, "start": 0, "channels": {"0": ["1e20000"]},
               "denominator_factors": []},
         digits=10).via("D plus the coefficient size past MAX_DIGITS: exit 2")
def test_eval_valid_specs(tmp_path, capsys, spec, digits):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _run(["eval", "--spec", str(path), "--digits", str(digits)], capsys)


@_fuzz(30)
@given(spec=_valid_spec(), field=st.sampled_from(["x", "weight", "channels.0"]),
       text=_HOSTILE, digits=st.integers(1, 12))
def test_eval_hostile_rationals(tmp_path, capsys, spec, field, text, digits):
    """A rational string past a parse bound is a usage error naming its
    field, whatever the rest of the spec holds (the weight and the channels
    are read before x)."""
    if field == "channels.0":
        spec = {**spec, "channels": {**spec["channels"], "0": [text]}}
    else:
        spec = {**spec, field: text}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["eval", "--spec", str(path), "--digits", str(digits)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: spec.{field}: "), err[:200]


@_fuzz(20)
@given(spec=_valid_spec(), j=st.sampled_from("01234"), n=st.sampled_from([MAX_COEFFS + 1, 2000]),
       digits=st.integers(1, 12))
def test_eval_long_channels(tmp_path, capsys, spec, j, n, digits):
    """A channel of more than MAX_COEFFS coefficients is a usage error naming
    it, whatever the rest of the spec holds."""
    spec = {**spec, "channels": {**spec["channels"], j: ["1/3"] * n}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["eval", "--spec", str(path), "--digits", str(digits)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: spec.channels.{j}: "), err[:200]


@pytest.mark.parametrize("n, code", [(MAX_COEFFS, 0), (MAX_COEFFS + 1, 2), (2000, 2)])
def test_eval_channel_length_bound(tmp_path, capsys, n, code):
    """At x = 1/16 a channel of MAX_COEFFS coefficients still evaluates, and
    a longer one is refused, each within BUDGET_MS."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"x": "1/16", "binomial_power": 1, "start": 0,
                                "channels": {"0": ["1/3"] * n}, "denominator_factors": []}))
    start = time.perf_counter()
    assert main(["eval", "--spec", str(path), "--digits", "10"]) == code
    assert time.perf_counter() - start < BUDGET_MS / 1000
    out, err = capsys.readouterr()
    if code == 0:
        assert " +/- " in out
    else:
        assert out == "" and err.startswith("error: spec.channels.0: "), err[:200]


@_fuzz(20)
@given(text=_HOSTILE)
def test_crosscheck_hostile_x(capsys, text):
    """`crosscheck --x` is parsed under the bounds of a spec's rationals."""
    assert main(["crosscheck", "--j", "1", f"--x={text}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --x: "), err[:200]


def test_crosscheck_negative_x_lines(capsys):
    assert main(["crosscheck", "--j", "1", "--x=-1/50"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS  crosscheck-j1  series -0.06591549066719576587873243 +/- 2.15e-31",
        "      quadrature -0.06591549066719576587873244  delta 1.21e-31  tol 1e-20  "
        "evaluations 291",
    ]


# a valid spec with one field replaced by a wrong value or type, cut short,
# or bytes that are not a spec at all
_BROKEN = st.builds(
    lambda spec, key, value: json.dumps({**spec, key: value}), _valid_spec(),
    st.sampled_from(["x", "binomial_power", "start", "channels", "denominator_factors",
                     "weight"]),
    st.sampled_from([2, True, "1", "1/0", "abc", "", "nan", [], {}, None, 0.0625, ["5k"],
                     {"01": ["1/1"]}, {"5": ["1/1"]}, {"0": ["x"]}, {"0": [3]}]))
_MALFORMED = st.one_of(
    _BROKEN.map(str.encode),
    _valid_spec().map(json.dumps).flatmap(
        lambda t: st.integers(0, len(t) - 1).map(lambda n: t[:n].encode())),
    st.sampled_from([b"", b"null", b"[]", b"1e999", b"{", b"\xff\xfe{", b"[" * 100_000]),
    st.binary(max_size=30),
)


@_fuzz(40)
@given(content=_MALFORMED, digits=st.integers(1, 12))
@example(content=b"\xff\xfe{", digits=10).via("not UTF-8")
@example(content=b"[" * 100_000, digits=10).via("nested past the recursion limit")
def test_eval_malformed_files(tmp_path, capsys, content, digits):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    _run(["eval", "--spec", str(path), "--digits", str(digits)], capsys)


_DIGITS = st.one_of(
    st.sampled_from(["0", "1", "9", "10", str(MAX_DIGITS + 1), str(10**30), "-1", "1.5",
                     "1e3", "", " 12", "abc", "٣٣", "1_0", "0x10"]),
    st.integers(-5, 40).map(str),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=6),
)
_CHEAP_SPEC = {"x": "1/1000000", "binomial_power": 1, "start": 0,
               "channels": {"0": ["1/1"]}, "denominator_factors": []}


@_fuzz(50)
@given(command=st.sampled_from(["eval", "verify"]), digits=st.none() | _DIGITS,
       env=st.none() | _DIGITS)
def test_digits_strings(tmp_path, capsys, monkeypatch, command, digits, env):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_CHEAP_SPEC))
    argv = ["eval", "--spec", str(path)] if command == "eval" else ["verify", "eq-1.1"]
    if digits is not None:
        argv += ["--digits", digits]
    if env is None:
        monkeypatch.delenv(DEFAULT_DIGITS_ENV, raising=False)
    else:
        monkeypatch.setenv(DEFAULT_DIGITS_ENV, env)
    _run(argv, capsys)
