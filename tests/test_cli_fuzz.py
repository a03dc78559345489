"""Fuzzed command lines, run in process through `cli.main`: every input ends
in exit 0, 1 or 2, and no traceback is printed."""

import json
from fractions import Fraction as F

from hypothesis import HealthCheck, example, given, settings, strategies as st

from binom4k.cli import DEFAULT_DIGITS_ENV, MAX_DIGITS, main
from binom4k.series import DENOM_FACTORS, RADIUS


def _fuzz(examples: int):
    return settings(max_examples=examples, deadline=None, derandomize=True,
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


_COEFF = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(1, 50)),
    st.sampled_from(["0", "1e200", "-1e-200", f"{10**300}/7"]),
)


@st.composite
def _valid_spec(draw) -> dict:
    """A spec that parses: x on both sides of the radius of its binomial
    power (27/256 or 256/27), 10^-9 inside needing a cutoff past the work
    budget; channels of degree up to 39 with huge and tiny coefficients;
    denominator factors, among them k, which vanishes at k = 0; or x
    written with an exponent, its denominator beyond the budget."""
    power = draw(st.sampled_from([1, -1]))
    radius = RADIUS if power == 1 else 1 / RADIUS
    x = draw(st.one_of(
        st.sampled_from([0, F(1, 1000), F(1, 2), F(9, 10), 1 - F(1, 10**9), 1,
                         1 + F(1, 10**9), F(11, 10)]).map(lambda t: t * radius),
        st.builds(F, st.integers(0, 30), st.integers(1, 300)),
        st.sampled_from([F(1, 10**300), F(10**200 + 1, 10**202)])))
    x = str(-x if draw(st.booleans()) else x)
    # or written with an exponent, beyond the 10^MAX_DIGITS bound on its size
    x = draw(st.just(x) | st.sampled_from([f"1e-{MAX_DIGITS + 1}", f"-9e-{3 * MAX_DIGITS}",
                                           "1e-100000"]))
    return {"x": x, "binomial_power": power,
            "start": draw(st.sampled_from([0, 1])),
            "channels": draw(st.dictionaries(st.sampled_from("01234"),
                                             st.lists(_COEFF, max_size=40), max_size=3)),
            "denominator_factors": draw(st.lists(st.sampled_from(sorted(DENOM_FACTORS)),
                                                 max_size=3))}


@_fuzz(60)
@given(spec=_valid_spec(), digits=st.integers(1, 12))
@example(spec={"x": str(-RADIUS * (1 - F(1, 10**9))), "binomial_power": 1, "start": 1,
               "channels": {"4": ["1e200"] * 40}, "denominator_factors": ["k"]},
         digits=12).via("past the work budget: exit 1")
def test_eval_valid_specs(tmp_path, capsys, spec, digits):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _run(["eval", "--spec", str(path), "--digits", str(digits)], capsys)


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
