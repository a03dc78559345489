"""Tests of the benchmark itself, on tiny inputs (`--smoke`).

    python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_declared_metric(workload, trace):
    res = result_line(run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: v["unit"] for n, v in res["metrics"].items()} == declared
    for name, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        if kind == "end_to_end":
            assert v["value"] > 0, name


def test_planted_wrong_identity_is_a_failed_op():
    proc = run("--workload", "audit-50", "--seed", "3", "--seconds", "1", "--trace", "0",
               "--smoke", "--plant-wrong")
    res = result_line(proc)
    assert res["correct"] is False
    assert res["failed"] >= 1
    assert "~planted: FAIL, expected PASS" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("--workload", "audit-50", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    assert workloads.near_radius_specs(5) == workloads.near_radius_specs(5)
    assert workloads.near_radius_specs(5) != workloads.near_radius_specs(6)
    assert workloads.wrong_identities(5, 50) == workloads.wrong_identities(5, 50)


def test_near_radius_specs_stay_in_their_ranges():
    for obj in workloads.near_radius_specs(9):
        x = abs(Fraction(obj["x"]))
        if obj["binomial_power"] == 1:
            q = x / Fraction(27, 256)
            assert 0.93 <= q <= 0.975
        else:
            q = x * Fraction(27, 256)
            assert 0.90 <= q <= 0.95
        assert all(int(j) in range(5) and len(cs) <= 3 for j, cs in obj["channels"].items())
        if "k" in obj["denominator_factors"]:
            assert obj["start"] == 1


def test_wrong_shift_is_far_above_the_pass_threshold():
    for w in workloads.wrong_identities(1, 50):
        assert Fraction(1, 10**45) <= abs(w.shift) <= Fraction(9, 10**45)


def test_reference_sum_matches_a_catalog_value():
    # eq-1.1: sum C(4k,k) (22k^2 - 92k + 11) / 16^k = -5
    obj = {"x": "1/16", "binomial_power": 1, "start": 0,
           "channels": {"0": ["11/1", "-92/1", "22/1"]}, "denominator_factors": []}
    assert abs(oracles.series_reference(obj) + 5) < 1e-30


def test_missing_target_makes_its_metric_absent(monkeypatch):
    from binom4k import cli, series

    monkeypatch.delattr(series.TermState, "initial")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = tracer.open("bench.verify")
        tracer.close(phase)
    finally:
        tracer.uninstall()
    assert "series.TermState.initial" in tracer.missing
    metrics = tracing.layer_metrics(tracer, {"verify": phase})
    assert "series.passes_per_sum" not in metrics and "series.terms" not in metrics
    assert "series.sum_s" in metrics
    assert tracing.sum_series_calls(tracer) is None
    assert cli.sum_series is series.sum_series


def test_wrappers_reach_every_module_that_imported_the_name():
    from binom4k import catalog, cli, genfunc, series

    original = series.sum_series
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (series, cli, genfunc):
            assert mod.sum_series is not original
        assert cli.eval_closed_form is catalog.eval_closed_form
        assert hasattr(cli.eval_closed_form, "__wrapped__")
        spec = series.SeriesSpec(x=Fraction(1, 16), channels={0: (Fraction(1),)})
        genfunc.eval_f(Fraction(1, 16), 10)
        cli.sum_series(spec, 10)
    finally:
        tracer.uninstall()
    assert series.sum_series is original and cli.sum_series is original
    assert [s.name for s in tracer.spans].count("series.sum_series") == 2
