"""The benchmark's hooks: every name that bench/tracing.py wraps, every
binom4k name that bench/worker.py calls and every Ball method that the bench
scripts call must exist, so that a rename shows up in the tier-1 suite and
not only in the slower `pytest bench` run."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_contexts_are_called():
    from binom4k import proofs

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        proofs.run_exact_checks("context")          # alpha- and beta-context
        proofs.run_exact_checks("reduction-m256")   # case_context, cached or not
    finally:
        tracer.uninstall()
    called = {span.name for span in tracer.spans}
    assert {"proofs.alpha_context", "proofs.beta_context", "proofs.case_context"} <= called


def test_worker_names_exist():
    tree = ast.parse((BENCH / "worker.py").read_text())
    modules = ("catalog", "cli", "proofs", "series")
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("cli", "run_verify_all") in used and ("proofs", "run_exact_checks") in used
    for module, name in sorted(used):
        assert hasattr(importlib.import_module(f"binom4k.{module}"), name), f"{module}.{name}"


def test_ball_methods_exist():
    """The `ball.<name>(` and `balls[i].<name>(` calls in bench/*.py, such as
    the endpoint reads of the near-radius check in bench/oracles.py."""
    from binom4k.balls import Ball

    called = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if isinstance(owner, ast.Subscript):
                    owner = owner.value
                    is_ball = isinstance(owner, ast.Name) and owner.id == "balls"
                else:
                    is_ball = isinstance(owner, ast.Name) and owner.id == "ball"
                if is_ball:
                    called.add(node.func.attr)
    assert {"lo_fraction", "hi_fraction", "radius", "decimal"} <= called
    for name in sorted(called):
        assert hasattr(Ball, name), f"Ball.{name}"


def test_genfunc_checks_are_called_once_per_check(monkeypatch):
    """The tracer's `genfunc.checks_s` is the self time of the six
    `genfunc.check_*` names it wraps, so the exact suite must call them, one
    call per check and 20 `check_lagrange` calls inside `lagrange`; a check
    inlined into `proofs` would drop out of that metric."""
    from binom4k import genfunc, proofs

    names = _load_tracing().GENFUNC_CHECKS
    calls = dict.fromkeys(names, 0)
    for name in names:
        leaf = name.split(".", 1)[1]

        def counted(*args, _name=name, _original=getattr(genfunc, leaf)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(genfunc, leaf, counted)
    checks = proofs.run_exact_checks()
    assert len(checks) == 46 and all(c.passed for c in checks)
    assert calls == {"genfunc.check_quartic_f": 1, "genfunc.check_gm": 5,
                     "genfunc.check_log_gm": 5, "genfunc.check_f_log": 1,
                     "genfunc.check_derivatives_f": 1, "genfunc.check_lagrange": 20}
