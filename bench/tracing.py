"""Outside-in tracing of binom4k: wrappers around its public functions.

Each wrapper records a span (name, start, end, parent) in memory; the spans
are turned into per-layer metrics when the traced pass ends.  The layer of a
span is the module named before the first dot.  A span's self time is its
duration minus the durations of its direct children.

A wrapper replaces the function in every binom4k module that holds it,
because `from .series import sum_series` binds the name in the importing
module too (cli, genfunc, ...), and those bindings are what the program
calls.  A target that no longer exists is recorded as missing: the metrics
that need it are left out, never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

# Span names are "<module>.<attribute path>" inside binom4k; the module is
# also the layer the span counts towards.
TARGETS = (
    "series.sum_series",
    "series.tail_bound_exact",
    "series.min_tail_cutoff",
    "series.harmonic",
    "series.TermState.initial",
    "balls.const_pi",
    "balls.const_log",
    "balls.const_sqrt",
    "balls.quad_integrate",
    "catalog.builtin_catalog",
    "catalog.eval_closed_form",
    "catalog.parse_component",
    "cli.run_verify_all",
    "cli.verify_entry",
    "cli.run_crosscheck",
    "cli.crosscheck_j1",
    "cli.crosscheck_substituted",
    "genfunc.check_quartic_f",
    "genfunc.check_gm",
    "genfunc.check_log_gm",
    "genfunc.check_f_log",
    "genfunc.check_derivatives_f",
    "genfunc.check_lagrange",
    "proofs.run_exact_checks",
    "proofs.alpha_context",
    "proofs.beta_context",
    "proofs.case_context",
    "proofs.cbrt2_field",
    "proofs.sigma_rational_closure",
    "proofs.sigma_log_ident",
    "proofs.sigma_value_closure",
    "proofs.p_identity",
    "proofs.alpha_power_identity",
    "proofs.check_antiderivative",
    "proofs.antiderivative_g",
    "proofs.antiderivative_g2",
    "proofs.antiderivative_g3",
    "proofs.antiderivative_g4",
    "proofs.check_theorem3_reduction",
)

CONST = ("balls.const_pi", "balls.const_log", "balls.const_sqrt")
CROSSCHECK = ("cli.run_crosscheck", "cli.crosscheck_j1", "cli.crosscheck_substituted")
GENFUNC_CHECKS = tuple(t for t in TARGETS if t.startswith("genfunc.check_"))
PROOF_GROUPS = {
    "proofs.context_s": ("proofs.alpha_context", "proofs.beta_context",
                         "proofs.case_context", "proofs.cbrt2_field"),
    "proofs.closure_s": ("proofs.sigma_rational_closure", "proofs.sigma_log_ident",
                         "proofs.sigma_value_closure", "proofs.p_identity",
                         "proofs.alpha_power_identity"),
    "proofs.antiderivative_s": ("proofs.check_antiderivative", "proofs.antiderivative_g",
                                "proofs.antiderivative_g2", "proofs.antiderivative_g3",
                                "proofs.antiderivative_g4"),
    "proofs.reduction_s": ("proofs.check_theorem3_reduction",),
    "proofs.other_s": ("proofs.run_exact_checks",),
}
LAYERS = ("series", "balls", "catalog", "cli", "proofs", "genfunc")


@dataclass
class Span:
    name: str
    start: float
    parent: int                  # index of the enclosing span, -1 at the root
    end: float = 0.0
    info: object = None          # what a metric needs from the call

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sum_series_info(args, kwargs, result):
    return (args[0], kwargs.get("digits", args[1] if len(args) > 1 else 50))


def _tail_info(args, kwargs, result):
    return kwargs.get("K", args[1] if len(args) > 1 else None)


def _quad_info(args, kwargs, result):
    return result.evaluations


INFO: dict[str, Callable] = {
    "series.sum_series": _sum_series_info,
    "series.tail_bound_exact": _tail_info,
    "balls.quad_integrate": _quad_info,
}


class Tracer:
    """Span recorder; `install` wraps the targets, `uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1])
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name in TARGETS:
            modname, path = name.split(".", 1)
            owner = importlib.import_module(f"binom4k.{modname}")
            *outer, leaf = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.add(name)
                continue
            wrapper = self.wrap(name, original)
            if isinstance(owner, type):
                raw = owner.__dict__[leaf]
                wrapped = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                self._patch(owner, leaf, wrapped)
                continue
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "")
                if modname_ != "binom4k" and not modname_.startswith("binom4k."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(tracer: Tracer, phases: dict[str, Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    The series, balls and catalog times are inclusive (time inside the
    named functions); the cli, genfunc and proofs group times are self
    times.  A metric whose function was not found is absent.
    """
    spans = tracer.spans
    own = self_times(spans)
    missing = tracer.missing
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def outermost(*names):
        """Spans of these names not nested in another one of them."""
        chosen = set(names)
        out = []
        for i in idx(*names):
            p = spans[i].parent
            while p >= 0 and spans[p].name not in chosen:
                p = spans[p].parent
            if p < 0:
                out.append(i)
        return out

    def inclusive(*names):
        return sum(spans[i].duration for i in outermost(*names))

    def self_sum(*names):
        return sum(own[i] for i in idx(*names))

    def have(*names):
        return not any(n in missing for n in names)

    m: dict[str, float] = {}
    # series
    sums = idx("series.sum_series")
    m["series.sum_s"] = inclusive("series.sum_series")
    m["series.sum_calls"] = len(sums)
    if have("series.tail_bound_exact"):
        m["series.tail_s"] = inclusive("series.tail_bound_exact")
        m["series.tail_calls"] = len(idx("series.tail_bound_exact"))
    if have("series.harmonic"):
        m["series.harmonic_s"] = inclusive("series.harmonic")
    calls = sum_series_calls(tracer)
    if calls is not None:
        inits = idx("series.TermState.initial")
        first_init: dict[int, float] = {}
        for i in inits:
            first_init.setdefault(spans[i].parent, spans[i].start)
        terms = sum(passes * (k - spec.start + 1) for spec, _, k, passes in calls)
        m["series.terms"] = terms
        m["series.terms_per_s"] = terms / m["series.sum_s"] if m["series.sum_s"] else 0.0
        m["series.passes_per_sum"] = len(inits) / len(sums) if sums else 0.0
        m["series.cutoff_s"] = sum(t - spans[p].start for p, t in first_init.items())

    # balls
    m["balls.const_s"] = inclusive(*CONST)
    m["balls.const_calls"] = len(idx(*CONST))
    m["balls.quad_s"] = inclusive("balls.quad_integrate")
    m["balls.quad_evals"] = sum(spans[i].info or 0 for i in idx("balls.quad_integrate"))

    # catalog
    m["catalog.closed_form_s"] = inclusive("catalog.eval_closed_form")
    m["catalog.build_s"] = inclusive("catalog.builtin_catalog")
    m["catalog.parse_s"] = inclusive("catalog.parse_component")

    # cli
    verdict_ms = [1000 * spans[i].duration for i in idx("cli.verify_entry")]
    m["cli.verify_self_s"] = self_sum("cli.verify_entry")
    quartiles = statistics.quantiles(verdict_ms, n=4) if len(verdict_ms) > 1 else [0.0] * 3
    m["cli.verdict_ms_p50"] = quartiles[1]
    m["cli.verdict_ms_p75"] = quartiles[2]
    m["cli.crosscheck_self_s"] = self_sum(*CROSSCHECK)

    # exact suite
    m["genfunc.checks_s"] = self_sum(*GENFUNC_CHECKS)
    for metric, names in PROOF_GROUPS.items():
        m[metric] = self_sum(*names)

    # self time of each layer, and how much of the verify phase they cover
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if s.layer in layer_self:
            layer_self[s.layer] += own[i]
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    verify = phases.get("verify")
    if verify is not None and verify.duration > 0:
        covered = verify.duration - own[spans.index(verify)]
        m["trace.verify_coverage"] = covered / verify.duration
    else:
        m["trace.verify_coverage"] = 0.0
    return m


def sum_series_calls(tracer: Tracer):
    """(spec, digits, K used, passes) for each traced `sum_series` call that
    summed terms.  K used is the argument of the last `tail_bound_exact`
    call inside that span; passes counts its `TermState.initial` calls.
    None when either function is gone."""
    if tracer.missing & {"series.tail_bound_exact", "series.TermState.initial"}:
        return None
    spans = tracer.spans
    last_k: dict[int, int] = {}
    passes: dict[int, int] = {}
    for s in spans:
        if s.parent < 0 or spans[s.parent].name != "series.sum_series":
            continue
        if s.name == "series.tail_bound_exact":
            last_k[s.parent] = s.info
        elif s.name == "series.TermState.initial":
            passes[s.parent] = passes.get(s.parent, 0) + 1
    return [(*spans[i].info, last_k[i], n) for i, n in passes.items() if i in last_k]
