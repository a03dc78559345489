"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload audit-50 --seed 1 [--jobs N] [--trace]
    python3 bench/worker.py --setup-only

Each pass is its own process because a user of the command line starts with
empty module caches (the constant cache in `balls`, the harmonic memo in
`series`, the `lru_cache`s in `proofs`).  `binom4k` must be importable (the
caller puts the checkout's `src` on PYTHONPATH).  The pass prints one JSON
object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

EXACT_CHECK_NAMES = (
    "quartic-f gm-equation-m1 gm-log-m1 gm-equation-m2 gm-log-m2 gm-equation-m3 gm-log-m3 "
    "gm-equation-m4 gm-log-m4 gm-equation-m5 gm-log-m5 f-log f-derivatives lagrange "
    "alpha-context beta-context alpha-power-identity decomposition antiderivative-g "
    "antiderivative-g2 antiderivative-g3 antiderivative-g4 sigma1-rational-closure "
    "sigma1-log-closure sigma1-value-closure sigma2-value-closure sigma3-value-closure "
    "sigma4-value-closure p1-identity p2-identity p3-identity p4-identity p5-identity "
    "abel-step-A abel-step-B abel-telescoping-numeric abel-boundary-convention "
    "partial-fractions theorem3-reduction-m256 theorem3-reduction-128 theorem3-reduction-m72 "
    "theorem3-reduction-m25 theorem3-reduction-24 integrand-domain-j2 integrand-domain-j3 "
    "integrand-domain-j4"
).split()


@dataclasses.dataclass(frozen=True)
class Workload:
    digits: int
    jobs: int
    phases: tuple
    exact_only: str = ""          # substring filter of the exact suite
    crosschecks: tuple = (1, 2, 3, 4)
    cells: tuple = ()             # near-radius cells to run; () means all


WORKLOADS = {
    "audit-50": Workload(50, 1, ("verify", "exact", "crosscheck")),
    "deep-300": Workload(300, 2, ("verify",)),
    "near-radius": Workload(20, 1, ("eval",)),
}
# tiny inputs with the same phases, for the benchmark's own tests
SMOKE = {
    "audit-50": Workload(12, 1, ("verify", "exact", "crosscheck"),
                         exact_only="gm-log", crosschecks=(1,)),
    "deep-300": Workload(20, 2, ("verify",)),
    "near-radius": Workload(20, 1, ("eval",), cells=(15, 16, 17)),
}


class Outcomes:
    """Attempted and failed operations, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(name: str, seed: int, *, jobs=None, trace=False, smoke=False,
             plant_wrong=False) -> dict:
    wl = (SMOKE if smoke else WORKLOADS)[name]
    jobs = wl.jobs if jobs is None else jobs
    out = Outcomes()
    phase_s: dict[str, float] = {}
    tracer = None

    t0 = time.perf_counter()
    from binom4k import catalog, cli, proofs, series
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    entries = catalog.builtin_catalog()
    setup_s = time.perf_counter() - t0

    # inputs, outside the timed phases
    by_id = {e.id: e for e in entries}
    wrong = [dataclasses.replace(by_id[w.base_id], id=f"{w.base_id}~wrong",
                                 rhs=by_id[w.base_id].rhs + w.shift)
             for w in workloads.wrong_identities(seed, wl.digits)]
    must_pass = [e.id for e in entries]
    if plant_wrong:
        # a shifted entry the checks are told must PASS: the run has to fail
        wrong[0] = dataclasses.replace(wrong[0], id=wrong[0].id.replace("~wrong", "~planted"))
        must_pass.append(wrong[0].id)
    specs = workloads.near_radius_specs(seed)
    specs = [specs[i] for i in wl.cells] if wl.cells else specs

    records, wrong_records, checks, crosses, balls = [], [], [], [], []
    verify_pool_s = 0.0

    def verify():
        nonlocal verify_pool_s
        start = time.perf_counter()
        records.extend(cli.run_verify_all(wl.digits, jobs))
        verify_pool_s = time.perf_counter() - start
        wrong_records.extend(cli.verify_entry(e, wl.digits) for e in wrong)

    def evaluate():
        for obj in specs:
            _, spec = catalog.parse_component({**obj, "weight": "1/1"}, "spec")
            balls.append(series.sum_series(spec, wl.digits))

    bodies = {
        "verify": verify,
        "exact": lambda: checks.extend(proofs.run_exact_checks(wl.exact_only or None)),
        "crosscheck": lambda: crosses.extend(
            cli.run_crosscheck(j, Fraction(1, 16), 1e-20) for j in wl.crosschecks),
        "eval": evaluate,
    }
    phase_spans = {}
    for label in wl.phases:
        span = tracer.open(f"bench.{label}") if tracer else None
        start = time.perf_counter()
        try:
            bodies[label]()
        except Exception:
            out.check(False, f"{label}: {traceback.format_exc(limit=3).strip()}")
        finally:
            phase_s[label] = time.perf_counter() - start
            if span:
                tracer.close(span)
                phase_spans[label] = span
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.uninstall()

    # output checks, outside the timed phases
    if "verify" in wl.phases:
        got = {r.id: r for r in records + wrong_records}
        if [r.id for r in records] != [e.id for e in entries]:
            out.check(False, "verify: records not in catalog order")
        for eid in must_pass:
            r = got.get(eid)
            out.check(r is not None and r.status == "PASS",
                      f"verify {eid}: {r.status if r else 'missing'}, expected PASS"
                      + (f" ({r.message})" if r and r.message else ""))
        for e in wrong:
            if e.id in must_pass:
                continue
            r = got.get(e.id)
            out.check(r is not None and r.status == "FAIL",
                      f"verify {e.id}: {r.status if r else 'missing'}, expected FAIL")
    if "exact" in wl.phases:
        expected = [n for n in EXACT_CHECK_NAMES if wl.exact_only in n]
        got = {c.name: c for c in checks}
        if [c.name for c in checks] != expected:
            out.check(False, f"exact: names {[c.name for c in checks]} != expected")
        for n in expected:
            c = got.get(n)
            out.check(c is not None and c.passed,
                      f"exact {n}: {'missing' if c is None else c.witness}")
    if "crosscheck" in wl.phases:
        for j in wl.crosschecks:
            c = next((c for c in crosses if c.name == f"crosscheck-j{j}"), None)
            out.check(c is not None and c.status == "PASS",
                      f"crosscheck j={j}: {c.status + ' ' + c.message if c else 'missing'}")
    if "eval" in wl.phases:
        import oracles
        for i, obj in enumerate(specs):
            if i >= len(balls):
                out.check(False, f"eval {obj}: no enclosure")
                continue
            ref = oracles.series_reference(obj)
            ok = balls[i].radius() <= Fraction(1, 10**wl.digits) and \
                oracles.enclosure_agrees(balls[i], ref)
            out.check(ok, f"eval {obj}: enclosure {balls[i].decimal(wl.digits)} "
                          f"vs mpmath {ref}")

    result = {
        "workload": name, "seed": seed, "jobs": jobs, "trace": trace,
        "setup_s": setup_s,
        "phases": phase_s,
        "wall_s": setup_s + sum(phase_s.values()),
        "verify_pool_s": verify_pool_s,
        "entry_ms": [r.elapsed_ms for r in records],
        "peak_rss_mb": peak_rss_mb,
        "attempted": out.attempted,
        "failures": out.failures,
    }
    if tracer:
        result["layers"] = _traced_layers(tracer, phase_spans)
    return result


def _traced_layers(tracer, phase_spans) -> dict:
    import oracles
    import tracing
    from binom4k import series

    metrics = tracing.layer_metrics(tracer, phase_spans)
    calls = tracing.sum_series_calls(tracer)
    if calls is not None:
        used = minimal = 0
        for spec, digits, k_used, passes in calls:
            k_min = oracles.minimal_cutoff(series, spec, digits, k_used)
            used += passes * (k_used - spec.start + 1)
            minimal += k_min - spec.start + 1
        metrics["series.term_efficiency"] = minimal / used if used else 0.0
    return metrics


def setup_only() -> dict:
    """The set-up of a pass alone: the same imports and the catalog."""
    t0 = time.perf_counter()
    from binom4k import catalog, cli, proofs, series  # noqa: F401
    catalog.builtin_catalog()
    return {"setup_s": time.perf_counter() - t0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="expect PASS from a wrong identity (tests)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        result = setup_only()
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        result = run_pass(args.workload, args.seed, jobs=args.jobs, trace=args.trace,
                          smoke=args.smoke, plant_wrong=args.plant_wrong)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
