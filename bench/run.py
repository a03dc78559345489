"""The binom4k benchmark.

    python3 bench/run.py --workload audit-50 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (bench/worker.py) against the checkout's `src`; passes repeat
while the next one is expected to end within --seconds, and the run reports
the median of each metric over its passes.  Set-up time is also sampled by
extra set-up-only processes, so it always has a median of several.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 adds a
traced serial pass and reports the per-layer metrics.  Every output is
checked; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 after a run, 2 when the checkout has no binom4k sources.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 170

class WorkerError(RuntimeError):
    pass


def worker(*args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                              if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def timed_passes(workload: str, seed: int, seconds: float, extra: list[str]) -> list[dict]:
    """Passes while the next one is expected to fit in `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(worker("--workload", workload, "--seed", str(seed), *extra))
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return passes


def median_of(passes: list[dict], get) -> float:
    return statistics.median(get(p) for p in passes)


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    m = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": median_of(passes, lambda p: p["wall_s"]),
        "peak_rss_mb": median_of(passes, lambda p: p["peak_rss_mb"]),
    }
    for phase in ("verify", "exact", "crosscheck", "eval"):
        if phase in passes[0]["phases"]:
            m[f"{phase}_s"] = median_of(passes, lambda p: p["phases"][phase])
    return m


def per_layer(untraced: dict, serial: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics: the traced pass's, plus the untraced phase times."""
    m = dict(traced["layers"])
    for phase in ("verify", "exact", "crosscheck", "eval"):
        m[f"{phase}_s"] = untraced["phases"].get(phase, 0.0)
    m["trace_overhead_frac"] = traced["wall_s"] / serial["wall_s"] - 1
    serial_ms = serial["entry_ms"]
    if serial_ms and untraced["verify_pool_s"]:
        m["cli.parallel_efficiency"] = \
            sum(serial_ms) / 1000 / (untraced["jobs"] * untraced["verify_pool_s"])
        m["cli.longest_entry_share"] = max(serial_ms) / sum(serial_ms)
    else:
        m["cli.parallel_efficiency"] = m["cli.longest_entry_share"] = 0.0
    return m


def machine_facts() -> str:
    import mpmath
    gmpy2 = "present" if importlib.util.find_spec("gmpy2") else "absent"
    return (f"nproc {os.cpu_count()}, cpu {platform.processor() or platform.machine()}, "
            f"python {platform.python_version()}, mpmath {mpmath.__version__} "
            f"(backend {mpmath.libmp.BACKEND}), gmpy2 {gmpy2}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="binom4k benchmark")
    ap.add_argument("--workload", required=True, choices=("audit-50", "deep-300", "near-radius"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (the benchmark's tests)")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="expect PASS from one wrong identity (the benchmark's tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "binom4k" / "__init__.py").is_file():
        print(f"error: no binom4k sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    extra = ["--smoke"] * args.smoke + ["--plant-wrong"] * args.plant_wrong
    worker("--setup-only")  # compiles the bytecode once; not a sample
    if args.trace:
        untraced = worker("--workload", args.workload, "--seed", str(args.seed), *extra)
        serial = untraced if untraced["jobs"] == 1 else worker(
            "--workload", args.workload, "--seed", str(args.seed), "--jobs", "1", *extra)
        traced = worker("--workload", args.workload, "--seed", str(args.seed),
                        "--jobs", "1", "--trace", *extra)
        passes = [untraced, traced] + ([serial] if serial is not untraced else [])
        metrics = per_layer(untraced, serial, traced)
    else:
        setups = [worker("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
        passes = timed_passes(args.workload, args.seed, args.seconds, extra)
        metrics = end_to_end(passes, setups)

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    metrics["error_rate"] = len(failures) / attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"binom4k benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    print(f"  machine: {machine_facts()}")
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:14.6g} {units[name]}")
    print(f"  ops {attempted}, failed {len(failures)}")
    for f in failures:
        print(f"  FAILED: {f}")

    reported = {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
