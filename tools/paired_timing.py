"""Paired timing of the benchmark workloads on two checkouts.

    python3 tools/paired_timing.py OLD NEW --workload W [--pairs N] [--seed S]

Runs each checkout's own `bench/worker.py` once per side per pair, the
way `bench/run.py` does (the checkout as working directory, its `src` on
PYTHONPATH), and alternates which side runs first.  For `wall_s`,
`setup_s`, `peak_rss_mb` and each phase time it prints the median and the
quartiles of each side, in how many pairs NEW was better (lower), and
whether the medians differ by more than the distance between OLD's
quartiles; a smaller move is printed as unresolved.

The two checkout paths must be of the same length: `peak_rss_mb` moves
with the length of the path the modules load from.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_worker(root: Path, workload: str, seed: int) -> dict:
    """One pass of `workload` by the worker of the checkout at `root`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"]
                                              if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, str(root / "bench" / "worker.py"),
                           "--workload", workload, "--seed", str(seed)],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measures(result: dict) -> dict:
    """The end-to-end metrics of one pass and its phase times."""
    out = {name: result[name] for name in METRICS}
    out.update((f"phase {name}", seconds) for name, seconds in result["phases"].items())
    return out


def summary(old: list, new: list) -> tuple[str, str, str]:
    """The cells of one table row: the quartiles of each side, the pairs NEW
    won, and whether the medians differ by more than OLD's interquartile
    distance."""
    q_old = statistics.quantiles(old, n=4, method="inclusive")
    q_new = statistics.quantiles(new, n=4, method="inclusive")
    better = sum(b < a for a, b in zip(old, new))
    move, spread = q_new[1] - q_old[1], q_old[2] - q_old[0]
    verdict = "resolved" if abs(move) > spread else "unresolved"
    return (f"{q_old[1]:.4f} [{q_old[0]:.4f}, {q_old[2]:.4f}]",
            f"{q_new[1]:.4f} [{q_new[0]:.4f}, {q_new[2]:.4f}]",
            f"NEW better in {better} of {len(old)}  ({move:+.4f}, {verdict})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    if len(str(old)) != len(str(new)):
        ap.error(f"checkout paths differ in length ({len(str(old))} and {len(str(new))}): "
                 "peak_rss_mb moves with the path length")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    runs = {old: [], new: []}
    failures = {old: 0, new: 0}
    for i in range(args.pairs):
        for root in (old, new) if i % 2 == 0 else (new, old):
            result = run_worker(root, args.workload, args.seed)
            runs[root].append(measures(result))
            failures[root] += len(result["failures"])
    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs} "
          f"failures OLD={failures[old]} NEW={failures[new]}")
    print(f"{'metric':<18}{'OLD median [q1, q3]':>30}{'NEW median [q1, q3]':>30}")
    for name in runs[old][0]:
        a, b, pairs = summary([r[name] for r in runs[old]], [r[name] for r in runs[new]])
        print(f"{name:<18}{a:>30}{b:>30}  {pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
