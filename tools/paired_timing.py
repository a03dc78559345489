"""Paired timing of the benchmark workloads on two checkouts.

    python3 tools/paired_timing.py OLD NEW --workload W [--pairs N] [--seed S] [--json PATH]
    python3 tools/paired_timing.py --revs OLD_REV NEW_REV --workload W [...]

Runs each checkout's own `bench/worker.py` once per side per pair, the
way `bench/run.py` does (the checkout as working directory, its `src` on
PYTHONPATH), and alternates which side runs first.  For `wall_s`,
`setup_s`, `peak_rss_mb` and each phase time it prints the median and the
quartiles of each side, in how many pairs NEW was better (lower), and
whether the medians differ by more than the distance between OLD's
quartiles; a smaller move is printed as unresolved.  The header line
states PYTHONDONTWRITEBYTECODE as the workers inherit it: unset, the first
run of each side compiles `src/` into `__pycache__` and later runs load it.

The two checkout paths must be of the same length: `peak_rss_mb` moves
with the length of the path the modules load from.  `--revs` exports two
git revisions of this repository with `git archive` into sibling
temporary directories of equal path length (under TMPDIR) and removes
them afterwards.  `--json PATH` writes each metric's runs, quartiles,
pairs won and verdict under the workload's name into the JSON object at
PATH (created if missing), the shape of a `BENCH_<pr>.json` entry.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
REPO = Path(__file__).resolve().parent.parent


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


def export(rev: str, dest: Path) -> None:
    """The tree of git revision `rev` of this repository, extracted into `dest`."""
    proc = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {rev}: {proc.stderr.decode().strip()}")
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **safe)


def measures(result: dict) -> dict:
    """The end-to-end metrics of one pass and its phase times."""
    out = {name: result[name] for name in METRICS}
    out.update((f"phase {name}", seconds) for name, seconds in result["phases"].items())
    return out


def summary(old: list, new: list) -> dict:
    """Both sides' runs and quartiles, the pairs NEW won, and whether the
    medians differ by more than OLD's interquartile distance."""
    q_old = statistics.quantiles(old, n=4, method="inclusive")
    q_new = statistics.quantiles(new, n=4, method="inclusive")
    move, spread = q_new[1] - q_old[1], q_old[2] - q_old[0]
    return {"parent": old, "change": new,
            "parent_median": q_old[1], "change_median": q_new[1],
            "parent_iqr": [q_old[0], q_old[2]], "change_iqr": [q_new[0], q_new[2]],
            "change_better_pairs": sum(b < a for a, b in zip(old, new)), "pairs": len(old),
            "verdict": "resolved" if abs(move) > spread else "unresolved"}


def row(name: str, s: dict) -> str:
    """One table line of a metric's summary."""
    old, new = ((s[f"{side}_median"], *s[f"{side}_iqr"]) for side in ("parent", "change"))
    return (f"{name:<18}{'{:.4f} [{:.4f}, {:.4f}]'.format(*old):>30}"
            f"{'{:.4f} [{:.4f}, {:.4f}]'.format(*new):>30}  "
            f"NEW better in {s['change_better_pairs']} of {s['pairs']}  "
            f"({s['change_median'] - s['parent_median']:+.4f}, {s['verdict']})")


def timed(old: Path, new: Path, args, labels: tuple[str, str]) -> None:
    """The alternating pairs of one workload on the checkouts old and new."""
    runs = {old: [], new: []}
    failures = {old: 0, new: 0}
    for i in range(args.pairs):
        for root in (old, new) if i % 2 == 0 else (new, old):
            result = run_worker(root, args.workload, args.seed)
            runs[root].append(measures(result))
            failures[root] += len(result["failures"])
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE") or "unset"
    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs} "
          f"OLD={labels[0]} NEW={labels[1]} PYTHONDONTWRITEBYTECODE={bytecode} "
          f"failures OLD={failures[old]} NEW={failures[new]}")
    print(f"{'metric':<18}{'OLD median [q1, q3]':>30}{'NEW median [q1, q3]':>30}")
    metrics = {name: summary([r[name] for r in runs[old]], [r[name] for r in runs[new]])
               for name in runs[old][0]}
    for name, s in metrics.items():
        print(row(name, s))
    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc[args.workload] = {"old": labels[0], "new": labels[1], "seed": args.seed,
                              "pythondontwritebytecode": bytecode,
                              "failures": {"parent": failures[old], "change": failures[new]},
                              "metrics": metrics}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, nargs="?")
    ap.add_argument("new", type=Path, nargs="?")
    ap.add_argument("--revs", nargs=2, metavar=("OLD_REV", "NEW_REV"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    if args.revs:
        if args.old or args.new:
            ap.error("give either two checkouts or --revs, not both")
        base = Path(tempfile.mkdtemp(prefix="paired_timing_"))
        try:
            for rev, side in zip(args.revs, ("old", "new")):
                export(rev, base / side)
            timed(base / "old", base / "new", args, tuple(args.revs))
        finally:
            shutil.rmtree(base)
        return 0
    if not (args.old and args.new):
        ap.error("give two checkouts OLD NEW, or --revs OLD_REV NEW_REV")
    old, new = args.old.resolve(), args.new.resolve()
    if len(str(old)) != len(str(new)):
        ap.error(f"checkout paths differ in length ({len(str(old))} and {len(str(new))}): "
                 "peak_rss_mb moves with the path length")
    timed(old, new, args, (str(old), str(new)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
