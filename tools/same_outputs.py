"""Byte identity of binom4k's outputs between two checkouts.

    python3 tools/same_outputs.py OLD NEW [--lines N]
    python3 tools/same_outputs.py --revs OLD_REV NEW_REV [--lines N]

Runs one matrix of `python -m binom4k` commands against the `src/` of each
checkout and prints one line for each output (stdout, stderr or exit code)
that differs, each followed by up to N of its changed lines (default 20; 0
prints the headers alone).  Exit status 0 when every output agrees, else 1.
`--revs` compares two git revisions of this repository instead, exported
by `paired_timing.export` into a temporary directory removed afterwards.

The matrix:
- `verify-all` at 10, 50, 300 and 1000 digits with `--jobs` 1 and 2, as
  JSON, CSV and text, and at 2000 digits as JSON, with the elapsed times
  masked;
- `exact-checks` as text and JSON;
- `crosscheck --j 1..4`, and `crosscheck --j 1` at each x of `J1_XS`;
- `catalog list`, and `catalog show` for every id that OLD lists;
- `eval` on the near-radius specs of seeds 1 and 2 at 20 and 5 digits,
  drawn once by OLD's `bench/workloads.py` so both sides read the same files;
- a few usage errors.

Both sides run with the same environment (no BINOM4K_* variables, no
bytecode written), from the same scratch directory, and each checkout's
own path is masked in what it prints.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from paired_timing import export

DIGITS = (10, 50, 300, 1000)
JSON_DIGITS = (2000,)   # JSON alone: a run takes seconds
J1_XS = ("0", "1/50", "-1/50", "1/10")
EVAL_DIGITS = (20, 5)
SEEDS = (1, 2)
_TEXT_MS = re.compile(r" +\d+\.\d ms  \[")
_JSON_MS = re.compile(r'("elapsed_ms": )[-+0-9.eE]+')


def _mask_csv(text: str) -> str:
    """The CSV with every `elapsed_ms` field replaced by "-"."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows and "elapsed_ms" in rows[0]:
        i = rows[0].index("elapsed_ms")
        for row in rows[1:]:
            if len(row) > i:
                row[i] = "-"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


MASKS = {
    "json": lambda text: _JSON_MS.sub(r"\1-", text),
    "csv": _mask_csv,
    "text": lambda text: _TEXT_MS.sub(" - ms  [", text),
}


def _near_radius_specs(root: Path, seed: int) -> list:
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.near_radius_specs(seed)


def matrix(old: Path, scratch: Path) -> list:
    """(label, argv, mask) for every command; writes the eval spec files."""
    runs = []
    for digits in DIGITS + JSON_DIGITS:
        for jobs in (1, 2):
            for fmt in ("json",) if digits in JSON_DIGITS else ("json", "csv", "text"):
                argv = ["verify-all", "--digits", str(digits), "--jobs", str(jobs), "--format", fmt]
                runs.append((" ".join(argv), argv, MASKS[fmt]))
    for fmt in ("text", "json"):
        runs.append((f"exact-checks --format {fmt}", ["exact-checks", "--format", fmt], None))
    for j in range(1, 5):
        runs.append((f"crosscheck --j {j}", ["crosscheck", "--j", str(j)], None))
    for x in J1_XS:
        runs.append((f"crosscheck --j 1 --x={x}", ["crosscheck", "--j", "1", f"--x={x}"], None))
    listing = _run(old, ["catalog", "list"], scratch)[0]
    runs.append(("catalog list", ["catalog", "list"], None))
    for eid in (line.split()[0] for line in listing.splitlines()):
        runs.append((f"catalog show {eid}", ["catalog", "show", eid], None))
    for seed in SEEDS:
        for i, spec in enumerate(_near_radius_specs(old, seed)):
            path = scratch / f"near-{seed}-{i}.json"
            path.write_text(json.dumps(spec))
            for digits in EVAL_DIGITS:
                runs.append((f"eval near-radius seed {seed} spec {i} --digits {digits}",
                             ["eval", "--spec", path.name, "--digits", str(digits)], None))
    for argv in (["catalog", "show", "no-such-id"], ["verify-all", "--digits", "20001"],
                 ["eval", "--spec", "missing.json"], ["crosscheck", "--j", "1", "--x", "1/2"]):
        runs.append((" ".join(argv), argv, None))
    return runs


def _run(root: Path, argv: list, scratch: Path) -> tuple[str, str, int]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("BINOM4K_", "PYTHON"))}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "binom4k", *argv], cwd=scratch, env=env,
                          capture_output=True, text=True)
    out, err = (s.replace(str(root), "<checkout>") for s in (proc.stdout, proc.stderr))
    return out, err, proc.returncode


def _changed(a: str, b: str, limit: int) -> list[str]:
    lines = [line for line in difflib.unified_diff(a.splitlines(), b.splitlines(), lineterm="", n=0)
             if line[:1] in "+-" and line[:3] not in ("+++", "---")]
    return lines[:limit] + ([f"... {len(lines) - limit} more"] if len(lines) > limit else [])


def compare(old: Path, new: Path, limit: int) -> int:
    """Run the matrix on both checkouts, print each output that differs and
    the count; the exit status."""
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        runs = matrix(old, scratch)
        for label, argv, mask in runs:
            a, b = _run(old, argv, scratch), _run(new, argv, scratch)
            if mask:
                a, b = ((mask(r[0]), *r[1:]) for r in (a, b))
            for stream, x, y in zip(("stdout", "stderr", "exit code"), a, b):
                if x != y:
                    differ += 1
                    print(f"{label}: {stream} differs" + (f" ({x} -> {y})" if stream == "exit code" else ""))
                    if stream != "exit code":
                        for line in _changed(x, y, limit):
                            print(f"    {line}")
    print(f"{len(runs)} commands, {differ} differing outputs", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, nargs="?")
    ap.add_argument("new", type=Path, nargs="?")
    ap.add_argument("--revs", nargs=2, metavar=("OLD_REV", "NEW_REV"))
    ap.add_argument("--lines", type=int, default=20, help="changed lines shown per output")
    args = ap.parse_args(argv)
    if args.revs:
        if args.old or args.new:
            ap.error("give either two checkouts or --revs, not both")
        base = Path(tempfile.mkdtemp(prefix="same_outputs_"))
        try:
            for rev, side in zip(args.revs, ("old", "new")):
                export(rev, base / side)
            return compare(base / "old", base / "new", args.lines)
        finally:
            shutil.rmtree(base)
    if not (args.old and args.new):
        ap.error("give two checkouts OLD NEW, or --revs OLD_REV NEW_REV")
    return compare(args.old.resolve(), args.new.resolve(), args.lines)


if __name__ == "__main__":
    sys.exit(main())
