"""Command-line verifier.

Subcommands:

  verify <id> [--digits D]            one catalog identity, numeric
  verify-all [--digits D] [--jobs N] [--format text|json|csv]
  exact-checks [--only NAME] [--format text|json]
  crosscheck --j J [--x P/Q] [--tol T]
  catalog list | show <id>
  eval --spec FILE [--digits D]       evaluate a bare series spec from JSON

Exit codes: 0 all executed checks passed, 1 any FAIL or ERROR, 2 usage error.
Default digits come from BINOM4K_DIGITS (fallback 50); more than MAX_DIGITS
is a usage error.  Reports are deterministic apart from the elapsed-time
fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .balls import Ball, QuadratureError, _fraction_rounded, quad_bits, quad_integrate
from .catalog import (
    MAX_DIGITS,
    P_COEFFS,
    CatalogError,
    IdentityEntry,
    _parse_frac,
    builtin_catalog,
    catalog_by_id,
    eval_closed_form,
    parse_component,
)
from .exact import Poly
from .genfunc import eval_f, relation_at
from .proofs import alpha_context, run_exact_checks, substituted_integrands
from .series import PrecisionError, SeriesSpec, SpecError, sum_many, sum_series

DEFAULT_DIGITS_ENV = "BINOM4K_DIGITS"

DIGITS_HELP = (f"absolute accuracy D: enclosures of radius about 10^-D, not D significant "
               f"digits; at most {MAX_DIGITS} (default: {DEFAULT_DIGITS_ENV}, else 50)")

# alpha and the upper limits, in Q(alpha), are enclosed this tightly before
# the 60-digit quadratures of the cross-checks
QUAD_WIDTH = Fraction(1, 10**55)

# weight slack: the lhs and the rhs are enclosed 3 digits past the request,
# so the combined difference stays well under the 10^(1-D) pass threshold
COMPONENT_PAD = 3

class VerificationRecord(NamedTuple):
    id: str
    status: str          # PASS | FAIL | ERROR
    lhs: str
    rhs: str
    difference: str
    digits: int
    elapsed_ms: float
    provenance: str
    message: str = ""


def default_digits() -> int:
    """Digits from BINOM4K_DIGITS (an integer from 10 to MAX_DIGITS), else 50."""
    env = os.environ.get(DEFAULT_DIGITS_ENV)
    if not env:
        return 50
    try:
        digits = int(env)
    except ValueError:
        digits = 0
    if not 10 <= digits <= MAX_DIGITS:
        raise SystemExit2(f"{DEFAULT_DIGITS_ENV} must be an integer from 10 to {MAX_DIGITS}, "
                          f"got {env!r}")
    return digits


def _digits(args, minimum: int = 10) -> int:
    """--digits, else the default; a usage error below `minimum` or above
    MAX_DIGITS."""
    digits = default_digits() if args.digits is None else args.digits
    if digits < minimum:
        raise SystemExit2(f"digits must be >= {minimum}")
    if digits > MAX_DIGITS:
        raise SystemExit2(f"digits must be <= {MAX_DIGITS}")
    return digits


def verify_entry(entry: IdentityEntry, digits: int) -> VerificationRecord:
    return _verify_entries([entry], digits)[0]


def _verify_entries(entries: list[IdentityEntry], digits: int,
                    jobs: int = 1) -> list[VerificationRecord]:
    """A record per entry from one `sum_many` call for all their components
    (`jobs` processes); elapsed_ms is a record's own work plus its
    components' seconds."""
    inner = digits + COMPONENT_PAD
    requests = []
    for entry in entries:
        # one more digit per decade of the total weight keeps the weighted sum
        # of the component radii within 10^-inner
        spread = sum(abs(w) for w, _ in entry.components)
        component_digits = inner
        while 10 ** (component_digits - inner) < spread:
            component_digits += 1
        requests.extend((spec, component_digits) for _, spec in entry.components)
    summed = iter(sum_many(requests, jobs))
    return [_record(entry, digits, [next(summed) for _ in entry.components]) for entry in entries]


def _lhs(entry: IdentityEntry, summed: list) -> Ball:
    """The weighted sum of the balls; a weight 1 needs no product."""
    lhs = [b if w == 1 else w * b for (w, _), (b, _) in zip(entry.components, summed)]
    return sum(lhs[1:], lhs[0])


def _record(entry: IdentityEntry, digits: int, summed: list) -> VerificationRecord:
    """The verdict on an entry from its components' (enclosure or error, seconds)."""
    t0 = time.perf_counter()
    try:
        for ball, _ in summed:
            if isinstance(ball, Exception):
                raise ball
        lhs = _lhs(entry, summed)
        rhs = eval_closed_form(entry.rhs, digits + COMPONENT_PAD)
        diff = lhs - rhs
        if not diff.contains_zero():
            status, msg = "FAIL", "difference enclosure excludes 0"
        elif diff.width() > Fraction(1, 10 ** (digits - 1)):
            status, msg = "ERROR", "difference enclosure too wide to decide"
        else:
            status, msg = "PASS", ""
        shown = lhs.decimal(digits), rhs.decimal(digits), diff.decimal(6)
    except (PrecisionError, SpecError, ArithmeticError) as exc:
        status, msg, shown = "ERROR", str(exc), ("", "", "")
    elapsed_ms = 1000 * (time.perf_counter() - t0 + sum(seconds for _, seconds in summed))
    return VerificationRecord(entry.id, status, *shown, digits, elapsed_ms, entry.provenance, msg)


def run_verify_all(digits: int, jobs: int) -> list[VerificationRecord]:
    """Verify every catalog entry, in catalog order, in one batch whose passes
    run in up to `jobs` processes.  Only elapsed_ms depends on `jobs`: it is
    work per process, so records can add up to more than the wall time."""
    return _verify_entries(builtin_catalog(), digits, jobs)


def records_json(records: list[VerificationRecord]) -> str:
    return json.dumps({"version": 1, "records": [r._asdict() for r in records]}, indent=1)


def records_csv(records: list[VerificationRecord]) -> str:
    import csv as _csv
    import io
    buf = io.StringIO()
    w = _csv.writer(buf)
    w.writerow(["id", "status", "lhs", "rhs", "difference", "digits",
                "elapsed_ms", "provenance", "message"])
    for r in records:
        w.writerow([r.id, r.status, r.lhs, r.rhs, r.difference, r.digits,
                    f"{r.elapsed_ms:.1f}", r.provenance, r.message])
    return buf.getvalue()


def records_text(records: list[VerificationRecord]) -> str:
    lines = []
    for r in records:
        lines.append(f"{r.status:5s} {r.id:18s} diff {r.difference:28s} "
                     f"{r.elapsed_ms:8.1f} ms  [{r.provenance}]"
                     + (f"  {r.message}" if r.message else ""))
    npass = sum(1 for r in records if r.status == "PASS")
    lines.append(f"{npass}/{len(records)} PASS")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# cross-checks: quadrature of the integral representations vs the series


def _fixed_quotient(num: Poly, den: Poly, bits: int) -> Callable[[int], int]:
    """2^bits t -> 2^bits num(t) / den(t): coefficients rounded down once,
    Horner steps acc = (acc t >> bits) + c, one integer division per call."""
    ns, ds = ([(c << bits) // p.den for c in reversed(p.nums)] for p in (num, den))

    def integrand(t: int) -> int:
        n = d = 0
        for c in ns:
            n = (n * t >> bits) + c
        for c in ds:
            d = (d * t >> bits) + c
        return (n << bits) // d

    return integrand


# The plain z-substituted integrands of sum C(4k,k) H_{jk}/16^k reduced to
# (A(z) + alpha B(z)) / D(z), as (A, B, D) in ascending powers; j=3 is in
# w = z/cbrt2, where it is cbrt2 times the z-form at z = cbrt2 w
_PLAIN_FORMS = {
    2: ((-4, 0, -4), (4, 0, -12), (1, -4, 3, -4, 3, 0, 1)),
    3: ((-2,), (2, 0, 0, -4), (1, -2, 0, 0, 1)),
    4: ((-2, 0, 0, 0, -2), (2, 0, 0, 0, -6), (1, -2, 0, 0, 2, -2, 0, 0, 1)),
}


class CrosscheckRecord(NamedTuple):
    name: str
    status: str
    series_value: str
    quad_value: str
    delta: str
    tol: float
    evaluations: int
    message: str = ""


def _quadratures(name: str, tol: float, lower: Fraction, upper: Fraction,
                 forms: list, message: str = "") -> CrosscheckRecord:
    """Integrate each (label, num, den, series ball) of `forms` over
    [lower, upper] at 60 digits and compare it with its series: PASS when
    every delta is within `tol`, ERROR when `tol` is below a series' radius,
    which no delta can decide.  The record shows the first form's values."""
    series_value = forms[0][3].decimal(25)
    if tol < max(series.radius() for *_, series in forms):
        return CrosscheckRecord(name, "ERROR", series_value, "", "", tol, 0,
                                f"tol {tol:g} is below the radius of a series enclosure")
    # 40 bits past the quadrature's precision absorb the Horner floors and the
    # denominators down to 2^-10 (weighted forms: above 0.15; plain: 0 at the upper limit)
    results, deltas = [], []
    for label, num, den, series in forms:
        try:
            qr = quad_integrate(_fixed_quotient(num, den, quad_bits(60)), lower, upper,
                                tol=tol, dps=60)
        except QuadratureError as exc:
            return CrosscheckRecord(name, "ERROR", series_value, "", "", tol,
                                    exc.best.evaluations, message=str(exc))
        results.append(qr)
        deltas.append(abs(qr.value - series.midpoint()))
    return CrosscheckRecord(
        name, "PASS" if all(d <= tol for d in deltas) else "FAIL",
        series_value, _fraction_rounded(results[0].value, 25),
        ", ".join(label + _fraction_rounded(d, 3) for (label, *_), d in zip(forms, deltas)),
        tol, sum(qr.evaluations for qr in results), message)


def crosscheck_j1(x: Fraction, tol: float) -> CrosscheckRecord:
    """Integral representation of sum C(4k,k) H_k x^k against the series:
    4(1+3y)^2 / (y q3(y)) over [1, gamma], gamma the midpoint of an enclosure
    of f(x).  The upper endpoint 0/0 is removed beforehand: q3 is the quotient
    of f's quartic relation at x by (y - gamma), by exact synthetic division."""
    name = "crosscheck-j1"
    if x == 0:
        return CrosscheckRecord(name, "PASS", "0", "0", "0", tol, 0)
    try:
        series = sum_series(SeriesSpec(x=x, start=1, channels={1: (Fraction(1),)}), 30)
        gamma = eval_f(x, 50).midpoint()
    except PrecisionError as exc:
        return CrosscheckRecord(name, "ERROR", "", "", "", tol, 0, message=str(exc))
    q3 = relation_at(x) // Poly([-gamma, 1])
    return _quadratures(name, tol, Fraction(1), gamma,
                        [("", Poly([4, 24, 36]), Poly([0, 1]) * q3, series)])


def crosscheck_substituted(j: int, tol: float) -> CrosscheckRecord:
    """Two comparisons at x = 1/16:

    (a) the plain z-substituted representation of sum C(4k,k) H_{jk}/16^k
        (`_PLAIN_FORMS`),
    (b) the weighted substituted integrand (the I_j form returned by
        substituted_integrands) against sum C(4k,k) P(k) H_{jk}/16^k with
        P(k) = 22k^2 - 92k + 11.

    For j=3 both are integrated in w = z/cbrt2 over [0, u], as
    substituted_integrands returns that case.
    """
    name = f"crosscheck-j{j}"
    x16 = Fraction(1, 16)
    try:
        series_plain = sum_series(SeriesSpec(x=x16, start=1, channels={j: (Fraction(1),)}), 30)
        series_weighted = sum_series(SeriesSpec(x=x16, start=1, channels={j: P_COEFFS}), 30)
    except PrecisionError as exc:
        return CrosscheckRecord(name, "ERROR", "", "", "", tol, 0, message=str(exc))
    alpha = sum(alpha_context().field.refine(QUAD_WIDTH)) / 2
    si = substituted_integrands(j, QUAD_WIDTH)
    a, b, d = _PLAIN_FORMS[j]
    return _quadratures(name, tol, Fraction(0), sum(si.upper_interval) / 2,
                        [("plain ", Poly(a) + Poly(b).scale(alpha), Poly(d), series_plain),
                         ("weighted ", si.num, si.den, series_weighted)],
                        message="weighted form checked against the P(k)-weighted series")


def run_crosscheck(j: int, x: Fraction, tol: float) -> CrosscheckRecord:
    if j == 1:
        return crosscheck_j1(x, tol)
    if x != Fraction(1, 16):
        raise SystemExit2(f"substituted forms are specialized at x = 1/16, got {x}")
    return crosscheck_substituted(j, tol)


class SystemExit2(Exception):
    """Usage error (mapped to exit code 2)."""


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="binom4k",
        description="Verify series identities involving C(4k,k) and harmonic numbers.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify one catalog identity numerically")
    p.add_argument("id")
    p.add_argument("--digits", type=int, default=None, help=DIGITS_HELP)

    p = sub.add_parser("verify-all", help="verify every catalog identity")
    p.add_argument("--digits", type=int, default=None, help=DIGITS_HELP)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes for the series passes (>= 1, at most the CPUs)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("exact-checks", help="run the exact symbolic suite")
    p.add_argument("--only", default=None,
                   help="the check of this name, or else every check whose name contains it")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("crosscheck", help="quadrature vs series cross-check")
    p.add_argument("--j", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--x", default="1/16",
                   help="rational x as P/Q (j=1 only); write a negative x as --x=-1/50")
    p.add_argument("--tol", type=float, default=1e-20)

    p = sub.add_parser("catalog", help="inspect the identity catalog")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("id", nargs="?")

    p = sub.add_parser("eval", help="evaluate a series spec from a JSON file")
    p.add_argument("--spec", required=True)
    p.add_argument("--digits", type=int, default=None, help=DIGITS_HELP)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(args_list)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except (SystemExit2, CatalogError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(args) -> int:
    if args.command == "verify":
        digits = _digits(args)
        by_id = catalog_by_id()
        if args.id not in by_id:
            raise SystemExit2(f"unknown identity id {args.id!r}; see `binom4k catalog list`")
        rec = verify_entry(by_id[args.id], digits)
        print(records_text([rec]))
        return 0 if rec.status == "PASS" else 1

    if args.command == "verify-all":
        digits = _digits(args)
        if args.jobs < 1:
            raise SystemExit2("jobs must be >= 1")
        records = run_verify_all(digits, args.jobs)
        if args.format == "json":
            print(records_json(records))
        elif args.format == "csv":
            print(records_csv(records), end="")
        else:
            print(records_text(records))
        return 0 if all(r.status == "PASS" for r in records) else 1

    if args.command == "exact-checks":
        checks = run_exact_checks(args.only)
        if not checks:
            raise SystemExit2(f"no exact checks match {args.only!r}")
        if args.format == "json":
            print(json.dumps({"version": 1, "records": [asdict_check(c) for c in checks]},
                             indent=1))
        else:
            for c in checks:
                line = f"{'PASS' if c.passed else 'FAIL':5s} {c.name}"
                if c.note:
                    line += f"  ({c.note})"
                if c.witness:
                    line += f"  witness: {c.witness}"
                print(line)
            print(f"{sum(1 for c in checks if c.passed)}/{len(checks)} PASS")
        return 0 if all(c.passed for c in checks) else 1

    if args.command == "crosscheck":
        # the series are summed to 30 digits: a finer tol cannot be decided
        if not 1e-30 <= args.tol <= 1:
            raise SystemExit2(f"tol must be a number from 1e-30 to 1, got {args.tol:g}")
        rec = run_crosscheck(args.j, _parse_frac(args.x, "--x"), args.tol)
        print(f"{rec.status:5s} {rec.name}  series {rec.series_value}")
        print(f"      quadrature {rec.quad_value}  delta {rec.delta}  "
              f"tol {rec.tol:g}  evaluations {rec.evaluations}")
        if rec.message:
            print(f"      {rec.message}")
        return 0 if rec.status == "PASS" else 1

    if args.command == "catalog":
        if args.action == "list":
            for e in builtin_catalog():
                print(f"{e.id:18s} {e.provenance:40s} = {e.rhs.render()}")
            return 0
        if not args.id:
            raise SystemExit2("catalog show needs an id")
        by_id = catalog_by_id()
        if args.id not in by_id:
            raise SystemExit2(f"unknown identity id {args.id!r}")
        e = by_id[args.id]
        print(f"id:         {e.id}")
        print(f"provenance: {e.provenance}")
        print(f"rhs:        {e.rhs.render()}")
        for i, (w, s) in enumerate(e.components):
            print(f"component {i}: weight {w}, x = {s.x}, "
                  f"binomial_power {s.binomial_power}, start {s.start}")
            for jj in sorted(s.channels):
                label = "1" if jj == 0 else ("H_k" if jj == 1 else f"H_{{{jj}k}}")
                print(f"    channel {jj} ({label}): coeffs {[str(c) for c in s.channels[jj]]}")
            if s.denominator_factors:
                print(f"    denominator: {' * '.join(s.denominator_factors)}")
        return 0

    if args.command == "eval":
        digits = _digits(args, minimum=1)
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # undecodable, malformed, too deep
            raise SystemExit2(f"cannot read spec file: {exc}") from None
        if not isinstance(obj, dict):
            raise SystemExit2("spec file must hold a JSON object")
        _, spec = parse_component({**obj, "weight": obj.get("weight", "1/1")}, "spec")
        if max(abs(spec.x.numerator), spec.x.denominator) > 10 ** MAX_DIGITS:
            raise SystemExit2(f"spec.x: numerator and denominator must be at most 10^{MAX_DIGITS}")
        # D is absolute, so a coefficient of size 10^s needs D + s digits of the sum
        bound = 10 ** (MAX_DIGITS - digits)
        if any(max(abs(c.numerator), c.denominator) > bound
               for cs in spec.channels.values() for c in cs):
            raise SystemExit2(f"spec.channels: numerators and denominators must be at most "
                              f"10^{MAX_DIGITS - digits}, so that --digits plus the decimal "
                              f"size of the largest coefficient stays within {MAX_DIGITS}")
        try:
            b = sum_series(spec, digits)
        except PrecisionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(b.decimal(digits))
        return 0

    raise SystemExit2(f"unknown command {args.command!r}")


def asdict_check(c) -> dict:
    return {"name": c.name, "status": "PASS" if c.passed else "FAIL",
            "witness": c.witness, "note": c.note}


if __name__ == "__main__":
    raise SystemExit(main())
