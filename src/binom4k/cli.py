"""Command-line verifier.

Subcommands:

  verify <id> [--digits D]            one catalog identity, numeric
  verify-all [--digits D] [--jobs N] [--format text|json|csv]
  exact-checks [--only NAME] [--format text|json]
  crosscheck --j J [--x P/Q] [--tol T]
  catalog list | show <id>
  eval --spec FILE [--digits D]       evaluate a bare series spec from JSON

Exit codes: 0 all executed checks passed, 1 any FAIL or ERROR, 2 usage error.
Default digits come from BINOM4K_DIGITS (fallback 50).  Reports are
deterministic apart from the elapsed-time fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .balls import Ball, QuadratureError, quad_integrate
from .catalog import (
    CatalogError,
    IdentityEntry,
    builtin_catalog,
    catalog_by_id,
    eval_closed_form,
    parse_component,
)
from .exact import NFElem, Poly
from .genfunc import eval_f
from .proofs import alpha_context, run_exact_checks, substituted_integrands
from .series import PrecisionError, SeriesSpec, SpecError, sum_many, sum_series

DEFAULT_DIGITS_ENV = "BINOM4K_DIGITS"

# upper limits and coefficients over Q(alpha) or Q(cbrt 2) are enclosed this
# tightly before the 60-digit quadratures of the cross-checks
QUAD_WIDTH = Fraction(1, 10**55)

# weight slack: the lhs and the rhs are enclosed 3 digits past the request,
# so the combined difference stays well under the 10^(1-D) pass threshold
COMPONENT_PAD = 3

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "records"],
    "properties": {
        "version": {"const": 1},
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "status", "lhs", "rhs", "difference",
                             "digits", "elapsed_ms", "provenance"],
                "properties": {
                    "id": {"type": "string"},
                    "status": {"enum": ["PASS", "FAIL", "ERROR"]},
                    "lhs": {"type": "string"},
                    "rhs": {"type": "string"},
                    "difference": {"type": "string"},
                    "digits": {"type": "integer"},
                    "elapsed_ms": {"type": "number"},
                    "provenance": {"type": "string"},
                    "message": {"type": "string"},
                },
            },
        },
    },
}


@dataclass
class VerificationRecord:
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
    """Digits from BINOM4K_DIGITS (an integer >= 10), else 50."""
    env = os.environ.get(DEFAULT_DIGITS_ENV)
    if not env:
        return 50
    try:
        digits = int(env)
    except ValueError:
        digits = 0
    if digits < 10:
        raise SystemExit2(f"{DEFAULT_DIGITS_ENV} must be an integer >= 10, got {env!r}")
    return digits


def _digits(args, minimum: int = 10) -> int:
    """--digits, else the default; a usage error below `minimum`."""
    digits = default_digits() if args.digits is None else args.digits
    if digits < minimum:
        raise SystemExit2(f"digits must be >= {minimum}")
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
    return json.dumps({"version": 1, "records": [asdict(r) for r in records]}, indent=1)


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


def _mpf_of_fraction(q: Fraction):
    import mpmath
    return mpmath.mpf(q.numerator) / q.denominator


def _poly_mpf_coeffs(p: Poly, width: Fraction, brackets: list):
    """mpf coefficients of p; `brackets` is the root's bracket list of the one
    field its NFElem coefficients lie in (see `NFElem.embedding_interval`)."""
    out = []
    for c in p.coeffs:
        if isinstance(c, NFElem):
            lo, hi = c.embedding_interval(width, brackets)
            out.append(_mpf_of_fraction((lo + hi) / 2))
        else:
            out.append(_mpf_of_fraction(c))
    return out

def _horner(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@dataclass
class CrosscheckRecord:
    name: str
    status: str
    series_value: str
    quad_value: str
    delta: str
    tol: float
    evaluations: int
    message: str = ""


def crosscheck_j1(x: Fraction, tol: float) -> CrosscheckRecord:
    """Integral representation of sum C(4k,k) H_k x^k against the series.

    The upper endpoint 0/0 is removed by synthetic division of the quartic
    denominator by (y - f(x)) at working precision before integrating."""
    import mpmath

    spec = SeriesSpec(x=x, start=1, channels={1: (Fraction(1),)})
    series = sum_series(spec, 30)
    if x == 0:
        return CrosscheckRecord("crosscheck-j1", "PASS", "0", "0", "0", tol, 0)
    dps = 60
    with mpmath.workdps(dps):
        gamma = _mpf_of_fraction(eval_f(x, 50).midpoint())
        xv = _mpf_of_fraction(x)
        # (27-256x) y^4 - 18y^2 - 8y - 1 = (y - gamma) * (b3 y^3 + b2 y^2 + b1 y + b0)
        a4 = 27 - 256 * xv
        b3 = a4
        b2 = gamma * b3
        b1 = -18 + gamma * b2
        b0 = -8 + gamma * b1

        def integrand(y):
            q3 = ((b3 * y + b2) * y + b1) * y + b0
            return 4 * (1 + 3 * y) ** 2 / (y * q3)

        try:
            qr = quad_integrate(integrand, Fraction(1), gamma, tol=tol, dps=dps)
        except QuadratureError as exc:
            return CrosscheckRecord("crosscheck-j1", "ERROR", series.decimal(25), "",
                                    "", tol, exc.best.evaluations if exc.best else 0,
                                    message=str(exc))
        delta = abs(qr.value - _mpf_of_fraction(series.midpoint()))
        ok = delta <= tol
        return CrosscheckRecord(
            "crosscheck-j1", "PASS" if ok else "FAIL",
            series.decimal(25), mpmath.nstr(qr.value, 25), mpmath.nstr(delta, 3),
            tol, qr.evaluations)


def crosscheck_substituted(j: int, tol: float) -> CrosscheckRecord:
    """Two comparisons at x = 1/16:

    (a) the plain z-substituted representation of sum C(4k,k) H_{jk}/16^k,
    (b) the weighted substituted integrand (the I_j form returned by
        substituted_integrands) against sum C(4k,k) P(k) H_{jk}/16^k with
        P(k) = 22k^2 - 92k + 11.
    """
    import mpmath

    name = f"crosscheck-j{j}"
    x16 = Fraction(1, 16)
    series_plain = sum_series(SeriesSpec(x=x16, start=1, channels={j: (Fraction(1),)}), 30)
    series_weighted = sum_series(
        SeriesSpec(x=x16, start=1, channels={j: (Fraction(11), Fraction(-92), Fraction(22))}), 30)
    dps = 60
    with mpmath.workdps(dps):
        alpha = _mpf_of_fraction((lambda iv: (iv[0] + iv[1]) / 2)(
            alpha_context().alpha.refine(QUAD_WIDTH)))
        si = substituted_integrands(j, QUAD_WIDTH)
        upper = _mpf_of_fraction(sum(si.upper_interval) / 2)
        cbrt2 = mpmath.cbrt(2)

        if j == 2:
            def plain(z):
                z2 = z * z
                y = -(z2 + 1) / (3 * z2 - 1)
                ym1 = -4 * z2 / (3 * z2 - 1)
                core = 2 * (y - alpha) / (y * ((3 * y + 1) * ym1 - 4 * y * y * z))
                return core * 8 * z / (3 * z2 - 1) ** 2
        elif j == 3:
            def plain(z):
                z3 = z ** 3
                y = 1 / (1 - z3)
                ym1 = z3 / (1 - z3)
                core = 4 * (y - alpha) / (3 * y * ym1 * (3 * y + 1 - 2 * cbrt2 * y / z))
                return core * 3 * z * z / (z3 - 1) ** 2
        else:
            def plain(z):
                z4 = z ** 4
                y = -(z4 + 1) / (3 * z4 - 1)
                ym1 = -4 * z4 / (3 * z4 - 1)
                core = (y - alpha) / (y * ym1 * (3 * y + 1 - 2 * y / z))
                return core * 16 * z ** 3 / (3 * z4 - 1) ** 2

        brackets: list = []  # one field: its root is refined once per width
        ncoef = _poly_mpf_coeffs(si.num, QUAD_WIDTH, brackets)
        dcoef = _poly_mpf_coeffs(si.den, QUAD_WIDTH, brackets)

        def weighted(z):
            return _horner(ncoef, z) / _horner(dcoef, z)

        try:
            qa = quad_integrate(plain, Fraction(0), upper, tol=tol, dps=dps)
            qb = quad_integrate(weighted, Fraction(0), upper, tol=tol, dps=dps)
        except QuadratureError as exc:
            return CrosscheckRecord(name, "ERROR", series_plain.decimal(25), "", "",
                                    tol, exc.best.evaluations if exc.best else 0,
                                    message=str(exc))
        da = abs(qa.value - _mpf_of_fraction(series_plain.midpoint()))
        db = abs(qb.value - _mpf_of_fraction(series_weighted.midpoint()))
        ok = da <= tol and db <= tol
        return CrosscheckRecord(
            name, "PASS" if ok else "FAIL",
            series_plain.decimal(25), mpmath.nstr(qa.value, 25),
            f"plain {mpmath.nstr(da, 3)}, weighted {mpmath.nstr(db, 3)}",
            tol, qa.evaluations + qb.evaluations,
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
    p.add_argument("--digits", type=int, default=None)

    p = sub.add_parser("verify-all", help="verify every catalog identity")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes for the series passes (>= 1, at most the CPUs)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("exact-checks", help="run the exact symbolic suite")
    p.add_argument("--only", default=None, help="substring filter on check names")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("crosscheck", help="quadrature vs series cross-check")
    p.add_argument("--j", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--x", default="1/16", help="rational x as P/Q (j=1 only)")
    p.add_argument("--tol", type=float, default=1e-20)

    p = sub.add_parser("catalog", help="inspect the identity catalog")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("id", nargs="?")

    p = sub.add_parser("eval", help="evaluate a series spec from a JSON file")
    p.add_argument("--spec", required=True)
    p.add_argument("--digits", type=int, default=None)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(args_list)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (SystemExit2, CatalogError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
        try:
            x = Fraction(args.x)
        except (ValueError, ZeroDivisionError):
            raise SystemExit2(f"bad rational {args.x!r}") from None
        rec = run_crosscheck(args.j, x, args.tol)
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
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit2(f"cannot read spec file: {exc}") from None
        if not isinstance(obj, dict):
            raise SystemExit2("spec file must hold a JSON object")
        _, spec = parse_component({**obj, "weight": obj.get("weight", "1/1")}, "spec")
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
