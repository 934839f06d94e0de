"""Command-line front end.

Subcommands: table, double, cov, verify, compare, chartable.  Exit codes:
0 success / identity holds, 1 verification failure or oracle discrepancy,
2 usage or scale errors.  All rationals are emitted exactly, integers as
numbers and proper fractions as "num/den" strings; no floats anywhere.

Environment overrides: HURWITZ_ORACLE_DMAX_CAP and HURWITZ_ORACLE_BMAX_CAP
raise or lower the oracle enumeration caps, HURWITZ_JOBS sets the default
worker count for the oracle comparison (at least 1; more than the CPU count
runs as many workers as there are CPUs).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .characters import character
from .hurwitz import (
    cov_record,
    double_hurwitz,
    format_rational,
    hurwitz_table,
)
from .oracle import (
    DEFAULT_B_CAP,
    DEFAULT_D_CAP,
    OracleLimitError,
    compare_all,
    count_table,
)
from .partitions import Partition, partitions_of
from .series import make_key
from .verify import (
    verify_hirota,
    verify_tau_n,
    verify_toda,
    verify_toda_specialized,
)

CORRUPT_TEST_KEY = make_key(dq=1, b=0, mu=(1,), nu=(1,))


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"invalid integer in ${name}: {raw!r}") from None


class _OutputError(Exception):
    pass


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {out_path}: {exc}")


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _records_csv(records) -> str:
    return _csv(["d", "b", "mu", "nu", "value", "genus", "connected"], (
        [r.d, r.b, r.mu.to_string(), r.nu.to_string(), format_rational(r.value),
         "non-integral" if g is None else g, r.connected]
        for r in records for g in [r.genus]))


def _records_human(records) -> str:
    lines = []
    for r in records:
        kind = "Hur" if r.connected else "Cov"
        genus = "" if (g := r.genus) is None else f" genus={g}"
        lines.append(
            f"{kind} d={r.d} b={r.b} mu=({r.mu.to_string()}) "
            f"nu=({r.nu.to_string()}) = {format_rational(r.value)}{genus}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _records_out(records, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        _emit(json.dumps([r.to_json_obj() for r in records], indent=2) + "\n", out_path)
    elif fmt == "csv":
        _emit(_records_csv(records), out_path)
    else:
        _emit(_records_human(records), out_path)


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.from_string(text)
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None


def cmd_table(args) -> int:
    records = hurwitz_table(args.dmax, args.bmax)
    _records_out(records, args.format, args.out)
    return 0


def cmd_record(args) -> int:
    """One record: connected for ``double``, disconnected for ``cov``."""
    mu = _parse_partition(args.mu)
    nu = _parse_partition(args.nu)
    if mu.size != nu.size or mu.size == 0:
        sys.stderr.write("mu and nu must be nonempty partitions of the same size\n")
        return 2
    # module names are read per call, so a rebinding of them (a tracer) applies
    query = double_hurwitz if args.command == "double" else cov_record
    rec = query(mu.size, args.b, mu, nu)
    _records_out([rec], args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    corruption = CORRUPT_TEST_KEY if args.corrupt_test else None
    if args.identity == "toda":
        report = verify_toda(args.dmax, args.bmax, corruption=corruption)
    elif args.identity == "toda-specialized":
        report = verify_toda_specialized(args.dmax, corruption=corruption)
    elif args.identity == "hirota":
        report = verify_hirota(args.m, args.sn, args.dmax, args.bmax,
                               side=args.side, corruption=corruption)
    else:  # argparse admits only these four identities
        report = verify_tau_n(args.n, args.dmax, args.bmax, corruption=corruption)

    if args.format == "json":
        _emit(json.dumps(report.to_json_obj(), indent=2) + "\n", args.out)
    else:
        status = "PASS" if report.passed else "FAIL"
        lines = [f"{status} {report.identity} orders={report.orders}"]
        for k, v in report.notes.items():
            lines.append(f"  note {k}: {v}")
        if not report.passed:
            lines.append(f"  first offending monomial: {report.first_failure}"
                         f" = {format_rational(report.first_failure_value)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 1


def cmd_compare(args) -> int:
    jobs = args.jobs if args.jobs is not None else _env_int("HURWITZ_JOBS", 1)
    if jobs < 1:
        raise ValueError(f"--jobs and $HURWITZ_JOBS must be at least 1, got {jobs}")
    d_cap = _env_int("HURWITZ_ORACLE_DMAX_CAP", DEFAULT_D_CAP)
    b_cap = _env_int("HURWITZ_ORACLE_BMAX_CAP", DEFAULT_B_CAP)
    if args.format == "csv":
        rows = ([row["d"], row["b"], ",".join(map(str, row["mu"])), ",".join(map(str, row["nu"])),
                 format_rational(row["disconnected_count"]),
                 format_rational(row["connected_count"])]
                for row in count_table(args.dmax, args.bmax, d_cap=d_cap, b_cap=b_cap))
        _emit(_csv(["d", "b", "mu", "nu", "disconnected_count", "connected_count"], rows),
              args.out)
    discrepancies = compare_all(args.dmax, args.bmax, jobs=jobs, d_cap=d_cap, b_cap=b_cap)
    # after a CSV table the summary goes to stderr, so stdout stays one table
    summary = sys.stderr if args.format == "csv" else sys.stdout
    if args.format == "json":
        obj = [
            {k: (format_rational(v) if k in ("oracle", "series", "formula") and v is not None
                 else (list(v) if isinstance(v, tuple) else v))
             for k, v in rec.items()}
            for rec in discrepancies
        ]
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    elif discrepancies:
        for rec in discrepancies:
            summary.write(
                f"DISCREPANCY {rec['kind']} d={rec['d']} b={rec['b']} "
                f"mu={rec['mu']} nu={rec['nu']} oracle={rec['oracle']} "
                f"series={rec['series']} formula={rec['formula']}\n"
            )
    else:
        summary.write(f"agreement for all d <= {args.dmax}, b <= {args.bmax}\n")
    return 1 if discrepancies else 0


def cmd_chartable(args) -> int:
    classes = list(partitions_of(args.d))
    rows = ([lam.to_string()] + [character(lam, mu) for mu in classes] for lam in classes)
    _emit(_csv(["lambda"] + [mu.to_string() for mu in classes], rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz-toda",
        description="Exact double Hurwitz numbers and lattice-identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dmax_default=4, bmax_default=4, formats=("json", "csv", "human")):
        p.add_argument("--dmax", type=int, default=dmax_default)
        p.add_argument("--bmax", type=int, default=bmax_default)
        p.add_argument("--format", choices=formats, default="human")
        p.add_argument("--out", default=None)

    p = sub.add_parser("table", help="all connected numbers up to the caps")
    common(p)
    p.set_defaults(func=cmd_table)

    for name, text in (("double", "one connected number"),
                       ("cov", "one disconnected (weighted) count")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--mu", required=True)
        p.add_argument("--nu", required=True)
        p.add_argument("-b", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv", "human"), default="human")
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_record)

    p = sub.add_parser("verify", help="check one identity exactly")
    p.add_argument("identity",
                   choices=("toda", "toda-specialized", "hirota", "tau-n"))
    common(p, formats=("json", "human"))
    p.add_argument("-m", type=int, default=0)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--sn", type=int, default=1,
                   help="index of the first-order perturbation")
    p.add_argument("--side", choices=("p", "pprime"), default="pprime")
    p.add_argument("--corrupt-test", action="store_true",
                   help="negative control: bump one series coefficient")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="oracle comparison: counted permutation "
                                      "tuples against the character sums")
    common(p, dmax_default=3, bmax_default=2)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("chartable", help="dump a character table as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chartable)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _OutputError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except OracleLimitError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
