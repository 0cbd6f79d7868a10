"""Command-line front end.

Subcommands:
    run    verify identities (default: the whole registry)
    eval   verify one identity on its default grid or at given parameters
    table  sweep one parameter of an identity over lo:hi:step
    list   print the registry with anchors and notes

Exit codes: 0 when every non-flagged check passes, 1 on any failure,
2 on a usage error.  ETAINT_TOL overrides the default tolerance.
Output formats: text (default), json, csv.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from typing import NamedTuple

from . import __version__, verify
from ._backend import BACKEND
from .errors import DomainError

__all__ = ["main", "build_report_payload", "exit_code_for_report"]

_TOL_MIN = 1e-12
_TOL_MAX = 1e-3
_MAX_SWEEP_POINTS = 10_000

USAGE_ERROR = 2


class _CliError(Exception):
    """Usage error: reported with the offending flag and valid domain."""


class _Options(NamedTuple):
    command: str
    identities: list[str]
    params: dict[str, float]
    sweep: tuple[str, float, float, float] | None
    tol: float | None
    fmt: str
    output: str | None


def _parse_tol(text: str | None) -> float | None:
    if text is None:
        return None
    try:
        tol = float(text)
    except ValueError:
        raise _CliError(f"--tol must be a real number, got {text!r}")
    if not _TOL_MIN <= tol <= _TOL_MAX:
        raise _CliError(f"--tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}], got {tol:g}")
    return tol


def _parse_params(items: list[str]) -> tuple[dict[str, float], tuple | None]:
    """Split name=value / name=lo:hi:step assignments."""
    fixed: dict[str, float] = {}
    sweep = None
    for item in items:
        if "=" not in item:
            raise _CliError(f"--param expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if ":" in value:
            parts = value.split(":")
            if len(parts) != 3:
                raise _CliError(f"range parameter must be lo:hi:step, got {value!r}")
            try:
                lo, hi, step = (float(p) for p in parts)
            except ValueError:
                raise _CliError(f"range parameter must be numeric, got {value!r}")
            if not all(math.isfinite(v) for v in (lo, hi, step)):
                raise _CliError(f"--param {name}: range {value!r} needs finite lo, hi and step")
            if step <= 0 or hi < lo:
                raise _CliError(f"range {value!r} needs hi >= lo and step > 0")
            # _sweep_values takes lo + k step for k < (hi - lo)/step + 1/2.
            if (hi - lo) / step > _MAX_SWEEP_POINTS - 0.5:
                raise _CliError(
                    f"--param {name}: range {value!r} has more than"
                    f" {_MAX_SWEEP_POINTS} points"
                )
            if sweep is not None:
                raise _CliError("only one range parameter is allowed")
            sweep = (name, lo, hi, step)
        else:
            try:
                fixed[name] = float(value)
            except ValueError:
                raise _CliError(f"parameter {name!r} must be numeric, got {value!r}")
    return fixed, sweep


def _sweep_values(lo: float, hi: float, step: float) -> list[float]:
    # inclusive of lo; upper guard hi + step/2 absorbs float drift
    out = []
    k = 0
    while True:
        v = lo + k * step
        if v >= hi + 0.5 * step:
            break
        out.append(v)
        k += 1
    return out


def _resolve_ids(ids: list[str], registry: dict[str, verify.IdentitySpec]):
    unknown = [i for i in ids if i not in registry]
    if unknown:
        raise _CliError(
            f"unknown identity id(s) {', '.join(unknown)}; valid ids: "
            + ", ".join(registry)
        )
    return [registry[i] for i in ids]


def _finite(x: float) -> float | None:
    # Strict JSON has no NaN or Infinity: such a value is written as null,
    # and the record's note says why (a quadrature that did not converge).
    return x if math.isfinite(x) else None


def _record_payload(r: verify.IdentityRecord) -> dict:
    """One record as the JSON report and, in this column order, the CSV hold it."""
    return {
        "id": r.id,
        "params": r.params,
        "lhs": _finite(r.lhs_value),
        "lhs_err": _finite(r.lhs_err_est),
        "rhs": _finite(r.rhs_value),
        "abs_residual": _finite(r.abs_residual),
        "rel_residual": _finite(r.rel_residual),
        "status": r.status,
        "evals": r.evals,
        "ms": r.ms,
        "cutoff": r.cutoff,
        "tail_method": r.tail_method,
        "note": r.note,
        "lower": r.lower,
        "lower_err": r.lower_err,
        "tail_err": r.tail_err,
    }


def build_report_payload(report: verify.VerificationReport, tol: float | None) -> dict:
    """The stable JSON schema consumed by CI."""
    counts = report.counts
    return {
        "suite": {
            "tol": tol,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "backend": BACKEND,
            "version": __version__,
            "python": sys.version.split()[0],
            "totals": {
                "records": len(report.records),
                "pass": counts["pass"],
                "fail": counts["fail"],
                "flagged": counts["flagged"],
                "max_pass_residual": report.max_pass_residual,
                "ms": report.total_ms,
                "evals": sum(r.evals for r in report.records),
            },
        },
        "records": [_record_payload(r) for r in report.records],
    }


def _format_params(params: dict) -> str:
    return ";".join(f"{k}={v:g}" for k, v in params.items()) or "-"


def _render_text(report: verify.VerificationReport, tol: float | None) -> str:
    lines = []
    header = (
        f"{'id':<6} {'params':<14} {'lhs':>22} {'rhs':>22} "
        f"{'abs resid':>12} {'status':>8} {'evals':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.records:
        lines.append(
            f"{r.id:<6} {_format_params(r.params):<14} {r.lhs_value:>22.15e} "
            f"{r.rhs_value:>22.15e} {r.abs_residual:>12.3e} {r.status:>8} "
            f"{r.evals:>7}"
        )
    c = report.counts
    lines.append(
        f"records: {len(report.records)}  pass: {c['pass']}  fail: {c['fail']}  "
        f"flagged: {c['flagged']}  max pass residual: {report.max_pass_residual:.3e}  "
        f"time: {report.total_ms:.0f} ms  backend: {BACKEND}"
    )
    return "\n".join(lines) + "\n"


def _render_csv(report: verify.VerificationReport) -> str:
    import csv  # only this format needs it; kept off the start-up path

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = [_record_payload(r) for r in report.records]
    if rows:
        writer.writerow(rows[0])  # the header: the JSON record keys
    for row in rows:
        row["params"] = _format_params(row["params"])
        writer.writerow(row.values())  # floats as repr, None as ""
    return buf.getvalue()


def _render_list(registry: dict[str, verify.IdentitySpec], fmt: str) -> str:
    if fmt == "json":
        payload = [
            {
                "id": spec.id,
                "grid": list(spec.param_grid),
                "tol": spec.tol,
                "expected_status": spec.expected_status,
                "anchor": spec.anchor,
                "notes": spec.notes,
            }
            for spec in registry.values()
        ]
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    lines = []
    for spec in registry.values():
        grid = ", ".join(_format_params(p) for p in spec.param_grid)
        lines.append(f"{spec.id:<6} tol={spec.tol:g}  expected={spec.expected_status}")
        lines.append(f"       {spec.anchor}")
        lines.append(f"       grid: {grid}")
        if spec.notes:
            lines.append(f"       notes: {spec.notes}")
    return "\n".join(lines) + "\n"


def exit_code_for_report(report: verify.VerificationReport) -> int:
    """0 when no record failed (flagged entries do not fail the suite)."""
    return 0 if report.counts["fail"] == 0 else 1


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"--output {output}: cannot write ({exc.strerror or exc})") from None
    else:
        sys.stdout.write(text)


def _run_records(options: _Options) -> int:
    registry = verify.registry_by_id()
    if options.command == "run" and not options.identities:
        specs = list(registry.values())
    else:
        if not options.identities:
            raise _CliError("eval/table require --identity")
        specs = _resolve_ids(options.identities, registry)

    if options.command == "table":
        if options.sweep is None:
            raise _CliError("table requires a --param name=lo:hi:step range")
        if len(specs) != 1:
            raise _CliError("table sweeps exactly one identity")
        name, lo, hi, step = options.sweep
        spec = specs[0]
        records = []
        for v in _sweep_values(lo, hi, step):
            point = dict(options.params)
            point[name] = v
            records.append(verify.verify_identity(spec, point, options.tol))
        report = verify.VerificationReport(records=tuple(records), tol_override=options.tol)
    elif options.command == "eval" and options.params:
        records = [
            verify.verify_identity(spec, options.params, options.tol) for spec in specs
        ]
        report = verify.VerificationReport(records=tuple(records), tol_override=options.tol)
    else:
        report = verify.run_suite(specs, options.tol)

    if options.fmt == "json":
        payload = build_report_payload(report, options.tol)
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    elif options.fmt == "csv":
        text = _render_csv(report)
    else:
        text = _render_text(report, options.tol)
    _emit(text, options.output)
    return exit_code_for_report(report)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaint",
        description="Verify integral identities of the Dedekind eta function.",
    )
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--identity", nargs="+", default=[], metavar="ID")
    common.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    common.add_argument("--tol", default=None)
    common.add_argument("--format", default="text", choices=["text", "json", "csv"])
    common.add_argument("--output", default=None, metavar="PATH")
    run_p = sub.add_parser("run", parents=[common], help="verify identities")
    run_p.add_argument("--all", action="store_true", help="whole registry (default)")
    sub.add_parser("eval", parents=[common], help="verify a single identity")
    sub.add_parser("table", parents=[common], help="sweep one parameter")
    list_p = sub.add_parser("list", help="print the registry")
    list_p.add_argument("--format", default="text", choices=["text", "json"])
    list_p.add_argument("--output", default=None, metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "list":
            _emit(_render_list(verify.registry_by_id(), args.format), args.output)
            return 0
        tol = _parse_tol(args.tol if args.tol is not None else os.environ.get("ETAINT_TOL"))
        params, sweep = _parse_params(args.param)
        options = _Options(
            command=args.command,
            identities=list(args.identity),
            params=params,
            sweep=sweep,
            tol=tol,
            fmt=args.format,
            output=args.output,
        )
        return _run_records(options)
    except (_CliError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
