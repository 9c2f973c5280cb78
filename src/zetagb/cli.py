"""Command line front end.

Commands: ``eval``, ``zeros``, ``count``, ``audit``, ``params``,
``bernoulli``. Exit codes: 0 success, 2 parameter errors, 3 precision
errors and singular Q, 4 inconclusive winding counts, 5 refinement
failures under ``--strict-refine``; ``audit`` maps its abort reason
through the same table. ``--eps`` (default 1e-8) sets the target
accuracy of ``eval``, ``params`` and ``count``, and must be finite and
positive also where ``--N/--nu`` fix the params. ``zeros`` and ``audit``
take the scan settings of ``ScanConfig`` (its defaults are theirs).
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import errors
from .audit import audit_range, render_text, report_to_json
from .bernoulli import build_table
from .errors import (
    InconclusiveError,
    ParameterError,
    PrecisionError,
    RefinementError,
    SingularQError,
    ZetaGBError,
)
from .serialize import csv_text, dumps
from .zero_scan import (
    Rectangle,
    ScanConfig,
    _winding,
    record_fields,
    scan_critical_line,
    write_records_csv,
    write_records_jsonl,
)
from .zeta_core import DEFAULT_TARGET_EPS, EvalParams, _check_eps, _pick, zeta_gb

__all__ = ["build_parser", "run", "main"]

# exception type -> exit code and stderr prefix; the first matching row wins
_EXIT_CODES = (
    (ParameterError, 2, "parameter error"),
    (PrecisionError, 3, "precision error"),
    (SingularQError, 3, "singular Q"),
    (InconclusiveError, 4, "inconclusive"),
    (RefinementError, 5, "refinement error"),
    (ZetaGBError, 2, "error"),
)


def _add_common(sub: argparse.ArgumentParser, *, eps: bool = True,
                formats: tuple[str, ...] = ("text", "json", "csv")) -> None:
    if eps:
        sub.add_argument("--eps", type=float, default=DEFAULT_TARGET_EPS,
                         help=f"target accuracy (default {DEFAULT_TARGET_EPS:g})")
    sub.add_argument("--N", type=int, default=None, dest="cutoff_n", help="explicit Dirichlet cutoff")
    sub.add_argument("--nu", type=int, default=None, help="explicit tail order")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")
    if formats:
        sub.add_argument("--format", choices=formats, default="text")


def _add_scan(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t-min", type=float, required=True)
    sub.add_argument("--t-max", type=float, required=True)
    sub.add_argument("--step", type=float, default=ScanConfig.step)
    sub.add_argument("--tol", type=float, default=ScanConfig.tol)
    sub.add_argument("--max-iter", type=int, default=ScanConfig.max_iter)
    sub.add_argument("--strict-refine", action="store_true",
                     help="treat refinement failures as fatal (exit 5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeta-gb",
        description="Gram-Backlund zeta evaluation, zero scanning, and zero-condition audits.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("eval", help="evaluate Z(s) with a certified remainder bound")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    _add_common(p)

    p = commands.add_parser("params", help="show the auto-selected parameters for a point")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    _add_common(p)

    p = commands.add_parser("zeros", help="scan the critical line and refine zeros")
    _add_scan(p)
    _add_common(p, eps=False, formats=("text", "json", "jsonl", "csv"))

    p = commands.add_parser("count", help="count zeros in a rectangle by the argument principle")
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    _add_common(p)

    p = commands.add_parser("audit", help="audit each zero of a range and print the eight verdicts I-VIII")
    _add_scan(p)
    _add_common(p, eps=False, formats=())

    p = commands.add_parser("bernoulli", help="dump the exact Bernoulli table")
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    return parser


def _explicit_params(args: argparse.Namespace) -> EvalParams | None:
    """The parameters ``--N``/``--nu`` pin, or None without them.

    A command that takes ``--eps`` has it checked either way.
    """
    if "eps" in args:
        _check_eps(args.eps)
    if args.cutoff_n is None and args.nu is None:
        return None
    if args.cutoff_n is None or args.nu is None:
        raise ParameterError("--N and --nu must be given together")
    return EvalParams(args.cutoff_n, args.nu)


def _scan_config(args: argparse.Namespace) -> ScanConfig:
    return ScanConfig(step=args.step, tol=args.tol, max_iter=args.max_iter,
                      strict_refine=args.strict_refine)


def _exit_status(exc_type: type[ZetaGBError]) -> tuple[int, str]:
    return next((code, prefix) for cls, code, prefix in _EXIT_CODES if issubclass(exc_type, cls))


def _deliver(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None


def _render(fields: dict | list[dict], fmt: str, text: str) -> str:
    # one record (a dict) or a non-empty table of them; ``text`` is the text format
    if fmt == "json":
        return dumps(fields, indent=2) + "\n"
    if fmt == "csv":
        rows = [fields] if isinstance(fields, dict) else fields
        return csv_text(rows[0], [row.values() for row in rows])
    return text


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    s = complex(args.re, args.im)
    params = _explicit_params(args)
    auto = params is None
    result = zeta_gb(s, params, eps=args.eps)
    params = result.params_used
    bound = result.remainder_bound
    fields = {
        "re": s.real, "im": s.imag,
        "value_re": result.value.real, "value_im": result.value.imag,
        "abs_value": abs(result.value),
        "remainder_bound": bound,
        "N": params.cutoff_n, "nu": params.tail_order,
        "auto_params": auto,
    }
    text = (
        f"Z({s.real:g}{s.imag:+g}i) = {result.value.real:.15g} {result.value.imag:+.15g}i\n"
        f"remainder bound {bound:.3e}  "
        f"(N={params.cutoff_n}, nu={params.tail_order}, "
        f"{'auto' if auto else 'explicit'} parameters)\n"
    )
    _deliver(_render(fields, args.format, text), args.out)
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    s = complex(args.re, args.im)
    params, bound = _pick(s, args.eps, _explicit_params(args))
    fields = {
        "re": s.real, "im": s.imag,
        "N": params.cutoff_n, "nu": params.tail_order,
        "target_eps": args.eps, "certified_bound": bound,
    }
    text = (
        f"N = {params.cutoff_n}\nnu = {params.tail_order}\n"
        f"certified bound = {bound:.6e} (target {args.eps:g})\n"
    )
    _deliver(_render(fields, args.format, text), args.out)
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    records = scan_critical_line(args.t_min, args.t_max, _scan_config(args), _explicit_params(args))
    if args.format == "jsonl":
        text = write_records_jsonl(records)
    elif args.format == "json":
        text = dumps([record_fields(rec) for rec in records], indent=2) + "\n"
    elif args.format == "csv":
        text = write_records_csv(records)
    else:
        lines = [f"{len(records)} zero(s) in ({args.t_min:g}, {args.t_max:g})"]
        for rec in records:
            lines.append(
                f"  t = {rec.t:.9f}  xi = {rec.xi: .3e}  |Z| = {rec.z_modulus:.3e}  "
                f"iterations = {rec.refine_iterations}"
            )
        text = "\n".join(lines) + "\n"
    _deliver(text, args.out)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    rect = Rectangle(args.sigma_min, args.sigma_max, args.t_min, args.t_max)
    # the rectangle picks its full-accuracy params, if any node needs them
    count, residual = _winding(rect, _explicit_params(args), min(args.eps, 1e-9))
    fields = {
        "sigma_min": rect.sigma_min, "sigma_max": rect.sigma_max,
        "t_min": rect.t_min, "t_max": rect.t_max,
        "count": count, "winding_residual": residual,
    }
    _deliver(_render(fields, args.format, f"{count}\n"), args.out)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    report = audit_range(args.t_min, args.t_max, _scan_config(args), _explicit_params(args))
    _deliver(report_to_json(report), args.out)
    sys.stderr.write(render_text(report))
    if report.complete:
        return 0
    # abort_reason starts with the exception's class name
    return _exit_status(getattr(errors, report.abort_reason.partition(":")[0]))[0]


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    table = build_table(args.max_index)
    rows = [
        {"index": i, "numerator": str(table[i].numerator), "denominator": str(table[i].denominator)}
        for i in range(0, table.max_index + 1, 2)
    ]
    text = "".join(f"B_{r['index']} = {r['numerator']}/{r['denominator']}\n" for r in rows)
    _deliver(_render(rows, args.format, text), args.out)
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "params": _cmd_params,
    "zeros": _cmd_zeros,
    "count": _cmd_count,
    "audit": _cmd_audit,
    "bernoulli": _cmd_bernoulli,
}


def run(argv: list[str] | None = None) -> int:
    # the library's log lines go to this call's stderr, for this call only
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    library_logger = logging.getLogger("zetagb")
    library_logger.addHandler(handler)
    try:
        return _dispatch(argv)
    finally:
        library_logger.removeHandler(handler)


def _dispatch(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ZetaGBError as exc:
        code, prefix = _exit_status(type(exc))
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
