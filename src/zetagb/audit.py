"""Numerical audit of the zero-condition propositions.

At each refined zero s_H = 1/2 + xi + it the audit measures the one fact
that needs Q, the zero-condition residual s(s-1) + Q(s) at s_H (IV), at
working precision, with the record's own Q, so the audit evaluates
nothing; reflection, Z(conj s) = conj Z(s) bit for bit, makes its
conjugate the same check. The line offset xi (I) is the record's own
too. One pass over the zeros takes I's and IV's maxima and bounds V
from them; VI, VII and VIII restate them, and II is stated:

  * II: Z = s N^{1-s} (1/(s(s-1)) + 1/Q) holds up to rounding, since Q is
    built from Z's own head and tail (``consistency_identity`` measures it),
  * V: with r = s_H (s_H - 1) + Q, Q = 1/4 + t^2 - xi^2 - 2i xi t + r, so
    |Q - (1/4 + t^2)| <= xi^2 + 2|xi| t + |r| and |Im Q| <= 2|xi| t + |r|,
    while |Q| >= 1/4 + t^2 less the first bound (inf where that is <= 0),
  * VI: the division rest |Q(s_H) - s_H (1 - s_H)| is the residual bit for
    bit, so VI reads IV's maximum,
  * VII: [s(s-1) + Q] - (s - s_H)(s - (1 - s_H)) is s_H (s_H - 1) + Q at
    every s, so the factorization deviates by the residual, IV's maximum,
  * VIII: the conjugate relation |conj(s_H) - (1 - s_H)| is 2 |xi|, so
    VIII reads twice I's maximum, which is exact in binary64.

``factorization_check`` and ``q_variation`` measure VII's deviation and
Q at a caller's points; the audit calls neither.

``audit_range`` bundles the per-zero checks with a count of the window's
zeros into an eight-line verdict report (I..VIII) with a stable JSON
rendering. Verdict III tests the counter-hypothesis, an off-line
conjugate pair rho, 1 - conj(rho): the winding number of the rectangle
[-1, 2] x window counts every zero with multiplicity, and the scan finds
the zeros of odd order on the line, one per sign change of Hardy's Z on
its grid. The rectangle holds every nontrivial zero in the window, none
lying in sigma >= 1, nor, by the functional equation, in sigma <= 0 off the
real axis; its count, Backlund's N(t_max) - N(t_min), walks 14 nodes (see
``zero_scan``). So equal counts mean every zero in the window is on the
line, simple, and audited.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .errors import (
    InconclusiveError,
    ParameterError,
    PrecisionError,
    RefinementError,
    SingularQError,
)
from .qfunction import q_gb
from .serialize import dumps
from .zero_scan import (Rectangle, ScanConfig, ZeroRecord, _check_t_range, _scan_config,
                        record_fields, rectangle_winding, scan_critical_line)
from .zeta_core import EvalParams, _as_complex, _eval_params, auto_params

__all__ = [
    "TOLERANCES",
    "PropositionChecks",
    "AuditReport",
    "factorization_check",
    "audit_zero",
    "q_variation",
    "audit_range",
    "report_to_json",
    "render_text",
]

SCHEMA_VERSION = "7"
_STRIP = (-1.0, 2.0)  # sigma range of the counting rectangle

TOLERANCES = {
    "xi": 1e-6,
    "zero_residual": 1e-4,
    "q_imag_rel": 1e-6,
    "q_vs_quarter_plus_t2": 1e-4,
}

_ROMAN = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")


@dataclass(frozen=True)
class PropositionChecks:
    """The measured deviations for one zero; every field is >= 0 and finite."""

    zero_residual_abs: float

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not (isinstance(value, float) and math.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be a finite non-negative float, got {value!r}")


@dataclass(frozen=True)
class AuditReport:
    complete: bool
    abort_reason: str | None
    t_min: float
    t_max: float
    params_used: EvalParams
    tolerances_used: dict[str, float]
    zero_checks: tuple[tuple[ZeroRecord, PropositionChecks], ...]
    strip_zeros: int | None  # winding count of the strip rectangle over the window
    verdict_lines: tuple[str, ...]


def factorization_check(s_h: complex, q_at_sh: complex, samples: Iterable[complex]) -> float:
    """Max over samples of |[s(s-1) + Q] - (s - s_H)(s - (1 - s_H))|.

    The difference is s_H (s_H - 1) + Q for every s, so the maximum
    equals the zero-condition residual up to rounding.
    """
    s_h = _as_complex(s_h, "s_h")
    q_at_sh = _as_complex(q_at_sh, "q_at_sh")
    samples = [_as_complex(raw, "sample") for raw in samples]
    if not samples:
        raise ParameterError("sample list must not be empty")
    mirror = 1 - s_h
    return max(abs((s * (s - 1) + q_at_sh) - (s - s_h) * (s - mirror)) for s in samples)


def audit_zero(rec: ZeroRecord) -> PropositionChecks:
    """Measure the zero-condition residual |s(s-1) + Q| at rec.s.

    Q is ``rec.q_value``, so the audit evaluates nothing. A scan's record
    holds ``q_gb(rec.s, rec.params_used)`` bit for bit; a record built by
    hand is judged on its own Q, as verdict I judges its own ``xi``.
    Reflection makes Q(conj s) = conj Q(s) bit for bit, so the residual
    at the conjugate zero is the residual at rec.s: the two conjugate
    points are one check.
    """
    if not isinstance(rec, ZeroRecord):
        raise ParameterError(f"rec must be a ZeroRecord, got {type(rec).__name__}")
    s = rec.s
    return PropositionChecks(zero_residual_abs=abs(s * (s - 1) + rec.q_value))


def q_variation(points: Iterable[complex], params: EvalParams) -> tuple[tuple[complex, complex], ...]:
    """Q at each point under one parameter set, as (s, Q(s)) pairs."""
    return tuple((p, q_gb(p, params)) for p in (_as_complex(p) for p in points))


# ---------------------------------------------------------------------------
# range audit and verdicts
# ---------------------------------------------------------------------------


def _line(idx: int, status: str, text: str) -> str:
    return f"{_ROMAN[idx]:<4} {status:<4} {text}"


def _judged(label: str, worst: float, tolerance: float) -> tuple[str, str, str]:
    # a per-zero row judged on its maximum against its tolerance
    status = "PASS" if worst <= tolerance else "FAIL"
    return label, status, f"{label}: max {worst:.3e} vs tolerance {tolerance:.1e}"


def _verdicts(
    checks: tuple[tuple[ZeroRecord, PropositionChecks], ...],
    scanned: bool,
    strip_zeros: int | None,
    aborted: str | None,
) -> tuple[str, ...]:
    tol = TOLERANCES
    # one pass: I's and IV's maxima and V's two bounds (see the module docstring)
    worst_xi = worst_res = worst_imag = worst_quarter = 0.0
    for rec, c in checks:
        xi, t, res = abs(rec.xi), rec.t, c.zero_residual_abs
        quarter = xi * xi + 2 * xi * t + res
        q_floor = 0.25 + t * t - quarter
        imag = (2 * xi * t + res) / q_floor if q_floor > 0 else math.inf
        worst_xi, worst_res = max(worst_xi, xi), max(worst_res, res)
        worst_imag, worst_quarter = max(worst_imag, imag), max(worst_quarter, quarter)

    if strip_zeros is None:
        note = "audit aborted before the winding counts" if aborted else "window too thin for winding counts"
        iii = ("", "SKIP" if aborted else "PASS", f"vacuous, {note}")
    else:
        iii = ("", "PASS" if strip_zeros == len(checks) else "FAIL",
               f"strip [{_STRIP[0]}, {_STRIP[1]}] holds {strip_zeros} zeros; "
               f"the scan found {len(checks)} on the line")
    v_ok = worst_imag <= tol["q_imag_rel"] and worst_quarter <= tol["q_vs_quarter_plus_t2"]
    # (label of a per-zero row, "" for a window row; status; text)
    rows = (
        _judged("measured |xi| at each zero", worst_xi, tol["xi"]),
        ("", "PASS", "consistency identity Z = s N^(1-s) (1/(s(s-1)) + 1/Q): "
                     "stated, Q is built from Z's head and tail"),
        iii,
        _judged("|s(s-1) + Q|", worst_res, tol["zero_residual"]),
        ("Q realness", "PASS" if v_ok else "FAIL",
         f"from I and IV: Q realness <= {worst_imag:.3e} vs {tol['q_imag_rel']:.1e}; "
         f"|Q - (1/4 + t^2)| <= {worst_quarter:.3e} vs {tol['q_vs_quarter_plus_t2']:.1e}"),
        _judged("division rest |Q - s(1-s)| = |s(s-1) + Q| (IV)", worst_res, tol["zero_residual"]),
        _judged("factorization deviation = |s_H(s_H - 1) + Q| at every s (IV)", worst_res, tol["zero_residual"]),
        _judged("|conj(s) - (1 - s)| = 2|xi| (I)", 2 * worst_xi, 2 * tol["xi"]),
    )
    lines = []
    for idx, (label, status, text) in enumerate(rows):
        if not scanned and idx != 2:  # III says itself why it skipped
            status, text = "SKIP", "audit aborted before this check"
        elif label and not checks:  # once the scan has finished, "no zeros" is a measured fact
            status, text = "PASS", f"vacuous, no zeros in range ({label})"
        lines.append(_line(idx, status, text))
    return tuple(lines)


def audit_range(
    t_min: float,
    t_max: float,
    scan_cfg: ScanConfig | None = None,
    params: EvalParams | None = None,
) -> AuditReport:
    """Scan [t_min, t_max], audit every zero, and assemble the verdicts.

    A scan short of the strip rectangle's count is repeated once at half
    the step, and that scan's records are audited, each once. The rescan
    splits two zeros that share a grid cell and reseeds a bracket that
    Newton left. Zeros below t = 500 lie at least 0.4364 apart
    (``test_every_zero_gap_below_500_exceeds_a_quarter``), so at half of
    any allowed step each zero on the line has a cell of its own, and a
    finer grid finds no more. Without ``params`` the scan uses
    ``auto_params`` at 1/2 + i t_max with eps 1e-9, and the strip
    rectangle picks its own at (-1, t_max), where its truncation bound is
    largest. Fatal numeric failures in any sub-step abort the audit; the
    partial report comes back with ``complete=False``, the abort reason
    and the audited records of the last completed scan.
    """
    _check_t_range(t_min, t_max)
    cfg = _scan_config(scan_cfg)
    winding_params = params
    params = auto_params(complex(0.5, float(t_max)), 1e-9) if params is None else _eval_params(params)

    abort: str | None = None
    records: list[ZeroRecord] | None = None  # those of the last completed scan
    strip_zeros: int | None = None
    try:
        records = scan_critical_line(float(t_min), float(t_max), cfg, params)
        window_lo = max(float(t_min), 0.1)  # the counting rectangle keeps off the real axis
        if t_max > window_lo:
            strip_zeros, _ = rectangle_winding(Rectangle(*_STRIP, window_lo, float(t_max)), winding_params)
            if len(records) < strip_zeros:
                records = scan_critical_line(float(t_min), float(t_max), replace(cfg, step=cfg.step / 2), params)
    except (PrecisionError, SingularQError, InconclusiveError, RefinementError) as exc:
        abort = f"{type(exc).__name__}: {exc}"

    checks = tuple((rec, audit_zero(rec)) for rec in records or ())
    verdicts = _verdicts(checks, records is not None, strip_zeros, abort)
    return AuditReport(
        complete=abort is None,
        abort_reason=abort,
        t_min=float(t_min),
        t_max=float(t_max),
        params_used=params,
        tolerances_used=dict(TOLERANCES),
        zero_checks=checks,
        strip_zeros=strip_zeros,
        verdict_lines=verdicts,
    )


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _report_payload(report: AuditReport) -> dict:
    # the checks hold floats only, so a shallow copy equals the deep one of asdict
    zeros = [{**record_fields(rec), "checks": dict(vars(c))} for rec, c in report.zero_checks]
    return {
        "schema_version": SCHEMA_VERSION,
        "complete": report.complete,
        "abort_reason": report.abort_reason,
        "t_min": report.t_min,
        "t_max": report.t_max,
        "params": {
            "N": report.params_used.cutoff_n,
            "nu": report.params_used.tail_order,
        },
        "tolerances": report.tolerances_used,
        "zeros": zeros,
        "strip_zeros": report.strip_zeros,
        "verdicts": list(report.verdict_lines),
    }


def report_to_json(report: AuditReport) -> str:
    """Stable, byte-deterministic JSON rendering of the report."""
    return dumps(_report_payload(report), indent=2) + "\n"


def render_text(report: AuditReport) -> str:
    """Human summary: header, one row per zero, the eight verdicts."""
    lines = [
        f"audit of t in [{report.t_min:g}, {report.t_max:g}]  "
        f"(N={report.params_used.cutoff_n}, nu={report.params_used.tail_order})",
        f"zeros found: {len(report.zero_checks)}",
    ]
    for rec, c in report.zero_checks:
        lines.append(
            f"  t = {rec.t:.9f}  xi = {rec.xi: .2e}  |Z| = {rec.z_modulus:.2e}  "
            f"residual = {c.zero_residual_abs:.2e}"
        )
    if not report.complete:
        lines.append(f"INCOMPLETE: {report.abort_reason}")
    lines.append("verdicts:")
    lines.extend(f"  {v}" for v in report.verdict_lines)
    return "\n".join(lines) + "\n"
