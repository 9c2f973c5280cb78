"""Gram-Backlund zeta toolkit.

Binary64 evaluation of the Euler-Maclaurin extension of zeta with
certified truncation bounds, critical-line zero scanning with Newton
refinement from sign-change brackets, argument-principle rectangle
counts, and a numerical audit of the zero-condition propositions built
on the auxiliary function Q.
"""

from __future__ import annotations

from .audit import (
    AuditReport,
    PropositionChecks,
    audit_range,
    audit_zero,
    factorization_check,
    q_variation,
    render_text,
    report_to_json,
)
from .bernoulli import MAX_INDEX, BernoulliTable, build_table
from .errors import (
    BoundaryError,
    InconclusiveError,
    ParameterError,
    PoleError,
    PrecisionError,
    RefinementError,
    SingularQError,
    ZetaGBError,
)
from .qfunction import consistency_identity, q_gb
from .zero_scan import (
    Rectangle,
    ScanConfig,
    ZeroRecord,
    read_records_csv,
    read_records_jsonl,
    rectangle_winding,
    refine_zero,
    scan_critical_line,
    siegel_theta,
    write_records_csv,
    write_records_jsonl,
)
from .zeta_core import (
    DEFAULT_TARGET_EPS,
    EvalParams,
    EvalResult,
    auto_params,
    dirichlet_line,
    dirichlet_partial_sum,
    em_tail,
    remainder_bound,
    zeta_gb,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ZetaGBError", "ParameterError", "PoleError", "PrecisionError",
    "SingularQError", "RefinementError", "InconclusiveError", "BoundaryError",
    "MAX_INDEX", "BernoulliTable", "build_table",
    "DEFAULT_TARGET_EPS", "EvalParams", "EvalResult",
    "dirichlet_partial_sum", "dirichlet_line", "em_tail", "zeta_gb",
    "auto_params", "remainder_bound",
    "q_gb", "consistency_identity",
    "ZeroRecord", "Rectangle", "ScanConfig",
    "refine_zero", "scan_critical_line", "rectangle_winding", "siegel_theta",
    "write_records_csv", "read_records_csv", "write_records_jsonl", "read_records_jsonl",
    "PropositionChecks", "AuditReport",
    "factorization_check", "audit_zero", "q_variation", "audit_range",
    "report_to_json", "render_text",
]
