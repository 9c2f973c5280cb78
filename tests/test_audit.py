"""Audit tests: per-zero proposition checks, the factorization rest,
the eight-line verdict report, and its deterministic JSON rendering."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SAMPLE_BOX, SAMPLE_POINTS
from zetagb import audit, zero_scan
from zetagb.audit import (
    TOLERANCES,
    audit_range,
    audit_zero,
    factorization_check,
    q_variation,
    render_text,
    report_to_json,
)
from zetagb.errors import InconclusiveError, ParameterError, RefinementError
from zetagb.qfunction import consistency_identity, q_gb
from zetagb.zero_scan import ScanConfig, ZeroRecord, refine_zero
from zetagb.zeta_core import EvalParams, remainder_bound

FIRST_ORDINATE = 14.13472514172102
UNIT_ROUNDOFF = 2.0 ** -53


# ---------------------------------------------------------------------------
# factorization algebra
# ---------------------------------------------------------------------------


def test_factorization_deviation_equals_the_rest() -> None:
    s_h = complex(0.6, 21.0)
    q = complex(7.0, -3.0)
    rest = abs(q - s_h * (1 - s_h))
    dev = factorization_check(s_h, q, SAMPLE_POINTS[:50])
    assert abs(dev - rest) <= 1e-10 * (1.0 + abs(q))


@settings(max_examples=100, deadline=None)
@given(
    sh_re=st.floats(min_value=0.0, max_value=1.0),
    sh_im=st.floats(min_value=0.0, max_value=50.0),
    q_re=st.floats(min_value=-50.0, max_value=50.0),
    q_im=st.floats(min_value=-50.0, max_value=50.0),
)
def test_factorization_rest_is_constant_in_s(sh_re, sh_im, q_re, q_im) -> None:
    s_h = complex(sh_re, sh_im)
    q = complex(q_re, q_im)
    rest = abs(q - s_h * (1 - s_h))
    dev = factorization_check(s_h, q, SAMPLE_POINTS[:25])
    assert abs(dev - rest) <= 1e-10 * (1.0 + abs(q))


def test_factorization_rejects_empty_samples() -> None:
    for empty in ([], (), iter([])):
        with pytest.raises(ParameterError, match="must not be empty"):
            factorization_check(0.5 + 14j, 200 + 0j, empty)


def test_factorization_checks_every_sample() -> None:
    # any iterable of samples gives the same bits, and each sample is checked
    s_h, q = complex(0.5, 333.3), complex(0.25 + 333.3**2, 1e-9)
    dev = factorization_check(s_h, q, SAMPLE_POINTS)
    assert factorization_check(s_h, q, list(SAMPLE_POINTS)) == dev
    assert factorization_check(s_h, q, iter(SAMPLE_POINTS)) == dev
    with pytest.raises(ParameterError, match="sample must be a complex number, got 'x'"):
        factorization_check(s_h, q, [*SAMPLE_POINTS[:3], "x"])
    with pytest.raises(ParameterError, match="sample must have finite components"):
        factorization_check(s_h, q, [complex(1.0, math.inf)])


def test_sample_points_are_fixed_and_boxed() -> None:
    # the first point pins the recipe, random.Random(271828) drawing (sigma, t)
    assert isinstance(SAMPLE_POINTS, tuple)
    assert len(set(SAMPLE_POINTS)) == 100
    first = SAMPLE_POINTS[0]
    assert (first.real.hex(), first.imag.hex()) == ("0x1.6c46ffc147a40p+0", "0x1.7af1082b45940p+5")
    lo_s, hi_s, lo_t, hi_t = SAMPLE_BOX
    for s in SAMPLE_POINTS:
        assert lo_s <= s.real <= hi_s
        assert lo_t <= s.imag <= hi_t


# ---------------------------------------------------------------------------
# per-zero checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def first_zero() -> ZeroRecord:
    return refine_zero(complex(0.5, 14.1))


def test_audit_zero_passes_at_a_real_zero(first_zero) -> None:
    checks = audit_zero(first_zero)
    assert abs(first_zero.xi) <= TOLERANCES["xi"]
    assert checks.zero_residual_abs <= TOLERANCES["zero_residual"]
    s, t = first_zero.s, first_zero.t
    q = q_gb(s, first_zero.params_used)
    assert abs(q.imag) / abs(q) <= TOLERANCES["q_imag_rel"]
    assert abs(q - (0.25 + t * t)) <= TOLERANCES["q_vs_quarter_plus_t2"]
    assert abs(q - s * (1 - s)) <= TOLERANCES["zero_residual"]
    assert abs(s.conjugate() - (1 - s)) <= 2 * TOLERANCES["xi"]


def test_conj_relation_is_twice_xi(first_zero) -> None:
    s = first_zero.s
    assert abs(abs(s.conjugate() - (1 - s)) - 2.0 * abs(first_zero.xi)) <= 1e-12


def test_audit_zero_flags_an_off_line_record() -> None:
    params = EvalParams(64, 8)
    s = complex(0.6, FIRST_ORDINATE)
    fake = ZeroRecord(s=s, z_modulus=1e-11, q_value=q_gb(s, params), refine_iterations=3,
                      params_used=params)
    checks = audit_zero(fake)
    assert abs(fake.xi) == pytest.approx(0.1, abs=1e-12)
    assert abs(s.conjugate() - (1 - s)) == pytest.approx(2 * abs(fake.xi), abs=1e-12)
    assert checks.zero_residual_abs > 1.0


def test_audit_zero_rejects_a_non_record() -> None:
    with pytest.raises(ParameterError, match="ZeroRecord"):
        audit_zero("not a record")  # type: ignore[arg-type]
    # a hand-built record far above the cap: s(s - 1) overflows, and the
    # residual is refused rather than reported as inf
    far = ZeroRecord(s=complex(0.5, 1e200), z_modulus=0.0, q_value=0j, refine_iterations=0,
                     params_used=EvalParams(16, 2))
    with pytest.raises(ParameterError, match="zero_residual_abs must be a finite non-negative float"):
        audit_zero(far)


def test_q_variation_across_controls() -> None:
    params = EvalParams(8, 6)
    ((s2, q2), (s3, q3)) = q_variation([2 + 0j, 3 + 0j], params)
    assert (s2, s3) == (2 + 0j, 3 + 0j)
    assert (q2, q3) == (q_gb(2, params), q_gb(3, params))
    # acceptance check 10 pins |Q(2) - Q(3)| = 0.12523005928371228
    assert abs(q2 - q3) == pytest.approx(0.12523005928371228, rel=1e-12)
    with pytest.raises(ParameterError):
        q_variation(["x"], params)


# ---------------------------------------------------------------------------
# range audits and reports
# ---------------------------------------------------------------------------


def test_audit_range_over_the_first_window() -> None:
    report = audit_range(14.0, 15.0)
    assert report.complete
    assert report.abort_reason is None
    assert len(report.zero_checks) == 1
    assert report.strip_zeros == 1
    assert len(report.verdict_lines) == 8
    assert all(" PASS " in line for line in report.verdict_lines)
    assert [line.split()[0] for line in report.verdict_lines] == [
        "I", "II", "III", "IV", "V", "VI", "VII", "VIII",
    ]
    assert report.tolerances_used == TOLERANCES
    rec, checks = report.zero_checks[0]
    assert abs(rec.xi) <= TOLERANCES["xi"]
    assert set(vars(checks)) == {"zero_residual_abs"}


def test_audit_range_asks_each_question_once(record_call_stacks) -> None:
    calls = record_call_stacks(
        ("audit_range", "scan_critical_line", "refine_zero", "rectangle_winding",
         "audit_zero", "q_variation", "consistency_identity", "zeta_gb", "q_gb", "dirichlet_partial_sum")
    )
    report = audit.audit_range(0.0, 30.0)
    assert len(report.zero_checks) == 3

    def passes_under(name: str) -> int:
        return sum(1 for stack in calls if stack[-1] == "dirichlet_partial_sum" and name in stack)

    # one check per zero (reflection covers the conjugate), which reads the
    # record's Q; II and VII are stated, so the audit evaluates nothing of its own
    assert calls.count(("audit_range", "audit_zero")) == len(report.zero_checks)
    assert not any("q_gb" in stack for stack in calls if "audit_zero" in stack)
    assert passes_under("audit_zero") == 0
    assert not any(name in stack for stack in calls for name in ("q_variation", "consistency_identity"))
    assert calls.count(("audit_range", "zeta_gb")) == 0
    # one rectangle over the strip counts the window's zeros, and one scan finds them all
    assert calls.count(("audit_range", "rectangle_winding")) == 1
    assert calls.count(("audit_range", "scan_critical_line")) == 1


def test_audit_zero_reads_the_heads_of_the_scan(record_call_stacks) -> None:
    # each record's Q was built from the head of its polish pass, and the
    # audit reads that Q from the record: no Q and no pass of its own
    calls = record_call_stacks(("audit_zero", "q_gb", "dirichlet_partial_sum"))
    report = audit_range(0.0, 100.0)
    assert len(report.zero_checks) == 29
    assert calls.count(("audit_zero",)) == 29
    assert not any(len(stack) > 1 and stack[0] == "audit_zero" for stack in calls)
    for rec, checks in report.zero_checks:
        assert checks.zero_residual_abs == abs(rec.s * (rec.s - 1) + rec.q_value)


def test_audit_zero_judges_the_record_own_q(first_zero) -> None:
    # a record built by hand is judged on the Q it carries, as I judges its xi
    s = first_zero.s
    moved = ZeroRecord(s=s, z_modulus=first_zero.z_modulus, q_value=first_zero.q_value + 1.0,
                       refine_iterations=first_zero.refine_iterations, params_used=first_zero.params_used)
    assert audit_zero(moved).zero_residual_abs == abs(s * (s - 1) + moved.q_value)


def test_the_strip_winding_meets_its_target_at_its_worst_corner(monkeypatch) -> None:
    # without explicit params, the winding's params bound the truncation by
    # 1e-9 on the rectangle's left side, sigma = -1, not only on the critical
    # line. They serve only nodes whose sample is not certified, so no sample
    # is certified here and every node of the winding takes the exact pass:
    # the rectangle [-1, 2] x [495, 499] is symmetric about the line, so the
    # 14 base nodes of its right half, whose side at sigma = 2 is one step.
    winding_params = []
    winding = audit.rectangle_winding
    evaluate = zero_scan.zeta_gb
    inside = []

    def count(*args):
        inside.append(True)
        try:
            return winding(*args)
        finally:
            inside.pop()

    def record(s, params, **kwargs):
        if inside:
            winding_params.append(params)
        return evaluate(s, params, **kwargs)

    monkeypatch.setattr(audit, "rectangle_winding", count)
    monkeypatch.setattr(zero_scan, "zeta_gb", record)
    monkeypatch.setattr(zero_scan, "_SAMPLE_MARGIN", math.inf)
    report = audit_range(495.0, 499.0)
    assert report.strip_zeros == len(report.zero_checks) == 3
    (params,) = set(winding_params)
    assert len(winding_params) == 14
    assert params == EvalParams(141, 23)  # picked at (-1, 499)
    assert remainder_bound(complex(-1.0, 499.0), params.cutoff_n, params.tail_order) <= 1e-9
    # explicit params are the winding's params too
    winding_params.clear()
    explicit = EvalParams(1000, 4)
    audit_range(495.0, 499.0, params=explicit)
    assert set(winding_params) == {explicit}


def test_audit_range_with_no_zeros_is_vacuously_complete() -> None:
    report = audit_range(1.0, 3.0)
    assert report.complete
    assert report.zero_checks == ()
    assert report.strip_zeros == 0
    assert any("vacuous" in line for line in report.verdict_lines)
    assert not any(" FAIL " in line for line in report.verdict_lines)


def test_a_thin_window_is_counted() -> None:
    # the rectangle's floor is t = 0.1, so any window reaching above it is counted
    report = audit_range(14.0, 14.2)
    assert report.complete
    assert report.strip_zeros == len(report.zero_checks) == 1
    assert _verdict(report, "III").split()[1] == "PASS"
    assert "holds 1 zeros; the scan found 1 on the line" in _verdict(report, "III")
    # a window below the floor holds no rectangle, and III stays vacuous
    report = audit_range(0.0, 0.05)
    assert report.complete
    assert report.strip_zeros is None
    assert _verdict(report, "III").split()[1:3] == ["PASS", "vacuous,"]


def test_each_kept_record_is_audited_once(record_call_stacks) -> None:
    # the 0.5 grid loses 415.0188 and 415.4552, so the window is scanned
    # again; only the records of the last scan are audited
    calls = record_call_stacks(("scan_critical_line", "audit_zero"))
    report = audit_range(410.0, 417.0, ScanConfig(step=0.5))
    assert sum(stack[-1] == "scan_critical_line" for stack in calls) == 2
    assert report.strip_zeros == len(report.zero_checks) == 5
    assert sum(stack[-1] == "audit_zero" for stack in calls) == 5


def test_an_aborted_rescan_keeps_the_audited_records_of_the_last_scan(monkeypatch) -> None:
    # a first scan that drops its last zero is followed by a rescan that fails
    scan = audit.scan_critical_line
    steps: list[float] = []

    def short_then_failing(t_min, t_max, cfg, params):
        steps.append(cfg.step)
        if len(steps) > 1:
            raise RefinementError("rescan failed")
        return scan(t_min, t_max, cfg, params)[:-1]

    monkeypatch.setattr("zetagb.audit.scan_critical_line", short_then_failing)
    report = audit_range(14.0, 22.0)
    assert steps == [0.25, 0.125]
    assert not report.complete
    assert report.abort_reason == "RefinementError: rescan failed"
    assert report.strip_zeros == 2
    assert [round(rec.t, 4) for rec, _ in report.zero_checks] == [14.1347]
    assert report.zero_checks[0][1] == audit_zero(report.zero_checks[0][0])


def test_winding_abort_keeps_one_vacuous_rule(monkeypatch) -> None:
    def abort(*args, **kwargs):
        raise InconclusiveError("winding count aborted")

    monkeypatch.setattr("zetagb.audit.rectangle_winding", abort)
    report = audit_range(0.5, 10.0)
    assert not report.complete
    assert report.zero_checks == ()
    # the scan finished, so "no zeros" is measured: all six per-zero verdicts pass
    per_zero = [line.split() for line in report.verdict_lines]
    per_zero = [words[1] for words in per_zero if words[0] in ("I", "IV", "V", "VI", "VII", "VIII")]
    assert per_zero == ["PASS"] * 6


def _verdict(report, numeral: str) -> str:
    return next(line for line in report.verdict_lines if line.split()[0] == numeral)


def _checked_zero(xi: float, t: float, residual: float):
    # a hand-built record and its checks; _verdicts reads only xi, t and the residual
    rec = ZeroRecord(s=complex(0.5 + xi, t), z_modulus=0.0, q_value=0j, refine_iterations=1,
                     params_used=EvalParams(30, 5))
    return rec, audit.PropositionChecks(zero_residual_abs=residual)


_ON_LINE = _checked_zero(0.0, 14.134725141734695, 2.5e-9)
_II_PASS = "II   PASS consistency identity Z = s N^(1-s) (1/(s(s-1)) + 1/Q): stated, Q is built from Z's head and tail"
_NO_ZEROS = {
    "I": "I    PASS vacuous, no zeros in range (measured |xi| at each zero)",
    "IV": "IV   PASS vacuous, no zeros in range (|s(s-1) + Q|)",
    "V": "V    PASS vacuous, no zeros in range (Q realness)",
    "VI": "VI   PASS vacuous, no zeros in range (division rest |Q - s(1-s)| = |s(s-1) + Q| (IV))",
    "VII": "VII  PASS vacuous, no zeros in range (factorization deviation = |s_H(s_H - 1) + Q| at every s (IV))",
    "VIII": "VIII PASS vacuous, no zeros in range (|conj(s) - (1 - s)| = 2|xi| (I))",
}
_ON_LINE_LINES = {
    "I": "I    PASS measured |xi| at each zero: max 0.000e+00 vs tolerance 1.0e-06",
    "IV": "IV   PASS |s(s-1) + Q|: max 2.500e-09 vs tolerance 1.0e-04",
    "V": "V    PASS from I and IV: Q realness <= 1.250e-11 vs 1.0e-06; |Q - (1/4 + t^2)| <= 2.500e-09 vs 1.0e-04",
    "VI": "VI   PASS division rest |Q - s(1-s)| = |s(s-1) + Q| (IV): max 2.500e-09 vs tolerance 1.0e-04",
    "VII": "VII  PASS factorization deviation = |s_H(s_H - 1) + Q| at every s (IV): max 2.500e-09 vs tolerance 1.0e-04",
    "VIII": "VIII PASS |conj(s) - (1 - s)| = 2|xi| (I): max 0.000e+00 vs tolerance 2.0e-06",
}


def _eight(per_zero: dict[str, str], iii: str, ii: str = _II_PASS) -> list[str]:
    lines = {**per_zero, "II": ii, "III": iii}
    return [lines[numeral] for numeral in ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")]


_VERDICT_TEXT = {
    "no zeros, thin window": (
        ((), True, None, None),
        _eight(_NO_ZEROS, "III  PASS vacuous, window too thin for winding counts"),
    ),
    "no zeros, counted": (
        ((), True, 0, None),
        _eight(_NO_ZEROS, "III  PASS strip [-1.0, 2.0] holds 0 zeros; the scan found 0 on the line"),
    ),
    "abort before the scan": (
        ((), False, None, "RefinementError: failed"),
        ["I    SKIP audit aborted before this check",
         "II   SKIP audit aborted before this check",
         "III  SKIP vacuous, audit aborted before the winding counts",
         "IV   SKIP audit aborted before this check",
         "V    SKIP audit aborted before this check",
         "VI   SKIP audit aborted before this check",
         "VII  SKIP audit aborted before this check",
         "VIII SKIP audit aborted before this check"],
    ),
    "abort after the scan, no zeros": (
        ((), True, None, "InconclusiveError: failed"),
        _eight(_NO_ZEROS, "III  SKIP vacuous, audit aborted before the winding counts"),
    ),
    "abort after the scan": (
        ((_ON_LINE,), True, None, "InconclusiveError: failed"),
        _eight(_ON_LINE_LINES, "III  SKIP vacuous, audit aborted before the winding counts"),
    ),
    "a zero 2e-6 off the line": (
        ((_ON_LINE, _checked_zero(2e-6, 21.022039638771555, 3.0e-8)), True, 2, None),
        ["I    FAIL measured |xi| at each zero: max 2.000e-06 vs tolerance 1.0e-06",
         _II_PASS,
         "III  PASS strip [-1.0, 2.0] holds 2 zeros; the scan found 2 on the line",
         "IV   PASS |s(s-1) + Q|: max 3.000e-08 vs tolerance 1.0e-04",
         "V    PASS from I and IV: Q realness <= 1.902e-07 vs 1.0e-06; |Q - (1/4 + t^2)| <= 8.412e-05 vs 1.0e-04",
         "VI   PASS division rest |Q - s(1-s)| = |s(s-1) + Q| (IV): max 3.000e-08 vs tolerance 1.0e-04",
         "VII  PASS factorization deviation = |s_H(s_H - 1) + Q| at every s (IV): max 3.000e-08 vs tolerance 1.0e-04",
         "VIII FAIL |conj(s) - (1 - s)| = 2|xi| (I): max 4.000e-06 vs tolerance 2.0e-06"],
    ),
    "a residual of 1e-3": (
        ((_checked_zero(0.0, 25.01085758014569, 1e-3),), True, 1, None),
        ["I    PASS measured |xi| at each zero: max 0.000e+00 vs tolerance 1.0e-06",
         _II_PASS,
         "III  PASS strip [-1.0, 2.0] holds 1 zeros; the scan found 1 on the line",
         "IV   FAIL |s(s-1) + Q|: max 1.000e-03 vs tolerance 1.0e-04",
         "V    FAIL from I and IV: Q realness <= 1.598e-06 vs 1.0e-06; |Q - (1/4 + t^2)| <= 1.000e-03 vs 1.0e-04",
         "VI   FAIL division rest |Q - s(1-s)| = |s(s-1) + Q| (IV): max 1.000e-03 vs tolerance 1.0e-04",
         "VII  FAIL factorization deviation = |s_H(s_H - 1) + Q| at every s (IV): max 1.000e-03 vs tolerance 1.0e-04",
         "VIII PASS |conj(s) - (1 - s)| = 2|xi| (I): max 0.000e+00 vs tolerance 2.0e-06"],
    ),
    "a residual above 1/4 + t^2": (
        ((_checked_zero(0.0, 1.0, 2.0),), True, 1, None),
        ["I    PASS measured |xi| at each zero: max 0.000e+00 vs tolerance 1.0e-06",
         _II_PASS,
         "III  PASS strip [-1.0, 2.0] holds 1 zeros; the scan found 1 on the line",
         "IV   FAIL |s(s-1) + Q|: max 2.000e+00 vs tolerance 1.0e-04",
         "V    FAIL from I and IV: Q realness <= inf vs 1.0e-06; |Q - (1/4 + t^2)| <= 2.000e+00 vs 1.0e-04",
         "VI   FAIL division rest |Q - s(1-s)| = |s(s-1) + Q| (IV): max 2.000e+00 vs tolerance 1.0e-04",
         "VII  FAIL factorization deviation = |s_H(s_H - 1) + Q| at every s (IV): max 2.000e+00 vs tolerance 1.0e-04",
         "VIII PASS |conj(s) - (1 - s)| = 2|xi| (I): max 0.000e+00 vs tolerance 2.0e-06"],
    ),
    "a III mismatch": (
        ((_ON_LINE,), True, 3, None),
        _eight(_ON_LINE_LINES, "III  FAIL strip [-1.0, 2.0] holds 3 zeros; the scan found 1 on the line"),
    ),
}


@pytest.mark.parametrize("case", sorted(_VERDICT_TEXT))
def test_the_verdict_lines_keep_their_text(case: str) -> None:
    # the goldens reach only PASS and SKIP lines; these pin every line's
    # bytes, FAIL lines and V's inf bound included
    args, expected = _VERDICT_TEXT[case]
    assert list(audit._verdicts(*args)) == expected


def test_an_off_line_pair_fails_verdict_three(monkeypatch, record_call_stacks) -> None:
    # two more zeros in the strip than on the line: an off-line pair rho,
    # 1 - conj(rho), which the one rescan at half the step cannot find either
    count = audit.rectangle_winding
    monkeypatch.setattr("zetagb.audit.rectangle_winding", lambda *args: (count(*args)[0] + 2, 0.0))
    calls = record_call_stacks(("scan_critical_line",))
    report = audit_range(14.0, 22.0)
    assert len(calls) == 2
    assert report.complete
    assert report.strip_zeros == 4
    assert len(report.zero_checks) == 2
    assert _verdict(report, "III").split()[1] == "FAIL"
    assert "holds 4 zeros" in _verdict(report, "III")
    assert "the scan found 2 on the line" in _verdict(report, "III")
    assert sum(" FAIL " in line for line in report.verdict_lines) == 1


def test_a_planted_off_line_pair_fails_only_the_verdicts_that_read_xi(monkeypatch) -> None:
    # the paper's counter-hypothesis, planted in the sum: zeta h, with
    # h(s) = (s - rho)(s - 1 + conj rho) / (s - c)^2 as in
    # test_an_off_line_pair_counts_in_both_walks, vanishes at rho and
    # 1 - conj rho. Q_f is taken from II's identity on the stubbed Z, so
    # s(s - 1) + Q_f = 0 at every zero of the sum, on the line or off it:
    # IV, VI and VII pass, II is stated, and only I and what is read from
    # it, V and VIII, see the pair. III is handed the pair as if the line
    # scan had found it; test_an_off_line_pair_fails_verdict_three fails it
    rho, c = complex(0.8, 253.0), complex(0.5, 260.0)
    evaluate = zero_scan.zeta_gb

    def h(s: complex) -> complex:
        return (s - rho) * (s - 1 + rho.conjugate()) / (s - c) ** 2

    def stubbed(s: complex, params: EvalParams, *, derivative: bool = False) -> SimpleNamespace:
        result = evaluate(s, params, derivative=derivative)
        slope = None
        if derivative:
            dh = (2 * s - 1 - rho + rho.conjugate() - 2 * h(s) * (s - c)) / (s - c) ** 2
            slope = result.derivative * h(s) + result.value * dh
        return SimpleNamespace(value=result.value * h(s), derivative=slope)

    def q_f(s: complex, params: EvalParams) -> complex:
        # Z = s N^(1-s) (1/(s(s-1)) + 1/Q) solved for Q
        return 1 / (stubbed(s, params).value / (s * params.cutoff_n ** (1 - s)) - 1 / (s * (s - 1)))

    def stubbed_pass(s: complex, params: EvalParams, derivative: bool = False) -> tuple:
        # the stub's pass hands Q its params for parts, and each record's Q is Q_f
        result = stubbed(s, params, derivative=derivative)
        return result.value, result.derivative, params

    monkeypatch.setattr(zero_scan, "_pass", stubbed_pass)
    monkeypatch.setattr(zero_scan, "_q", q_f)
    records = [refine_zero(seed) for seed in (complex(0.79, 253.01), complex(0.21, 252.99))]
    for rec, zero in zip(records, (rho, 1 - rho.conjugate())):
        assert abs(rec.s - zero) <= 1e-9
        params = rec.params_used
        assert consistency_identity(rec.s, stubbed(rec.s, params).value, rec.q_value, params) <= 1e-9
    checks = tuple((rec, audit_zero(rec)) for rec in records)
    assert max(c.zero_residual_abs for _, c in checks) <= 1e-10
    lines = audit._verdicts(checks, True, 2, None)
    assert {line.split()[0]: line.split()[1] for line in lines} == {
        "I": "FAIL", "II": "PASS", "III": "PASS", "IV": "PASS",
        "V": "FAIL", "VI": "PASS", "VII": "PASS", "VIII": "FAIL"}
    assert "max 3.000e-01" in lines[0]


def test_a_short_sign_count_fails_after_one_rescan(monkeypatch) -> None:
    # a scan that drops its last zero is rescanned once, at half the step,
    # and III then fails on the short list
    steps: list[float] = []
    scan = audit.scan_critical_line

    def short(t_min, t_max, cfg, params):
        steps.append(cfg.step)
        return scan(t_min, t_max, cfg, params)[:-1]

    monkeypatch.setattr("zetagb.audit.scan_critical_line", short)
    report = audit_range(14.0, 22.0)
    assert steps == [0.25, 0.125]
    assert report.strip_zeros == 2
    assert len(report.zero_checks) == 1
    assert "holds 2 zeros" in _verdict(report, "III")
    assert "the scan found 1 on the line" in _verdict(report, "III")
    assert _verdict(report, "III").split()[1] == "FAIL"


def test_a_coarse_grid_recounts_at_half_the_step() -> None:
    # the zeros at 415.0188 and 415.4552 share one cell of the 0.5 grid
    report = audit_range(415.0, 417.0, ScanConfig(step=0.5))
    assert report.strip_zeros == 2
    assert [round(rec.t, 4) for rec, _ in report.zero_checks] == [415.0188, 415.4552]
    assert _verdict(report, "III").split()[1] == "PASS"


def test_a_coarse_bracket_is_audited_in_one_scan(record_call_stacks) -> None:
    # at step 0.5 the grid-node seed lost 333.6454 to its neighbour 334.2114,
    # which took a second scan and a third audit_zero; the regula-falsi seed
    # keeps both zeros in the first scan
    calls = record_call_stacks(("scan_critical_line", "audit_zero"))
    report = audit_range(333.0, 335.0, ScanConfig(step=0.5))
    assert sum(stack[-1] == "scan_critical_line" for stack in calls) == 1
    assert sum(stack[-1] == "audit_zero" for stack in calls) == 2
    assert report.complete
    assert report.strip_zeros == 2
    assert [round(rec.t, 4) for rec, _ in report.zero_checks] == [333.6454, 334.2114]
    assert _verdict(report, "III").split()[1] == "PASS"
    assert "holds 2 zeros; the scan found 2 on the line" in _verdict(report, "III")


def test_every_zero_near_the_cap_is_audited() -> None:
    # the modulus gate of the earlier scan missed 498.5808 here
    report = audit_range(493.0, 499.0)
    assert report.strip_zeros == 5
    assert len(report.zero_checks) == 5
    assert round(report.zero_checks[-1][0].t, 4) == 498.5808
    assert _verdict(report, "III").split()[1] == "PASS"


@pytest.fixture(scope="module")
def supported_range_report():
    return audit_range(0.0, 499.0)


def test_the_supported_range_passes_all_eight_verdicts(supported_range_report) -> None:
    # without the polish step IV-VI failed from t = 250 on (2.9e-3 against
    # 1e-4), flipping with where Newton's last step below tol landed
    report = supported_range_report
    assert report.complete
    assert report.strip_zeros == len(report.zero_checks) == 269
    assert [line.split()[1] for line in report.verdict_lines] == ["PASS"] * 8
    assert max(c.zero_residual_abs for _, c in report.zero_checks) <= 1e-5


def test_six_and_eight_read_identities_of_four_and_one(supported_range_report) -> None:
    # VI's division rest is IV's residual bit for bit, and VIII's conjugate
    # relation is twice I's offset up to one rounding of 1 - Re s
    report = supported_range_report
    assert len(report.zero_checks) == 269
    for rec, c in report.zero_checks:
        s = rec.s
        q = q_gb(s, report.params_used)
        assert abs(q - s * (1 - s)) == abs(s * (s - 1) + q) == c.zero_residual_abs
        assert abs(abs(s.conjugate() - (1 - s)) - 2 * abs(rec.xi)) <= 1.2e-16


def test_seven_reads_four_and_two_is_stated(supported_range_report) -> None:
    # VII's factorization deviation, measured here over the fixed points, is
    # IV's residual up to rounding at every zero, so VII reports IV's maximum
    report = supported_range_report
    for rec, c in report.zero_checks:
        q = q_gb(rec.s, rec.params_used)
        gap = abs(factorization_check(rec.s, q, SAMPLE_POINTS) - c.zero_residual_abs)
        assert gap <= 1e-10 * (1.0 + abs(q))
    worst = max(c.zero_residual_abs for _, c in report.zero_checks)
    assert f"max {worst:.3e} vs tolerance" in _verdict(report, "IV")
    assert f"max {worst:.3e} vs tolerance" in _verdict(report, "VII")
    assert "stated, Q is built from Z's head and tail" in _verdict(report, "II")


def _derived_v_bounds(rec, c) -> tuple[float, float]:
    # Q = 1/4 + t^2 - xi^2 - 2i xi t up to IV's residual: the bounds on
    # |Im Q|/|Q| and |Q - (1/4 + t^2)| that V states from I and IV
    xi, t, res = abs(rec.xi), rec.t, c.zero_residual_abs
    quarter = xi * xi + 2 * xi * t + res
    return (2 * xi * t + res) / (0.25 + t * t - quarter), quarter


def test_derived_v_dominates_the_measurement(supported_range_report) -> None:
    # the measured realness and distance from 1/4 + t^2 never exceed what V
    # states, up to one rounding of Q - (1/4 + t^2) (2.1e-3 of it at most)
    report = supported_range_report
    assert len(report.zero_checks) == 269
    worst_imag = worst_quarter = 0.0
    for rec, c in report.zero_checks:
        q = q_gb(rec.s, rec.params_used)
        scale = 0.25 + rec.t * rec.t
        imag, quarter = _derived_v_bounds(rec, c)
        assert abs(q.imag) / abs(q) <= imag + UNIT_ROUNDOFF
        assert abs(q - scale) <= quarter + UNIT_ROUNDOFF * scale
        worst_imag, worst_quarter = max(worst_imag, imag), max(worst_quarter, quarter)
    assert worst_imag <= TOLERANCES["q_imag_rel"]
    assert worst_quarter <= TOLERANCES["q_vs_quarter_plus_t2"]
    assert f"Q realness <= {worst_imag:.3e}" in _verdict(report, "V")
    assert f"|Q - (1/4 + t^2)| <= {worst_quarter:.3e}" in _verdict(report, "V")


def _audit_with_moved_record(monkeypatch, t_min: float, t_max: float, near: float, move):
    # the real scan, with the record nearest ``near`` moved to ``move(s)`` and
    # its Q evaluated again at the moved point under its own params
    scan = audit.scan_critical_line

    def moved(*args):
        records = scan(*args)
        i = min(range(len(records)), key=lambda k: abs(records[k].t - near))
        rec = records[i]
        s = move(rec.s)
        records[i] = ZeroRecord(s=s, z_modulus=rec.z_modulus, q_value=q_gb(s, rec.params_used),
                                refine_iterations=rec.refine_iterations, params_used=rec.params_used)
        return records

    monkeypatch.setattr("zetagb.audit.scan_critical_line", moved)
    return audit_range(t_min, t_max)


def test_derived_verdicts_follow_their_source(monkeypatch) -> None:
    # a zero near the cap moved by 1e-9 in t: IV, V, VI and VII fail alike
    report = _audit_with_moved_record(monkeypatch, 493.0, 499.0, 498.58, lambda s: s + 1e-9j)
    status = {numeral: _verdict(report, numeral).split()[1] for numeral in ("I", "IV", "V", "VI", "VII", "VIII")}
    assert status == {"I": "PASS", "IV": "FAIL", "V": "FAIL", "VI": "FAIL", "VII": "FAIL", "VIII": "PASS"}
    worst = max(c.zero_residual_abs for _, c in report.zero_checks)
    assert worst == pytest.approx(8.3e-2, rel=0.05)
    for numeral in ("IV", "VI", "VII"):
        assert f"max {worst:.3e}" in _verdict(report, numeral)
    # a zero moved 2e-6 off the line: I and VIII fail together, and with them
    # IV (its residual 1.16e-3) and so V
    report = _audit_with_moved_record(monkeypatch, 14.0, 15.0, 14.13, lambda s: complex(0.5 + 2e-6, s.imag))
    rec, c = report.zero_checks[0]
    xi = abs(rec.xi)
    assert xi == pytest.approx(2e-6, rel=1e-9)
    assert c.zero_residual_abs == pytest.approx(1.16e-3, rel=0.01)
    assert _verdict(report, "I").split()[1] == _verdict(report, "VIII").split()[1] == "FAIL"
    assert _verdict(report, "IV").split()[1] == _verdict(report, "V").split()[1] == "FAIL"
    assert f"max {2 * xi:.3e}" in _verdict(report, "VIII")


def test_audit_range_aborts_to_a_partial_report() -> None:
    cfg = ScanConfig(step=0.5, max_iter=1, strict_refine=True)
    report = audit_range(14.0, 15.0, cfg)
    assert not report.complete
    assert "RefinementError" in (report.abort_reason or "")
    assert len(report.verdict_lines) == 8
    assert all(" SKIP " in line for line in report.verdict_lines)
    assert "INCOMPLETE" in render_text(report)


def test_an_audit_recount_above_the_node_cap_is_refused(monkeypatch) -> None:
    # the cap covers every recount: with it at 40 nodes, the 33-node scan of
    # 14..22 runs, and the 65-node recount at step 0.125 is refused
    scan = audit.scan_critical_line
    steps: list[float] = []

    def short(t_min, t_max, cfg, params):
        steps.append(cfg.step)
        return scan(t_min, t_max, cfg, params)[:-1]

    monkeypatch.setattr("zetagb.audit.scan_critical_line", short)
    monkeypatch.setattr(zero_scan, "_MAX_GRID_NODES", 40)
    with pytest.raises(ParameterError, match=r"step 0.125 over \[14.0, 22.0\] asks for more than 40 grid nodes"):
        audit_range(14.0, 22.0)
    assert steps == [0.25, 0.125]


def test_audit_range_validation() -> None:
    with pytest.raises(ParameterError):
        audit_range(-1.0, 5.0)
    with pytest.raises(ParameterError):
        audit_range(5.0, 5.0)
    with pytest.raises(TypeError):
        audit_range(1.0, 3.0, seed=7)  # type: ignore[call-arg]
    with pytest.raises(ParameterError, match="ScanConfig"):
        audit_range(0.0, 5.0, {"step": 0.5})  # type: ignore[arg-type]
    with pytest.raises(ParameterError, match="EvalParams"):
        audit_range(0.0, 5.0, params=(30, 5))  # type: ignore[arg-type]


def test_report_json_is_deterministic_and_round_trips() -> None:
    first = report_to_json(audit_range(14.0, 15.0))
    second = report_to_json(audit_range(14.0, 15.0))
    assert first == second
    payload = json.loads(first)
    assert payload["schema_version"] == "7"
    assert not {"sample_seed", "q_variation", "consistency_controls"} & set(payload)
    assert sorted(payload["tolerances"]) == ["q_imag_rel", "q_vs_quarter_plus_t2", "xi", "zero_residual"]
    assert sorted(payload["zeros"][0]["checks"]) == ["zero_residual_abs"]
    assert payload["strip_zeros"] == 1
    assert payload["complete"] is True
    assert len(payload["verdicts"]) == 8
    assert payload["params"]["N"] >= 2
    from zetagb.serialize import dumps

    assert dumps(payload, indent=2) + "\n" == first


def test_render_text_mentions_the_verdicts() -> None:
    report = audit_range(14.0, 15.0)
    text = render_text(report)
    assert "verdicts:" in text
    assert "zeros found: 1" in text
