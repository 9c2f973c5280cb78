"""Audit tests: per-zero proposition checks, the factorization rest,
the eight-line verdict report, and its deterministic JSON rendering."""

from __future__ import annotations

import json
import math

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
from zetagb.errors import InconclusiveError, ParameterError
from zetagb.qfunction import q_gb
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

    # one Q per zero (reflection covers the conjugate), which reads the head
    # of Newton's last pass; II and VII are stated, so the audit evaluates
    # nothing else of its own
    assert calls.count(("audit_range", "audit_zero", "q_gb")) == len(report.zero_checks)
    assert passes_under("audit_zero") == 0
    assert not any(name in stack for stack in calls for name in ("q_variation", "consistency_identity"))
    assert calls.count(("audit_range", "zeta_gb")) == 0
    # one rectangle over the strip counts the window's zeros, and one scan finds them all
    assert calls.count(("audit_range", "rectangle_winding")) == 1
    assert calls.count(("audit_range", "scan_critical_line")) == 1


def test_audit_zero_reads_the_heads_of_the_scan(record_call_stacks) -> None:
    calls = record_call_stacks(("audit_zero", "dirichlet_partial_sum"))
    report = audit_range(0.0, 100.0)
    assert len(report.zero_checks) == 29
    assert calls.count(("audit_zero",)) == 29
    assert not any(stack[-1] == "dirichlet_partial_sum" and "audit_zero" in stack for stack in calls)


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


def test_an_off_line_pair_fails_verdict_three(monkeypatch) -> None:
    # two more zeros in the strip than on the line: an off-line pair rho, 1 - conj(rho)
    count = audit.rectangle_winding
    monkeypatch.setattr("zetagb.audit.rectangle_winding", lambda *args: (count(*args)[0] + 2, 0.0))
    report = audit_range(14.0, 22.0)
    assert report.complete
    assert report.strip_zeros == 4
    assert len(report.zero_checks) == 2
    assert _verdict(report, "III").split()[1] == "FAIL"
    assert "holds 4 zeros" in _verdict(report, "III")
    assert "the scan found 2 on the line" in _verdict(report, "III")
    assert sum(" FAIL " in line for line in report.verdict_lines) == 1


def test_a_short_sign_count_fails_after_the_recounts(monkeypatch) -> None:
    # a scan that drops its last zero is rescanned at half the step down to
    # step / 16, and III then fails on the short list
    steps: list[float] = []
    scan = audit.scan_critical_line

    def short(t_min, t_max, cfg, params):
        steps.append(cfg.step)
        return scan(t_min, t_max, cfg, params)[:-1]

    monkeypatch.setattr("zetagb.audit.scan_critical_line", short)
    report = audit_range(14.0, 22.0)
    assert steps == [0.25, 0.125, 0.0625, 0.03125, 0.015625]
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
