"""Scanner, refinement, winding-count, and persistence tests.

The frozen ordinates below come from tests/oracles.py
(bisect_modulus_zero on the brackets (14, 14.3), (20.9, 21.2),
(24.9, 25.2) with the transcribed evaluator at cutoff 200, order 15);
the oracle itself is validated against mpmath in test_oracles.py.
"""

from __future__ import annotations

import cmath
import itertools
import json
import logging
import math
import random

import mpmath
import pytest

import oracles
from zetagb import qfunction, zero_scan, zeta_core
from zetagb.audit import audit_range
from zetagb.cli import run
from zetagb.errors import BoundaryError, InconclusiveError, ParameterError, RefinementError
from zetagb.zero_scan import (
    RECORD_FIELDS,
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
from zetagb.zeta_core import EvalParams, auto_params, remainder_bound, zeta_gb

ORACLE_ORDINATES = (14.13472514172102, 21.02203963877902, 25.010857580131244)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_from_on_line_seed() -> None:
    rec = refine_zero(complex(0.5, 14.1))
    assert abs(rec.t - ORACLE_ORDINATES[0]) <= 1e-8
    assert abs(rec.xi) <= 1e-6
    assert rec.z_modulus <= 1e-9
    assert rec.refine_iterations >= 1


def test_refine_from_off_line_seeds() -> None:
    for sigma in (0.3, 0.7):
        rec = refine_zero(complex(sigma, 14.1))
        assert abs(rec.t - ORACLE_ORDINATES[0]) <= 1e-8
        assert abs(rec.xi) <= 1e-6


def test_refine_canonicalizes_conjugate_seeds() -> None:
    rec = refine_zero(complex(0.5, -14.1))
    assert rec.t > 0
    assert abs(rec.t - ORACLE_ORDINATES[0]) <= 1e-8
    assert rec.s.imag == rec.t


def test_refine_evaluates_once_per_newton_point(monkeypatch, record_call_stacks) -> None:
    passes: list[tuple[complex, bool]] = []
    summed = zeta_core.dirichlet_partial_sum
    monkeypatch.setattr(
        zeta_core,
        "dirichlet_partial_sum",
        lambda s, cutoff_n, *, derivative=False: passes.append((s, derivative))
        or summed(s, cutoff_n, derivative=derivative),
    )
    calls = record_call_stacks(("zeta_gb", "q_gb", "em_tail"))
    # the seed and each Newton step make one Dirichlet pass each, together
    # with its derivative; the polish point, counted in refine_iterations,
    # makes one value-only pass, and Q at the kept point is built from its
    # parts, so Q makes no pass and no em_tail call
    rec = refine_zero(complex(0.5, 14.1))
    assert rec.refine_iterations >= 2
    assert len([s for s, derivative in passes if derivative]) == rec.refine_iterations
    assert [s for s, derivative in passes if not derivative] == [rec.s]
    assert calls == []
    # a conjugated iterate is not evaluated again: reflection keeps |Z|, and
    # Q there is the conjugate of Q built from the polish's parts
    passes.clear()
    rec = refine_zero(complex(0.5, -14.1))
    assert len([s for s, derivative in passes if derivative]) == rec.refine_iterations
    assert [s for s, derivative in passes if not derivative] == [rec.s.conjugate()]
    assert calls == []
    assert rec.z_modulus == abs(zeta_core.zeta_gb(rec.s, rec.params_used).value)


def _same_q(records: list[ZeroRecord]) -> None:
    for rec in records:
        q = qfunction.q_gb(rec.s, rec.params_used)
        assert (rec.q_value.real.hex(), rec.q_value.imag.hex()) == (q.real.hex(), q.imag.hex()), rec.t


def test_a_record_holds_the_bits_of_q_gb_at_its_zero(monkeypatch) -> None:
    # Q at a kept polish, at the last Newton point where the polish is not
    # kept, and at a zero refined from a lower-half seed, is q_gb bit for bit
    seeds = (complex(0.5, -14.1), complex(0.5, -251.0))
    records = scan_critical_line(0, 100) + [refine_zero(seed) for seed in seeds]
    assert len(records) == 31
    _same_q(records)
    # value-only passes, the polish's, report a value above tol with their
    # parts unchanged, so no polish is kept
    evaluate = zero_scan._pass
    polishes: list[complex] = []

    def unkept(s: complex, params: EvalParams, derivative: bool = False) -> tuple:
        value, slope, parts = evaluate(s, params, derivative)
        if not derivative:
            polishes.append(s)
            value = complex(1.0, 0.0)
        return value, slope, parts

    monkeypatch.setattr(zero_scan, "_pass", unkept)
    records = scan_critical_line(0, 30) + [refine_zero(seed) for seed in seeds]
    assert len(records) == len(polishes) == 5
    for rec, polish in zip(records, polishes):
        assert rec.s not in (polish, polish.conjugate())
        assert rec.z_modulus == abs(zeta_gb(rec.s, rec.params_used).value)
    assert [rec.t > 250 for rec in records] == [False] * 4 + [True]
    _same_q(records)


def test_refine_rejects_seeds_outside_the_strip() -> None:
    with pytest.raises(ParameterError):
        refine_zero(complex(1.5, 14.0))
    with pytest.raises(ParameterError):
        refine_zero(complex(-0.2, 14.0))


def test_refine_reports_divergence() -> None:
    # far from any zero the iteration wanders out of the strip
    with pytest.raises(RefinementError, match="iteration left the critical strip"):
        refine_zero(complex(0.5, 2.0))


def test_refine_reports_iteration_exhaustion() -> None:
    with pytest.raises(RefinementError, match="no convergence"):
        refine_zero(complex(0.5, 14.25), max_iter=1)


@pytest.mark.parametrize(("value", "slope", "message"), (
    (lambda z: 1.0, lambda z: 0.0, r"derivative degenerated at \(0\.5\+14\.1j\)$"),
    (lambda z: 1.0, lambda z: 1e20,
     r"stalled at \(0\.5\+14\.1j\): step 1\.000e-20 below floor with \|Z\| = 1\.000e\+00$"),
    (lambda z: z - 0.5, lambda z: 1.0, r"refinement landed on the real axis at \(0\.5\+0j\)$"),
))
def test_refine_reports_each_degenerate_iteration(monkeypatch, value, slope, message: str) -> None:
    # Newton on stand-ins for zeta: a constant with slope 0; a constant so
    # steep that the step falls below 1e-12; and z - 1/2, whose zero lies on
    # the real axis, where one step from 1/2 + 14.1i lands exactly
    monkeypatch.setattr(
        zero_scan,
        "_pass",
        lambda z, params, derivative=False: (complex(value(z)), complex(slope(z)) if derivative else None, None),
    )
    with pytest.raises(RefinementError, match=message):
        refine_zero(complex(0.5, 14.1), params=EvalParams(40, 9))


def test_refine_validation() -> None:
    with pytest.raises(ParameterError, match="tol must be at least"):
        refine_zero(complex(0.5, 14.1), tol=1e-11)
    with pytest.raises(ParameterError, match="max_iter must be a positive integer"):
        refine_zero(complex(0.5, 14.1), max_iter=0)
    with pytest.raises(ParameterError, match="EvalParams"):  # it raised AttributeError
        refine_zero(complex(0.5, 14.1), params=(30, 5))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------


def test_scan_finds_the_classical_ordinates() -> None:
    records = scan_critical_line(0.0, 30.0, ScanConfig(step=0.25, tol=1e-9))
    assert len(records) == 3
    for rec, ref in zip(records, ORACLE_ORDINATES):
        assert abs(rec.t - ref) <= 1e-8
        assert abs(rec.xi) <= 1e-6
        assert rec.z_modulus <= 1e-9


def test_scan_is_empty_below_the_first_zero() -> None:
    assert scan_critical_line(0.0, 5.0) == []


def test_scan_results_are_strictly_interior() -> None:
    # the first zero refines to just above this t_max and must be dropped
    assert scan_critical_line(14.0, 14.134725) == []


def test_scan_is_deterministic() -> None:
    a = scan_critical_line(14.0, 15.0)
    b = scan_critical_line(14.0, 15.0)
    assert a == b
    assert len(a) == 1


# One Newton step from the seed that a 0.5 grid gives leaves |Z| near 5e-7, far above
# tol; on the default grid the interpolated seed needs only one step and converges.
def test_scan_skips_failed_refinements_by_default(caplog) -> None:
    with caplog.at_level(logging.WARNING, logger="zetagb.zero_scan"):
        records = scan_critical_line(14.0, 15.0, ScanConfig(step=0.5, max_iter=1))
    assert records == []
    assert "failed to refine" in caplog.text


def test_scan_strict_mode_raises_instead() -> None:
    with pytest.raises(RefinementError):
        scan_critical_line(14.0, 15.0, ScanConfig(step=0.5, max_iter=1, strict_refine=True))


@pytest.fixture
def kernel_calls(monkeypatch) -> list[tuple[list[complex], EvalParams, list[complex]]]:
    """(nodes, params, values) of every finisher call a walk makes.

    Only walks reach ``zero_scan._finish``: each exact pass calls
    ``zeta_core``'s own binding, which this leaves alone.
    """
    calls = []
    finish = zero_scan._finish

    def record(nodes, heads, params, *args, **kwargs):
        finished = finish(nodes, heads, params, *args, **kwargs)
        calls.append((nodes, params, list(finished[0])))
        return finished

    monkeypatch.setattr(zero_scan, "_finish", record)
    return calls


def test_scan_walks_the_grid_once(record_call_stacks, kernel_calls) -> None:
    calls = record_call_stacks(
        ("scan_critical_line", "refine_zero", "q_gb", "zeta_gb", "dirichlet_partial_sum")
    )
    records = zero_scan.scan_critical_line(0, 30)
    # one finisher call finishes every grid node, t = 0, 0.25, ..., 30, once,
    # from one line walk's Dirichlet sums; no node falls back to zeta_gb, so
    # only refinement and Q make their own pass. Each Newton point and each
    # polish makes its pass through zeta_core._pass, not zeta_gb, and that
    # pass calls zeta_core's own _finish, so zero_scan's sees walk calls only.
    assert [len(nodes) for nodes, _, _ in kernel_calls] == [121]
    assert not any("zeta_gb" in stack for stack in calls)
    # The seed, each Newton step and the polish make one pass each, and
    # every polish is kept, so Q is built from its parts and q_gb never runs.
    passes = [stack for stack in calls if stack[-1] == "dirichlet_partial_sum"]
    assert set(passes) == {("scan_critical_line", "refine_zero", "dirichlet_partial_sum")}
    assert len(passes) == sum(rec.refine_iterations + 1 for rec in records) == 9
    assert len(records) == 3
    assert not any("q_gb" in stack for stack in calls)


# the first has no phase-walk split, the second two (the first zero sits
# 0.06 below its top side); sigma_min + sigma_max != 1, so both walk the closed path
@pytest.mark.parametrize(
    ("rect", "zeros"), ((Rectangle(0.01, 0.98, 0.1, 30.0), 3), (Rectangle(0.45, 0.54, 13.5, 14.2), 1))
)
def test_winding_walks_each_side_once(record_call_stacks, kernel_calls, rect: Rectangle, zeros: int) -> None:
    calls = record_call_stacks(("zeta_gb", "dirichlet_partial_sum", "_dirichlet_path"))
    count, _ = rectangle_winding(rect)
    assert count == zeros
    sides = (rect.sigma_max - rect.sigma_min, rect.t_max - rect.t_min) * 2
    segments = [max(4, math.ceil(side / 0.25)) for side in sides]
    # the closed boundary is one walk, whose one finisher call finishes each
    # base node once: a side's nodes from its first corner up to the next
    # corner, which is the next side's first node, so each corner is one node
    (walked,) = [nodes for nodes, _, _ in kernel_calls if len(nodes) > 1]
    assert len(walked) == sum(segments)
    assert len(set(walked)) == len(walked)
    assert [walked.count(corner) for corner in rect.corners()] == [1, 1, 1, 1]
    firsts = [0, *itertools.accumulate(segments)][:4]
    assert [walked[k] for k in firsts] == list(rect.corners())
    # only the phase-walk splits (one-node walks, one exact sum each) and
    # uncertified samples (zeta_gb at params) make their own pass, one each
    splits = sum(len(nodes) == 1 for nodes, _, _ in kernel_calls)
    assert splits == (0 if rect.t_min == 0.1 else 2)  # as the cases above say
    assert calls.count(("_dirichlet_path",)) == 1 + splits
    assert calls.count(("dirichlet_partial_sum",)) == 0
    assert calls.count(("zeta_gb", "dirichlet_partial_sum")) == calls.count(("zeta_gb",))


# the mirrored twins of the closed walks above, a 4-wide audit window, and
# the audit's rectangle [-1, 2] at a 4-wide window and over 0.1..499, whose
# side at sigma = 2 is one step at any height, so 14 nodes:
# (rectangle, zeros, segments of the right half, phase-walk splits)
@pytest.mark.parametrize(
    ("rect", "zeros", "segments", "splits"),
    (
        (Rectangle(0.01, 0.99, 0.1, 30.0), 3, [4, 120, 4], 0),
        (Rectangle(0.45, 0.55, 13.5, 14.2), 1, [4, 4, 4], 1),
        (Rectangle(0.01, 0.99, 250.0, 254.0), 2, [4, 16, 4], 0),
        (Rectangle(-1.0, 2.0, 250.0, 254.0), 2, [6, 1, 6], 0),
        (Rectangle(-1.0, 2.0, 0.1, 499.0), 269, [6, 1, 6], 0),
    ),
)
def test_a_mirrored_winding_walks_its_right_half_once(record_call_stacks, kernel_calls, rect: Rectangle,
                                                      zeros: int, segments: list[int], splits: int) -> None:
    calls = record_call_stacks(("zeta_gb", "dirichlet_partial_sum", "_dirichlet_path", "siegel_theta"))
    count, residual = rectangle_winding(rect)
    assert count == zeros and residual < 1e-3
    # one open walk 1/2 + i t_min -> sigma_max + i t_min -> sigma_max + i t_max
    # -> 1/2 + i t_max, each corner one node, and theta at its two ends
    (walked,) = [nodes for nodes, _, _ in kernel_calls if len(nodes) > 1]
    assert len(walked) == sum(segments) + 1
    assert len(set(walked)) == len(walked)
    _, right_low, right_high, _ = rect.corners()
    vertices = [complex(0.5, rect.t_min), right_low, right_high, complex(0.5, rect.t_max)]
    firsts = list(itertools.accumulate(segments, initial=0))
    assert [walked[k] for k in firsts] == vertices
    assert all(z.real >= 0.5 for z in walked)
    assert calls.count(("siegel_theta",)) == 2
    # each split is a one-node walk, one exact sum
    assert sum(len(nodes) == 1 for nodes, _, _ in kernel_calls) == splits
    assert calls.count(("_dirichlet_path",)) == 1 + splits
    assert calls.count(("dirichlet_partial_sum",)) == 0
    assert calls.count(("zeta_gb", "dirichlet_partial_sum")) == calls.count(("zeta_gb",))


def test_scan_validation(capsys) -> None:
    with pytest.raises(ParameterError):
        scan_critical_line(-1.0, 5.0)
    with pytest.raises(ParameterError, match="t_min and t_max must be numbers"):
        scan_critical_line(False, 20)  # type: ignore[arg-type]
    with pytest.raises(ParameterError, match="tol must be at least"):
        ScanConfig(tol=True)
    with pytest.raises(ParameterError, match="step must lie"):
        ScanConfig(step=True)
    with pytest.raises(ParameterError):
        scan_critical_line(5.0, 5.0)
    with pytest.raises(ParameterError):
        scan_critical_line(0.0, 5.0, ScanConfig(step=0.6))
    with pytest.raises(ParameterError):
        scan_critical_line(0.0, 5.0, ScanConfig(tol=1e-12))
    with pytest.raises(ParameterError, match="max_iter"):
        ScanConfig(max_iter=True)
    with pytest.raises(ParameterError, match="ScanConfig"):
        scan_critical_line(0.0, 5.0, {"step": 0.5})  # type: ignore[arg-type]
    with pytest.raises(ParameterError, match="EvalParams"):  # it raised AttributeError
        scan_critical_line(0.0, 30.0, params=(30, 5))  # type: ignore[arg-type]
    # tol = inf passed, and --tol inf exited 0 with Newton's loop never run,
    # or exited 2 naming --eps
    with pytest.raises(ParameterError, match=r"tol must be at least 1e-10 and finite, got inf"):
        ScanConfig(tol=math.inf)
    for extra in ((), ("--N", "40", "--nu", "9")):
        assert run(["zeros", "--t-min", "0", "--t-max", "20", "--tol", "inf", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parameter error: tol must be at least")


@pytest.mark.parametrize("command", (scan_critical_line, audit_range), ids=("zeros", "audit"))
@pytest.mark.parametrize(("t_max", "step"), ((10.0, 5e-324), (499.0, 1e-9)))
def test_a_grid_above_the_node_cap_is_refused_before_any_node(record_call_stacks, command, t_max, step) -> None:
    # the first raised OverflowError on an infinite node count, the second
    # asked for 5e11 nodes and ran out of memory
    calls = record_call_stacks(("_dirichlet_path",))
    with pytest.raises(ParameterError, match=rf"step {step!r} over \[0.0, {t_max!r}\] asks for more than 1048576"):
        command(0.0, t_max, ScanConfig(step=step))
    assert calls == []


# ---------------------------------------------------------------------------
# sign-change brackets over the supported range
# ---------------------------------------------------------------------------


def test_theta_moves_less_than_a_quarter_turn_per_cell() -> None:
    # Re[zeta_b conj(zeta_a)] = Z_a Z_b cos(theta_b - theta_a) has the sign of
    # Z_a Z_b only while |theta_b - theta_a| < pi/2, on the widest grid allowed
    theta = [float(mpmath.siegeltheta(k * 0.25)) for k in range(2001)]
    worst = max(abs(b - a) for a, b in zip(theta, theta[2:]))
    assert 1.0 < worst < 1.13 < math.pi / 2


def test_theta_matches_mpmath() -> None:
    # the Stirling series, shifted up to |1/4 + it/2| >= 10, at 64 seeded t in
    # [0, 500] and at three small t that take the shift
    rng = random.Random(20261019)
    ts = [rng.uniform(0.0, 500.0) for _ in range(64)] + [0.0, 0.5, 3.0]
    with mpmath.workdps(30):
        for t in ts:
            want = float(mpmath.siegeltheta(t))
            assert abs(siegel_theta(t) - want) <= 1e-14 * abs(want)
            # odd, bit for bit
            assert siegel_theta(-t) == -siegel_theta(t)
    assert siegel_theta(0.0) == 0.0
    for bad in (math.inf, -math.inf, math.nan, True, "3"):
        with pytest.raises(ParameterError, match="finite real"):
            siegel_theta(bad)  # type: ignore[arg-type]


@pytest.fixture(scope="module")
def zeros_below_499() -> list[ZeroRecord]:
    return scan_critical_line(0, 499)


@pytest.mark.parametrize(("t_max", "zeros"), ((100, 29), (200, 79), (300, 138), (400, 202), (499, 269)))
def test_sign_changes_count_every_zero_below_t(zeros_below_499, t_max: float, zeros: int) -> None:
    assert int(mpmath.nzeros(t_max)) == zeros
    assert sum(rec.t < t_max for rec in zeros_below_499) == zeros


def test_each_zero_lies_strictly_inside_its_own_cell(zeros_below_499) -> None:
    step = ScanConfig().step
    cells = [math.floor(rec.t / step) for rec in zeros_below_499]
    assert all(a < b for a, b in zip(cells, cells[1:]))
    assert all(rec.t / step != cell for rec, cell in zip(zeros_below_499, cells))


def test_sign_changes_miss_two_zeros_in_one_cell() -> None:
    # 415.0188 and 415.4552 lie in one cell of the 0.5 grid from 415
    assert scan_critical_line(415.0, 417.0, ScanConfig(step=0.5)) == []
    finer = scan_critical_line(415.0, 417.0, ScanConfig(step=0.25))
    assert [round(rec.t, 4) for rec in finer] == [415.0188, 415.4552]


def test_every_zero_gap_below_500_exceeds_a_quarter() -> None:
    # the audit's one rescan at half the step rests on this: at any allowed
    # step, <= 0.5, its grid gives each zero below t = 500 a cell of its own
    records = scan_critical_line(0.0, 500.0)
    assert len(records) == 269
    gaps = [b.t - a.t for a, b in zip(records, records[1:])]
    assert min(gaps) > 0.25
    assert round(min(gaps), 4) == 0.4364
    assert round(records[gaps.index(min(gaps))].t, 4) == 415.0188


@pytest.mark.parametrize(("step", "zeros"), ((0.5, 267), (0.25, 269)))
def test_newton_from_every_seed_lands_inside_its_bracket(step: float, zeros: int) -> None:
    # under strict_refine a zero refined outside its bracket raises; at step
    # 0.5 the pair 415.0188, 415.4552 shares a cell and has no bracket
    records = scan_critical_line(0.0, 500.0, ScanConfig(step=step, strict_refine=True))
    assert len(records) == zeros


def test_a_coarse_bracket_keeps_its_zero(caplog) -> None:
    # at step 0.5 Newton from the node 334.0 ran from the cell [333.5, 334.0]
    # to 334.2114, the zero of the next cell; the interpolated seed keeps it
    with caplog.at_level(logging.WARNING, logger="zetagb.zero_scan"):
        records = scan_critical_line(333.0, 335.0, ScanConfig(step=0.5))
    assert [round(rec.t, 4) for rec in records] == [333.6454, 334.2114]
    assert caplog.text == ""
    strict = scan_critical_line(333.0, 335.0, ScanConfig(step=0.5, strict_refine=True))
    assert strict == records


def _newton_within(monkeypatch, reach: float) -> None:
    # Newton seeds inside [333.5, 334.0] farther than ``reach`` from its zero
    # start from the node 334.0 instead, as the grid-node seed did, and so
    # run to 334.2114, the zero of the next cell
    refine = zero_scan.refine_zero

    def from_334(s0, *args):
        if 333.5 < s0.imag < 334.0 and abs(s0.imag - 333.6454) > reach:
            s0 = complex(0.5, 334.0)
        return refine(s0, *args)

    monkeypatch.setattr(zero_scan, "refine_zero", from_334)


def test_the_audit_rescan_recovers_a_zero_that_newton_leaves(monkeypatch, caplog) -> None:
    # the interpolated seed 333.6430 is 2.4e-3 from the zero, so Newton runs
    # to 334.2114: the scan names the bracket and skips it. The audit's one
    # rescan at step 0.25 seeds within 1e-5 of the zero and recovers it.
    _newton_within(monkeypatch, 1e-3)
    with caplog.at_level(logging.WARNING, logger="zetagb.zero_scan"):
        records = scan_critical_line(333.0, 335.0, ScanConfig(step=0.5))
    assert [round(rec.t, 4) for rec in records] == [334.2114]
    assert ("no zero found inside its bracket [333.500000, 334.000000]: "
            "Newton refined to t = 334.211355") in caplog.text
    report = audit_range(333.0, 335.0, ScanConfig(step=0.5))
    assert report.complete
    assert report.strip_zeros == 2
    rescan = scan_critical_line(333.0, 335.0, ScanConfig(step=0.25), report.params_used)
    assert [rec for rec, _ in report.zero_checks] == rescan
    assert [round(rec.t, 4) for rec, _ in report.zero_checks] == [333.6454, 334.2114]
    assert "III  PASS strip [-1.0, 2.0] holds 2 zeros; the scan found 2 on the line" in report.verdict_lines


def test_a_bracket_the_fallback_cannot_resolve_is_named(monkeypatch, caplog) -> None:
    _newton_within(monkeypatch, 0.0)
    with pytest.raises(RefinementError, match=r"no zero found inside its bracket \[333.500000, 334.000000\]"):
        scan_critical_line(333.0, 335.0, ScanConfig(step=0.5, strict_refine=True))
    with caplog.at_level(logging.WARNING, logger="zetagb.zero_scan"):
        records = scan_critical_line(333.0, 335.0, ScanConfig(step=0.5))
    assert [round(rec.t, 4) for rec in records] == [334.2114]
    assert "no zero found inside its bracket [333.500000, 334.000000]" in caplog.text
    assert "1 candidate(s) failed to refine" in caplog.text


def test_interpolated_seeds_take_under_two_newton_steps(zeros_below_499) -> None:
    # refine_iterations counts the polish step, one a zero: 4.75 a zero from
    # the grid node with the smaller |Z|, 3.69 from the regula-falsi point,
    # 2.71 from the 8-node interpolant of h, 1.98 from that of Hardy's Z
    assert len(zeros_below_499) == 269
    iterations = [rec.refine_iterations for rec in zeros_below_499]
    assert sum(iterations) / len(iterations) <= 2.0
    assert max(rec.z_modulus for rec in zeros_below_499) <= 4.8e-13


@pytest.fixture
def seeds(monkeypatch) -> list[tuple[list[float], float, float, float, float]]:
    """(stencil ordinates, ta, tb, seed, regula-falsi point) of every bracket a scan seeds."""
    calls = []
    interpolate = zero_scan._interpolated_seed

    def record(ts, hs, ta, tb, ha, hb):
        seed = interpolate(ts, hs, ta, tb, ha, hb)
        calls.append((list(ts), ta, tb, seed, ta + (tb - ta) * ha / (ha - hb)))
        return seed

    monkeypatch.setattr(zero_scan, "_interpolated_seed", record)
    return calls


# the seeds of the longer stencils lie within 5e-6 of the zero; through two
# nodes the seed is regula falsi on Hardy's Z, which lies 1.285e-3 from it
# (regula falsi on h lay 0.966e-3 away; both from siegel_theta at 14.0 and 14.25)
@pytest.mark.parametrize(("t_min", "t_max", "stencil", "reach"), (
    (14.0, 16.0, [14.0 + 0.25 * k for k in range(8)], 1e-5),     # at the window's start
    (12.5, 14.25, [12.5 + 0.25 * k for k in range(8)], 1e-5),    # at its end
    (13.0, 14.2, [13.0 + 0.25 * k for k in range(5)] + [14.2], 1e-5),  # ending on an off-grid t_max
    (14.0, 14.25, [14.0, 14.25], 1.3e-3),                         # a grid of two nodes
), ids=("start", "end", "off-grid", "two-nodes"))
def test_the_seed_lies_strictly_inside_its_bracket(seeds, t_min: float, t_max: float,
                                                   stencil: list[float], reach: float) -> None:
    records = scan_critical_line(t_min, t_max)
    assert [round(rec.t, 6) for rec in records] == [14.134725]
    ((ts, ta, tb, seed, _),) = seeds
    # the stencil is shifted to stay on the grid and keeps both bracket ends
    assert ts == pytest.approx(stencil, abs=1e-12)
    assert ta < seed < tb and ta < 14.134725 < tb
    assert abs(seed - records[0].t) < reach


def test_two_nodes_seed_at_the_regula_falsi_point(seeds) -> None:
    scan_critical_line(14.0, 14.25)
    ((_, _, _, seed, falsi),) = seeds
    assert seed == pytest.approx(falsi, rel=4e-16)
    # the two values are Hardy's Z, to the sign of Z(14.0) and a factor near 1
    params = auto_params(complex(0.5, 14.25), 1e-10)
    z_a, z_b = ((cmath.exp(1j * siegel_theta(t)) * zeta_gb(complex(0.5, t), params).value).real
                for t in (14.0, 14.25))
    assert seed == pytest.approx(14.0 + 0.25 * z_a / (z_a - z_b), abs=1e-6)
    rng = random.Random(21003)
    for _ in range(200):
        ta = rng.uniform(0.0, 499.0)
        tb = ta + rng.uniform(0.01, 0.5)
        ha, hb = rng.uniform(1e-6, 10.0), -rng.uniform(1e-6, 10.0)
        falsi = ta + (tb - ta) * ha / (ha - hb)
        assert zero_scan._interpolated_seed([ta, tb], [ha, hb], ta, tb, ha, hb) == pytest.approx(falsi, rel=4e-16)


def _psi(ts: list[float], ta: float) -> list[float]:
    # the turn psi_k at each t_k, read off the turned values of zeta = 1 and i
    re = zero_scan._hardy_values([(t, 1.0 + 0j) for t in ts], ta, 1.0 + 0j)
    im = zero_scan._hardy_values([(t, 1j) for t in ts], ta, 1.0 + 0j)
    return [math.atan2(-b, a) for a, b in zip(re, im)]


def test_every_seed_below_499_lies_within_1e_5_of_its_zero(seeds) -> None:
    # the 8-node interpolant of Hardy's Z puts the seeds a median 4.0e-7 and
    # at most 5.7e-6 from their zeros
    records = scan_critical_line(0, 499)
    assert len(records) == len(seeds) == 269
    assert all(len(ts) == 8 for ts, *_ in seeds)
    gaps = sorted(abs(seed - rec.t) for (*_, seed, _), rec in zip(seeds, records))
    assert gaps[-1] < 1e-5
    assert gaps[len(gaps) // 2] < 1e-6
    # delta_k = theta(t_k) - theta(ta) - psi_k keeps within the module
    # docstring's leading-order bound |d| (d^2 + 1) / (12 t^2) on each
    # stencil, t its lowest node
    for ts, ta, *_ in seeds:
        for t, psi in zip(ts, _psi(ts, ta)):
            d = t - ta
            delta = math.remainder(siegel_theta(t) - siegel_theta(ta) - psi, math.tau)
            assert abs(delta) <= abs(d) * (d * d + 1) / (12 * ts[0] ** 2)


def test_the_turn_keeps_the_sign_of_h_b_from_a_small_ta_on() -> None:
    # the module docstring's fallback: from ta = 0.04 on, |delta_b| stays
    # below pi/2 less a certified sample's phase error for any step up to
    # 0.5, and below 1e-3 from ta = 13.6, below every bracket of zeta
    steps = (0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5)
    for k in range(2, 1001):
        ta = 0.02 * k
        ts = [ta + d for d in steps]
        for t, psi in zip(ts, _psi(ts, ta)):
            delta = math.remainder(siegel_theta(t) - siegel_theta(ta) - psi, math.tau)
            assert abs(delta) < (1e-3 if ta >= 13.6 else math.pi / 2 - 1 / 1024)
    # no turn at ta = 0, where ln ta is not defined
    assert _psi([0.0, 0.25, 0.5], 0.0) == [0.0, 0.0, 0.0]


def _h(stencil: list[tuple[float, complex]], ta: float, za: complex) -> list[float]:
    return [(z * za.conjugate()).real / abs(za) for _, z in stencil]


@pytest.mark.parametrize("turned", (lambda hs: [-h for h in hs], lambda hs: [0.0] * len(hs)),
                         ids=("flips-h_b", "zeroes-h_b"))
def test_a_turn_that_leaves_h_b_not_negative_seeds_from_h(monkeypatch, seeds, turned) -> None:
    # a turn whose value at tb is not negative would break the polynomial's
    # + to - sign change, so the bracket seeds from h, bit for bit
    default = scan_critical_line(250.0, 256.0)
    hardy = [seed for *_, seed, _ in seeds]
    seeds.clear()
    monkeypatch.setattr(zero_scan, "_hardy_values", _h)
    on_h = scan_critical_line(250.0, 256.0)
    plain = list(seeds)
    seeds.clear()
    monkeypatch.setattr(zero_scan, "_hardy_values", lambda *args: turned(_h(*args)))
    assert scan_critical_line(250.0, 256.0) == on_h
    assert seeds == plain and len(plain) == len(default) == 3
    # only the seeds moved, so the zeros moved by rounding only
    assert [seed for *_, seed, _ in seeds] != hardy
    assert [rec.t for rec in on_h] == pytest.approx([rec.t for rec in default], abs=1e-12)


def test_a_bracket_at_t_zero_seeds_from_h(monkeypatch, seeds) -> None:
    # psi is 0 at ta = 0, where ln ta is not defined; zeta makes no bracket
    # there, so the grid values are those of 0.1 - t, whose h is linear
    grid = [0.25 * k for k in range(9)]
    monkeypatch.setattr(zero_scan, "_line_values", lambda *args: (grid, [complex(0.1 - t) for t in grid]))
    monkeypatch.setattr(zero_scan, "_refine_bracket", lambda ta, tb, seed, *args: seed)
    assert scan_critical_line(0.0, 2.0) == [pytest.approx(0.1, abs=1e-12)]
    ((ts, ta, tb, _, _),) = seeds
    assert (ta, tb) == (0.0, 0.25) and ts == grid[:8]


def test_the_interpolated_seed_is_the_polynomials_root() -> None:
    # a cubic through eight nodes is reproduced, so the seed is its root in the bracket
    ts = [20.0 + 0.25 * k for k in range(8)]
    root = 20.9
    hs = [-(t - root) * ((t - 20.4) ** 2 + 0.3) for t in ts]
    seed = zero_scan._interpolated_seed(ts, hs, ts[3], ts[4], hs[3], hs[4])
    assert seed == pytest.approx(root, abs=1e-12)


def test_the_seed_stays_inside_the_bracket_on_any_data() -> None:
    # wild interior values may give the polynomial several roots or none
    # near the Newton path; the bisection guard still keeps the seed inside
    rng = random.Random(21004)
    for _ in range(300):
        count = rng.randint(2, 8)
        ts = sorted(rng.uniform(0.0, 2.0) for _ in range(count))
        k = rng.randrange(count - 1)
        hs = [rng.uniform(-5.0, 5.0) for _ in ts]
        hs[k], hs[k + 1] = rng.uniform(1e-9, 5.0), -rng.uniform(1e-9, 5.0)
        seed = zero_scan._interpolated_seed(ts, hs, ts[k], ts[k + 1], hs[k], hs[k + 1])
        assert ts[k] < seed < ts[k + 1]


def test_the_polish_step_leaves_every_zero_far_below_tol(zeros_below_499) -> None:
    # without it |Z| ran up to 9.9e-10, just under tol, and IV-VI of the
    # audit flipped with where the last step landed
    assert [sum(rec.t < t for rec in zeros_below_499) for t in (100, 200, 300, 400, 499)] == [
        29, 79, 138, 202, 269]
    assert max(rec.z_modulus for rec in zeros_below_499) <= 1e-12


def test_a_refined_zero_costs_under_two_hundred_dirichlet_terms(monkeypatch) -> None:
    cutoffs = []
    value_only = []
    partial_sum = zeta_core.dirichlet_partial_sum

    def record(s, cutoff_n, *, derivative=False):
        cutoffs.append(cutoff_n)
        if not derivative:
            value_only.append(s)
        return partial_sum(s, cutoff_n, derivative=derivative)

    monkeypatch.setattr(zeta_core, "dirichlet_partial_sum", record)
    # the grid walks its sums; every exact pass is a Newton point or the
    # polish step, and Q is built from the parts of the last one, so each
    # refined zero makes one value-only pass. The README quotes these
    # counts: 83 passes of 40 terms for 29 zeros at (41, 11) over 0..100,
    # and 801 passes for 269 zeros over 0..499
    records = zero_scan.scan_critical_line(0, 100)
    assert len(records) == 29
    assert len(cutoffs) == 83
    assert set(cutoffs) == {41}
    assert sum(n - 1 for n in cutoffs) == 40 * 83 <= 200 * len(records)
    assert len(value_only) == 29
    cutoffs.clear()
    value_only.clear()
    assert len(zero_scan.scan_critical_line(0, 499)) == 269
    assert len(cutoffs) == 801 <= 3.2 * 269
    assert len(value_only) == 269


def test_the_coarse_grid_keeps_every_bracket(zeros_below_499, caplog) -> None:
    with caplog.at_level(logging.WARNING, logger="zetagb.zero_scan"):
        coarse = scan_critical_line(0, 499, ScanConfig(step=0.5))
    assert len(coarse) == 267
    assert caplog.text == ""
    # the two zeros it misses share one cell of the 0.5 grid
    missed = {round(rec.t, 4) for rec in zeros_below_499} - {round(rec.t, 4) for rec in coarse}
    assert missed == {415.0188, 415.4552}


def test_scan_stays_inside_the_supported_range() -> None:
    with pytest.raises(ParameterError, match="supported range"):
        scan_critical_line(600.0, 601.0, params=EvalParams(1300, 4))
    # t_max on the cap itself is inside
    assert [round(rec.t, 4) for rec in scan_critical_line(498.0, 500.0)] == [498.5808]


def test_the_grid_never_passes_t_max() -> None:
    # (t_max - t_min) / step falls 9e-10 below 8, inside the grid's 1e-9
    # slack: the node t_min + 8 step = 14.13472514187464 would pass t_max
    # and bracket the first zero, 14.1347251417347, which lies above it
    t_min, t_max = 12.13472514187464, 14.13472514164964
    assert t_min + 8 * 0.25 > t_max
    params = zero_scan._refine_params(complex(0.5, t_max), ScanConfig.tol)
    grid, _ = zero_scan._line_values(t_min, t_max, 0.25, params)
    assert grid == [t_min + k * 0.25 for k in range(8)] + [t_max]
    assert scan_critical_line(t_min, t_max) == []


# ---------------------------------------------------------------------------
# certified samples: walks at a cheaper cutoff, the full pass where they fail
# ---------------------------------------------------------------------------

AUDIT_WINDOWS = tuple(250.0 + 24.9 * k for k in range(10))
# the tall strip rectangle: its mirrored walk, along its right half, carries
# its terms about 2,000 steps; the closed walk of its twin, which ends at
# sigma = 0.98, about 4,000 (0.98 < sigma < 0.99 holds no zero for t <= 500)
TALL = Rectangle(0.01, 0.99, 0.1, 499.0)
TALL_CLOSED = Rectangle(0.01, 0.98, 0.1, 499.0)


@pytest.fixture(scope="module")
def sampled_walks() -> list[tuple[list[complex], list[int], EvalParams, EvalParams, float, list[complex]]]:
    # (nodes, segments, params, sample params, walk bound, returned values) of
    # every walk made by the 0..499 grid at step 0.25, by the strip
    # rectangles of ten 4-wide audit windows in [250, 499] and by the tall
    # strip rectangle, mirrored and by their closed twins, splits included
    walks = []
    walk = zero_scan._walk
    caller = {}

    def record(nodes, segments, sample, bound, full, floor=0.0):
        values = walk(nodes, segments, sample, bound, full, floor)
        walks.append((nodes, segments, caller["params"], sample, bound, values))
        return values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zero_scan, "_walk", record)
        caller["params"] = zero_scan._refine_params(complex(0.5, 499.0), 1e-9)
        zero_scan._line_values(0.0, 499.0, 0.25, caller["params"])
        for sigma_max in (0.99, 0.98):
            rects = [Rectangle(0.01, sigma_max, lo, lo + 4.0) for lo in AUDIT_WINDOWS]
            for rect in rects + [TALL if sigma_max == 0.99 else TALL_CLOSED]:
                caller["params"] = auto_params(complex(0.5, rect.t_max), 1e-9)
                rectangle_winding(rect, caller["params"])
    return walks


def _path(nodes: list[complex], segments: list[int]) -> list[complex]:
    # the walk's vertices in order: its first node, then each side's last
    return [nodes[k] for k in itertools.accumulate(segments, initial=0)]


def _samples(nodes: list[complex], segments: list[int], sample: EvalParams):
    # each node's sampled value, truncation bound and rounding allowance,
    # recomputed as the walk made them
    n, nu = sample.cutoff_n, sample.tail_order
    path = _path(nodes, segments)
    values = zeta_core._finish(nodes, zeta_core._dirichlet_path(path, segments, n), sample)[0]
    for z, value, rounding in zip(nodes, values, zero_scan._rounding(path, len(nodes), n)):
        yield z, value, remainder_bound(z, n, nu), rounding


def _uncertified(nodes: list[complex], segments: list[int], sample: EvalParams, bound: float,
                 floor: float = 0.0) -> list[complex]:
    # the nodes of a walk whose sample its walk bound does not certify
    return [z for z, value, _, rounding in _samples(nodes, segments, sample)
            if not abs(value) > max(floor, 2.0**10 * (bound + rounding))]


@pytest.fixture
def bound_reads(monkeypatch):
    # (walks, outside): each walk's (nodes, segments, sample, walk bound,
    # floor, the truncation bounds it read itself), and the bounds that
    # zero_scan read outside any walk
    walks, outside = [], []
    reads = outside
    bound, walk = zero_scan.remainder_bound, zero_scan._walk

    def read(s, *args):
        reads.append(s)
        return bound(s, *args)

    def walked(nodes, segments, sample, walk_bound, full, floor=0.0):
        nonlocal reads
        reads = []
        walks.append((nodes, segments, sample, walk_bound, floor, reads))
        try:
            return walk(nodes, segments, sample, walk_bound, full, floor)
        finally:
            reads = outside

    monkeypatch.setattr(zero_scan, "remainder_bound", read)
    monkeypatch.setattr(zero_scan, "_walk", walked)
    return walks, outside


def test_each_sample_lies_within_its_certificate(sampled_walks) -> None:
    nodes_checked = 0
    for nodes, segments, params, sample, _, values in sampled_walks:
        # every walk samples at its own cutoff, the cheapest bounding its worst
        # corner by the sample accuracy, not at its caller's params
        for (z, sampled, bound, rounding), value in zip(_samples(nodes, segments, sample), values):
            full = zeta_gb(z, params)
            # the returned value is the sample, or the full pass where it is not certified
            certified = abs(sampled) > 2.0**10 * (bound + rounding)
            assert value == (sampled if certified else full.value)
            # both truncation bounds, the sample's rounding and the full pass's own
            allowance = (bound + full.remainder_bound + rounding
                         + zero_scan._rounding([z], 1, params.cutoff_n)[0])
            assert abs(sampled - full.value) <= allowance
            nodes_checked += 1
    # the grid, ten closed walks of 40 nodes and the tall one of 4,000, ten
    # mirrored walks of 25 nodes and the tall one of 2,005
    assert nodes_checked >= 1997 + 10 * 40 + 4000 + 10 * 25 + 2005
    # every walk is open, its sides' steps one fewer than its nodes; a closed
    # boundary's four sides stop one step short of its first corner
    assert all(sum(segments) == len(nodes) - 1 for nodes, segments, *_ in sampled_walks)
    closed = [(len(nodes), segments) for nodes, segments, *_ in sampled_walks if len(segments) == 4]
    assert closed == [(40, [4, 16, 4, 15])] * 10 + [(2 * 4 + 2 * 1996, [4, 1996, 4, 1995])]
    mirrored = [(len(nodes), segments) for nodes, segments, *_ in sampled_walks if len(segments) == 3]
    assert mirrored == [(25, [4, 16, 4])] * 10 + [(2005, [4, 1996, 4])]


def test_a_vertical_walk_is_bounded_at_its_far_end(sampled_walks, monkeypatch) -> None:
    # on a vertical line each node's bound grows with |t|, so the bound at
    # the line's largest |t| is at least each node's, also on a line that
    # crosses the axis; the grid walk reads it at 1/2 + 499i, its top
    crossing = [complex(0.5, -3.0 + 0.25 * k) for k in range(21)]
    (grid,) = [walk for walk in sampled_walks if len(walk[1]) == 1]
    nodes, _, _, sample, bound, _ = grid
    n, nu = sample.cutoff_n, sample.tail_order
    assert nodes[-1] == complex(0.5, 499.0)
    assert bound == remainder_bound(nodes[-1], n, nu)
    assert all(remainder_bound(z, n, nu) <= bound for z in nodes)
    sample = EvalParams(16, 4)
    n, nu = sample.cutoff_n, sample.tail_order
    top = remainder_bound(complex(0.5, 3.0), n, nu)
    assert top == remainder_bound(crossing[0], n, nu)
    assert all(remainder_bound(z, n, nu) <= top for z in crossing)
    # on the crossing line the walk reads only the bounds of nodes that its
    # walk bound cannot certify, and every node still takes the decision of
    # its own bound
    params = EvalParams(40, 10)
    bounded = []
    bound = zero_scan.remainder_bound
    monkeypatch.setattr(zero_scan, "remainder_bound", lambda s, *args: bounded.append(s) or bound(s, *args))
    values = zero_scan._walk(crossing, [20], sample, top, lambda: params)
    assert bounded == _uncertified(crossing, [20], sample, top)
    for (z, sampled, bound, rounding), value in zip(_samples(crossing, [20], sample), values):
        certified = abs(sampled) > 2.0**10 * (bound + rounding)
        assert value == (sampled if certified else zeta_gb(z, params).value)


def test_the_walk_bound_bounds_every_node_of_a_rectangle(sampled_walks, monkeypatch) -> None:
    # at height T the bound falls as sigma grows where nu + 1 < T ln N, and
    # at fixed sigma it grows with |t|, so the bound at the path's smallest
    # sigma and largest |t| is at least every boundary node's there; near
    # the real axis the rule does not apply and the walk bound is inf
    rng = random.Random(20261020)
    walks = []

    def stub(nodes, segments, sample, bound, full, floor=0.0):
        walks.append((nodes, sample, bound))
        return [1.0 + 0.0j] * len(nodes)

    monkeypatch.setattr(zero_scan, "_walk", stub)
    bounded = unbounded = 0
    for k in range(48):
        sigma_min, sigma_max = sorted(rng.uniform(-1.0, 2.0) for _ in range(2))
        if k % 4 == 0:
            sigma_min = rng.uniform(-1.0, 0.45)
            sigma_max = 1.0 - sigma_min  # mirrored
        t_min, t_max = sorted(rng.uniform(0.05, 500.0) for _ in range(2))
        if k % 3 == 0:
            t_min = 0.1
        if k % 10 == 9:
            t_min = -rng.uniform(0.05, t_max)  # crossing the real axis
        if k % 16 == 5:
            t_max = rng.uniform(0.15, 1.5)  # near the real axis
            t_min = 0.1
        rect = Rectangle(sigma_min, sigma_max, t_min, t_max)
        walks.clear()
        try:
            rectangle_winding(rect)
        except InconclusiveError:
            pass  # the stub's constant values leave theta's turn in a mirrored winding
        ((nodes, sample, bound),) = walks
        n, nu = sample.cutoff_n, sample.tail_order
        T = max(abs(t_min), t_max)
        corner = complex(min(z.real for z in nodes), T)
        if not nu + 1 < T * math.log(n):
            assert bound == math.inf
            unbounded += 1
            continue
        assert bound == remainder_bound(corner, n, nu)
        # the nodes, and points between them, where splits fall
        between = [a + (b - a) * rng.random() for a, b in zip(nodes, nodes[1:])]
        assert all(remainder_bound(z, n, nu) <= bound for z in nodes + between)
        bounded += 1
    assert bounded >= 40 and unbounded >= 3
    # the walks the scan and the counts made: the tall rectangles' bottom
    # sides at t = 0.1 are bounded by the bound at t = 499 too
    for nodes, _, _, sample, bound, _ in sampled_walks:
        n, nu = sample.cutoff_n, sample.tail_order
        assert math.isfinite(bound)
        assert all(remainder_bound(z, n, nu) <= bound for z in nodes)
    assert sum(nodes[0].imag == 0.1 for nodes, *_ in sampled_walks) == 2


def _reads_one_bound_per_walk(bound_reads, rect: Rectangle, corner: complex, scheduled: bool = True) -> list:
    # counts rect and checks that every walk, splits included, takes the
    # one bound at corner and reads a node's own only where that one fails;
    # returns the walks, as bound_reads records them. A sample the schedule
    # picked at corner carries that bound, so only full() = (200, 10) reads it
    walks, outside = bound_reads
    walks.clear()
    outside.clear()
    rectangle_winding(rect, EvalParams(200, 10))
    assert outside == ([] if scheduled else [corner])
    (bound,) = {walk[3] for walk in walks}
    sample = walks[0][2]
    assert (sample == EvalParams(200, 10)) is not scheduled
    assert bound.hex() == remainder_bound(corner, sample.cutoff_n, sample.tail_order).hex()
    for nodes, segments, sample, _, floor, reads in walks:
        assert reads == _uncertified(nodes, segments, sample, bound, floor)
    return walks


def _reads_one_bound_per_node(bound_reads, rect: Rectangle) -> None:
    # a rectangle below t = 1.5, where nu + 1 < T ln N fails: its walk
    # bound is inf, so each node reads its own
    walks, outside = bound_reads
    walks.clear()
    outside.clear()
    rectangle_winding(rect, EvalParams(200, 10))
    assert outside == []
    ((nodes, _, sample, bound, _, reads),) = walks
    assert bound == math.inf
    assert not sample.tail_order + 1 < rect.t_max * math.log(sample.cutoff_n)
    assert reads == nodes


def test_the_rectangle_reads_one_bound_per_walk(bound_reads, monkeypatch) -> None:
    # the closed walk takes one truncation bound, at (sigma_min, max |t|),
    # and so do its splits: the top side of (10, 14.14) passes 0.005 above
    # the first zero, and the nodes there also read their own
    for t_min, t_max in ((250.0, 254.0), (0.1, 30.0)):
        rect = Rectangle(0.01, 0.98, t_min, t_max)
        assert len(_reads_one_bound_per_walk(bound_reads, rect, rect.corners()[3])) == 1
    near = _reads_one_bound_per_walk(bound_reads, Rectangle(0.01, 0.98, 10.0, 14.14), complex(0.01, 14.14))
    assert len(near) > 1 and any(reads for *_, reads in near)
    # the height of a rectangle across the real axis is its larger |t|
    _reads_one_bound_per_walk(bound_reads, Rectangle(0.01, 0.98, -30.0, 20.0), complex(0.01, 30.0))
    _reads_one_bound_per_node(bound_reads, Rectangle(0.01, 0.98, 0.1, 1.4))
    # with no schedule entry the walk samples at full() and reads its bound once
    monkeypatch.setattr(zero_scan, "_schedule", lambda corner, eps: None)
    rect = Rectangle(0.01, 0.98, 250.0, 254.0)
    assert len(_reads_one_bound_per_walk(bound_reads, rect, rect.corners()[3], scheduled=False)) == 1


def test_the_mirrored_rectangle_reads_one_bound_per_walk(bound_reads) -> None:
    # the right half reads one bound, at 1/2 + i max |t|, splits included;
    # below t = 1.5 it reads one per node
    for t_min, t_max in ((250.0, 254.0), (0.1, 30.0), (10.0, 14.14)):
        _reads_one_bound_per_walk(bound_reads, Rectangle(0.01, 0.99, t_min, t_max), complex(0.5, t_max))
    assert len(_reads_one_bound_per_walk(bound_reads, Rectangle(0.2, 0.8, -30.0, 30.0), complex(0.5, 30.0))) == 1
    _reads_one_bound_per_node(bound_reads, Rectangle(0.01, 0.99, 0.1, 1.4))


# Z at 1/2 + it on the grid 0, 0.25, ..., 2 at the scan's params there, (8, 4),
# as (re, im) in hex, recorded while the grid read its walk bound at its top
# even where nu + 1 >= T ln N: the rule's inf there must keep every bit
GRID_0_2 = [
    ("-0x1.75d9eea46456bp+0", "0x0.0p+0"),
    ("-0x1.0f62620ae2964p+0", "-0x1.8fb1e99856ab3p-1"),
    ("-0x1.d653f7530a227p-2", "-0x1.ec29e1cbe38fep-1"),
    ("-0x1.2c75e53737faap-4", "-0x1.bacb95b85a278p-1"),
    ("0x1.26c7b6a01055ep-3", "-0x1.71b7e90efc67ap-1"),
    ("0x1.1514f01b36ae2p-2", "-0x1.2f0eed15a6d01p-1"),
    ("0x1.66032a1cc08e4p-2", "-0x1.edbb962900298p-2"),
    ("0x1.9c3ad8cabb925p-2", "-0x1.8f72040c582aep-2"),
    ("0x1.c31ea6e7bfd94p-2", "-0x1.3f266df209626p-2"),
]


def test_a_grid_below_the_walk_bound_rule_keeps_its_values(bound_reads) -> None:
    # the grid follows the rectangle's rule: its sample (3, 2) has
    # nu + 1 >= T ln N at T = 2, so its walk bound is inf and each node
    # reads its own, which takes the decision the bound at the top took
    walks, outside = bound_reads
    params = zero_scan._refine_params(complex(0.5, 2.0), ScanConfig.tol)
    assert params == EvalParams(8, 4)
    grid, values = zero_scan._line_values(0.0, 2.0, 0.25, params)
    assert grid == [0.25 * k for k in range(9)]
    ((nodes, _, sample, bound, _, reads),) = walks
    assert sample == EvalParams(3, 2) and bound == math.inf
    assert outside == [] and reads == nodes
    assert [(v.real.hex(), v.imag.hex()) for v in values] == GRID_0_2


def test_a_walk_at_params_still_certifies_its_nodes(monkeypatch) -> None:
    # sampling at the params themselves is no licence to keep a walked value:
    # with no schedule entry the walk samples at full() = params, and node 1
    # sits on the first zero, where the walk's |zeta| of 4.0e-11 is below
    # its certificate, so it makes the exact pass
    rec = refine_zero(complex(0.5, 14.1))
    params = rec.params_used
    monkeypatch.setattr(zero_scan, "_schedule", lambda corner, eps: None)
    assert zero_scan._walk_params(complex(0.5, rec.t + 0.75), lambda: params)[0] is params
    grid, values = zero_scan._line_values(rec.t - 0.25, rec.t + 0.75, 0.25, params)
    assert len(grid) == 5 and grid[1] == rec.t
    assert values[1] == zeta_gb(complex(0.5, rec.t), params).value


def test_walks_read_few_truncation_bounds(record_call_stacks, request) -> None:
    params = zero_scan._refine_params(complex(0.5, 14.1), ScanConfig.tol)
    calls = record_call_stacks(("_schedule", "remainder_bound", "_bound"))
    walks, outside = request.getfixturevalue("bound_reads")
    # params and sample params check their schedule bounds, finished from
    # the schedule's own products, the walk takes the sample's, picked at
    # its corner, and only nodes that walk bound cannot certify read their
    # own (511 calls when every node read its own)
    assert len(zero_scan.scan_critical_line(0, 100)) == 29
    reads = [stack for stack in calls if stack[-1] == "remainder_bound"]
    assert outside == []
    assert len(reads) == sum(len(r) for *_, r in walks) == 4
    assert not any("_schedule" in stack for stack in reads)
    assert len([stack for stack in calls if stack[-1] == "_bound" and "_schedule" in stack]) == 2
    # ten audit windows: each scan and each count takes one walk bound from
    # its sample, its splits none, and a node reads its own only where that
    # bound fails
    walks.clear()
    outside.clear()
    calls.clear()
    for lo in AUDIT_WINDOWS:
        report = audit_range(lo, lo + 4.0)
        assert report.abort_reason is None
    assert outside == []
    assert sum(bool(segments) for _, segments, *_ in walks) == 2 * 10
    for nodes, segments, sample, bound, floor, reads in walks:
        assert reads == _uncertified(nodes, segments, sample, bound, floor)
    assert sum(len(reads) for *_, reads in walks) <= 10
    # Newton never reads a bound
    calls.clear()
    refine_zero(complex(0.5, 14.1), params=params)
    assert calls == []


def test_samples_agree_with_mpmath(sampled_walks) -> None:
    rng = random.Random(20261018)
    nodes = [(walk, k) for walk in sampled_walks for k in range(len(walk[0]))]
    picks = rng.sample(nodes, 40)
    # the tall rectangles' walks hold about 70 % of the nodes, so both are drawn from
    assert sum(len(walk[0]) == 4000 for walk, _ in picks) >= 10
    assert sum(len(walk[0]) == 2005 for walk, _ in picks) >= 5
    samples = {}
    with mpmath.workdps(20):
        for walk, k in picks:
            nodes, segments, _, sample, _, _ = walk
            if id(walk) not in samples:
                samples[id(walk)] = list(_samples(nodes, segments, sample))
            z, sampled, bound, rounding = samples[id(walk)][k]
            exact = complex(mpmath.zeta(mpmath.mpc(z.real, z.imag)))
            assert abs(sampled - exact) <= bound + rounding


def test_a_node_on_a_zero_takes_the_full_pass(monkeypatch, kernel_calls) -> None:
    # t_min sits 2.7e-10 above the first zero: its sample is not certified
    t_min, t_max = 14.134725142, 60.0
    params = zero_scan._refine_params(complex(0.5, t_max), ScanConfig.tol)
    sample, _ = zero_scan._walk_params(complex(0.5, t_max), lambda: params)
    assert sample != params
    evaluate = zero_scan.zeta_gb
    calls = []

    def record(s, p=None, **kwargs):
        calls.append((s, p))
        return evaluate(s, p, **kwargs)

    monkeypatch.setattr(zero_scan, "zeta_gb", record)
    sampled = scan_critical_line(t_min, t_max)
    # each node is sampled once, by the grid's one walk; only t_min makes
    # one exact pass at params, and the off-grid t_max is the walk's last node
    low, high = complex(0.5, t_min), complex(0.5, t_max)
    assert [(nodes[0], nodes[-1], p) for nodes, p, _ in kernel_calls] == [(low, high, sample)]
    assert [p for s, p in calls if s == low] == [params]
    assert [p for s, p in calls if s == high] == []
    # with no schedule entry the grid samples at params, the full accuracy
    monkeypatch.setattr(zero_scan, "_schedule", lambda corner, eps: None)
    full = scan_critical_line(t_min, t_max)
    assert len(sampled) == len(full) == 12
    for a, b in zip(sampled, full):
        assert abs(a.t - b.t) <= 1e-12
        assert abs(a.xi - b.xi) <= 1e-12


@pytest.mark.parametrize("sigma_max", (0.5, 0.99))
def test_a_side_through_a_zero_still_aborts_the_walk(sigma_max: float) -> None:
    # a corner (sigma_max 0.5) or the middle node of the top side sits on the zero
    t0 = scan_critical_line(415.0, 415.2)[0].t
    rect = Rectangle(0.01, sigma_max, 414.0, t0)
    params = auto_params(complex(0.01, t0), 1e-9)
    assert zero_scan._walk_params(complex(0.01, t0), lambda: params)[0] != params
    with pytest.raises(BoundaryError, match="nudge"):
        rectangle_winding(rect)


def _boundary_error_at_full_accuracy(monkeypatch, kernel_calls, rect: Rectangle, sample_corner: complex) -> None:
    # the node 1/2 + i t_min of rect, whose t_min sits 1e-7 above the second
    # zero, where |zeta| = 1.1e-7: its sample is certified but below 2e-6, so
    # the node is evaluated again at params, and that value raises
    params = auto_params(zero_scan._worst_corner(rect), 1e-9)
    sample, _ = zero_scan._walk_params(sample_corner, lambda: params)
    evaluate = zero_scan.zeta_gb
    calls = []

    def record(s, p=None, **kwargs):
        result = evaluate(s, p, **kwargs)
        calls.append((s, p, result))
        return result

    monkeypatch.setattr(zero_scan, "zeta_gb", record)
    kernel_calls.clear()
    with pytest.raises(BoundaryError, match="nudge"):
        rectangle_winding(rect)
    node = complex(0.5, rect.t_min)
    ((p1, sampled),) = [(p, values[nodes.index(node)]) for nodes, p, values in kernel_calls if node in nodes]
    ((p2, full),) = [(p, result) for s, p, result in calls if s == node]
    assert (p1, p2) == (sample, params)
    assert 2.0**10 * remainder_bound(node, sample.cutoff_n, sample.tail_order) < abs(sampled) < 2e-6
    assert abs(full.value) < 1e-6


def test_only_full_accuracy_values_raise_a_boundary_error(monkeypatch, kernel_calls) -> None:
    # the node is the fifth of the bottom side, which stops at sigma = 2,
    # cut into 10 steps; the rectangle is not symmetric about the line, so
    # it walks its closed path, sampled at (-0.5, 100), its right side at
    # sigma = 2 in one step
    t_min = scan_critical_line(20.5, 21.5)[0].t + 1e-7
    rect = Rectangle(-0.5, 3.5, t_min, 100.0)
    _boundary_error_at_full_accuracy(monkeypatch, kernel_calls, rect, complex(-0.5, 100.0))


def test_a_mirrored_walk_leaves_boundary_errors_to_full_accuracy_values(monkeypatch, kernel_calls) -> None:
    # the node is the first of the right half, sampled at (1/2, 100)
    t_min = scan_critical_line(20.5, 21.5)[0].t + 1e-7
    rect = Rectangle(0.01, 0.99, t_min, 100.0)
    _boundary_error_at_full_accuracy(monkeypatch, kernel_calls, rect, complex(0.5, 100.0))


def _cost(params: EvalParams) -> int:
    # the schedule's cost rule, in Dirichlet terms
    return params.cutoff_n + zeta_core._TAIL_TERMS * params.tail_order


def test_the_sampler_never_costs_more_than_params() -> None:
    # the sample is the cheapest entry, by the schedule's cost N + 3 nu, that
    # bounds the corner by the sample accuracy, so params meeting that bound
    # cost no less
    eps = zero_scan._SAMPLE_EPS
    explicit = (EvalParams(16, 2), EvalParams(40, 6), EvalParams(1300, 4))
    for t in (0.0, 1.0, 5.0, 14.0, 30.0, 60.0, 100.0, 250.0, 499.0, 500.0):
        for sigma in (-1.0, 0.01, 0.5, 0.99):
            corner = complex(sigma, t)
            for params in (auto_params(corner, 1e-9), auto_params(corner, 1e-12)) + explicit:
                sample, _ = zero_scan._walk_params(corner, lambda: params)
                assert remainder_bound(corner, sample.cutoff_n, sample.tail_order) <= eps
                if remainder_bound(corner, params.cutoff_n, params.tail_order) <= eps:
                    assert _cost(sample) <= _cost(params)
    # where no schedule entry applies, far left of the strip, the full params
    # are the sample, and a tail order too small there is refused before any
    # node is built; both callers refuse |t| above 500 before they sample
    assert zero_scan._walk_params(complex(-50.0, 10.0), lambda: EvalParams(1300, 29))[0] == EvalParams(1300, 29)
    with pytest.raises(ParameterError, match="tail order 4 too small"):
        zero_scan._walk_params(complex(-60.0, 10.0), lambda: explicit[2])


def test_the_sample_accuracy_leaves_the_exact_pass_to_nodes_near_a_zero(monkeypatch) -> None:
    # a sample certifies where |zeta| exceeds 2^10 times the sample accuracy,
    # 1/32: no base node of the tall strip rectangle, mirrored or closed (its
    # sides' smallest |zeta| is 0.32), and no node of the 0..499 grid takes
    # the exact pass, and
    # under 2 % of the nodes walked by the zeros-desk windows [10k, 10k + 10] do
    walk = zero_scan._walk
    walks = []  # (nodes, exact passes, whether the walk has sides) of each walk

    def counted(nodes, segments, sample, bound, full, floor=0.0):
        # the walk reads full() once per exact pass
        calls = []
        values = walk(nodes, segments, sample, bound, lambda: calls.append(None) or full(), floor)
        walks.append((len(nodes), len(calls), bool(segments)))
        return values

    monkeypatch.setattr(zero_scan, "_walk", counted)
    assert rectangle_winding(TALL_CLOSED)[0] == rectangle_winding(TALL)[0] == 269
    assert len(scan_critical_line(0.0, 499.0)) == 269
    assert [(nodes, exact) for nodes, exact, sided in walks if sided] == [(4000, 0), (2005, 0), (1997, 0)]
    walks.clear()
    for k in range(10):
        scan_critical_line(10.0 * k, 10.0 * k + 10.0)
    walked, exact = sum(w[0] for w in walks), sum(w[1] for w in walks)
    assert walked == 410 and exact < 0.02 * walked


def test_winding_params_meet_their_target_at_the_worst_corner() -> None:
    # the closed walk of (0.01, 0.98) and the mirrored walk of (0.01, 0.99):
    # (rectangle, base nodes); the mirrored walk's params are still chosen at
    # the whole rectangle's worst corner, sigma = 0.01
    for rect, nodes in ((Rectangle(0.01, 0.98, 493.0, 499.0), 56), (Rectangle(0.01, 0.99, 493.0, 499.0), 33)):
        chosen = []
        pick = zero_scan.auto_params
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zero_scan, "auto_params", lambda s, eps: chosen.append(pick(s, eps)) or chosen[-1])
            # the fallback params are picked on first need: every sample is certified here
            assert rectangle_winding(rect)[0] == 5
            assert chosen == []
            # with no sample certified, every node takes the exact pass at them
            exact = []
            evaluate = zero_scan.zeta_gb
            patch.setattr(zero_scan, "zeta_gb", lambda s, p: exact.append(p) or evaluate(s, p))
            patch.setattr(zero_scan, "_SAMPLE_MARGIN", math.inf)
            assert rectangle_winding(rect)[0] == 5
        (params,) = chosen
        assert len(exact) == nodes and set(exact) == {params}
        # chosen at sigma_max they bounded 4.2e-7 at sigma = 0.01
        assert remainder_bound(complex(0.01, 499.0), params.cutoff_n, params.tail_order) <= 1e-9
    # beyond the supported range the rectangle is refused before any node
    with pytest.raises(ParameterError, match="supported range"):
        rectangle_winding(Rectangle(0.01, 0.99, 600.0, 601.0))


def test_scan_config_defaults() -> None:
    cfg = ScanConfig()
    assert (cfg.step, cfg.tol, cfg.max_iter, cfg.strict_refine) == (0.25, 1e-9, 50, False)


def test_zero_record_validation() -> None:
    params = EvalParams(16, 2)
    with pytest.raises(ParameterError):
        ZeroRecord(s=complex(0.5, -1.0), z_modulus=0.0, q_value=0j, refine_iterations=0, params_used=params)
    with pytest.raises(ParameterError):
        ZeroRecord(s=complex(1.5, 14.0), z_modulus=0.0, q_value=0j, refine_iterations=0, params_used=params)
    # values the record writers refuse: the readers accepted them
    inf, nan = math.inf, math.nan
    for field, value, message in (
        ("s", complex(0.5, inf), "s must be finite"),
        ("z_modulus", nan, "z_modulus must be"),
        ("z_modulus", -1.0, "z_modulus must be"),
        ("z_modulus", inf, "z_modulus must be"),
        ("q_value", complex(inf, 0.0), "q_value must be finite"),
        ("q_value", complex(0.0, nan), "q_value must be finite"),
        ("refine_iterations", -3, "refine_iterations must be"),
        ("refine_iterations", True, "refine_iterations must be"),
        ("refine_iterations", 2.0, "refine_iterations must be"),
    ):
        fields = dict(s=complex(0.5, 14.0), z_modulus=0.0, q_value=0j, refine_iterations=0, params_used=params)
        fields[field] = value
        with pytest.raises(ParameterError, match=message):
            ZeroRecord(**fields)
    # t and xi are read from s
    rec = ZeroRecord(s=complex(0.75, 14.0), z_modulus=0.0, q_value=0j, refine_iterations=0, params_used=params)
    assert (rec.t, rec.xi) == (14.0, 0.25)


# ---------------------------------------------------------------------------
# winding counts
# ---------------------------------------------------------------------------


def test_count_around_the_first_zero() -> None:
    count, residual = rectangle_winding(Rectangle(0.01, 0.99, 0.1, 16.0))
    assert count == 1
    assert residual < 0.25


def test_count_in_an_empty_rectangle() -> None:
    count, _ = rectangle_winding(Rectangle(0.01, 0.99, 0.1, 10.0))
    assert count == 0


@pytest.mark.parametrize("t_max", (100.0, 200.0, 300.0, 400.0, 499.0))
def test_a_mirrored_count_equals_the_closed_count(t_max: float) -> None:
    # (0.01, 0.99) walks its right half, (0.01, 0.98) its closed boundary;
    # Kadiri's zero-free region leaves 0.98 < sigma < 0.99 empty for t <= 500,
    # so both hold the same zeros, over 0.1..t_max and over the ten audit
    # windows. So does the audit's (-1, 2), which holds every nontrivial zero
    # of its window and walks its right half, the side at sigma = 2 in one step.
    rects = [(0.1, t_max)] + ([(lo, lo + 4.0) for lo in AUDIT_WINDOWS] if t_max == 499.0 else [])
    for t_min, t_top in rects:
        mirrored, residual = rectangle_winding(Rectangle(0.01, 0.99, t_min, t_top))
        closed, _ = rectangle_winding(Rectangle(0.01, 0.98, t_min, t_top))
        audit, audit_residual = rectangle_winding(Rectangle(-1.0, 2.0, t_min, t_top))
        assert mirrored == closed == audit
        assert residual < 1e-3 and audit_residual < 1e-3
    assert mirrored == {100.0: 29, 200.0: 79, 300.0: 138, 400.0: 202, 499.0: 3}[t_max]


def test_an_off_line_pair_counts_in_both_walks(monkeypatch) -> None:
    # zeta h, with h(s) = (s - rho)(s - 1 + conj rho) / (s - c)^2, has the
    # off-line pair rho, 1 - conj rho on top of zeta's zeros and a double pole
    # outside; h(s) = conj h(1 - conj s), so zeta h keeps the mirror identity,
    # and both walks count the pair
    rho, c = complex(0.8, 253.0), complex(0.5, 260.0)
    walk = zero_scan._walk

    def h(s: complex) -> complex:
        return (s - rho) * (s - 1 + rho.conjugate()) / (s - c) ** 2

    for s in (complex(0.3, 251.0), complex(0.95, 254.5)):
        assert abs(h(s) - h(1 - s.conjugate()).conjugate()) <= 1e-15
    true_count, _ = rectangle_winding(Rectangle(0.01, 0.98, 250.0, 254.0))
    walked = []  # the nodes of each walk

    def stub(nodes, *args):
        walked.append(nodes)
        return [value * h(z) for z, value in zip(nodes, walk(nodes, *args))]

    monkeypatch.setattr(zero_scan, "_walk", stub)
    mirrored, residual = rectangle_winding(Rectangle(0.01, 0.99, 250.0, 254.0))
    closed, _ = rectangle_winding(Rectangle(0.01, 0.98, 250.0, 254.0))
    assert mirrored == closed == true_count + 2 == 4
    assert residual < 1e-3
    # h turns by more than pi/2 along the audit rectangle's side at sigma = 2,
    # so the guard splits that one step where zeta alone needs none
    walked.clear()
    audit_count, residual = rectangle_winding(Rectangle(-1.0, 2.0, 250.0, 254.0))
    assert audit_count == 4 and residual < 1e-3
    assert [len(nodes) for nodes in walked] == [14, 1, 1]
    assert [nodes[0].real for nodes in walked[1:]] == [2.0, 2.0]


def test_zeta_keeps_its_phase_below_asin_of_zeta_two_minus_one_at_sigma_two() -> None:
    # |zeta(2 + it) - 1| <= zeta(2) - 1, so a side in sigma >= 2 turns by
    # less than twice this, below pi/2, and is walked in one step
    rng = random.Random(2029)
    limit = math.asin(math.pi**2 / 6 - 1)
    for t in [0.0, 500.0] + [rng.uniform(0.0, 500.0) for _ in range(198)]:
        assert abs(cmath.phase(zeta_gb(complex(2.0, t)).value)) < limit


def test_a_closed_walk_takes_a_side_in_sigma_two_or_more_in_one_step(kernel_calls) -> None:
    rect = Rectangle(0.01, 2.5, 0.1, 100.0)
    count, residual = rectangle_winding(rect)
    assert count == 29 and residual < 1e-3
    # the walk stops at sigma = 2: bottom 8 steps, right side one, top 8,
    # left 400, each corner one node
    (walked,) = [nodes for nodes, _, _ in kernel_calls if len(nodes) > 1]
    assert len(walked) == 417
    assert [walked[k] for k in (0, 8, 9, 17)] == [0.01 + 0.1j, 2.0 + 0.1j, 2.0 + 100.0j, 0.01 + 100.0j]


def test_a_rectangle_far_outside_the_strip_walks_few_nodes(kernel_calls) -> None:
    # zeta has no zero or pole in sigma > 1: a rectangle in sigma >= 2 counts
    # 0 unwalked (the walk back from sigma = 1000 overflowed), and a wider
    # one stops at sigma = 2 (it built 4e300 nodes): 8 + 1 + 8 + 120 nodes
    assert rectangle_winding(Rectangle(3.0, 1000.0, 10.0, 20.0)) == (0, 0.0)
    assert kernel_calls == []
    count, residual = rectangle_winding(Rectangle(0.01, 1e300, 0.1, 30.0))
    assert count == 3 and residual < 1e-3
    assert [len(nodes) for nodes, _, _ in kernel_calls] == [137]
    assert max(z.real for z in kernel_calls[0][0]) == 2.0
    # symmetry is read from the rectangle as given: this one walks its right
    # half, 1/2 -> 2 and back, where its closed walk from sigma = -1e15
    # would be refused
    kernel_calls.clear()
    params = EvalParams(200, 10)
    count, residual = rectangle_winding(Rectangle(-1e15, 1e15 + 1.0, 0.1, 30.0), params)
    assert count == 3 and residual < 1e-3
    assert [len(nodes) for nodes, _, _ in kernel_calls] == [14]
    # refused before any node is built, also with explicit params: a tail
    # order too small at the path's smallest sigma, and |t| above the cap,
    # which is checked before sigma_min >= 2 returns
    kernel_calls.clear()
    with pytest.raises(ParameterError, match="tail order 10 too small"):
        rectangle_winding(Rectangle(-1e300, 0.99, 0.1, 30.0), params)
    for rect in (Rectangle(0.01, 0.99, 600.0, 601.0), Rectangle(3.0, 4.0, -1e300, 20.0)):
        with pytest.raises(ParameterError, match="exceeds the supported range 500.0"):
            rectangle_winding(rect, EvalParams(1300, 4))
    assert kernel_calls == []


def test_boundary_zero_aborts_the_walk() -> None:
    # top-right corner sits on the first zero
    with pytest.raises(BoundaryError, match="nudge"):
        rectangle_winding(Rectangle(0.01, 0.5, 0.1, ORACLE_ORDINATES[0]))


def test_a_winding_far_from_an_integer_is_inconclusive(monkeypatch) -> None:
    # a third of a turn added to the first step of the closed walk leaves the
    # total a third away from the one zero inside (a quarter would sit on the
    # threshold); its residual is rounding only
    walk = zero_scan._phase_walk
    extra = [math.tau / 3]
    monkeypatch.setattr(zero_scan, "_phase_walk", lambda *args: walk(*args) + (extra.pop() if extra else 0.0))
    with pytest.raises(InconclusiveError, match="away from an integer") as caught:
        rectangle_winding(Rectangle(0.1, 0.89, 13.5, 14.5))
    assert caught.value.residual == pytest.approx(1 / 3, abs=1e-6)


def test_a_mirrored_winding_far_from_an_integer_is_inconclusive(monkeypatch) -> None:
    # the half walk's phase counts in units of pi, so a sixth of a turn added
    # to its first step leaves the count a third away from the one zero
    # inside; the residual also carries the samples' phase errors on the line
    walk = zero_scan._phase_walk
    extra = [math.tau / 6]
    monkeypatch.setattr(zero_scan, "_phase_walk", lambda *args: walk(*args) + (extra.pop() if extra else 0.0))
    with pytest.raises(InconclusiveError, match="away from an integer") as caught:
        rectangle_winding(Rectangle(0.1, 0.9, 13.5, 14.5))
    assert caught.value.residual == pytest.approx(1 / 3, abs=1e-3)


def test_rectangle_validation() -> None:
    with pytest.raises(ParameterError):
        Rectangle(0.9, 0.1, 0.1, 1.0)
    with pytest.raises(ParameterError):
        Rectangle(0.1, 0.9, 2.0, 1.0)
    with pytest.raises(ParameterError):
        Rectangle(-0.5, 0.5, 0.0, 3.0)  # bottom edge runs through s = 0
    with pytest.raises(ParameterError):
        Rectangle(1.0, 2.0, -1.0, 1.0)  # left edge runs through s = 1
    with pytest.raises(ParameterError):
        Rectangle(False, True, 1.0, 2.0)  # bool is an int subclass, but no coordinate
    with pytest.raises(ParameterError):
        rectangle_winding("box")  # type: ignore[arg-type]
    # a pair is no EvalParams; every sample here certifies, so it used to
    # return a count and fail only on an exact fallback
    with pytest.raises(ParameterError, match="EvalParams"):
        rectangle_winding(Rectangle(0.01, 0.99, 0.1, 30.0), (30, 5))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_records() -> list[ZeroRecord]:
    return scan_critical_line(14.0, 22.0)


def test_csv_round_trip_is_byte_identical(two_records) -> None:
    text = write_records_csv(two_records)
    assert text.splitlines()[0] == ",".join(RECORD_FIELDS)
    back = read_records_csv(text)
    assert write_records_csv(back) == text
    assert back == two_records


def test_jsonl_round_trip_is_byte_identical(two_records) -> None:
    text = write_records_jsonl(two_records)
    assert len(text.splitlines()) == len(two_records)
    back = read_records_jsonl(text)
    assert write_records_jsonl(back) == text
    assert back == two_records


def test_jsonl_reader_skips_blank_lines(two_records) -> None:
    text = "\n" + write_records_jsonl(two_records) + "\n\n"
    assert len(read_records_jsonl(text)) == len(two_records)


def test_malformed_records_raise_parameter_error(two_records) -> None:
    header, first, _ = write_records_csv(two_records).split("\n", 2)
    cells = first.split(",")
    no_xi = ",".join(f for f in RECORD_FIELDS if f != "xi") + "\n" + ",".join(cells[:2] + cells[3:])
    short = header + "\n" + ",".join(cells[:5])
    not_a_number = header + "\n" + first + "\n" + ",".join(cells[:6] + ["many"] + cells[7:])
    bad_json = write_records_jsonl(two_records) + '{"t": 1,\n'
    cases = (
        (read_records_csv, no_xi, "line 2: xi is missing"),
        (read_records_csv, short, "line 2: q_im is missing"),
        (read_records_csv, not_a_number, "line 3: cannot read N = 'many'"),
        (read_records_jsonl, bad_json, "line 3: not a JSON object"),
    )
    for reader, text, message in cases:
        with pytest.raises(ParameterError, match=message):
            reader(text)
    # a readable row that breaks a record invariant keeps the record's own
    # error: t = inf, z_modulus = nan or -1, q_re = inf and iterations = -3
    # were read, and write_records_csv failed on them with a bare ValueError
    for column, cell, message in (
        (0, "-1", "upper half plane"),
        (0, "inf", "s must be finite"),
        (3, "nan", "z_modulus must be"),
        (3, "-1", "z_modulus must be"),
        (4, "inf", "q_value must be finite"),
        (8, "-3", "refine_iterations must be"),
    ):
        row = cells[:column] + [cell] + cells[column + 1:]
        with pytest.raises(ParameterError, match=message):
            read_records_csv(header + "\n" + ",".join(row))
        with pytest.raises(ParameterError, match=message):
            read_records_jsonl(json.dumps(dict(zip(RECORD_FIELDS, row))) + "\n")


def test_a_row_whose_xi_is_not_re_s_minus_a_half_is_refused(two_records) -> None:
    header, first, _ = write_records_csv(two_records).split("\n", 2)
    cells = first.split(",")
    text = header + "\n" + first + "\n" + ",".join(cells[:2] + ["0.25"] + cells[3:])
    with pytest.raises(ParameterError, match=r"line 3: xi = 0\.25 is not re_s - 0\.5"):
        read_records_csv(text)


def test_scan_matches_the_trisection_oracle() -> None:
    for bracket, ref in zip(((14.0, 14.3), (20.9, 21.2), (24.9, 25.2)), ORACLE_ORDINATES):
        assert oracles.bisect_modulus_zero(*bracket) == pytest.approx(ref, abs=1e-9)
