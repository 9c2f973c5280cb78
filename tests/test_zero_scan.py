"""Scanner, refinement, winding-count, and persistence tests.

The frozen ordinates below come from tests/oracles.py
(bisect_modulus_zero on the brackets (14, 14.3), (20.9, 21.2),
(24.9, 25.2) with the transcribed evaluator at cutoff 200, order 15);
the oracle itself is validated against mpmath in test_oracles.py.
"""

from __future__ import annotations

import cmath
import itertools
import logging
import math
import random

import mpmath
import pytest

import oracles
from zetagb import zero_scan, zeta_core
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
from zetagb.zeta_core import (EvalParams, auto_params, dirichlet_line, dirichlet_partial_sum,
                              remainder_bound, zeta_gb)

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


def test_refine_evaluates_once_per_newton_point(monkeypatch) -> None:
    calls: list[tuple[complex, bool]] = []
    passes: list[tuple[complex, bool]] = []
    evaluate, summed = zero_scan.zeta_gb, zeta_core.dirichlet_partial_sum
    monkeypatch.setattr(
        zero_scan,
        "zeta_gb",
        lambda s, params, *, derivative=False: calls.append((s, derivative))
        or evaluate(s, params, derivative=derivative),
    )
    monkeypatch.setattr(
        zeta_core,
        "dirichlet_partial_sum",
        lambda s, cutoff_n, *, derivative=False: passes.append((s, derivative))
        or summed(s, cutoff_n, derivative=derivative),
    )
    # the seed and each Newton step are evaluated once through zeta_gb,
    # together with their derivative; the polish point, counted in
    # refine_iterations, makes one value-only Dirichlet pass, and Q at the
    # kept point reads its head, so Q makes no pass
    rec = refine_zero(complex(0.5, 14.1))
    assert rec.refine_iterations >= 2
    assert len(calls) == rec.refine_iterations
    assert all(derivative for _, derivative in calls)
    assert [s for s, derivative in passes if derivative] == [s for s, _ in calls]
    assert [s for s, derivative in passes if not derivative] == [rec.s]
    # a conjugated iterate is not evaluated again: reflection keeps |Z|; Q
    # at the reflected point makes its own pass (on a cold memo: the first
    # refinement kept the head there)
    calls.clear()
    passes.clear()
    zeta_core._forget_heads()
    rec = refine_zero(complex(0.5, -14.1))
    assert len(calls) == rec.refine_iterations
    assert all(derivative for _, derivative in calls)
    assert [s for s, derivative in passes if not derivative] == [rec.s.conjugate(), rec.s]
    assert rec.z_modulus == abs(evaluate(rec.s, rec.params_used).value)


def test_refine_rejects_seeds_outside_the_strip() -> None:
    with pytest.raises(ParameterError):
        refine_zero(complex(1.5, 14.0))
    with pytest.raises(ParameterError):
        refine_zero(complex(-0.2, 14.0))


def test_refine_reports_divergence() -> None:
    # far from any zero the iteration wanders out of the strip
    with pytest.raises(RefinementError):
        refine_zero(complex(0.5, 2.0))


def test_refine_reports_iteration_exhaustion() -> None:
    with pytest.raises(RefinementError, match="no convergence"):
        refine_zero(complex(0.5, 14.25), max_iter=1)


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


# One Newton step from the seed that a 0.5 grid gives leaves |Z| near 9e-6, far above
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
    """(nodes, params, values) of every node-kernel call a walk makes."""
    calls = []
    kernel = zero_scan._zeta_nodes

    def record(nodes, heads, params):
        values, slopes = kernel(nodes, heads, params)
        calls.append((nodes, params, list(values)))
        return values, slopes

    monkeypatch.setattr(zero_scan, "_zeta_nodes", record)
    return calls


def test_scan_walks_the_grid_once(record_call_stacks, kernel_calls) -> None:
    calls = record_call_stacks(
        ("scan_critical_line", "refine_zero", "q_gb", "zeta_gb", "dirichlet_partial_sum")
    )
    records = zero_scan.scan_critical_line(0, 30)
    # one kernel call finishes every grid node, t = 0, 0.25, ..., 30, once,
    # from one line walk's Dirichlet sums; no node falls back to zeta_gb, so
    # only refinement and Q make their own pass. Each zero's value-only
    # polish pass goes through a zeta_core helper, not the node kernel as
    # zero_scan binds it, so that kernel still sees walk calls only.
    assert [len(nodes) for nodes, _, _ in kernel_calls] == [121]
    assert calls.count(("scan_critical_line", "zeta_gb")) == 0
    passes = [stack for stack in calls if stack[-1] == "dirichlet_partial_sum"]
    assert passes
    assert all({"refine_zero", "q_gb"} & set(stack) for stack in passes)
    assert calls.count(("scan_critical_line", "refine_zero", "dirichlet_partial_sum")) == len(records) == 3


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
    # the boundary is one closed walk, whose one kernel call finishes each
    # base node once: a side's nodes from its first corner up to the next
    # corner, which is the next side's first node, so each corner is one node
    assert calls.count(("_dirichlet_path",)) == 1
    (walked,) = [nodes for nodes, _, _ in kernel_calls if len(nodes) > 1]
    assert len(walked) == sum(segments)
    assert len(set(walked)) == len(walked)
    assert [walked.count(corner) for corner in rect.corners()] == [1, 1, 1, 1]
    firsts = [0, *itertools.accumulate(segments)][:4]
    assert [walked[k] for k in firsts] == list(rect.corners())
    # only the phase-walk splits (one-node walks) and uncertified samples
    # (zeta_gb at params) make their own pass, one each
    splits = sum(len(nodes) == 1 for nodes, _, _ in kernel_calls)
    assert splits == (0 if rect.t_min == 0.1 else 2)  # as the cases above say
    assert calls.count(("dirichlet_partial_sum",)) == splits
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
    assert calls.count(("_dirichlet_path",)) == 1
    (walked,) = [nodes for nodes, _, _ in kernel_calls if len(nodes) > 1]
    assert len(walked) == sum(segments) + 1
    assert len(set(walked)) == len(walked)
    _, right_low, right_high, _ = rect.corners()
    vertices = [complex(0.5, rect.t_min), right_low, right_high, complex(0.5, rect.t_max)]
    firsts = list(itertools.accumulate(segments, initial=0))
    assert [walked[k] for k in firsts] == vertices
    assert all(z.real >= 0.5 for z in walked)
    assert calls.count(("siegel_theta",)) == 2
    assert sum(len(nodes) == 1 for nodes, _, _ in kernel_calls) == splits
    assert calls.count(("dirichlet_partial_sum",)) == splits
    assert calls.count(("zeta_gb", "dirichlet_partial_sum")) == calls.count(("zeta_gb",))


def test_scan_validation() -> None:
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


def test_the_fallback_recovers_a_zero_that_newton_leaves(monkeypatch, caplog) -> None:
    # the interpolated seed 333.74 is 0.1 from the zero: Illinois must narrow
    # the bracket to within 1e-3 of it before the Newton polish
    _newton_within(monkeypatch, 1e-3)
    with caplog.at_level(logging.WARNING, logger="zetagb.zero_scan"):
        records = scan_critical_line(333.0, 335.0, ScanConfig(step=0.5))
    assert [round(rec.t, 4) for rec in records] == [333.6454, 334.2114]
    assert 333.5 < records[0].t < 334.0
    # the Newton polish measures xi rather than keeping the Illinois point
    assert records[0].refine_iterations >= 1
    assert abs(records[0].xi) <= 1e-9
    assert caplog.text == ""


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
    # 2.71 from the 8-node interpolant
    assert len(zeros_below_499) == 269
    iterations = [rec.refine_iterations for rec in zeros_below_499]
    assert sum(iterations) / len(iterations) <= 2.75
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


@pytest.mark.parametrize(("t_min", "t_max", "stencil"), (
    (14.0, 16.0, [14.0 + 0.25 * k for k in range(8)]),     # at the window's start
    (12.5, 14.25, [12.5 + 0.25 * k for k in range(8)]),    # at its end
    (13.0, 14.2, [13.0 + 0.25 * k for k in range(5)] + [14.2]),  # ending on an off-grid t_max
    (14.0, 14.25, [14.0, 14.25]),                           # a grid of two nodes
), ids=("start", "end", "off-grid", "two-nodes"))
def test_the_seed_lies_strictly_inside_its_bracket(seeds, t_min: float, t_max: float,
                                                   stencil: list[float]) -> None:
    records = scan_critical_line(t_min, t_max)
    assert [round(rec.t, 6) for rec in records] == [14.134725]
    ((ts, ta, tb, seed, _),) = seeds
    # the stencil is shifted to stay on the grid and keeps both bracket ends
    assert ts == pytest.approx(stencil, abs=1e-12)
    assert ta < seed < tb and ta < 14.134725 < tb
    assert abs(seed - records[0].t) < 1e-3


def test_two_nodes_seed_at_the_regula_falsi_point(seeds) -> None:
    scan_critical_line(14.0, 14.25)
    ((_, _, _, seed, falsi),) = seeds
    assert seed == pytest.approx(falsi, rel=4e-16)
    rng = random.Random(21003)
    for _ in range(200):
        ta = rng.uniform(0.0, 499.0)
        tb = ta + rng.uniform(0.01, 0.5)
        ha, hb = rng.uniform(1e-6, 10.0), -rng.uniform(1e-6, 10.0)
        falsi = ta + (tb - ta) * ha / (ha - hb)
        assert zero_scan._interpolated_seed([ta, tb], [ha, hb], ta, tb, ha, hb) == pytest.approx(falsi, rel=4e-16)


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
    partial_sum = zeta_core.dirichlet_partial_sum

    def record(s, cutoff_n, **kwargs):
        cutoffs.append(cutoff_n)
        return partial_sum(s, cutoff_n, **kwargs)

    monkeypatch.setattr(zeta_core, "dirichlet_partial_sum", record)
    # the grid walks its sums; every exact pass is a Newton point or the
    # polish step, and Q reads the head of the last one, the memo's only
    # entry for that zero. The README quotes these counts: 3 passes and 120
    # terms a zero at (41, 11) over 0..100, and 997 passes for 269 zeros
    # over 0..499, one memo head per refined zero
    zeta_core._forget_heads()
    records = zero_scan.scan_critical_line(0, 100)
    assert len(records) == 29
    assert len(cutoffs) == 87
    assert set(cutoffs) == {41}
    assert sum(n - 1 for n in cutoffs) == 120 * len(records) <= 200 * len(records)
    assert len(zeta_core._HEADS) == 29
    cutoffs.clear()
    zeta_core._forget_heads()
    assert len(zero_scan.scan_critical_line(0, 499)) == 269
    assert len(cutoffs) == 997
    assert len(zeta_core._HEADS) == 269


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
def sampled_walks() -> list[tuple[list[complex], list[int], EvalParams, EvalParams, list[complex]]]:
    # (nodes, segments, params, sample params, returned values) of every walk
    # made by the 0..499 grid at step 0.25, by the strip rectangles of ten
    # 4-wide audit windows in [250, 499] and by the tall strip rectangle,
    # mirrored and by their closed twins, splits included
    walks = []
    walk = zero_scan._walk
    caller = {}

    def record(nodes, segments, sample, exact, floor=0.0):
        values = walk(nodes, segments, sample, exact, floor)
        walks.append((nodes, segments, caller["params"], sample, values))
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
    # the walk's vertices in order, a closed walk's ending where it starts;
    # an open walk's segments add up to one less than its nodes, so its
    # last vertex is its last node and the ring's extra node is never read
    ring = nodes + nodes[:1]
    return [ring[k] for k in itertools.accumulate(segments, initial=0)]


def _sides(nodes: list[complex], segments: list[int]):
    # (start, stop, the side's nodes with both ends) of each straight side of a walk
    ring = nodes + nodes[:1]
    firsts = list(itertools.accumulate(segments, initial=0))
    for a, b in zip(firsts, firsts[1:]):
        yield ring[a], ring[b], ring[a:b + 1]


def _samples(nodes: list[complex], segments: list[int], sample: EvalParams):
    # each node's sampled value, truncation bound and rounding allowance,
    # recomputed as the walk made them
    n, nu = sample.cutoff_n, sample.tail_order
    path = _path(nodes, segments)
    vertices = path[:-1] if sum(segments) == len(nodes) else path
    heads = (zeta_core._dirichlet_path(vertices, segments, n) if segments
             else [dirichlet_partial_sum(nodes[0], n)])
    values, _ = zeta_core._zeta_nodes(nodes, heads, sample)
    for z, value, rounding in zip(nodes, values, zero_scan._rounding(path, len(nodes), n)):
        yield z, value, remainder_bound(z, n, nu), rounding


def test_each_sample_lies_within_its_certificate(sampled_walks) -> None:
    nodes_checked = 0
    for nodes, segments, params, sample, values in sampled_walks:
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
    tall = [nodes for nodes, segments, *_ in sampled_walks if sum(segments) == len(nodes) > 3000]
    assert [len(nodes) for nodes in tall] == [2 * 4 + 2 * 1996]
    mirrored = [(len(nodes), segments) for nodes, segments, *_ in sampled_walks if sum(segments) == len(nodes) - 1
                and len(segments) == 3]
    assert mirrored == [(25, [4, 16, 4])] * 10 + [(2005, [4, 1996, 4])]


def test_a_vertical_walk_is_bounded_at_its_far_end(sampled_walks, monkeypatch) -> None:
    # the walk tests every node of a vertical side against the bound at its
    # end farther from the real axis first; that bound is at least each
    # node's, also on a line that crosses the axis
    crossing = [complex(0.5, -3.0 + 0.25 * k) for k in range(21)]
    sides = [(side, sample) for nodes, segments, _, sample, _ in sampled_walks
             for side in _sides(nodes, segments)]
    vertical = [(side, sample) for side, sample in sides if side[0].real == side[1].real]
    # the grid, two per closed walk and one per mirrored walk
    assert len(vertical) == 1 + 2 * 11 + 11 and len(sides) == 1 + 4 * 11 + 3 * 11
    for (start, stop, nodes), sample in vertical + [((crossing[0], crossing[-1], crossing), EvalParams(16, 4))]:
        n, nu = sample.cutoff_n, sample.tail_order
        line_bound = remainder_bound(max(start, stop, key=lambda z: abs(z.imag)), n, nu)
        assert all(remainder_bound(z, n, nu) <= line_bound for z in nodes)
    # on the crossing line the walk's first bound is the far end's, and every
    # node still takes the decision of its own bound
    params, sample = EvalParams(40, 10), EvalParams(16, 4)
    bounded = []
    bound = zero_scan.remainder_bound
    monkeypatch.setattr(zero_scan, "remainder_bound", lambda s, *args: bounded.append(s) or bound(s, *args))
    values = zero_scan._walk(crossing, [20], sample, lambda z: zeta_gb(z, params).value)
    assert bounded[0] == complex(0.5, -3.0)
    for (z, sampled, bound, rounding), value in zip(_samples(crossing, [20], sample), values):
        certified = abs(sampled) > 2.0**10 * (bound + rounding)
        assert value == (sampled if certified else zeta_gb(z, params).value)


def test_a_horizontal_side_is_bounded_at_its_smaller_sigma(sampled_walks) -> None:
    # where nu + 1 < |t| ln N the bound falls as sigma grows along a side at
    # height t, so its end with the smaller sigma bounds every node; near
    # the real axis the rule does not apply and each node keeps its own
    rng = random.Random(20261019)
    checked = 0
    for _ in range(400):
        t = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 500.0)
        sigma_a, sigma_b = rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0)
        params = EvalParams(rng.randrange(2, 1200), rng.randrange(2, 26))
        n, nu = params.cutoff_n, params.tail_order
        if min(sigma_a, sigma_b) + 2 * nu + 1 <= 0 or sigma_a == sigma_b:
            continue
        start, stop = complex(sigma_a, t), complex(sigma_b, t)
        side = zero_scan._side_bound(start, stop, n, nu)
        if not nu + 1 < abs(t) * math.log(n):
            assert side == math.inf
            continue
        assert side == remainder_bound(min(start, stop, key=lambda z: z.real), n, nu)
        nodes = [start + (stop - start) * (k / 64) for k in range(64)] + [stop]
        assert all(remainder_bound(z, n, nu) <= side for z in nodes)
        checked += 1
    assert checked >= 100
    # the walked horizontal sides: the audit windows' take the side bound,
    # the tall rectangles' bottom sides at t = 0.1 read each node's bound;
    # a mirrored side runs from sigma = 1/2
    horizontal = [(side, sample) for nodes, segments, _, sample, _ in sampled_walks
                  for side in _sides(nodes, segments) if side[0].imag == side[1].imag]
    assert len(horizontal) == 2 * 11 + 2 * 11
    assert sum(start.real == 0.5 or stop.real == 0.5 for (start, stop, _), _ in horizontal) == 2 * 11
    for (start, stop, nodes), sample in horizontal:
        n, nu = sample.cutoff_n, sample.tail_order
        side = zero_scan._side_bound(start, stop, n, nu)
        assert (side == math.inf) == (start.imag == 0.1)
        assert all(remainder_bound(z, n, nu) <= side for z in nodes)


def test_the_rectangle_reads_one_bound_per_side(monkeypatch) -> None:
    # the closed walk reads one truncation bound per side, at the far end of
    # a vertical side and the sigma_min end of a horizontal one; a bottom
    # side at t = 0.1, where that rule does not apply, reads one per node
    bounded = []
    bound = zero_scan.remainder_bound
    monkeypatch.setattr(zero_scan, "remainder_bound", lambda s, *args: bounded.append(s) or bound(s, *args))
    high, low = Rectangle(0.01, 0.98, 250.0, 254.0), Rectangle(0.01, 0.98, 0.1, 30.0)
    rectangle_winding(high, EvalParams(200, 10))
    c = high.corners()
    assert bounded == [c[0], c[2], c[3], c[3]]
    bounded.clear()
    rectangle_winding(low, EvalParams(200, 10))
    c = low.corners()
    assert bounded == [c[2], c[3], c[3]] + [c[0] + (c[1] - c[0]) * (k / 4) for k in range(4)]


def test_the_mirrored_rectangle_reads_one_bound_per_side(monkeypatch) -> None:
    # the right half reads one bound per side: at sigma = 1/2 on a horizontal
    # side, at the far end of the vertical one; its bottom side at t = 0.1
    # reads one per node, and its last node, on the line, ends the top side
    bounded = []
    bound = zero_scan.remainder_bound
    monkeypatch.setattr(zero_scan, "remainder_bound", lambda s, *args: bounded.append(s) or bound(s, *args))
    high, low = Rectangle(0.01, 0.99, 250.0, 254.0), Rectangle(0.01, 0.99, 0.1, 30.0)
    rectangle_winding(high, EvalParams(200, 10))
    c = high.corners()
    assert bounded == [complex(0.5, 250.0), c[2], complex(0.5, 254.0)]
    bounded.clear()
    rectangle_winding(low, EvalParams(200, 10))
    c = low.corners()
    start = complex(0.5, 0.1)
    assert bounded == [c[2], complex(0.5, 30.0)] + [start + (c[1] - start) * (k / 4) for k in range(4)]


def test_a_walk_at_params_still_certifies_its_nodes(monkeypatch) -> None:
    # sampling at the params themselves is no licence to keep a walked value:
    # node 1 sits on the first zero, where the walk's |zeta| of 4.0e-11 is
    # below its certificate, so it makes the exact pass
    rec = refine_zero(complex(0.5, 14.1))
    params = rec.params_used
    monkeypatch.setattr(zero_scan, "_sample_params", lambda corner, p: p)
    grid, values = zero_scan._line_values(rec.t - 0.25, rec.t + 0.75, 0.25, params)
    assert len(grid) == 5 and grid[1] == rec.t
    assert values[1] == zeta_gb(complex(0.5, rec.t), params).value


def test_walks_read_few_truncation_bounds(record_call_stacks) -> None:
    params = zero_scan._refine_params(complex(0.5, 14.1), ScanConfig.tol)
    calls = record_call_stacks(("remainder_bound",))
    # params and sample params check one schedule bound each, each vertical
    # walk one, and only nodes that line bound cannot certify their own
    # (511 calls when every node read its own bound)
    assert len(zero_scan.scan_critical_line(0, 100)) == 29
    assert len(calls) <= 20
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
            nodes, segments, _, sample, _ = walk
            if id(walk) not in samples:
                samples[id(walk)] = list(_samples(nodes, segments, sample))
            z, sampled, bound, rounding = samples[id(walk)][k]
            exact = complex(mpmath.zeta(mpmath.mpc(z.real, z.imag)))
            assert abs(sampled - exact) <= bound + rounding


def test_a_node_on_a_zero_takes_the_full_pass(monkeypatch, kernel_calls) -> None:
    # t_min sits 2.7e-10 above the first zero: its sample is not certified
    t_min, t_max = 14.134725142, 60.0
    params = zero_scan._refine_params(complex(0.5, t_max), ScanConfig.tol)
    sample = zero_scan._sample_params(complex(0.5, t_max), params)
    assert sample != params
    evaluate = zero_scan.zeta_gb
    calls = []

    def record(s, p=None, **kwargs):
        calls.append((s, p))
        return evaluate(s, p, **kwargs)

    monkeypatch.setattr(zero_scan, "zeta_gb", record)
    sampled = scan_critical_line(t_min, t_max)
    # each node is sampled once, by its walk; only t_min makes one exact
    # pass at params, and the off-grid t_max is a one-node walk
    low, high = complex(0.5, t_min), complex(0.5, t_max)
    assert [p for nodes, p, _ in kernel_calls if low in nodes] == [sample]
    assert [p for s, p in calls if s == low] == [params]
    assert [(len(nodes), p) for nodes, p, _ in kernel_calls if high in nodes] == [(1, sample)]
    assert [p for s, p in calls if s == high] == []
    monkeypatch.setattr(zero_scan, "_sample_params", lambda corner, params: params)
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
    assert zero_scan._sample_params(complex(0.01, t0), params) != params
    with pytest.raises(BoundaryError, match="nudge"):
        rectangle_winding(rect)


def _boundary_error_at_full_accuracy(monkeypatch, kernel_calls, rect: Rectangle, sample_corner: complex) -> None:
    # the node 1/2 + i t_min of rect, whose t_min sits 1e-7 above the second
    # zero, where |zeta| = 1.1e-7: its sample is certified but below 2e-6, so
    # the node is evaluated again at params, and that value raises
    params = auto_params(zero_scan._worst_corner(rect), 1e-9)
    sample = zero_scan._sample_params(sample_corner, params)
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
    # the node is the fifth of the bottom side, cut into 16 steps; the
    # rectangle is not symmetric about the line, so it walks its closed
    # path, sampled at (-0.5, 100), its right side in sigma >= 2 in one step
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
                sample = zero_scan._sample_params(corner, params)
                assert remainder_bound(corner, sample.cutoff_n, sample.tail_order) <= eps
                if remainder_bound(corner, params.cutoff_n, params.tail_order) <= eps:
                    assert _cost(sample) <= _cost(params)
    # no schedule entry applies beyond the supported range: explicit params stay
    assert zero_scan._sample_params(complex(0.5, 600.0), explicit[2]) == explicit[2]


def test_the_sample_accuracy_leaves_the_exact_pass_to_nodes_near_a_zero(monkeypatch) -> None:
    # a sample certifies where |zeta| exceeds 2^10 times the sample accuracy,
    # 1/32: no base node of the tall strip rectangle, mirrored or closed (its
    # sides' smallest |zeta| is 0.32), and no node of the 0..499 grid takes
    # the exact pass, and
    # under 2 % of the nodes walked by the zeros-desk windows [10k, 10k + 10] do
    walk = zero_scan._walk
    walks = []  # (nodes, exact passes, whether the walk has sides) of each walk

    def counted(nodes, segments, sample, exact, floor=0.0):
        calls = []
        values = walk(nodes, segments, sample, lambda z: calls.append(z) or exact(z), floor)
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
    # beyond the supported range no sample cutoff applies, so the first need
    # comes first and refuses the rectangle
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
    # bottom 10 steps, right side one, top 10, left 400, each corner one node
    (walked,) = [nodes for nodes, _, _ in kernel_calls if len(nodes) > 1]
    assert len(walked) == 421
    assert [walked[k] for k in (0, 10, 11, 21)] == list(rect.corners())


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
    # a readable row that breaks a record invariant keeps the record's own error
    with pytest.raises(ParameterError, match="upper half plane"):
        read_records_csv(header + "\n" + ",".join(["-1"] + cells[1:]))


def test_a_row_whose_xi_is_not_re_s_minus_a_half_is_refused(two_records) -> None:
    header, first, _ = write_records_csv(two_records).split("\n", 2)
    cells = first.split(",")
    text = header + "\n" + first + "\n" + ",".join(cells[:2] + ["0.25"] + cells[3:])
    with pytest.raises(ParameterError, match=r"line 3: xi = 0\.25 is not re_s - 0\.5"):
        read_records_csv(text)


def test_scan_matches_the_trisection_oracle() -> None:
    for bracket, ref in zip(((14.0, 14.3), (20.9, 21.2), (24.9, 25.2)), ORACLE_ORDINATES):
        assert oracles.bisect_modulus_zero(*bracket) == pytest.approx(ref, abs=1e-9)
