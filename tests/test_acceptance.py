"""Acceptance suite: eleven numbered end-to-end checks, one test each.

Every test prints a single ``ACCEPTANCE nn PASS`` line on success (visible
with ``pytest -rA`` or ``-s``); a failed assertion yields the FAIL line in
the pytest report instead. Tolerances are pinned inline. Frozen reference
ordinates come from tests/oracles.py (trisection on the modulus with an
independently transcribed evaluator at cutoff 200, order 15), which is
itself validated against mpmath in test_oracles.py.
"""

from __future__ import annotations

import math
import random
import time

import pytest

import oracles
from zetagb import zeta_core
from zetagb.audit import audit_range, factorization_check, report_to_json
from zetagb.qfunction import consistency_identity, q_gb
from zetagb.zero_scan import Rectangle, ScanConfig, refine_zero, rectangle_winding, scan_critical_line
from zetagb.zeta_core import EvalParams, zeta_gb

_T0 = time.perf_counter()

ORACLE_ORDINATES = (14.13472514172102, 21.02203963877902, 25.010857580131244)
ROUNDED_ORDINATES = (14.134725, 21.022040, 25.010858)


def _passed(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS  {detail}")


@pytest.fixture(scope="module")
def zeros_to_50() -> list:
    return scan_critical_line(0.0, 50.0, ScanConfig(step=0.25, tol=1e-9))


def test_01_classical_values() -> None:
    params = EvalParams(50, 10)
    for s in (2, 0, -1):  # warm the coefficient caches before timing
        zeta_gb(s, params)
    zeta_core._forget_heads()  # but time three real Dirichlet passes
    start = time.perf_counter()
    z2 = zeta_gb(2, params).value.real
    z0 = zeta_gb(0, params).value.real
    zm1 = zeta_gb(-1, params).value.real
    elapsed = time.perf_counter() - start
    assert abs(z2 - math.pi**2 / 6) <= 1e-10
    assert abs(z0 - (-0.5)) <= 1e-10
    assert abs(zm1 - (-1.0 / 12.0)) <= 1e-9
    assert elapsed < 0.010
    _passed(1, f"zeta(2), zeta(0), zeta(-1) certified; {elapsed * 1e3:.2f} ms")


def test_02_parameter_self_consistency() -> None:
    rng = random.Random(20240811)
    start = time.perf_counter()
    worst = -math.inf
    for _ in range(100):
        s = complex(rng.uniform(0.01, 0.99), rng.uniform(-50.0, 50.0))
        base = max(16, math.ceil(2.0 * (abs(s.imag) + 1.0)))
        coarse = zeta_gb(s, EvalParams(base, 8))
        fine = zeta_gb(s, EvalParams(2 * base, 12))
        diff = abs(coarse.value - fine.value)
        budget = coarse.remainder_bound + fine.remainder_bound + 1e-12
        worst = max(worst, diff - budget)
        assert diff <= budget
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"100 seeded strip points, worst margin {worst:.2e}, {elapsed:.2f} s")


def test_03_direct_series_agreement() -> None:
    terms = 10**6
    worst = -math.inf
    for k in range(20):
        s = complex(2.6 + 0.28 * k, 0.0)
        result = zeta_gb(s, eps=1e-10)
        direct = oracles.direct_series(s, terms)
        diff = abs(result.value - direct)
        worst = max(worst, diff - (result.remainder_bound + 1e-9))
        assert diff <= result.remainder_bound + 1e-9
    _passed(3, f"20 points vs 1e6-term sums, worst margin {worst:.2e}")


def test_04_scan_locates_the_first_three_zeros() -> None:
    start = time.perf_counter()
    records = scan_critical_line(0.0, 30.0, ScanConfig(step=0.25, tol=1e-9))
    elapsed = time.perf_counter() - start
    assert len(records) == 3
    for rec, rounded, oracle in zip(records, ROUNDED_ORDINATES, ORACLE_ORDINATES):
        assert abs(rec.t - rounded) <= 1e-6
        assert abs(rec.t - oracle) <= 1e-6
    assert elapsed < 10.0
    _passed(4, f"three ordinates within 1e-6 of the oracle, {elapsed:.2f} s")


def test_05_zeros_sit_on_the_line(zeros_to_50) -> None:
    assert zeros_to_50
    worst = max(abs(rec.xi) for rec in zeros_to_50)
    for rec in zeros_to_50:
        assert abs(rec.xi) <= 1e-6
        for sigma in (0.3, 0.7):  # reseed well off the line
            reseeded = refine_zero(complex(sigma, rec.t))
            worst = max(worst, abs(reseeded.xi))
            assert abs(reseeded.xi) <= 1e-6
    _passed(5, f"{len(zeros_to_50)} zeros to t = 50, max |xi| {worst:.2e} incl. reseeds")


def test_06_winding_counts_match_the_scan() -> None:
    scan_count = len(scan_critical_line(0.0, 30.0, ScanConfig(step=0.25, tol=1e-9)))
    full, res_full = rectangle_winding(Rectangle(0.01, 0.99, 0.1, 30.0))
    wide, res_wide = rectangle_winding(Rectangle(-1.0, 2.0, 0.1, 30.0))  # the audit's rectangle
    left, res_left = rectangle_winding(Rectangle(0.01, 0.49, 0.1, 30.0))
    assert full == wide == 3 == scan_count
    assert left == 0
    assert res_full < 0.25 and res_wide < 0.25 and res_left < 0.25
    _passed(6, f"counts 3/3/0, residuals {res_full:.2e}/{res_wide:.2e}/{res_left:.2e}")


def test_07_zero_condition_propositions(zeros_to_50) -> None:
    worst_residual = 0.0
    for rec in zeros_to_50:
        s, q = rec.s, rec.q_value
        assert abs(s * (1 - s) - q) <= 1e-4
        assert abs(q.imag) / abs(q) <= 1e-6
        assert abs(q - (0.25 + rec.t * rec.t)) <= 1e-4
        assert abs(s.conjugate() - (1 - s)) <= 2e-6
        worst_residual = max(worst_residual, abs(s * (1 - s) - q))
    _passed(7, f"propositions at {len(zeros_to_50)} zeros, worst residual {worst_residual:.2e}")


def test_08_factorization_rest_reproduces_the_division_rest() -> None:
    rng = random.Random(777)
    worst = -math.inf
    for _ in range(1000):
        s_h = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 50.0))
        q = complex(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        rest = abs(q - s_h * (1 - s_h))
        dev = factorization_check(s_h, q, oracles.SAMPLE_POINTS)
        worst = max(worst, abs(dev - rest) - 1e-10 * (1.0 + abs(q)))
        assert abs(dev - rest) <= 1e-10 * (1.0 + abs(q))
    _passed(8, f"1000 pairs, worst margin {worst:.2e}")


def test_09_consistency_identity_off_the_zeros() -> None:
    rng = random.Random(90210)
    params = EvalParams(64, 8)
    points = []
    while len(points) < 1000:
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-50.0, 50.0))
        if abs(s) < 0.01 or abs(s - 1) < 0.01:
            continue
        points.append(s)
    worst = -math.inf
    for s in points:
        z = zeta_gb(s, params).value
        residual = consistency_identity(s, z, q_gb(s, params), params)
        budget = 1e-9 * max(1.0, abs(z))
        worst = max(worst, residual - budget)
        assert residual <= budget
    _passed(9, f"1000 box points, worst margin {worst:.2e}")


def test_10_q_varies_between_evaluation_points() -> None:
    params = EvalParams(8, 6)
    delta = abs(q_gb(2, params) - q_gb(3, params))
    assert delta > 0.1
    assert delta == pytest.approx(0.12523005928371228, rel=1e-12)
    _passed(10, f"|Q(2) - Q(3)| = {delta:.6f} under shared params")


def test_11_runtime_budget_and_report_determinism() -> None:
    first = report_to_json(audit_range(0.0, 30.0))
    second = report_to_json(audit_range(0.0, 30.0))
    assert first == second
    elapsed = time.perf_counter() - _T0
    assert elapsed < 60.0
    _passed(11, f"byte-identical audit reports, suite at {elapsed:.1f} s")
