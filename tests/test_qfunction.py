"""Q-function tests: frozen values, the zero condition, the algebraic
consistency identity, and conjugate reflection."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetagb import qfunction
from zetagb.errors import ParameterError, SingularQError
from zetagb.qfunction import consistency_identity, q_gb
from zetagb.zeta_core import EvalParams, auto_params, zeta_gb

# frozen from the trisection oracle in tests/oracles.py
FIRST_ORDINATE = 14.13472514172102


def test_frozen_values_at_small_cutoff() -> None:
    params = EvalParams(8, 6)
    q2 = q_gb(2, params)
    q3 = q_gb(3, params)
    assert q2.imag == 0.0
    assert q3.imag == 0.0
    assert q2.real == pytest.approx(0.1644808189071065, rel=1e-13)
    assert q3.real == pytest.approx(0.03925075962339422, rel=1e-13)


def test_q_depends_on_s() -> None:
    params = EvalParams(8, 6)
    delta = abs(q_gb(2, params) - q_gb(3, params))
    assert delta > 0.1


def test_q_at_first_zero_matches_quarter_plus_t_squared() -> None:
    s = complex(0.5, FIRST_ORDINATE)
    q = q_gb(s, auto_params(s, 1e-10))
    assert abs(q - (0.25 + FIRST_ORDINATE**2)) <= 1e-4
    assert abs(q.imag) <= 1e-6 * abs(q)


def test_consistency_identity_is_pure_rounding() -> None:
    params = EvalParams(32, 6)
    for s in (2 + 0j, 3 + 4j, 0.25 + 5j, 0.75 + 20j, -1.5 + 40j):
        z = zeta_gb(s, params).value
        residual = consistency_identity(s, z, q_gb(s, params), params)
        assert residual <= 1e-12 * max(1.0, abs(z))


def test_identity_holds_under_auto_params_too() -> None:
    s = 0.6 + 21j
    params = auto_params(s, 1e-8)
    z, q = zeta_gb(s, params).value, q_gb(s, params)
    assert consistency_identity(s, z, q, params) <= 1e-9


# seeded audit-scale inputs: t in [250, 499] at the cutoffs the audit picks there
_rng = random.Random(250499)
_AUDIT_SCALE = [(_rng.uniform(0.05, 0.95), _rng.uniform(250.0, 499.0), n) for n in (500, 1000) for _ in range(8)]


def _with_audit_scale_examples(test):
    for sigma, t, cutoff in _AUDIT_SCALE:
        test = example(sigma=sigma, t=t, cutoff=cutoff)(test)
    return test


@_with_audit_scale_examples
@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(min_value=0.05, max_value=0.95),
    t=st.floats(min_value=0.5, max_value=50.0),
    cutoff=st.just(32),
)
def test_conjugate_reflection(sigma: float, t: float, cutoff: int) -> None:
    # the audit takes Z and Q at conj(s) to be the conjugates, bit for bit
    params = EvalParams(cutoff, 6)
    upper, lower = complex(sigma, t), complex(sigma, -t)
    assert q_gb(lower, params) == q_gb(upper, params).conjugate()
    assert zeta_gb(lower, params).value == zeta_gb(upper, params).value.conjugate()


def test_undefined_points_are_rejected() -> None:
    for s in (0, 1):
        with pytest.raises(ParameterError):
            q_gb(s, EvalParams(16, 4))
        with pytest.raises(ParameterError):
            consistency_identity(s, 1 + 0j, 1 + 0j, EvalParams(16, 4))
    # a pair is no EvalParams: it raised AttributeError
    with pytest.raises(ParameterError, match="EvalParams"):
        q_gb(0.5 + 10j, (16, 4))  # type: ignore[arg-type]
    with pytest.raises(ParameterError, match="EvalParams"):
        consistency_identity(0.5 + 10j, 1 + 0j, 1 + 0j, (16, 4))  # type: ignore[arg-type]


def test_underflowing_reciprocal_is_singular(monkeypatch) -> None:
    # |1/Q| below 1e-300 would overflow Q itself
    monkeypatch.setattr(qfunction, "_reciprocal_q", lambda s, params: 1e-301 + 0j)
    with pytest.raises(SingularQError, match="effectively infinite"):
        q_gb(0.5 + 10j, EvalParams(16, 3))
