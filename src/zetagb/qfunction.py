"""The auxiliary function Q behind the zero condition s(s-1) + Q(s) = 0.

Q is defined through its reciprocal,

    1/Q(s) = (1/(s N^{1-s})) * sum_{n=1}^{N-1} n^{-s}  +  r(N, s) / N^{1-s},

with r(N, s) the abbreviated Euler-Maclaurin tail. Dividing the full
evaluator by s N^{1-s} shows the algebraic identity

    Z(s) = s N^{1-s} * ( 1/(s(s-1)) + 1/Q(s) ),

which holds at every admissible point up to rounding; its measured
residual, on Z and Q values already evaluated, is exposed as
``consistency_identity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, SingularQError
from .zeta_core import DEFAULT_TARGET_EPS, EvalParams, _as_complex, _head, _rpow, auto_params, em_tail

__all__ = ["QValue", "q_gb", "zero_residual", "consistency_identity"]

# |1/Q| below this would overflow the reciprocal; treated as Q = infinity.
_SINGULAR_FLOOR = 1e-300


@dataclass(frozen=True)
class QValue:
    """Q at a point together with |1/Q| for near-singularity diagnosis."""

    value: complex
    inverse_magnitude: float
    params_used: EvalParams


def _reciprocal_q(s: complex, params: EvalParams) -> complex:
    r, _ = em_tail(s, params)
    n_pow = _rpow(params.cutoff_n, 1 - s)
    return _head(s, params.cutoff_n) / (s * n_pow) + r / n_pow


def _defined(s: object) -> complex:
    z = _as_complex(s)
    if z == 0 or z == 1:
        raise ParameterError(f"Q is undefined at s = {z}; s(s-1) vanishes there")
    return z


def _resolve(s: object, params: EvalParams | None, eps: float) -> tuple[complex, EvalParams]:
    z = _defined(s)
    if params is None:
        params = auto_params(z, eps)
    return z, params


def q_gb(s: complex, params: EvalParams | None = None, *, eps: float = DEFAULT_TARGET_EPS) -> QValue:
    """Evaluate Q(s) = 1 / rhs with the reciprocal as defined above."""
    s, params = _resolve(s, params, eps)
    rhs = _reciprocal_q(s, params)
    inverse_magnitude = abs(rhs)
    if inverse_magnitude < _SINGULAR_FLOOR:
        raise SingularQError(
            f"|1/Q| = {inverse_magnitude:.3e} at s = {s!r}; Q is effectively infinite"
        )
    return QValue(value=1.0 / rhs, inverse_magnitude=inverse_magnitude, params_used=params)


def zero_residual(s: complex, params: EvalParams | None = None, *, eps: float = DEFAULT_TARGET_EPS) -> complex:
    """s(s-1) + Q(s); vanishes (numerically) exactly at the zeros."""
    s, params = _resolve(s, params, eps)
    return s * (s - 1) + q_gb(s, params).value


def consistency_identity(s: complex, z: complex, q: complex, params: EvalParams) -> float:
    """|z - s N^{1-s} (1/(s(s-1)) + 1/q)| for z = Z(s), q = Q(s) under params.

    Checks values the caller already evaluated, so it costs no Dirichlet
    pass. Pure rounding residue: small everywhere, zeros or not.
    """
    s = _defined(s)
    lhs = s * _rpow(params.cutoff_n, 1 - s) * (1.0 / (s * (s - 1)) + 1.0 / q)
    residual = abs(z - lhs)
    if not math.isfinite(residual):
        raise ParameterError(f"identity residual overflowed at s = {s!r}")
    return residual
