"""The auxiliary function Q behind the zero condition s(s-1) + Q(s) = 0.

Q is defined through its reciprocal,

    1/Q(s) = (1/(s N^{1-s})) * sum_{n=1}^{N-1} n^{-s}  +  r(N, s) / N^{1-s},

with r(N, s) the abbreviated Euler-Maclaurin tail (``em_tail``).
``q_gb(s, params)`` returns Q(s) itself at the caller's (N, nu); it
refuses s = 0 and 1 and raises SingularQError where |1/Q| underflows.
Dividing the full evaluator by s N^{1-s} shows the algebraic identity

    Z(s) = s N^{1-s} * ( 1/(s(s-1)) + 1/Q(s) ),

which holds at every admissible point up to rounding; its measured
residual, on Z and Q values already evaluated, is exposed as
``consistency_identity``.
"""

from __future__ import annotations

import math

from .errors import ParameterError, SingularQError
from .zeta_core import EvalParams, _as_complex, _eval_params, _head, _rpow, em_tail

__all__ = ["q_gb", "consistency_identity"]

# |1/Q| below this would overflow the reciprocal; treated as Q = infinity.
_SINGULAR_FLOOR = 1e-300


def _reciprocal_q(s: complex, params: EvalParams) -> complex:
    n_pow = _rpow(params.cutoff_n, 1 - s)
    return _head(s, params.cutoff_n) / (s * n_pow) + em_tail(s, params) / n_pow


def _defined(s: object) -> complex:
    z = _as_complex(s)
    if z == 0 or z == 1:
        raise ParameterError(f"Q is undefined at s = {z}; s(s-1) vanishes there")
    return z


def q_gb(s: complex, params: EvalParams) -> complex:
    """Q(s) = 1 / rhs under ``params``, with the reciprocal as defined above.

    The zero condition s(s-1) + Q(s) = 0 holds at the zeros of zeta.
    """
    s = _defined(s)
    rhs = _reciprocal_q(s, _eval_params(params))
    if abs(rhs) < _SINGULAR_FLOOR:
        raise SingularQError(f"|1/Q| = {abs(rhs):.3e} at s = {s!r}; Q is effectively infinite")
    return 1.0 / rhs


def consistency_identity(s: complex, z: complex, q: complex, params: EvalParams) -> float:
    """|z - s N^{1-s} (1/(s(s-1)) + 1/q)| for z = Z(s), q = Q(s) under params.

    Checks values the caller already evaluated, so it costs no Dirichlet
    pass. Pure rounding residue: small everywhere, zeros or not.
    """
    s = _defined(s)
    lhs = s * _rpow(_eval_params(params).cutoff_n, 1 - s) * (1.0 / (s * (s - 1)) + 1.0 / q)
    residual = abs(z - lhs)
    if not math.isfinite(residual):
        raise ParameterError(f"identity residual overflowed at s = {s!r}")
    return residual
