"""The auxiliary function Q behind the zero condition s(s-1) + Q(s) = 0.

Q is defined through its reciprocal,

    1/Q(s) = (1/(s N^{1-s})) * sum_{n=1}^{N-1} n^{-s}  +  r(N, s) / N^{1-s},

with r(N, s) the abbreviated Euler-Maclaurin tail (``em_tail``).
One builder reads 1/Q from the parts of an exact pass (``zeta_core._pass``):
the head sum_{n<N} n^{-s}, N^{1-s}, N^{-s} and the rest of r(N, s).
``q_gb(s, params)`` returns Q(s) itself at the caller's (N, nu), from a
pass of its own; it refuses s = 0 and 1 and raises SingularQError where
|1/Q| underflows. ``refine_zero`` hands the builder the parts of its last
pass, so Q there costs no pass, no exp and no tail of its own, with the
bits of ``q_gb``; it conjugates Q with a zero refined below the real axis.
Dividing the full evaluator by s N^{1-s} shows the algebraic identity

    Z(s) = s N^{1-s} * ( 1/(s(s-1)) + 1/Q(s) ),

which holds at every admissible point up to rounding; its measured
residual, on Z and Q values already evaluated, is exposed as
``consistency_identity``.
"""

from __future__ import annotations

import cmath
import math

from .errors import ParameterError, SingularQError
from .zeta_core import EvalParams, _as_complex, _eval_params, _pass

__all__ = ["q_gb", "consistency_identity"]

# |1/Q| below this would overflow the reciprocal; treated as Q = infinity.
_SINGULAR_FLOOR = 1e-300


def _q(s: complex, parts: tuple[complex, ...]) -> complex:
    # Q(s) from the parts of an exact pass at s (zeta_core._pass)
    head, n_pow, n_s, tail = parts
    rhs = head / (s * n_pow) + (n_s / (2 * s) + tail) / n_pow
    if abs(rhs) < _SINGULAR_FLOOR:
        raise SingularQError(f"|1/Q| = {abs(rhs):.3e} at s = {s!r}; Q is effectively infinite")
    return 1.0 / rhs


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
    return _q(s, _pass(s, _eval_params(params))[2])


def consistency_identity(s: complex, z: complex, q: complex, params: EvalParams) -> float:
    """|z - s N^{1-s} (1/(s(s-1)) + 1/q)| for z = Z(s), q = Q(s) under params.

    Checks values the caller already evaluated, so it costs no Dirichlet
    pass. Pure rounding residue: small everywhere, zeros or not.
    """
    s = _defined(s)
    n_pow = cmath.exp((1 - s) * math.log(_eval_params(params).cutoff_n))
    lhs = s * n_pow * (1.0 / (s * (s - 1)) + 1.0 / q)
    residual = abs(z - lhs)
    if not math.isfinite(residual):
        raise ParameterError(f"identity residual overflowed at s = {s!r}")
    return residual
