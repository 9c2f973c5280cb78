"""Gram-Backlund evaluation of the zeta function in binary64.

The evaluator combines a truncated Dirichlet sum with the Euler-Maclaurin
correction

    Z(s) = sum_{n=1}^{N-1} n^{-s}  +  N^{1-s}/(s-1)  +  N^{-s}/2
         + sum_{mu=1}^{nu} B_{2mu}/(2mu)! * s(s+1)...(s+2mu-2) * N^{-s-2mu+1}

and certifies the truncation error with the first-omitted-term rule

    |R| <= |B_{2nu+2}/(2nu+2)!| * |s(s+1)...(s+2nu)|
           * N^{-Re(s)-2nu-1} * |s+2nu+1| / (Re(s)+2nu+1).

``auto_params`` picks the (N, nu) of least cost N + 3 nu whose bound meets
eps: a tail order is priced at three Dirichlet terms. The bound is
A_nu N^{-(Re s + 2 nu + 1)}, so each nu has its least N in closed form,
and as nu grows that N falls towards |t|/(2 pi), the cutoff H. M. Edwards
gives (*Riemann's Zeta Function*, 6.4).

Powers go through exp(-s ln n) with the real logarithm, so no branch
ambiguity arises; ln n comes from one shared table. The tail is summed in
nested (Horner) form, with one exp for all its orders,

    N^{-s}/2 + s N^{-s-1} [c_1 + q_1 (c_2 + q_2 (... + q_{nu-1} c_nu))],
    c_mu = B_{2mu}/(2mu)!,  q_mu = (s+2mu-1)(s+2mu)/N^2,

one complex product and one complex multiply-add an order (Higham,
*Accuracy and Stability of Numerical Algorithms*, 5.1). On request the
evaluator also returns the exact derivative of the sum it evaluates
(Edwards, 6.4),

    Z'(s) = -sum_{n=2}^{N-1} ln n n^{-s}  -  A (ln N + 1/(s-1))  -  ln N N^{-s}/2
          + sum_{mu=1}^{nu} B_{2mu}/(2mu)! * (P_mu' - ln N P_mu) * N^{-s-2mu+1},

with A = N^{1-s}/(s-1) and P_mu = s(s+1)...(s+2mu-2). Each derivative term
reuses the n^{-s} or tail term of the same pass, and the tail's slope runs
along the same loop as Horner's derivative, so the value keeps its
operations.

Walks. At uniformly spaced nodes s_k = s_0 + k d, n^{-s_{k+1}} = n^{-s_k}
n^{-d}: after one exp per term for n^{-s_0} and one for n^{-d}, each node
costs one complex multiply per term (the multi-point idea of A. M. Odlyzko
and A. Schonhage, Trans. AMS 309, 1988). Node 0 keeps the bits of the
exact pass; node k's terms carry k more roundings, so it drifts by
O(k u) sum |n^{-s_k}|. An open path of such lines is one walk: at a
vertex the terms carry on with the next line's step ratios.

The finisher. One kernel, ``_finish``, turns Dirichlet heads into
values node by node: head + pole term + N^{-s}/2 + tail, and given head
slopes the derivatives; what depends on N and nu alone it takes once per
call. A walk's nodes go through it in one call (``zero_scan`` certifies
walked values), and every exact pass at one point, ``zeta_gb``'s,
``q_gb``'s and each Newton step's, as one node through ``_pass``. Only
``_pass`` and ``em_tail`` read a node's parts: the head, N^{1-s}, N^{-s}
and N^{-s-1} times the nested sum, what 1/Q reads (``qfunction``).
Callers refuse a too small tail order before their Dirichlet pass, which
can overflow first.
"""

from __future__ import annotations

import cmath
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, mul

from .bernoulli import MAX_INDEX, _full_table
from .errors import ParameterError, PoleError, PrecisionError

__all__ = [
    "DEFAULT_TARGET_EPS",
    "EvalParams",
    "EvalResult",
    "dirichlet_partial_sum",
    "em_tail",
    "zeta_gb",
    "auto_params",
    "remainder_bound",
]

DEFAULT_TARGET_EPS = 1e-8

# auto_params sweeps tail orders over this band. Wider nu stops paying off
# before the factorial blow-up.
_AUTO_NU_RANGE = range(2, 26)
_EPS_FLOOR = 1e-13
_IM_CAP = 500.0
# the price of one tail order in Dirichlet terms. A retune moves the (N, nu)
# choices, so it waits for rounding-aware bounds, which move them anyway.
_TAIL_TERMS = 3
# the largest cutoff, explicit or scheduled; larger ones only grow the log
# table. It is 64 times 2 (|t| + 1) at the cap.
_MAX_CUTOFF = 64_128
_SHADE = 1.0 - 1e-12


def _check_cutoff(cutoff_n: object) -> None:
    if type(cutoff_n) is not int or not 2 <= cutoff_n <= _MAX_CUTOFF:
        raise ParameterError(f"cutoff_n must be an integer in [2, {_MAX_CUTOFF}], got {cutoff_n!r}")


def _as_complex(s: object, name: str = "s") -> complex:
    try:
        z = complex(s)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a complex number, got {s!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"{name} must have finite components, got {z!r}")
    return z


def _is_real(x: object) -> bool:
    # an int or a float; bool is an int subclass, but True is no number here
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_eps(eps: object) -> None:
    if not _is_real(eps) or not math.isfinite(eps) or eps <= 0:
        raise ParameterError(f"eps must be a finite positive number, got {eps!r}")


@dataclass(frozen=True)
class EvalParams:
    """Evaluation knobs: Dirichlet cutoff N and tail order nu.

    The accuracy they reach depends on s, so it is a property of an
    evaluation (``EvalResult.remainder_bound``), not of the params.
    """

    cutoff_n: int
    tail_order: int

    def __post_init__(self) -> None:
        _check_params(self.cutoff_n, self.tail_order)


def _check_params(cutoff_n: object, tail_order: object) -> None:
    # the (N, nu) that EvalParams and remainder_bound accept
    _check_cutoff(cutoff_n)
    if type(tail_order) is not int or tail_order < 1:
        raise ParameterError(f"tail_order must be an integer >= 1, got {tail_order!r}")
    # the bound's first omitted term reads B_{2 nu + 2}
    if 2 * tail_order + 2 > MAX_INDEX:
        raise ParameterError(f"tail_order {tail_order} needs Bernoulli indices beyond the cap {MAX_INDEX}")


def _eval_params(params: object) -> EvalParams:
    if not isinstance(params, EvalParams):
        raise ParameterError(f"params must be an EvalParams, got {type(params).__name__}")
    return params


@dataclass(frozen=True)
class EvalResult:
    """Evaluated value at ``s`` plus the certified truncation bound of its params.

    ``remainder_bound`` has the bits of ``remainder_bound(s, N, nu)``: with
    params from the schedule it is the bound the pick met at s, else it is
    computed. ``derivative`` is the exact derivative of the evaluated sum,
    or None unless it was asked for.
    """

    value: complex
    s: complex
    params_used: EvalParams
    remainder_bound: float
    derivative: complex | None = None


# _LOGS[n] = ln n (index 0 unused). Growth rebinds a new array, never extends
# in place, so a caller holding the old table never sees it change.
_LOGS = array("d", [0.0])


def _log_table(cutoff_n: int) -> array:
    # a table covering ln 2 .. ln(cutoff_n - 1); the cap is checked before it grows
    global _LOGS
    _check_cutoff(cutoff_n)
    logs = _LOGS
    if len(logs) < cutoff_n:
        logs = _LOGS = logs + array("d", map(math.log, range(len(logs), cutoff_n)))
    return logs


def dirichlet_partial_sum(
    s: complex, cutoff_n: int, *, derivative: bool = False
) -> complex | tuple[complex, complex]:
    """sum_{n=1}^{cutoff_n - 1} n^{-s}, terms in ascending order.

    With ``derivative`` set, returns the pair (sum, -sum ln n n^{-s});
    the sum keeps the same bits either way.
    """
    s = _as_complex(s)
    logs = _log_table(cutoff_n)
    minus_s = -s
    total = 1.0 + 0.0j
    # explicit loops: sum() may compensate and change the bits
    if not derivative:
        for log_n in logs[2:cutoff_n]:
            total += cmath.exp(minus_s * log_n)
        return total
    slope = 0.0j
    for log_n in logs[2:cutoff_n]:
        term = cmath.exp(minus_s * log_n)
        total += term
        slope -= log_n * term
    return total, slope


def _dirichlet_path(vertices: list[complex], segments: list[int], cutoff_n: int) -> list[complex]:
    # partial sums at the nodes of an open walk: vertices[0], then side j
    # from vertices[j] to vertices[j + 1] in segments[j] equal steps, a
    # vertex one node. One vertex and no side is one exact pass, with the
    # bits of dirichlet_partial_sum.
    logs = _log_table(cutoff_n)[2:cutoff_n]
    minus_s = -vertices[0]
    terms = [cmath.exp(minus_s * log_n) for log_n in logs]
    # an explicit left fold: sum() may compensate and change the bits
    sums = [reduce(add, terms, 1.0 + 0.0j)]
    for start, stop, count in zip(vertices, vertices[1:], segments):
        minus_d = -(stop - start) / count
        ratios = [cmath.exp(minus_d * log_n) for log_n in logs]
        for _ in range(count):
            terms = list(map(mul, terms, ratios))
            sums.append(reduce(add, terms, 1.0 + 0.0j))
    return sums


@lru_cache(maxsize=None)
def _coeffs() -> tuple[float, ...]:
    # B_{2mu}/(2mu)! for mu = 0..MAX_INDEX/2, each rounded once from the
    # exact rational; built on first use, so importing builds no table
    table = _full_table()
    return tuple(float(table[2 * mu] / math.factorial(2 * mu)) for mu in range(MAX_INDEX // 2 + 1))


def _tail_denominator(sigma: float, tail_order: int) -> float:
    # Re(s) + 2 nu + 1 at Re(s) = sigma, refused unless positive
    denom = sigma + 2 * tail_order + 1
    if denom <= 0:
        raise ParameterError(
            f"tail order {tail_order} too small for Re(s) = {sigma}; need Re(s) + 2*nu + 1 > 0"
        )
    return denom


def remainder_bound(s: complex, cutoff_n: int, tail_order: int) -> float:
    """Certified bound on the dropped tail after ``tail_order`` terms.

    Takes the (N, nu) that ``EvalParams`` takes. Requires Re(s) + 2 nu + 1 > 0;
    outside that region the correction series itself is meaningless at this order.
    Refuses an s where the bound is not finite in binary64, such as
    |s| near 1e300.
    """
    s = _as_complex(s)
    _check_params(cutoff_n, tail_order)
    nu = tail_order
    denom = _tail_denominator(s.real, nu)
    prod = 1.0
    for k in range(2 * nu + 1):
        prod *= abs(s + k)
    return _bound(s, cutoff_n, nu, prod, denom)


def _bound(s: complex, cutoff_n: int, nu: int, prod: float, denom: float) -> float:
    # the bound from prod = |s| |s + 1| ... |s + 2 nu|, folded from the left,
    # and denom = Re s + 2 nu + 1 > 0; refused where it is not finite
    scale = math.exp(-denom * math.log(cutoff_n))
    bound = abs(_coeffs()[nu + 1]) * prod * scale * abs(s + 2 * nu + 1) / denom
    if not math.isfinite(bound):
        raise ParameterError(f"the remainder bound at s = {s!r} is not finite in binary64 ({bound})")
    return bound


@lru_cache(maxsize=None)
def _tail_orders(tail_order: int) -> tuple[float, tuple[tuple[float, float, float], ...]]:
    # B_{2nu}/(2nu)!, and (B_{2mu}/(2mu)!, 2mu - 1, 2mu) for mu = nu-1 down to
    # 1, the order in which the nested series reads them; built once per nu
    c = _coeffs()
    return c[tail_order], tuple((c[mu], 2.0 * mu - 1.0, 2.0 * mu) for mu in range(tail_order - 1, 0, -1))


def em_tail(s: complex, params: EvalParams) -> complex:
    """Abbreviated tail r(N, s), so that Z(s) = head + N^{1-s}/(s-1) + s r(N, s).

    The product in the mu = 1 term is empty, so that term is
    (B_2/2) * N^{-s-1}. Its truncation bound is the evaluator's
    ``remainder_bound`` divided by |s|. Read from the evaluator's pass, it
    refuses s = 0 and the pole s = 1.
    """
    s = _as_complex(s)
    if s == 0 or s == 1:
        raise ParameterError("the abbreviated tail divides by s, its pass by s - 1; s = 0 and 1 are excluded")
    _, _, ((_, _, n_s, rest),) = _finish((s,), (0j,), _eval_params(params), parts=True)
    return n_s / (2 * s) + rest


def _finish(nodes: Sequence[complex], heads: Sequence[complex], params: EvalParams,
            head_slopes: Sequence[complex] | None = None, parts: bool = False
            ) -> tuple[list[complex], list[complex] | None, list[tuple[complex, ...]] | None]:
    # (values, slopes or None, parts or None) at the nodes, from their heads
    # at params.cutoff_n; slopes along Horner's dacc = q' acc + q dacc,
    # q'_mu = (2s+4mu-1)/N^2, and parts (head, N^{1-s}, N^{-s}, N^{-s-1} acc).
    # A value's operations do not depend on either. 1/N^2 stays in the loop:
    # coefficients scaled per (N, nu) would be rebuilt whenever N changes.
    n = params.cutoff_n
    log_n = math.log(n)
    inv_n2 = 1.0 / (n * n)
    first, orders = _tail_orders(params.tail_order)
    exp, isfinite = cmath.exp, cmath.isfinite
    values = []
    slopes = None if head_slopes is None else []
    kept = [] if parts else None
    for k, s in enumerate(nodes):
        acc = first
        if slopes is None:
            for c, a, b in orders:
                acc = c + (s + a) * (s + b) * inv_n2 * acc
        else:
            dacc = 0.0j
            for c, a, b in orders:
                u, v = s + a, s + b
                q = u * v * inv_n2
                dacc = (u + v) * inv_n2 * acc + q * dacc
                acc = c + q * acc
        n_pow = exp((1 - s) * log_n)
        pole_term = n_pow / (s - 1)
        n_s = exp(-s * log_n)
        half = n_s / 2
        n_s1 = exp((-s - 1) * log_n)
        tail = s * n_s1 * acc
        value = heads[k] + pole_term + (half + tail)
        if not isfinite(value):
            raise ParameterError(f"evaluation overflowed at s = {s!r} with cutoff {n}")
        values.append(value)
        if slopes is not None:
            # d/ds of the tail's leading factor s, as the complex 1 + 0j, so
            # that its product keeps the signed zeros it had
            tail_slope = ((1.0 + 0.0j) * acc + s * dacc) * n_s1 - log_n * tail
            slopes.append(head_slopes[k] - pole_term * (log_n + 1 / (s - 1)) - log_n * half + tail_slope)
        if parts:
            kept.append((heads[k], n_pow, n_s, n_s1 * acc))
    return values, slopes, kept


def _pass(s: complex, params: EvalParams,
          derivative: bool = False) -> tuple[complex, complex | None, tuple[complex, ...]]:
    # zeta_gb at s, checks aside: (value, slope or None, parts), from _finish
    if derivative:
        head, head_slope = dirichlet_partial_sum(s, params.cutoff_n, derivative=True)
        (value,), (slope,), (parts,) = _finish((s,), (head,), params, (head_slope,), parts=True)
        return value, slope, parts
    (value,), _, (parts,) = _finish((s,), (dirichlet_partial_sum(s, params.cutoff_n),), params, parts=True)
    return value, None, parts


def zeta_gb(
    s: complex,
    params: EvalParams | None = None,
    *,
    eps: float = DEFAULT_TARGET_EPS,
    derivative: bool = False,
) -> EvalResult:
    """Evaluate the Gram-Backlund extension at ``s``.

    With ``params`` omitted the cutoff and tail order come from
    ``auto_params`` at target accuracy ``eps`` (default 1e-8), and the
    result keeps the bound they were picked by. Explicit params are
    refused where their bound at s is not finite or the tail order is too
    small. The correction sum keeps its leading s factor, so s = 0 needs
    no special route and lands on -0.5 to machine rounding.

    With ``derivative`` set, ``EvalResult.derivative`` holds the exact
    derivative of the evaluated sum (see the module docstring), taken in
    the same Dirichlet pass; ``value`` keeps the same bits either way.
    """
    s = _as_complex(s)
    if s == 1:
        raise PoleError("s = 1 is the simple pole of the extension")
    # the bound refuses a too small tail order before the pass, which can overflow first
    params, bound = _pick(s, eps, params)
    value, slope, _ = _pass(s, params, derivative)
    return EvalResult(value, s, params, bound, slope)


def auto_params(s: complex, eps: float) -> EvalParams:
    """Pick the cheapest (N, nu) whose certified bound meets ``eps``.

    Cost is N + 3 nu (see the module docstring); the tail order ranges
    over 2..25 and the cutoff over 2..64,128. Accuracy requests below
    1e-13 are refused: binary64 rounding already eats that.
    """
    return _pick(s, eps)[0]


def _pick(s: complex, eps: float, params: EvalParams | None = None) -> tuple[EvalParams, float]:
    # auto_params' params and the bound they meet at s, or explicit params
    # and their bound at s, with no cap or eps check
    s = _as_complex(s)
    if params is not None:
        params = _eval_params(params)
        return params, remainder_bound(s, params.cutoff_n, params.tail_order)
    if abs(s.imag) > _IM_CAP:
        raise ParameterError(f"|Im s| = {abs(s.imag)} exceeds the supported range {_IM_CAP}")
    _check_eps(eps)
    if eps < _EPS_FLOOR:
        raise PrecisionError(f"eps = {eps} is below the binary64 floor {_EPS_FLOOR}")

    picked = _schedule(s, eps)
    if picked is None:
        best = min((remainder_bound(s, _MAX_CUTOFF, nu) for nu in _AUTO_NU_RANGE
                    if s.real + 2 * nu + 1 > 0), default=math.inf)
        raise PrecisionError(
            f"no schedule entry certifies eps = {eps} at s = {s!r}; best bound {best:.3e}",
            best_bound=best,
        )
    return picked


@lru_cache(maxsize=None)
def _schedule_rows() -> tuple[tuple[int, int, float, int], ...]:
    # (nu, 2 nu, |c_{nu+1}|, _TAIL_TERMS nu) for each nu the schedule sweeps
    return tuple((nu, 2 * nu, abs(_coeffs()[nu + 1]), _TAIL_TERMS * nu) for nu in _AUTO_NU_RANGE)


def _schedule(s: complex, eps: float) -> tuple[EvalParams, float] | None:
    # the (N, nu) of least cost N + 3 nu, nu in 2..25 and N <= _MAX_CUTOFF,
    # whose bound at s meets eps, and that bound, or None. The sweep folds
    # remainder_bound's own product P_k = |s| |s + 1| ... |s + k|, two factors
    # a row: with d = Re s + 2 nu + 1 and A_nu = |c_{nu+1}| P_{2nu+1} / d, each
    # nu's least N solves A_nu N^-d = eps. Cost falls while a longer tail
    # shortens N by more than 3 and rises after (the tests check this against
    # a full search), so the sweep stops at the first rise. The winner's bound
    # is finished from its P_{2nu} by _bound, N raised until it meets eps; the
    # closed form is shaded by 1e-12 so that it never starts above the least N.
    sigma = s.real
    ceil, cap, shade = math.ceil, _MAX_CUTOFF, _SHADE
    prod = abs(s) * abs(s + 1) * abs(s + 2) * abs(s + 3)
    best_cost = math.inf
    best = None
    for nu, two_nu, c, tail_cost in _schedule_rows():
        even = prod * abs(s + two_nu)
        prod = even * abs(s + (two_nu + 1))
        d = (sigma + two_nu) + 1.0
        if d <= 0.0:
            continue
        try:
            x = (c * prod / (d * eps)) ** (1.0 / d)
        except OverflowError:
            continue
        if x > cap:
            continue
        cutoff = ceil(x * shade)
        if cutoff < 2:  # not max(): a call a row costs more than the compare
            cutoff = 2
        cost = cutoff + tail_cost
        if cost > best_cost:
            break
        if cost < best_cost:
            best_cost, best = cost, (cutoff, nu, even, d)
    if best is None:
        return None
    least, nu, even, d = best
    # the closed form and the bound round apart by a few ulps
    for cutoff in range(least, min(least + 4, _MAX_CUTOFF + 1)):
        bound = _bound(s, cutoff, nu, even, d)
        if bound <= eps:
            return EvalParams(cutoff, nu), bound
    return None
