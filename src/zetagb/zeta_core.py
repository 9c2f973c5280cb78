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
O(k u) sum |n^{-s_k}|. A path of such lines is one walk: at a vertex the
terms carry on with the next line's step ratios, and a closed path ends
one step short of its start, whose sum it already has. ``dirichlet_line``
is the walk along one line.

The node kernel. ``_zeta_nodes`` finishes every node of a walk in one
call, head + pole term + N^{-s}/2 + tail, in the operations and order of
``zeta_gb``, which is the same kernel at one node; what depends on N and
nu alone it takes once per call. Callers refuse a too small tail order
before their Dirichlet pass, which can overflow first. ``zero_scan``
certifies walked values.

The head memo. Newton's polish (``_value``) keeps the head sum_{n<N}
n^{-s} of its value-only pass, and Q (``qfunction``) reads it, so the
refined zero, Q there and its audit share one pass. ``_head`` is the
memo's one reader and writer. It holds the 2,048 most recent heads, keyed
by (s, N) under complex equality and evicted oldest first. A head depends
on s and N alone, so a hit returns the bits a fresh pass would; keys with
a signed zero, such as 2+0j and 2-0j, hold the same bits too, since the
total starts at 1+0j and exp(+-0 + iy) is one value. Plain and derivative
evaluations and walks make their own passes and neither read nor write
the memo, since no caller reads their heads again; ``dirichlet_partial_sum``
itself is never cached.
"""

from __future__ import annotations

import cmath
import math
from array import array
from collections import deque
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
    "dirichlet_line",
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
# Dirichlet heads kept by _head: one per refined zero, from its polish to
# its audit (269 over 0..499, pinned with the cost of a refined zero)
_HEAD_MEMO_SIZE = 2048


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

    ``remainder_bound`` is computed on its first read, as
    ``remainder_bound(s, N, nu)`` with the same bits (or taken from
    ``auto_params``, which computed it at s to pick the params), and kept,
    so a caller that never reads it does not pay for it. ``derivative`` is the
    exact derivative of the evaluated sum, or None unless it was asked for.
    """

    value: complex
    s: complex
    params_used: EvalParams
    derivative: complex | None = None

    @property
    def remainder_bound(self) -> float:
        # kept after the first read without functools.cached_property, which
        # takes a lock on Python 3.11; two threads reading at once both
        # compute the same bits
        bound = self.__dict__.get("_bound")
        if bound is None:
            params = self.params_used
            picked = params.__dict__.get("_picked_at")
            if picked is not None and picked[0] == self.s:
                bound = picked[1]
            else:
                bound = remainder_bound(self.s, params.cutoff_n, params.tail_order)
            object.__setattr__(self, "_bound", bound)
        return bound


def _rpow(base: float, exponent: complex) -> complex:
    # base^exponent for real base > 0 via the principal (real) logarithm
    return cmath.exp(exponent * math.log(base))


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


# (s, N) -> sum_{n<N} n^{-s} of the most recent exact passes, and their keys
# oldest first (a dict and a deque take less memory than an OrderedDict)
_HEADS: dict[tuple[complex, int], complex] = {}
_HEAD_KEYS: deque[tuple[complex, int]] = deque()


def _forget_heads() -> None:
    _HEADS.clear()
    _HEAD_KEYS.clear()


def _head(s: complex, cutoff_n: int) -> complex:
    # dirichlet_partial_sum(s, cutoff_n), from the memo when a recent pass
    # summed the same (s, N), and kept there otherwise; the bits are the
    # same either way
    key = (s, cutoff_n)
    head = _HEADS.get(key)
    if head is None:
        head = dirichlet_partial_sum(s, cutoff_n)
        if len(_HEAD_KEYS) >= _HEAD_MEMO_SIZE:
            _HEADS.pop(_HEAD_KEYS.popleft(), None)
        _HEAD_KEYS.append(key)
        _HEADS[key] = head
    return head


def dirichlet_line(start: complex, stop: complex, segments: int, cutoff_n: int) -> list[complex]:
    """Partial sums at the nodes start + k (stop - start)/segments, k = 0..segments.

    Walks the line (see the module docstring): node 0 has the bits of
    ``dirichlet_partial_sum(start)``, and node k's terms carry about k
    roundings of the walk.
    """
    start = _as_complex(start, "start")
    stop = _as_complex(stop, "stop")
    if type(segments) is not int or segments < 1:
        raise ParameterError(f"segments must be an integer >= 1, got {segments!r}")
    return _dirichlet_path([start, stop], [segments], cutoff_n)


def _dirichlet_path(vertices: list[complex], segments: list[int], cutoff_n: int) -> list[complex]:
    # partial sums at the nodes of a walk from vertices[0] through the
    # others, edge j cut into segments[j] equal steps, a vertex one node.
    # With one count per vertex the path is closed: its last edge returns to
    # vertices[0], whose sum is not walked again.
    logs = _log_table(cutoff_n)[2:cutoff_n]
    minus_s = -vertices[0]
    terms = [cmath.exp(minus_s * log_n) for log_n in logs]
    # an explicit left fold: sum() may compensate and change the bits
    sums = [reduce(add, terms, 1.0 + 0.0j)]
    closed = len(segments) == len(vertices)
    for j, count in enumerate(segments):
        start, stop = vertices[j], vertices[(j + 1) % len(vertices)]
        minus_d = -(stop - start) / count
        ratios = [cmath.exp(minus_d * log_n) for log_n in logs]
        for _ in range(count - 1 if closed and j == len(segments) - 1 else count):
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
    """
    s = _as_complex(s)
    _check_params(cutoff_n, tail_order)
    nu = tail_order
    denom = _tail_denominator(s.real, nu)
    prod = 1.0
    for k in range(2 * nu + 1):
        prod *= abs(s + k)
    scale = math.exp(-denom * math.log(cutoff_n))
    return abs(_coeffs()[nu + 1]) * prod * scale * abs(s + 2 * nu + 1) / denom


@lru_cache(maxsize=None)
def _tail_orders(tail_order: int) -> tuple[float, tuple[tuple[float, float, float], ...]]:
    # B_{2nu}/(2nu)!, and (B_{2mu}/(2mu)!, 2mu - 1, 2mu) for mu = nu-1 down to
    # 1, the order in which the nested series reads them; built once per nu
    c = _coeffs()
    return c[tail_order], tuple((c[mu], 2.0 * mu - 1.0, 2.0 * mu) for mu in range(tail_order - 1, 0, -1))


def _em_series(s: complex, log_n: float, inv_n2: float, orders: tuple, head: complex, prod: complex,
               dprod: complex | None = None) -> tuple[complex, complex | None]:
    # head + sum_mu c_mu * prod * (s+1)...(s+2mu-2) * N^{-s-2mu+1} in the
    # nested form of the module docstring. 1/N^2 stays in the loop: a table
    # of coefficients scaled per (N, nu) would be rebuilt whenever N changes.
    # When dprod = prod' is given, also the derivative of the sum over mu
    # (head excluded), along Horner's derivative dacc = q' acc + q dacc with
    # q'_mu = (2s+4mu-1)/N^2; None otherwise. The evaluator passes
    # head = N^{-s}/2, prod = s and, for a derivative, dprod = 1 (safe at
    # s = 0); the abbreviated tail r(N, s) passes head = N^{-s}/(2s),
    # prod = 1. The total has the same bits either way: both paths make the
    # value's operations in the same order.
    acc, orders = orders
    npow = cmath.exp((-s - 1) * log_n)
    if dprod is None:
        for c, a, b in orders:
            acc = c + (s + a) * (s + b) * inv_n2 * acc
        return head + prod * npow * acc, None
    dacc = 0.0j
    for c, a, b in orders:
        u, v = s + a, s + b
        q = u * v * inv_n2
        dacc = (u + v) * inv_n2 * acc + q * dacc
        acc = c + q * acc
    tail = prod * npow * acc
    return head + tail, (dprod * acc + prod * dacc) * npow - log_n * tail


def em_tail(s: complex, params: EvalParams) -> complex:
    """Abbreviated tail r(N, s), so that Z(s) = head + N^{1-s}/(s-1) + s r(N, s).

    The product in the mu = 1 term is empty, so that term is
    (B_2/2) * N^{-s-1}. Its truncation bound is the evaluator's
    ``remainder_bound`` divided by |s|.
    """
    s = _as_complex(s)
    if s == 0:
        raise ParameterError("the abbreviated tail divides by s; s = 0 is excluded")
    n = _eval_params(params).cutoff_n
    r, _ = _em_series(s, math.log(n), 1.0 / (n * n), _tail_orders(params.tail_order),
                      _rpow(n, -s) / (2 * s), 1.0 + 0.0j)
    return r


def _zeta_nodes(
    nodes: list[complex], heads: list[complex], params: EvalParams, head_slopes: list[complex] | None = None
) -> tuple[list[complex], list[complex] | None]:
    # zeta at each node from its Dirichlet head at params.cutoff_n, and with
    # head_slopes each node's derivative; None otherwise. The truncation
    # bound is left to the caller, but its order is refused here, at the
    # smaller Re s of the first and last nodes: an end of a line, and the
    # smallest on the rectangle's closed walk, which starts at (sigma_min, t_min).
    n, nu = params.cutoff_n, params.tail_order
    log_n = math.log(n)
    inv_n2 = 1.0 / (n * n)
    orders = _tail_orders(nu)
    dprod = None if head_slopes is None else 1.0 + 0.0j
    values = []
    slopes = None if head_slopes is None else []
    for k, (s, head) in enumerate(zip(nodes, heads)):
        pole_term = cmath.exp((1 - s) * log_n) / (s - 1)
        half = cmath.exp(-s * log_n) / 2
        tail, tail_slope = _em_series(s, log_n, inv_n2, orders, half, s, dprod)
        value = head + pole_term + tail
        if not cmath.isfinite(value):
            raise ParameterError(f"evaluation overflowed at s = {s!r} with cutoff {n}")
        values.append(value)
        if slopes is not None:
            slopes.append(head_slopes[k] - pole_term * (log_n + 1 / (s - 1)) - log_n * half + tail_slope)
    _tail_denominator(min(nodes[0].real, nodes[-1].real), nu)
    return values, slopes


def _value(s: complex, params: EvalParams) -> complex:
    # zeta_gb(s, params).value, checks aside, its head kept in the memo for Q
    (value,), _ = _zeta_nodes([s], [_head(s, params.cutoff_n)], params)
    return value


def zeta_gb(
    s: complex,
    params: EvalParams | None = None,
    *,
    eps: float = DEFAULT_TARGET_EPS,
    derivative: bool = False,
) -> EvalResult:
    """Evaluate the Gram-Backlund extension at ``s``.

    With ``params`` omitted the cutoff and tail order come from
    ``auto_params`` at target accuracy ``eps`` (default 1e-8). The
    correction sum keeps its leading s factor, so s = 0 needs no
    special route and lands on -0.5 to machine rounding.

    With ``derivative`` set, ``EvalResult.derivative`` holds the exact
    derivative of the evaluated sum (see the module docstring), taken in
    the same Dirichlet pass; ``value`` keeps the same bits either way.
    """
    s = _as_complex(s)
    if s == 1:
        raise PoleError("s = 1 is the simple pole of the extension")
    params = auto_params(s, eps) if params is None else _eval_params(params)
    _tail_denominator(s.real, params.tail_order)
    if not derivative:
        (value,), _ = _zeta_nodes([s], [dirichlet_partial_sum(s, params.cutoff_n)], params)
        return EvalResult(value=value, s=s, params_used=params)
    head, head_slope = dirichlet_partial_sum(s, params.cutoff_n, derivative=True)
    (value,), (slope,) = _zeta_nodes([s], [head], params, [head_slope])
    return EvalResult(value=value, s=s, params_used=params, derivative=slope)


def auto_params(s: complex, eps: float) -> EvalParams:
    """Pick the cheapest (N, nu) whose certified bound meets ``eps``.

    Cost is N + 3 nu (see the module docstring); the tail order ranges
    over 2..25 and the cutoff over 2..64,128. Accuracy requests below
    1e-13 are refused: binary64 rounding already eats that.
    """
    s = _as_complex(s)
    if abs(s.imag) > _IM_CAP:
        raise ParameterError(f"|Im s| = {abs(s.imag)} exceeds the supported range {_IM_CAP}")
    if not _is_real(eps) or not math.isfinite(eps) or eps <= 0:
        raise ParameterError(f"eps must be a finite positive number, got {eps!r}")
    if eps < _EPS_FLOOR:
        raise PrecisionError(f"eps = {eps} is below the binary64 floor {_EPS_FLOOR}")

    params = _schedule(s, eps)
    if params is None:
        best = min((remainder_bound(s, _MAX_CUTOFF, nu) for nu in _AUTO_NU_RANGE
                    if s.real + 2 * nu + 1 > 0), default=math.inf)
        raise PrecisionError(
            f"no schedule entry certifies eps = {eps} at s = {s!r}; best bound {best:.3e}",
            best_bound=best,
        )
    return params


@lru_cache(maxsize=None)
def _schedule_rows() -> tuple[tuple[int, int, float, int], ...]:
    # (nu, 2 nu, |c_{nu+1}|, _TAIL_TERMS nu) for each nu the schedule sweeps
    return tuple((nu, 2 * nu, abs(_coeffs()[nu + 1]), _TAIL_TERMS * nu) for nu in _AUTO_NU_RANGE)


def _schedule(s: complex, eps: float) -> EvalParams | None:
    # the (N, nu) of least cost N + 3 nu, nu in 2..25 and N <= _MAX_CUTOFF,
    # whose bound at s meets eps, or None. With d = Re s + 2 nu + 1 and
    # A_nu = |c_{nu+1}| prod_{k<=2nu+1} |s + k| / d, from a running product,
    # each nu's least N solves A_nu N^-d = eps. Cost falls while a longer
    # tail shortens N by more than 3 and rises after (the tests check this
    # against a full search), so the sweep stops at the first rise. Only the
    # winner is checked against remainder_bound itself, N raised until it
    # meets eps; the closed form is shaded by 1e-12 so that it never starts
    # above the least N. The params carry the bound they meet at s, so that a
    # result evaluated at s need not compute it again.
    sigma, t = s.real, s.imag
    hypot, ceil, cap, shade = math.hypot, math.ceil, _MAX_CUTOFF, _SHADE
    prod = hypot(sigma, t) * hypot(sigma + 1.0, t) * hypot(sigma + 2.0, t) * hypot(sigma + 3.0, t)
    best_cost = math.inf
    best = None
    for nu, two_nu, c, tail_cost in _schedule_rows():
        a = sigma + two_nu
        d = a + 1.0
        prod *= hypot(a, t) * hypot(d, t)
        if d <= 0.0:
            continue
        try:
            x = (c * prod / (d * eps)) ** (1.0 / d)
        except OverflowError:
            continue
        if x > cap:
            continue
        cutoff = max(2, ceil(x * shade))
        cost = cutoff + tail_cost
        if cost > best_cost:
            break
        if cost < best_cost:
            best_cost, best = cost, (cutoff, nu)
    if best is None:
        return None
    least, nu = best
    # the closed form and the bound round apart by a few ulps
    for cutoff in range(least, min(least + 4, _MAX_CUTOFF + 1)):
        bound = remainder_bound(s, cutoff, nu)
        if bound <= eps:
            params = EvalParams(cutoff, nu)
            # no field, so neither equality nor repr sees it
            object.__setattr__(params, "_picked_at", (s, bound))
            return params
    return None
