"""Critical-line zero scanning, Newton refinement, and zero counts.

Brackets. The scanner samples zeta(1/2 + it) on a uniform grid. Since
zeta(1/2 + it) = e^{-i theta(t)} Z(t) with Hardy's Z real,
Re[zeta_b conj(zeta_a)] = Z_a Z_b cos(theta_b - theta_a) has the sign of
Z_a Z_b while |theta_b - theta_a| < pi/2, as it stays on every allowed
grid (step <= 0.5) for 0 <= t <= 500; so a negative value brackets a zero
of odd order on the line without computing theta. Two zeros in one cell
show no sign change; a caller that holds a count of all zeros rescans at
a finer step.

The seed. On a bracket [a, b] the real function
h(t) = Re[zeta(1/2 + it) conj(zeta_a)] / |zeta_a| runs from
h_a = |zeta_a| > 0 to h_b < 0. Newton starts at the root in the bracket
of the polynomial that interpolates h through up to 8 consecutive grid
nodes around it (not those where zeta is exactly 0), in divided-difference
form, so an off-grid t_max node serves too; at a window's end the stencil
shifts to stay on the grid. Newton on the polynomial runs from the
regula-falsi point a + (b - a) h_a / (h_a - h_b), guarded by bisection:
the polynomial also runs from h_a > 0 to h_b < 0, so the seed lies
strictly inside the bracket, and through two nodes it is the regula-falsi
point. The grid values are already there, so the seed costs no evaluation.

Refinement. Complex Newton takes the analytic derivative from the same
exact pass as the value, at the scan's params. If it leaves the bracket
or the strip, Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971)
narrows the sign change of h, one exact evaluation a step, and Newton
polishes its last point, so xi is still measured; a bracket that still
yields no zero inside raises a RefinementError naming it. The polish
step of ``refine_zero`` reads no slope, so it makes one value-only pass,
whose head Q at the refined zero reads from the evaluator's memo (see
``zeta_core``).

The certificate. The scan grid is a line of uniformly spaced nodes and a
rectangle's boundary a path of three or four such sides, so their Dirichlet
sums come from one walk and their values from one node-kernel call (see
``zeta_core``); phase-walk splits and an off-grid t_max are one-node
walks, from an exact head. Those values only decide signs and phases, so a
walk runs at a sample cutoff: the cheapest schedule entry whose truncation
bound at the walk's worst corner (its smallest sigma, max |t|) is at
most 2^-15, or the caller's params where no entry applies (beyond
t = 500). A sample counts when |value| exceeds 2^10 times its truncation
bound plus a first-order rounding bound: N - 1 additions and a phase error of
2 |s| ln N in any pass, with |s| read as |s_0| plus the walk's length,
which also covers the steps' own errors, and k + 2 more roundings at walk
node k, all in units of u sum n^{-sigma} at the walk's smallest sigma. Its
error is then below |zeta|/1024, so by Rouche's theorem it has the sign and
the winding of the exact value. 2^10 times 2^-15 is 1/32: a sample above
1/32, plus its rounding term, certifies, and a finer cutoff buys accuracy
that the certificate seldom reads. A node that fails the certificate makes
the exact pass at params. Grid values only pick brackets and Newton seeds,
so the refined zeros move by rounding only, within the Newton tolerance.

Side bounds. Each side of a walk is certified against one truncation
bound at least every node's. On a vertical side (the scan grid, a
rectangle's left and right sides) each factor |s + k| grows with |t|, so
that is the bound at the end farther from the real axis. On a horizontal
side at height t,

    d ln B / d sigma = sum_{k <= 2 nu + 1} (sigma + k) / |s + k|^2
                       - ln N - 1/(sigma + 2 nu + 1)
                    <= (nu + 1)/|t| - ln N,

since (sigma + k)^2 + t^2 >= 2 |sigma + k| |t| and sigma + 2 nu + 1 > 0,
so whenever nu + 1 < |t| ln N the bound falls as sigma grows and the end
with the smaller sigma bounds the side; elsewhere (near t = 0) each node
reads its own bound. A node that fails its side's bound reads its own, so
every decision is the per-node one.

Winding. Rectangle counts use the argument principle: a phase increment
between neighbouring nodes is kept below pi/2, split at the midpoint
otherwise. A side takes max(4, ceil(length / 0.25)) steps, or one in
sigma >= 2: there |zeta - 1| <= zeta(2) - 1 < 0.645, so |arg zeta| < 0.701
(asin 0.645), and its phase change, the principal difference of its end
phases, stays below 1.402 < pi/2 with each sample's error of about 1e-3
(where that premise fails, the guard splits). A rectangle walks its closed
boundary, the last increment closing on the first node's value, unless it
is symmetric about the line (sigma_min + sigma_max = 1 in binary64) with
sigma_min > 0 or t_min > 0. Then it walks only its right half, the path
1/2 + i t_min -> sigma_max + i t_min -> sigma_max + i t_max -> 1/2 + i t_max,
and the functional equation gives the left half's phase (Backlund's
N(T) = theta(T)/pi + 1 + S(T) rests on the same identity):

  * reflection and the functional equation give
    zeta(s) = chi(s) conj zeta(1 - conj s), and the left half is the
    mirror image of the right half walked backwards, so
    Delta_left arg zeta = Delta_right arg zeta + Delta_left arg chi;
  * chi's zeros and poles lie on the real axis outside 0 < sigma <= 1/2, so
    none lies between the left half and the line, and its change along the
    left half equals its change down the line, where
    arg chi(1/2 + it) = -2 theta(t); the count is therefore
    (Delta_right arg zeta + theta(t_max) - theta(t_min)) / pi;
  * a zero on the left side has its mirror on the right side, so the
    BoundaryError still fires there.

Its residual then carries the phase errors of the two samples on the
line, not only rounding. The full-accuracy params stay those of the
whole rectangle. On the boundary only full-accuracy values decide a
BoundaryError, since a certified sample must also exceed 2e-6.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .bernoulli import _full_table
from .errors import BoundaryError, InconclusiveError, ParameterError, RefinementError
from .serialize import csv_text, dumps
from .zeta_core import (_IM_CAP, EvalParams, _as_complex, _dirichlet_path, _eval_params, _is_real, _schedule,
                        _tail_denominator, _value, _zeta_nodes, auto_params, dirichlet_partial_sum, remainder_bound,
                        zeta_gb)
from .qfunction import q_gb

__all__ = [
    "ZeroRecord",
    "Rectangle",
    "ScanConfig",
    "refine_zero",
    "scan_critical_line",
    "rectangle_winding",
    "siegel_theta",
    "record_fields",
    "write_records_csv",
    "read_records_csv",
    "write_records_jsonl",
    "read_records_jsonl",
]

logger = logging.getLogger(__name__)

_STEP_FLOOR = 1e-12      # Newton stalls below this step size
_TOL_FLOOR = 1e-10       # refinement tolerances below this are unreliable
_BOUNDARY_MODULUS = 1e-6  # contour samples below this indicate a boundary zero
_MAX_SPLIT_DEPTH = 12    # adaptive phase-walk refinement levels
_PHASE_LIMIT = math.pi / 2
_LEFT_STRIP = "iteration left the critical strip"
# truncation bound of the sampled walks at their worst corner (see the module docstring)
_SAMPLE_EPS = 2.0 ** -15
_SAMPLE_MARGIN = 2.0 ** 10  # a sample counts when |value| exceeds this many error bounds
_UNIT_ROUNDOFF = 2.0 ** -53
_SEED_NODES = 8          # grid nodes the Newton seed's interpolant passes through
_SEED_STEP = 1e-13       # the seed's polynomial Newton stops below this relative step
_SEED_ITER = 64          # its steps, bisections included
# theta: shift z = 1/4 + it/2 up to |z| >= 10, then sum 10 Stirling terms; the
# first dropped one, B_22 / (22 * 21 * z^21), is below 2e-20 there
_THETA_SHIFT = 10.0
_STIRLING_TERMS = 10


@dataclass(frozen=True)
class ZeroRecord:
    """One refined zero s, canonicalized to the upper half plane.

    Its ordinate ``t`` = Im s and its line offset ``xi`` = Re s - 1/2 are
    read from s, so they cannot disagree with it.
    """

    s: complex
    z_modulus: float
    q_value: complex
    refine_iterations: int
    params_used: EvalParams

    @property
    def t(self) -> float:
        return self.s.imag

    @property
    def xi(self) -> float:
        return self.s.real - 0.5

    def __post_init__(self) -> None:
        if not self.t > 0:
            raise ParameterError(f"zero records live in the upper half plane, got t = {self.t!r}")
        if not 0.0 < self.s.real < 1.0:
            raise ParameterError(f"zero record outside the critical strip: s = {self.s!r}")


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned strip rectangle for winding counts."""

    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        for name in ("sigma_min", "sigma_max", "t_min", "t_max"):
            v = getattr(self, name)
            if not _is_real(v) or not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v!r}")
        if not self.sigma_min < self.sigma_max:
            raise ParameterError("sigma_min must be below sigma_max")
        if not self.t_min < self.t_max:
            raise ParameterError("t_min must be below t_max")
        for point in (0.0, 1.0):
            if self._on_boundary(point):
                raise ParameterError(
                    f"rectangle boundary passes through s = {point}; nudge the rectangle"
                )

    def _on_boundary(self, x: float) -> bool:
        # Both excluded points sit on the real axis (t = 0).
        if self.t_min == 0.0 or self.t_max == 0.0:
            return self.sigma_min <= x <= self.sigma_max
        if self.sigma_min == x or self.sigma_max == x:
            return self.t_min <= 0.0 <= self.t_max
        return False

    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.sigma_min, self.t_min),
            complex(self.sigma_max, self.t_min),
            complex(self.sigma_max, self.t_max),
            complex(self.sigma_min, self.t_max),
        )


@dataclass(frozen=True)
class ScanConfig:
    """Grid and refinement knobs for the critical-line scanner."""

    step: float = 0.25
    tol: float = 1e-9
    max_iter: int = 50
    strict_refine: bool = False

    def __post_init__(self) -> None:
        if not _is_real(self.step) or not 0 < self.step <= 0.5:
            raise ParameterError(f"step must lie in (0, 0.5], got {self.step!r}")
        if not _is_real(self.tol) or not self.tol >= _TOL_FLOOR:
            raise ParameterError(f"tol must be at least {_TOL_FLOOR}, got {self.tol!r}")
        if type(self.max_iter) is not int or self.max_iter < 1:
            raise ParameterError(f"max_iter must be a positive integer, got {self.max_iter!r}")


def _refine_params(s0: complex, tol: float) -> EvalParams:
    return auto_params(s0, tol / 10.0)


def _scan_config(cfg: ScanConfig | None) -> ScanConfig:
    cfg = ScanConfig() if cfg is None else cfg
    if not isinstance(cfg, ScanConfig):
        raise ParameterError(f"cfg must be a ScanConfig, got {type(cfg).__name__}")
    return cfg


def _check_t_range(t_min: float, t_max: float) -> None:
    if not _is_real(t_min) or not _is_real(t_max):
        raise ParameterError("t_min and t_max must be numbers")
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or t_min < 0 or t_max <= t_min:
        raise ParameterError(f"need 0 <= t_min < t_max, got [{t_min!r}, {t_max!r}]")
    if t_max > _IM_CAP:
        raise ParameterError(f"t_max = {t_max!r} exceeds the supported range {_IM_CAP}")


def refine_zero(
    s0: complex,
    tol: float = ScanConfig.tol,
    max_iter: int = ScanConfig.max_iter,
    params: EvalParams | None = None,
) -> ZeroRecord:
    """Newton-refine a zero seed inside the critical strip.

    Iterates until |Z| <= tol; a step below 1e-12 that still leaves |Z|
    above tol counts as a stall. Iterates leaving the strip raise
    RefinementError. Then one polish step at the same params, counted in
    ``refine_iterations``, squares the error again; its point is kept if
    |Z| still meets tol, so |Z| at a zero does not depend on where the
    last step below tol happened to land. The refined location is kept
    as measured (xi is never projected onto the line); seeds in the
    lower half plane produce the conjugate record.
    """
    s0 = _as_complex(s0, "s0")
    if not 0.0 < s0.real < 1.0:
        raise ParameterError(f"seed must sit inside the critical strip, got {s0!r}")
    ScanConfig(tol=tol, max_iter=max_iter)  # validates tol and max_iter
    params = _refine_params(s0, tol) if params is None else _eval_params(params)

    def f(z: complex) -> tuple[complex, complex]:
        result = zeta_gb(z, params, derivative=True)
        return result.value, result.derivative

    z = s0
    fz, deriv = f(z)
    iterations = 0
    while abs(fz) > tol:
        if iterations >= max_iter:
            raise RefinementError(
                f"no convergence within {max_iter} iterations from seed {s0!r} (|Z| = {abs(fz):.3e})"
            )
        if deriv == 0 or not cmath.isfinite(deriv):
            raise RefinementError(f"derivative degenerated at {z!r}")
        step = fz / deriv
        z = z - step
        iterations += 1
        if not 0.0 < z.real < 1.0:
            raise RefinementError(f"{_LEFT_STRIP} at {z!r} from seed {s0!r}")
        fz, deriv = f(z)
        if abs(step) < _STEP_FLOOR and abs(fz) > tol:
            raise RefinementError(
                f"stalled at {z!r}: step {abs(step):.3e} below floor with |Z| = {abs(fz):.3e}"
            )
    # the polish: one more step, which squares the error, kept if |Z| still meets tol
    if deriv != 0 and cmath.isfinite(deriv):
        polished = z - fz / deriv
        if 0.0 < polished.real < 1.0:
            iterations += 1
            fp = _value(polished, params)
            if abs(fp) <= tol:
                z, fz = polished, fp
    if z.imag < 0:
        z = z.conjugate()  # |Z| is unchanged: Z(conj s) = conj Z(s)
    if z.imag == 0:
        raise RefinementError(f"refinement landed on the real axis at {z!r}")
    return ZeroRecord(
        s=z,
        z_modulus=abs(fz),
        q_value=q_gb(z, params),
        refine_iterations=iterations,
        params_used=params,
    )


def _sample_params(corner: complex, params: EvalParams | None) -> EvalParams | None:
    # the (N, nu) of sign and phase samples on a walk whose truncation bound
    # is largest at ``corner``: the cheapest bounding it by _SAMPLE_EPS, or
    # params beyond the supported range or where no schedule entry applies
    if abs(corner.imag) > _IM_CAP:
        return params
    return _schedule(corner, _SAMPLE_EPS) or params


def _rounding(path: list[complex], count: int, cutoff_n: int) -> list[float]:
    # the module docstring's rounding bound at the first ``count`` nodes
    # walked along ``path`` (its vertices in walk order, a closed path ending
    # where it starts). At the path's smallest sigma,
    # 1 + integral_1^N x^-sigma dx bounds sum_{n<N} n^-sigma for every real sigma.
    sigma = min(z.real for z in path)
    log_n = math.log(cutoff_n)
    a = (1.0 - sigma) * log_n
    unit = _UNIT_ROUNDOFF * (1.0 + (math.expm1(a) / (1.0 - sigma) if a else log_n))
    length = sum(abs(stop - start) for start, stop in zip(path, path[1:]))
    units = cutoff_n + 1 + 2 * (abs(path[0]) + length) * log_n
    return [(units + k) * unit for k in range(count)]


def _side_bound(start: complex, stop: complex, cutoff_n: int, tail_order: int) -> float:
    # the module docstring's side bound of the side from start to stop, or
    # inf where its nodes read their own
    if start.real == stop.real:
        return remainder_bound(max(start, stop, key=lambda z: abs(z.imag)), cutoff_n, tail_order)
    if start.imag == stop.imag and tail_order + 1 < abs(start.imag) * math.log(cutoff_n):
        return remainder_bound(min(start, stop, key=lambda z: z.real), cutoff_n, tail_order)
    return math.inf


def _walk(
    nodes: list[complex],
    segments: list[int],
    sample: EvalParams,
    exact: Callable[[complex], complex],
    floor: float = 0.0,
) -> list[complex]:
    # zeta at the nodes of a path of straight sides, from one walk at the
    # sample cutoff, or at one node (no segments) from its exact head. Side j
    # starts at node segments[0] + ... + segments[j-1] and reaches the next
    # side's first node in segments[j] equal steps; when the counts add up
    # to len(nodes), the path is closed and its last side returns to
    # nodes[0]. A node whose sample is not certified (see the module
    # docstring), or not above floor, takes exact(z).
    n, nu = sample.cutoff_n, sample.tail_order
    firsts = list(accumulate(segments, initial=0))
    closed = firsts[-1] == len(nodes)
    vertices = [nodes[k] for k in firsts[:-1]] + ([] if closed else [nodes[-1]])
    path = vertices + vertices[:1] if closed else vertices
    _tail_denominator(min(z.real for z in vertices), nu)
    heads = _dirichlet_path(vertices, segments, n) if segments else [dirichlet_partial_sum(nodes[0], n)]
    values, _ = _zeta_nodes(nodes, heads, sample)
    bounds: list[float] = []
    for start, stop, count in zip(path, path[1:], segments):
        bounds += [_side_bound(start, stop, n, nu)] * count
    if not closed:  # the last node ends the last side
        bounds.append(bounds[-1] if bounds else math.inf)
    for k, (z, value, bound, rounding) in enumerate(zip(nodes, values, bounds, _rounding(path, len(nodes), n))):
        if not abs(value) > max(floor, _SAMPLE_MARGIN * (bound + rounding)):
            if not abs(value) > max(floor, _SAMPLE_MARGIN * (remainder_bound(z, n, nu) + rounding)):
                values[k] = exact(z)
    return values


def _line_values(
    t_min: float, t_max: float, step: float, params: EvalParams
) -> tuple[list[float], list[complex]]:
    # the grid t_min + k step, plus t_max when it is off the grid, and Z at
    # 1/2 + it on each node
    count = int(math.floor((t_max - t_min) / step + 1e-9))
    grid = [t_min + k * step for k in range(count + 1)]
    sample = _sample_params(complex(0.5, t_max), params)

    def exact(z: complex) -> complex:
        return zeta_gb(z, params).value

    values = _walk([complex(0.5, t) for t in grid], [len(grid) - 1] if len(grid) > 1 else [], sample, exact)
    if grid[-1] < t_max - 1e-12:
        grid.append(t_max)
        values += _walk([complex(0.5, t_max)], [], sample, exact)
    return grid, values


def _refine_bracket(
    ta: float, tb: float, seed: float, za: complex, hb: float, cfg: ScanConfig, params: EvalParams
) -> ZeroRecord:
    # the zero in (ta, tb), where h falls from |za| to hb < 0, refined as the
    # module docstring says
    ha = abs(za)
    try:
        rec = refine_zero(complex(0.5, seed), cfg.tol, cfg.max_iter, params)
        if ta < rec.t < tb:
            return rec
    except RefinementError as exc:
        if not str(exc).startswith(_LEFT_STRIP):
            raise

    # narrow until |h| <= sqrt(tol), from where a Newton step, which squares
    # the error, reaches tol and measures xi
    a, fa, b, fb, side = ta, ha, tb, hb, 0
    t = seed
    for _ in range(cfg.max_iter):
        c = a + (b - a) * fa / (fa - fb)
        if not a < c < b:
            break
        t, fc = c, (zeta_gb(complex(0.5, c), params).value * za.conjugate()).real / ha
        if abs(fc) <= math.sqrt(cfg.tol):
            break
        # an end kept twice in a row has its h halved (Illinois)
        if fc > 0:
            a, fa = c, fc
            fb = fb / 2 if side > 0 else fb
            side = 1
        else:
            b, fb = c, fc
            fa = fa / 2 if side < 0 else fa
            side = -1
    where = f"no zero found inside its bracket [{ta:.6f}, {tb:.6f}]"
    try:
        rec = refine_zero(complex(0.5, t), cfg.tol, cfg.max_iter, params)
    except RefinementError as exc:
        raise RefinementError(f"{where}: {exc}") from None
    if not ta < rec.t < tb:
        raise RefinementError(f"{where}: the polish refined to t = {rec.t:.6f}")
    return rec


def _interpolated_seed(ts: list[float], hs: list[float], ta: float, tb: float, ha: float, hb: float) -> float:
    # the root in (ta, tb) of the polynomial through (ts, hs), where
    # h(ta) = ha > 0 > hb = h(tb), by the module docstring's guarded Newton
    coef = list(hs)
    for j in range(1, len(ts)):
        for k in range(len(ts) - 1, j - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / (ts[k] - ts[k - j])
    a, b = ta, tb
    t = ta + (tb - ta) * ha / (ha - hb)
    for _ in range(_SEED_ITER):
        p, dp = coef[-1], 0.0
        for k in range(len(ts) - 2, -1, -1):
            dp = dp * (t - ts[k]) + p
            p = p * (t - ts[k]) + coef[k]
        if p > 0:
            a = t
        else:
            b = t
        step = p / dp if dp else math.inf
        new = t - step
        # the step is tested before the guard, which would bisect away from a converged root
        if abs(step) <= _SEED_STEP * (1.0 + abs(t)):
            return new if a < new < b else t
        if not a < new < b:
            new = 0.5 * (a + b)
            if not a < new < b:
                break
        t = new
    return t


def scan_critical_line(
    t_min: float,
    t_max: float,
    cfg: ScanConfig | None = None,
    params: EvalParams | None = None,
) -> list[ZeroRecord]:
    """Bracket zeros on the line by sign changes over [t_min, t_max] and refine them.

    ``cfg`` (default ``ScanConfig()``) holds every scan setting. Grid
    nodes where zeta is exactly 0 are dropped; every remaining cell whose
    ends give Re[zeta_b conj(zeta_a)] < 0 is a bracket, refined from its
    interpolated seed (see the module docstring), with at most
    ``cfg.max_iter`` Illinois steps. A refinement that fails is skipped
    with a logged warning unless ``cfg.strict_refine`` is set. Cells do not
    overlap, so no zero is returned twice; two zeros in one cell are not seen.
    """
    cfg = _scan_config(cfg)
    _check_t_range(t_min, t_max)
    params = _refine_params(complex(0.5, t_max), cfg.tol) if params is None else _eval_params(params)

    grid, values = _line_values(t_min, t_max, cfg.step, params)
    nodes = [(t, value) for t, value in zip(grid, values) if value != 0]

    records: list[ZeroRecord] = []
    skipped = 0
    for i, ((ta, za), (tb, zb)) in enumerate(zip(nodes, nodes[1:])):
        cross = (zb * za.conjugate()).real
        if cross >= 0:
            continue
        ha = abs(za)
        hb = cross / ha
        # the _SEED_NODES nodes around the bracket, shifted to stay on the grid
        lo = max(0, min(i + 1 - _SEED_NODES // 2, len(nodes) - _SEED_NODES))
        stencil = nodes[lo:lo + _SEED_NODES]
        ts = [t for t, _ in stencil]
        hs = [(z * za.conjugate()).real / ha for _, z in stencil]
        seed = _interpolated_seed(ts, hs, ta, tb, ha, hb)
        try:
            records.append(_refine_bracket(ta, tb, seed, za, hb, cfg, params))
        except RefinementError as exc:
            if cfg.strict_refine:
                raise
            skipped += 1
            logger.warning("refinement skipped near t = %.6f: %s", seed, exc)

    if skipped:
        logger.warning("scan of [%s, %s]: %d candidate(s) failed to refine", t_min, t_max, skipped)
    return records


# ---------------------------------------------------------------------------
# argument principle over rectangles
# ---------------------------------------------------------------------------


def _phase_walk(
    za: complex,
    zb: complex,
    fa: complex,
    fb: complex,
    f,
    depth: int,
) -> float:
    delta = math.remainder(cmath.phase(fb) - cmath.phase(fa), math.tau)
    if abs(delta) < _PHASE_LIMIT:
        return delta
    if depth >= _MAX_SPLIT_DEPTH:
        raise BoundaryError(
            f"phase step stayed above pi/2 after {_MAX_SPLIT_DEPTH} splits near {za!r}; "
            "a zero sits on or near the boundary, nudge the rectangle (for instance by 0.05 in t)"
        )
    mid = (za + zb) / 2
    fm = f(mid)
    return _phase_walk(za, mid, fa, fm, f, depth + 1) + _phase_walk(mid, zb, fm, fb, f, depth + 1)


@lru_cache(maxsize=None)
def _stirling_coeffs() -> tuple[float, ...]:
    # B_2k / (2k (2k - 1)) for k = 1.._STIRLING_TERMS, each rounded once from
    # the exact rational; built on first use, so importing builds no table
    table = _full_table()
    return tuple(float(table[2 * k] / (2 * k * (2 * k - 1))) for k in range(1, _STIRLING_TERMS + 1))


def siegel_theta(t: float) -> float:
    """The Riemann-Siegel theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Uses the Stirling series

        log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
                     + sum_k B_2k / (2k (2k-1) z^(2k-1))

    at |z| >= 10; a smaller z is first shifted up with
    log Gamma(z) = log Gamma(z + 1) - log z. The series at conj(z) gives
    -theta(t) bit for bit, so theta is odd with no branch on the sign of t.
    """
    if not _is_real(t) or not math.isfinite(t):
        raise ParameterError(f"t must be a finite real number, got {t!r}")
    z = complex(0.25, t / 2)
    shifted = 0.0  # Im of the logs the recurrence subtracts
    while abs(z) < _THETA_SHIFT:
        shifted += cmath.phase(z)
        z += 1
    inv_z = 1 / z
    inv_z2 = inv_z * inv_z
    series = 0.0j
    for coeff in _stirling_coeffs():
        series += coeff * inv_z
        inv_z *= inv_z2
    # Im[(z - 1/2) log z - z] for z = x + iy
    head = (z.real - 0.5) * cmath.phase(z) + z.imag * math.log(abs(z)) - z.imag
    return head + series.imag - shifted - t / 2 * math.log(math.pi)


def _worst_corner(rect: Rectangle) -> complex:
    # the truncation bound is largest at the left corner farthest from the real axis
    return complex(rect.sigma_min, max(abs(rect.t_min), abs(rect.t_max)))


def rectangle_winding(rect: Rectangle, params: EvalParams | None = None) -> tuple[int, float]:
    """Winding number of Z along the rectangle boundary and its residual.

    Returns (count, |winding - count|). The count equals zeros minus
    poles inside; keep s = 1 outside the rectangle. The module docstring
    says which sides take one step and which rectangles walk their right
    half only. Samples with |Z| < 1e-6 on the contour abort with
    BoundaryError. Without ``params``, full-accuracy values use
    ``auto_params`` at the worst corner with eps 1e-9, picked on first need.
    """
    if not isinstance(rect, Rectangle):
        raise ParameterError(f"rect must be a Rectangle, got {type(rect).__name__}")
    params = params if params is None else _eval_params(params)
    worst = _worst_corner(rect)
    mirrored = rect.sigma_min + rect.sigma_max == 1.0 and (rect.sigma_min > 0 or rect.t_min > 0)

    def full() -> EvalParams:
        nonlocal params
        if params is None:
            params = auto_params(worst, 1e-9)
        return params

    def exact(z: complex) -> complex:
        return zeta_gb(z, full()).value

    # the walked path's worst corner: its smallest sigma, farthest from the real axis
    sample = _sample_params(complex(0.5, worst.imag) if mirrored else worst, params) or full()

    def walk(nodes: list[complex], segments: list[int]) -> list[complex]:
        # a sample above twice the boundary modulus stays above it at params,
        # so only full-accuracy values decide a BoundaryError
        values = _walk(nodes, segments, sample, exact, 2 * _BOUNDARY_MODULUS)
        for z, value in zip(nodes, values):
            if abs(value) < _BOUNDARY_MODULUS:
                raise BoundaryError(
                    f"|Z| = {abs(value):.3e} at boundary point {z!r}; "
                    "a zero sits on the contour, nudge the rectangle (for instance by 0.05 in t)"
                )
        return values

    def f(z: complex) -> complex:
        return walk([z], [])[0]

    # one walk: each side's base nodes from its first corner on, so every
    # corner is one node; a closed walk's last increment closes on the first
    corners = rect.corners()
    if mirrored:
        vertices = [complex(0.5, rect.t_min), corners[1], corners[2], complex(0.5, rect.t_max)]
    else:
        vertices = [*corners, corners[0]]
    nodes: list[complex] = []
    segments: list[int] = []
    for za, zb in zip(vertices, vertices[1:]):
        count = 1 if min(za.real, zb.real) >= 2 else max(4, math.ceil(abs(zb - za) / 0.25))
        segments.append(count)
        nodes += [za + (zb - za) * (k / count) for k in range(count)]
    if mirrored:
        nodes.append(vertices[-1])
    ends = list(zip(nodes, walk(nodes, segments)))
    if not mirrored:
        ends.append(ends[0])
    total = 0.0
    for (za, fa), (zb, fb) in zip(ends, ends[1:]):
        total += _phase_walk(za, zb, fa, fb, f, 0)

    if mirrored:
        winding = (total + siegel_theta(rect.t_max) - siegel_theta(rect.t_min)) / math.pi
    else:
        winding = total / math.tau
    count = round(winding)
    residual = abs(winding - count)
    if residual >= 0.25:
        raise InconclusiveError(
            f"winding number {winding:.6f} is {residual:.3f} away from an integer",
            residual=residual,
        )
    return int(count), residual


# ---------------------------------------------------------------------------
# record persistence: JSON lines and CSV, 17 significant digits
# ---------------------------------------------------------------------------

RECORD_FIELDS = ("t", "re_s", "xi", "z_modulus", "q_re", "q_im", "N", "nu", "iterations")


def record_fields(rec: ZeroRecord) -> dict[str, float | int]:
    """The record's values keyed by ``RECORD_FIELDS``, in that order."""
    return {
        "t": rec.t,
        "re_s": rec.s.real,
        "xi": rec.xi,
        "z_modulus": rec.z_modulus,
        "q_re": rec.q_value.real,
        "q_im": rec.q_value.imag,
        "N": rec.params_used.cutoff_n,
        "nu": rec.params_used.tail_order,
        "iterations": rec.refine_iterations,
    }


def _record_from_row(row: dict[str, str | None], line: int) -> ZeroRecord:
    def field(name: str, kind: type = float):
        raw = row.get(name)
        try:
            return kind(raw)
        except (TypeError, ValueError):
            detail = f"{name} is missing" if raw is None else f"cannot read {name} = {raw!r}"
            raise ParameterError(f"malformed record on line {line}: {detail}") from None

    s = complex(field("re_s"), field("t"))
    # xi is written as re_s - 0.5 and read from s, so other bits mean an altered row
    if field("xi").hex() != (s.real - 0.5).hex():
        raise ParameterError(f"malformed record on line {line}: xi = {row['xi']} is not re_s - 0.5")
    return ZeroRecord(
        s=s,
        z_modulus=field("z_modulus"),
        q_value=complex(field("q_re"), field("q_im")),
        refine_iterations=field("iterations", int),
        params_used=EvalParams(field("N", int), field("nu", int)),
    )


def write_records_csv(records: list[ZeroRecord]) -> str:
    return csv_text(RECORD_FIELDS, [record_fields(rec).values() for rec in records])


def read_records_csv(text: str) -> list[ZeroRecord]:
    reader = csv.DictReader(io.StringIO(text))
    return [_record_from_row(row, reader.line_num) for row in reader]


def write_records_jsonl(records: list[ZeroRecord]) -> str:
    return "".join(dumps(record_fields(rec)) + "\n" for rec in records)


def read_records_jsonl(text: str) -> list[ZeroRecord]:
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = {k: str(v) for k, v in json.loads(line).items()}
        except (json.JSONDecodeError, AttributeError):
            raise ParameterError(f"malformed record on line {number}: not a JSON object") from None
        records.append(_record_from_row(row, number))
    return records
