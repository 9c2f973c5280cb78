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
h_a = |zeta_a| > 0 to h_b < 0. For any real phi,
Re[e^{i phi} zeta(1/2 + it)] = Z(t) cos(phi - theta(t)), which vanishes
where Z does, so h = sign(Z_a) Z(t) cos(theta(t) - theta(a)) keeps Z's
zeros; but the cosine's argument turns by about 4 rad across 8 grid
nodes at t = 499, which a polynomial follows poorly. So each node's
value is turned first:

    h_k = Re[zeta_k conj(zeta_a) e^{i psi_k}] / |zeta_a|,
    psi_k = d (ln(a / 2 pi) / 2 + d / (4a)),   d = t_k - a,

Taylor's quadratic for theta(t_k) - theta(a) from Stirling's
theta'(t) ~ ln(t / 2 pi) / 2 and theta''(t) ~ 1/(2t), one log and at
most 8 cosine-sine pairs a bracket. Then
h_k = sign(Z_a) Z(t_k) cos delta_k with
delta_k = theta(t_k) - theta(a) - psi_k. Stirling's series also gives
theta''' = -1/(2t^2) + ... and
theta' - ln(t / 2 pi) / 2 = -1/(48t^2) + ..., so to leading order
|delta_k| <= |d| (d^2 + 1) / (12 t^2), t the stencil's lowest node:
below 0.023 on any stencil of an allowed grid around a bracket of zeta
(a > 13.6 and |d| <= 3.5), and below 3e-6 at t = 499 on the default
grid. So the polynomial interpolates Hardy's Z itself, to a factor
within 3e-4 of 1. At a = 0, where ln a is not defined, psi_k = 0.
Where the turned h_b is not negative, the bracket seeds from h itself,
whose h_b < 0 made the bracket: for a below about 0.04, where
d^2 / (4a) turns psi far from theta, and on values that are not zeta's;
on zeta's values above a = 13.6, |delta_b| < 1e-3 and a certified
sample's phase error of at most 1/1024 cannot flip the sign.

Newton starts at the root in the bracket of the polynomial that
interpolates the h_k through up to 8 consecutive grid nodes around it
(not those where zeta is exactly 0), in divided-difference form, so an
off-grid t_max node serves too; at a window's end the stencil shifts to
stay on the grid. Newton on the polynomial runs from the regula-falsi
point a + (b - a) h_a / (h_a - h_b), guarded by bisection: the
polynomial also runs from h_a > 0 to h_b < 0, so the seed lies strictly
inside the bracket, and through two nodes it is the regula-falsi point.
The grid values are already there, so the seed costs no evaluation.

Refinement. Complex Newton runs from the seed, with the analytic
derivative from the same exact pass as the value, at the scan's params;
a zero it refines outside the bracket raises a RefinementError naming
the bracket. Each step calls the scalar pass (``zeta_core._pass``)
without ``zeta_gb``'s checks, which the strip check on each iterate
makes moot. The polish step of ``refine_zero`` reads no slope, so it
makes one value-only pass. Q at the refined zero is built from the parts
of the last pass kept, the polish's or the last Newton step's, with no
pass, exp or tail of its own; a zero refined below the real axis
conjugates its Q with it. Either way ``ZeroRecord.q_value`` has the bits
of ``q_gb``.

The certificate. The scan grid is a line of uniformly spaced nodes, an
off-grid t_max a last side of one step, and a rectangle's boundary an
open path of three or four such sides, so their Dirichlet sums come from
one walk and their values from one finisher call (see ``zeta_core``);
phase-walk splits are one-node walks, one exact pass each. Those values
only decide signs and phases, so a walk runs at a sample cutoff: the
cheapest schedule entry whose truncation bound at the walk's worst
corner (its smallest sigma, max |t|) is at most 2^-15, or the caller's
params where no entry applies. A sample counts when
|value| exceeds 2^10 times its truncation bound plus a first-order
rounding bound: N - 1 additions and a phase error of 2 |s| ln N in any
pass, with |s| read as |s_0| plus the walk's length, which also covers
the steps' own errors, and k + 2 more roundings at walk node k, all in
units of u sum n^{-sigma} at the walk's smallest sigma. Its error is
then below |zeta|/1024, so by Rouche's theorem it has the sign and the
winding of the exact value. 2^10 times 2^-15 is 1/32: a sample above
1/32, plus its rounding term, certifies, and a finer cutoff buys
accuracy that the certificate seldom reads. A node that fails the
certificate makes the exact pass at params. Grid values only pick
brackets and Newton seeds, so the refined zeros move by rounding only,
within the Newton tolerance.

The walk's bound. A walk reads one truncation bound B, at its worst
corner: the smallest sigma of its path at its largest |t|, T. At fixed
sigma each factor |s + k| grows with |t|, so the bound does too. At
height T,

    d ln B / d sigma = sum_{k <= 2 nu + 1} (sigma + k) / |s + k|^2
                       - ln N - 1/(sigma + 2 nu + 1)
                    <= (nu + 1)/T - ln N,

since (sigma + k)^2 + T^2 >= 2 |sigma + k| T and sigma + 2 nu + 1 > 0,
so whenever nu + 1 < T ln N the bound falls as sigma grows. So every
walk, the scan grid's and a rectangle's with its phase-walk splits,
reads B where nu + 1 < T ln N, which is then at least every node's
bound on its path, and inf elsewhere (near t = 0). A node that fails B
reads its own bound, so every decision is the per-node one.

Winding. Rectangle counts use the argument principle: a phase increment
between neighbouring nodes is kept below pi/2, split at the midpoint
otherwise. Zeta has no zero or pole in sigma > 1, so a rectangle's right
edge stops at sigma = 2, and one with sigma_min >= 2 counts 0 without a
walk. A side takes max(4, ceil(length / 0.25)) steps, or one in
sigma >= 2: there |zeta - 1| <= zeta(2) - 1 < 0.645, so |arg zeta| < 0.701
(asin 0.645), and its phase change, the principal difference of its end
phases, stays below 1.402 < pi/2 with each sample's error of about 1e-3
(where that premise fails, the guard splits). A rectangle closes its own
boundary: its walk stops one step short of its first corner, and the last
increment closes on that corner's value, unless it is symmetric about the
line (sigma_min + sigma_max = 1 in binary64, as the caller gave it) with
sigma_min > 0 or t_min > 0. Then it walks only its right half, the path
1/2 + i t_min -> sigma_max + i t_min -> sigma_max + i t_max -> 1/2 + i t_max,
with sigma_max at most 2 (a symmetric rectangle wider than that has
t_min > 0, and by the functional equation no zero left of sigma = -1
either), and the functional equation gives the left half's phase (Backlund's
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
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

from .bernoulli import _full_table
from .errors import BoundaryError, InconclusiveError, ParameterError, RefinementError
from .serialize import csv_text, dumps
from .zeta_core import (_IM_CAP, EvalParams, _as_complex, _dirichlet_path, _eval_params, _finish, _is_real,
                        _pass, _schedule, _tail_denominator, auto_params, remainder_bound, zeta_gb)
from .qfunction import _q

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
_MAX_GRID_NODES = 2 ** 20  # the scan grid's largest node count
_PHASE_LIMIT = math.pi / 2
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
        # the values the record writers can write, and no other
        if not cmath.isfinite(self.s):
            raise ParameterError(f"zero record s must be finite, got {self.s!r}")
        if not self.t > 0:
            raise ParameterError(f"zero records live in the upper half plane, got t = {self.t!r}")
        if not 0.0 < self.s.real < 1.0:
            raise ParameterError(f"zero record outside the critical strip: s = {self.s!r}")
        if not (_is_real(self.z_modulus) and math.isfinite(self.z_modulus) and self.z_modulus >= 0):
            raise ParameterError(f"z_modulus must be a finite number >= 0, got {self.z_modulus!r}")
        if not cmath.isfinite(self.q_value):
            raise ParameterError(f"q_value must be finite, got {self.q_value!r}")
        if type(self.refine_iterations) is not int or self.refine_iterations < 0:
            raise ParameterError(f"refine_iterations must be an integer >= 0, got {self.refine_iterations!r}")


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
        if not _is_real(self.tol) or not _TOL_FLOOR <= self.tol < math.inf:
            raise ParameterError(f"tol must be at least {_TOL_FLOOR} and finite, got {self.tol!r}")
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

    # the strip check on each iterate rules out s = 1 and a too small tail order
    z = s0
    fz, deriv, parts = _pass(z, params, True)
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
            raise RefinementError(f"iteration left the critical strip at {z!r} from seed {s0!r}")
        fz, deriv, parts = _pass(z, params, True)
        if abs(step) < _STEP_FLOOR and abs(fz) > tol:
            raise RefinementError(
                f"stalled at {z!r}: step {abs(step):.3e} below floor with |Z| = {abs(fz):.3e}"
            )
    # the polish: one more step, which squares the error, kept if |Z| still meets tol
    if deriv != 0 and cmath.isfinite(deriv):
        polished = z - fz / deriv
        if 0.0 < polished.real < 1.0:
            iterations += 1
            fp, _, summed = _pass(polished, params)
            if abs(fp) <= tol:
                z, fz, parts = polished, fp, summed
    if z.imag == 0:
        raise RefinementError(f"refinement landed on the real axis at {z!r}")
    q = _q(z, parts)  # a slope pass's parts have the bits of a value-only pass's
    if z.imag < 0:
        # |Z| is unchanged, and Q(conj s) = conj Q(s) bit for bit
        z, q = z.conjugate(), q.conjugate()
    return ZeroRecord(
        s=z,
        z_modulus=abs(fz),
        q_value=q,
        refine_iterations=iterations,
        params_used=params,
    )


def _rounding(path: list[complex], count: int, cutoff_n: int) -> list[float]:
    # the module docstring's rounding bound at the first ``count`` nodes
    # walked along ``path``, its vertices in walk order. At the path's
    # smallest sigma, 1 + integral_1^N x^-sigma dx bounds sum_{n<N} n^-sigma
    # for every real sigma.
    sigma = min(z.real for z in path)
    log_n = math.log(cutoff_n)
    a = (1.0 - sigma) * log_n
    unit = _UNIT_ROUNDOFF * (1.0 + (math.expm1(a) / (1.0 - sigma) if a else log_n))
    length = sum(abs(stop - start) for start, stop in zip(path, path[1:]))
    units = cutoff_n + 1 + 2 * (abs(path[0]) + length) * log_n
    return [(units + k) * unit for k in range(count)]


def _walk_params(corner: complex, full: Callable[[], EvalParams]) -> tuple[EvalParams, float]:
    # the sample (N, nu) and the truncation bound, by the module docstring's
    # rule, of a walk whose path has its worst corner at ``corner``: the
    # cheapest schedule entry bounding it by _SAMPLE_EPS, with the bound it
    # met there, or full() where none applies. A tail order too small at the
    # path's smallest sigma is refused before any node is built, since the
    # walk there can overflow first.
    sample, bound = _schedule(corner, _SAMPLE_EPS) or (full(), None)
    n, nu = sample.cutoff_n, sample.tail_order
    _tail_denominator(corner.real, nu)
    if not nu + 1 < corner.imag * math.log(n):
        return sample, math.inf
    return sample, remainder_bound(corner, n, nu) if bound is None else bound


def _walk(
    nodes: list[complex],
    segments: list[int],
    sample: EvalParams,
    bound: float,
    full: Callable[[], EvalParams],
    floor: float = 0.0,
) -> list[complex]:
    # zeta at the nodes of an open path of straight sides, from one walk at
    # the sample cutoff. Side j starts at node segments[0] + ... +
    # segments[j-1] and reaches the next side's first node in segments[j]
    # equal steps, so the counts add up to len(nodes) - 1; one node and no
    # side is one exact pass. A node whose sample is not certified (see the
    # module docstring), by the walk's truncation bound or else by its own,
    # or not above floor, takes the exact pass at full().
    n, nu = sample.cutoff_n, sample.tail_order
    vertices = [nodes[k] for k in accumulate(segments, initial=0)]
    values = _finish(nodes, _dirichlet_path(vertices, segments, n), sample)[0]
    for k, (z, value, rounding) in enumerate(zip(nodes, values, _rounding(vertices, len(nodes), n))):
        if not abs(value) > max(floor, _SAMPLE_MARGIN * (bound + rounding)):
            if not abs(value) > max(floor, _SAMPLE_MARGIN * (remainder_bound(z, n, nu) + rounding)):
                values[k] = zeta_gb(z, full()).value
    return values


def _line_values(
    t_min: float, t_max: float, step: float, params: EvalParams
) -> tuple[list[float], list[complex]]:
    # the grid t_min + k step up to t_max, plus t_max when it is off the
    # grid, and Z at 1/2 + it on each node, from one walk: an off-grid t_max
    # is its last side, one step long, and the walk's top. The grid holds at
    # most ratio + 2 nodes; a ratio that passes the cap, inf too, is refused
    # before any node is built.
    ratio = (t_max - t_min) / step
    if not ratio <= _MAX_GRID_NODES - 2:
        raise ParameterError(
            f"step {step!r} over [{t_min!r}, {t_max!r}] asks for more than {_MAX_GRID_NODES} grid nodes"
        )
    count = int(math.floor(ratio + 1e-9))
    if t_min + count * step > t_max:
        count -= 1
    grid = [t_min + k * step for k in range(count + 1)]
    segments = [count] if count else []
    if grid[-1] < t_max - 1e-12:
        grid.append(t_max)
        segments.append(1)
    sample, bound = _walk_params(complex(0.5, t_max), lambda: params)
    return grid, _walk([complex(0.5, t) for t in grid], segments, sample, bound, lambda: params)


def _refine_bracket(ta: float, tb: float, seed: float, cfg: ScanConfig, params: EvalParams) -> ZeroRecord:
    # Newton from the interpolated seed; a zero outside (ta, tb) is not this bracket's
    rec = refine_zero(complex(0.5, seed), cfg.tol, cfg.max_iter, params)
    if not ta < rec.t < tb:
        raise RefinementError(
            f"no zero found inside its bracket [{ta:.6f}, {tb:.6f}]: Newton refined to t = {rec.t:.6f}"
        )
    return rec


def _hardy_values(stencil: list[tuple[float, complex]], ta: float, za: complex) -> list[float]:
    # h at the stencil's nodes, each turned by psi_k about ta (see the module
    # docstring); psi = 0 at ta = 0, where ln ta is not defined
    slope, bend = (0.5 * math.log(ta / math.tau), 0.25 / ta) if ta > 0 else (0.0, 0.0)
    turn = za.conjugate() / abs(za)
    return [(z * turn * cmath.rect(1.0, (t - ta) * (slope + (t - ta) * bend))).real for t, z in stencil]


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
    interpolated seed by Newton (see the module docstring), at most
    ``cfg.max_iter`` steps. A refinement that fails, or that refines to
    a zero outside its bracket, is skipped with a logged warning unless
    ``cfg.strict_refine`` is set. Cells do not overlap, so no zero is
    returned twice; two zeros in one cell are not seen.
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
        # the _SEED_NODES nodes around the bracket, shifted to stay on the grid
        lo = max(0, min(i + 1 - _SEED_NODES // 2, len(nodes) - _SEED_NODES))
        stencil = nodes[lo:lo + _SEED_NODES]
        ts = [t for t, _ in stencil]
        # Hardy's Z through the stencil, or h where its value at tb is not negative
        hs = _hardy_values(stencil, ta, za)
        if not hs[i + 1 - lo] < 0:
            hs = [(z * za.conjugate()).real / ha for _, z in stencil]
        seed = _interpolated_seed(ts, hs, ta, tb, ha, hs[i + 1 - lo])
        try:
            records.append(_refine_bracket(ta, tb, seed, cfg, params))
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
    poles inside; keep s = 1 outside the rectangle. A rectangle with
    max |t| above 500 is refused, also with ``params``, and one with
    sigma_min >= 2 holds no zero and counts (0, 0.0) unwalked. The module
    docstring says where the walk stops, which sides take one step and
    which rectangles walk their right half only. Samples with |Z| < 1e-6
    on the contour abort with BoundaryError. Without ``params``,
    full-accuracy values use ``auto_params`` at the worst corner with
    eps 1e-9, picked on first need.
    """
    return _winding(rect, params, 1e-9)


def _winding(rect: Rectangle, params: EvalParams | None, eps: float) -> tuple[int, float]:
    # rectangle_winding, with full-accuracy params picked at eps on first
    # need where params is None; count picks at min(--eps, 1e-9)
    if not isinstance(rect, Rectangle):
        raise ParameterError(f"rect must be a Rectangle, got {type(rect).__name__}")
    params = params if params is None else _eval_params(params)
    worst = _worst_corner(rect)
    if worst.imag > _IM_CAP:
        raise ParameterError(f"max |t| = {worst.imag!r} exceeds the supported range {_IM_CAP}")
    if rect.sigma_min >= 2:
        return 0, 0.0
    mirrored = rect.sigma_min + rect.sigma_max == 1.0 and (rect.sigma_min > 0 or rect.t_min > 0)
    rect = replace(rect, sigma_max=min(rect.sigma_max, 2.0))

    def full() -> EvalParams:
        nonlocal params
        if params is None:
            params = auto_params(worst, eps)
        return params

    # the walked path's worst corner: its smallest sigma, farthest from the
    # real axis; its bound is its splits' too
    sample, bound = _walk_params(complex(0.5, worst.imag) if mirrored else worst, full)

    def walk(nodes: list[complex], segments: list[int]) -> list[complex]:
        # a sample above twice the boundary modulus stays above it at params,
        # so only full-accuracy values decide a BoundaryError
        values = _walk(nodes, segments, sample, bound, full, 2 * _BOUNDARY_MODULUS)
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
    # corner is one node. The closed boundary's walk stops one step short of
    # its first corner, on which its last increment closes.
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
    else:
        segments[-1] -= 1
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
