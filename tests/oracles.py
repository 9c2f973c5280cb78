"""Independent oracles for the test suite.

Nothing in here touches the package internals: the evaluator below is a
straight-line transcription of the Euler-Maclaurin sum with its own
Bernoulli generator (Akiyama-Tanigawa instead of the binomial
recurrence), and the zero locator minimizes the modulus on a bracket
instead of running Newton. Frozen expected values in the tests were
computed with these routines.

The one exception is ``schedule_reference``, a frozen copy of an earlier
``zeta_core._schedule``: it reads the package's schedule rows and
``remainder_bound``, and the tests hold the live sweep to its picks.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache

from zetagb.zeta_core import _MAX_CUTOFF, _SHADE, EvalParams, _schedule_rows, remainder_bound

# 100 fixed sample points for the factorization checks, drawn as
# (sigma, t) pairs from random.Random(271828) over the box
SAMPLE_BOX = (-2.0, 3.0, -50.0, 50.0)  # sigma_min, sigma_max, t_min, t_max
_rng = random.Random(271828)
SAMPLE_POINTS = tuple(
    complex(_rng.uniform(*SAMPLE_BOX[:2]), _rng.uniform(*SAMPLE_BOX[2:])) for _ in range(100)
)
del _rng


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """B_n (first convention, B_1 = -1/2) by the Akiyama-Tanigawa scheme."""
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    b = row[0]
    if n == 1:
        return -b  # the scheme yields the second convention at n = 1
    return b


@lru_cache(maxsize=None)
def _coeff(mu: int) -> float:
    return float(bernoulli_akiyama_tanigawa(2 * mu) / math.factorial(2 * mu))


def gb_eval(s: complex, cutoff: int = 200, order: int = 15) -> complex:
    """Plain transcription of the Gram-Backlund sum, no shared code."""
    total = 0j
    for n in range(1, cutoff):
        total += cmath.exp(-s * math.log(n))
    total += cmath.exp((1 - s) * math.log(cutoff)) / (s - 1)
    total += cmath.exp(-s * math.log(cutoff)) / 2
    rising = 1 + 0j
    for mu in range(1, order + 1):
        rising = s if mu == 1 else rising * (s + 2 * mu - 3) * (s + 2 * mu - 2)
        total += _coeff(mu) * rising * cmath.exp((-s - 2 * mu + 1) * math.log(cutoff))
    return total


def direct_series(s: complex, terms: int) -> complex:
    """Dirichlet series summed termwise with numpy, for Re s above 1."""
    import numpy as np

    n = np.arange(1, terms + 1, dtype=np.float64)
    return complex(np.sum(np.exp(-complex(s) * np.log(n))))


def line_modulus(t: float, cutoff: int = 200, order: int = 15) -> float:
    return abs(gb_eval(complex(0.5, t), cutoff, order))


def bisect_modulus_zero(t_lo: float, t_hi: float, width: float = 1e-10) -> float:
    """Shrink [t_lo, t_hi] around the modulus minimum by trisection."""
    while t_hi - t_lo > width:
        third = (t_hi - t_lo) / 3
        a, b = t_lo + third, t_hi - third
        if line_modulus(a) <= line_modulus(b):
            t_hi = b
        else:
            t_lo = a
    return 0.5 * (t_lo + t_hi)


def schedule_reference(s: complex, eps: float) -> tuple[EvalParams, float] | None:
    """The schedule's sweep as it was before it folded the bound's product.

    Each row multiplies a pair of ``math.hypot`` factors into its product,
    and only the winner is checked, against ``remainder_bound`` itself.
    """
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
            return EvalParams(cutoff, nu), bound
    return None
