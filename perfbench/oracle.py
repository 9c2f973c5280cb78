"""Independent reference answers from mpmath.

Reference zero counts come from ``mpmath.nzeros`` at each window end,
reference values from ``mpmath.zeta`` at 20 significant digits. Every
returned zero is certified by a sign change of Hardy's Z function
(``mpmath.siegelz``) across a 2e-6 bracket around it. Nothing here
imports the library under test.

Importing this module without mpmath raises ImportError: the benchmark
then stops instead of reporting unchecked outputs as correct.
"""

from __future__ import annotations

import mpmath

ZERO_BRACKET = 1e-6      # half-width of the sign-change bracket around a zero
VALUE_DPS = 20
# An accepted evaluation further than this from the reference (relative
# to max(1, |zeta|)) is wrong outright, not a bound or eps miss.
GROSS_ERROR = 1e-6
VERDICT_LINES = 8        # verdicts I to VIII of every audit report


class ZeroReference:
    """Memoized N(T) counts and sign-change certificates."""

    def __init__(self) -> None:
        self._count: dict[float, int] = {}

    def count_below(self, t: float) -> int:
        if t not in self._count:
            self._count[t] = int(mpmath.nzeros(t))
        return self._count[t]

    def count_between(self, lo: float, hi: float) -> int:
        return self.count_below(hi) - self.count_below(lo)

    @staticmethod
    def certifies(lo: float, hi: float) -> bool:
        """True when Z(t) changes sign on [lo - bracket, hi + bracket]."""
        left = mpmath.siegelz(lo - ZERO_BRACKET)
        right = mpmath.siegelz(hi + ZERO_BRACKET)
        return left * right < 0


def check_zero_windows(windows: list, zero_lists: list) -> dict:
    """Check returned zeros against the reference for each window.

    ``zero_lists[i]`` is None when window i has no output; its zeros
    count as expected and not found. Returns totals for recall plus a
    list of problems that make the output wrong: a zero outside its
    window, a repeated zero, more zeros than the window holds, or a zero
    without a sign change of Z.
    """
    ref = ZeroReference()
    problems: list[str] = []
    found = expected = 0
    returned: list[float] = []
    for (lo, hi), zeros in zip(windows, zero_lists):
        want = ref.count_between(lo, hi)
        expected += want
        if zeros is None:
            continue
        found += len(zeros)
        if len(zeros) > want:
            problems.append(f"window [{lo}, {hi}]: {len(zeros)} zeros returned, {want} exist")
        for t in zeros:
            if not lo < t < hi:
                problems.append(f"window [{lo}, {hi}]: zero at t = {t} lies outside")
        ordered = sorted(zeros)
        for a, b in zip(ordered, ordered[1:]):
            if b - a < 2 * ZERO_BRACKET:
                problems.append(f"window [{lo}, {hi}]: zero near t = {a} returned twice")
        returned.extend(zeros)
    # Zeros found by overlapping windows agree to far below the bracket;
    # certify each cluster once.
    returned.sort()
    clusters: list[list[float]] = []
    for t in returned:
        if clusters and t - clusters[-1][1] < ZERO_BRACKET:
            clusters[-1][1] = t
        else:
            clusters.append([t, t])
    for lo, hi in clusters:
        if not ZeroReference.certifies(lo, hi):
            problems.append(f"no sign change of Z around t = {lo}")
    return {"found": found, "expected": expected, "certified": len(clusters), "problems": problems}


def check_evals(points: list, outputs: list) -> dict:
    """Compare accepted evaluations with mpmath.zeta.

    Counts results whose error exceeds their reported remainder bound,
    and accepted requests whose error exceeds the requested eps.
    Refusals are counted apart. A request that raised (output None) is
    not a refusal: it counts as accepted and as missing both. Returns
    the counts, the worst ratios, and problems for errors beyond
    ``GROSS_ERROR``.
    """
    accepted = refused = raised = violations = eps_misses = 0
    worst_bound_ratio = worst_eps_ratio = 0.0
    problems: list[str] = []
    with mpmath.workdps(VALUE_DPS):
        for (re_s, im_s, eps), out in zip(points, outputs):
            if out is None:
                accepted += 1
                raised += 1
                violations += 1
                eps_misses += 1
                continue
            if out["refused"]:
                refused += 1
                continue
            accepted += 1
            ref = mpmath.zeta(mpmath.mpc(re_s, im_s))
            err = float(abs(mpmath.mpc(*out["value"]) - ref))
            scale = max(1.0, float(abs(ref)))
            if not err <= GROSS_ERROR * scale:
                problems.append(f"zeta({re_s}+{im_s}j): error {err:.3e} vs |zeta| {scale:.3e}")
            bound = out["bound"]
            if err > bound:
                violations += 1
                worst_bound_ratio = max(worst_bound_ratio, err / bound if bound > 0 else float("inf"))
            if err > eps:
                eps_misses += 1
                worst_eps_ratio = max(worst_eps_ratio, err / eps)
    return {
        "accepted": accepted,
        "refused": refused,
        "raised": raised,
        "bound_violations": violations,
        "eps_misses": eps_misses,
        "worst_error_over_bound": worst_bound_ratio,
        "worst_error_over_eps": worst_eps_ratio,
        "problems": problems,
    }


def count_verdicts(verdict_lists: list) -> dict:
    """FAIL lines among all verdict lines, per Roman numeral too.

    An audit with no output (None) counts as ``VERDICT_LINES`` failed lines.
    """
    total = failed = 0
    by_line: dict[str, int] = {}
    for lines in verdict_lists:
        if lines is None:
            total += VERDICT_LINES
            failed += VERDICT_LINES
            by_line["none"] = by_line.get("none", 0) + VERDICT_LINES
            continue
        for line in lines:
            numeral, status = line.split()[:2]
            total += 1
            if status == "FAIL":
                failed += 1
                by_line[numeral] = by_line.get(numeral, 0) + 1
    return {"lines": total, "failed": failed, "failed_by_line": by_line}

