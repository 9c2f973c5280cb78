"""Seeded inputs and the single operation of each benchmark workload.

Inputs come in passes. Each pass is a systematic sample: one seeded
offset places its inputs on an evenly spaced grid, so every input is
uniform over its slot, every part of the range is covered in every
pass (range-dependent defects always show), and the cost mix varies
little from pass to pass. Each pass draws a fresh offset, so no input
repeats within a run and a cache of whole answers never hits. Scan
windows span a fixed number of grid steps, so neighbouring windows of a
pass share end points and the oracle counts zeros below each end point
once. Eval points pair their real and imaginary parts by a seeded
permutation (a Latin hypercube). Each pass is shuffled, so that a run
cut short by its time budget still sees a representative sample.

This module imports nothing from the library; ``run_op`` receives the
library's modules and looks every function up at call time, so wrappers
installed by the tracer are honoured.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("zeros-desk", "audit-cap", "eval-strip")

# Scan windows: (t range, window width, grid steps per window). Window
# starts are spaced width/steps apart, so each point of the range lies in
# about ``steps`` windows.
ZEROS_WINDOWS = ((0.0, 100.0), 10.0, 54)
AUDIT_WINDOWS = ((250.0, 499.0), 4.0, 3)
# Eval points per pass: large enough that the share of bound and eps misses is
# stable across seeds, small enough that mpmath checks it in seconds.
EVAL_PASS = 800
EVAL_SIGMA = (-1.0, 2.0)
EVAL_T = (0.0, 500.0)
EVAL_EPS = (1e-8, 1e-10, 1e-12)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"zetagb-perfbench/{workload}/{seed}/{part}")


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    offset = rng.random()
    return [lo + (k + offset) * width for k in range(count)]


def _windows(rng: random.Random, t_range: tuple[float, float], width: float, steps: int) -> list[list[float]]:
    lo, hi = t_range
    step = width / steps
    count = int((hi - lo - width) / step)  # windows, all inside the range
    ends = _strata(rng, lo, lo + (count + steps) * step, count + steps)
    return [[ends[k], ends[k + steps]] for k in range(count)]


def generate(workload: str, seed: int, pass_no: int) -> list:
    """Return the inputs of one pass of ``workload`` for ``seed``, shuffled.

    zeros-desk and audit-cap inputs are [t_min, t_max] windows;
    eval-strip inputs are [re_s, im_s, eps]. Pass 0 is the one the
    oracle checks in full.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = _rng(workload, seed, f"pass{pass_no}")
    if workload in ("zeros-desk", "audit-cap"):
        inputs = _windows(rng, *(ZEROS_WINDOWS if workload == "zeros-desk" else AUDIT_WINDOWS))
    else:
        count = EVAL_PASS
        ts = _strata(rng, *EVAL_T, count)
        sigmas = _strata(rng, *EVAL_SIGMA, count)
        eps = [EVAL_EPS[k % len(EVAL_EPS)] for k in range(count)]
        rng.shuffle(sigmas)
        rng.shuffle(eps)
        inputs = [[sigma, t, e] for sigma, t, e in zip(sigmas, ts, eps)]
    rng.shuffle(inputs)
    return inputs


def warmup(workload: str, seed: int) -> list:
    """One input, drawn apart from the passes, for the op before timing."""
    rng = _rng(workload, seed, "warmup")
    if workload == "eval-strip":
        return [rng.uniform(*EVAL_SIGMA), rng.uniform(*EVAL_T), EVAL_EPS[0]]
    (lo, hi), width, _ = ZEROS_WINDOWS if workload == "zeros-desk" else AUDIT_WINDOWS
    start = rng.uniform(lo, hi - width)
    return [start, start + width]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:32]


def _hex(x: float) -> str:
    return float(x).hex()


def run_op(workload: str, lib, inp) -> tuple[dict, str]:
    """Run one operation and return (summary for the oracle, output digest).

    ``lib`` carries the library modules as attributes (zeta_core,
    zero_scan, audit, errors). Unexpected exceptions propagate; the
    caller counts them as failed operations.
    """
    if workload == "zeros-desk":
        records = lib.zero_scan.scan_critical_line(inp[0], inp[1])
        summary = {"zeros": [r.t for r in records]}
        digest = _digest(
            (_hex(r.t), _hex(r.s.real), _hex(r.xi), _hex(r.z_modulus),
             _hex(r.q_value.real), _hex(r.q_value.imag), r.refine_iterations,
             r.params_used.cutoff_n, r.params_used.tail_order)
            for r in records
        )
        return summary, digest
    if workload == "audit-cap":
        report = lib.audit.audit_range(inp[0], inp[1])
        text_json = lib.audit.report_to_json(report)
        text = lib.audit.render_text(report)
        summary = {
            "complete": report.complete,
            "abort_reason": report.abort_reason,
            "zeros": [rec.t for rec, _ in report.zero_checks],
            "verdicts": list(report.verdict_lines),
            "json": text_json,
        }
        return summary, _digest((text_json, text))
    s = complex(inp[0], inp[1])
    try:
        result = lib.zeta_core.zeta_gb(s, eps=inp[2])
    except lib.errors.PrecisionError as exc:
        summary = {"refused": True, "best_bound": exc.best_bound}
        return summary, _digest(("refused", str(exc)))
    value = result.value
    params = result.params_used
    summary = {
        "refused": False,
        "value": [value.real, value.imag],
        "bound": result.remainder_bound,
        "N": params.cutoff_n,
        "nu": params.tail_order,
    }
    return summary, _digest((_hex(value.real), _hex(value.imag), _hex(result.remainder_bound),
                             params.cutoff_n, params.tail_order))
