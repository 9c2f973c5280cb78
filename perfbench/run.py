"""zetagb benchmark: one command, three workloads, oracle-checked outputs.

    python3 perfbench/run.py --workload {zeros-desk,audit-cap,eval-strip}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The library is imported from that
checkout's ``src`` (never from an installed copy); without it, or
without mpmath for the oracle, the benchmark exits non-zero and prints
no result.

Each run: several set-up probes in fresh interpreters (``setup_s``), one
client process looping over seeded passes of inputs for S seconds
(no input repeats), then the mpmath oracle over every pass-0 input and
a spot sample of later ones. Times are CPU time scaled to
reference speed by ``calibration.py``. With ``--trace 1`` the client
wraps each layer's public functions, and the run reports per-layer
metrics instead of the end-to-end ones. The last stdout line is the
JSON result; the lines before it are a readable report and a JSON
record of the run environment. The full record also goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Set-up probes per run, half before the client and half after the
# oracle, so a short slow phase of the machine moves the median less.
SETUP_PROBES = 12
TRACE_SETUP_PROBES = 4
CHILD_GRACE_S = 120       # beyond --seconds, for the untimed runs


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zetagb").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(ROOT),
        "src_digest": _src_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_at_start": list(os.getloadavg()),
        "started_unix": time.time(),
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _python() -> list[str]:
    return [sys.executable, "-I"]


def setup_probe(trace: bool) -> dict:
    """One fresh interpreter up to its first answer.

    The probe reports its own CPU seconds at that point (``cpu_s``);
    ``wall_s`` is the time from spawning it to reading its answer.
    """
    cmd = _python() + [str(HERE / "probe.py"), str(SRC)] + (["--trace"] if trace else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        wall_s = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not line:
        _fail(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return dict(json.loads(line), wall_s=wall_s)


def run_client(job: dict) -> dict:
    cmd = _python() + [str(HERE / "client.py")]
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(job), capture_output=True, text=True,
            timeout=job["seconds"] + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        _fail("client did not finish in time")
    if proc.returncode != 0:
        _fail(f"client failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float, vacuous: float = 1.0) -> float:
    return num / den if den else vacuous


def check_outputs(workload: str, pass0: list, client: dict) -> dict:
    """Run the oracle over every pass-0 output and the spot checks.

    The correctness ratios come from pass 0 alone, so they depend only
    on the seed. The spot checks of later passes can only add problems.
    """
    import oracle

    def audit_problems(inputs: list, outputs: list) -> list[str]:
        problems = []
        for window, o in zip(inputs, outputs):
            if o is None:
                continue
            payload = json.loads(o["json"])
            if [z["t"] for z in payload["zeros"]] != o["zeros"] or payload["verdicts"] != o["verdicts"]:
                problems.append(f"audit JSON of window {window} disagrees with the report")
            if len(o["verdicts"]) != oracle.VERDICT_LINES:
                problems.append(f"audit of window {window} has {len(o['verdicts'])} verdicts")
        return problems

    outputs = client["outputs"]
    spot_inputs = [spot["input"] for spot in client["spots"]]
    spot_outputs = [spot["output"] for spot in client["spots"]]
    check: dict = {"problems": [], "spot_checked": len(spot_inputs)}
    if workload in ("zeros-desk", "audit-cap"):
        zero_lists = [None if o is None else o["zeros"] for o in outputs]
        check["zeros"] = oracle.check_zero_windows(pass0, zero_lists)
        check["problems"] += check["zeros"]["problems"]
        spots = oracle.check_zero_windows(spot_inputs, [None if o is None else o["zeros"] for o in spot_outputs])
        check["problems"] += spots["problems"]
    if workload == "audit-cap":
        check["problems"] += audit_problems(pass0, outputs) + audit_problems(spot_inputs, spot_outputs)
        check["verdicts"] = oracle.count_verdicts([None if o is None else o["verdicts"] for o in outputs])
    if workload == "eval-strip":
        check["evals"] = oracle.check_evals(pass0, outputs)
        check["problems"] += check["evals"]["problems"] + oracle.check_evals(spot_inputs, spot_outputs)["problems"]
    return check


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def correctness(check: dict) -> dict:
    """The oracle's verdicts as ratios; None where the workload has none."""
    zeros = check.get("zeros")
    verdicts = check.get("verdicts")
    evals = check.get("evals")
    return {
        "zero_recall": _ratio(zeros["found"], zeros["expected"]) if zeros else None,
        "verdict_fail_ratio": _ratio(verdicts["failed"], verdicts["lines"], 0.0) if verdicts else None,
        "bound_violation_ratio": _ratio(evals["bound_violations"], evals["accepted"], 0.0) if evals else None,
        "eps_miss_ratio": _ratio(evals["eps_misses"], evals["accepted"], 0.0) if evals else None,
        "refused_requests": evals["refused"] if evals else None,
    }


def end_to_end(client: dict, figures: dict, probes: list[dict]) -> dict:
    """End-to-end metrics.

    Op times are on-CPU time of the client and its children, scaled to reference speed
    by its calibration (see calibration.py). ``setup_s`` is unscaled CPU
    time: a fresh interpreter's imports and first page faults do not
    follow the reference work, and scaling them made the set-up spread
    worse. The raw CPU and wall-clock figures go to the report. The
    correctness ratios are in pass form, higher is better, so that none
    is 0 once a defect is fixed. A workload without that kind of output
    reports 1 (nothing to miss).
    """
    speed = client["speed_factor"]
    cpu_ms = sorted(ns / 1e6 for ns in client["cpu_ns"])
    wall_ms = sorted(ns / 1e6 for ns in client["wall_ns"])
    figures.update(
        latency_samples=len(cpu_ms),
        speed_factor=speed,
        cpu_latency_p50_ms=statistics.median(cpu_ms),
        wall_latency_p50_ms=statistics.median(wall_ms),
        wall_latency_p90_ms=_p90(wall_ms),
        wall_ops_per_s=client["ops"] / client["elapsed_s"],
        cpu_share=sum(client["cpu_ns"]) / sum(client["wall_ns"]),
        setup_wall_s=statistics.median(p["wall_s"] for p in probes),
    )

    def passed(name: str, fail_form: bool = True) -> float:
        value = figures[name]
        if value is None:
            return 1.0
        return 1.0 - value if fail_form else value

    return {
        "setup_s": (statistics.median(p["cpu_s"] for p in probes), "s"),
        "ops_per_s": (client["ops"] / (sum(client["cpu_ns"]) * speed / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(cpu_ms) * speed, "ms"),
        "latency_p90_ms": (_p90(cpu_ms) * speed, "ms"),
        "peak_rss_mb": (client["peak_rss_kb"] / 1024.0, "MB"),
        "zero_recall": (passed("zero_recall", fail_form=False), "ratio"),
        "verdict_pass_ratio": (passed("verdict_fail_ratio"), "ratio"),
        "bound_hold_ratio": (passed("bound_violation_ratio"), "ratio"),
        "eps_met_ratio": (passed("eps_miss_ratio"), "ratio"),
    }


# per-layer metric -> (span name, quantity, unit)
#   calls, ms, self_ms: per op; note: per-op sum of the span's note
PER_LAYER = {
    "zeta_core.dirichlet_partial_sum.calls": ("zeta_core.dirichlet_partial_sum", "calls", "count/op"),
    "zeta_core.dirichlet_partial_sum.ms": ("zeta_core.dirichlet_partial_sum", "ms", "ms/op"),
    "zeta_core.dirichlet_partial_sum.terms": ("zeta_core.dirichlet_partial_sum", "note", "count/op"),
    "zeta_core.zeta_gb.calls": ("zeta_core.zeta_gb", "calls", "count/op"),
    "zeta_core.zeta_gb.self_ms": ("zeta_core.zeta_gb", "self_ms", "ms/op"),
    "zeta_core.em_tail.calls": ("zeta_core.em_tail", "calls", "count/op"),
    "zeta_core.em_tail.ms": ("zeta_core.em_tail", "ms", "ms/op"),
    "zeta_core.remainder_bound.calls": ("zeta_core.remainder_bound", "calls", "count/op"),
    "zeta_core.remainder_bound.ms": ("zeta_core.remainder_bound", "ms", "ms/op"),
    "zeta_core.auto_params.calls": ("zeta_core.auto_params", "calls", "count/op"),
    "zeta_core.auto_params.ms": ("zeta_core.auto_params", "ms", "ms/op"),
    "zero_scan.refine_zero.calls": ("zero_scan.refine_zero", "calls", "count/op"),
    "zero_scan.refine_zero.self_ms": ("zero_scan.refine_zero", "self_ms", "ms/op"),
    "zero_scan.refine_zero.iterations": ("zero_scan.refine_zero", "note", "count/op"),
    "zero_scan.scan_critical_line.calls": ("zero_scan.scan_critical_line", "calls", "count/op"),
    "zero_scan.scan_critical_line.self_ms": ("zero_scan.scan_critical_line", "self_ms", "ms/op"),
    "zero_scan.rectangle_winding.calls": ("zero_scan.rectangle_winding", "calls", "count/op"),
    "zero_scan.rectangle_winding.self_ms": ("zero_scan.rectangle_winding", "self_ms", "ms/op"),
    "qfunction.q_gb.calls": ("qfunction.q_gb", "calls", "count/op"),
    "qfunction.q_gb.self_ms": ("qfunction.q_gb", "self_ms", "ms/op"),
    "qfunction.consistency_identity.calls": ("qfunction.consistency_identity", "calls", "count/op"),
    "qfunction.consistency_identity.self_ms": ("qfunction.consistency_identity", "self_ms", "ms/op"),
    "audit.audit_range.self_ms": ("audit.audit_range", "self_ms", "ms/op"),
    "audit.audit_zero.calls": ("audit.audit_zero", "calls", "count/op"),
    "audit.audit_zero.self_ms": ("audit.audit_zero", "self_ms", "ms/op"),
    "audit.factorization_check.ms": ("audit.factorization_check", "ms", "ms/op"),
    "audit.q_variation.ms": ("audit.q_variation", "ms", "ms/op"),
    "audit.render_text.ms": ("audit.render_text", "ms", "ms/op"),
    "serialize.dumps.ms": ("serialize.dumps", "ms", "ms/op"),
    "serialize.dumps.bytes": ("serialize.dumps", "note", "B/op"),
}


def per_layer(trace: dict, probes: list[dict]) -> dict:
    """Per-layer metrics: counts and op times per op, op times scaled to
    reference speed, set-up times unscaled, as in ``end_to_end``."""
    ops = trace["ops"]
    speed = trace["speed_factor"]
    layers = trace["layers"]
    children = trace["children"]
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "note": 0.0, "errors": {}}

    def row(name: str) -> dict:
        return layers.get(name, empty)

    def per_op(x: float) -> float:
        return x / ops

    out: dict = {}
    for metric, (span, qty, unit) in PER_LAYER.items():
        r = row(span)
        value = {"calls": r["calls"], "ms": r["ns"] * speed / 1e6, "self_ms": r["self_ns"] * speed / 1e6,
                 "note": r["note"]}[qty]
        out[metric] = (per_op(value), unit)

    dps = row("zeta_core.dirichlet_partial_sum")
    out["zeta_core.dirichlet_partial_sum.ns_per_term"] = (_ratio(dps["ns"] * speed, dps["note"], 0.0), "ns")
    out["zeta_core.auto_params.refused"] = (
        per_op(row("zeta_core.auto_params")["errors"].get("PrecisionError", 0)), "count/op")

    refine = row("zero_scan.refine_zero")
    refine_evals = children.get("zero_scan.refine_zero>zeta_core.zeta_gb", 0)
    out["zero_scan.refine_zero.evals"] = (per_op(refine_evals), "count/op")
    out["zero_scan.refine_zero.evals_per_iteration"] = (_ratio(refine_evals, refine["note"], 0.0), "count")
    out["zero_scan.refine_zero.failed"] = (per_op(refine["errors"].get("RefinementError", 0)), "count/op")
    kept = row("zero_scan.scan_critical_line")["note"]
    out["zero_scan.refine_zero.kept_ratio"] = (_ratio(kept, refine["calls"], 0.0), "ratio")
    out["zero_scan.scan_critical_line.grid_evals"] = (
        per_op(children.get("zero_scan.scan_critical_line>zeta_core.zeta_gb", 0)), "count/op")
    winding_evals = children.get("zero_scan.rectangle_winding>zeta_core.zeta_gb", 0)
    out["zero_scan.rectangle_winding.evals"] = (per_op(winding_evals), "count/op")
    out["zero_scan.rectangle_winding.split_evals"] = (
        per_op(winding_evals - row("zero_scan.rectangle_winding")["note"]), "count/op")

    def setup_ms(name: str, qty: str) -> float:
        return statistics.median(p["layers"].get(name, empty)[qty] for p in probes) / 1e6

    out["bernoulli.build_table.ms"] = (setup_ms("bernoulli.build_table", "ns"), "ms")
    out["cli.run.self_ms"] = (setup_ms("cli.run", "self_ns"), "ms")
    out["setup.import_ms"] = (statistics.median(p["import_ms"] for p in probes), "ms")
    out["trace.overhead_ratio"] = (trace["traced_ns"] / trace["untraced_ns"], "ratio")
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zetagb" / "__init__.py").is_file():
        _fail(f"no library source at {SRC / 'zetagb'}; run from the root of a zetagb checkout")
    env = environment(args)
    try:
        import oracle  # noqa: F401  (mpmath is required before any work)
    except ImportError as exc:
        _fail(f"the oracle needs mpmath, which is missing ({exc}); no result without it")

    pass0 = workloads.generate(args.workload, args.seed, 0)
    trace = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)

    setup_probe(trace)  # discarded: compiles bytecode and warms the file cache
    n_probes = TRACE_SETUP_PROBES if trace else SETUP_PROBES
    probes = [setup_probe(trace) for _ in range(n_probes // 2)]

    job = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": trace, "src": str(SRC), "out_dir": str(OUT_DIR),
    }
    client = run_client(job)
    t0 = time.perf_counter()
    check = check_outputs(args.workload, pass0, client)
    oracle_s = time.perf_counter() - t0
    probes += [setup_probe(trace) for _ in range(n_probes - n_probes // 2)]

    failed = sum(1 for f in client["failed_ops"] if f["timed"])
    problems = list(check["problems"])
    if trace and client["trace"]["digest_mismatches"]:
        problems.append(f"{client['trace']['digest_mismatches']} traced ops differ from their untraced replay")
    correct = not problems

    figures = dict(correctness(check), failed_op_ratio=failed / client["ops"])
    report: dict = {
        "environment": env,
        "oracle_s": oracle_s,
        "pass_size": len(pass0),
        "spot_checked": check["spot_checked"],
        "outputs_digest": hashlib.sha256("\n".join(map(str, client["digests"])).encode()).hexdigest(),
        "oracle": {key: {kk: vv for kk, vv in value.items() if kk != "problems"}
                   for key, value in check.items() if isinstance(value, dict)},
        "failed_ops": client["failed_ops"][:20],
        "problems": problems[:20],
    }
    if trace:
        trace_data = dict(client["trace"], ops=client["ops"], speed_factor=client["speed_factor"])
        metrics = per_layer(trace_data, probes)
        report["trace"] = {key: trace_data[key] for key in
                           ("spans", "traced_ns", "untraced_ns", "digest_mismatches", "spans_file")}
        report["trace"]["self_ns_sum"] = sum(r["self_ns"] for r in trace_data["layers"].values())
    else:
        metrics = end_to_end(client, figures, probes)
    report["figures"] = figures

    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
             f"{client['ops']} ops in {client['elapsed_s']:.3f} s, pass {len(pass0)}, "
             f"oracle {oracle_s:.2f} s, correct={correct}, failed={failed}"]
    lines += [f"  {name:<45} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    for name, value in figures.items():
        if value is not None:
            lines.append(f"  {name:<45} {value:>14.6g}")
    lines += [f"  problem: {p}" for p in problems[:20]]
    result = {
        "correct": correct,
        "attempted": client["ops"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(report, result=result)
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({"environment": env, "record": str(out_file.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
