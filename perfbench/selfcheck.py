"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. For each workload it makes one
untraced and one traced run of the same seed, with different run
lengths, and checks that:

  * both runs are correct, and every pass-0 input gives the same output
    digest in both (the tracing wrappers change no result);
  * the traced ops equal their untraced replay;
  * the correctness figures repeat exactly for the fixed seed;
  * every per-layer metric the interaction table says a workload moves
    is non-zero there, and the layers the workload never calls read 0;
  * the summed self times cover the traced op time, and account for
    the untraced op time within the reported tracing overhead.

It also checks that no input repeats over ten passes of a seed, and
that the benchmark exits non-zero without a result when
the library source or mpmath is missing. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SECONDS = 3.0  # untraced run length; the traced run is twice as long
SEED = 7

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402


def _group(prefix: str, *suffixes: str) -> list[str]:
    return [f"{prefix}.{s}" for s in suffixes]


DIRICHLET = _group("zeta_core.dirichlet_partial_sum", "calls", "ms", "terms", "ns_per_term")
ZETA_GB = _group("zeta_core.zeta_gb", "calls", "self_ms")
EM_TAIL = _group("zeta_core.em_tail", "calls", "ms")
BOUND = _group("zeta_core.remainder_bound", "calls", "ms")
AUTO = _group("zeta_core.auto_params", "calls", "ms")
REFINE = _group("zero_scan.refine_zero", "calls", "self_ms", "evals", "iterations",
                "evals_per_iteration", "kept_ratio")
SCAN = _group("zero_scan.scan_critical_line", "calls", "self_ms", "grid_evals")
WINDING = _group("zero_scan.rectangle_winding", "calls", "self_ms", "evals", "split_evals")
Q = _group("qfunction.q_gb", "calls", "self_ms")
IDENTITY = _group("qfunction.consistency_identity", "calls", "self_ms")
AUDIT = ["audit.audit_range.self_ms", "audit.audit_zero.calls", "audit.audit_zero.self_ms",
         "audit.factorization_check.ms", "audit.q_variation.ms", "audit.render_text.ms"]
SERIALIZE = _group("serialize.dumps", "ms", "bytes")
SETUP = ["bernoulli.build_table.ms", "cli.run.self_ms", "setup.import_ms", "trace.overhead_ratio"]

# The interaction table: metrics each workload should move (non-zero),
# and layers it never calls (exactly zero). Refusals and failed
# refinements are events, not work: they are checked for presence only.
NONZERO = {
    "zeros-desk": DIRICHLET + ZETA_GB + EM_TAIL + BOUND + AUTO + REFINE + SCAN + Q + SETUP,
    "audit-cap": DIRICHLET + ZETA_GB + EM_TAIL + BOUND + AUTO + REFINE + SCAN + WINDING + Q
    + IDENTITY + AUDIT + SERIALIZE + SETUP,
    "eval-strip": DIRICHLET + ZETA_GB + BOUND + AUTO + SETUP,
}
ZERO = {
    "zeros-desk": WINDING + IDENTITY + AUDIT + SERIALIZE,
    "audit-cap": [],
    "eval-strip": EM_TAIL + REFINE + SCAN + WINDING + Q + IDENTITY + AUDIT + SERIALIZE,
}
FIGURES = ("zero_recall", "verdict_fail_ratio", "bound_violation_ratio", "eps_miss_ratio", "refused_requests")


class Checks:
    def __init__(self) -> None:
        self.failures = 0

    def expect(self, ok: bool, label: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {label}", flush=True)
        self.failures += not ok


def run_bench(cwd: Path, workload: str, seed: int, seconds: float, trace: int,
              python: list[str] | None = None) -> subprocess.CompletedProcess:
    cmd = (python or [sys.executable, "perfbench/run.py"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def record(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"benchmark failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads((ROOT / json.loads(lines[-2])["record"]).read_text())


def check_workload(checks: Checks, workload: str, seed: int, seconds: float) -> None:
    plain = record(run_bench(ROOT, workload, seed, seconds, 0))
    traced = record(run_bench(ROOT, workload, seed, 2 * seconds, 1))
    tag = f"{workload}:"
    checks.expect(plain["result"]["correct"] and traced["result"]["correct"],
                  f"{tag} both runs correct {plain['problems'] + traced['problems']}")
    checks.expect(plain["outputs_digest"] == traced["outputs_digest"],
                  f"{tag} traced and untraced runs give identical outputs for every pass-0 input")
    checks.expect(traced["trace"]["digest_mismatches"] == 0, f"{tag} traced ops equal their untraced replay")
    same = {k: (plain["figures"][k], traced["figures"][k]) for k in FIGURES}
    checks.expect(all(a == b for a, b in same.values()),
                  f"{tag} correctness figures repeat exactly for seed {seed}: {same}")

    metrics = traced["result"]["metrics"]
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checks.expect(sorted(metrics) == sorted(declared), f"{tag} traced run reports exactly the declared per-layer metrics")
    zeroed = [n for n in NONZERO[workload] if not metrics[n]["value"] > 0]
    checks.expect(not zeroed, f"{tag} metrics the table says it moves are non-zero {zeroed or ''}")
    moved = [n for n in ZERO[workload] if metrics[n]["value"] != 0]
    checks.expect(not moved, f"{tag} layers it never calls read 0 {moved or ''}")

    t = traced["trace"]
    overhead = metrics["trace.overhead_ratio"]["value"]
    self_share = t["self_ns_sum"] / t["traced_ns"]
    checks.expect(0.97 < self_share <= 1.0,
                  f"{tag} summed self times cover {self_share:.4f} of the traced op time")
    accounted = t["self_ns_sum"] / t["untraced_ns"]
    checks.expect(0.98 < accounted <= overhead,
                  f"{tag} summed self times are {accounted:.3f} x the untraced op time, "
                  f"within the overhead {overhead:.3f}")


def check_no_repeats(checks: Checks) -> None:
    for workload in WORKLOADS:
        inputs = [tuple(inp) for pass_no in range(10) for inp in generate(workload, SEED, pass_no)]
        checks.expect(len(set(inputs)) == len(inputs), f"{workload}: no input repeats over ten passes")


def check_refusals(checks: Checks) -> None:
    bare = OUT_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "zeros-desk", 1, 1, 0)
    checks.expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
                  f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)

    no_mpmath = [sys.executable, "-c",
                 "import runpy, sys; sys.modules['mpmath'] = None; "
                 "sys.argv = ['perfbench/run.py'] + sys.argv[1:]; "
                 "runpy.run_path('perfbench/run.py', run_name='__main__')"]
    proc = run_bench(ROOT, "zeros-desk", 1, 1, 0, python=no_mpmath)
    checks.expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
                  f"without mpmath the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    checks = Checks()
    check_no_repeats(checks)
    for workload in WORKLOADS:
        check_workload(checks, workload, SEED, SECONDS)
    check_refusals(checks)
    print(f"selfcheck: {checks.failures} failure(s)")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
