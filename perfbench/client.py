"""Benchmark client: one process, one closed loop, no threads.

Started by ``run.py`` with ``python3 -I``. Reads a JSON job on stdin:
the workload, the seed, the run length, the trace flag, and the
checkout's ``src`` and output directories. Writes one JSON line with
per-op times, the output of every pass-0 input and of a few spot-check
inputs of later passes (for the oracle in the parent), failed ops, peak
RSS and, when traced, the aggregated spans.

The loop runs the workload's passes in order (see ``workloads.py``), so
no input repeats, until the run length is spent. Pass-0 inputs the loop
did not reach are run afterwards outside the timed region, so the
oracle sees all of pass 0. Then the first ``DETERMINISM_SAMPLE`` timed
inputs are replayed, untimed, and must give the same output.
"""

from __future__ import annotations

import importlib
import json
from array import array
import logging
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
DETERMINISM_SAMPLE = 32
# Outputs of later passes kept for the oracle: the first few of each
# pass (a random sample, as passes are shuffled), up to a total.
SPOT_PER_PASS = 4
SPOT_MAX = 32
# Op CPU time over op wall time below this means the library waited
# (I/O, sleep, a thread it does not count) or the client was starved;
# CPU time then no longer measures latency, so the run gives no result.
CPU_SHARE_FLOOR = 0.5

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import Calibrator, cpu_ns  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def _load_library(src: str):
    sys.path.insert(0, src)
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"zetagb.{name}")
           for name in ("zeta_core", "qfunction", "zero_scan", "audit", "errors")}
    )
    origin = Path(lib.zeta_core.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise SystemExit(f"zetagb imported from {origin}, not from {src}")
    # Dropped refinement candidates are logged as warnings; the trace
    # counts them, so keep them off the benchmark's stderr.
    logging.getLogger("zetagb").addHandler(logging.NullHandler())
    logging.getLogger("zetagb").propagate = False
    return lib


class Loop:
    """Runs ops over the passes and keeps what the oracle needs."""

    def __init__(self, workload: str, seed: int, lib) -> None:
        self.workload, self.seed, self.lib = workload, seed, lib
        self.pass0 = workloads.generate(workload, seed, 0)
        self.first: list = [None] * len(self.pass0)
        self.digest: list = [None] * len(self.pass0)
        self.spots: list[dict] = []
        self.failed_ops: list[dict] = []
        self.timed_ops = 0

    def inputs(self):
        """Yield (pass, slot, input) over pass 0, 1, 2, ..."""
        pass_no = 0
        while True:
            batch = self.pass0 if pass_no == 0 else workloads.generate(self.workload, self.seed, pass_no)
            for slot, inp in enumerate(batch):
                yield pass_no, slot, inp
            pass_no += 1

    def op(self, inp) -> tuple[dict | None, str | None, str | None]:
        """Run one op; return (summary, digest, error)."""
        try:
            summary, digest = workloads.run_op(self.workload, self.lib, inp)
        except Exception as exc:  # any escape is a failed op, reported with its type
            return None, None, f"{type(exc).__name__}: {exc}"
        if summary.get("complete") is False:
            return summary, digest, f"incomplete audit: {summary['abort_reason']}"
        return summary, digest, None

    def one(self, pass_no: int, slot: int, inp, timed: bool = True) -> str | None:
        """Run an op and record its output and failure; return its digest."""
        summary, digest, error = self.op(inp)
        if error is not None:
            self.failed_ops.append({"pass": pass_no, "slot": slot, "timed": timed, "error": error})
        if pass_no == 0:
            self.first[slot], self.digest[slot] = summary, digest
        elif slot < SPOT_PER_PASS and len(self.spots) < SPOT_MAX:
            self.spots.append({"pass": pass_no, "input": inp, "output": summary})
        return digest

    def _check_cpu_share(self, cpu: int, wall: int) -> None:
        if cpu < CPU_SHARE_FLOOR * wall:
            raise SystemExit(f"ops were on CPU for only {cpu / wall:.2f} of their wall time "
                             f"(floor {CPU_SHARE_FLOOR}); CPU time would not measure latency")

    def timed(self, seconds: float) -> dict:
        """Closed loop over the passes for ``seconds`` of wall time.

        Each op is timed twice: on-CPU time of this process and its
        children, which other tenants' processes do not inflate, and
        wall time. The calibrator interleaves reference work to measure
        the core's speed.
        """
        wall = time.perf_counter_ns
        calibrator = Calibrator()
        deadline = wall() + int(seconds * 1e9)
        op_cpu = array("q")  # compact, so the timings barely move peak RSS
        op_wall = array("q")
        begin = w1 = wall()
        for pass_no, slot, inp in self.inputs():
            if w1 >= deadline:
                break
            calibrator.tick(w1)
            c0 = cpu_ns()
            w0 = wall()
            self.one(pass_no, slot, inp)
            w1 = wall()
            c1 = cpu_ns()
            op_cpu.append(c1 - c0)
            op_wall.append(w1 - w0)
        self.timed_ops = len(op_cpu)
        self._check_cpu_share(sum(op_cpu), sum(op_wall))
        return {"ops": self.timed_ops, "elapsed_s": (w1 - begin) / 1e9, "cpu_ns": op_cpu, "wall_ns": op_wall,
                "speed_factor": calibrator.factor()}

    def traced(self, seconds: float, tracer) -> dict:
        """Closed loop where each op runs traced, then at once untraced.

        The untraced run is the overhead baseline, taken at the same
        machine speed, and the proof that the wrappers change no output.
        """
        op_span = tracer.wrap("op", self.one)
        wall = time.perf_counter_ns
        calibrator = Calibrator()
        deadline = wall() + int(seconds * 1e9)
        traced_ns = untraced_ns = wall_ns = mismatches = 0
        begin = w = wall()
        for pass_no, slot, inp in self.inputs():
            if w >= deadline:
                break
            calibrator.tick(w)
            tracer.op_id = self.timed_ops
            tracer.attach()
            w0 = wall()
            c0 = cpu_ns()
            digest = op_span(pass_no, slot, inp)
            c1 = cpu_ns()
            tracer.detach()
            mismatches += self.op(inp)[1] != digest
            c2 = cpu_ns()
            w = wall()
            traced_ns += c1 - c0
            untraced_ns += c2 - c1
            wall_ns += w - w0
            self.timed_ops += 1
        self._check_cpu_share(traced_ns + untraced_ns, wall_ns)
        return {"ops": self.timed_ops, "elapsed_s": (w - begin) / 1e9, "traced_ns": traced_ns,
                "untraced_ns": untraced_ns, "digest_mismatches": mismatches,
                "speed_factor": calibrator.factor()}

    def complete(self) -> None:
        """Untimed: run the pass-0 inputs the loop did not reach, then
        replay the first timed ones; a different output fails that op."""
        for slot in range(self.timed_ops, len(self.pass0)):
            self.one(0, slot, self.pass0[slot], timed=False)
        for slot in range(min(DETERMINISM_SAMPLE, self.timed_ops, len(self.pass0))):
            if self.digest[slot] is not None and self.op(self.pass0[slot])[1] != self.digest[slot]:
                self.failed_ops.append({"pass": 0, "slot": slot, "timed": True,
                                        "error": "output differs on an untimed replay"})


def main() -> None:
    job = json.loads(sys.stdin.read())
    lib = _load_library(job["src"])
    workload = job["workload"]
    loop = Loop(workload, job["seed"], lib)
    workloads.run_op(workload, lib, workloads.warmup(workload, job["seed"]))

    out: dict = {"workload": workload}
    if not job["trace"]:
        timing = loop.timed(job["seconds"])
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.update(timing, cpu_ns=timing["cpu_ns"].tolist(), wall_ns=timing["wall_ns"].tolist())
    else:
        tracer = Tracer()
        tracer.install(LAYERS)
        tracer.detach()
        timing = loop.traced(job["seconds"], tracer)
        out.update(ops=timing.pop("ops"), elapsed_s=timing.pop("elapsed_s"),
                   speed_factor=timing.pop("speed_factor"))
        spans_path = Path(job["out_dir"]) / f"spans-{workload}.csv.gz"
        tracer.write(spans_path)
        out["trace"] = dict(tracer.aggregate(), spans_file=str(spans_path), **timing)

    loop.complete()
    out["outputs"] = loop.first
    out["digests"] = loop.digest
    out["spots"] = loop.spots
    out["failed_ops"] = loop.failed_ops
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
