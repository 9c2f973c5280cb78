"""Median and quartiles of benchmark records across seeds.

    python3 perfbench/summarize.py [--trace 0|1]

Reads the run records in ``.perfbench_out/`` of the checkout (one per
workload, seed and trace flag; a later run of the same seed replaces
the earlier record) and prints, per workload and metric, the number of
runs, the median, the quartiles and the spread (quartile distance over
median), as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def summarize(trace: int) -> dict:
    runs: dict[str, dict[str, list[float]]] = {}
    for path in sorted(OUT_DIR.glob(f"result-*-trace{trace}.json")):
        record = json.loads(path.read_text())
        metrics = runs.setdefault(record["environment"]["workload"], {})
        for name, m in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        for name, value in record["figures"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics.setdefault(f"figure:{name}", []).append(value)
    out: dict = {}
    for workload, metrics in runs.items():
        rows = out[workload] = {}
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            rows[name] = {"n": len(values), "median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    for workload, rows in summarize(args.trace).items():
        print(workload)
        for name, r in rows.items():
            print(f"  {name:<45} n={r['n']:<3} median {r['median']:<12.6g} "
                  f"q1 {r['q1']:<12.6g} q3 {r['q3']:<12.6g} spread {r['spread']:.4f}")


if __name__ == "__main__":
    main()
