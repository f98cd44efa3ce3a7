"""Run the benchmark several times per workload and record its spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.json

The workloads and the run length are those ``BENCHMARK.json`` declares.
Run ``i`` of every workload uses seed ``--first-seed + i``, and the
workloads take turns (run 1 of each, then run 2 of each, ...), so a
stretch of minutes in which the machine runs slow falls on every workload
alike rather than on whichever ran then.  For every end-to-end metric
the record keeps the values, their median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the quartile
distance as a share of the median.  Every metric whose spread is over a
tenth is listed as failing to repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Spread (quartile distance over median) above which a metric is listed
#: as failing to repeat.
LIMIT = 0.10


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    per_metric = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    failed = dict.fromkeys(workloads, 0)
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            walls[workload].append(time.perf_counter() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed[workload] += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                per_metric[workload].setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} wall={walls[workload][-1]:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    record = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        metrics = {n: summarize(v) for n, v in per_metric[workload].items()}
        record["workloads"][workload] = {
            "failed_ops": failed[workload],
            "max_wall_s": max(walls[workload]),
            "metrics": metrics,
            "not_repeating": {
                name: round(m["spread"], 3) for name, m in metrics.items()
                if m["spread"] > LIMIT
            },
        }
        for name, m in metrics.items():
            print(f"  {workload}/{name}: median={m['median']:.4g} "
                  f"spread={m['spread']:.3f}", file=sys.stderr)
    text = json.dumps(record, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
