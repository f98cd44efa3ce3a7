"""Benchmark command: one workload, one seed, one run; prints one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build-l2 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same workload with layer spans on every other op and prints the
per-layer metrics instead, writing the spans to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.  The last line of
standard output is always the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for the workloads and how to read the spans.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MODULES = {"build-l2": "workload_build", "explore-l2": "workload_explore",
           "serve-fleet": "workload_fleet"}
#: Fresh interpreters whose import time ``setup_s`` takes the median of.
IMPORTS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb the first checked answer (self-test)")
    return ap.parse_args(argv)


def import_s(module: str) -> float:
    """Median time a fresh interpreter takes to import numpy, the package
    and a workload module (one import alone varies by a fifth)."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "t0 = time.perf_counter()\n"
        f"import numpy, repro, {module}\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=ROOT).stdout)
        for _ in range(IMPORTS)
    ]
    return statistics.median(times)


def execute(args) -> dict:
    """Run one workload; returns the result object (and extra fields)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {src.name}/repro")
    sys.path.insert(0, str(src))
    import importlib

    from harness import (
        Run, WORK_DIR, OUT_DIR, median_ms, peak_rss_mb, reference_scale, write_jsonl,
    )
    from report import END_TO_END, PER_LAYER, with_units

    mod = importlib.import_module(MODULES[args.workload])
    if args.trace:
        from layers import patched

    size = mod.SIZES[args.size]
    # The run is split into one segment per set-up, each measuring an
    # equal share of --seconds on what its own set-up made.  For the fleet
    # that averages over several sets of server processes: one set's warm
    # and 304 latencies sit up to half apart from another's.
    segments = size["setups"]
    run = Run(args.seconds / segments, bool(args.trace), corrupt=args.corrupt)
    if args.trace:
        run.patch = patched
    teardown = getattr(mod, "teardown", lambda state: None)
    scaled = getattr(mod, "SCALED", False)
    setup_times = []
    try:
        for segment in range(segments):
            # A workload with few segments sets up more than once per
            # segment (keeping the last), so ``setup_s`` is a median of
            # several set-ups all the same.
            for again in range(size.get("setup_repeats", 1)):
                if again:
                    teardown(state)
                    del state
                t0 = time.perf_counter()
                if args.trace:
                    state = run.traced("setup", mod.setup, args.seed, size)
                else:
                    state = mod.setup(args.seed, size)
                took = time.perf_counter() - t0
                if scaled:
                    # A set-up is scaled by the reference kernel timed right
                    # after it, the ops by the kernel's median over the run.
                    took *= reference_scale()
                setup_times.append(took)
            try:
                mod.run_ops(run, args.seed, size, state, segment)
            finally:
                teardown(state)
                del state
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    values = mod.metrics(run)

    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        write_jsonl(spans, run.tracer.spans)
        ops = OUT_DIR / f"ops-{args.workload}-{args.seed}.jsonl"
        rows = run.tracer.op_rows()
        write_jsonl(ops, rows)
        print(f"spans: {spans.relative_to(ROOT)} ({len(run.tracer.spans)}), "
              f"ops: {ops.relative_to(ROOT)} ({len(rows)})", file=sys.stderr)
        shares: "dict[str, list[float]]" = {}
        for row in rows:
            shares.setdefault(row["kind"], []).append(row["span_share"])
        print("span share by op kind (median): " + json.dumps(
            {kind: round(statistics.median(v), 3) for kind, v in shares.items()}
        ), file=sys.stderr)
        metrics = {
            name: 0 if unit in ("count", "bytes") else 0.0
            for name, unit in PER_LAYER.items()
        }
        metrics.update(values)
        table = PER_LAYER
    else:
        # The imports run in other processes and are not scaled.
        metrics = {
            "setup_s": import_s(MODULES[args.workload]) + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics.update(values)
        table = END_TO_END
    print("unscaled op medians (ms): " + json.dumps({
        kind: round(median_ms(v), 3) for kind, v in run.samples.items()
    }), file=sys.stderr)
    if run.ref_samples:
        print(f"reference kernel: median {1e3 * statistics.median(run.ref_samples):.3f} ms"
              f" over {len(run.ref_samples)} runs, scale {run.scale():.4f}",
              file=sys.stderr)
    for what in run.checks.mismatches:
        print(f"wrong answer: {what}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and not run.checks.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": with_units(metrics, table),
        "digest": run.digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so the fleet's servers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    result = execute(args)
    print(f"input digest: {result.pop('digest')}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
