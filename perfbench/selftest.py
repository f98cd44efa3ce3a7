"""Tiny-size self-test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload, at tiny input sizes and with ``--seconds 0`` (each
loop then runs exactly its minimum number of ops, so a run is a pure
function of its seed):

* every metric ``BENCHMARK.json`` declares is emitted by every workload
  with its declared unit, and every end-to-end metric is above 0;
* the same seed gives the same input digest and the same count metrics,
  and another seed changes both;
* a deliberately corrupted answer is reported as a failed op.

Exits non-zero and names each failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("core.fragments", "core.labels", "raster.frags_in_tile",
          "dynamic.dirty_tiles")


def bench(workload: str, seed: int, trace: int, *extra) -> "tuple[dict, str]":
    """One tiny run -> (result object, input digest)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed={seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    digest = next(
        line.split()[-1] for line in proc.stderr.splitlines()
        if line.startswith("input digest:")
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        plain, d_plain = bench(wl, 1, 0)
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        check(got == units[0], f"{wl}: every end-to-end metric with declared unit")
        check(all(v["value"] > 0 for v in plain["metrics"].values()),
              f"{wl}: every end-to-end metric above 0")
        check(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0,
              f"{wl}: correct with zero failed ops")

        traced, d_traced = bench(wl, 1, 1)
        again, d_again = bench(wl, 1, 1)
        other, d_other = bench(wl, 2, 1)
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        check(got == units[1], f"{wl}: every per-layer metric with declared unit")
        check(d_plain == d_traced == d_again, f"{wl}: one seed, one input digest")
        check(d_other != d_again, f"{wl}: another seed, another input digest")
        counts = [c for c in COUNTS if traced["metrics"][c]["value"]]
        same = all(traced["metrics"][c] == again["metrics"][c] for c in counts)
        check(bool(counts) and same, f"{wl}: one seed, same counts {counts}")
        moved = any(traced["metrics"][c] != other["metrics"][c] for c in counts)
        check(moved, f"{wl}: another seed changes the counts")

        bad, _ = bench(wl, 1, 0, "--corrupt")
        check(bad["failed"] >= 1 and not bad["correct"],
              f"{wl}: a corrupted answer is a failed op")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
