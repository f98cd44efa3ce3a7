"""Shared machinery of the benchmark: answer checks, spans, statistics.

Nothing here times the program by itself; the workload modules decide
what an operation is and call :class:`Run` to record it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import statistics
import time
from pathlib import Path

import numpy as np

#: The repository root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores and span files, inside the checkout.
WORK_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"


class Checks:
    """Answer checks; a mismatch marks the op that made it as failed.

    ``corrupt=True`` perturbs the first answer handed to :meth:`equal`
    before comparing it, so a self-test can prove a wrong answer is
    reported as a failed op.
    """

    def __init__(self, corrupt: bool = False) -> None:
        self.corrupt = corrupt
        self.compared = 0
        self.mismatches: "list[str]" = []

    def equal(self, what: str, got, want) -> bool:
        """Compare two answers exactly (arrays elementwise, bytes bytewise)."""
        if self.corrupt and self.compared == 0:
            got = _corrupted(got)
        self.compared += 1
        if isinstance(got, (bytes, bytearray)) or isinstance(want, (bytes, bytearray)):
            ok = bytes(got) == bytes(want)
        else:
            g, w = np.asarray(got), np.asarray(want)
            ok = g.shape == w.shape and bool(np.array_equal(g, w))
        if not ok:
            self.mismatches.append(what)
        return ok


def _corrupted(value):
    if isinstance(value, (bytes, bytearray)):
        return bytes([value[0] ^ 0xFF]) + bytes(value[1:])
    arr = np.array(value, dtype=float, copy=True)
    arr.flat[0] += 1.0
    return arr


class Tracer:
    """In-memory spans: (id, name, start, end, parent, op) plus attributes.

    Spans nest through a stack, so a span opened inside another names it
    as parent; every span carries the op id of the root span above it.
    """

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._stack: "list[int]" = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent]["op"] if parent is not None else sid
        rec = {"id": sid, "name": name, "parent": parent, "op": op, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def ops(self) -> "list[dict]":
        """Root spans (one per traced op)."""
        return [s for s in self.spans if s["parent"] is None]

    def self_times(self) -> "dict[int, dict[str, float]]":
        """op id -> layer name -> self time (s) summed over the op's spans.

        A span's self time is its duration minus the time its direct
        children cover (children never overlap: the program is serial).
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: "dict[int, dict[str, float]]" = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child[s["id"]]
            per_op = out.setdefault(s["op"], {})
            per_op[s["name"]] = per_op.get(s["name"], 0.0) + own
        return out

    def covered_share(self, root: dict) -> float:
        """Share of a root span's wall time its direct children cover."""
        wall = root["end"] - root["start"]
        kids = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == root["id"]
        )
        return kids / wall if wall > 0 else 0.0

    def op_rows(self) -> "list[dict]":
        """One row per traced op: its kind, wall time, the share of that
        wall time its layer spans cover, and each layer's self time."""
        per_op = self.self_times()
        return [
            {
                "op": root["id"],
                "kind": root["name"][3:],
                "wall_ms": 1e3 * (root["end"] - root["start"]),
                "span_share": self.covered_share(root),
                "self_ms": {
                    layer: 1e3 * t for layer, t in per_op[root["id"]].items()
                    if layer != root["name"]
                },
            }
            for root in self.ops()
        ]


def write_jsonl(path: Path, rows) -> None:
    """Write each row as one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row, default=float) + "\n")


class Run:
    """One benchmark run: op counters, latency samples, checks, spans.

    In a traced run every other op of each kind is traced: its layer
    patches are installed and its spans recorded; the untraced ops in
    between give the wall time the tracing overhead is measured against.
    """

    def __init__(self, seconds: float, trace: bool, corrupt: bool = False) -> None:
        self.seconds = float(seconds)
        self.trace = trace
        self.checks = Checks(corrupt)
        self.tracer = Tracer()
        #: Context manager factory ``patch(tracer)`` installing the layer
        #: spans for one traced op (see ``layers.py``).
        self.patch = None
        self.attempted = 0
        self.failed = 0
        self.samples: "dict[str, list[float]]" = {}
        #: Wall times (s) of the reference kernel, run between ops.
        self.ref_samples: "list[float]" = []
        #: Other per-op records a workload pools over a run's segments.
        self.pooled: "dict[str, list]" = {}
        self.traced_samples: "dict[str, list[float]]" = {}
        self._nth: "dict[str, int]" = {}
        self.digest = hashlib.sha256()
        self.deadline = 0.0
        self._tracing = False

    def start_clock(self) -> None:
        self.deadline = time.perf_counter() + self.seconds

    def time_left(self) -> bool:
        return time.perf_counter() < self.deadline

    def add_input(self, *arrays) -> None:
        """Fold generated inputs into the run's input digest."""
        for a in arrays:
            self.digest.update(np.ascontiguousarray(a, dtype=float).tobytes())

    def op(self, ok: bool) -> None:
        """Count one attempted op; ``ok`` is False for a wrong answer."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def plain(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` untraced and record its wall time as a ``kind``
        sample, whatever the run (for ops whose work runs in another
        process, where a span in this one would cover nothing)."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.samples.setdefault(kind, []).append(time.perf_counter() - t0)
        return out

    def timed(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` and record its wall time as a ``kind`` sample; in a
        traced run every other call of each kind is traced."""
        n = self._nth.get(kind, 0)
        self._nth[kind] = n + 1
        if self.trace and n % 2 == 1:
            return self.traced(kind, fn, *args, **kwargs)
        return self.plain(kind, fn, *args, **kwargs)

    def reference(self) -> None:
        """Time one run of the reference kernel (between ops, untimed)."""
        self.ref_samples.append(_time_reference())

    def scale(self) -> float:
        """Factor taking this run's in-process times to the reference
        host: ``REF_MS`` over the reference kernel's median here."""
        return REF_MS / (1e3 * statistics.median(self.ref_samples))

    def traced(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` as a traced op (traced runs only) and record its
        wall time as a traced ``kind`` sample."""
        with self._traced_op(kind):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        self.traced_samples.setdefault(kind, []).append(dt)
        return out

    def span(self, name: str, **attrs):
        """A span inside the current op if it is traced, else nothing."""
        if self._tracing:
            return self.tracer.span(name, **attrs)
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def _traced_op(self, kind: str):
        with self.patch(self.tracer), self.tracer.span(f"op.{kind}"):
            self._tracing = True
            try:
                yield
            finally:
                self._tracing = False


#: Cells of the grid the Beta weights of ``hd_quantile`` are integrated on.
_HD_GRID = 20000


def hd_quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of all order statistics, the weights being the mass a
    Beta(p(n+1), (1-p)(n+1)) distribution puts on each ``[(i-1)/n, i/n]``.
    Unlike the sample quantile it does not jump from one sample to the
    next when two neighbours swap rank, which matters when a run's
    samples are a few fixed tiles of very different cost.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mid = (np.arange(_HD_GRID) + 0.5) / _HD_GRID
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0, 1, _HD_GRID + 1), cdf)
    return float(np.diff(edges) @ x)


def median_ms(values) -> float:
    """The median (Harrell-Davis) in ms."""
    return 1e3 * hd_quantile(values, 0.5)


#: The reference kernel's time (ms) on the host the in-process workloads'
#: metrics are scaled to (about its time on the 2-vCPU machine the
#: benchmark was written on).
REF_MS = 5.0

_REF_RNG = random.Random(0)
_REF_TUPLES = [(_REF_RNG.random(), _REF_RNG.random(), i) for i in range(3000)]
_REF_ARRAYS = [np.arange(16.0) + i for i in range(50)]


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def reference_scale(runs: int = 9) -> float:
    """``REF_MS`` over the reference kernel's median of ``runs`` runs now."""
    return REF_MS / (1e3 * statistics.median(_time_reference() for _ in range(runs)))


def reference_kernel() -> float:
    """Fixed interpreter-heavy work that is none of the program's code:
    sorting tuples, dict and heap operations, small-array numpy calls and
    a JSON round trip.

    The in-process workloads run it between their ops.  On the machine
    this benchmark was written on, stretches of seconds to minutes slow
    a process's builds and tiles by up to half, and this kernel by the
    same share (see README, Noise facts), so the ratio of an op's time to
    the kernel's is far steadier than either.
    """
    seen = {}
    heap = []
    for t in sorted(_REF_TUPLES):
        seen[t[2]] = t
        heapq.heappush(heap, (t[1], t[2]))
    while heap:
        heapq.heappop(heap)
    total = 0.0
    for a in _REF_ARRAYS:
        total += float(np.sqrt(a).sum()) + float(np.maximum(a, 3.0).min())
    json.loads(json.dumps([list(t) for t in _REF_TUPLES[:500]]))
    return total


def peak_rss_mb(pids=()) -> float:
    """Peak resident set size in MB: this process, or the given pids summed."""
    if not pids:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total += float(line.split()[1]) / 1024.0
    return total


def settle() -> None:
    """Collect all garbage, then freeze the survivors out of later
    collections, so the ops that follow start from the same collector
    state and long-lived maps do not slow their collector passes."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def scratch_dir(tag: str) -> Path:
    """A fresh, empty directory under the checkout's scratch space."""
    path = WORK_DIR / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path
