"""Turning a finished run into the metric dictionary the benchmark prints.

End-to-end metrics come from the untraced samples; per-layer metrics come
from the spans of a traced run.  The metric names and units are read
from ``BENCHMARK.json``, which declares each of them once.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: Metric name -> unit, as ``BENCHMARK.json`` declares them.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Count metrics sum over the first this many traced ops that carry them,
#: so they depend on the seed only, never on how many ops fit in a run.
COUNT_OPS = 8


def layer_self_ms(tracer, layer: str, kinds=None) -> float:
    """Median self time (ms) of ``layer`` over the traced ops holding it.

    ``kinds`` restricts the ops to root spans named ``op.<kind>``.
    """
    roots = {s["id"]: s["name"][3:] for s in tracer.ops()}
    per_op = tracer.self_times()
    vals = [
        layers[layer] for op, layers in per_op.items()
        if layer in layers and (kinds is None or roots.get(op) in kinds)
    ]
    return 1e3 * statistics.median(vals) if vals else 0.0


def span_count(tracer, layer: str, attr: str, kinds=None) -> int:
    """Sum of ``attr`` over the first ``COUNT_OPS`` ``layer`` spans."""
    kind_of = {s["id"]: s["name"][3:] for s in tracer.ops()}
    vals = [
        s[attr] for s in tracer.spans
        if s["name"] == layer and (kinds is None or kind_of.get(s["op"]) in kinds)
    ]
    return int(sum(vals[:COUNT_OPS]))


def span_share(tracer, kinds) -> float:
    """Median share of each traced op's wall time its layer spans cover."""
    vals = [
        tracer.covered_share(s) for s in tracer.ops() if s["name"][3:] in kinds
    ]
    return statistics.median(vals) if vals else 0.0


def overhead_ms(run, kind: str) -> float:
    """Traced minus untraced median wall time of one op kind (ms)."""
    traced = run.traced_samples.get(kind)
    plain = run.samples.get(kind)
    if not traced or not plain:
        return 0.0
    return 1e3 * (statistics.median(traced) - statistics.median(plain))


def common_layers(run, *, tile=(), query=(), setup=()) -> dict:
    """The per-layer metrics every in-process workload reads the same way."""
    t = run.tracer
    build_kinds = ("build", *setup)
    return {
        "nn.circles_ms": layer_self_ms(t, "nn.circles", build_kinds),
        "core.sweep_ms": layer_self_ms(t, "core.sweep", build_kinds),
        "core.fragments": span_count(t, "core.sweep", "fragments", build_kinds),
        "core.labels": span_count(t, "core.sweep", "labels", build_kinds),
        "service.fingerprint_ms": layer_self_ms(t, "service.fingerprint"),
        "store.save_ms": layer_self_ms(t, "store.save"),
        "store.bytes": span_count(t, "store.save", "bytes"),
        "store.load_ms": layer_self_ms(t, "store.load"),
        "raster.tile_ms": layer_self_ms(t, "render.raster", tile),
        "raster.frags_in_tile": span_count(t, "render.raster", "frags_in_tile", tile),
        "regionset.locate_ms": layer_self_ms(t, "regionset.locate", query),
        "regionset.index_ms": layer_self_ms(t, "regionset.index"),
    }


def with_units(values: dict, table: dict) -> dict:
    """``{name: {"value", "unit"}}`` for each measured value, its unit
    looked up in ``table``."""
    return {name: {"value": values[name], "unit": table[name]} for name in values}
