"""Layer spans for a traced op, recorded from outside the program.

``patched(tracer)`` swaps span-recording wrappers in for the public
functions each layer exposes, for the duration of one op, and restores
the originals afterwards.  Nothing under ``src/`` is edited: the
wrappers call the very function they replace, so a traced op does the
same work as an untraced one plus the span bookkeeping.

Span names (the layer each covers):

* ``service.fingerprint`` — ``service.fingerprint_build`` (input hashing)
* ``nn.circles`` — ``nn.compute_nn_circles`` as the build calls it
* ``core.sweep`` — the sweep runner the registry resolves; attributes
  ``fragments`` and ``labels``
* ``store.save`` / ``store.load`` — ``ResultStore.save``/``load``;
  ``store.save`` carries ``bytes`` (the ``.npz`` written)
* ``render.raster`` — ``render.raster.rasterize_regionset``; attribute
  ``frags_in_tile`` (fragments whose box meets the raster bounds)
* ``regionset.index`` / ``regionset.locate`` — building the flat
  point-location table, and one batch lookup in it
"""

from __future__ import annotations

import contextlib
import weakref

import numpy as np

import repro.core.heatmap as heatmap_mod
import repro.render.raster as raster_mod
import repro.service.service as service_mod
from repro.core.regionset import RegionSet, _FragmentTable
from repro.core.registry import REGISTRY
from repro.service.store import ResultStore


def _wrap(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        if after is not None:
            after(rec, out, args)
        return out

    return wrapper


#: Fragment bounding boxes per region set, built on first count.
_BOXES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _frags_in_bounds(region_set, bounds) -> int:
    """Fragments whose bounding box meets ``bounds`` (original coords)."""
    arr = _BOXES.get(region_set)
    if arr is None:
        boxes = [f.bbox for f in region_set.fragments]
        arr = np.array([(b.x_lo, b.x_hi, b.y_lo, b.y_hi) for b in boxes]).reshape(-1, 4)
        _BOXES[region_set] = arr
    corners = np.array([
        region_set.transform.forward(x, y)
        for x in (bounds.x_lo, bounds.x_hi) for y in (bounds.y_lo, bounds.y_hi)
    ])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    hit = (
        (arr[:, 0] <= hi[0]) & (arr[:, 1] >= lo[0])
        & (arr[:, 2] <= hi[1]) & (arr[:, 3] >= lo[1])
    )
    return int(hit.sum())


@contextlib.contextmanager
def patched(tracer):
    """Install the layer spans for the duration of one traced op."""
    saved = []

    def swap(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def on_sweep(resolve):
        def traced_resolve(name, metric_name):
            spec, runner = resolve(name, metric_name)

            def traced_runner(*args, **kwargs):
                with tracer.span("core.sweep") as rec:
                    stats, region_set = runner(*args, **kwargs)
                rec["fragments"] = len(region_set) if region_set is not None else 0
                rec["labels"] = int(stats.labels)
                return stats, region_set

            return spec, traced_runner

        return traced_resolve

    def on_save(rec, path, _args):
        rec["bytes"] = path.stat().st_size

    raster = raster_mod.rasterize_regionset

    def traced_raster(region_set, width, height, bounds=None, window=None):
        count = (
            len(region_set) if bounds is None else _frags_in_bounds(region_set, bounds)
        )
        with tracer.span("render.raster", frags_in_tile=count):
            return raster(region_set, width, height, bounds, window)

    table = RegionSet._table

    def traced_table(self):
        if self._flat is not None:
            return table(self)
        with tracer.span("regionset.index"):
            return table(self)

    swap(service_mod, "fingerprint_build",
         _wrap(tracer, "service.fingerprint", service_mod.fingerprint_build))
    swap(heatmap_mod, "compute_nn_circles",
         _wrap(tracer, "nn.circles", heatmap_mod.compute_nn_circles))
    saved.append((REGISTRY, "resolve", None))
    REGISTRY.resolve = on_sweep(REGISTRY.resolve)
    swap(ResultStore, "save", _wrap(tracer, "store.save", ResultStore.save, on_save))
    swap(ResultStore, "load", _wrap(tracer, "store.load", ResultStore.load))
    swap(raster_mod, "rasterize_regionset", traced_raster)
    swap(RegionSet, "_table", traced_table)
    swap(_FragmentTable, "locate",
         _wrap(tracer, "regionset.locate", _FragmentTable.locate))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
