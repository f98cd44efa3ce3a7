"""explore-l2: a seeded drill-down over one large L2 map, in-process.

Set-up builds one NYC-like L2 map (about 18k fragments), writes it
through to a store, and picks its hot spots.  Map and hot spots are the
same for every seed, so every pass renders the same tiles and run-to-run
differences measure the program, not how many fragments one sample of
the city happened to make or how dense the sampled spots were (one
batch's query cost varies 20x between sparse and dense spots).  The seed
drives the drill-down: the order of the hot spots in each pass and every
query point.

Hot spots are stratified: the clients are split into equal strata by
local density (distance to their 8th nearest client), and each stratum
contributes the client nearest its median density whose windows share
no tile with an earlier spot's.  So a pass renders the same number of
tiles per level, none of them twice, over a fixed mix of dense and
sparse ground.

Each pass promotes a fresh copy of the map into a new service (so every
tile is cold again) and drills down to every hot spot in a seeded order,
fetching the 2x2 viewport windows at z = 3..6 around it, each tile once
through ``HeatMapService.tile`` (the ``cold`` op).  After every tile a
fixed-size ``heat_at_many`` batch probes the current window (the
``query`` op).  Once a window's four tiles are in, the viewer redraws
it: the four tiles again, now from the tile cache (the ``repeat`` op).
Passes run whole, so a run measures whole copies of the same work.  The
reference kernel runs after every tile's query, and the metrics are the
op medians scaled by it (``Run.scale``; ``run.py`` scales the set-up).  The coarse
levels (z <= 2) are left out: their tiles cost 3-30x a deep one's, so
they could only be a metric of their own, and every end-to-end metric
has to be one every workload measures.

Answer checks run after the clock stops, on answers kept during the run:
tile pixels against ``heat_at_many`` at the pixel centers, and sampled
batch answers against ``NaiveRNN``.
"""

from __future__ import annotations

import numpy as np

from repro import HeatMapService, NaiveRNN
from repro.data import get_dataset
from repro.geometry.rect import Rect
from repro.service.tiles import tile_bounds

from harness import median_ms, settle, scratch_dir
from report import common_layers, overhead_ms, span_share

#: Times in this process are scaled by the reference kernel (see run.py).
SCALED = True
#: Each segment (one per set-up) runs at least one whole pass.
SIZES = {
    "full": {"clients": 500, "facilities": 125, "hot_spots": 6, "batch": 2000,
             "oracle": 4, "check_every": 12, "setups": 1, "setup_repeats": 3},
    "tiny": {"clients": 40, "facilities": 10, "hot_spots": 3, "batch": 100,
             "oracle": 4, "check_every": 6, "setups": 2},
}
#: The NYC-like generator seed of the explored map (fixed; see above).
MAP_SEED = 0
DEEP_Z = (3, 4, 5, 6)


def _instance(size: dict):
    n, f = size["clients"], size["facilities"]
    pts = get_dataset("nyc", n=n + f, seed=MAP_SEED)
    return pts[:n], pts[n:]


def setup(seed: int, size: dict):
    """Build the map, write it through to a store, index it, and pick
    its hot spots."""
    clients, facilities = _instance(size)
    store = scratch_dir("explore-store")
    svc = HeatMapService(store_dir=store, shared_store=True)
    handle = svc.build(clients, facilities, metric="l2")
    svc.heat_at_many(handle, clients[:4])
    spots = _hot_spots(svc.world(handle), clients, size["hot_spots"])
    return store, clients, facilities, svc, handle, spots


def _hot_spots(world: Rect, clients: np.ndarray, n: int) -> list:
    """``n`` hot spots, one per density stratum, each as its windows
    ``[(z, tiles, view)]`` for z in ``DEEP_Z``.

    Each stratum gives the client nearest its median spacing whose
    windows miss every tile of the spots taken before, so no tile of a
    pass is planned twice (a repeat would be a cache hit, not a cold
    render).
    """
    d = np.linalg.norm(clients[:, None, :] - clients[None, :, :], axis=2)
    k = min(8, len(clients) - 1)
    spacing = np.partition(d, k, axis=1)[:, k]
    spots, seen = [], set()
    for stratum in np.array_split(np.argsort(spacing, kind="stable"), n):
        off = np.abs(spacing[stratum] - np.median(spacing[stratum]))
        for i in stratum[np.argsort(off, kind="stable")]:
            windows = [(z, *_window(world, z, *clients[i])) for z in DEEP_Z]
            keys = {(z, x, y) for z, tiles, _ in windows for x, y in tiles}
            if not keys & seen:
                break
        else:
            raise RuntimeError("no hot spot with fresh tiles in a stratum")
        seen |= keys
        spots.append(windows)
    return spots


def _fresh(store, clients, facilities):
    """A new service holding the map (promoted from the store) and its
    point-location index, with an empty tile cache."""
    svc = HeatMapService(store_dir=store, shared_store=True)
    handle = svc.build(clients, facilities, metric="l2")
    svc.heat_at_many(handle, clients[:4])
    return svc, handle


def _window(world: Rect, z: int, hx: float, hy: float):
    """The 2x2 tiles at level ``z`` meeting nearest the hot spot, and the
    viewport rectangle they cover."""
    n = 1 << z
    u = (hx - world.x_lo) / (world.x_hi - world.x_lo) * n
    v = (hy - world.y_lo) / (world.y_hi - world.y_lo) * n
    x0 = min(max(int(np.floor(u - 0.5)), 0), n - 2)
    y0 = min(max(int(np.floor(v - 0.5)), 0), n - 2)
    lo, hi = tile_bounds(world, z, x0, y0), tile_bounds(world, z, x0 + 1, y0 + 1)
    tiles = [(x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)]
    return tiles, Rect(lo.x_lo, hi.x_hi, lo.y_lo, hi.y_hi)


def _redraw(svc, handle, z: int, tiles) -> list:
    """The viewer redraws a window: each of its tiles again, cached."""
    return [svc.tile(handle, z, x, y)[0] for x, y in tiles]


def _pixel_centers(bounds: Rect, size: int) -> np.ndarray:
    """Centers of a ``size`` x ``size`` raster over ``bounds``, row-major
    with row 0 at the bottom (the rasterizer's layout)."""
    sx = size / (bounds.x_hi - bounds.x_lo)
    sy = size / (bounds.y_hi - bounds.y_lo)
    xs = bounds.x_lo + (np.arange(size) + 0.5) / sx
    ys = bounds.y_lo + (np.arange(size) + 0.5) / sy
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def run_ops(run, seed: int, size: dict, state, segment: int) -> None:
    store, clients, facilities, checker, h_checker, spots = state
    rng = np.random.default_rng([seed, 11, segment])
    window = []        # grids of the current window, drawn cold
    kept_tiles = []    # (bounds, grid) to check after the run
    kept_batches = []  # (points, heats)
    n_tiles = 0
    run.start_clock()
    # Whole passes, at least one, until the segment's clock runs out.
    passes = 0
    while run.time_left() or passes == 0:
        passes += 1
        svc = None  # free the last pass's tiles before the next promotion
        svc, handle = _fresh(store, clients, facilities)
        settle()
        for k in rng.permutation(len(spots)):
            for z, tiles, view in spots[k]:
                for x, y in tiles:
                    grid, bounds = run.timed("tile", svc.tile, handle, z, x, y)
                    run.op(True)
                    window.append(grid)
                    n_tiles += 1
                    if n_tiles % size["check_every"] == 0:
                        kept_tiles.append((bounds, grid))
                    pts = rng.uniform((view.x_lo, view.y_lo), (view.x_hi, view.y_hi),
                                      size=(size["batch"], 2))
                    run.add_input(pts)
                    heats = run.timed("query", svc.heat_at_many, handle, pts)
                    run.op(True)
                    run.reference()
                    pick = rng.choice(len(pts), size["oracle"], replace=False)
                    kept_batches.append((pts[pick], heats[pick]))
                grids = run.timed("repeat", _redraw, svc, handle, z, tiles)
                run.op(run.checks.equal("redrawn window vs first draw",
                                        np.stack(grids), np.stack(window)))
                window = []

    oracle = NaiveRNN(clients, facilities, metric="l2")
    for bounds, grid in kept_tiles:
        centers = _pixel_centers(bounds, grid.shape[0])
        at_centers = checker.heat_at_many(h_checker, centers)
        if not run.checks.equal("tile pixels vs heat_at_many", grid.ravel(), at_centers):
            run.failed += 1
    for pts, heats in kept_batches:
        want = [float(len(oracle.query(x, y))) for x, y in pts]
        if not run.checks.equal("heat_at_many vs NaiveRNN", heats, want):
            run.failed += 1


def metrics(run) -> dict:
    if run.trace:
        layers = common_layers(run, tile=("tile",), query=("query",),
                               setup=("setup",))
        layers["trace.span_share"] = span_share(run.tracer, ("tile", "query"))
        layers["trace.overhead_ms"] = overhead_ms(run, "tile")
        return layers
    return {
        "cold_ms": median_ms(run.samples["tile"]) * run.scale(),
        "repeat_ms": median_ms(run.samples["repeat"]) * run.scale(),
        "query_ms": median_ms(run.samples["query"]) * run.scale(),
    }
