"""build-l2: cold L2 builds written through to a shared store, then promoted.

Each op triple builds one NYC-like instance (one size, one ratio)
through ``HeatMapService.build`` on a new service in ``shared_store``
(replica) mode with an empty store, so the build is cold and writes
through to disk (the ``cold`` op); a fresh service on the same store
then requests the same build again, which promotes it from disk
(``repeat``), and answers one ``heat_at_many`` batch on it, the first,
so it pays for the point-location index (``query``).  No tile is
rendered.

The instances are a fixed pool, the same for every seed: build costs of
one size differ from instance to instance by a fifth or more, so a run
that drew its own instances would carry their average cost into its
medians.  The seed drives the order the pool is built in (a new
permutation per round) and every probe point.

The reference kernel runs after every op triple, and the metrics are the
op medians scaled by it (``Run.scale``; ``run.py`` scales the set-up).
"""

from __future__ import annotations

import shutil

import numpy as np

from repro import HeatMapService, NaiveRNN
from repro.data import get_dataset

from harness import median_ms, settle, scratch_dir
from report import common_layers, overhead_ms, span_share

#: Times in this process are scaled by the reference kernel (see run.py).
SCALED = True
#: ``min_builds`` is per segment (one segment per set-up).
SIZES = {
    "full": {"clients": 200, "facilities": 50, "instances": 6, "probes": 2000,
             "oracle": 25, "setups": 5, "min_builds": 2},
    "tiny": {"clients": 30, "facilities": 8, "instances": 4, "probes": 200,
             "oracle": 10, "setups": 2, "min_builds": 2},
}


#: The NYC-like generator seed of the set-up's warm-up build; the pool's
#: instances use the seeds after it.
WARMUP_SEED = 0


def _instance(map_seed: int, size: dict):
    """One build's clients and facilities."""
    n, f = size["clients"], size["facilities"]
    pts = get_dataset("nyc", n=n + f, seed=map_seed)
    return pts[:n], pts[n:]


def setup(seed: int, size: dict):
    """The instance pool, and one warm-up triple on a fixed instance."""
    clients, facilities = _instance(WARMUP_SEED, size)
    store = scratch_dir("build-warmup")
    HeatMapService(store_dir=store, shared_store=True).build(
        clients, facilities, metric="l2"
    )
    fresh = HeatMapService(store_dir=store, shared_store=True)
    fresh.heat_at_many(fresh.build(clients, facilities, metric="l2"), clients[:4])
    shutil.rmtree(store)
    return [_instance(WARMUP_SEED + 1 + i, size) for i in range(size["instances"])]


def run_ops(run, seed: int, size: dict, pool, segment: int) -> None:
    rng = np.random.default_rng([seed, 7, segment])
    order: "list[int]" = []
    n = 0
    run.start_clock()
    while run.time_left() or n < size["min_builds"]:
        if not order:
            order = [int(k) for k in rng.permutation(len(pool))]
        k = order.pop()
        clients, facilities = pool[k]
        lo, hi = clients.min(axis=0), clients.max(axis=0)
        probes = rng.uniform(lo, hi, size=(size["probes"], 2))
        run.add_input(clients, facilities, probes)
        n += 1
        store = scratch_dir("build-store")
        settle()
        builder = HeatMapService(store_dir=store, shared_store=True)
        handle = run.timed("build", builder.build, clients, facilities, metric="l2")
        fresh = HeatMapService(store_dir=store, shared_store=True)
        promoted = run.timed("promote", fresh.build, clients, facilities, metric="l2")
        answer = run.timed("query", fresh.heat_at_many, promoted, probes)
        run.reference()

        swept = builder.heat_at_many(handle, probes)
        oracle = NaiveRNN(clients, facilities, metric="l2")
        want = [float(len(oracle.query(x, y))) for x, y in probes[: size["oracle"]]]
        run.op(run.checks.equal("build: heat vs NaiveRNN", swept[: size["oracle"]], want))
        ok = (
            promoted == handle
            and fresh.stats.promotions == 1
            and fresh.stats.builds == 0
            and run.checks.equal("promote: heat vs swept", answer, swept)
        )
        run.op(ok)
        shutil.rmtree(store)


def metrics(run) -> dict:
    if run.trace:
        layers = common_layers(run, query=("query",))
        layers["trace.span_share"] = span_share(
            run.tracer, ("build", "promote", "query")
        )
        layers["trace.overhead_ms"] = overhead_ms(run, "build")
        return layers
    return {
        "cold_ms": median_ms(run.samples["build"]) * run.scale(),
        "repeat_ms": median_ms(run.samples["promote"]) * run.scale(),
        "query_ms": median_ms(run.samples["query"]) * run.scale(),
    }
