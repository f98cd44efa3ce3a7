"""serve-fleet: one replica behind a fleet proxy, driven over HTTP.

``python -m repro serve-http --replica --store-dir ...`` and
``python -m repro serve-http --fleet-proxy ...`` run as subprocesses.
This process is the only client.  It holds two keep-alive connections to
the proxy and sends one request at a time (a closed loop, never more
requests in flight than the 2 CPUs), cycling through:

* the analyst connection: a 5k-point JSON ``/query`` batch against a
  small static L1 map (the ``query`` op);
* the viewer connection: a cold tile of that map (``?placeholder=0``, so
  no background render overlaps a timed request; the ``cold`` op), a
  warm re-fetch of a tile fetched before (``repeat``), a revalidation of
  one (``If-None-Match``, 304), and a ``POST /update`` moving one client
  of a dynamic L-infinity map followed by revalidating that map's 4x4
  viewport at z = 2.  Revalidations and updates are timed too; their
  medians go to standard error, not into the result.

Both maps are the same for every seed; the seed drives the traffic (query
points, tile order, moves), so run-to-run differences measure the
program rather than the sampled city.

The servers run in other processes, so spans in this one cannot see
their work, and the HTTP ops are timed untraced in every run.  Traced
runs add, on every other cycle, the same query and warm requests sent
directly to the replica (the proxy hop is the difference) and the same
work replayed in-process on library copies of both maps, which gives the
codec, point-location, raster, PNG and rebuild times.  The query replay
runs twice per traced cycle, once untraced and once traced (taking turns
going first), so their difference is the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import statistics
import subprocess
import sys
import time

import numpy as np

from repro import DynamicHeatMap, HeatMapService, NaiveRNN
from repro.data import get_dataset
from repro.server.wire import decode_points, json_response, render_tile_png

from harness import ROOT, median_ms, peak_rss_mb, settle, scratch_dir
from report import COUNT_OPS, layer_self_ms, overhead_ms, span_count

#: ``min_queries`` is the fewest cycles of a segment (one segment, and one
#: set of server processes, per set-up).
SIZES = {
    "full": {"static": (200, 50), "dynamic": (150, 40), "batch": 5000,
             "oracle": 4, "check_every": 8, "cold_z": 5, "setups": 4,
             "min_queries": 25},
    "tiny": {"static": (30, 8), "dynamic": (30, 8), "batch": 200,
             "oracle": 4, "check_every": 2, "cold_z": 3, "setups": 2,
             "min_queries": 3},
}
VIEW_Z = 2
TILE = "/tiles/{h}/{z}/{x}/{y}.png?placeholder=0"


def _instance(map_seed: int, n: int, f: int):
    pts = get_dataset("nyc", n=n + f, seed=map_seed)
    return pts[:n], pts[n:]


class _Server:
    """One ``serve-http`` subprocess, up once it announced its port."""

    def __init__(self, args, log_path) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-http", "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"serve-http did not announce a port: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _call(conn, method, path, body=None, headers=None):
    """One request on a keep-alive connection -> (status, body, etag)."""
    hdrs = dict(headers or {})
    if body is not None:
        hdrs["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=hdrs)
    resp = conn.getresponse()
    return resp.status, resp.read(), resp.getheader("ETag")


def _json(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    status, data, _ = _call(conn, method, path, body)
    if status >= 300:
        raise RuntimeError(f"{method} {path} -> {status}: {data[:200]!r}")
    return json.loads(data)


def _build(conn, clients, facilities, **params) -> str:
    ds = _json(conn, "POST", "/datasets", {
        "clients": clients.tolist(), "facilities": facilities.tolist(),
    })["dataset"]
    handle = _json(conn, "POST", "/build", {"dataset": ds, **params})["handle"]
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        state = _json(conn, "GET", f"/build/{handle}")
        if state["status"] == "ready":
            return handle
        if state["status"] == "failed":
            raise RuntimeError(f"build failed: {state.get('error')}")
        time.sleep(0.01)
    raise RuntimeError(f"build {handle} not ready in time")


class Fleet:
    """Servers, connections and map handles of one set-up."""

    def __init__(self, size: dict) -> None:
        self.dir = scratch_dir("fleet")
        self.servers = []
        self.conns = []
        try:
            self._start(size)
        except BaseException:
            self.close()
            raise

    def _start(self, size: dict) -> None:
        store = self.dir / "store"
        store.mkdir()
        self.replica = self._spawn(["--replica", "--store-dir", str(store)], "replica")
        self.proxy = self._spawn(
            ["--fleet-proxy", f"127.0.0.1:{self.replica.port}"], "proxy"
        )
        self.analyst = self.connect(self.proxy)
        self.viewer = self.connect(self.proxy)
        deadline = time.monotonic() + 60
        while _call(self.viewer, "GET", "/healthz?ready=1")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("fleet proxy never became ready")
            time.sleep(0.01)

        self.static = _instance(1, *size["static"])
        self.dynamic = _instance(2, *size["dynamic"])
        self.h_static = _build(self.viewer, *self.static, metric="l1")
        self.h_dyn = _build(self.viewer, *self.dynamic, metric="linf", dynamic=True)
        # Lazy first-use costs: each map's point-location index, the
        # render path, and the dynamic viewport the updates revalidate.
        for h, pts in ((self.h_static, self.static[0]), (self.h_dyn, self.dynamic[0])):
            _json(self.analyst, "POST", f"/query/{h}", {"points": pts[:4].tolist()})
        _call(self.viewer, "GET", TILE.format(h=self.h_static, z=0, x=0, y=0))
        self.view = {}
        for ty in range(1 << VIEW_Z):
            for tx in range(1 << VIEW_Z):
                path = TILE.format(h=self.h_dyn, z=VIEW_Z, x=tx, y=ty)
                status, png, etag = _call(self.viewer, "GET", path)
                if status != 200:
                    raise RuntimeError(f"viewport tile {path} -> {status}")
                self.view[(tx, ty)] = [path, etag, png]

    def _spawn(self, args, name) -> _Server:
        server = _Server(args, self.dir / f"{name}.log")
        self.servers.append(server)
        return server

    def connect(self, server) -> http.client.HTTPConnection:
        conn = server.connect()
        self.conns.append(conn)
        return conn

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for server in reversed(self.servers):
            server.stop()


def setup(seed: int, size: dict) -> Fleet:
    return Fleet(size)


def teardown(fleet: Fleet) -> None:
    fleet.close()


class _Mover:
    """Seeded client moves that each dirty exactly one viewport tile.

    The moved client's NN-square lies strictly inside one z = ``VIEW_Z``
    tile before and after the move, so every update re-renders one tile
    and the other viewport tiles revalidate as 304s; the update median
    then times one kind of op, not a mix of one-, two- and four-tile
    updates.  The world rectangle (hence every tile address) never
    changes.
    """

    def __init__(self, clients, facilities, rng) -> None:
        self.pos = np.array(clients, dtype=float)
        self.fac = np.asarray(facilities, dtype=float)
        self.rng = rng
        lo, hi = self._squares(self.pos)
        self.origin = lo.min(axis=0)
        self.tile = (hi.max(axis=0) - self.origin) / (1 << VIEW_Z)

    def _squares(self, pts):
        d = np.abs(pts[:, None, :] - self.fac[None, :, :]).max(axis=2)
        r = d.min(axis=1)[:, None]
        return pts - r, pts + r

    def _cell(self, point):
        """The viewport tile holding the point's NN-square, or None when
        the square reaches a tile edge."""
        lo, hi = self._squares(point[None, :])
        margin = 1e-3 * self.tile
        a = np.floor((lo[0] - margin - self.origin) / self.tile)
        b = np.floor((hi[0] + margin - self.origin) / self.tile)
        return tuple(a) if (a == b).all() else None

    def next(self) -> "tuple[int, float, float]":
        while True:
            i = int(self.rng.integers(len(self.pos)))
            cell = self._cell(self.pos[i])
            new = self.pos[i] + self.rng.normal(scale=0.05, size=2) * self.tile
            if cell is not None and self._cell(new) == cell:
                self.pos[i] = new
                return i, float(new[0]), float(new[1])


def run_ops(run, seed: int, size: dict, fleet: Fleet, segment: int) -> None:
    rng = np.random.default_rng([seed, 13, segment])
    clients, facilities = fleet.static
    mover = _Mover(*fleet.dynamic, rng)
    z = size["cold_z"]
    cold = [(tx, ty) for ty in range(1 << z) for tx in range(1 << z)]
    cold = [cold[i] for i in rng.permutation(len(cold))]
    lo, hi = clients.min(axis=0), clients.max(axis=0)

    mirror = HeatMapService()
    m_static = mirror.build(clients, facilities, metric="l1")
    mirror.heat_at_many(m_static, clients[:4])
    if run.trace:
        direct = fleet.connect(fleet.replica)
        m_dyn = DynamicHeatMap(*fleet.dynamic, metric="linf")
        m_dyn.result()
        # Pooled over the segments: proxied minus direct latency of
        # identical warm/304 requests; per traced cycle, the /query op and
        # its replay; the replica's /stats deltas over traced updates.
        hops = run.pooled.setdefault("hops", [])
        query_rows = run.pooled.setdefault("query_rows", [])
        stat_deltas = run.pooled.setdefault("stat_deltas", [])

    fetched = []        # [path, etag, png] of every cold tile served
    kept_tiles = []     # (z, tx, ty, png) checked against the library
    kept_queries = []   # (points, heats) checked against NaiveRNN
    settle()
    run.start_clock()
    cycle = 0
    while run.time_left() or cycle < size["min_queries"]:
        cycle += 1
        traced = run.trace and cycle % 2 == 0
        pts = rng.uniform(lo, hi, size=(size["batch"], 2))
        run.add_input(pts)
        body = json.dumps({"points": pts.tolist()}).encode()
        status, data, _ = run.plain(
            "query", _call, fleet.analyst, "POST", f"/query/{fleet.h_static}", body
        )
        run.op(status == 200)
        heats = np.asarray(json.loads(data)["heats"], dtype=float)
        pick = rng.choice(len(pts), size["oracle"], replace=False)
        kept_queries.append((pts[pick], heats[pick]))
        if traced:
            proxied = run.samples["query"][-1]
            direct_s = _timed_call(direct, "POST", f"/query/{fleet.h_static}", body)
            # The traced replay's root span comes next (an untraced one
            # records none); the two replays take turns going first.
            root = len(run.tracer.spans)
            order = (run.plain, run.traced)
            for replay in order if len(query_rows) % 2 else order[::-1]:
                replay("mirror_query", _mirror_query, run, mirror, m_static, body)
            query_rows.append({
                "op": root, "proxied": proxied, "direct": direct_s,
                "replay": run.samples["mirror_query"][-1],
            })

        tx, ty = cold[(cycle - 1) % len(cold)]
        path = TILE.format(h=fleet.h_static, z=z, x=tx, y=ty)
        status, png, etag = run.plain("tile_cold", _call, fleet.viewer, "GET", path)
        run.op(status == 200)
        if cycle <= len(cold):
            fetched.append([path, etag, png])
        if traced:
            run.traced("mirror_tile", _mirror_tile, run, mirror, m_static, z, tx, ty)
        if cycle % size["check_every"] == 0:
            kept_tiles.append((z, tx, ty, png))

        path, _etag, png = fetched[int(rng.integers(len(fetched)))]
        status, warm, _ = run.plain("tile_warm", _call, fleet.viewer, "GET", path)
        run.op(status == 200 and run.checks.equal("warm tile bytes", warm, png))
        if traced:
            hops.append(_hop(fleet.viewer, direct, "GET", path))

        path, etag, _png = fetched[int(rng.integers(len(fetched)))]
        inm = {"If-None-Match": etag}
        status, _, _ = run.plain(
            "revalidate", _call, fleet.viewer, "GET", path, None, inm
        )
        run.op(status == 304)
        if traced:
            hops.append(_hop(fleet.viewer, direct, "GET", path, inm))

        i, x, y = mover.next()
        if traced:
            before = _service_stats(direct)
        statuses = run.plain("update", _update, fleet, i, x, y)
        run.op(all(s in (200, 304) for s in statuses))
        if run.trace:
            # The mirror follows every move, so each traced rebuild
            # covers exactly one, as the replica's does.
            m_dyn.move_client(i, x, y)
        if traced:
            after = _service_stats(direct)
            stat_deltas.append({k: after[k] - before[k] for k in after})
            run.traced("mirror_update", _mirror_rebuild, run, m_dyn)
        elif run.trace:
            m_dyn.result()

    run.pooled.setdefault("rss", []).append(
        peak_rss_mb([s.proc.pid for s in fleet.servers])
    )
    _check(run, fleet, mirror, m_static, kept_tiles, kept_queries, mover)


def metrics(run) -> dict:
    if run.trace:
        t = run.tracer
        query_rows = run.pooled["query_rows"]
        stat_deltas = run.pooled["stat_deltas"]
        per_op = t.self_times()
        shares, edges = [], []
        for row in query_rows:
            own = per_op[row["op"]]
            # The /query op's wall time the spans account for: the
            # replica's codec and point location (as the replay measured
            # them) plus the proxy hop of this very request.
            covered = (
                own.get("server.codec", 0.0) + own.get("regionset.locate", 0.0)
                + row["proxied"] - row["direct"]
            )
            shares.append(covered / row["proxied"])
            # Direct latency minus the in-process codec and service time.
            edges.append(row["direct"] - row["replay"])
        first = stat_deltas[:COUNT_OPS]
        return {
            "service.fingerprint_ms": layer_self_ms(t, "service.fingerprint"),
            "regionset.locate_ms": layer_self_ms(
                t, "regionset.locate", ("mirror_query",)
            ),
            "regionset.index_ms": layer_self_ms(t, "regionset.index"),
            "raster.tile_ms": layer_self_ms(t, "render.raster", ("mirror_tile",)),
            "raster.frags_in_tile": span_count(
                t, "render.raster", "frags_in_tile", ("mirror_tile",)
            ),
            "png.encode_ms": layer_self_ms(t, "png.encode"),
            "server.codec_ms": layer_self_ms(t, "server.codec"),
            "server.edge_ms": 1e3 * statistics.median(edges),
            "proxy.hop_ms": 1e3 * statistics.median(run.pooled["hops"]),
            "dynamic.rebuild_ms": layer_self_ms(t, "dynamic.rebuild"),
            "dynamic.dirty_tiles": sum(d["tiles_dropped_partial"] for d in first),
            "service.partial_rerenders": sum(
                d["tile_rerenders_partial"] for d in first
            ),
            "trace.span_share": statistics.median(shares),
            "trace.overhead_ms": overhead_ms(run, "mirror_query"),
        }
    return {
        "peak_rss_mb": max(run.pooled["rss"]),
        "cold_ms": median_ms(run.samples["tile_cold"]),
        "repeat_ms": median_ms(run.samples["tile_warm"]),
        "query_ms": median_ms(run.samples["query"]),
    }


def _update(fleet: Fleet, i: int, x: float, y: float) -> "list[int]":
    """Move client ``i``, then revalidate the dynamic map's viewport."""
    body = json.dumps({"updates": [
        {"op": "move_client", "handle": i, "x": x, "y": y},
    ]}).encode()
    statuses = [_call(fleet.viewer, "POST", f"/update/{fleet.h_dyn}", body)[0]]
    for entry in fleet.view.values():
        status, png, etag = _call(
            fleet.viewer, "GET", entry[0], None, {"If-None-Match": entry[1]}
        )
        statuses.append(status)
        if status == 200:
            entry[1], entry[2] = etag, png
    return statuses


def _timed_call(conn, *args) -> float:
    t0 = time.perf_counter()
    _call(conn, *args)
    return time.perf_counter() - t0


def _hop(proxied, direct, method, path, headers=None) -> float:
    """Proxied minus direct latency of one identical request (s)."""
    return (
        _timed_call(proxied, method, path, None, headers)
        - _timed_call(direct, method, path, None, headers)
    )


def _service_stats(conn) -> dict:
    return _json(conn, "GET", "/stats")["service"]


def _mirror_query(run, mirror, handle, body) -> None:
    """The replica's /query work, in-process: codec and point location."""
    with run.span("server.codec"):
        pts = decode_points(json.loads(body), max_points=1_000_000)
    heats = mirror.heat_at_many(handle, pts)
    with run.span("server.codec"):
        json_response({"handle": handle, "kind": "heat", "n": len(heats), "heats": heats})


def _mirror_tile(run, mirror, handle, z, tx, ty) -> bytes:
    grid, _ = mirror.tile(handle, z, tx, ty)
    with run.span("png.encode"):
        return render_tile_png(grid, "heat", None)


def _mirror_rebuild(run, dyn) -> None:
    with run.span("dynamic.rebuild"):
        dyn.result()


def _check(run, fleet, mirror, m_static, kept_tiles, kept_queries, mover) -> None:
    """Answer checks, after the clock: each wrong answer fails one op."""
    if not run.checks.equal("static handle", m_static, fleet.h_static):
        run.failed += 1
    for z, tx, ty, png in kept_tiles:
        grid, _ = mirror.tile(m_static, z, tx, ty)
        want = render_tile_png(grid, "heat", None)
        if not run.checks.equal("served tile vs library", png, want):
            run.failed += 1
    oracle = NaiveRNN(*fleet.static, metric="l1")
    for pts, heats in kept_queries:
        want = [float(len(oracle.query(x, y))) for x, y in pts]
        if not run.checks.equal("/query vs NaiveRNN", heats, want):
            run.failed += 1
    scratch = HeatMapService()
    h = scratch.build(mover.pos, mover.fac, metric="linf")
    for (tx, ty), (_path, _etag, png) in fleet.view.items():
        grid, _ = scratch.tile(h, VIEW_Z, tx, ty)
        if not run.checks.equal(
            "dynamic tile vs from-scratch build", png, render_tile_png(grid, "heat", None)
        ):
            run.failed += 1
