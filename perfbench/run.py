"""Benchmark of the tilemaker_ray engine: four seeded workloads driven
only through the engine's public functions.

    python3 perfbench/run.py --workload web_build --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics (tracing off); --trace 1 runs
the traced in-process composition and reports the per-layer metrics.
The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it list
every metric with its unit and sample count.  The exit code is non-zero
when any output check fails.  See perfbench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
import traceback
from statistics import median

from common import (BENCH_DIR, ROOT, WORK_DIR, NullTracer, PeakRss, Tracer,
                    check_digest, cpu_speed, dataset_rows, frame_rows,
                    num_cpus, percentile, start_ray, stop_descendants,
                    stop_ray, tile_digest, work_path)

WORKLOADS = ("web_build", "web_recrawl", "osm_build", "tile_serve")

# a request slower than this counts as failed (the serving SLO)
LATENCY_LIMIT_MS = 1000.0
SERVER_STARTS = 7
# measured runs of a batch window, however long the runs take; the
# median of one run moved with every host hiccup
MIN_RUNS = 2
# share of the tile_serve window given to the closed loop; the open
# loop gets the rest (a 15 s window leaves it 750 requests at 250/s)
CLOSED_SHARE = 0.8
# closed-loop throughput is the median over slices of this length
WINDOW_S = 0.5
# an invocation must end within 180 s, stragglers included
DEADLINE_S = 165.0

END_TO_END = {  # name -> unit
    "rows_per_s": "1/s", "latency_p50_ms": "ms", "tiles_mb": "MB",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio",
}
# The end-to-end timings are reported as a host whose cpu_speed() reads
# REF_SPEED would read them: each is scaled by (REF_SPEED / the mean of
# cpu_speed() just before and just after the workload) to this power.
# The 4-core VM the benchmark was built on drifts by 20-35% within
# minutes (its web_build rows/s read 266-440 in one set of 10 runs, and
# tile_serve's server start moved with it), which no window that fits
# the time budget averages away; the loop slows with it.  The raw
# readings are in the info line.
REF_SPEED = 6600.0
SPEED_POWER = {"rows_per_s": 1, "latency_p50_ms": -1, "setup_s": -1}
# what the tile_serve readings are in serving terms
SERVE_ALIASES = {"rows_per_s": "serve_rps", "latency_p50_ms": "serve_p50_ms"}
PER_LAYER = {
    "sources.read_s": "s", "sources.pbf_decode_s": "s",
    "sources.pbf_entities": "count",
    "extract.self_s": "s", "extract.pages": "count",
    "extract.features": "count",
    "geom_map.self_s": "s", "geom_map.rows_out": "count",
    "geom_map.explode_ratio": "ratio", "geom_map.point_share": "ratio",
    "exchange.rows": "count", "exchange.mb": "MB",
    "exchange.partitions": "count", "exchange.skew": "ratio",
    "engine.overhead_s": "s",
    "assemble.self_s": "s", "assemble.tiles": "count",
    "assemble.keep_ratio": "ratio", "mvt.gzip_s": "s", "mvt.raw_mb": "MB",
    "sinks.write_s": "s", "sinks.tiles": "count",
    "incremental.delta_s": "s", "incremental.delta_geom_s": "s",
    "incremental.reassemble_s": "s", "incremental.retract_rows": "count",
    "incremental.insert_rows": "count", "incremental.touched_tiles": "count",
    "incremental.rerender_share": "ratio",
    "osm.node_store_s": "s", "osm.way_assembly_s": "s",
    "osm.multipolygon_s": "s", "osm.ways": "count",
    "serve.backend_us": "us", "serve.http_us": "us", "serve.hit_ratio": "ratio",
    "loadgen.late_ms": "ms",
}

_T0 = time.perf_counter()


def _past_deadline() -> bool:
    return time.perf_counter() - _T0 > DEADLINE_S


class Outcome:
    """Operations attempted and failed, with the reason of each failure.
    An operation fails when its output is wrong or when it misses the
    latency limit; only a wrong output makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], slow_ms: float = 0.0) -> None:
        self.attempted += 1
        if problems:
            self.wrong += 1
            self.problems.extend(problems[:3])
        if slow_ms > LATENCY_LIMIT_MS:
            self.problems.append(f"{slow_ms:.1f} ms, over the latency limit")
        if problems or slow_ms > LATENCY_LIMIT_MS:
            self.failed += 1


# --- environment -------------------------------------------------------------

def environment() -> dict:
    import ray
    return {"cores": os.cpu_count(), "affinity_cpus": num_cpus(),
            "ray_num_cpus": num_cpus(), "ray_version": ray.__version__}


# --- batch workloads -----------------------------------------------------------

def run_batch(once, seconds: float,
              warmup: bool = True) -> tuple[float, list[float], list]:
    """Warm-up call, then at least MIN_RUNS measured calls, and more
    while the window holds more than half of another.
    Returns (warm-up s, measured s list, what every call returned); a
    call that raised returns its exception.  Outputs are checked after
    the window (check_outputs), so no check runs inside it."""
    results = []

    def attempt() -> float:
        t0 = time.perf_counter()
        try:
            results.append(once())
        except Exception as e:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            results.append(e)
        return time.perf_counter() - t0

    warm = attempt() if warmup else 0.0
    times: list[float] = []
    start = time.perf_counter()
    while not _past_deadline():
        times.append(attempt())
        spent = time.perf_counter() - start
        # the window is used to the nearest whole run: stopping when a
        # whole run no longer fits left web_recrawl one sample
        if len(times) >= MIN_RUNS and spent + median(times) / 2 > seconds:
            break
    return warm, times, results


def check_outputs(results: list, check, outcome: Outcome) -> int:
    """Record one operation per run: check(result) lists the problems
    of a run's output.  Returns the tile bytes of the last good run."""
    nbytes = 0
    for r in results:
        if isinstance(r, Exception):
            outcome.record([f"raised {type(r).__name__}: {r}"])
            continue
        problems = check(r)
        outcome.record(problems)
        if not problems:
            nbytes = r[2]
    return nbytes


def batch_metrics(rows: int, times: list[float], tile_bytes: int,
                  setup_s: float, rss: PeakRss, outcome: Outcome) -> dict:
    n = len(times)
    return {
        "rows_per_s": (rows / median(times), n),
        "latency_p50_ms": (1e3 * median(times), n),
        "tiles_mb": (tile_bytes / 1e6, 1),
        "setup_s": (setup_s, 1),
        "peak_rss_mb": (rss.peak / 1e6, 1),
        "ok_share": ((outcome.attempted - outcome.failed)
                     / outcome.attempted, outcome.attempted),
    }


def e2e_web_build(scale: str, seed: int, seconds: float, out: Outcome):
    import fixtures
    from tilemaker_ray.config import default_config
    from tilemaker_ray.pipelines.flagship import tile_dataset
    from tilemaker_ray.sinks.mbtiles import (default_metadata, read_mbtiles,
                                             write_mbtiles)
    src = fixtures.pages(scale, seed)
    ref = fixtures.web_reference(scale, seed)
    meta = default_metadata(default_config())
    target = work_path("out", "web_build.mbtiles")

    def once():
        # the CLI's pages -> .mbtiles path
        written = write_mbtiles(target, dataset_rows(tile_dataset(src)), meta)
        got = tile_digest((z, x, y, b) for (z, x, y), b
                          in read_mbtiles(target).items())
        return (*got, written)

    def check(r):
        problems = check_digest(r[:4], ref)
        if r[4] != r[1]:
            problems.append(f"{r[4] - r[1]} tiles written twice")
        return problems

    with PeakRss() as rss:
        t0 = time.perf_counter()
        start_ray()
        init_s = time.perf_counter() - t0
        warm, times, results = run_batch(once, seconds)
    nbytes = check_outputs(results, check, out)
    rows = fixtures.SCALES[scale]["pages"]
    return (batch_metrics(rows, times, nbytes, init_s + warm, rss, out),
            {"pages": rows, "tiles": ref["tiles"], "warmup_s": warm,
             "run_s": times})


def e2e_web_recrawl(scale: str, seed: int, seconds: float, out: Outcome):
    import fixtures
    from tilemaker_ray.pipelines.incremental import (assemble_tiles,
                                                     geom_store,
                                                     incremental_update)
    from tilemaker_ray.stages.salted import data_num_partitions
    old = fixtures.pages(scale, seed)
    new = fixtures.recrawl_pages(scale, seed)
    ref = fixtures.recrawl_reference(scale, seed)

    with PeakRss() as rss:
        t0 = time.perf_counter()
        start_ray()
        # the previous run's feature store and tiles
        store = geom_store(old).materialize()
        old_tiles = assemble_tiles(store, data_num_partitions()).materialize()
        base_s = time.perf_counter() - t0

        def once():
            tiles, _ = incremental_update(old, new, store, old_tiles)
            return tile_digest(dataset_rows(tiles))

        # building the base ran every stage an increment runs: it is
        # the warm-up
        _, times, results = run_batch(once, seconds, warmup=False)
    nbytes = check_outputs(results, lambda got: check_digest(got, ref), out)
    rows = fixtures.SCALES[scale]["pages"]
    return (batch_metrics(rows, times, nbytes, base_s, rss, out),
            {"pages": rows, "changed_every": fixtures.RECRAWL_EVERY,
             "tiles": ref["tiles"], "base_s": base_s, "run_s": times})


def e2e_osm_build(scale: str, seed: int, seconds: float, out: Outcome):
    import fixtures
    from tilemaker_ray.pipelines.osm import osm_tile_dataset
    path, counts = fixtures.pbf(scale, seed)

    def once():
        return tile_digest(dataset_rows(osm_tile_dataset(path)))

    with PeakRss() as rss:
        t0 = time.perf_counter()
        start_ray()
        init_s = time.perf_counter() - t0
        warm, times, results = run_batch(once, seconds)
    # the reference needs Ray; when it is not cached yet it is built
    # here, after the timed and RSS window, in the same Ray session
    ref = fixtures.osm_reference(scale, seed)
    nbytes = check_outputs(results, lambda got: check_digest(got, ref), out)
    rows = counts["nodes"] + counts["ways"] + counts["relations"]
    return (batch_metrics(rows, times, nbytes, init_s + warm, rss, out),
            {"pbf_entities": counts, "pbf_bytes": os.path.getsize(path),
             "tiles": ref["tiles"], "warmup_s": warm, "run_s": times})


# --- tile_serve ------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def fetch(port: int, key: tuple[int, int, int]) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/%d/%d/%d.pbf" % key)
        r = conn.getresponse()
        return r.status, r.read()
    finally:
        conn.close()


def request(port: int, key) -> tuple[int, bytes]:
    """fetch(), with a request that fails returned as status 0."""
    try:
        return fetch(port, key)
    except (OSError, http.client.HTTPException):
        return 0, b""


def serve_check(tiles: dict, key, status: int, body: bytes) -> list[str]:
    """Every 200 body must be the container's bytes; every miss a 204."""
    want = tiles.get(key)
    if want is None:
        return [] if status == 204 else [f"{key}: {status} for a missing tile"]
    if status != 200:
        return [f"{key}: status {status}"]
    return [] if body == want else [f"{key}: body differs from the container"]


class Server:
    """`python -m tilemaker_ray.serve` in its own process."""

    def __init__(self, container: str, probe_key):
        self.port = _free_port()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "tilemaker_ray.serve", container,
             "--port", str(self.port)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while True:  # ready at the first 200
            try:
                if fetch(self.port, probe_key)[0] == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("tile server did not start")
            time.sleep(0.005)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def start_server(container: str, probe_key) -> tuple["Server", float]:
    t0 = time.perf_counter()
    srv = Server(container, probe_key)
    return srv, time.perf_counter() - t0


def closed_loop(port, trace, tiles, seconds, out: Outcome, rot: Rotation,
                tr: Tracer = NullTracer()):
    """One client: each request is sent when the previous one is done.
    Returns (completion times s from the start, hits)."""
    done: list[float] = []
    hits = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds and not _past_deadline():
        key = trace[len(done) % len(trace)]
        rot.follow(time.perf_counter() - t0)
        t = time.perf_counter()
        with tr.span("serve.request"):
            status, body = request(port, key)
        end = time.perf_counter()
        out.record(serve_check(tiles, key, status, body), 1e3 * (end - t))
        hits += status == 200
        done.append(end - t0)
    return done, hits


def window_rates(done: list[float], seconds: float) -> list[float]:
    """Requests per second in each WINDOW_S slice of a closed loop."""
    counts = [0] * max(1, int(seconds / WINDOW_S))
    for t in done:
        if int(t / WINDOW_S) < len(counts):
            counts[int(t / WINDOW_S)] += 1
    return [c / WINDOW_S for c in counts]


def open_loop(port, trace, tiles, seconds, rate, offset, out: Outcome,
              rot: Rotation):
    """Requests due on a fixed schedule of `rate` per second, whatever
    the replies do; latency is timed from each request's due time.
    Returns (latencies s, generator lateness s, hits)."""
    lat, late = [], []
    hits = 0
    n = int(rate * seconds)
    t0 = time.perf_counter()
    for i in range(n):
        if _past_deadline():
            break
        due = t0 + i / rate
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        rot.follow(due - t0)
        key = trace[(offset + i) % len(trace)]
        sent = time.perf_counter()
        status, body = request(port, key)
        done = time.perf_counter()
        out.record(serve_check(tiles, key, status, body), 1e3 * (done - due))
        lat.append(done - due)
        late.append(sent - due)
        hits += status == 200
    return lat, late, hits


def serve_inputs(scale: str, seed: int):
    import fixtures
    container = fixtures.web_container(scale, seed)
    tiles = fixtures.container_tiles(container)
    trace = fixtures.request_trace(tiles, seed)
    return container, tiles, trace, min(tiles)


# The server and the load generator share one CPU at a time.  One
# client's requests never overlap the server's work, so one CPU loses no
# parallelism, and each hand-over is a context switch instead of a
# wake-up of another virtual CPU, whose latency varies with the host.
# On a shared host each virtual CPU's speed drifts on its own (loops
# pinned to two CPUs at once correlated 0.33 over 10 s slices), so a
# load held on one CPU measured that CPU's drift.  The pair moves to
# the next CPU of the affinity mask every ROTATE_S instead, and every
# run is spread over all of them.
ROTATE_S = 1.0


class Rotation:
    """Moves this process and the server together to CPU k mod n of the
    affinity mask in the k-th ROTATE_S slice of a load loop."""

    def __init__(self, server_pid: int):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pid = server_pid
        self.slot = -1

    def follow(self, elapsed: float) -> None:
        slot = int(elapsed / ROTATE_S)
        if slot != self.slot:
            self.slot = slot
            cpu = {self.cpus[slot % len(self.cpus)]}
            # the server's request threads are started by its main
            # thread, so they inherit its new mask
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(self.pid, cpu)
            os.sched_setaffinity(0, cpu)


@contextlib.contextmanager
def rotating(server_pid: int):
    cpus = os.sched_getaffinity(0)
    try:
        yield Rotation(server_pid)
    finally:
        os.sched_setaffinity(0, cpus)


@contextlib.contextmanager
def no_gc_pauses():
    """A full collection over the client's tile and trace tables stalls
    it for tens of ms, which the open loop would charge to the server:
    freeze those tables and keep the collector off while load runs."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def e2e_tile_serve(scale: str, seed: int, seconds: float, out: Outcome,
                   rate: float):
    container, tiles, trace, probe = serve_inputs(scale, seed)
    with PeakRss() as rss:
        starts = []
        for i in range(SERVER_STARTS):
            srv, dt = start_server(container, probe)
            starts.append(dt)
            if i < SERVER_STARTS - 1:
                srv.stop()
        try:
            with rotating(srv.proc.pid) as rot, no_gc_pauses():
                done, _ = closed_loop(srv.port, trace, tiles,
                                      seconds * CLOSED_SHARE, out, rot)
                lat, late, _ = open_loop(srv.port, trace, tiles,
                                         seconds * (1 - CLOSED_SHARE), rate,
                                         len(done), out, rot)
        finally:
            srv.stop()
    n = len(done)
    metrics = {
        "rows_per_s": (median(window_rates(done, seconds * CLOSED_SHARE)), n),
        "latency_p50_ms": (1e3 * median(lat), len(lat)),
        "tiles_mb": (sum(map(len, tiles.values())) / 1e6, 1),
        "setup_s": (median(starts), len(starts)),
        "peak_rss_mb": (rss.peak / 1e6, 1),
        "ok_share": ((out.attempted - out.failed) / out.attempted,
                     out.attempted),
    }
    # the tail is reported, not bounded: one host stall of tens of ms
    # delays ~1% of a run, and p95/p99 swung 2-10x between runs of the
    # same code on a 4-core VM
    return metrics, {"tiles": len(tiles), "open_loop_rate": rate,
                     "closed_loop_requests": n, "open_loop_requests": len(lat),
                     "open_loop_p95_ms": 1e3 * percentile(lat, 0.95),
                     "open_loop_p99_ms": 1e3 * percentile(lat, 0.99),
                     "open_loop_late_p99_ms": 1e3 * percentile(late, 0.99)}


# --- traced runs -----------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict:
    st = tr.self_times()
    c = tr.counts.get
    rows = c("exchange.rows", 0)
    parts = c("exchange.partitions", 0)
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "sources.read_s": st.get("sources.read", 0.0),
        "sources.pbf_decode_s": st.get("sources.pbf_decode", 0.0),
        "sources.pbf_entities": c("sources.pbf_entities", 0),
        "extract.self_s": st.get("extract", 0.0),
        "extract.pages": c("extract.pages", 0),
        "extract.features": c("extract.features", 0),
        "geom_map.self_s": st.get("geom_map", 0.0),
        "geom_map.rows_out": c("geom_map.rows_out", 0),
        "geom_map.explode_ratio": _ratio(c("geom_map.rows_out", 0),
                                         c("extract.features", 0)),
        "geom_map.point_share": _ratio(c("geom_map.points_in", 0),
                                       c("extract.features", 0)),
        "exchange.rows": rows,
        "exchange.mb": c("exchange.bytes", 0) / 1e6,
        "exchange.partitions": parts,
        "exchange.skew": _ratio(c("exchange.max_rows", 0), _ratio(rows, parts)),
        # wall of the run minus every layer's self time
        "engine.overhead_s": st.get("run", 0.0),
        "assemble.self_s": st.get("assemble", 0.0),
        "assemble.tiles": c("assemble.tiles", 0),
        "assemble.keep_ratio": _ratio(c("assemble.features_out", 0), rows),
        "mvt.gzip_s": st.get("mvt.gzip", 0.0),
        "mvt.raw_mb": c("mvt.raw_bytes", 0) / 1e6,
        "sinks.write_s": st.get("sinks.write", 0.0),
        "sinks.tiles": c("sinks.tiles", 0),
        "incremental.delta_s": st.get("incremental.delta", 0.0),
        "incremental.delta_geom_s": st.get("incremental.delta_geom", 0.0),
        "incremental.reassemble_s": st.get("incremental.reassemble", 0.0),
        "incremental.retract_rows": c("incremental.retract_rows", 0),
        "incremental.insert_rows": c("incremental.insert_rows", 0),
        "incremental.touched_tiles": c("incremental.touched_tiles", 0),
        "incremental.rerender_share": _ratio(c("incremental.touched_tiles", 0),
                                             c("incremental.tiles", 0)),
        "osm.node_store_s": st.get("osm.node_store", 0.0),
        "osm.way_assembly_s": st.get("osm.way_assembly", 0.0),
        "osm.multipolygon_s": st.get("osm.multipolygon", 0.0),
        "osm.ways": c("osm.ways", 0),
    })
    return m


def traced_batch(workload: str, scale: str, seed: int, out: Outcome):
    import fixtures
    from compose import decode_pbf, osm_tiles, web_tiles
    from tilemaker_ray.stages.salted import data_num_partitions, dir_input_bytes
    tr = Tracer(workload)
    start_ray()
    if workload == "web_build":
        from tilemaker_ray.config import default_config
        from tilemaker_ray.sinks.mbtiles import default_metadata, write_mbtiles
        src = fixtures.pages(scale, seed)
        ref = fixtures.web_reference(scale, seed)
        config = default_config()
        target = work_path("out", "web_build_traced.mbtiles")
        with tr.span("run"):
            tiles = web_tiles(src, config,
                              data_num_partitions(dir_input_bytes(src)), tr)
            with tr.span("sinks.write"):
                tr.count("sinks.tiles", write_mbtiles(
                    target, frame_rows(tiles), default_metadata(config)))
        got = tile_digest(frame_rows(tiles))
    elif workload == "osm_build":
        from tilemaker_ray.pipelines.osm import osm_config
        path, _ = fixtures.pbf(scale, seed)
        # its own pass, outside "run": see compose.decode_pbf
        decode_pbf(path, tr)
        with tr.span("run"):
            tiles = osm_tiles(path, osm_config(),
                              data_num_partitions(dir_input_bytes(path)), tr)
        got = tile_digest(frame_rows(tiles))
        ref = fixtures.osm_reference(scale, seed)
    else:
        got, ref = _traced_recrawl(tr, scale, seed)
    out.record(check_digest(got, ref))
    # every span but osm_build's sources pass sits inside "run", so the
    # layer self times plus engine.overhead_s add up to this wall time
    return tr, layer_metrics(tr), {"wall_s": sum(tr.durations("run"))}


def _traced_recrawl(tr: Tracer, scale: str, seed: int):
    """incremental_update with spans around its calls into the delta
    classifier and the delta geometry store; its lazy result is consumed
    under incremental.reassemble."""
    import fixtures
    from compose import traced_calls
    from tilemaker_ray.ops import web
    from tilemaker_ray.pipelines import incremental
    from tilemaker_ray.stages.salted import data_num_partitions
    old = fixtures.pages(scale, seed)
    new = fixtures.recrawl_pages(scale, seed)
    ref = fixtures.recrawl_reference(scale, seed)
    store = incremental.geom_store(old).materialize()
    old_tiles = incremental.assemble_tiles(
        store, data_num_partitions()).materialize()

    stats: dict = {}
    with traced_calls(tr, web, {"crawl_delta_ds": "incremental.delta"}), \
            traced_calls(tr, incremental,
                         {"geom_store": "incremental.delta_geom"}):
        with tr.span("run"):
            tiles, _ = incremental.incremental_update(old, new, store,
                                                      old_tiles, stats=stats)
            with tr.span("incremental.reassemble"):
                got = tile_digest(dataset_rows(tiles))
    tr.count("incremental.retract_rows", stats.get("n_retract", 0))
    tr.count("incremental.insert_rows", stats.get("n_insert", 0))
    tr.count("incremental.touched_tiles", stats.get("touched_tiles", 0))
    tr.count("incremental.tiles", got[1])
    return got, ref


def traced_serve(scale: str, seed: int, seconds: float, rate: float,
                 out: Outcome):
    from tilemaker_ray.serve import MbtilesBackend
    container, tiles, trace, probe = serve_inputs(scale, seed)
    tr = Tracer("tile_serve")
    backend = MbtilesBackend(container)
    for key in trace[:2000]:
        with tr.span("serve.backend"):
            backend.get_tile(*key)
    srv, _ = start_server(container, probe)
    try:
        with rotating(srv.proc.pid) as rot, no_gc_pauses():
            done, hits_c = closed_loop(srv.port, trace, tiles,
                                       seconds * CLOSED_SHARE, out, rot, tr)
            lat, late, hits_o = open_loop(srv.port, trace, tiles,
                                          seconds * (1 - CLOSED_SHARE), rate,
                                          len(done), out, rot)
    finally:
        srv.stop()
    backend_s = median(tr.durations("serve.backend"))
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "serve.backend_us": 1e6 * backend_s,
        "serve.http_us": 1e6 * (median(tr.durations("serve.request"))
                                - backend_s),
        "serve.hit_ratio": _ratio(hits_c + hits_o, len(done) + len(lat)),
        "loadgen.late_ms": 1e3 * percentile(late, 0.99),
    })
    return tr, m, {}


# --- command line ----------------------------------------------------------------

def _print_metrics(workload: str, metrics: dict, units: dict) -> None:
    for name, (value, n) in metrics.items():
        alias = SERVE_ALIASES.get(name) if workload == "tile_serve" else None
        label = f"{name} ({alias})" if alias else name
        print(f"metric {workload} {label} = {value:.6g} {units[name]} "
              f"(samples: {n})")


def at_reference_speed(metrics: dict, speeds: list[float],
                       info: dict) -> dict:
    factor = REF_SPEED / (sum(speeds) / len(speeds))
    info["cpu_speed"] = speeds
    info["raw"] = {k: metrics[k][0] for k in SPEED_POWER}
    return {k: (v * factor ** SPEED_POWER[k], n) if k in SPEED_POWER
            else (v, n) for k, (v, n) in metrics.items()}


def run_one(args) -> int:
    out = Outcome()
    info = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace}
    speeds: list[float] = []
    try:
        # fixtures are built in a child process, so what generating them
        # leaves in this process's heap never counts in peak_rss_mb
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "fixtures.py"),
                        args.workload, args.scale, str(args.seed)],
                       check=True, stdout=subprocess.DEVNULL)
        info["env"] = environment()
        if args.trace:
            if args.workload == "tile_serve":
                tr, layer, extra = traced_serve(args.scale, args.seed,
                                                args.seconds, args.serve_rate,
                                                out)
            else:
                tr, layer, extra = traced_batch(args.workload, args.scale,
                                                args.seed, out)
            tr.write(work_path("trace", f"{args.workload}-s{args.seed}.json"))
            info.update(extra)
            metrics = {k: (v, 1) for k, v in layer.items()}
            units = PER_LAYER
        else:
            speeds.append(cpu_speed())
            if args.workload == "tile_serve":
                metrics, extra = e2e_tile_serve(args.scale, args.seed,
                                                args.seconds, out,
                                                args.serve_rate)
            else:
                fn = {"web_build": e2e_web_build,
                      "web_recrawl": e2e_web_recrawl,
                      "osm_build": e2e_osm_build}[args.workload]
                metrics, extra = fn(args.scale, args.seed, args.seconds, out)
            info["inputs"] = extra
            units = END_TO_END
    finally:
        stop_ray()
        stop_descendants()
    if speeds:
        # after every process of the workload has ended
        speeds.append(cpu_speed())
        metrics = at_reference_speed(metrics, speeds, info)
    info["problems"] = out.problems[:20]
    info["error_rate"] = _ratio(out.failed, out.attempted)
    print("info " + json.dumps(info, default=str))
    _print_metrics(args.workload, metrics, units)
    correct = out.wrong == 0 and out.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, _) in metrics.items()}}), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; exits non-zero if any fails."""
    worst = 0
    summary = {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--serve-rate", str(args.serve_rate)]
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, p.returncode)
        try:
            summary[w] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[w] = {"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}
            worst = max(worst, 1)
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items()
                    for k, v in r["metrics"].items()}}), flush=True)
    return worst


def _on_alarm(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-test")
    ap.add_argument("--serve-rate", type=float, default=250.0,
                    help="tile_serve open-loop requests per second")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "tilemaker_ray")):
        print(f"perfbench: no tilemaker_ray package under {ROOT}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if num_cpus() < 3:
        # the default extractor pools hold every CPU at <= 2 and the
        # pipelines deadlock
        print(f"perfbench: needs at least 3 CPUs, affinity gives "
              f"{num_cpus()}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)

    import shutil
    shutil.rmtree(os.path.join(ROOT, ".bench_build", "ray"),
                  ignore_errors=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    os.environ.update({
        "RAY_USAGE_STATS_ENABLED": "0",
        "TMPDIR": work_path("tmp", "."),
        # Ray workers import the engine (and nothing of ours) from here
        "PYTHONPATH": os.pathsep.join(
            [ROOT, BENCH_DIR] + [p for p in
                                 os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                 if p]),
    })
    sys.path.insert(0, ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(int(DEADLINE_S) + 5)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
