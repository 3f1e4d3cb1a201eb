"""Shared pieces of the benchmark: paths, span tracer, tile digests,
peak-RSS sampling, child-process cleanup and starting Ray.

Nothing here imports the engine, so the benchmark can report a clean
error when it is run outside a checkout of the repository."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import select
import signal
import struct
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# every file the benchmark writes lives under here (ignored by git)
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def work_path(*parts: str) -> str:
    p = os.path.join(WORK_DIR, *parts)
    os.makedirs(os.path.dirname(p), exist_ok=True)
    return p


# --- spans -----------------------------------------------------------------

class Tracer:
    """In-memory spans (name, start, end, parent, workload) plus counts
    recorded at the same layer boundaries.  Spans nest by call order on
    one thread; a span's self time is its duration minus its children's."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + s["end"] - s["start"] - child[s["id"]])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"workload": self.workload, "spans": self.spans,
                       "counts": self.counts}, f)


class NullTracer(Tracer):
    """Tracing off: same interface, records nothing."""

    def __init__(self):
        super().__init__("")

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


# --- tile output checks ----------------------------------------------------

def tile_digest(rows) -> tuple[str, int, int, int]:
    """rows: iterable of (zoom, x, y, blob).  Returns (sha256 over the
    sorted (z, x, y, sha256(blob)) list, tiles, total blob bytes,
    duplicate (z, x, y) keys)."""
    entries = [(int(z), int(x), int(y), hashlib.sha256(b).digest(), len(b))
               for z, x, y, b in rows]
    entries.sort()
    h = hashlib.sha256()
    dups = 0
    prev = None
    for z, x, y, d, _ in entries:
        if (z, x, y) == prev:
            dups += 1
        prev = (z, x, y)
        h.update(struct.pack("<BII", z, x, y))
        h.update(d)
    return h.hexdigest(), len(entries), sum(e[4] for e in entries), dups


def frame_rows(df):
    return zip(df["zoom"], df["tile_x"], df["tile_y"], df["mvt"])


def dataset_rows(ds):
    """Stream a tile Dataset's (zoom, x, y, mvt) rows to the driver."""
    for b in ds.iter_batches(batch_format="pandas", batch_size=4096):
        yield from frame_rows(b)


def check_digest(got: tuple, want: dict) -> list[str]:
    """Problems found comparing a tile_digest() result to the expected
    fixture record; empty when the output is correct."""
    digest, tiles, _nbytes, dups = got
    problems = []
    if dups:
        problems.append(f"{dups} duplicate (z,x,y) keys")
    if tiles != want["tiles"]:
        problems.append(f"{tiles} tiles, expected {want['tiles']}")
    if digest != want["digest"]:
        problems.append("tile digest differs from the in-process composition")
    return problems


# --- memory ----------------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _process_tree(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(d))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError):
        return 0


def tree_rss_bytes(root: int) -> int:
    return sum(_rss_bytes(pid) for pid in _process_tree(root))


class PeakRss:
    """Peak of the summed RSS of this process and all its descendants
    (Ray's head processes and workers, the tile server), sampled from
    /proc every 0.2 s.  The sampler is a separate process: a thread
    would hold this process's interpreter lock while it walks /proc and
    stall the load generator for milliseconds each time."""

    def __enter__(self):
        self.peak = 0
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        out, _ = self._proc.communicate("", timeout=30)
        self.peak = int(out)


def _sample_peak(root: int, interval: float = 0.2) -> int:
    """Sample until stdin closes; the sampler's own RSS is left out."""
    me = os.getpid()
    peak = 0
    while True:
        peak = max(peak, tree_rss_bytes(root) - _rss_bytes(me))
        if select.select([sys.stdin], [], [], interval)[0]:
            return peak


def stop_descendants(timeout: float = 10.0) -> None:
    """Terminate every process this one started (directly or not) and
    wait for each to end; reap our own zombies.  A process stays
    followed after its parent ends first: it is then re-parented out of
    our tree (Ray's agents outlived a killed raylet that way)."""
    me = os.getpid()
    deadline = time.monotonic() + timeout
    sig = signal.SIGTERM
    seen: dict[int, str | None] = {}
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        for p in _process_tree(me):
            if p != me and p not in seen:
                seen[p] = _start_time(p)
        # a start time that changed is a reused pid, not ours
        rest = [p for p, t in seen.items()
                if _alive(p) and _start_time(p) == t]
        if not rest:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for p in rest:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(p, sig)
        time.sleep(0.1)


def _start_time(pid: int) -> str | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    # field 22 of stat, counted after the ")" that ends the name
    return stat[stat.rindex(")") + 2:].split()[19]


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


# --- Ray -------------------------------------------------------------------

def num_cpus() -> int:
    # the affinity mask, not nproc: OMP_NUM_THREADS=1 makes nproc print 1
    return len(os.sched_getaffinity(0))


def start_ray() -> None:
    import logging

    import ray
    from ray.data import DataContext
    temp = os.path.join(ROOT, ".bench_build", "ray")
    # Ray's socket paths (temp + ~61 chars) must fit AF_UNIX's 107
    # bytes; every Ray process runs in the checkout, so the
    # cwd-relative form names the same directory
    if len(temp) > 44:
        temp = "/proc/self/cwd/.bench_build/ray"
    ray.init(address="local", num_cpus=num_cpus(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, _temp_dir=temp)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    import ray
    if ray.is_initialized():
        ray.shutdown()


# --- host speed ------------------------------------------------------------

def cpu_speed(per_cpu: float = 0.25) -> float:
    """Iterations per second of a fixed pure-Python loop, run for
    `per_cpu` s on each CPU of the affinity mask in turn."""
    cpus = os.sched_getaffinity(0)
    n = 0
    t0 = time.perf_counter()
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            t = time.perf_counter()
            while time.perf_counter() - t < per_cpu:
                s = 0
                for i in range(2000):
                    s += i * i % 7
                n += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return n / (time.perf_counter() - t0)


# --- statistics ------------------------------------------------------------

def percentile(xs, q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    s = sorted(xs)
    k = min(len(s) - 1, max(0, int(q * len(s) + 0.5) - 1))
    return s[k]


if __name__ == "__main__":
    print(_sample_peak(int(sys.argv[1])))
