"""Streaming/backpressure evidence: the flagship pipeline must
complete — byte-identically — when the object store is too small to
hold its intermediates, proving no stage materializes the dataset in
plasma and the streaming executor degrades to disk spill instead of
OOM (the north rule's "streaming execution so no stage materializes
the full dataset", executed rather than designed-for).

  leg A  `object_store_memory` squeezed to ~100 MB (near Ray's
         floor) — the stage-B exchange and the MVT collation overflow
         it, so Ray MUST spill to disk to finish; the run fails if no
         spilling was observed (i.e. if the leg proved nothing).
  leg B  normal 1 GB store, same input.

Both legs build the same pages fixture and must produce byte-identical
per-tile MVT MD5s.

Run:  python scripts/spill_check.py [n_rows]
Invoked as a subprocess by tests/test_multinode.py (fresh process
required; the pytest session owns its own Ray).
"""
from __future__ import annotations

import hashlib
import os
import re
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SMALL_STORE = 100 * 1024 * 1024
NORMAL_STORE = 1 << 30


def _collect() -> tuple[dict, float]:
    from ray.data import DataContext

    from tilemaker_ray.pipelines.flagship import tile_dataset
    from tilemaker_ray.sources.pages import pages_path

    DataContext.get_current().enable_progress_bars = False
    # 60k pages: measured 73 MiB actually spilled against the 100 MiB
    # store (20k fits without spilling and proves nothing)
    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 60_000
    d = pages_path(n_rows)
    out = {}
    # sample the spill directory from before tile_dataset() is called
    # until the last tile is read (ADVICE r4: Ray deletes spilled files
    # as consumed objects are freed, so a post-run listing is
    # timing-dependent): the exchange runs, and spills, inside
    # tile_dataset() itself — track the running max
    peak = [0.0]
    done = threading.Event()

    def sample():
        while not done.is_set():
            peak[0] = max(peak[0], _spilled_mb())
            done.wait(0.05)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        tiles = tile_dataset(d)
        for b in tiles.iter_batches(batch_format="pandas", batch_size=4096):
            for z, x, y, m in zip(b["zoom"], b["tile_x"], b["tile_y"],
                                  b["mvt"]):
                out[(int(z), int(x), int(y))] = \
                    hashlib.md5(bytes(m)).hexdigest()
    finally:
        done.set()
        sampler.join()
    return out, max(peak[0], _spilled_mb())


def _spilled_mb() -> float:
    """Bytes written to this session's disk-spill directory (the
    memory_summary API needs grpc, which this sandbox lacks — the
    spill files themselves are the ground truth anyway). Ray deletes
    spill files while this runs; one gone between the listing and its
    size counts as zero."""
    import glob

    import ray._private.worker as w
    d = w._global_node.get_session_dir_path()
    total = 0
    for f in glob.glob(os.path.join(d, "ray_spilled_objects*", "*")):
        try:
            total += os.path.getsize(f)
        except FileNotFoundError:
            continue
    return total / (1024 * 1024)


def leg(store_bytes: int) -> tuple[dict, float]:
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             object_store_memory=store_bytes, logging_level="ERROR")
    try:
        return _collect()
    finally:
        ray.shutdown()


def main() -> int:
    squeezed, spilled = leg(SMALL_STORE)
    normal, _ = leg(NORMAL_STORE)
    if not squeezed:
        print("FAIL: squeezed leg produced zero tiles")
        return 1
    if spilled <= 0:
        print("FAIL: squeezed leg never spilled — store too large to "
              "prove streaming (raise n_rows or shrink SMALL_STORE)")
        return 1
    missing = set(normal) ^ set(squeezed)
    if missing:
        print(f"FAIL: tile-set mismatch on {len(missing)} keys "
              f"(e.g. {sorted(missing)[:5]})")
        return 1
    diff = [k for k in normal if normal[k] != squeezed[k]]
    if diff:
        print(f"FAIL: byte mismatch on {len(diff)} tiles "
              f"(e.g. {sorted(diff)[:5]})")
        return 1
    print(f"SPILL PARITY OK tiles={len(squeezed)} spilled_mb={spilled:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
