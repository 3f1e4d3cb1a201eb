"""Node-loss-mid-shuffle check: kill a whole worker NODE, same tiles.

The hardest failure the north rule names: a node dies while the
all-to-all shuffle is in flight.  This script boots a 3-node local
cluster (driver-only head + two 2-CPU workers), starts the flagship
build, and tears down one worker node (raylet + its object store +
every task and shuffle block on it) two seconds into execution.
The build runs as plain Ray tasks, so no actor has to be restarted:
Ray re-runs the lost tasks on the surviving worker and reconstructs
lost blocks from lineage; the build must finish with tiles
byte-identical to a clean single-node run.

Exit 0 + "NODELOSS OK" only if the node was removed while the run was
still in flight AND the bytes match.

Run:  python scripts/node_loss_check.py [n_rows]
Invoked as a subprocess by tests/test_multinode.py.
"""
from __future__ import annotations

import hashlib
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _collect(n_rows: int) -> dict:
    from ray.data import DataContext

    from tilemaker_ray.pipelines.flagship import tile_dataset
    from tilemaker_ray.sources.pages import pages_path

    DataContext.get_current().enable_progress_bars = False
    out = {}
    tiles = tile_dataset(pages_path(n_rows))
    for b in tiles.iter_batches(batch_format="pandas", batch_size=4096):
        for z, x, y, m in zip(b["zoom"], b["tile_x"], b["tile_y"], b["mvt"]):
            out[(int(z), int(x), int(y))] = hashlib.md5(bytes(m)).hexdigest()
    return out


def main() -> int:
    import ray
    from ray.cluster_utils import Cluster

    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 6000

    # clean single-node reference
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    try:
        clean = _collect(n_rows)
    finally:
        ray.shutdown()

    # multi-node run with a worker node torn down mid-flight
    cluster = Cluster(
        initialize_head=True,
        head_node_args={"num_cpus": 0, "include_dashboard": False,
                        "object_store_memory": 1 << 30})
    workers = [cluster.add_node(num_cpus=2, object_store_memory=1 << 30)
               for _ in range(2)]
    ray.init(address=cluster.address, include_dashboard=False,
             logging_level="ERROR")
    # the driver attaches to one of this host's raylets, possibly a
    # worker's, and Cluster refuses to remove that node: kill the other
    driver_raylet = ray._private.worker.global_worker.node._raylet_socket_name
    victim = next(w for w in workers
                  if w._raylet_socket_name != driver_raylet)
    state = {"done": False, "killed_at": None}

    def assassin():
        time.sleep(2.0)
        if not state["done"]:
            cluster.remove_node(victim, allow_graceful=False)
            state["killed_at"] = time.time()

    t0 = time.time()
    th = threading.Thread(target=assassin, daemon=True)
    th.start()
    try:
        survived = _collect(n_rows)
        state["done"] = True
        th.join(timeout=30)
    finally:
        ray.shutdown()
        cluster.shutdown()

    if state["killed_at"] is None:
        print("FAIL: run finished before the node kill — raise n_rows")
        return 1
    if not survived:
        print("FAIL: node-loss leg produced zero tiles")
        return 1
    if set(clean) != set(survived):
        print(f"FAIL: tile-set mismatch "
              f"({len(set(clean) ^ set(survived))} keys differ)")
        return 1
    diff = [k for k in clean if clean[k] != survived[k]]
    if diff:
        print(f"FAIL: byte mismatch on {len(diff)} tiles")
        return 1
    print(f"NODELOSS OK tiles={len(clean)} "
          f"(node killed at t+{state['killed_at'] - t0:.1f}s, "
          f"run finished at t+{time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
