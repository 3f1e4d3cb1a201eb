"""Multi-node parity check for the flagship pipeline.

The north rule runs the engine on a fixed-size MULTI-node Ray cluster;
this sandbox has one machine, but `ray.cluster_utils.Cluster` boots a
real multi-node Ray control plane locally (one raylet + object store
per node, objects transferred over the wire between them).  This
script is the strongest multi-node evidence the sandbox allows:

  leg A  head node with 0 CPUs (driver only) + two worker nodes with
         2 CPUs each -> every task/actor is scheduled OFF the driver
         node, the stage-B groupby shuffle crosses nodes, and the
         final iter_batches pulls MVT blobs across the object-store
         wire back to the head.
  leg B  plain single-node `ray.init(address="local")`.

Both legs run the identical flagship build (pages fixture, 2 extractor
actors) and must produce byte-identical tiles: the per-tile MD5 of the
MVT blob is compared for every (zoom, x, y).  Exit 0 + "PARITY OK"
only if the tile sets AND the bytes match exactly.

Run:  python scripts/multinode_check.py [n_rows]
Invoked as a subprocess by tests/test_multinode.py (a fresh process is
required because the pytest session owns its own single-node Ray).
"""
from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _collect() -> dict:
    """Run the flagship over the shared fixture in the CURRENT Ray
    session and return {(z, x, y): md5(mvt)}."""
    from ray.data import DataContext

    from tilemaker_ray.pipelines.flagship import tile_dataset
    from tilemaker_ray.sources.pages import pages_path

    DataContext.get_current().enable_progress_bars = False
    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    d = pages_path(n_rows)
    out = {}
    tiles = tile_dataset(d)
    for b in tiles.iter_batches(batch_format="pandas", batch_size=4096):
        for z, x, y, m in zip(b["zoom"], b["tile_x"], b["tile_y"], b["mvt"]):
            out[(int(z), int(x), int(y))] = hashlib.md5(bytes(m)).hexdigest()
    return out


def leg_multinode() -> tuple[dict, int]:
    import ray
    from ray.cluster_utils import Cluster

    cluster = Cluster(
        initialize_head=True,
        head_node_args={"num_cpus": 0, "include_dashboard": False,
                        "object_store_memory": 1 << 30})
    for _ in range(2):
        cluster.add_node(num_cpus=2, object_store_memory=1 << 30)
    ray.init(address=cluster.address, include_dashboard=False,
             logging_level="ERROR")
    try:
        alive = [n for n in ray.nodes() if n["Alive"]]
        assert len(alive) == 3, f"expected 3 alive nodes, got {len(alive)}"
        # the head has 0 CPUs: every task/actor must land on a worker
        assert sum(int(n["Resources"].get("CPU", 0)) for n in alive) == 4
        tiles = _collect()
    finally:
        ray.shutdown()
        cluster.shutdown()
    return tiles, len(alive)


def leg_single() -> dict:
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    try:
        return _collect()
    finally:
        ray.shutdown()


def main() -> int:
    multi, n_nodes = leg_multinode()
    single = leg_single()
    if not multi:
        print("FAIL: multi-node leg produced zero tiles")
        return 1
    missing = set(single) ^ set(multi)
    if missing:
        print(f"FAIL: tile-set mismatch on {len(missing)} keys "
              f"(e.g. {sorted(missing)[:5]})")
        return 1
    diff = [k for k in single if single[k] != multi[k]]
    if diff:
        print(f"FAIL: byte mismatch on {len(diff)} tiles "
              f"(e.g. {sorted(diff)[:5]})")
        return 1
    print(f"PARITY OK nodes={n_nodes} tiles={len(multi)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
