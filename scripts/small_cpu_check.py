"""The flagship build on a Ray cluster of 1 or 2 CPUs must finish and
give the same tiles as the in-process tile chain (pipelines/chain.py
tiles_local) over the same pages.

The extractor actor pool is sized from the CPU count; a pool that holds
every CPU leaves none for the read, geometry and exchange tasks, and the
build waits forever.

Run:  python scripts/small_cpu_check.py <num_cpus> [n_pages]
Prints "SMALL CPU OK cpus=<n> tiles=<k>" on success. Invoked as a
subprocess under a timeout by tests/test_small_cpu.py (the pytest
session owns its own 4-CPU Ray).
"""
from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def digest(rows) -> str:
    h = hashlib.sha256()
    for z, x, y, blob in sorted(rows):
        h.update(b"%d/%d/%d:" % (z, x, y))
        h.update(hashlib.sha256(bytes(blob)).digest())
    return h.hexdigest()


def frame_rows(df):
    return zip(df["zoom"].astype(int), df["tile_x"].astype(int),
               df["tile_y"].astype(int), df["mvt"])


def main() -> int:
    num_cpus = int(sys.argv[1])
    n_pages = int(sys.argv[2]) if len(sys.argv) > 2 else 500

    import pyarrow.parquet as pq
    import ray
    from ray.data import DataContext

    from tilemaker_ray.config import default_config
    from tilemaker_ray.pipelines.chain import tiles_local
    from tilemaker_ray.pipelines.flagship import tile_dataset
    from tilemaker_ray.sources.pages import pages_path
    from tilemaker_ray.stages.extract import PageFeatureExtractor

    config = default_config()
    pages = pages_path(n_pages)
    feats = PageFeatureExtractor(known_layers={l.name for l in config.layers})(
        pq.read_table(pages, columns=["url", "html", "text", "lang"]))
    local = tiles_local(feats, config)
    expect = digest(frame_rows(local))

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    try:
        DataContext.get_current().enable_progress_bars = False
        got = tile_dataset(pages).to_pandas()
    finally:
        ray.shutdown()
    if got.duplicated(subset=["zoom", "tile_x", "tile_y"]).any():
        print("FAIL: duplicate (zoom, x, y)")
        return 1
    if digest(frame_rows(got)) != expect:
        print(f"FAIL: digest mismatch ({len(got)} tiles vs {len(local)})")
        return 1
    print(f"SMALL CPU OK cpus={num_cpus} tiles={len(got)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
