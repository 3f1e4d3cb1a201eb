"""A tile build on a Ray cluster of 1 or 2 CPUs must finish and give
the same tiles as the in-process tile chain (pipelines/chain.py
tiles_local) over the same features.

The input is the synthetic pages parquet, or the same pages written to
a .warc.gz, or a seeded synthetic .osm.pbf (scripts/synth_pbf.py), or
that PBF split blob by blob into two files (`osm2`). The
`resume` kind builds the parquet pages with run_resumable
(pipelines/resumable.py) and reads its tiles/pk*.parquet back. A
WARC build derives text and lang from html (flagship.derive_pages), so
its reference runs the same derivation in process over the parquet
pages. An OSM build (osm_tile_dataset) is compared with tiles_local
over the features osm_feature_dataset gives for the one-file PBF in the
same Ray session. The two-file build's ways reference nodes of the
other file, so its feature tasks read shards of one node store shared
across both files.

Every stage of the build runs as plain Ray tasks, the extractor and
the OSM node store included, so no stage holds a CPU for the whole
run: on one CPU the map tasks (read, extract, geometry, split) and the
reducers take turns on the core. An actor pool sized to the CPU count would hold
every CPU and leave none for the other stages, and the build would
wait forever; this check guards against that coming back.

Run:  python scripts/small_cpu_check.py <num_cpus> [n] [parquet|warc|osm|osm2|resume]
n is the page count (default 500), or for osm and osm2 the node count, with
n // 15 ways and n // 500 relations.
Prints "SMALL CPU OK cpus=<n> input=<kind> tiles=<k>" on success.
Invoked as a subprocess under a timeout by tests/test_small_cpu.py (the
pytest session owns its own 4-CPU Ray).
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


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
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 500
    kind = sys.argv[3] if len(sys.argv) > 3 else "parquet"
    if kind not in ("parquet", "warc", "osm", "osm2", "resume"):
        print(f"FAIL: unknown input kind {kind!r}")
        return 2
    got, expect = (osm_build(num_cpus, n, files=2 if kind == "osm2" else 1)
                   if kind.startswith("osm")
                   else pages_build(num_cpus, n, kind))
    if got.duplicated(subset=["zoom", "tile_x", "tile_y"]).any():
        print("FAIL: duplicate (zoom, x, y)")
        return 1
    if digest(frame_rows(got)) != digest(frame_rows(expect)):
        print(f"FAIL: digest mismatch ({len(got)} tiles vs {len(expect)})")
        return 1
    print(f"SMALL CPU OK cpus={num_cpus} input={kind} tiles={len(got)}")
    return 0


def start_ray(num_cpus: int) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=num_cpus,
             include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False


def pages_build(num_cpus: int, n_pages: int, kind: str):
    """(Ray tiles, tiles_local tiles) over n_pages pages: tile_dataset
    over the parquet pages or their WARC, or run_resumable's tiles."""
    import glob

    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from tilemaker_ray.config import default_config
    from tilemaker_ray.pipelines.chain import tiles_local
    from tilemaker_ray.pipelines.flagship import derive_pages, tile_dataset
    from tilemaker_ray.pipelines.resumable import run_resumable
    from tilemaker_ray.sources.pages import pages_path
    from tilemaker_ray.sources.warc import write_warc
    from tilemaker_ray.stages.extract import PageFeatureExtractor

    config = default_config()
    pages = pages_path(n_pages)
    raw = pq.read_table(pages)
    table = (derive_pages(raw.select(["url", "warc_ts", "html"]))
             if kind == "warc" else raw)
    feats = PageFeatureExtractor(known_layers={l.name for l in config.layers})(
        table.select(["url", "html", "text", "lang"]))
    local = tiles_local(feats, config)

    with tempfile.TemporaryDirectory() as tmp:
        src = pages
        if kind == "warc":
            src = os.path.join(tmp, "crawl.warc.gz")
            write_warc(raw, src)
        start_ray(num_cpus)
        try:
            if kind == "resume":
                out = os.path.join(tmp, "out")
                run_resumable(pages, out)
                got = pd.concat(
                    [pd.read_parquet(f) for f in
                     glob.glob(os.path.join(out, "tiles", "*.parquet"))],
                    ignore_index=True)
            else:
                got = tile_dataset(src).to_pandas()
        finally:
            ray.shutdown()
    return got, local


def osm_build(num_cpus: int, n_nodes: int, files: int = 1):
    """(Ray osm_tile_dataset tiles, tiles_local tiles over the features
    of the one-file PBF from the same run) for a seeded synthetic PBF of
    n_nodes nodes, read as one file or, at files=2, split into two."""
    import pyarrow as pa
    import ray

    from synth_pbf import split_pbf, synthesize
    from tilemaker_ray.pipelines.chain import tiles_local
    from tilemaker_ray.pipelines.osm import (osm_config, osm_feature_dataset,
                                             osm_tile_dataset)

    config = osm_config()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "synth.osm.pbf")
        synthesize(path, n_nodes=n_nodes, n_ways=n_nodes // 15,
                   n_rels=n_nodes // 500, block_entities=2000, seed=7)
        src = path
        if files == 2:
            src = [os.path.join(tmp, f) for f in ("a.osm.pbf", "b.osm.pbf")]
            split_pbf(path, *src)
        start_ray(num_cpus)
        try:
            got = osm_tile_dataset(src, config).to_pandas()
            feats = pa.concat_tables(list(osm_feature_dataset(path, config)
                                          .iter_batches(batch_format="pyarrow")))
        finally:
            ray.shutdown()
    return got, tiles_local(feats, config)


if __name__ == "__main__":
    sys.exit(main())
