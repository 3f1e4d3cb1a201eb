"""Seeded benchmark inputs and the reference outputs they are checked
against.  Everything is generated once per (scale, seed, engine source)
into the work directory and reused, so generation stays out of every
timing.

    python3 perfbench/fixtures.py <workload> <scale> <seed>

builds (once) the inputs and references of one workload."""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os

import numpy as np

from common import NullTracer, ROOT, frame_rows, tile_digest, work_path

# Input sizes.  "full" is what the benchmark measures: each batch run
# takes ~3-7 s on 4 cores, so one run window holds several runs and a
# whole benchmark invocation stays well inside its time limit.  "tiny"
# is the self-test's size.
SCALES = {
    "full": {"pages": 1600, "osm_nodes": 24_000, "osm_ways": 1200,
             "osm_rels": 30},
    "tiny": {"pages": 320, "osm_nodes": 4000, "osm_ways": 200,
             "osm_rels": 10},
}
# pages are written as this many parquet files, so the read, extract
# and geometry stages have parallel work as a crawl's many files give
PAGE_FILES = 8
# every 37th page changes between the snapshots (~2.7% churn)
RECRAWL_EVERY = 37
TRACE_REQUESTS = 50_000
MISS_SHARE = 0.10
ZIPF_S = 1.0


@functools.lru_cache(maxsize=None)
def source_hash() -> str:
    """Hash of the code that makes the inputs and the references: the
    engine, the PBF synthesizer and this benchmark.  It is part of every
    cache key, so a change to any of them rebuilds what it would change."""
    files = sorted(glob.glob(os.path.join(ROOT, "tilemaker_ray", "**", "*.py"),
                             recursive=True)
                   + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                   + [os.path.join(ROOT, "scripts", "synth_pbf.py")])
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def _cache(scale: str, seed: int, name: str) -> str:
    sizes = "-".join(str(v) for v in [*SCALES[scale].values(), PAGE_FILES])
    return work_path("cache", f"{scale}-{sizes}-s{seed}-{source_hash()}",
                     name)


def _load_json(path: str):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return None


def _save_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _split(src: str, d: str) -> str:
    """Write-once copy of the parquet directory `src` as PAGE_FILES
    files of consecutive rows."""
    import pyarrow.parquet as pq
    if not os.path.exists(os.path.join(d, "_DONE")):
        os.makedirs(d, exist_ok=True)
        table = pq.read_table(src)
        step = -(-table.num_rows // PAGE_FILES)
        for k in range(PAGE_FILES):
            pq.write_table(table.slice(k * step, step),
                           os.path.join(d, f"part-{k:03d}.parquet"))
        open(os.path.join(d, "_DONE"), "w").close()
    return d


def pages(scale: str, seed: int) -> str:
    """The seed's crawl (sources.pages.pages_path)."""
    from tilemaker_ray.sources.pages import pages_path
    n = SCALES[scale]["pages"]
    return _split(pages_path(n, seed, root=_cache(scale, seed, "gen")),
                  _cache(scale, seed, "pages"))


def recrawl_pages(scale: str, seed: int) -> str:
    """The next crawl of pages() (sources.pages.small_delta_pages_path):
    every RECRAWL_EVERY-th page's text changed, every other page
    byte-identical."""
    from tilemaker_ray.sources.pages import small_delta_pages_path
    n = SCALES[scale]["pages"]
    return _split(small_delta_pages_path(n, seed, every=RECRAWL_EVERY,
                                         root=_cache(scale, seed, "gen")),
                  _cache(scale, seed, "recrawl_pages"))


def pbf(scale: str, seed: int) -> tuple[str, dict]:
    """(path, entity counts) of a seeded synthetic .osm.pbf."""
    path = _cache(scale, seed, "synth.osm.pbf")
    meta_path = path + ".json"
    counts = _load_json(meta_path)
    if counts is None or not os.path.exists(path):
        import sys
        sys.path.insert(0, os.path.join(ROOT, "scripts"))
        from synth_pbf import synthesize
        s = SCALES[scale]
        counts = synthesize(path, s["osm_nodes"], s["osm_ways"],
                            n_rels=s["osm_rels"], seed=seed)
        _save_json(meta_path, counts)
    return path, counts


def _reference(path: str, make_tiles) -> dict:
    """Digest record of a reference tile set, built once.  Every tile
    must gunzip and decode as an MVT before the record is kept."""
    ref = _load_json(path)
    if ref is not None:
        return ref
    from tilemaker_ray import mvt
    tiles = make_tiles()
    for blob in tiles["mvt"]:
        mvt.decode_tile(mvt.decompress_tile(blob))
    digest, n, nbytes, dups = tile_digest(frame_rows(tiles))
    if dups:
        raise RuntimeError(f"reference tile set has {dups} duplicate keys")
    ref = {"digest": digest, "tiles": n, "bytes": nbytes}
    _save_json(path, ref)
    return ref


# reference exchange width: tile bytes do not depend on it
_REF_PARTS = 64


def web_reference(scale: str, seed: int) -> dict:
    from tilemaker_ray.config import default_config
    from compose import web_tiles
    src = pages(scale, seed)
    return _reference(_cache(scale, seed, "web_ref.json"),
                      lambda: web_tiles(src, default_config(), _REF_PARTS,
                                        NullTracer()))


def recrawl_reference(scale: str, seed: int) -> dict:
    from tilemaker_ray.config import default_config
    from compose import web_tiles
    src = recrawl_pages(scale, seed)
    return _reference(_cache(scale, seed, "recrawl_ref.json"),
                      lambda: web_tiles(src, default_config(), _REF_PARTS,
                                        NullTracer()))


def osm_reference(scale: str, seed: int) -> dict:
    """Needs a running Ray session: the OSM source chain runs on Ray."""
    from tilemaker_ray.pipelines.osm import osm_config
    from compose import osm_tiles
    path, _ = pbf(scale, seed)
    return _reference(_cache(scale, seed, "osm_ref.json"),
                      lambda: osm_tiles(path, osm_config(), _REF_PARTS,
                                        NullTracer()))


def web_container(scale: str, seed: int) -> str:
    """The .mbtiles of web_build's input, written by the sink from the
    reference composition — what tile_serve serves."""
    path = _cache(scale, seed, "web.mbtiles")
    if os.path.exists(path):
        return path
    from tilemaker_ray.config import default_config
    from tilemaker_ray.sinks.mbtiles import default_metadata, write_mbtiles
    from compose import web_tiles
    config = default_config()
    tiles = web_tiles(pages(scale, seed), config, _REF_PARTS, NullTracer())
    tmp = path + ".tmp"
    write_mbtiles(tmp, frame_rows(tiles), default_metadata(config))
    os.replace(tmp, path)
    return path


def container_tiles(path: str) -> dict[tuple[int, int, int], bytes]:
    from tilemaker_ray.sinks.mbtiles import read_mbtiles
    return read_mbtiles(path)


def request_trace(tiles: dict, seed: int,
                  n: int = TRACE_REQUESTS) -> list[tuple[int, int, int]]:
    """Seeded tile keys: a Zipf(ZIPF_S) over the tile set in a seeded
    popularity order, with MISS_SHARE keys that are not in the set."""
    rng = np.random.default_rng(seed ^ 0x5EED_7115)
    keys = sorted(tiles)
    order = rng.permutation(len(keys))
    w = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_S
    hits = order[rng.choice(len(keys), size=n, p=w / w.sum())]
    miss = rng.random(n) < MISS_SHARE
    out = []
    for i in range(n):
        if miss[i]:
            while True:
                k = (14, int(rng.integers(0, 1 << 14)),
                     int(rng.integers(0, 1 << 14)))
                if k not in tiles:
                    break
            out.append(k)
        else:
            out.append(keys[hits[i]])
    return out


def prepare(workload: str, scale: str, seed: int) -> None:
    """Build (once) every input of the workload, and every reference
    that needs no Ray."""
    if workload == "web_build":
        web_reference(scale, seed)
    elif workload == "web_recrawl":
        pages(scale, seed)
        recrawl_reference(scale, seed)
    elif workload == "osm_build":
        # its reference needs Ray: run.py builds it after the timed runs
        pbf(scale, seed)
    else:
        web_container(scale, seed)


if __name__ == "__main__":
    import sys
    sys.path.insert(0, ROOT)
    prepare(sys.argv[1], sys.argv[2], int(sys.argv[3]))
