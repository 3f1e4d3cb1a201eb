"""CLI — the reference UX (`tilemaker --input X --output Y --config Z`,
options_parser.cpp:18-46) on the Ray Data engine:

    python -m tilemaker_ray --input monaco.osm.pbf --output tiles.mbtiles
    python -m tilemaker_ray --input pages_dir/ --output tiles.pmtiles --joins
    python -m tilemaker_ray --input pages_dir/ --output tiles_dir/ --resume

Input is a .osm.pbf file, a .warc[.gz] crawl archive (text + lang are
derived on the fly — sources/warc.py), OR a directory of web-page
parquet. Output
container chosen by extension (.mbtiles / .pmtiles / directory of
z/x/y .pbf). Reference flags without a Ray-side meaning (--store,
--compact, --shard-stores, node compression) are accepted and ignored
with a note — the object store replaces the memory-management knobs
(SURVEY §7.5).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tilemaker_ray",
        description="Convert .osm.pbf or web-page parquet into vector tiles")
    ap.add_argument("positional", nargs="*", default=[],
                    help="positional [input] [output] (reference "
                         "options_parser.cpp positional form)")
    ap.add_argument("--input", action="append", default=None,
                    help="source .osm.pbf file (repeatable — entity "
                         "streams union through one shared node store, "
                         "the reference multi-input semantics), a "
                         ".warc[.gz] crawl, or a pages parquet directory")
    ap.add_argument("--output", default=None,
                    help="target directory or .mbtiles/.pmtiles file")
    ap.add_argument("--config", default="",
                    help="layer config JSON (default: built-in schema)")
    ap.add_argument("--profile", default="",
                    choices=["", "mini", "openmaptiles"],
                    help="pbf tag-processing profile (default mini; "
                         "'openmaptiles' = the full OpenMapTiles schema, "
                         "the reference's process-openmaptiles.lua)")
    ap.add_argument("--process", default="",
                    help="tag-processing Lua file (reference flag): "
                         "executed directly by the built-in Lua-subset "
                         "interpreter (tilemaker_ray/lua.py) — the "
                         "reference's shipped profiles run unmodified; "
                         "see PROFILES.md for the language contract")
    ap.add_argument("--bbox", default="", help="minlon,minlat,maxlon,maxlat")
    ap.add_argument("--merge", action="store_true",
                    help="merge with existing .mbtiles (overwrites otherwise)")
    ap.add_argument("--joins", action="store_true",
                    help="enable the broadcast spatial-join stage (web input)")
    ap.add_argument("--resume", action="store_true",
                    help="resumable run with checkpoint manifest (dir output)")
    ap.add_argument("--threads", type=int, default=0,
                    help="Ray CPUs (0 = all available)")
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("--verbose", action="store_true")
    # accepted-but-inert reference flags (memory knobs the object store replaces)
    for flag in ("--store", "--fast", "--compact", "--no-compress-nodes",
                 "--no-compress-ways", "--materialize-geometries",
                 "--shard-stores", "--skip-integrity", "--log-tile-timings"):
        ap.add_argument(flag, nargs="?", const=True, default=None,
                        help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # positional input/output (reference: p.add("input",1).add("output",1))
    pos = list(args.positional)
    if args.input is None and pos:
        args.input = [pos.pop(0)]
    if args.output is None and pos:
        args.output = pos.pop(0)
    if args.input is None or args.output is None:
        print("error: --input and --output are required (flags or "
              "positional)", file=sys.stderr)
        return 2
    if args.process and not os.path.exists(args.process):
        print(f"error: Lua profile not found: {args.process}",
              file=sys.stderr)
        return 2
    inputs = args.input
    for p in inputs:
        if not os.path.exists(p):
            print(f"error: input not found: {p}", file=sys.stderr)
            return 2
        if (not p.endswith((".pbf", ".warc", ".warc.gz"))
                and not os.path.isdir(p)):
            print(f"error: input must be a .osm.pbf file, a .warc[.gz] "
                  f"crawl, or a parquet directory: {p}", file=sys.stderr)
            return 2
    if len(inputs) > 1 and not all(p.endswith(".pbf") for p in inputs):
        print("error: multiple --input is supported for .osm.pbf only",
              file=sys.stderr)
        return 2
    args.input = inputs[0]
    # run_resumable is the flagship (pages/WARC) path into a tile
    # directory; anything else would be silently misread (review
    # finding: inputs[1:] were dropped without a word)
    if args.resume and _is_container(args.output):
        print("error: --resume writes a tile directory; a .mbtiles or "
              ".pmtiles output cannot resume", file=sys.stderr)
        return 2
    if args.resume and len(inputs) > 1:
        print("error: --resume supports a single --input", file=sys.stderr)
        return 2
    if args.resume and args.input.endswith(".pbf"):
        print("error: --resume applies to pages/WARC inputs; for "
              ".osm.pbf rerun without --resume (tile writes are "
              "atomic per container)", file=sys.stderr)
        return 2
    bbox = None
    if args.bbox:
        try:
            bbox = _parse_bbox(args.bbox)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2

    import ray
    if not ray.is_initialized():
        # Under `ray job submit` (RAY_JOB_ID set) or with RAY_ADDRESS
        # naming a live cluster, connect to it — the north-rule run
        # mode. num_cpus is a cluster property there, so --threads
        # only applies to the standalone local boot.
        addr = os.environ.get("RAY_ADDRESS", "")
        in_cluster = "RAY_JOB_ID" in os.environ or (addr and addr != "local")
        if in_cluster:
            if args.threads and not args.quiet:
                print("note: --threads ignored on an existing cluster")
            if not args.quiet:
                print(f"Connecting to existing Ray cluster "
                      f"at {addr or 'auto'}")
            ray.init(address="auto", logging_level="ERROR")
        else:
            kwargs = {}
            if args.threads:
                kwargs["num_cpus"] = args.threads
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR", **kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from .config import Config, default_config

    t0 = time.time()
    is_pbf = args.input.endswith(".pbf")
    profile = None
    if args.process:
        from .profiles.lua_profile import LuaProfile
        profile = LuaProfile(args.process)
    elif args.profile == "openmaptiles":
        from .profiles.openmaptiles import OpenMapTilesProfile
        profile = OpenMapTilesProfile()
    if args.config:
        config = Config.from_json(args.config)
    elif args.profile == "openmaptiles" or (
            args.process and "openmaptiles" in
            os.path.basename(args.process)):
        from .profiles.openmaptiles import openmaptiles_config
        config = openmaptiles_config()
    elif is_pbf:
        from .pipelines.osm import osm_config
        config = osm_config()
    else:
        config = default_config()

    if bbox:
        # restrict the generated tileset to tiles intersecting the box
        # (reference --bbox, options_parser.cpp:18-46)
        config.bbox = bbox

    if not args.quiet:
        kind = ("OSM pbf" if is_pbf else
                "WARC crawl" if args.input.endswith((".warc", ".warc.gz"))
                else "pages parquet")
        print(f"Reading {kind}: {', '.join(inputs)}")

    if args.resume:
        from .pipelines.resumable import run_resumable
        stats = run_resumable(args.input, args.output, config,
                              with_joins=args.joins)
        if not args.quiet:
            print(f"Resumable run: {stats}")
        ray.shutdown()
        return 0

    if is_pbf:
        from .pipelines.osm import osm_tile_dataset
        tiles = osm_tile_dataset(inputs if len(inputs) > 1 else args.input,
                                 config, profile=profile)
    else:
        from .pipelines.flagship import tile_dataset
        tiles = tile_dataset(args.input, config, with_joins=args.joins)

    bounds = bbox or (-180.0, -85.06, 180.0, 85.06)

    def tile_rows():
        # stream blobs off the object store into the single-writer
        # container pack — only one batch resident at a time (the old
        # to_pandas() + list(zip) held every MVT blob twice on the
        # driver; ADVICE r1)
        for b in tiles.iter_batches(batch_format="pandas", batch_size=4096):
            yield from zip(b["zoom"], b["tile_x"], b["tile_y"], b["mvt"])

    from .sinks import mbtiles as mb
    meta = mb.default_metadata(config, bounds)
    if args.output.endswith(".mbtiles"):
        if args.merge:
            n = mb.merge_tiles_into(args.output, tile_rows(), meta,
                                    compress=config.compress)
        else:
            n = mb.write_mbtiles(args.output, tile_rows(), meta)
        what = "mbtiles"
    elif args.output.endswith(".pmtiles"):
        from .sinks import pmtiles as pmt
        comp = {"gzip": pmt.COMPRESSION_GZIP,
                "none": pmt.COMPRESSION_NONE}.get(config.compress,
                                                  pmt.COMPRESSION_UNKNOWN)
        pm_meta = {"name": config.project_name,
                   "vector_layers": json.loads(meta["json"])["vector_layers"]}
        if args.merge:
            n = pmt.merge_pmtiles(args.output, tile_rows(), pm_meta,
                                  config.start_zoom, config.end_zoom, bounds,
                                  compress=config.compress,
                                  tile_compression=comp)
        else:
            n = pmt.write_pmtiles(args.output, tile_rows(), pm_meta,
                                  config.start_zoom, config.end_zoom, bounds,
                                  tile_compression=comp)
        what = "pmtiles"
    else:
        from .sinks.zxy import write_zxy, write_metadata_json
        os.makedirs(args.output, exist_ok=True)
        n = write_zxy(tiles, args.output, meta)
        what = "z/x/y dir"
    if not args.quiet:
        print(f"Wrote {n} tiles to {what} {args.output} "
              f"[total {time.time() - t0:.1f}s]")
    ray.shutdown()
    return 0


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    """``minlon,minlat,maxlon,maxlat`` as four finite floats with
    min < max on each axis, lon in [-180, 180] and lat in [-90, 90];
    ValueError otherwise."""
    try:
        box = tuple(float(x) for x in text.split(","))
    except ValueError:
        box = ()
    if len(box) != 4 or not all(math.isfinite(v) for v in box):
        raise ValueError(f"--bbox wants four finite numbers "
                         f"minlon,minlat,maxlon,maxlat: {text}")
    minlon, minlat, maxlon, maxlat = box
    if not (-180 <= minlon < maxlon <= 180 and -90 <= minlat < maxlat <= 90):
        raise ValueError(f"--bbox wants minlon < maxlon in [-180, 180] and "
                         f"minlat < maxlat in [-90, 90]: {text}")
    return box


def _is_container(path: str) -> bool:
    return path.endswith(".mbtiles") or path.endswith(".pmtiles")


if __name__ == "__main__":
    sys.exit(main())
