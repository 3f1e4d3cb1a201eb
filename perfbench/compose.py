"""The engine's layers composed in one process through their public
functions.  With a Tracer, every call into a layer is a span; with a
NullTracer the same code produces the reference tile sets that the
Ray runs are checked against."""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from tilemaker_ray import mvt
from tilemaker_ray.config import Config
from tilemaker_ray.geom import core as gc
from tilemaker_ray.stages.salted import (GeomMap, TileAssembler,
                                         add_partition_key)

from common import Tracer

# the flagship's extractor batch size (pipelines/flagship.feature_dataset)
BATCH_ROWS = 2048
PAGE_COLUMNS = ["url", "html", "text", "lang"]


def read_pages(pages_dir: str, tr: Tracer) -> pa.Table:
    with tr.span("sources.read"):
        return pq.read_table(pages_dir, columns=PAGE_COLUMNS)


def extract_pages(table: pa.Table, config: Config, tr: Tracer) -> pa.Table:
    from tilemaker_ray.stages.extract import PageFeatureExtractor
    with tr.span("extract"):
        extractor = PageFeatureExtractor(
            known_layers={l.name for l in config.layers})
    out = []
    for batch in table.to_batches(max_chunksize=BATCH_ROWS):
        with tr.span("extract"):
            out.append(extractor(pa.Table.from_batches([batch])))
    feats = pa.concat_tables(out)
    tr.count("extract.pages", table.num_rows)
    return feats


def tiles_from_features(feats: pa.Table, config: Config, nparts: int,
                        tr: Tracer) -> pd.DataFrame:
    """GeomMap → partition-key exchange → TileAssembler → gzip: the
    single-pass stage chain of pipelines/flagship.tile_dataset.  Tile
    bytes depend only on each tile's rows, so batching and partition
    count do not change the output."""
    tr.count("extract.features", feats.num_rows)
    geom_type = feats.column("geom_type").to_numpy()
    tr.count("geom_map.points_in", int((geom_type == gc.POINT_).sum()))
    with tr.span("geom_map"):
        geom_map = GeomMap(config)
    parts = []
    for batch in feats.to_batches(max_chunksize=BATCH_ROWS):
        with tr.span("geom_map"):
            parts.append(geom_map(pa.Table.from_batches([batch],
                                                        schema=feats.schema)))
    partials = pd.concat(parts, ignore_index=True)
    tr.count("geom_map.rows_out", len(partials))

    with tr.span("exchange"):
        keyed = add_partition_key(partials, nparts)
        groups = [g for _, g in keyed.groupby("pk", sort=True)]
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    tr.count("exchange.rows", len(keyed))
    tr.count("exchange.bytes", int(keyed.memory_usage(deep=True).sum()))
    tr.count("exchange.partitions", nparts)
    tr.count("exchange.max_rows", int(sizes.max()) if len(sizes) else 0)

    with tr.span("assemble"):
        assembler = TileAssembler(config, compress=False)
        tiles = pd.concat([assembler(g) for g in groups], ignore_index=True)
    tr.count("assemble.tiles", len(tiles))
    tr.count("assemble.features_out", int(tiles["n_features"].sum()))
    tr.count("mvt.raw_bytes", int(tiles["n_bytes"].sum()))
    if config.compress != "none":
        gzip_fmt = config.compress == "gzip"
        with tr.span("mvt.gzip"):
            tiles["mvt"] = [mvt.compress_tile(b, gzip_fmt=gzip_fmt)
                            for b in tiles["mvt"]]
    return tiles


def web_tiles(pages_dir: str, config: Config, nparts: int,
              tr: Tracer) -> pd.DataFrame:
    feats = extract_pages(read_pages(pages_dir, tr), config, tr)
    return tiles_from_features(feats, config, nparts, tr)


@contextlib.contextmanager
def traced_calls(tr: Tracer, module, spans: dict[str, str],
                 row_counts: dict[str, str] | None = None):
    """Wrap the module-level functions named in `spans` ({function:
    span name}) so each call runs in its span.  A call that returns a
    lazy Dataset is materialized inside the span, so the span times the
    work and not the plan; `row_counts` ({function: count name}) counts
    the rows it returned.  The originals come back on exit."""
    orig = {fn: getattr(module, fn) for fn in spans}
    row_counts = row_counts or {}

    def wrap(fn, name, count_name):
        def call(*a, **kw):
            with tr.span(name):
                out = fn(*a, **kw)
                if hasattr(out, "materialize"):
                    out = out.materialize()
            if count_name:
                tr.count(count_name, out.count())
            return out
        return call

    for fn, name in spans.items():
        setattr(module, fn, wrap(orig[fn], name, row_counts.get(fn)))
    try:
        yield
    finally:
        for fn, f in orig.items():
            setattr(module, fn, f)


def decode_pbf(path: str, tr: Tracer) -> int:
    """Read and decode every data block of a PBF in this process, and
    return the entity count.  The OSM pipeline decodes inside Ray tasks,
    where no span of this process reaches, so the sources layer is timed
    on this pass of its own."""
    from tilemaker_ray.sources import pbf

    entities = 0
    for off, length, kind in pbf.blob_offsets(path):
        if kind != "OSMData":
            continue
        with tr.span("sources.read"):
            data = pbf.read_blob_at(path, off, length)
        with tr.span("sources.pbf_decode"):
            block = pbf.parse_primitive_block(data)
        entities += (sum(len(ids) for ids in block.nodes["id"])
                     + len(block.ways) + len(block.relations))
    tr.count("sources.pbf_entities", entities)
    return entities


def osm_features(path: str, config: Config, tr: Tracer) -> pa.Table:
    """pipelines.osm.osm_feature_dataset, collected to the driver.  Its
    node store, way assembly and multipolygon assembly each run in a
    span of their own; the rest of the pass (relation scan, the profile
    pass that turns entities into feature rows) is `extract`."""
    from tilemaker_ray.pipelines import osm

    with traced_calls(tr, osm, {"build_node_store": "osm.node_store",
                                "assembled_ways": "osm.way_assembly",
                                "assembled_multipolygons": "osm.multipolygon"},
                      row_counts={"assembled_ways": "osm.ways"}):
        with tr.span("extract"):
            ds = osm.osm_feature_dataset(path, config)
            return pa.concat_tables(
                list(ds.iter_batches(batch_format="pyarrow")))


def osm_tiles(path: str, config: Config, nparts: int,
              tr: Tracer) -> pd.DataFrame:
    return tiles_from_features(osm_features(path, config, tr), config,
                               nparts, tr)
