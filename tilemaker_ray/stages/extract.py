"""Feature extraction (ST1).

The Ray-Data equivalent of the reference's per-thread Lua VM
(/root/reference/src/tilemaker.cpp:304-322,
osm_lua_processing.cpp:17-18): a callable object over a pages table —
profile construction, regex compilation and the spatial-join index
build happen once, on the driver, in __init__; the instance is shipped
to the build's map tasks (pipelines/flagship.PageMap), which run
__call__ on each input unit's pages.

Output feature schema (the OutputObject analogue,
output_object.h:24-83, carried as row columns instead of a packed
bitfield + global stores):

    url:string, feature_id:uint64, layer:string, geom_type:uint8,
    min_zoom:uint8, z_order:int16, attrs:string (canonical JSON),
    lon:float64, latp:float64 (points), geom:binary (packed, non-points)
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from ..geom import core as gc
from ..profile import Emitter, Page, WebProfile, extract_text, hash_url

FEATURE_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("feature_id", pa.uint64()),
    ("layer", pa.string()),
    ("geom_type", pa.uint8()),
    ("min_zoom", pa.uint8()),
    ("z_order", pa.int16()),
    ("attrs", pa.string()),
    ("lon", pa.float64()),
    ("latp", pa.float64()),
    ("geom", pa.binary()),
])


class PageFeatureExtractor:
    def __init__(self, profile_factory=WebProfile, known_layers=None,
                 verify_text_invariant: bool = True, regions=None):
        self.profile = profile_factory()
        self.known_layers = set(known_layers or ("places", "routes", "areas"))
        self.verify = verify_text_invariant
        # spatial-join build side: the PolygonIndex is built once here
        # and travels to the tasks inside the instance (ST5 pattern)
        self.joins = None
        if regions is not None:
            from .spatial_join import PolygonIndex, SpatialJoins
            self.joins = SpatialJoins({"regions": PolygonIndex(regions)})

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        htmls = batch.column("html").to_pylist() if "html" in batch.column_names else [None] * len(urls)

        out = {k: [] for k in ("url", "feature_id", "layer", "geom_type",
                               "min_zoom", "z_order", "attrs", "lon", "latp", "geom")}
        for i in range(len(urls)):
            if self.verify and htmls[i] is not None:
                # per-url byte-identical extracted-text invariant
                ext = extract_text(htmls[i])
                if ext != texts[i]:
                    raise ValueError(f"text-extraction invariant violated for {urls[i]}")
            page = Page(urls[i], None, htmls[i], texts[i], langs[i])
            emit = Emitter(self.known_layers, joins=self.joins)
            self.profile.page_function(page, emit)
            base_id = hash_url(urls[i])
            for j, f in enumerate(emit.features):
                out["url"].append(urls[i])
                # full 64-bit url hash mixed with the emission index
                # (golden-ratio odd constant keeps ids distinct per j
                # without discarding hash bits — ADVICE r1)
                out["feature_id"].append(
                    base_id ^ ((j * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
                out["layer"].append(f.layer)
                out["geom_type"].append(f.geom_type)
                out["min_zoom"].append(f.min_zoom)
                out["z_order"].append(f.z_order)
                out["attrs"].append(f.canonical_attrs())
                out["lon"].append(f.lon)
                out["latp"].append(f.latp)
                if f.geom_type == gc.POINT_:
                    out["geom"].append(b"")
                elif f.geom_type in (gc.LINESTRING_, gc.MULTILINESTRING_):
                    out["geom"].append(gc.pack_mls(f.geom_parts))
                else:
                    # CorrectGeometry at emission (the reference's
                    # osm_lua_processing.h:160-186 semantics): dissolve
                    # self-intersecting polygons once here so every
                    # downstream stage can assume valid input
                    out["geom"].append(
                        gc.pack_mp(gc.correct_geometry(f.geom_parts)))
        return pa.table(out, schema=FEATURE_SCHEMA)
