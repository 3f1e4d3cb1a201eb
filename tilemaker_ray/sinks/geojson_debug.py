"""GeoJSON debug writer (S8) — dump extracted features as a
FeatureCollection for visual inspection, mirroring the reference's
include/geojson_writer.h (debug dump of working geometries).

Consumes FEATURE_SCHEMA rows (stages/extract.py): coordinates are
(lon, latp) internally and are reprojected back to latitude here.
"""

from __future__ import annotations

import json

from .. import tilemath as tm
from ..geom import core as gc


def _ring_to_coords(ring):
    return [[float(x), float(tm.latp2lat(y))] for x, y in ring]


def feature_to_geojson(row: dict) -> dict | None:
    """One FEATURE_SCHEMA row → GeoJSON Feature (properties from the
    canonical attrs JSON, minzoom-annotated)."""
    gt = int(row["geom_type"])
    props = {"layer": row.get("layer", "")}
    for key, kind, mz, v in json.loads(row.get("attrs") or "[]"):
        props[key] = bool(v) if kind == 2 else (float(v) if kind == 1 else str(v))
    if row.get("min_zoom"):
        props["_minzoom"] = int(row["min_zoom"])
    if gt == gc.POINT_:
        geom = {"type": "Point",
                "coordinates": [float(row["lon"]),
                                float(tm.latp2lat(row["latp"]))]}
    elif gt in (gc.LINESTRING_, gc.MULTILINESTRING_):
        _, parts = gc.unpack(row["geom"])
        coords = [_ring_to_coords(p) for p in parts]
        geom = {"type": "LineString", "coordinates": coords[0]} \
            if len(coords) == 1 else \
            {"type": "MultiLineString", "coordinates": coords}
    elif gt == gc.POLYGON_:
        _, polys = gc.unpack(row["geom"])
        coords = [[_ring_to_coords(r) for r in rings] for rings in polys]
        geom = {"type": "Polygon", "coordinates": coords[0]} \
            if len(coords) == 1 else \
            {"type": "MultiPolygon", "coordinates": coords}
    else:
        return None
    return {"type": "Feature", "properties": props, "geometry": geom}


def write_geojson(features, path: str) -> int:
    """features: Ray Dataset of FEATURE_SCHEMA rows (streamed batch by
    batch) or an iterable of row dicts.  Returns feature count."""
    n = 0
    with open(path, "w") as f:
        f.write('{"type":"FeatureCollection","features":[\n')
        first = True
        if hasattr(features, "iter_batches"):
            def rows():
                for b in features.iter_batches(batch_format="pandas"):
                    yield from (r._asdict() if hasattr(r, "_asdict") else r
                                for r in b.to_dict("records"))
            it = rows()
        else:
            it = iter(features)
        for row in it:
            feat = feature_to_geojson(row)
            if feat is None:
                continue
            if not first:
                f.write(",\n")
            f.write(json.dumps(feat))
            first = False
            n += 1
        f.write("\n]}\n")
    return n
