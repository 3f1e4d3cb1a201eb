"""Per-tile geometry helpers of the geometry map (stages/salted.py GeomMap).

GeomMap turns each feature into one row per (tile, zoom) holding the
feature clipped, simplified and scaled to tile ints; TileAssembler
turns those rows into MVT bytes. This module holds the pieces of the
geometry step that reproduce the reference's per-tile write path:

- the clip cache with parent-zoom reuse: clip_cache.h:12-77
- clip box extension for lines: coordinates_geom.cpp:95-99
- RemovePartsBelowSize: tile_worker.cpp:77-94
- writeRing dedup/closure: tile_worker.cpp:174-204
- ReorderMultiLinestring (also used by the assembler and the OSM
  multipolygon builder): tile_worker.cpp:27-75
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..geom import core as gc
from ..geom.clip import clip_linestring_tilemaker, clip_multipolygon
from ..tilemath import TileBbox


class ClipCache:
    """Clipped geometry keyed (fid, zoom, x, y, kind). Tiles are visited
    in ascending zoom, so a feature's clip at z reuses its clip at the
    nearest cached ancestor tile (ClipCache::get, clip_cache.h:21-57)."""

    def __init__(self):
        self._cache: dict[tuple, object] = {}

    def _parent(self, fid, zoom, x, y, tag):
        z, cx, cy = zoom - 1, x >> 1, y >> 1
        while z >= 6:
            hit = self._cache.get((fid, z, cx, cy, tag))
            if hit is not None:
                return hit
            z -= 1
            cx >>= 1
            cy >>= 1
        return None

    def lines(self, g: "_Group", i: int, bbox: TileBbox) -> list[np.ndarray]:
        fid = int(g.fid[i])
        key = (fid, bbox.zoom, bbox.x, bbox.y, "l")
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        parent = self._parent(fid, bbox.zoom, bbox.x, bbox.y, "l")
        parts = parent if parent is not None else gc.unpack(g.geom[i])[1]
        clip_box = (bbox.clip_minx, bbox.clip_miny, bbox.clip_maxx, bbox.clip_maxy)
        ext = _extend_box(bbox)
        out: list[np.ndarray] = []
        for ls in parts:
            out.extend(clip_linestring_tilemaker(np.asarray(ls), clip_box, ext))
        self._cache[key] = out
        return out

    def polygons(self, g: "_Group", i: int, bbox: TileBbox):
        fid = int(g.fid[i])
        key = (fid, bbox.zoom, bbox.x, bbox.y, "p")
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        parent = self._parent(fid, bbox.zoom, bbox.x, bbox.y, "p")
        polys = parent if parent is not None else gc.unpack(g.geom[i])[1]
        out = clip_multipolygon(polys, bbox.clip_minx, bbox.clip_miny,
                                bbox.clip_maxx, bbox.clip_maxy)
        self._cache[key] = out
        return out


class _Group:
    """Columnar view of tile-assigned feature rows."""

    def __init__(self, df: pd.DataFrame):
        self.fid = df["feature_id"].to_numpy(dtype=np.uint64)
        self.layer = df["layer"].to_numpy(dtype=object)
        self.geom_type = df["geom_type"].to_numpy(dtype=np.int64)
        self.min_zoom = df["min_zoom"].to_numpy(dtype=np.int64)
        self.z_order = df["z_order"].to_numpy(dtype=np.int64)
        self.attrs = df["attrs"].to_numpy(dtype=object)
        self.lon = df["lon"].to_numpy(dtype=np.float64)
        self.latp = df["latp"].to_numpy(dtype=np.float64)
        self.geom = df["geom"].to_numpy(dtype=object)
        self.tx = df["tile_x"].to_numpy(dtype=np.int64)
        self.ty = df["tile_y"].to_numpy(dtype=np.int64)
        self.large = df["large"].to_numpy(dtype=bool)
        self.rng = df[["min_tx", "max_tx", "min_ty", "max_ty"]].to_numpy(dtype=np.int64)


def _dedup_consecutive(xs: np.ndarray, ys: np.ndarray) -> list[tuple[int, int]]:
    pts = []
    last = None
    for x, y in zip(xs.tolist(), ys.tolist()):
        p = (int(x), int(y))
        if last is None or p != last:
            pts.append(p)
            last = p
    return pts


def _ring_pts(ring: np.ndarray) -> list[tuple[int, int]] | None:
    """writeRing (tile_worker.cpp:174-204): dedup consecutive; a ring has
    at least 4 points (3 distinct + closure)."""
    pts = _dedup_consecutive(ring[:, 0], ring[:, 1])
    if pts[0] != pts[-1]:
        pts.append(pts[0])
    if len(pts) < 4:
        return None
    return pts


def _remove_parts_below(mp, filter_area: float):
    """RemovePartsBelowSize (tile_worker.cpp:77-94): drop polygons whose
    area < filterArea; drop inner rings likewise."""
    out = []
    for rings in mp:
        outer_area = abs(gc.ring_signed_area(rings[0]))
        hole_area = sum(abs(gc.ring_signed_area(r)) for r in rings[1:])
        if outer_area - hole_area < filter_area:
            continue
        kept = [rings[0]] + [r for r in rings[1:]
                             if abs(gc.ring_signed_area(r)) >= filter_area]
        out.append(kept)
    return out


def reorder_multilinestring(parts: list[np.ndarray]) -> list[np.ndarray]:
    """ReorderMultiLinestring (tile_worker.cpp:27-75): stitch linestrings
    that share endpoints (cap 6000 points)."""
    if len(parts) <= 1:
        return parts
    start_points = {}
    end_points = {}
    for i, ls in enumerate(parts):
        start_points[(ls[0, 0], ls[0, 1])] = i
        end_points[(ls[-1, 0], ls[-1, 1])] = i
    added = [False] * len(parts)
    out = []
    for i in range(len(parts)):
        if added[i]:
            continue
        ls = parts[i]
        added[i] = True
        while True:
            j = start_points.get((ls[-1, 0], ls[-1, 1]))
            if j is not None and not added[j] and len(parts[j]) + len(ls) < 6000:
                ls = np.vstack([ls, parts[j][1:]])
                added[j] = True
                continue
            j = end_points.get((ls[0, 0], ls[0, 1]))
            if j is not None and not added[j] and len(parts[j]) + len(ls) < 6000:
                ls = np.vstack([parts[j][:-1], ls])
                added[j] = True
                continue
            break
        out.append(ls)
    return out


def _extend_box(bbox: TileBbox):
    """TileBbox::getExtendBox (coordinates_geom.cpp:95-99)."""
    w = bbox.max_lon - bbox.min_lon
    h = bbox.max_latp - bbox.min_latp
    return (bbox.min_lon - w * 2.0, bbox.min_latp - h * (8191.0 / 8192.0),
            bbox.max_lon + w * (8191.0 / 8192.0), bbox.max_latp + h * 2.0)
