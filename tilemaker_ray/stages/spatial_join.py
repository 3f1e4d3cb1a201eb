"""Broadcast spatial-join index (J3-J6) — the ShpMemTiles equivalent.

Reference: index build /root/reference/src/shp_mem_tiles.cpp:129-197
(R-tree + per-z6 z15 bitmap), probe shp_mem_tiles.cpp:21-46, Lua verbs
Intersects/FindIntersecting/CoveredBy/FindCovering/AreaIntersecting
(osm_lua_processing.cpp:377-470).

Ray-Data mapping: the layer is small, so `PageFeatureExtractor.__init__`
(stages/extract.py) builds the PolygonIndex once on the driver (STRtree
of bboxes + a coarse-cell membership prefilter at CELL_ZOOM, mirroring
the z15 bitmap's "false positives cleaned by the exact predicate"
semantics, shp_mem_tiles.cpp:58-127) and the index travels to every
extraction task inside the extractor instance.

AreaIntersecting is exact for all region shapes: convex regions take
the O(n) Sutherland-Hodgman convex clip, concave regions the exact
sweep-line intersection (geom.boolops).  CoveredBy uses the exact
segment-crossing test (geom.core.polyline_covered_by_polygon).
"""

from __future__ import annotations

import numpy as np

from ..geom import core as gc
from ..geom.clip import clip_ring_convex
from ..geom.strtree import STRtree
from .. import tilemath as tm

CELL_ZOOM = 12  # coarse prefilter cells (z15 in the reference; z12 fits
                # the synthetic regions' size — semantics identical)


class PolygonIndex:
    def __init__(self, regions: list[dict], cell_zoom: int = CELL_ZOOM):
        self.regions = regions
        self.cell_zoom = cell_zoom
        boxes = np.array([gc.geom_bbox(r["ring"]) for r in regions]).reshape(-1, 4)
        self.boxes = boxes
        self.tree = STRtree(boxes)
        # coarse-cell membership (supercover of the ring + interior fill)
        self.cells: list[set[tuple[int, int]]] = []
        for r in regions:
            cs: set[tuple[int, int]] = set()
            tm.insert_intermediate_tiles(r["ring"][:, 0], r["ring"][:, 1],
                                         cell_zoom, cs)
            tm.fill_covered_tiles(cs)
            self.cells.append(cs)

    # --- candidate generation ---
    def _candidates(self, bbox, cells: set[tuple[int, int]]) -> np.ndarray:
        cand = self.tree.query(*bbox)
        if not len(cand):
            return cand
        keep = [c for c in cand if self.cells[c] & cells]
        return np.asarray(keep, dtype=np.int64)

    def _geom_cells(self, pts: np.ndarray,
                    fill: bool = False) -> set[tuple[int, int]]:
        """Supercover cells of the probe geometry's edges (+ interior
        fill for polygon probes).  Vertex-only sampling would miss a
        region smaller than a cell sitting between two probe vertices."""
        cs: set[tuple[int, int]] = set()
        tm.insert_intermediate_tiles(pts[:, 0], pts[:, 1], self.cell_zoom, cs)
        if fill:
            tm.fill_covered_tiles(cs)
        return cs

    # --- per-geometry probes (exact predicate after prefilter) ---
    def find_intersecting(self, geom_type: int, pts) -> list[int]:
        """Indices of regions whose polygon intersects the geometry
        (QueryMatchingGeometries + geom::intersects)."""
        if geom_type == gc.POINT_:
            lon, latp = pts
            cell = (int(tm.lon2tilex(lon, self.cell_zoom)),
                    int(tm.latp2tiley(latp, self.cell_zoom)))
            cand = self._candidates((lon, latp, lon, latp), {cell})
            return [int(c) for c in cand
                    if gc.points_in_polygon_inclusive([lon], [latp],
                                                      [self.regions[c]["ring"]])[0]]
        arrs = pts if isinstance(pts, list) else [pts]
        bbox = gc.geom_bbox(arrs)
        cells = set()
        for a in arrs:
            cells |= self._geom_cells(a, fill=geom_type == gc.POLYGON_)
        cand = self._candidates(bbox, cells)
        out = []
        for c in cand:
            ring = self.regions[c]["ring"]
            if any(gc.polyline_intersects_polygon(a, [ring]) for a in arrs):
                out.append(int(c))
        return out

    def intersects(self, geom_type: int, pts) -> bool:
        return bool(self.find_intersecting(geom_type, pts))

    def find_covering(self, geom_type: int, pts) -> list[int]:
        """Regions that completely cover the geometry (geom::covered_by,
        osm_lua_processing.cpp:393-407)."""
        if geom_type == gc.POINT_:
            return self.find_intersecting(geom_type, pts)
        arrs = pts if isinstance(pts, list) else [pts]
        bbox = gc.geom_bbox(arrs)
        cells = set()
        for a in arrs:
            cells |= self._geom_cells(a)
        cand = self._candidates(bbox, cells)
        out = []
        for c in cand:
            ring = self.regions[c]["ring"]
            if all(gc.polyline_covered_by_polygon(a, [ring]) for a in arrs):
                out.append(int(c))
        return out

    def covered_by(self, geom_type: int, pts) -> bool:
        return bool(self.find_covering(geom_type, pts))

    def area_intersecting(self, rings: list[np.ndarray]) -> float:
        """Σ spherical area (m²) of polygon ∩ each matching region
        (osm_lua_processing.cpp:435-453).  Convex regions use the O(n)
        convex clip; concave regions fall back to the exact sweep-line
        intersection (geom.boolops) — J5 general case."""
        from ..geom import boolops
        cand = self.find_intersecting(gc.POLYGON_, rings[0])
        total = 0.0
        for c in cand:
            clip = self.regions[c]["ring"]
            if self._is_convex(c):
                if gc.ring_signed_area(clip) < 0:  # convex clip wants CCW
                    clip = clip[::-1]
                piece = clip_ring_convex(rings[0], clip)
                if len(piece) >= 3:
                    total += abs(gc.spherical_area([[gc.close_ring(piece)]]))
            else:
                subj = [[[(float(x), float(y)) for x, y in rings[0]]]]
                cmp_ = [[[(float(x), float(y)) for x, y in clip]]]
                for poly in boolops.intersection(subj, cmp_):
                    piece = [np.asarray(r, dtype=np.float64) for r in poly]
                    total += abs(gc.spherical_area([piece]))
        return total

    def _is_convex(self, c: int) -> bool:
        flag = self.regions[c].get("_convex")
        if flag is None:
            ring = self.regions[c]["ring"]
            r = ring[:-1] if (ring[0] == ring[-1]).all() else ring
            v = np.diff(np.vstack([r, r[:2]]), axis=0)
            cross = v[:-1, 0] * v[1:, 1] - v[:-1, 1] * v[1:, 0]
            flag = bool((cross >= 0).all() or (cross <= 0).all())
            self.regions[c]["_convex"] = flag
        return flag

    def nearest(self, lon: float, latp: float, k: int = 1) -> list[int]:
        """kNN by bbox distance then refined by true ring distance —
        the north-rule kNN extension (not in the reference)."""
        cand = self.tree.nearest_point(lon, latp, min(k * 3, len(self.regions)))
        scored = []
        for c in cand:
            ring = self.regions[c]["ring"]
            if gc.points_in_polygon_inclusive([lon], [latp], [ring])[0]:
                d = 0.0
            else:
                d = _ring_distance(lon, latp, ring)
            scored.append((d, int(c)))
        scored.sort()
        return [c for _, c in scored[:k]]


def _ring_distance(px: float, py: float, ring: np.ndarray) -> float:
    x1 = ring[:-1, 0]; y1 = ring[:-1, 1]
    x2 = ring[1:, 0]; y2 = ring[1:, 1]
    dx = x2 - x1
    dy = y2 - y1
    l2 = dx * dx + dy * dy
    l2[l2 == 0] = 1e-300
    t = np.clip(((px - x1) * dx + (py - y1) * dy) / l2, 0.0, 1.0)
    return float(np.hypot(px - (x1 + t * dx), py - (y1 + t * dy)).min())


class SpatialJoins:
    """The Lua-facing verbs bound to named layers — handed to the
    profile as `emit.joins` (layer name → PolygonIndex)."""

    def __init__(self, indexes: dict[str, PolygonIndex]):
        self.indexes = indexes

    def Intersects(self, layer: str, geom_type: int, pts) -> bool:
        return self.indexes[layer].intersects(geom_type, pts)

    def FindIntersecting(self, layer: str, geom_type: int, pts) -> list[str]:
        idx = self.indexes[layer]
        return [idx.regions[c]["name"] for c in idx.find_intersecting(geom_type, pts)]

    def CoveredBy(self, layer: str, geom_type: int, pts) -> bool:
        return self.indexes[layer].covered_by(geom_type, pts)

    def FindCovering(self, layer: str, geom_type: int, pts) -> list[str]:
        idx = self.indexes[layer]
        return [idx.regions[c]["name"] for c in idx.find_covering(geom_type, pts)]

    def AreaIntersecting(self, layer: str, rings) -> float:
        return self.indexes[layer].area_intersecting(rings)

    def Nearest(self, layer: str, lon: float, latp: float, k: int = 1) -> list[str]:
        idx = self.indexes[layer]
        return [idx.regions[c]["name"] for c in idx.nearest(lon, latp, k)]
