"""Geometry core: packed Arrow-transportable geometries + measures.

No shapely in this environment — geometries are numpy arrays and the
algorithms are ports of the reference's boost::geometry usage:

- spherical polygon area: boost strategy::area::spherical trapezoid
  formula (used via /root/reference/src/osm_lua_processing.cpp:483-520)
- haversine length (osm_lua_processing.cpp:521-531; boost
  haversine<float> — computed in float32 to mirror the reference)
- point-in-polygon: ray cast (boost::geometry::within semantics on the
  boundary are not guaranteed; tests avoid exact-boundary points)

In-memory representation (within a render group / extraction task):
- point: (lon, latp) floats
- linestring / ring: ndarray (n, 2) float64, columns (lon, latp);
  rings are closed (first == last)
- multilinestring: list[ndarray]
- polygon: list[ring] (outer first, then inners)
- multipolygon: list[polygon]

Arrow transport is a packed little-endian binary blob (pack_mls /
pack_mp) so a geometry travels WITH its row through map_batches /
groupby, replacing the reference's shared geometry stores
(tile_data.h:322-332).
"""

from __future__ import annotations

import math
import struct

import numpy as np

RADIUS_METER = 6378137.0

# geometry kind tags carried in the blob's first byte
KIND_MLS = 1
KIND_MP = 2

# geom_type codes (match reference OutputGeometryType output_object.h:20)
POINT_ = 0
LINESTRING_ = 1
MULTILINESTRING_ = 2
POLYGON_ = 3


# --- packing ------------------------------------------------------------

def pack_mls(parts: list[np.ndarray]) -> bytes:
    out = [struct.pack("<BI", KIND_MLS, len(parts))]
    for p in parts:
        a = np.ascontiguousarray(p, dtype=np.float64)
        out.append(struct.pack("<I", a.shape[0]))
        out.append(a.tobytes())
    return b"".join(out)


def pack_mp(polys: list[list[np.ndarray]]) -> bytes:
    out = [struct.pack("<BI", KIND_MP, len(polys))]
    for rings in polys:
        out.append(struct.pack("<I", len(rings)))
        for r in rings:
            a = np.ascontiguousarray(r, dtype=np.float64)
            out.append(struct.pack("<I", a.shape[0]))
            out.append(a.tobytes())
    return b"".join(out)


def unpack(blob: bytes):
    """Returns (kind, geometry)."""
    kind, n = struct.unpack_from("<BI", blob, 0)
    off = 5
    if kind == KIND_MLS:
        parts = []
        for _ in range(n):
            (npts,) = struct.unpack_from("<I", blob, off)
            off += 4
            parts.append(np.frombuffer(blob, dtype=np.float64, count=npts * 2,
                                       offset=off).reshape(npts, 2))
            off += npts * 16
        return kind, parts
    if kind == KIND_MP:
        polys = []
        for _ in range(n):
            (nrings,) = struct.unpack_from("<I", blob, off)
            off += 4
            rings = []
            for _ in range(nrings):
                (npts,) = struct.unpack_from("<I", blob, off)
                off += 4
                rings.append(np.frombuffer(blob, dtype=np.float64, count=npts * 2,
                                           offset=off).reshape(npts, 2))
                off += npts * 16
            polys.append(rings)
        return kind, polys
    raise ValueError(f"unknown geometry kind {kind}")


# --- measures -----------------------------------------------------------

def ring_signed_area(ring: np.ndarray) -> float:
    """Planar shoelace; positive = counter-clockwise in (lon, latp) y-up."""
    x = ring[:, 0]
    y = ring[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def close_ring(ring: np.ndarray) -> np.ndarray:
    if len(ring) == 0 or (ring[0] == ring[-1]).all():
        return ring
    return np.vstack([ring, ring[:1]])


def correct_polygon(rings: list[np.ndarray]) -> list[np.ndarray]:
    """boost::geometry::correct for the default polygon concept: rings
    closed, outer clockwise (negative shoelace in y-up), inners CCW."""
    out = []
    for i, r in enumerate(rings):
        r = close_ring(np.asarray(r, dtype=np.float64))
        sa = ring_signed_area(r)
        want_cw = i == 0
        if (sa > 0) == want_cw:
            r = r[::-1].copy()
        out.append(r)
    return out


def correct_geometry(polys: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
    """CorrectGeometry (osm_lua_processing.h:160-186): after winding /
    closure correction, a polygon that still self-intersects is
    dissolved with make_valid (geom.cpp:138-145, geometry/correct.hpp
    semantics — implemented as the even-odd overlay in geom.boolops)."""
    from . import boolops
    out = []
    for rings in polys:
        if boolops.rings_self_intersect(rings):
            fixed = boolops.make_valid(
                [[[(float(x), float(y)) for x, y in np.asarray(r)]
                  for r in rings]])
            for poly in fixed:
                # boolops emits CCW exteriors; engine convention is
                # boost-correct (outer CW in y-up) — reverse each ring
                conv = [np.asarray(r[::-1], dtype=np.float64) for r in poly]
                if len(conv[0]) >= 4:
                    out.append(conv)
        else:
            out.append(rings)
    return out


def spherical_area(polys: list[list[np.ndarray]], lat_of=None) -> float:
    """Spherical multipolygon area in m², summed per polygon
    (osm_lua_processing.cpp:509-520). Rings are (lon, latp); latp is
    reprojected back to latitude first (reverse_project,
    osm_lua_processing.cpp:478-480). Outer CW ⇒ positive.

    Uses the spherical trapezoid excess formula (boost
    strategy::area::spherical).
    """
    from ..tilemath import latp2lat
    total = 0.0
    for rings in polys:
        poly_area = 0.0
        for r in rings:
            lon = np.radians(r[:, 0])
            lat = np.radians(latp2lat(r[:, 1]))
            tan_lat_half = np.tan(lat / 2.0)
            dlon = np.diff(lon)
            t1 = tan_lat_half[:-1]
            t2 = tan_lat_half[1:]
            excess = 2.0 * np.arctan2(np.tan(dlon / 2.0) * (t1 + t2), 1.0 + t1 * t2)
            # boost sums trapezoid excesses; CW (boost outer) yields positive
            poly_area += -float(np.sum(excess))
        total += poly_area * RADIUS_METER * RADIUS_METER
    return total


def haversine_length(ls: np.ndarray) -> float:
    """Haversine length in metres over a (lon, latp) linestring, latp
    reprojected to lat; float32 math mirrors boost haversine<float>
    (osm_lua_processing.cpp:521-531)."""
    from ..tilemath import latp2lat
    if len(ls) < 2:
        return 0.0
    lon = np.radians(ls[:, 0]).astype(np.float32)
    lat = np.radians(latp2lat(ls[:, 1])).astype(np.float32)
    dlat = lat[1:] - lat[:-1]
    dlon = lon[1:] - lon[:-1]
    a = (np.sin(dlat / np.float32(2.0)) ** 2 +
         np.cos(lat[:-1]) * np.cos(lat[1:]) * np.sin(dlon / np.float32(2.0)) ** 2)
    d = np.float32(2.0) * np.arcsin(np.sqrt(a)) * np.float32(RADIUS_METER)
    return float(np.sum(d, dtype=np.float64))


def centroid(rings_or_ls) -> tuple[float, float]:
    """Planar centroid (lon, latp). For a polygon (list of rings) uses the
    area-weighted formula over the outer ring minus inners; for a
    linestring, length-weighted midpoint average."""
    if isinstance(rings_or_ls, np.ndarray):
        ls = rings_or_ls
        seg = ls[1:] - ls[:-1]
        w = np.hypot(seg[:, 0], seg[:, 1])
        mid = (ls[1:] + ls[:-1]) / 2.0
        tw = float(np.sum(w))
        if tw == 0.0:
            return float(ls[:, 0].mean()), float(ls[:, 1].mean())
        return (float(np.sum(mid[:, 0] * w) / tw), float(np.sum(mid[:, 1] * w) / tw))
    cx = cy = aa = 0.0
    for r in rings_or_ls:
        x = r[:-1, 0]; y = r[:-1, 1]
        x2 = r[1:, 0]; y2 = r[1:, 1]
        cross = x * y2 - x2 * y
        a = float(np.sum(cross)) / 2.0
        if a == 0.0:
            continue
        cx += float(np.sum((x + x2) * cross)) / 6.0
        cy += float(np.sum((y + y2) * cross)) / 6.0
        aa += a
    if aa == 0.0:
        r = rings_or_ls[0]
        return float(r[:, 0].mean()), float(r[:, 1].mean())
    return cx / aa, cy / aa


# --- predicates ---------------------------------------------------------

def points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Vectorized even-odd ray cast: bool per point. Boundary points are
    implementation-defined (like boost within)."""
    x1 = ring[:-1, 0]; y1 = ring[:-1, 1]
    x2 = ring[1:, 0]; y2 = ring[1:, 1]
    px = np.asarray(px, dtype=np.float64)[:, None]
    py = np.asarray(py, dtype=np.float64)[:, None]
    cond = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    crossings = cond & (px < xint)
    return (np.sum(crossings, axis=1) % 2).astype(bool)


def points_in_polygon(px, py, rings: list[np.ndarray]) -> np.ndarray:
    """Even-odd over all rings (outer minus holes)."""
    px = np.atleast_1d(np.asarray(px, dtype=np.float64))
    py = np.atleast_1d(np.asarray(py, dtype=np.float64))
    inside = np.zeros(len(px), dtype=np.int64)
    for r in rings:
        inside += points_in_ring(px, py, r).astype(np.int64)
    return (inside % 2).astype(bool)


def points_on_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Exact boundary test: point lies on some segment of the ring
    (zero cross product + within the segment's bbox). Vectorized over
    points × segments."""
    x1 = ring[:-1, 0]; y1 = ring[:-1, 1]
    x2 = ring[1:, 0]; y2 = ring[1:, 1]
    px = np.asarray(px, dtype=np.float64)[:, None]
    py = np.asarray(py, dtype=np.float64)[:, None]
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    inbox = ((px >= np.minimum(x1, x2)) & (px <= np.maximum(x1, x2)) &
             (py >= np.minimum(y1, y2)) & (py <= np.maximum(y1, y2)))
    return ((cross == 0.0) & inbox).any(axis=1)


def points_in_polygon_inclusive(px, py, rings: list[np.ndarray]) -> np.ndarray:
    """boost geom::intersects(point, polygon) semantics: interior OR
    boundary (used by the J3 Intersects join)."""
    px = np.atleast_1d(np.asarray(px, dtype=np.float64))
    py = np.atleast_1d(np.asarray(py, dtype=np.float64))
    res = points_in_polygon(px, py, rings)
    for r in rings:
        res |= points_on_ring(px, py, r)
    return res


def segments_intersect(p1, p2, q1, q2) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) or (d1 == 0) or (d2 == 0)) and \
       ((d3 > 0) != (d4 > 0) or (d3 == 0) or (d4 == 0)):
        if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
            return True
        for (a, b, c, d) in ((q1, q2, p1, d1), (q1, q2, p2, d2),
                             (p1, p2, q1, d3), (p1, p2, q2, d4)):
            if d == 0 and _on_segment(a, b, c):
                return True
    return False


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c) -> bool:
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and
            min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def _rings_segments_hit(pts: np.ndarray, rings: list[np.ndarray]) -> bool:
    """Any segment of polyline pts intersects any ring segment (bbox-pruned)."""
    for r in rings:
        rminx = np.minimum(r[:-1, 0], r[1:, 0]); rmaxx = np.maximum(r[:-1, 0], r[1:, 0])
        rminy = np.minimum(r[:-1, 1], r[1:, 1]); rmaxy = np.maximum(r[:-1, 1], r[1:, 1])
        for i in range(len(pts) - 1):
            p1 = pts[i]; p2 = pts[i + 1]
            lo_x, hi_x = (p1[0], p2[0]) if p1[0] <= p2[0] else (p2[0], p1[0])
            lo_y, hi_y = (p1[1], p2[1]) if p1[1] <= p2[1] else (p2[1], p1[1])
            cand = np.nonzero((rminx <= hi_x) & (rmaxx >= lo_x) &
                              (rminy <= hi_y) & (rmaxy >= lo_y))[0]
            for j in cand:
                if segments_intersect(p1, p2, r[j], r[j + 1]):
                    return True
    return False


def polyline_intersects_polygon(pts: np.ndarray, rings: list[np.ndarray]) -> bool:
    """geom::intersects(linestring|ring, polygon): any vertex inside, any
    polygon vertex inside (when pts is a ring), or any edge crossing."""
    if points_in_polygon(pts[:, 0], pts[:, 1], rings).any():
        return True
    return _rings_segments_hit(pts, rings)


def polygon_intersects_polygon(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    if points_in_polygon(a[0][:, 0], a[0][:, 1], b).any():
        return True
    if points_in_polygon(b[0][:, 0], b[0][:, 1], a).any():
        return True
    return _rings_segments_hit(a[0], b)


def _segments_properly_cross(pts: np.ndarray, ring: np.ndarray) -> bool:
    """Any proper (interior-to-interior) crossing between the polyline's
    segments and the ring's edges?  Vectorized orientation test;
    touching at endpoints / collinear contact does not count."""
    a, b = pts[:-1], pts[1:]
    if len(ring) > 1 and (ring[0] == ring[-1]).all():
        c, d = ring[:-1], ring[1:]
    else:
        c, d = ring, np.roll(ring, -1, axis=0)
    if len(a) == 0 or len(c) == 0:
        return False

    def orient(p, q, r):
        # sign of cross((q-p), (r-p)); p,q (n,2) vs r (m,2) → (n,m)
        return np.sign((q[:, 0] - p[:, 0])[:, None] * (r[None, :, 1] - p[:, 1][:, None])
                       - (q[:, 1] - p[:, 1])[:, None] * (r[None, :, 0] - p[:, 0][:, None]))

    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a).T
    o4 = orient(c, d, b).T
    return bool(((o1 * o2 < 0) & (o3 * o4 < 0)).any())


def polyline_covered_by_polygon(pts: np.ndarray, rings: list[np.ndarray]) -> bool:
    """geom::covered_by(linestring, polygon) exact form
    (osm_lua_processing.cpp:393-407): every vertex inside-or-on, no
    segment properly crossing the boundary, and every segment midpoint
    inside-or-on (catches exits through a polygon vertex).  Replaces
    the round-1 vertex-only approximation, which passed lines whose
    segments leave a concave region between two interior vertices."""
    if not points_in_polygon_inclusive(pts[:, 0], pts[:, 1], rings).all():
        return False
    for ring in rings:
        if _segments_properly_cross(pts, ring):
            return False
    if len(pts) > 1:
        mids = 0.5 * (pts[:-1] + pts[1:])
        if not points_in_polygon_inclusive(mids[:, 0], mids[:, 1], rings).all():
            return False
    return True


def remove_spikes_ring(ring: np.ndarray) -> np.ndarray:
    """boost::geometry::remove_spikes on a closed ring: drop vertices
    where the boundary reverses along the same line (zero-area spike) —
    collinear with direction reversal. Iterates to a fixed point
    (removing one spike can expose another)."""
    r = ring[:-1] if len(ring) > 1 and (ring[0] == ring[-1]).all() else ring
    changed = True
    while changed and len(r) > 3:
        changed = False
        keep = np.ones(len(r), dtype=bool)
        n = len(r)
        for i in range(n):
            a = r[(i - 1) % n]
            b = r[i]
            c = r[(i + 1) % n]
            ab = b - a
            bc = c - b
            cross = ab[0] * bc[1] - ab[1] * bc[0]
            dot = ab[0] * bc[0] + ab[1] * bc[1]
            if cross == 0.0 and dot < 0.0:
                keep[i] = False
                changed = True
        if changed:
            r = r[keep]
    return close_ring(r)


def remove_spikes_mp(polys: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
    out = []
    for rings in polys:
        rr = [remove_spikes_ring(r) for r in rings]
        if len(rr[0]) >= 4:
            out.append([rr[0]] + [r for r in rr[1:] if len(r) >= 4])
    return out


def geom_bbox(arrs) -> tuple[float, float, float, float]:
    """(minx, miny, maxx, maxy) over ndarray or nested lists of them."""
    if isinstance(arrs, np.ndarray):
        return (float(arrs[:, 0].min()), float(arrs[:, 1].min()),
                float(arrs[:, 0].max()), float(arrs[:, 1].max()))
    boxes = [geom_bbox(a) for a in arrs]
    bx = np.array(boxes)
    return (float(bx[:, 0].min()), float(bx[:, 1].min()),
            float(bx[:, 2].max()), float(bx[:, 3].max()))
