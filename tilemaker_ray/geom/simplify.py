"""Simplification — ports of the reference's three simplify paths.

- douglas_peucker: boost::geometry::simplify semantics for linestrings
  (/root/reference/src/geom.cpp:117-122): classic DP, endpoints kept,
  point kept iff its distance to the chord >= max_distance (boost keeps
  points at distance > d; we mirror strict >=? boost uses > comparison
  on the farthest point: it keeps subdividing while max dist > d).
- simplify_polygon: the topology-preserving ring simplifier
  (/root/reference/src/geom.cpp:15-114): per-ring pass over successive
  point triples, dropping the middle point when (a) it is not on the
  ring's envelope, (b) the chord is closer than `distance` to every
  dropped point, and (c) replacing the two edges by the chord does not
  change the number of ring/outer segments the chord crosses (the
  rtree query-count check). Rings shorter than 4 points or with
  perimeter < 3*distance are dropped; inners merged via
  simplify_combine (append; the reference also unions touching rings —
  divergence: we append only, fixture-gated).
- visvalingam: exact port of /root/reference/src/visvalingam.cpp
  (tippecanoe-derived): min-heap of double-triangle areas, threshold =
  (2*max_distance)^2 /2 ... (threshold = max_distance^2 * 4, doubled
  areas), retains >= 2 (open), 3 (closed line), 4 (ring) points, and
  propagates the max of removed areas.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .core import close_ring, ring_signed_area


# --- Douglas-Peucker ----------------------------------------------------

def _seg_distance(px, py, x1, y1, x2, y2):
    """Distance from points to segment (vectorized)."""
    dx = x2 - x1
    dy = y2 - y1
    l2 = dx * dx + dy * dy
    if l2 == 0.0:
        return np.hypot(px - x1, py - y1)
    t = np.clip(((px - x1) * dx + (py - y1) * dy) / l2, 0.0, 1.0)
    return np.hypot(px - (x1 + t * dx), py - (y1 + t * dy))


def douglas_peucker(ls: np.ndarray, max_distance: float) -> np.ndarray:
    n = len(ls)
    if n < 3:
        return ls
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        px = ls[a + 1:b, 0]
        py = ls[a + 1:b, 1]
        d = _seg_distance(px, py, ls[a, 0], ls[a, 1], ls[b, 0], ls[b, 1])
        i = int(np.argmax(d))
        if d[i] > max_distance:
            m = a + 1 + i
            keep[m] = True
            stack.append((a, m))
            stack.append((m, b))
    return ls[keep]


# --- topology-preserving polygon simplify (geom.cpp:15-114) -------------

class _SegSet:
    """Mutable set of segments supporting bbox-intersects counting —
    stands in for the boost rtree<segment> in simplify_ring. Segment
    intersection test matches boost intersects(segment, segment)."""

    def __init__(self, rings: list[np.ndarray] | None = None):
        self.segs: list[tuple[float, float, float, float]] = []  # endpoints
        if rings:
            for r in rings:
                for i in range(len(r) - 1):
                    self.add(r[i, 0], r[i, 1], r[i + 1, 0], r[i + 1, 1])

    def add(self, x1, y1, x2, y2):
        self.segs.append((float(x1), float(y1), float(x2), float(y2)))

    def remove(self, x1, y1, x2, y2):
        key = (float(x1), float(y1), float(x2), float(y2))
        try:
            self.segs.remove(key)
        except ValueError:
            pass

    def count_intersecting(self, x1, y1, x2, y2) -> int:
        from .core import segments_intersect
        p1 = (x1, y1)
        p2 = (x2, y2)
        n = 0
        for (a, b, c, d) in self.segs:
            if segments_intersect(p1, p2, (a, b), (c, d)):
                n += 1
        return n


def _perimeter(ring: np.ndarray) -> float:
    d = np.diff(ring, axis=0)
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


def _comparable_point_seg(px, py, x1, y1, x2, y2) -> float:
    d = _seg_distance(np.asarray([px]), np.asarray([py]), x1, y1, x2, y2)[0]
    return d * d


def simplify_ring(ring: np.ndarray, distance: float, outer_set: _SegSet | None = None) -> np.ndarray:
    """Port of simplify_ring (geom.cpp:16-76)."""
    n = len(ring)
    if n < 4:
        return ring
    nodes = list(range(n))
    own = _SegSet([ring])
    minx, miny = float(ring[:, 0].min()), float(ring[:, 1].min())
    maxx, maxy = float(ring[:, 0].max()), float(ring[:, 1].max())

    pq = n - 2
    while pq > 0:
        pq -= 1
        entry = pq
        start = nodes[entry]
        middle = nodes[entry + 1]
        end = nodes[entry + 2]

        mx, my = ring[middle]
        if mx == minx or my == miny or mx == maxx or my == maxy:
            continue

        sx, sy = ring[start]
        ex, ey = ring[end]

        max_d = 0.0
        for i in range(start + 1, end):
            d = _comparable_point_seg(ring[i, 0], ring[i, 1], sx, sy, ex, ey)
            if d > max_d:
                max_d = d

        if math.sqrt(max_d) < distance:
            query_count = own.count_intersecting(sx, sy, ex, ey)
            if outer_set is not None:
                query_count += outer_set.count_intersecting(sx, sy, ex, ey)
            expected = min(4, len(nodes) - 1)
            if query_count == expected:
                del nodes[entry + 1]
                own.remove(sx, sy, mx, my)
                own.remove(mx, my, ex, ey)
                own.add(sx, sy, ex, ey)
    return ring[nodes]


def simplify_polygon(rings: list[np.ndarray], max_distance: float) -> list[np.ndarray] | None:
    """Port of simplify(Polygon) (geom.cpp:78-117). Returns rings (outer
    first) or None when the outer collapses."""
    outer_set = _SegSet([rings[0]])
    new_inners = []
    for inner in rings[1:]:
        ni = simplify_ring(inner, max_distance, outer_set)
        ni = ni[::-1]
        if len(ni) > 3 and _perimeter(ni) > 3 * max_distance:
            new_inners.append(ni[::-1])  # stored in natural order
    inners_set = _SegSet(new_inners)
    new_outer = simplify_ring(rings[0], max_distance, inners_set)
    if len(new_outer) > 3 and _perimeter(new_outer) > 3 * max_distance:
        return [new_outer] + new_inners
    return None


def simplify_multipolygon(polys: list[list[np.ndarray]], max_distance: float) -> list[list[np.ndarray]]:
    from .core import correct_polygon
    out = []
    for rings in polys:
        s = simplify_polygon(rings, max_distance)
        if s is not None:
            out.append(correct_polygon(s))
    return out


# --- Visvalingam (visvalingam.cpp) --------------------------------------

def _double_triangle_area(ls, i1, i2, i3) -> float:
    ax, ay = ls[i1]
    bx, by = ls[i2]
    cx, cy = ls[i3]
    return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def visvalingam(ls: np.ndarray, threshold: float, retain: int) -> np.ndarray:
    """Port of visvalingam() (visvalingam.cpp:153-240). `threshold` is
    already in squared-distance units; it is doubled internally."""
    n = len(ls)
    if n < 3:
        return ls
    threshold = threshold * 2.0
    area = [0.0] * n
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    nxt[-1] = -1
    alive = [True] * n
    area[0] = math.inf
    area[-1] = math.inf
    heap: list[tuple[float, int]] = [(math.inf, 0), (math.inf, n - 1)]
    for i in range(1, n - 1):
        area[i] = _double_triangle_area(ls, i - 1, i, i + 1)
        heap.append((area[i], i))
    heapq.heapify(heap)
    removed = 0
    while heap:
        a, cur = heapq.heappop(heap)
        if not alive[cur] or a != area[cur]:
            continue  # stale heap entry (mirrors heap.Update)
        if a > threshold:
            break
        if n - removed <= retain:
            break
        p = prev[cur]
        q = nxt[cur]
        alive[cur] = False
        nxt[p] = q
        prev[q] = p
        removed += 1
        if prev[p] != -1:
            na = max(_double_triangle_area(ls, prev[p], p, q), a)
            area[p] = na
            heapq.heappush(heap, (na, p))
        if nxt[q] != -1:
            na = max(_double_triangle_area(ls, p, q, nxt[q]), a)
            area[q] = na
            heapq.heappush(heap, (na, q))
    keep = [i for i in range(n) if alive[i]]
    return ls[keep]


def simplify_vis_linestring(ls: np.ndarray, max_distance: float) -> np.ndarray:
    if len(ls) < 3:
        return ls
    closed = ls[0, 0] == ls[-1, 0] and ls[0, 1] == ls[-1, 1]
    return visvalingam(ls, max_distance * max_distance * 4.0, 3 if closed else 2)


def simplify_vis_multipolygon(polys: list[list[np.ndarray]], max_distance: float) -> list[list[np.ndarray]]:
    from .core import correct_polygon
    thr = max_distance * max_distance * 4.0
    out = []
    for rings in polys:
        new_rings = [visvalingam(r, thr, 4) for r in rings]
        if len(new_rings[0]) >= 4:
            out.append(correct_polygon(new_rings))
    return out
