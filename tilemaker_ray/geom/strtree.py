"""Packed STR bulk-loaded R-tree (numpy), the stand-in for the
reference's boost rtree<quadratic<128>> spatial-join index
(/root/reference/src/shp_mem_tiles.cpp:129-197, tile_data.h:365-367).

Built once on the driver, inside the spatial join's PolygonIndex, and
carried to the extraction tasks with it. Query = bbox intersects →
candidate indices; exact predicate runs on the candidates.
"""

from __future__ import annotations

import numpy as np

NODE_CAP = 16


class STRtree:
    def __init__(self, boxes: np.ndarray):
        """boxes: (n, 4) float64 [minx, miny, maxx, maxy]."""
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.n = len(boxes)
        if self.n == 0:
            self.levels = []
            self.order = np.empty(0, dtype=np.int64)
            return
        # STR packing: sort by cx into vertical slices, then by cy in-slice
        cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
        cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
        n_leaf = int(np.ceil(self.n / NODE_CAP))
        n_slices = int(np.ceil(np.sqrt(n_leaf)))
        per_slice = n_slices * NODE_CAP
        order = np.argsort(cx, kind="stable")
        for s in range(0, self.n, per_slice):
            sl = order[s:s + per_slice]
            order[s:s + per_slice] = sl[np.argsort(cy[sl], kind="stable")]
        self.order = order
        self.leaf_boxes = boxes[order]
        # build upper levels: each level is (m, 4) of child-group bboxes
        self.levels: list[np.ndarray] = []
        cur = self.leaf_boxes
        while len(cur) > NODE_CAP:
            m = int(np.ceil(len(cur) / NODE_CAP))
            nxt = np.empty((m, 4))
            for i in range(m):
                c = cur[i * NODE_CAP:(i + 1) * NODE_CAP]
                nxt[i] = (c[:, 0].min(), c[:, 1].min(), c[:, 2].max(), c[:, 3].max())
            self.levels.append(nxt)
            cur = nxt
        self.levels.reverse()  # root level first

    def query(self, minx: float, miny: float, maxx: float, maxy: float) -> np.ndarray:
        """Indices (into the original boxes array) whose bbox intersects
        the query box."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        # ranges of leaf indices to scan, narrowed level by level
        ranges = [(0, len(self.leaf_boxes))] if not self.levels else None
        if self.levels:
            # at level 0 (root), each node i covers a contiguous child range
            cand = [0] if len(self.levels[0]) == 1 else list(range(len(self.levels[0])))
            # descend: level k node i covers children [i*CAP, (i+1)*CAP) of level k+1
            for k, lev in enumerate(self.levels):
                b = lev[cand]
                hit = np.asarray(cand)[
                    (b[:, 0] <= maxx) & (b[:, 2] >= minx) &
                    (b[:, 1] <= maxy) & (b[:, 3] >= miny)]
                nxt_len = len(self.levels[k + 1]) if k + 1 < len(self.levels) else len(self.leaf_boxes)
                cand = []
                for i in hit:
                    lo = int(i) * NODE_CAP
                    hi = min(lo + NODE_CAP, nxt_len)
                    cand.extend(range(lo, hi))
                if not cand:
                    return np.empty(0, dtype=np.int64)
            ranges = [(i, i + 1) for i in cand]
        out = []
        for lo, hi in ranges:
            b = self.leaf_boxes[lo:hi]
            hit = ((b[:, 0] <= maxx) & (b[:, 2] >= minx) &
                   (b[:, 1] <= maxy) & (b[:, 3] >= miny))
            if hit.any():
                out.append(self.order[lo:hi][hit])
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    def query_many(self, boxes: np.ndarray) -> list[np.ndarray]:
        return [self.query(b[0], b[1], b[2], b[3]) for b in boxes]

    def nearest_point(self, px: float, py: float, k: int, point_mode=True) -> np.ndarray:
        """k nearest leaf boxes to a point by box distance (for kNN over
        point build sides the box distance IS the point distance).
        Simple expanding-radius search; exact for point build sides."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        b = self.leaf_boxes
        dx = np.maximum(np.maximum(b[:, 0] - px, px - b[:, 2]), 0.0)
        dy = np.maximum(np.maximum(b[:, 1] - py, py - b[:, 3]), 0.0)
        d = np.hypot(dx, dy)
        k = min(k, self.n)
        idx = np.argpartition(d, k - 1)[:k]
        idx = idx[np.argsort(d[idx], kind="stable")]
        return self.order[idx]
