"""Tile assignment (A1) — THE wide step.

Explodes each feature to the set of base-zoom tiles it touches
(/root/reference/src/tile_data.cpp:429-542): single tile for points
(vectorized), supercover Bresenham for lines
(coordinates_geom.cpp:101-189), ring walk + interior fill for polygons
(coordinates.cpp:52-67).

Skew control (tile_data.cpp:456-474): features covering >=
LARGE_FEATURE_TILES base-zoom tiles are NOT exploded per base tile.
Rows carry large=True and the base-tile bbox range; the geometry map
(stages/salted.py GeomMap) probes them per tile by range (J7) and lets
clipping discard bbox false positives — the same "lossy index cleaned
by clipping" semantics as the reference's R-tree (tile_data.h:28-39).

Output adds (tile_x, tile_y, large, min/max tile ranges) at
base zoom: one row per covered base tile, or one row for a large
feature. Low-zoom tiles need no rows of their own: GeomMap derives them
from these rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import tilemath as tm
from ..geom import core as gc

LARGE_FEATURE_TILES = 16  # reference threshold (tile_data.cpp:461,527)


def assign_tiles_batch(batch: pa.Table, base_zoom: int = 14) -> pa.Table:
    """Feature rows in, (feature x covered-tile) rows out. Point rows
    are vectorized; only line/polygon rows walk per feature."""
    gt = batch.column("geom_type").to_numpy()
    lon = batch.column("lon").to_numpy()
    latp = batch.column("latp").to_numpy()
    geoms = batch.column("geom")

    idx_out: list[int] = []
    tx_out: list[int] = []
    ty_out: list[int] = []
    large_out: list[bool] = []
    rng_out: list[tuple[int, int, int, int]] = []

    def emit(i, tx, ty, large, rng=(0, 0, 0, 0)):
        idx_out.append(i)
        tx_out.append(tx)
        ty_out.append(ty)
        large_out.append(large)
        rng_out.append(rng)

    # points: fully vectorized
    pt = gt == gc.POINT_
    if pt.any():
        pidx = np.nonzero(pt)[0]
        px = tm.lon2tilex(lon[pt], base_zoom).astype(np.int64)
        py = tm.latp2tiley(latp[pt], base_zoom).astype(np.int64)
        idx_out.extend(pidx.tolist())
        tx_out.extend(px.tolist())
        ty_out.extend(py.tolist())
        n = len(pidx)
        large_out.extend([False] * n)
        rng_out.extend([(0, 0, 0, 0)] * n)

    for i in np.nonzero(~pt)[0]:
        blob = geoms[i].as_py()
        kind, parts = gc.unpack(blob)
        tile_set: set[tuple[int, int]] = set()
        if kind == gc.KIND_MLS:
            for ls in parts:
                tm.insert_intermediate_tiles(ls[:, 0], ls[:, 1], base_zoom, tile_set)
        else:
            for rings in parts:
                poly_set: set[tuple[int, int]] = set()
                for r in rings:
                    tm.insert_intermediate_tiles(r[:, 0], r[:, 1], base_zoom, poly_set)
                tm.fill_covered_tiles(poly_set)
                tile_set |= poly_set
        if not tile_set:
            continue
        i = int(i)
        if len(tile_set) >= LARGE_FEATURE_TILES:
            xs = [t[0] for t in tile_set]
            ys = [t[1] for t in tile_set]
            rng = (min(xs), max(xs), min(ys), max(ys))
            emit(i, rng[0], rng[2], True, rng)
        else:
            for (x, y) in sorted(tile_set):
                emit(i, x, y, False)

    taken = batch.take(pa.array(idx_out, pa.int64()))
    rng_a = np.asarray(rng_out, dtype=np.uint32).reshape(-1, 4)
    out = taken.append_column("tile_x", pa.array(np.asarray(tx_out, np.uint32), pa.uint32()))
    out = out.append_column("tile_y", pa.array(np.asarray(ty_out, np.uint32), pa.uint32()))
    out = out.append_column("large", pa.array(large_out, pa.bool_()))
    out = out.append_column("min_tx", pa.array(rng_a[:, 0], pa.uint32()))
    out = out.append_column("max_tx", pa.array(rng_a[:, 1], pa.uint32()))
    out = out.append_column("min_ty", pa.array(rng_a[:, 2], pa.uint32()))
    out = out.append_column("max_ty", pa.array(rng_a[:, 3], pa.uint32()))
    return out
