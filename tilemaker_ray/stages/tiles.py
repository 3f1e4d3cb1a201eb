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

Output adds (tile_x, tile_y, z6x, z6y, large, min/max tile ranges) at
base zoom. With the default flags a large feature gets one row per z6
subtree of its range, and features with min_zoom <= 5 get extra rows
keyed to the LOWZOOM sentinel (the reference's low-zoom object list,
tile_data.h:86-89,189-221); the frozen tile-assignment fixture
(FIXTURES.md F4.1) records those rows. GeomMap turns both off.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import tilemath as tm
from ..geom import core as gc

LARGE_FEATURE_TILES = 16  # reference threshold (tile_data.cpp:461,527)
LOWZOOM = np.uint32(0xFFFFFFFF)  # sentinel z6x for the z0-5 render group


def assign_tiles_batch(batch: pa.Table, base_zoom: int = 14,
                       explode_large_by_z6: bool = True,
                       emit_lowzoom: bool = True) -> pa.Table:
    """map_batches(fn, batch_format="pyarrow") body: feature rows in,
    (feature x covered-tile) rows out. Point rows are vectorized; only
    line/polygon rows walk per feature.

    explode_large_by_z6 / emit_lowzoom shape the rows the frozen F4.1
    fixture records; the geometry map (stages/salted.py GeomMap) sets
    both False — it consumes the batch directly, so large features need
    one row and low-zoom tiles derive from the regular rows."""
    gt = batch.column("geom_type").to_numpy()
    lon = batch.column("lon").to_numpy()
    latp = batch.column("latp").to_numpy()
    minz = batch.column("min_zoom").to_numpy()
    geoms = batch.column("geom")

    shift = base_zoom - 6
    zmax_6 = (1 << 6) - 1

    idx_out: list[int] = []
    tx_out: list[int] = []
    ty_out: list[int] = []
    z6x_out: list[int] = []
    z6y_out: list[int] = []
    large_out: list[bool] = []
    rng_out: list[tuple[int, int, int, int]] = []

    def emit(i, tx, ty, z6x, z6y, large, rng=(0, 0, 0, 0)):
        idx_out.append(i)
        tx_out.append(tx)
        ty_out.append(ty)
        z6x_out.append(z6x)
        z6y_out.append(z6y)
        large_out.append(large)
        rng_out.append(rng)

    # points: fully vectorized (main rows + low-zoom sentinel rows)
    pt = gt == gc.POINT_
    if pt.any():
        pidx = np.nonzero(pt)[0]
        px = tm.lon2tilex(lon[pt], base_zoom).astype(np.int64)
        py = tm.latp2tiley(latp[pt], base_zoom).astype(np.int64)
        idx_out.extend(pidx.tolist())
        tx_out.extend(px.tolist())
        ty_out.extend(py.tolist())
        z6x_out.extend((px >> shift).tolist())
        z6y_out.extend((py >> shift).tolist())
        n = len(pidx)
        large_out.extend([False] * n)
        rng_out.extend([(0, 0, 0, 0)] * n)
        low = (minz[pidx] <= 5) if emit_lowzoom else np.zeros(len(pidx), dtype=bool)
        if low.any():
            lidx = pidx[low]
            idx_out.extend(lidx.tolist())
            tx_out.extend(px[low].tolist())
            ty_out.extend(py[low].tolist())
            m = len(lidx)
            z6x_out.extend([int(LOWZOOM)] * m)
            z6y_out.extend([0] * m)
            large_out.extend([False] * m)
            rng_out.extend([(0, 0, 0, 0)] * m)

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
            if explode_large_by_z6:
                for zx in range(rng[0] >> shift, (rng[1] >> shift) + 1):
                    for zy in range(rng[2] >> shift, (rng[3] >> shift) + 1):
                        if 0 <= zx <= zmax_6 and 0 <= zy <= zmax_6:
                            emit(i, rng[0], rng[2], zx, zy, True, rng)
            else:
                emit(i, rng[0], rng[2], rng[0] >> shift, rng[2] >> shift, True, rng)
            if emit_lowzoom and minz[i] <= 5:
                emit(i, rng[0], rng[2], int(LOWZOOM), 0, True, rng)
        else:
            z6_seen: set[tuple[int, int]] = set()
            for (x, y) in sorted(tile_set):
                emit(i, x, y, x >> shift, y >> shift, False)
                z6_seen.add((x >> shift, y >> shift))
            if emit_lowzoom and minz[i] <= 5:
                for (zx, zy) in sorted(z6_seen):
                    emit(i, (zx << shift), (zy << shift), int(LOWZOOM), 0, False)

    taken = batch.take(pa.array(idx_out, pa.int64()))
    rng_a = np.asarray(rng_out, dtype=np.uint32).reshape(-1, 4)
    out = taken.append_column("tile_x", pa.array(np.asarray(tx_out, np.uint32), pa.uint32()))
    out = out.append_column("tile_y", pa.array(np.asarray(ty_out, np.uint32), pa.uint32()))
    out = out.append_column("z6x", pa.array(np.asarray(z6x_out, np.uint32), pa.uint32()))
    out = out.append_column("z6y", pa.array(np.asarray(z6y_out, np.uint32), pa.uint32()))
    out = out.append_column("large", pa.array(large_out, pa.bool_()))
    out = out.append_column("min_tx", pa.array(rng_a[:, 0], pa.uint32()))
    out = out.append_column("max_tx", pa.array(rng_a[:, 1], pa.uint32()))
    out = out.append_column("min_ty", pa.array(rng_a[:, 2], pa.uint32()))
    out = out.append_column("max_ty", pa.array(rng_a[:, 3], pa.uint32()))
    return out
