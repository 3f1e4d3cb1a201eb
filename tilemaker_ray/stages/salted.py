"""The two stages of the tile chain and the exchange key between them.

  GeomMap            feature batch → one row per (feature × tile × zoom):
                     tile assignment, clip → simplify → scale to tile ints
  add_partition_key  exchange key: a hash of the (zoom, mx, my)
                     macro-block of 16x16 tiles
  TileAssembler      one exchange group → MVT tiles: O3 sort, dedup,
                     feature_limit, combine_points / combine_below /
                     combine_polygons_below, MVT encode + compress

pipelines/chain.py wires them into the Ray chain every pipeline runs,
and into its in-process twin.

Reference semantics per stage: clip/simplify/scale
tile_worker.cpp:96-269 + tile_data.cpp:215-349 (GeomMap); collation
sort tile_data.cpp:397-424 and ProcessObjects merging
tile_worker.cpp:271-370 on tile-int coords (TileAssembler).
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import mvt
from ..config import Config, LayerDef, VISVALINGAM, default_config
from ..geom import core as gc
from ..geom.simplify import (douglas_peucker, simplify_multipolygon,
                             simplify_vis_linestring, simplify_vis_multipolygon)
from ..tilemath import TileBbox, _lat2latp_s, _latp2lat_s, meter2degp
from .render import (ClipCache, _Group, _dedup_consecutive,
                     _remove_parts_below, _ring_pts, reorder_multilinestring)
from .tiles import assign_tiles_batch


def pack_int_parts(parts: list[list[tuple[int, int]]]) -> bytes:
    """Pack scaled tile-int coordinate parts (lines: point lists; rings:
    closed point lists)."""
    out = [struct.pack("<I", len(parts))]
    for p in parts:
        a = np.asarray(p, dtype=np.int32).reshape(-1, 2)
        out.append(struct.pack("<I", a.shape[0]))
        out.append(a.tobytes())
    return b"".join(out)


def unpack_int_part_arrays(blob: bytes) -> list[np.ndarray]:
    """(m, 2) int32 views into a pack_int_parts blob, feeding the
    vectorized cross-feature geometry encoder (mvt.encode_features_np)
    with zero python-object materialization."""
    (n,) = struct.unpack_from("<I", blob, 0)
    off = 4
    parts = []
    for _ in range(n):
        (m,) = struct.unpack_from("<I", blob, off)
        off += 4
        parts.append(np.frombuffer(blob, dtype=np.int32, count=m * 2,
                                   offset=off).reshape(m, 2))
        off += m * 8
    return parts


class GeomMap:
    """Geometry map: a feature batch in, one row per (feature × tile ×
    zoom) out, carrying the feature clipped, simplified and scaled to
    tile ints (`pts`, a pack_int_parts blob) plus the assembler's sort
    keys.

    It needs no exchange before it: a feature's exploded (feature ×
    tile) rows all come from the input row that holds the feature, so
    they are already together in its batch, and the clip cache's
    parent-zoom reuse only needs a feature's tiles to be processed
    together. The chain's only exchange is the assembly groupby.

    Used as: feature_ds.map_batches(<GeomMap instance wrapper>,
    batch_format="pyarrow").
    """

    COLUMNS = ("zoom", "tile_x", "tile_y", "lidx", "zo_sort", "geom_type",
               "attrs", "feature_id", "layer", "pts")
    _PTS_HDR = struct.pack("<II", 1, 1)  # one part, one point

    def __init__(self, config: Config | None = None):
        self.config = config or default_config()
        self.layer_defs = self.config.layer_map()
        self.layer_order = {name: i for i, name in
                            enumerate(l.name for l in self.config.layers)}
        self.phys_order = self.config.physical_layer_order()
        self.sub_by_phys = {
            phys: [l for l in self.config.layers
                   if self.config.physical_layer(l.name) == phys]
            for phys in self.phys_order}
        # bbox and latitude params depend only on (x, y, zoom) / (zoom,
        # y); hot-cluster tiles repeat across features and batches
        self._bbox_cache: dict[tuple, TileBbox] = {}
        self._ypar_cache: dict[tuple, tuple] = {}

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        assigned = assign_tiles_batch(batch, self.config.base_zoom,
                                      explode_large_by_z6=False,
                                      emit_lowzoom=False)
        df = assigned.to_pandas()
        self._rows = {k: [] for k in self.COLUMNS}
        df = self._emit_points_fast(df)
        if len(df):
            self._emit_tiles(df)
        r = self._rows
        tx = np.array(r["tile_x"], dtype=np.uint32)
        ty = np.array(r["tile_y"], dtype=np.uint32)
        out = pd.DataFrame({
            "zoom": np.array(r["zoom"], dtype=np.uint8),
            "tile_x": tx,
            "tile_y": ty,
            # assembly macro-block (16x16 tiles), hashed into the pk
            "mx": tx >> np.uint32(4),
            "my": ty >> np.uint32(4),
            "lidx": np.array(r["lidx"], dtype=np.int64),
            "zo_sort": np.array(r["zo_sort"], dtype=np.int64),
            "geom_type": np.array(r["geom_type"], dtype=np.uint8),
            "attrs": pd.Series(r["attrs"], dtype=object),
            "feature_id": np.array(r["feature_id"], dtype=np.uint64),
            "layer": pd.Series(r["layer"], dtype=object),
            "pts": pd.Series(r["pts"], dtype=object),
        })
        if self.config.bbox is not None:
            out = out[bbox_mask(out, self.config)]
        return out

    # --- generic per-tile path ------------------------------------------

    def _emit_tiles(self, df: pd.DataFrame) -> None:
        """Visit every (zoom, tile) the rows cover, zooms ascending so
        the clip cache gets parent-zoom reuse. Per zoom, numpy
        run-slicing over a lexsorted (tile_x, tile_y) order groups the
        rows by tile; large features (one row with a base-tile range)
        are added to every tile of their range, and clipping drops the
        bbox false positives (tile_data.h:28-39 semantics)."""
        state = ClipCache()
        g = _Group(df)
        base = self.config.base_zoom
        hi = (1 << base) - 1
        small_idx = np.nonzero(~g.large)[0]
        large_idx = np.nonzero(g.large)[0]
        for zoom in range(self.config.start_zoom, self.config.end_zoom + 1):
            vis_small = small_idx[g.min_zoom[small_idx] <= zoom]
            if zoom <= base:
                shift = base - zoom
                up = 0
                ztx = g.tx[vis_small] >> shift
                zty = g.ty[vis_small] >> shift
            else:
                # zoom > base: LOSSY derivation from the base-zoom cover
                # (tile_coordinates_set.h:31-45 z15+ semantics) — every
                # child of a covered base tile is a candidate; tiles
                # whose features clip to nothing emit no rows
                shift = 0
                up = zoom - base
                ztx = g.tx[vis_small]
                zty = g.ty[vis_small]
            order = np.lexsort((zty, ztx))
            ztx, zty = ztx[order], zty[order]
            vis_sorted = vis_small[order]
            tile_map = {}
            if len(ztx):
                boundary = np.nonzero((np.diff(ztx) != 0) | (np.diff(zty) != 0))[0] + 1
                starts = np.concatenate([[0], boundary])
                ends = np.concatenate([boundary, [len(ztx)]])
                if up == 0:
                    tile_map = {(int(ztx[s]), int(zty[s])): vis_sorted[s:e]
                                for s, e in zip(starts, ends)}
                else:
                    kk = 1 << up
                    for s, e in zip(starts, ends):
                        bx, by = int(ztx[s]) << up, int(zty[s]) << up
                        idxs = vis_sorted[s:e]
                        for dx in range(kk):
                            for dy in range(kk):
                                tile_map[(bx + dx, by + dy)] = idxs
            vis_large = large_idx[g.min_zoom[large_idx] <= zoom]
            for i in vis_large:
                if up == 0:
                    x0 = g.rng[i, 0] >> shift
                    x1 = min(g.rng[i, 1], hi) >> shift
                    y0 = g.rng[i, 2] >> shift
                    y1 = min(g.rng[i, 3], hi) >> shift
                else:
                    x0 = g.rng[i, 0] << up
                    x1 = ((min(g.rng[i, 1], hi) + 1) << up) - 1
                    y0 = g.rng[i, 2] << up
                    y1 = ((min(g.rng[i, 3], hi) + 1) << up) - 1
                for xx in range(x0, x1 + 1):
                    for yy in range(y0, y1 + 1):
                        key = (xx, yy)
                        cur = tile_map.get(key)
                        tile_map[key] = (np.concatenate([cur, [i]]) if cur is not None
                                         else np.asarray([i], dtype=np.int64))
            for (x, y) in sorted(tile_map):
                self._emit_tile(g, tile_map[(x, y)], zoom, x, y, state)

    def _collate(self, g: _Group, idx: np.ndarray) -> list[int]:
        """getObjectsForTile sort+dedup (tile_data.cpp:397-424)."""
        recs = []
        seen = set()
        for i in idx.tolist():
            key = (int(g.fid[i]), g.layer[i])
            if key in seen:
                continue
            seen.add(key)
            recs.append(i)

        def sort_key(i):
            lname = g.layer[i]
            lo = self.layer_order.get(lname, 255)
            ld = self.layer_defs.get(lname)
            zo = g.z_order[i] if (ld and ld.z_order_ascending) else -g.z_order[i]
            return (lo, zo, g.geom_type[i], g.attrs[i], g.fid[i])
        recs.sort(key=sort_key)
        return recs

    def _zoom_params(self, ld: LayerDef, zoom: int, tile_y: int):
        """tile_worker.cpp:428-442 (scalar math — hot per tile/layer)."""
        simplify_level = 0.0
        filter_area = 0.0
        latp = 0.0
        if zoom < ld.simplify_below or zoom < ld.filter_below:
            latp = ((180.0 - math.ldexp(tile_y, -zoom) * 360.0)
                    + (180.0 - math.ldexp(tile_y + 1, -zoom) * 360.0)) / 2.0
        if zoom < ld.simplify_below:
            if ld.simplify_length > 0:
                simplify_level = float(meter2degp(ld.simplify_length, latp))
            else:
                simplify_level = ld.simplify_level
            simplify_level *= ld.simplify_ratio ** ((ld.simplify_below - 1) - zoom)
        if zoom < ld.filter_below:
            filter_area = float(meter2degp(ld.filter_area, latp)) * 2.0 ** ((ld.filter_below - 1) - zoom)
        return simplify_level, filter_area

    def _get_bbox(self, x, y, zoom) -> TileBbox:
        cache = self._bbox_cache
        bbox = cache.get((x, y, zoom))
        if bbox is None:
            if len(cache) >= 65536:
                cache.clear()
            bbox = cache[(x, y, zoom)] = TileBbox(
                x, y, zoom, self.config.high_resolution)
        return bbox

    def _emit_tile(self, g: _Group, idx: np.ndarray, zoom: int, x: int, y: int,
                   state: ClipCache) -> None:
        if len(idx) == 1:
            # single-feature tile (the common case: exploded rows
            # average ~1.2 features per tile visit) — dedup/sort and
            # the per-physical-layer scan are no-ops, so skip straight
            # to emission. Equivalent: _collate of one row is itself,
            # the feature_limit pre-trim cannot bind on one row, and
            # only the row's own layer would have a non-empty sel.
            i = int(idx[0])
            ld = self.layer_defs.get(g.layer[i])
            if ld is None or zoom < ld.minzoom or zoom > ld.maxzoom:
                return
            simplify_level, filter_area = self._zoom_params(ld, zoom, y)
            self._emit_objects(g, [i], ld, zoom, x, y,
                               self._get_bbox(x, y, zoom), state,
                               simplify_level, filter_area)
            return
        recs = self._collate(g, idx)
        bbox = self._get_bbox(x, y, zoom)
        for phys in self.phys_order:
            for ld in self.sub_by_phys[phys]:
                if zoom < ld.minzoom or zoom > ld.maxzoom:
                    continue
                sel = [i for i in recs if g.layer[i] == ld.name]
                if not sel:
                    continue
                # pre-trim: a correct superset of the feature_limit the
                # assembler applies over the whole tile
                if 0 < ld.feature_limit < len(sel) and zoom < ld.feature_limit_below:
                    sel = sel[:ld.feature_limit]
                simplify_level, filter_area = self._zoom_params(ld, zoom, y)
                self._emit_objects(g, sel, ld, zoom, x, y, bbox, state,
                                   simplify_level, filter_area)

    def _emit_points_vec(self, g: _Group, idx: np.ndarray, ld, zoom, x, y, bbox):
        """Vectorized point emission for one (tile, layer): bounds
        mask + one scale_latplon call + sliced blob packing. Emitted
        values are bit-identical to a per-point loop — same float
        expressions elementwise."""
        lon = g.lon[idx]
        latp = g.latp[idx]
        ok = ((bbox.clip_minx <= lon) & (lon <= bbox.clip_maxx) &
              (bbox.clip_miny <= latp) & (latp <= bbox.clip_maxy))
        if not ok.all():
            idx = idx[ok]
            if len(idx) == 0:
                return
            lon = lon[ok]
            latp = latp[ok]
        xs, ys = bbox.scale_latplon(latp, lon)
        raw = np.column_stack([xs, ys]).astype("<i4").tobytes()
        hdr = self._PTS_HDR
        n = len(idx)
        r = self._rows
        r["zoom"].extend([zoom] * n)
        r["tile_x"].extend([x] * n)
        r["tile_y"].extend([y] * n)
        lidx = self.layer_order.get(ld.name, 255)
        r["lidx"].extend([lidx] * n)
        zo = (g.z_order[idx] if ld.z_order_ascending
              else -g.z_order[idx])
        r["zo_sort"].extend(zo.tolist())
        r["geom_type"].extend([int(gc.POINT_)] * n)
        r["attrs"].extend(g.attrs[idx].tolist())
        r["feature_id"].extend(int(v) for v in g.fid[idx])
        r["layer"].extend([ld.name] * n)
        r["pts"].extend(hdr + raw[8 * k:8 * k + 8] for k in range(n))

    def _emit_objects(self, g: _Group, sel, ld, zoom, x, y, bbox, state,
                      simplify_level, filter_area):
        """writeMultiLinestring / writeMultiPolygon (tile_worker.cpp:96-269)
        up to the tile-int coordinates: clip, simplify, scale; the MVT
        encoding is the assembler's."""
        sel_arr = np.asarray(sel, dtype=np.int64)
        vis = sel_arr[g.min_zoom[sel_arr] <= zoom]
        pts_idx = vis[g.geom_type[vis] == gc.POINT_]
        if len(pts_idx):
            self._emit_points_vec(g, pts_idx, ld, zoom, x, y, bbox)
            if len(pts_idx) == len(vis):
                return
        for i in vis[g.geom_type[vis] != gc.POINT_].tolist():
            gt = g.geom_type[i]
            if gt in (gc.LINESTRING_, gc.MULTILINESTRING_):
                mls = state.lines(g, i, bbox)
                if simplify_level > 0:
                    if ld.simplify_algo == VISVALINGAM:
                        mls = [simplify_vis_linestring(ls, simplify_level) for ls in mls]
                    else:
                        mls = [douglas_peucker(ls, simplify_level) for ls in mls]
                parts = []
                for ls in mls:
                    if len(ls) <= 1:
                        continue
                    xs, ys = bbox.scale_latplon(ls[:, 1], ls[:, 0])
                    p = _dedup_consecutive(xs, ys)
                    if len(p) > 1:
                        parts.append(p)
                if not parts:
                    continue
                pts_blob = pack_int_parts(parts)
            else:
                mp = state.polygons(g, i, bbox)
                if filter_area > 0.0:
                    mp = _remove_parts_below(mp, filter_area)
                # scale to the int grid (with scaleRing backtracking),
                # then simplify in scaled units
                scaled = []
                for rings in mp:
                    outer = bbox.scale_ring(rings[0][:, 0], rings[0][:, 1])
                    if len(outer) < 4:
                        continue
                    poly = [gc.close_ring(outer.astype(np.float64))]
                    for rr in rings[1:]:
                        sr = bbox.scale_ring(rr[:, 0], rr[:, 1])
                        if len(sr) >= 4:
                            poly.append(gc.close_ring(sr.astype(np.float64)))
                    scaled.append(poly)
                if simplify_level > 0 and scaled:
                    lvl = simplify_level / bbox.xscale
                    if ld.simplify_algo == VISVALINGAM:
                        scaled = simplify_vis_multipolygon(scaled, lvl)
                    else:
                        scaled = simplify_multipolygon(scaled, lvl)
                    # writeMultiPolygon runs remove_spikes after simplify
                    scaled = gc.remove_spikes_mp(scaled)
                rings_out = []
                for poly in scaled:
                    op = _ring_pts(poly[0])
                    if op is None:
                        continue
                    rings_out.append(op)
                    for rr in poly[1:]:
                        pr = _ring_pts(rr)
                        if pr is not None:
                            rings_out.append(pr)
                if not rings_out:
                    continue
                pts_blob = pack_int_parts(rings_out)
            lidx = self.layer_order.get(g.layer[i], 255)
            zo = g.z_order[i] if ld.z_order_ascending else -g.z_order[i]
            r = self._rows
            r["zoom"].append(zoom)
            r["tile_x"].append(x)
            r["tile_y"].append(y)
            r["lidx"].append(lidx)
            r["zo_sort"].append(int(zo))
            r["geom_type"].append(int(gt))
            r["attrs"].append(g.attrs[i])
            r["feature_id"].append(int(g.fid[i]))
            r["layer"].append(g.layer[i])
            r["pts"].append(pts_blob)

    # --- cross-tile vectorized point emission --------------------------

    def _y_params(self, zoom: int, y: int):
        """Exact latitude-axis tile params per (zoom, y), memoized.

        The latp→lat→latp roundtrip goes through libm, where a numpy
        vectorization is not guaranteed bit-identical to the scalar
        TileBbox code — so each distinct (zoom, y) is computed once with
        the IDENTICAL scalar expressions and scattered to rows.
        Returns (max_latp, yscale, clip_miny, clip_maxy).
        """
        cache = self._ypar_cache
        hit = cache.get((zoom, y))
        if hit is None:
            min_lat = _latp2lat_s(180.0 - math.ldexp(y + 1, -zoom) * 360.0)
            max_lat = _latp2lat_s(180.0 - math.ldexp(y, -zoom) * 360.0)
            min_latp = _lat2latp_s(min_lat)
            max_latp = _lat2latp_s(max_lat)
            ymargin = (max_latp - min_latp) / 200.0
            extent = 8192 if self.config.high_resolution else 4096
            yscale = (max_latp - min_latp) / float(extent)
            if len(cache) >= 1 << 20:
                cache.clear()
            hit = cache[(zoom, y)] = (max_latp, yscale,
                                      min_latp - ymargin, max_latp + ymargin)
        return hit

    def _emit_points_fast(self, df: pd.DataFrame) -> pd.DataFrame:
        """Emit point rows for ALL tiles and zooms in one numpy pass per
        zoom, bypassing the per-tile loop (which averages ~1 feature per
        visit on point-heavy web workloads). Returns the residual frame
        for the generic per-tile path.

        Value-identical to the scalar path: x-axis tile params are pure
        power-of-two arithmetic evaluated in the exact TileBbox
        expression order (elementwise IEEE ops match the scalar ops),
        y-axis params come from _y_params (identical scalar code,
        memoized per (zoom, y)), and the emitted ints use the same
        floor((v - origin) / scale) expressions as scale_latplon.

        Semantics preserved from the per-tile loop:
        - (fid, layer) keep-first-by-input-order dedup per tile
          (_collate) via a lexsort whose final tiebreaker is the input
          position;
        - the per-(tile, layer) feature_limit pre-trim: groups that
          exceed the limit fall back to the scalar per-tile path (the
          trim needs the attrs-ordered top-N; such tiles are the few
          low-zoom ones);
        - layer min/max-zoom gates and per-row min_zoom.

        Eligibility mirrors the loop's guards: known layers that are
        point-only within this batch (dedup and feature_limit are
        per-layer-within-tile, so a fully-fast-path layer is unaffected
        by other layers' rows), non-large rows, and
        end_zoom <= base_zoom (the lossy z>base derivation stays on the
        generic path). Ineligible rows pass through untouched.
        """
        if self.config.end_zoom > self.config.base_zoom or not len(df):
            return df
        gt = df["geom_type"].to_numpy(dtype=np.int64)
        pmask = gt == int(gc.POINT_)
        if not pmask.any():
            return df
        layer_arr = df["layer"].to_numpy(dtype=object)
        large = df["large"].to_numpy(dtype=bool)
        bad_layers = set(layer_arr[~pmask])
        codes, uniq = pd.factorize(layer_arr)
        nu = len(uniq)
        ok_layer = np.zeros(nu, dtype=bool)
        l_minz = np.zeros(nu, dtype=np.int64)
        l_maxz = np.zeros(nu, dtype=np.int64)
        l_lim = np.zeros(nu, dtype=np.int64)
        l_flb = np.zeros(nu, dtype=np.int64)
        l_sign = np.ones(nu, dtype=np.int64)
        l_lidx = np.full(nu, 255, dtype=np.int64)
        for u, name in enumerate(uniq):
            ld = self.layer_defs.get(name)
            if ld is None or name in bad_layers:
                continue
            ok_layer[u] = True
            l_minz[u] = ld.minzoom
            l_maxz[u] = ld.maxzoom
            l_lim[u] = ld.feature_limit
            l_flb[u] = ld.feature_limit_below
            l_sign[u] = 1 if ld.z_order_ascending else -1
            l_lidx[u] = self.layer_order.get(name, 255)
        el = pmask & ~large & ok_layer[codes]
        if not el.any():
            return df
        pos = np.nonzero(el)[0]  # df positions, input order
        c = codes[pos]
        fid = df["feature_id"].to_numpy(dtype=np.uint64)[pos]
        minz = df["min_zoom"].to_numpy(dtype=np.int64)[pos]
        zo = df["z_order"].to_numpy(dtype=np.int64)[pos] * l_sign[c]
        lon = df["lon"].to_numpy(dtype=np.float64)[pos]
        latp = df["latp"].to_numpy(dtype=np.float64)[pos]
        tx = df["tile_x"].to_numpy(dtype=np.int64)[pos]
        ty = df["tile_y"].to_numpy(dtype=np.int64)[pos]
        attrs = df["attrs"].to_numpy(dtype=object)[pos]
        lidx = l_lidx[c]
        base = self.config.base_zoom
        extent = 8192 if self.config.high_resolution else 4096
        r = self._rows
        hdr = self._PTS_HDR
        g_full = None
        state = None
        for zoom in range(self.config.start_zoom, self.config.end_zoom + 1):
            m = (minz <= zoom) & (l_minz[c] <= zoom) & (zoom <= l_maxz[c])
            if not m.any():
                continue
            sub = np.nonzero(m)[0]
            shift = base - zoom
            zx = tx[sub] >> shift
            zy = ty[sub] >> shift
            # sort by (tile, layer, fid) with input position last so
            # duplicate (tile, layer, fid) runs keep their first row
            order = np.lexsort((sub, fid[sub], lidx[sub], zy, zx))
            zx, zy = zx[order], zy[order]
            so = sub[order]
            sf = fid[so]
            sl = lidx[so]
            if len(so) > 1:
                dup = ((np.diff(zx) == 0) & (np.diff(zy) == 0)
                       & (np.diff(sl) == 0) & (np.diff(sf) == 0))
                keep = np.concatenate([[True], ~dup])
                zx, zy, so, sl = zx[keep], zy[keep], so[keep], sl[keep]
            n = len(so)
            # feature_limit: contiguous (tile, layer) runs of the
            # deduped rows; over-limit runs go to the scalar tile path
            tb = np.nonzero((np.diff(zx) != 0) | (np.diff(zy) != 0)
                            | (np.diff(sl) != 0))[0] + 1
            starts = np.concatenate([[0], tb])
            ends = np.concatenate([tb, [n]])
            rl = l_lim[c[so[starts]]]
            rf = l_flb[c[so[starts]]]
            over = (rl > 0) & (ends - starts > rl) & (zoom < rf)
            if over.any():
                emit = np.ones(n, dtype=bool)
                if g_full is None:
                    g_full = _Group(df)
                    state = ClipCache()
                for k in np.nonzero(over)[0]:
                    s, e = starts[k], ends[k]
                    emit[s:e] = False
                    self._emit_tile(g_full, pos[so[s:e]], zoom,
                                    int(zx[s]), int(zy[s]), state)
                zx, zy, so, sl = zx[emit], zy[emit], so[emit], sl[emit]
                if len(so) == 0:
                    continue
            # x-axis params: exact TileBbox expression order
            min_lon = zx.astype(np.float64) * (2.0 ** -zoom) * 360.0 - 180.0
            max_lon = (zx + 1).astype(np.float64) * (2.0 ** -zoom) * 360.0 - 180.0
            xmargin = (max_lon - min_lon) / 200.0
            xscale = (max_lon - min_lon) / float(extent)
            clip_minx = min_lon - xmargin
            clip_maxx = max_lon + xmargin
            uy, inv = np.unique(zy, return_inverse=True)
            pars = np.empty((len(uy), 4), dtype=np.float64)
            for k, yy in enumerate(uy.tolist()):
                pars[k] = self._y_params(zoom, yy)
            max_latp = pars[inv, 0]
            yscale = pars[inv, 1]
            clip_miny = pars[inv, 2]
            clip_maxy = pars[inv, 3]
            plon = lon[so]
            platp = latp[so]
            okm = ((clip_minx <= plon) & (plon <= clip_maxx)
                   & (clip_miny <= platp) & (platp <= clip_maxy))
            if not okm.all():
                zx, zy, so, sl = zx[okm], zy[okm], so[okm], sl[okm]
                plon, platp = plon[okm], platp[okm]
                min_lon, xscale = min_lon[okm], xscale[okm]
                max_latp, yscale = max_latp[okm], yscale[okm]
            n = len(so)
            if n == 0:
                continue
            xs = np.floor((plon - min_lon) / xscale)
            ys = np.floor((max_latp - platp) / yscale)
            raw = np.column_stack([xs, ys]).astype("<i4").tobytes()
            r["zoom"].extend([zoom] * n)
            r["tile_x"].extend(zx.tolist())
            r["tile_y"].extend(zy.tolist())
            r["lidx"].extend(sl.tolist())
            r["zo_sort"].extend(zo[so].tolist())
            r["geom_type"].extend([int(gc.POINT_)] * n)
            r["attrs"].extend(attrs[so].tolist())
            r["feature_id"].extend(int(v) for v in fid[so])
            r["layer"].extend(layer_arr[pos[so]].tolist())
            r["pts"].extend(hdr + raw[8 * k:8 * k + 8] for k in range(n))
        return df[~el]


def bbox_mask(df: pd.DataFrame, config: Config) -> np.ndarray:
    """Vectorized --bbox tile filter: keep rows whose (zoom, tile_x,
    tile_y) INTERSECTS the config.bbox clipping box (the reference's
    --bbox semantics: the generated tileset is restricted to the box's
    per-zoom tile cover, options_parser.cpp:18-46 →
    tile_coordinates_set)."""
    from ..tilemath import bbox_tile_ranges
    ranges = bbox_tile_ranges(config.bbox, config.start_zoom,
                              config.end_zoom)
    z = df["zoom"].to_numpy()
    tx = df["tile_x"].to_numpy().astype(np.int64)
    ty = df["tile_y"].to_numpy().astype(np.int64)
    mask = np.zeros(len(df), dtype=bool)
    for zoom, (x0, x1, y0, y1) in ranges.items():
        m = z == zoom
        if not m.any():
            continue
        mask[m] = ((tx[m] >= x0) & (tx[m] <= x1)
                   & (ty[m] >= y0) & (ty[m] <= y1))
    return mask


def add_partition_key(df: pd.DataFrame, num_partitions: int) -> pd.DataFrame:
    """Exchange key for the assembly: a single int hash of (zoom, mx, my).

    Grouping by one small-int column makes the all-to-all exchange a
    cheap low-cardinality sort (measured 7.4s vs 17.1s for the 3-key
    sort at sf0.1/32cpus); tiles of one macro-block always share a pk,
    and the assembler handles arbitrary mixtures inside a group."""
    key = (df["zoom"].astype(np.int64) * 1000003
           + df["mx"].astype(np.int64) * 7919
           + df["my"].astype(np.int64))
    df = df.copy()
    df["pk"] = ((key * 2654435761) % (1 << 31)) % num_partitions
    return df


def default_num_partitions() -> int:
    import ray
    n = int(ray.cluster_resources().get("CPU", 8))
    return max(64, n * 4)


# assembly exchange sizing (VERDICT r2 #4): groups are pandas-materialized by
# map_groups, so the partition count must come from DATA volume, not
# CPU count — data/P per group explodes at 100 TB with a fixed P.
TARGET_GROUP_BYTES = 32 << 20  # max in-memory bytes an assembly group should hold
EXPLODE_FACTOR = 16.0          # exploded in-memory bytes / compressed input
                               # bytes (measured 14.2x at sf0.01; rounded up)
MAX_PARTITIONS = 1 << 20       # ~the macro-block key space: beyond this a
                               # partition IS a single (zoom, mx, my) whose
                               # size feature_limit already bounds


def data_num_partitions(input_bytes: int | None = None) -> int:
    """Partition count from estimated exploded bytes / target group
    size, floored by the CPU-derived count (small inputs) and capped at
    the macro-block key space (huge inputs)."""
    floor = default_num_partitions()
    if not input_bytes:
        return floor
    est = int(input_bytes * EXPLODE_FACTOR / TARGET_GROUP_BYTES)
    return min(MAX_PARTITIONS, max(floor, est))


def dir_input_bytes(path: str) -> int:
    """Total bytes of the parquet files under a directory (or one file)."""
    import os
    if os.path.isfile(path):
        return os.path.getsize(path)
    try:
        return sum(os.path.getsize(os.path.join(path, f))
                   for f in os.listdir(path) if not f.startswith("_"))
    except OSError:
        return 0


class TileAssembler:
    """Assembly: one exchange group of GeomMap rows → one row per tile —
    final sort, dedup, feature_limit, point/line/polygon merging, MVT
    encoding, compression."""

    def __init__(self, config: Config | None = None, compress: bool | None = None):
        self.config = config or default_config()
        self.layer_defs = self.config.layer_map()
        self.layer_order = {name: i for i, name in
                            enumerate(l.name for l in self.config.layers)}
        self.phys_order = self.config.physical_layer_order()
        self.sub_by_phys = {
            phys: [l for l in self.config.layers
                   if self.config.physical_layer(l.name) == phys]
            for phys in self.phys_order}
        self.compress = (self.config.compress != "none") if compress is None else compress
        self._attr_cache: dict[str, list] = {}

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        """One MACRO-BLOCK group: (zoom, tile_x>>4, tile_y>>4) — up to
        256 tiles per call, looped internally; per-group call overhead
        at ~500k tiles would otherwise dominate."""
        # single lexsort covering (zoom, tile, O3-comparator) → contiguous
        # runs; the group may span zooms (any coarse exchange key works)
        df = df.sort_values(["zoom", "tile_x", "tile_y", "lidx", "zo_sort",
                             "geom_type", "attrs", "feature_id"], kind="stable")
        df = df.drop_duplicates(subset=["zoom", "tile_x", "tile_y", "lidx",
                                        "zo_sort", "geom_type", "attrs", "feature_id"])
        zm = df["zoom"].to_numpy(dtype=np.int64)
        tx = df["tile_x"].to_numpy(dtype=np.int64)
        ty = df["tile_y"].to_numpy(dtype=np.int64)
        boundary = np.nonzero((np.diff(zm) != 0) | (np.diff(tx) != 0) |
                              (np.diff(ty) != 0))[0] + 1
        starts = np.concatenate([[0], boundary]) if len(tx) else np.array([], dtype=np.int64)
        ends = np.concatenate([boundary, [len(tx)]]) if len(tx) else np.array([], dtype=np.int64)
        out = {"zoom": [], "tile_x": [], "tile_y": [], "mvt": [],
               "n_features": [], "n_bytes": []}
        cols = {c: df[c].to_numpy(dtype=object) if df[c].dtype == object
                else df[c].to_numpy() for c in
                ("geom_type", "zo_sort", "attrs", "feature_id", "pts", "layer")}
        for s, e in zip(starts, ends):
            blob, nfeat = self._assemble_tile(cols, int(s), int(e), int(zm[s]))
            if blob is None:
                continue
            out["zoom"].append(int(zm[s]))
            out["tile_x"].append(int(tx[s]))
            out["tile_y"].append(int(ty[s]))
            out["mvt"].append(blob)
            out["n_features"].append(nfeat)
            out["n_bytes"].append(len(blob))
        return pd.DataFrame({
            "zoom": np.array(out["zoom"], dtype=np.uint8),
            "tile_x": np.array(out["tile_x"], dtype=np.uint32),
            "tile_y": np.array(out["tile_y"], dtype=np.uint32),
            "mvt": pd.Series(out["mvt"], dtype=object),
            "n_features": np.array(out["n_features"], dtype=np.int64),
            "n_bytes": np.array(out["n_bytes"], dtype=np.int64),
        })

    # below this many vertices in a tile, per-feature scalar encoding
    # beats the vectorized batch encoder (numpy dispatch overhead —
    # measured crossover ≈ a few hundred vertices)
    NP_ENCODE_MIN_VERTS = 384

    def _assemble_tile(self, cols: dict, s: int, e: int, zoom: int):
        extent = 8192 if self.config.high_resolution else 4096
        tb = mvt.TileBuilder()
        nfeat = 0
        layer_arr = cols["layer"][s:e]
        pending: list = []  # (lb, geom_const, feat_kind, parts, tags, fid)
        for phys in self.phys_order:
            lb = tb.layer(phys, self.config.mvt_version, extent)
            for ld in self.sub_by_phys[phys]:
                if zoom < ld.minzoom or zoom > ld.maxzoom:
                    continue
                sel = np.nonzero(layer_arr == ld.name)[0] + s
                if len(sel) == 0:
                    continue
                if 0 < ld.feature_limit < len(sel) and zoom < ld.feature_limit_below:
                    sel = sel[:ld.feature_limit]
                nfeat += self._assemble(cols, sel, ld, zoom, lb, pending)
        if nfeat == 0:
            return None, 0
        # encode all pending geometries: ONE vectorized cross-feature
        # pass when the tile carries enough vertices (VERDICT r3 #6 /
        # BASELINE round-3 open item), else the scalar fast path
        total_verts = sum(len(p) for _, _, _, parts, _, _ in pending
                          for p in parts)
        if total_verts >= self.NP_ENCODE_MIN_VERTS:
            geoms = mvt.encode_features_np(
                [(kind, parts) for _, _, kind, parts, _, _ in pending])
        else:
            geoms = [self._encode_scalar(kind, parts)
                     for _, _, kind, parts, _, _ in pending]
        for (lb, gconst, _, _, tags, fid), geom in zip(pending, geoms):
            lb.add_feature(gconst, geom, tags, fid)
        blob = tb.serialize()
        if self.compress:
            blob = mvt.compress_tile(blob, gzip_fmt=self.config.compress == "gzip")
        return blob, nfeat

    @staticmethod
    def _encode_scalar(kind: int, parts: list) -> bytes:
        lists = [p.tolist() if isinstance(p, np.ndarray) else p
                 for p in parts]
        if kind == mvt.FEAT_POINTS:
            pts = lists[0] if len(lists) == 1 else \
                [q for p in lists for q in p]
            return mvt.LayerBuilder.encode_points(pts)
        if kind == mvt.FEAT_LINE:
            return mvt.LayerBuilder.encode_multilinestring(lists)
        return mvt.LayerBuilder.encode_polygon(lists)

    def _assemble(self, cols: dict, sel: np.ndarray, ld, zoom: int,
                  lb: mvt.LayerBuilder, pending: list) -> int:
        gt = cols["geom_type"]
        zo = cols["zo_sort"]
        at = cols["attrs"]
        fid = cols["feature_id"]
        blobs = cols["pts"]
        include_ids = self.config.include_ids
        n = 0
        k = 0
        sel = list(sel)
        while k < len(sel):
            i = sel[k]
            if gt[i] == gc.POINT_:
                runs = [unpack_int_part_arrays(blobs[i])[0]]
                while (k + 1 < len(sel) and ld.combine_points
                       and _compat(gt, zo, at, i, sel[k + 1])):
                    k += 1
                    runs.append(unpack_int_part_arrays(blobs[sel[k]])[0])
                pts = runs[0] if len(runs) == 1 else np.concatenate(runs)
                pending.append((lb, mvt.GEOM_POINT, mvt.FEAT_POINTS, [pts],
                                self._tags(at[i], zoom),
                                int(fid[i]) if include_ids else None))
                n += 1
            elif gt[i] in (gc.LINESTRING_, gc.MULTILINESTRING_):
                parts = unpack_int_part_arrays(blobs[i])
                if zoom < self.config.combine_below:
                    while k + 1 < len(sel) and _compat(gt, zo, at, i, sel[k + 1]):
                        k += 1
                        parts.extend(unpack_int_part_arrays(blobs[sel[k]]))
                    arrs = [np.asarray(p, dtype=np.float64) for p in parts]
                    parts = [np.asarray(ls, dtype=np.int64)
                             for ls in reorder_multilinestring(arrs)]
                parts = [p for p in parts if len(p) > 1]
                if parts:
                    pending.append((lb, mvt.GEOM_LINESTRING, mvt.FEAT_LINE,
                                    parts, self._tags(at[i], zoom),
                                    int(fid[i]) if include_ids else None))
                    n += 1
            else:
                rings = unpack_int_part_arrays(blobs[i])
                if zoom < ld.combine_polygons_below:
                    # ProcessObjects' combine-polygons loop
                    # (tile_worker.cpp:351-361): compatible consecutive
                    # polygons collect into one group, then dissolve
                    # with union_many (geom.cpp:150-169).
                    group = [rings]
                    while k + 1 < len(sel) and _compat(gt, zo, at, i, sel[k + 1]):
                        k += 1
                        group.append(unpack_int_part_arrays(blobs[sel[k]]))
                    if len(group) > 1:
                        # the dissolve sweep operates on python pairs
                        rings = _dissolve_int_rings(
                            [[r.tolist() if isinstance(r, np.ndarray)
                              else r for r in feat] for feat in group])
                if rings:
                    pending.append((lb, mvt.GEOM_POLYGON, mvt.FEAT_POLYGON,
                                    rings, self._tags(at[i], zoom),
                                    int(fid[i]) if include_ids else None))
                    n += 1
            k += 1
        return n

    def _tags(self, attrs_json: str, zoom: int):
        parsed = self._attr_cache.get(attrs_json)
        if parsed is None:
            parsed = json.loads(attrs_json)
            if len(self._attr_cache) > 65536:
                self._attr_cache.clear()
            self._attr_cache[attrs_json] = parsed
        out = []
        for key, kind, mz, v in parsed:
            if mz > zoom:
                continue
            out.append((key, bool(v) if kind == 2 else (float(v) if kind == 1 else str(v))))
        return out


def _compat(gt, zo, at, i, j) -> bool:
    return gt[i] == gt[j] and zo[i] == zo[j] and at[i] == at[j]


# past this many total points, fall back to concatenation: the dissolve
# is O(n log n) per sweep but Python-costly, and giant low-zoom groups
# (coastline unions) render identically under the MVT nonzero fill rule
_DISSOLVE_MAX_POINTS = 20000


def _bbox_overlap_clusters(group) -> list[list[int]]:
    """Union-find over feature bbox overlaps (x-sorted sweep): only
    features whose bboxes touch can need dissolving."""
    boxes = []
    for feat in group:
        xs = [p[0] for r in feat for p in r]
        ys = [p[1] for r in feat for p in r]
        boxes.append((min(xs), min(ys), max(xs), max(ys)))
    parent = list(range(len(group)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    order = sorted(range(len(group)), key=lambda i: boxes[i][0])
    for oi, i in enumerate(order):
        for j in order[oi + 1:]:
            if boxes[j][0] > boxes[i][2]:
                break
            if boxes[j][1] <= boxes[i][3] and boxes[j][3] >= boxes[i][1]:
                parent[find(i)] = find(j)
    clusters: dict[int, list[int]] = {}
    for i in range(len(group)):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def _dissolve_int_rings(group: list[list[list[tuple[int, int]]]]
                        ) -> list[list[tuple[int, int]]]:
    """union_many over compatible polygon features' tile-int rings
    (tile_worker.cpp:351-361 + geom.cpp:150-169).  Each feature's flat
    ring list is treated as one even-odd polygon; the merged output is
    re-flattened (exterior, holes, exterior, ...) with MVT winding
    (positive shoelace = exterior in tile y-down coords) and rounded
    back to the integer grid.

    Fast path: features whose bboxes don't touch any other feature
    can't overlap — only bbox-overlap clusters go through the sweep."""
    from ..geom import boolops

    clusters = _bbox_overlap_clusters(group)
    out_feats: list = []
    to_union: list = []
    for cl in clusters:
        if len(cl) == 1:
            out_feats.extend(group[cl[0]])
        else:
            sub = [group[i] for i in cl]
            total = sum(len(r) for feat in sub for r in feat)
            if total > _DISSOLVE_MAX_POINTS:
                for feat in sub:
                    out_feats.extend(feat)
            else:
                to_union.append(sub)
    if not to_union:
        return out_feats
    merged = []
    for sub in to_union:
        merged.extend(boolops.union_many([[feat] for feat in sub]))
    out: list[list[tuple[int, int]]] = []
    for poly in merged:
        poly_rings = []
        for ri, ring in enumerate(poly):
            ir = [(int(round(x)), int(round(y))) for x, y in ring]
            ded = [ir[0]]
            for p in ir[1:]:
                if p != ded[-1]:
                    ded.append(p)
            if ded[0] != ded[-1]:
                ded.append(ded[0])
            if len(ded) < 4:
                if ri == 0:
                    poly_rings = None
                    break
                continue  # degenerate hole: drop
            a = sum(x0 * y1 - x1 * y0
                    for (x0, y0), (x1, y1) in zip(ded, ded[1:]))
            if a == 0 or (ri == 0) != (a > 0):
                # collapsed by rounding (or winding flipped): exterior
                # gone ⇒ drop the polygon, hole gone ⇒ drop the ring
                if ri == 0:
                    poly_rings = None
                    break
                continue
            poly_rings.append(ded)
        if poly_rings:
            out.extend(poly_rings)
    return out_feats + out
