"""Synthesize a deterministic multi-block .osm.pbf: a jittered grid of
untagged nodes, ways chained over it (named highways, closed buildings,
untagged landuse rings, untagged paths) and landuse multipolygon
relations over the rings. Optionally also tagged POI nodes and bus
route / route_master relations (see `synthesize`).

Writes the OSM PBF container format from the public spec
(BlobHeader + raw Blob, PrimitiveBlock with DenseNodes / Way /
Relation groups), entities sorted by type then id. `split_pbf` writes
one PBF's data blobs into two files. Usage:

    python scripts/synth_pbf.py [out.pbf] [n_nodes] [n_ways]

Defaults: /tmp/synth.osm.pbf, 2_000_000 nodes, 100_000 ways.
"""

from __future__ import annotations

import struct
import sys

import numpy as np

GRANULARITY = 100  # nanodegrees, the OSM default


def _varint(buf: bytearray, v: int) -> None:
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            buf.append(b | 0x80)
        else:
            buf.append(b)
            return


def _zigzag(v: int) -> int:
    return (v << 1) ^ (v >> 63)


def _packed_varints(values) -> bytes:
    buf = bytearray()
    for v in values:
        _varint(buf, int(v))
    return bytes(buf)


def _packed_sints(values) -> bytes:
    buf = bytearray()
    for v in values:
        _varint(buf, _zigzag(int(v)))
    return bytes(buf)


def _field(buf: bytearray, fno: int, wire: int) -> None:
    _varint(buf, (fno << 3) | wire)


def _bytes_field(buf: bytearray, fno: int, data: bytes) -> None:
    _field(buf, fno, 2)
    _varint(buf, len(data))
    buf.extend(data)


def _varint_field(buf: bytearray, fno: int, v: int) -> None:
    _field(buf, fno, 0)
    _varint(buf, v)


def string_table(strings: list[bytes]) -> bytes:
    st = bytearray()
    for s in strings:
        _bytes_field(st, 1, s)
    return bytes(st)


def dense_nodes_group(ids, lats_nano, lons_nano, keys_vals) -> bytes:
    dn = bytearray()
    _bytes_field(dn, 1, _packed_sints(np.diff(ids, prepend=0)))
    _bytes_field(dn, 8, _packed_sints(np.diff(lats_nano // GRANULARITY, prepend=0)))
    _bytes_field(dn, 9, _packed_sints(np.diff(lons_nano // GRANULARITY, prepend=0)))
    if keys_vals:
        _bytes_field(dn, 10, _packed_varints(keys_vals))
    grp = bytearray()
    _bytes_field(grp, 2, bytes(dn))
    return bytes(grp)


def way_msg(wid: int, keys, vals, refs) -> bytes:
    w = bytearray()
    _varint_field(w, 1, wid)
    if keys:
        _bytes_field(w, 2, _packed_varints(keys))
        _bytes_field(w, 3, _packed_varints(vals))
    _bytes_field(w, 8, _packed_sints(np.diff(np.asarray(refs), prepend=0)))
    return bytes(w)


def relation_msg(rid: int, keys, vals, roles_sid, memids, types) -> bytes:
    r = bytearray()
    _varint_field(r, 1, rid)
    if keys:
        _bytes_field(r, 2, _packed_varints(keys))
        _bytes_field(r, 3, _packed_varints(vals))
    _bytes_field(r, 8, _packed_varints(roles_sid))
    _bytes_field(r, 9, _packed_sints(np.diff(np.asarray(memids), prepend=0)))
    _bytes_field(r, 10, _packed_varints(types))
    return bytes(r)


def primitive_block(strings: list[bytes], groups: list[bytes]) -> bytes:
    pb = bytearray()
    _bytes_field(pb, 1, string_table(strings))
    for g in groups:
        _bytes_field(pb, 2, g)
    _varint_field(pb, 17, GRANULARITY)
    _varint_field(pb, 19, 0)  # lat_offset
    _varint_field(pb, 20, 0)  # lon_offset
    return bytes(pb)


def blob(btype: str, data: bytes) -> bytes:
    body = bytearray()
    _bytes_field(body, 1, data)  # raw (uncompressed)
    hdr = bytearray()
    _bytes_field(hdr, 1, btype.encode())
    _varint_field(hdr, 3, len(body))
    return struct.pack(">I", len(hdr)) + bytes(hdr) + bytes(body)


SORT_FEATURE = b"Sort.Type_then_ID"  # nodes, ways, relations; ids ascending


def header_block(bbox) -> bytes:
    """HeaderBlock for bbox (min_lon, min_lat, max_lon, max_lat):
    HeaderBBox left, right, top (max lat), bottom (min lat)."""
    hb = bytearray()
    box = bytearray()
    for fno, deg in zip((1, 2, 3, 4), (bbox[0], bbox[2], bbox[3], bbox[1])):
        _field(box, fno, 0)
        _varint(box, _zigzag(int(deg * 1e9)))
    _bytes_field(hb, 1, bytes(box))
    _bytes_field(hb, 4, b"OsmSchema-V0.6")
    _bytes_field(hb, 4, b"DenseNodes")
    _bytes_field(hb, 5, SORT_FEATURE)
    return bytes(hb)


HIGHWAY_CLASSES = [b"residential", b"primary", b"secondary", b"tertiary"]
# (key, value) of the optional POI nodes, cycled; the bus stops are the
# stop members of the optional routes
POI_TAGS = [(b"amenity", b"cafe"), (b"shop", b"bakery"),
            (b"tourism", b"hotel"), (b"amenity", b"restaurant"),
            (b"highway", b"bus_stop")]
WAYS_PER_ROUTE = 4
STOPS_PER_ROUTE = 2


def synthesize(path: str, n_nodes: int = 2_000_000, n_ways: int = 100_000,
               n_rels: int = 200, block_entities: int = 8000,
               bbox=(7.0, 43.0, 8.0, 44.0), seed: int = 42,
               n_pois: int = 0, n_routes: int = 0, n_route_masters: int = 0,
               record: dict | None = None) -> dict:
    """Write the PBF; return its entity and data-blob counts.

    Optional extras, off by default: `n_pois` tagged POI nodes (named,
    tagged from POI_TAGS in turn) in one block after the grid nodes;
    `n_routes` type=route relations (route=bus, a `ref`, bus-stop POIs
    with role "stop" and named-highway ways as members) and
    `n_route_masters` type=route_master relations after the
    multipolygons. Route master k has routes 2k and 2k+1 as members and
    carries `network` when k is even. The extras draw from their own
    RNG stream and their strings sit only in the blocks that hold them,
    so at the defaults every entity and data blob is as without them.

    `record`, when a dict, is filled with what was written: "bbox",
    "optional_features", "counts", "groups", "string_tables" (one list
    of str per data blob, in file order), "node" (the first POI: id,
    tags), "way" (the first building: id, tags, refs), "relation" (the
    first route: id, tags, memids, types, roles; None without routes),
    "routes" {id: tags}, "route_masters" {id: {"tags", "routes"}} and
    "members" {id: [(member id, member type, role)]} of every relation.
    """
    rng = np.random.default_rng(seed)
    extra = np.random.default_rng([seed, 1])
    # nodes on a jittered grid covering bbox
    side = int(np.ceil(np.sqrt(n_nodes)))
    ii = np.arange(n_nodes, dtype=np.int64)
    gx = (ii % side).astype(np.float64) / side
    gy = (ii // side).astype(np.float64) / side
    lon = bbox[0] + (bbox[2] - bbox[0]) * (gx + rng.uniform(-0.3, 0.3, n_nodes) / side)
    lat = bbox[1] + (bbox[3] - bbox[1]) * (gy + rng.uniform(-0.3, 0.3, n_nodes) / side)
    node_ids = ii + 1
    lat_nano = (lat * 1e9).astype(np.int64)
    lon_nano = (lon * 1e9).astype(np.int64)

    strings = [b"", b"highway", b"name", b"building", b"landuse", b"type",
               b"multipolygon", b"outer", b"inner", b"yes", b"grass",
               b"waterway", b"river"] + HIGHWAY_CLASSES
    sid = {s: i for i, s in enumerate(strings)}
    # the blocks that hold extras get this table: `strings` plus theirs
    ext_ids = dict(sid)

    def ext_sid(s: bytes) -> int:
        return ext_ids.setdefault(s, len(ext_ids))

    counts = {"nodes": 0, "ways": 0, "relations": 0, "blocks": 0}
    rec = {"bbox": tuple(bbox), "optional_features": [SORT_FEATURE.decode()],
           "counts": counts, "groups": 0, "string_tables": [],
           "node": None, "way": None, "relation": None,
           "routes": {}, "route_masters": {}, "members": {}}

    def write_block(f, table, groups) -> None:
        f.write(blob("OSMData", primitive_block(table, groups)))
        counts["blocks"] += 1
        rec["groups"] += len(groups)
        rec["string_tables"].append([s.decode() for s in table])

    with open(path, "wb") as f:
        f.write(blob("OSMHeader", header_block(bbox)))
        # --- node blocks (untagged) ----------------------------------
        for s in range(0, n_nodes, block_entities):
            e = min(s + block_entities, n_nodes)
            write_block(f, strings, [dense_nodes_group(
                node_ids[s:e], lat_nano[s:e], lon_nano[s:e], [])])
            counts["nodes"] += e - s
        # --- optional POI block: tagged nodes after the grid ---------
        stop_ids = []
        if n_pois:
            poi_ids = n_nodes + 1 + np.arange(n_pois, dtype=np.int64)
            poi_lon = extra.uniform(bbox[0], bbox[2], n_pois)
            poi_lat = extra.uniform(bbox[1], bbox[3], n_pois)
            keys_vals = []
            for i in range(n_pois):
                k, v = POI_TAGS[i % len(POI_TAGS)]
                name = f"POI {i + 1}".encode()
                keys_vals += [ext_sid(k), ext_sid(v), sid[b"name"],
                              ext_sid(name), 0]
                if v == b"bus_stop":
                    stop_ids.append(int(poi_ids[i]))
                if rec["node"] is None:
                    rec["node"] = {"id": int(poi_ids[i]), "tags": {
                        k.decode(): v.decode(), "name": name.decode()}}
            write_block(f, list(ext_ids), [dense_nodes_group(
                poi_ids, (poi_lat * 1e9).astype(np.int64),
                (poi_lon * 1e9).astype(np.int64), keys_vals)])
            counts["nodes"] += n_pois
        # --- way blocks: chains of nearby nodes ----------------------
        way_id = 10_000_000
        rel_member_pool: list[int] = []
        highway_pool: list[int] = []
        ways_per_block = max(1, block_entities // 8)
        w = 0
        while w < n_ways:
            group = bytearray()
            for _ in range(min(ways_per_block, n_ways - w)):
                way_id += 1
                w += 1
                ln = int(rng.integers(4, 16))
                start = int(rng.integers(0, n_nodes - ln * side - 1))
                horizontal = rng.random() < 0.5
                step = 1 if horizontal else side
                refs = (start + np.arange(ln, dtype=np.int64) * step) + 1
                r = rng.random()
                if r < 0.30:   # named highway
                    keys = [sid[b"highway"], sid[b"name"]]
                    vals = [sid[HIGHWAY_CLASSES[int(rng.integers(4))]],
                            sid[b"river"]]
                    highway_pool.append(way_id)
                elif r < 0.45:  # closed building polygon
                    base = int(rng.integers(0, n_nodes - side - 2))
                    refs = np.array([base + 1, base + 2, base + side + 2,
                                     base + side + 1, base + 1], dtype=np.int64)
                    keys = [sid[b"building"]]
                    vals = [sid[b"yes"]]
                    if rec["way"] is None:
                        rec["way"] = {"id": way_id, "tags": {"building": "yes"},
                                      "refs": [int(x) for x in refs]}
                elif r < 0.50:  # landuse ring for relations
                    base = int(rng.integers(0, n_nodes - 2 * side - 3))
                    refs = np.array([base + 1, base + 3, base + 2 * side + 3,
                                     base + 2 * side + 1, base + 1],
                                    dtype=np.int64)
                    keys = []
                    vals = []
                    rel_member_pool.append(way_id)
                else:           # untagged path (filtered out)
                    keys = []
                    vals = []
                _bytes_field(group, 3, way_msg(way_id, keys, vals, refs))
            write_block(f, strings, [bytes(group)])
        counts["ways"] = w
        # --- relation block: landuse multipolygons, then the optional
        # routes and route masters -----------------------------------
        group = bytearray()
        rid = 20_000_000
        for i in range(min(n_rels, len(rel_member_pool))):
            rid += 1
            _bytes_field(group, 4, relation_msg(
                rid,
                [sid[b"type"], sid[b"landuse"]],
                [sid[b"multipolygon"], sid[b"grass"]],
                [sid[b"outer"]], [rel_member_pool[i]], [1]))
            rec["members"][rid] = [(rel_member_pool[i], 1, "outer")]
            counts["relations"] += 1
        route_ids = []
        for i in range(n_routes):
            rid += 1
            route_ids.append(rid)
            tags = {b"type": b"route", b"route": b"bus",
                    b"ref": str(i + 1).encode()}
            stops = [int(x) for x in extra.choice(
                stop_ids, min(STOPS_PER_ROUTE, len(stop_ids)), replace=False)]
            ways = [int(x) for x in extra.choice(
                highway_pool, min(WAYS_PER_ROUTE, len(highway_pool)),
                replace=False)]
            memids = stops + ways
            types = [0] * len(stops) + [1] * len(ways)
            roles = ["stop"] * len(stops) + [""] * len(ways)
            _bytes_field(group, 4, relation_msg(
                rid, [ext_sid(t) for t in tags],
                [ext_sid(v) for v in tags.values()],
                [ext_sid(r.encode()) for r in roles], memids, types))
            str_tags = {k.decode(): v.decode() for k, v in tags.items()}
            rec["routes"][rid] = str_tags
            rec["members"][rid] = list(zip(memids, types, roles))
            if rec["relation"] is None:
                rec["relation"] = {"id": rid, "tags": str_tags,
                                   "memids": memids, "types": types,
                                   "roles": roles}
            counts["relations"] += 1
        for k in range(n_route_masters):
            rid += 1
            tags = {b"type": b"route_master", b"route_master": b"bus"}
            if k % 2 == 0:
                tags[b"network"] = b"city bus"
            members = route_ids[2 * k:2 * k + 2]
            _bytes_field(group, 4, relation_msg(
                rid, [ext_sid(t) for t in tags],
                [ext_sid(v) for v in tags.values()],
                [0] * len(members), members, [2] * len(members)))
            rec["route_masters"][rid] = {
                "tags": {t.decode(): v.decode() for t, v in tags.items()},
                "routes": members}
            rec["members"][rid] = [(m, 2, "") for m in members]
            counts["relations"] += 1
        if counts["relations"]:
            write_block(f, list(ext_ids) if n_routes or n_route_masters
                        else strings, [bytes(group)])
    if record is not None:
        record.update(rec)
    return counts


def split_pbf(src: str, a: str, b: str) -> int:
    """Write `src`'s OSMData blobs alternately to `a` and `b`, each file
    led by `src`'s OSMHeader blob, so ways in one file reference nodes
    in the other. Returns the number of OSMData blobs."""
    from tilemaker_ray.sources.pbf import blob_offsets

    raw = open(src, "rb").read()
    header, data, pos = b"", [], 0
    # blob_offsets gives each blob's payload; its framing (length
    # prefix + BlobHeader) starts where the previous payload ended
    for start, size, typ in blob_offsets(src):
        section, pos = raw[pos:start + size], start + size
        if typ == "OSMHeader":
            header = section
        elif typ == "OSMData":
            data.append(section)
    for path, part in ((a, data[::2]), (b, data[1::2])):
        with open(path, "wb") as f:
            f.write(header + b"".join(part))
    return len(data)


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "/tmp/synth.osm.pbf"
    n_nodes = int(sys.argv[2]) if len(sys.argv) > 2 else 2_000_000
    n_ways = int(sys.argv[3]) if len(sys.argv) > 3 else 100_000
    import os
    import time
    t0 = time.time()
    c = synthesize(out, n_nodes, n_ways)
    print(f"{out}: {os.path.getsize(out)/1e6:.1f} MB, {c} "
          f"in {time.time()-t0:.1f}s")
