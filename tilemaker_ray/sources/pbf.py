"""OSM .osm.pbf reader (S1) — built from the PUBLIC OSM PBF format
spec (wiki.openstreetmap.org/wiki/PBF_Format): blob framing, zlib
blocks, string tables, dense nodes with delta coding, ways with
delta-coded refs, relations with delta-coded memids.

Role of /root/reference/src/pbf_reader.cpp (schema also described at
pbf_reader.h:12-158) — reimplemented from the wire format, not ported.
Packed-varint payloads are decoded with a numpy-vectorized varint
kernel; delta decoding is cumsum.

Ray mapping: blob offsets enumerated cheaply up front, then one
decode task per blob parses it once into Arrow tables — see
pipelines/osm.py.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

NANO = 1e-9

MEMBER_NODE = 0
MEMBER_WAY = 1
MEMBER_RELATION = 2


# --- protobuf primitives ------------------------------------------------

def _read_varint(data: bytes, i: int) -> tuple[int, int]:
    shift = v = 0
    while True:
        b = data[i]
        i += 1
        v |= (b & 0x7F) << shift
        if not (b & 0x80):
            return v, i
        shift += 7


def _fields(data: bytes):
    """Yield (field_no, wire_type, value_or_bytes)."""
    i = 0
    n = len(data)
    while i < n:
        key, i = _read_varint(data, i)
        f, w = key >> 3, key & 7
        if w == 0:
            v, i = _read_varint(data, i)
            yield f, w, v
        elif w == 2:
            ln, i = _read_varint(data, i)
            yield f, w, data[i:i + ln]
            i += ln
        elif w == 5:
            yield f, w, data[i:i + 4]
            i += 4
        elif w == 1:
            yield f, w, data[i:i + 8]
            i += 8
        else:
            raise ValueError(f"wire type {w}")


def decode_packed_varints(data: bytes) -> np.ndarray:
    """Vectorized packed-varint decode → uint64 array."""
    if not data:
        return np.empty(0, dtype=np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8)
    cont = (raw & 0x80) != 0
    ends = np.nonzero(~cont)[0]
    starts = np.concatenate([[0], ends[:-1] + 1])
    vals = np.zeros(len(ends), dtype=np.uint64)
    # accumulate byte k of each varint (max 10 bytes for 64-bit)
    lengths = ends - starts + 1
    for k in range(int(lengths.max())):
        mask = lengths > k
        vals[mask] |= ((raw[starts[mask] + k] & 0x7F).astype(np.uint64)
                       << np.uint64(7 * k))
    return vals


def _unzigzag(v: np.ndarray) -> np.ndarray:
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -(v & np.uint64(1)).astype(np.int64)


# --- blob framing -------------------------------------------------------

@dataclass
class Blob:
    type: str
    data: bytes


def iter_blobs(path: str):
    """Yield (type, decompressed payload) per blob."""
    with open(path, "rb") as f:
        while True:
            hdr_len_raw = f.read(4)
            if len(hdr_len_raw) < 4:
                return
            (hdr_len,) = struct.unpack(">I", hdr_len_raw)
            bh = f.read(hdr_len)
            btype = ""
            datasize = 0
            for fno, w, v in _fields(bh):
                if fno == 1:
                    btype = v.decode()
                elif fno == 3:
                    datasize = v
            payload = f.read(datasize)
            raw = b""
            raw_size = 0
            zdata = b""
            for fno, w, v in _fields(payload):
                if fno == 1:
                    raw = v
                elif fno == 2:
                    raw_size = v
                elif fno == 3:
                    zdata = v
            data = raw if raw else zlib.decompress(zdata)
            yield btype, data


def blob_offsets(path: str) -> list[tuple[int, int, str]]:
    """(offset, length, type) per blob — the cheap driver-side scan that
    turns one file into independent read tasks."""
    out = []
    with open(path, "rb") as f:
        pos = 0
        while True:
            hdr_len_raw = f.read(4)
            if len(hdr_len_raw) < 4:
                return out
            (hdr_len,) = struct.unpack(">I", hdr_len_raw)
            bh = f.read(hdr_len)
            btype = ""
            datasize = 0
            for fno, w, v in _fields(bh):
                if fno == 1:
                    btype = v.decode()
                elif fno == 3:
                    datasize = v
            start = pos + 4 + hdr_len
            out.append((start, datasize, btype))
            f.seek(start + datasize)
            pos = start + datasize


def read_blob_at(path: str, offset: int, length: int) -> bytes:
    with open(path, "rb") as f:
        f.seek(offset)
        payload = f.read(length)
    raw = b""
    zdata = b""
    for fno, w, v in _fields(payload):
        if fno == 1:
            raw = v
        elif fno == 3:
            zdata = v
    return raw if raw else zlib.decompress(zdata)


# --- header block -------------------------------------------------------

@dataclass
class HeaderBlock:
    bbox: tuple[float, float, float, float] | None = None  # minLon,minLat,maxLon,maxLat
    required_features: list[str] = field(default_factory=list)
    optional_features: list[str] = field(default_factory=list)


def parse_header(data: bytes) -> HeaderBlock:
    hb = HeaderBlock()
    for f, w, v in _fields(data):
        if f == 1:
            left = right = top = bottom = 0
            for f2, w2, v2 in _fields(v):
                sv = (v2 >> 1) ^ -(v2 & 1)
                if f2 == 1:
                    left = sv
                elif f2 == 2:
                    right = sv
                elif f2 == 3:
                    top = sv
                elif f2 == 4:
                    bottom = sv
            hb.bbox = (left * NANO, bottom * NANO, right * NANO, top * NANO)
        elif f == 4:
            hb.required_features.append(v.decode())
        elif f == 5:
            hb.optional_features.append(v.decode())
    return hb


# --- primitive block ----------------------------------------------------

@dataclass
class PrimitiveBlock:
    strings: list[bytes]
    granularity: int
    lat_offset: int
    lon_offset: int
    nodes: dict          # {"id","lat","lon","keys_vals"} numpy arrays
    ways: list[dict]     # {"id","keys","vals","refs"}
    relations: list[dict]
    n_groups: int = 0


def parse_primitive_block(data: bytes) -> PrimitiveBlock:
    """One decompressed OSMData blob: its string table and every entity
    group, nodes, ways and relations alike."""
    strings: list[bytes] = []
    granularity = 100
    lat_offset = 0
    lon_offset = 0
    nodes = {"id": [], "lat": [], "lon": [], "keys_vals": []}
    ways: list[dict] = []
    relations: list[dict] = []
    groups = []
    for f, w, v in _fields(data):
        if f == 1:
            for f2, w2, v2 in _fields(v):
                if f2 == 1:
                    strings.append(v2)
        elif f == 2:
            groups.append(v)
        elif f == 17:
            granularity = v
        elif f == 19:
            lat_offset = v
        elif f == 20:
            lon_offset = v
    for g in groups:
        for f, w, v in _fields(g):
            if f == 2:  # DenseNodes
                ids = lat = lon = None
                kv = np.empty(0, dtype=np.int64)
                for f2, w2, v2 in _fields(v):
                    if f2 == 1:
                        ids = np.cumsum(_unzigzag(decode_packed_varints(v2)))
                    elif f2 == 8:
                        lat = np.cumsum(_unzigzag(decode_packed_varints(v2)))
                    elif f2 == 9:
                        lon = np.cumsum(_unzigzag(decode_packed_varints(v2)))
                    elif f2 == 10:
                        kv = decode_packed_varints(v2).astype(np.int64)
                if ids is not None:
                    nodes["id"].append(ids)
                    nodes["lat"].append(lat)
                    nodes["lon"].append(lon)
                    nodes["keys_vals"].append(kv)
            elif f == 3:  # Way
                way = {"id": 0, "keys": np.empty(0, np.int64),
                       "vals": np.empty(0, np.int64), "refs": np.empty(0, np.int64)}
                for f2, w2, v2 in _fields(v):
                    if f2 == 1:
                        way["id"] = v2
                    elif f2 == 2:
                        way["keys"] = decode_packed_varints(v2).astype(np.int64)
                    elif f2 == 3:
                        way["vals"] = decode_packed_varints(v2).astype(np.int64)
                    elif f2 == 8:
                        way["refs"] = np.cumsum(_unzigzag(decode_packed_varints(v2)))
                ways.append(way)
            elif f == 4:  # Relation
                rel = {"id": 0, "keys": np.empty(0, np.int64),
                       "vals": np.empty(0, np.int64),
                       "roles_sid": np.empty(0, np.int64),
                       "memids": np.empty(0, np.int64),
                       "types": np.empty(0, np.int64)}
                for f2, w2, v2 in _fields(v):
                    if f2 == 1:
                        rel["id"] = v2
                    elif f2 == 2:
                        rel["keys"] = decode_packed_varints(v2).astype(np.int64)
                    elif f2 == 3:
                        rel["vals"] = decode_packed_varints(v2).astype(np.int64)
                    elif f2 == 8:
                        rel["roles_sid"] = decode_packed_varints(v2).astype(np.int64)
                    elif f2 == 9:
                        rel["memids"] = np.cumsum(_unzigzag(decode_packed_varints(v2)))
                    elif f2 == 10:
                        rel["types"] = decode_packed_varints(v2).astype(np.int64)
                relations.append(rel)
    return PrimitiveBlock(strings=strings, granularity=granularity,
                          lat_offset=lat_offset, lon_offset=lon_offset,
                          nodes=nodes, ways=ways, relations=relations,
                          n_groups=len(groups))


def block_min_node_id(data: bytes) -> int | None:
    """Cheap probe: the FIRST dense-node id of an OSMData block (= the
    block minimum — DenseNodes ids are delta-coded ascending). Decodes
    only the leading varint of the first id array; no lat/lon/tag
    decode, no cumsum. Used by the node-range boundary sampler, which
    runs on the driver and needs one id per sampled block, so a full
    parse_primitive_block there would decode each block for nothing."""
    for f, w, v in _fields(data):
        if f == 2:  # PrimitiveGroup
            for f2, w2, v2 in _fields(v):
                if f2 == 2:  # DenseNodes
                    for f3, w3, v3 in _fields(v2):
                        if f3 == 1:  # packed sint64 ids
                            first, _ = _read_varint(v3, 0)
                            return int((first >> 1) ^ -(first & 1))
    return None


def block_nodes(pb: PrimitiveBlock):
    """Decoded nodes: (ids, lat_deg, lon_deg, tags list[dict])."""
    if not pb.nodes["id"]:
        return (np.empty(0, np.int64), np.empty(0), np.empty(0), [])
    ids = np.concatenate(pb.nodes["id"])
    lat = np.concatenate(pb.nodes["lat"])
    lon = np.concatenate(pb.nodes["lon"])
    lat_deg = NANO * (pb.lat_offset + pb.granularity * lat)
    lon_deg = NANO * (pb.lon_offset + pb.granularity * lon)
    tags: list[dict] = []
    # Pad per group: a group with omitted keys_vals (valid per the PBF
    # spec) contributes one empty dict per node, so tags from a later
    # group never shift onto the wrong nodes (ADVICE r1).
    for group_ids, kv in zip(pb.nodes["id"], pb.nodes["keys_vals"]):
        if len(kv) == 0:
            tags.extend({} for _ in range(len(group_ids)))
            continue
        # kv stream: k,v,k,v,...,0 per node
        n_before = len(tags)
        cur: dict = {}
        i = 0
        while i < len(kv):
            if kv[i] == 0:
                tags.append(cur)
                cur = {}
                i += 1
            else:
                k = pb.strings[int(kv[i])].decode()
                val = pb.strings[int(kv[i + 1])].decode()
                cur[k] = val
                i += 2
        # trailing nodes of this group with no kv entries at all
        while len(tags) - n_before < len(group_ids):
            tags.append({})
    return ids, lat_deg, lon_deg, tags


def way_tags(pb: PrimitiveBlock, way: dict) -> dict:
    return {pb.strings[int(k)].decode(): pb.strings[int(v)].decode()
            for k, v in zip(way["keys"], way["vals"])}
