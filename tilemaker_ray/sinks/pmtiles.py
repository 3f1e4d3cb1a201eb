"""PMTiles v3 sink — single-file archive pack step.

Ports the reference's writer exactly (/root/reference/src/pmtiles.cpp
+ include/external/pmtiles.hpp): 16384-byte header+root region,
clustered tile data, RLE directory entries (pmtiles.cpp:101-110),
tiny-tile content dedup (<100 bytes, pmtiles.cpp:141-172), Hilbert
tile ids (pmtiles.hpp zxy_to_tileid), gzip'd directories + metadata,
leaf directories from tile id 1365 (z6) when > 2200 entries.

The pack step requires tiles sorted by tileid (the reference sorts its
work queue; we sort here — pmtiles.cpp:29-44 note in SURVEY O1).
"""

from __future__ import annotations

import gzip
import json
import os
import struct

HEADER_ROOT = 16384
FIRST_LEAF_TILE = 1365
ROOT_ONLY = 2200
LEAF_DIRECTORY_SIZE = 10_000_000
TINY_LENGTH = 100
TINY_MAX_SIZE = 10000

COMPRESSION_UNKNOWN = 0
COMPRESSION_NONE = 1
COMPRESSION_GZIP = 2
TILETYPE_MVT = 1


def _rotate(n: int, x: int, y: int, rx: int, ry: int) -> tuple[int, int]:
    if ry == 0:
        if rx == 1:
            x = n - 1 - x
            y = n - 1 - y
        x, y = y, x
    return x, y


def zxy_to_tileid(z: int, x: int, y: int) -> int:
    """Hilbert tile id (pmtiles.hpp:414-435)."""
    acc = 0
    for t_z in range(z):
        acc += (1 << t_z) * (1 << t_z)
    n = 1 << z
    d = 0
    tx, ty = x, y
    s = n // 2
    while s > 0:
        rx = 1 if (tx & s) > 0 else 0
        ry = 1 if (ty & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        tx, ty = _rotate(s, tx, ty, rx, ry)
        s //= 2
    return acc + d


def _write_varint(buf: bytearray, v: int) -> None:
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            buf.append(b | 0x80)
        else:
            buf.append(b)
            return


def serialize_directory(entries: list[list[int]]) -> bytes:
    """entries: [tile_id, offset, length, run_length] (pmtiles.hpp:437-472)."""
    out = bytearray()
    _write_varint(out, len(entries))
    last = 0
    for e in entries:
        _write_varint(out, e[0] - last)
        last = e[0]
    for e in entries:
        _write_varint(out, e[3])
    for e in entries:
        _write_varint(out, e[2])
    for i, e in enumerate(entries):
        if i > 0 and e[1] == entries[i - 1][1] + entries[i - 1][2]:
            _write_varint(out, 0)
        else:
            _write_varint(out, e[1] + 1)
    return bytes(out)


def _gz(data: bytes) -> bytes:
    co = __import__("zlib").compressobj(-1, 8, 16 + 15)
    return co.compress(data) + co.flush()


def write_pmtiles(path: str, tiles, metadata: dict,
                  min_zoom: int = 0, max_zoom: int = 14,
                  bounds=(-180.0, -85.06, 180.0, 85.06),
                  tiles_already_compressed: bool = True,
                  tile_compression: int = COMPRESSION_GZIP) -> int:
    """tiles: iterable of (zoom, x, y, mvt_gzip_bytes). Written in
    Hilbert-tileid order with RLE + tiny-tile dedup."""
    items = sorted((zxy_to_tileid(int(z), int(x), int(y)), bytes(d))
                   for z, x, y, d in tiles)
    with open(path, "wb") as f:
        f.write(b"\x00" * HEADER_ROOT)
        # --- tile data (clustered, deduped) ---
        tiny_cache: dict[bytes, tuple[int, int]] = {}
        index: list[tuple[int, tuple[int, int]]] = []
        n_written = 0
        pos = HEADER_ROOT
        for tid, data in items:
            blob = data if tiles_already_compressed else _gz(data)
            key = data if len(data) < TINY_LENGTH else None
            if key is not None and key in tiny_cache:
                off = tiny_cache[key]
            else:
                off = (pos - HEADER_ROOT, len(blob))
                f.write(blob)
                pos += len(blob)
                n_written += 1
                if key is not None:
                    if len(tiny_cache) > TINY_MAX_SIZE:
                        tiny_cache.clear()
                    tiny_cache[key] = off
            index.append((tid, off))

        # --- directories with RLE (pmtiles.cpp:90-110) ---
        root_entries: list[list[int]] = []
        entries: list[list[int]] = []
        n_entries = 0
        leaf_start = 0

        def append_rle(lst, tid, off):
            nonlocal n_entries
            if lst and lst[-1][1] == off[0] and lst[-1][0] == tid - lst[-1][3]:
                lst[-1][3] += 1
                return
            lst.append([tid, off[0], off[1], 1])
            n_entries += 1

        def flush(f):
            nonlocal leaf_start, pos, entries
            if not entries:
                return
            start_id = entries[0][0]
            comp = _gz(serialize_directory(entries))
            entries = []
            if leaf_start == 0:
                leaf_start = pos
            root_entries.append([start_id, pos - leaf_start, len(comp), 0])
            f.write(comp)
            pos += len(comp)

        for tid, off in index:
            if tid < FIRST_LEAF_TILE:
                append_rle(root_entries, tid, off)
            else:
                append_rle(entries, tid, off)
                if len(entries) >= LEAF_DIRECTORY_SIZE:
                    flush(f)
        if n_entries < ROOT_ONLY:
            root_entries.extend(entries)
            entries = []
            tile_end = pos
        else:
            tile_end = pos if leaf_start == 0 else leaf_start
            flush(f)
        leaf_len = (pos - leaf_start) if leaf_start else 0

        # --- metadata ---
        meta_comp = _gz(json.dumps(metadata).encode())
        json_start = pos
        f.write(meta_comp)
        pos += len(meta_comp)

        # --- root directory into the header region ---
        root_comp = _gz(serialize_directory(root_entries))
        if len(root_comp) > HEADER_ROOT - 127:
            raise ValueError("pmtiles root directory too large")
        f.seek(127)
        f.write(root_comp)

        # --- 127-byte header ---
        header = bytearray()
        header += b"PMTiles"
        header += struct.pack("<B", 3)
        header += struct.pack("<Q", 127)                 # root_dir_offset
        header += struct.pack("<Q", len(root_comp))      # root_dir_bytes
        header += struct.pack("<Q", json_start)
        header += struct.pack("<Q", len(meta_comp))
        header += struct.pack("<Q", leaf_start)
        header += struct.pack("<Q", leaf_len)
        header += struct.pack("<Q", HEADER_ROOT)         # tile_data_offset
        header += struct.pack("<Q", tile_end - HEADER_ROOT)
        header += struct.pack("<Q", len(items))          # addressed
        header += struct.pack("<Q", n_entries)           # entries
        header += struct.pack("<Q", n_written)           # contents
        header += struct.pack("<B", 0)                   # clustered=false (ref)
        header += struct.pack("<B", COMPRESSION_GZIP)  # internal (dirs/meta)
        # tile_compression reflects the blobs actually written: the CLI
        # threads config.compress through (gzip→2, none→1, deflate→0
        # "unknown" — pmtiles has no raw-deflate code). ADVICE r1.
        header += struct.pack("<B", tile_compression)
        header += struct.pack("<B", TILETYPE_MVT)
        header += struct.pack("<B", min_zoom)
        header += struct.pack("<B", max_zoom)
        header += struct.pack("<i", int(bounds[0] * 1e7))
        header += struct.pack("<i", int(bounds[1] * 1e7))
        header += struct.pack("<i", int(bounds[2] * 1e7))
        header += struct.pack("<i", int(bounds[3] * 1e7))
        header += struct.pack("<B", (min_zoom + max_zoom) // 2)
        header += struct.pack("<i", int((bounds[0] + bounds[2]) / 2 * 1e7))
        header += struct.pack("<i", int((bounds[1] + bounds[3]) / 2 * 1e7))
        f.seek(0)
        f.write(bytes(header))
    return n_written


# --- reader (for tests / merge) -----------------------------------------

def merge_pmtiles(path: str, tiles, metadata: dict,
                  min_zoom: int = 0, max_zoom: int = 14,
                  bounds=(-180.0, -85.06, 180.0, 85.06),
                  compress: str = "gzip",
                  tile_compression: int = COMPRESSION_GZIP) -> int:
    """--merge for .pmtiles, mirroring mbtiles merge_tiles_into
    (tile_worker.cpp:487-490 semantics): incoming tiles whose (z,x,y)
    already exists get the existing features merged in (old first);
    untouched existing tiles are carried over. PMTiles is a clustered
    single-file archive, so the merge rewrites the file (the existing
    archive is fully decoded first — no in-place append exists)."""
    from .. import mvt as _mvt
    packed = compress != "none"
    existing: dict[tuple[int, int, int], bytes] = {}
    old_code = tile_compression
    if os.path.exists(path):
        rd = read_pmtiles(path)
        old_code = rd["tile_compression"]
        for tid, data in rd["tiles"].items():
            existing[tileid_to_zxy(tid)] = data
    # the archive's single tile_compression header byte must describe
    # EVERY blob: carried-over tiles written under a different code are
    # re-encoded to the new run's coding (ADVICE r2)
    old_packed = old_code != COMPRESSION_NONE

    def recode(data: bytes) -> bytes:
        if old_code == tile_compression:
            return data
        raw = _mvt.decompress_tile(data) if old_packed else data
        return _mvt.compress_tile(raw, gzip_fmt=compress == "gzip") \
            if packed else raw

    def merged():
        seen = set()
        for row in tiles:
            z, x, y, data = int(row[0]), int(row[1]), int(row[2]), bytes(row[3])
            old = existing.get((z, x, y))
            if old is not None:
                old_raw = _mvt.decompress_tile(old) if old_packed else old
                new_raw = _mvt.decompress_tile(data) if packed else data
                out = _mvt.merge_tiles(old_raw, new_raw)
                data = _mvt.compress_tile(out, gzip_fmt=compress == "gzip") \
                    if packed else out
            seen.add((z, x, y))
            yield (z, x, y, data)
        for (z, x, y), data in existing.items():
            if (z, x, y) not in seen:
                yield (z, x, y, recode(data))

    return write_pmtiles(path, merged(), metadata, min_zoom, max_zoom,
                         bounds, tile_compression=tile_compression)


def _read_varint(data: bytes, i: int) -> tuple[int, int]:
    shift = v = 0
    while True:
        b = data[i]
        i += 1
        v |= (b & 0x7F) << shift
        if not (b & 0x80):
            return v, i
        shift += 7


def deserialize_directory(data: bytes) -> list[list[int]]:
    n, i = _read_varint(data, 0)
    out = [[0, 0, 0, 0] for _ in range(n)]
    last = 0
    for e in out:
        d, i = _read_varint(data, i)
        last += d
        e[0] = last
    for e in out:
        e[3], i = _read_varint(data, i)
    for e in out:
        e[2], i = _read_varint(data, i)
    for k, e in enumerate(out):
        v, i = _read_varint(data, i)
        e[1] = out[k - 1][1] + out[k - 1][2] if v == 0 else v - 1
    return out


def read_index(fd: int, path: str) -> dict:
    """Header, metadata and whole tile directory of the archive open at
    `fd`, read with os.pread and no tile data. "entries" holds every
    tile entry [tile_id, offset, length, run_length] in tile-id order,
    leaf directories inlined and offsets absolute in the file."""
    head = os.pread(fd, 127, 0)
    if len(head) < 127 or head[:7] != b"PMTiles" or head[7] != 3:
        raise ValueError(f"{path}: not a PMTiles v3 archive")
    (root_off, root_len, json_off, json_len, leaf_off, leaf_len,
     tile_off, tile_len, addressed, n_entries, contents) = \
        struct.unpack_from("<11Q", head, 8)

    def directory(off: int, ln: int) -> list[list[int]]:
        return deserialize_directory(gzip.decompress(os.pread(fd, ln, off)))

    def walk(entries):
        for tid, off, ln, run in entries:
            if run == 0:  # a leaf directory, not a tile
                yield from walk(directory(leaf_off + off, ln))
            else:
                yield [tid, tile_off + off, ln, run]

    return {"metadata": json.loads(gzip.decompress(
                os.pread(fd, json_len, json_off))),
            "entries": list(walk(directory(root_off, root_len))),
            "tile_compression": head[98],
            "counts": {"addressed": addressed, "entries": n_entries,
                       "contents": contents}}


def read_pmtiles(path: str) -> dict:
    """Decode header + directories + tiles (tile-id keys)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        index = read_index(fd, path)
        tiles: dict[int, bytes] = {}
        for tid, off, ln, run in index.pop("entries"):
            data = os.pread(fd, ln, off)
            for r in range(run):
                tiles[tid + r] = data
    finally:
        os.close(fd)
    return {**index, "tiles": tiles}


def tileid_to_zxy(tileid: int) -> tuple[int, int, int]:
    z = 0
    acc = 0
    while acc + (1 << z) * (1 << z) <= tileid:
        acc += (1 << z) * (1 << z)
        z += 1
    pos = tileid - acc
    n = 1 << z
    tx = ty = 0
    t = pos
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        tx, ty = _rotate(s, tx, ty, rx, ry)
        tx += s * rx
        ty += s * ry
        t //= 4
        s *= 2
    return z, tx, ty
