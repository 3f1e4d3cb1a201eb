"""WARC (ISO 28500) source — the container Common-Crawl actually ships.

The graft's input hint is a parquet table of Common-Crawl-style pages
(url, warc_ts, html, text, lang); real crawls arrive as .warc.gz where
EVERY record is its own gzip member, which is exactly what makes the
format parallel-readable — the same blocked-source shape as the PBF
reader (sources/pbf.py: blob index → per-blob tasks; reference
/root/reference/src/pbf_reader.cpp).

Scale notes (100 TB crawl):
- .gz reads are INDEX-FREE and fully distributed: the driver computes
  size/n chunk boundaries from a stat call (zero byte reads,
  `warc_ranges`); each range's parse (`parse_warc_range`, in one map
  task of the build, pipelines/chain.py) self-synchronizes to the
  first real gzip member in its range (magic scan + validated
  inflate + WARC/ prefix) and owns every
  member STARTING in-range, so the partition is exact with no
  coordination.  `index_warc_gz` (streaming exact member index)
  remains for tests / tools that want explicit ranges.
- Parsing is per-range and stateless, batched into ~32 MB Arrow
  tables; the same map task goes on to extract and tile the pages, as
  it does for a parquet pages file.
- `write_warc_dir` is the distributed sink twin: one content-addressed
  part per block, atomic renames → restart-safe resumable output.

Writer included so tests and benchmarks synthesize deterministic WARC
fixtures from the synthetic pages table — no external data.
"""

from __future__ import annotations

import gzip
import zlib

import numpy as np
import pyarrow as pa

CRLF = b"\r\n"
WARC_VERSION = b"WARC/1.1"


def _warc_date(ts: np.datetime64) -> bytes:
    """ISO 8601 UTC with microseconds (WARC-Date; WARC 1.1 allows
    fractional seconds, which round-trips the parquet us precision)."""
    s = np.datetime_as_string(ts, unit="us")
    return (s + "Z").encode()


def _record(headers: list[tuple[bytes, bytes]], payload: bytes) -> bytes:
    buf = bytearray()
    buf += WARC_VERSION + CRLF
    for k, v in headers:
        buf += k + b": " + v + CRLF
    buf += b"Content-Length: " + str(len(payload)).encode() + CRLF
    buf += CRLF
    buf += payload
    buf += CRLF + CRLF
    return bytes(buf)


def write_warc(table: pa.Table, path: str, compress: bool = True) -> int:
    """Serialize a pages table (url, warc_ts, html) to WARC response
    records, one gzip member per record when compressed (the
    Common-Crawl layout `index_warc_gz` relies on). Leads with a
    warcinfo record, as real crawl segments do. Returns record count
    (excluding warcinfo)."""
    urls = table.column("url").to_pylist()
    tss = table.column("warc_ts").to_numpy()
    htmls = table.column("html").to_pylist()

    def emit(rec: bytes, f) -> None:
        f.write(gzip.compress(rec, 6) if compress else rec)

    with open(path, "wb") as f:
        info = _record(
            [(b"WARC-Type", b"warcinfo"),
             (b"WARC-Date", _warc_date(tss[0] if len(tss) else
                                       np.datetime64("2024-01-01", "us"))),
             (b"Content-Type", b"application/warc-fields")],
            b"software: tilemaker_ray synthetic crawl\r\n")
        emit(info, f)
        for url, ts, html in zip(urls, tss, htmls):
            http = (b"HTTP/1.1 200 OK" + CRLF +
                    b"Content-Type: text/html" + CRLF +
                    b"Content-Length: " + str(len(html)).encode() + CRLF +
                    CRLF + html)
            rec = _record(
                [(b"WARC-Type", b"response"),
                 (b"WARC-Target-URI", url.encode()),
                 (b"WARC-Date", _warc_date(ts)),
                 (b"Content-Type",
                  b"application/http; msgtype=response")],
                http)
            emit(rec, f)
    return len(urls)


def write_warc_dir(ds, out_dir: str, compress: bool = True) -> int:
    """Distributed WARC sink: each block of the pages Dataset writes
    its own part-NNNNN.warc.gz (atomic rename, so a restarted job can
    skip finished parts — the resumable-output rule). Per-record gzip
    members keep every part parallel-readable by `warc_ranges`; reading
    the directory back is `parse_warc_range` over each part's ranges,
    or any standard WARC tool. Returns the number of parts written."""
    import os

    os.makedirs(out_dir, exist_ok=True)

    def write_part(b: pa.Table) -> pa.Table:
        # content-addressed name (md5 of the block's url column):
        # deterministic for a given block, so retries land on their
        # own part instead of duplicating it
        import hashlib
        tag = hashlib.md5(
            "\n".join(b.column("url").to_pylist()).encode()).hexdigest()[:16]
        path = os.path.join(out_dir, f"part-{tag}.warc.gz")
        if not os.path.exists(path):
            tmp = path + f".tmp-{os.getpid()}"
            write_warc(b, tmp, compress=compress)
            os.replace(tmp, path)
        return pa.table({"part": pa.array([path], pa.string()),
                         "records": pa.array([len(b)], pa.int64())})

    parts = ds.map_batches(write_part, batch_format="pyarrow",
                           batch_size=None).to_pandas()
    return len(parts)


def index_warc_gz(path: str) -> list[tuple[int, int]]:
    """Byte ranges [(start, end), ...] of the gzip members of a
    multi-member .warc.gz — the record index that makes the file
    parallel-readable. One sequential pass with a raw-deflate
    decompressobj: inflate (discarding output) until each member's
    trailer, note the boundary, continue. Streams the file in 64 KiB
    windows — never holds more than window + carry in memory.

    This is the exact-index fallback (tests, tiny files); `warc_ranges`
    doesn't need it: the range tasks self-synchronize on member magic
    (`_sync_to_member`), so no driver pass touches the bytes at all."""
    ranges: list[tuple[int, int]] = []
    win = 1 << 16
    with open(path, "rb") as f:
        carry = b""          # bytes already read but past the last eof
        fpos = 0             # absolute offset of the end of all bytes fed
        start = 0
        d = zlib.decompressobj(wbits=zlib.MAX_WBITS | 16)
        while True:
            if carry:
                piece, carry = carry, b""   # already counted in fpos
            else:
                piece = f.read(win)
                fpos += len(piece)
            if not piece:
                if fpos != start:   # mid-member EOF
                    raise ValueError(f"truncated gzip member at {start}")
                break
            d.decompress(piece)
            if d.eof:
                carry = d.unused_data
                end = fpos - len(carry)
                ranges.append((start, end))
                start = end
                d = zlib.decompressobj(wbits=zlib.MAX_WBITS | 16)
    return ranges


def parse_warc_records(raw: bytes) -> pa.Table:
    """Parse concatenated (already-decompressed) WARC records into
    (url, warc_ts, html); non-response records (warcinfo, request,
    metadata) are skipped. Pure bytes walking — Content-Length framed,
    never regex over payloads."""
    urls: list[str] = []
    tss: list[np.datetime64] = []
    htmls: list[bytes] = []
    pos, n = 0, len(raw)
    while pos < n:
        # skip inter-record CRLFs
        while pos < n and raw[pos:pos + 2] == CRLF:
            pos += 2
        if pos >= n:
            break
        hdr_end = raw.index(CRLF + CRLF, pos)
        head = raw[pos:hdr_end].split(CRLF)
        if not head[0].startswith(b"WARC/"):
            raise ValueError(f"bad record header at {pos}")
        fields: dict[bytes, bytes] = {}
        for line in head[1:]:
            k, _, v = line.partition(b": ")
            fields[k.lower()] = v
        clen = int(fields[b"content-length"])
        payload = raw[hdr_end + 4:hdr_end + 4 + clen]
        pos = hdr_end + 4 + clen
        if fields.get(b"warc-type") != b"response":
            continue
        http_end = payload.index(CRLF + CRLF)
        urls.append(fields[b"warc-target-uri"].decode())
        tss.append(np.datetime64(
            fields[b"warc-date"].decode().rstrip("Z"), "us"))
        htmls.append(payload[http_end + 4:])
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(np.array(tss, dtype="datetime64[us]"),
                            pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
    })


GZ_MAGIC = b"\x1f\x8b\x08"          # gzip header, deflate method
CHUNK_TARGET = 64 << 20             # max raw bytes per index-free shard


def _inflate_member(f, start: int, out_cap: int | None = None):
    """Inflate the gzip member at absolute offset `start`, reading the
    file in 64 KiB windows. Returns (decompressed bytes, end offset) or
    None if `start` is not a valid member (bad header / corrupt stream
    / truncated) — which is how candidate magic offsets inside
    compressed payloads get rejected. `out_cap` stops early once that
    many output bytes exist (enough to check the WARC/ prefix cheaply
    during sync)."""
    d = zlib.decompressobj(wbits=zlib.MAX_WBITS | 16)
    out = bytearray()
    f.seek(start)
    pos = start
    try:
        while True:
            piece = f.read(1 << 16)
            if not piece:
                return None          # truncated member
            out += d.decompress(piece)
            pos += len(piece)
            if d.eof:
                return bytes(out), pos - len(d.unused_data)
            if out_cap is not None and len(out) >= out_cap:
                return bytes(out), -1   # prefix available, end unknown
    except zlib.error:
        return None


def _sync_to_member(f, start: int, limit: int) -> int:
    """First offset in [start, limit) that begins a REAL gzip member
    (valid header + inflates + payload starts with 'WARC/'), or -1.
    The self-synchronization that lets byte-chunk tasks index a
    concatenated-member .warc.gz with no driver pass: magic candidates
    that are just compressed-payload bytes fail the inflate/prefix
    check and are skipped (exercised by a stored-block test fixture)."""
    win = 1 << 20
    pos = start
    tail = b""
    while pos < limit:
        f.seek(pos)
        piece = f.read(min(win, limit - pos) + len(GZ_MAGIC))
        if len(piece) < len(GZ_MAGIC):
            return -1               # EOF before limit, no room for magic
        buf = tail + piece
        base = pos - len(tail)
        i = buf.find(GZ_MAGIC)
        while i != -1 and base + i < limit:
            cand = base + i
            got = _inflate_member(f, cand, out_cap=8)
            if got is not None and got[0][:5] == b"WARC/":
                return cand
            i = buf.find(GZ_MAGIC, i + 1)
        pos = base + len(buf) - (len(GZ_MAGIC) - 1)
        tail = buf[-(len(GZ_MAGIC) - 1):]
    return -1


PARSE_FLUSH = 32 << 20  # inflate this many record bytes per parse call


def _parse_gz_chunk(path: str, cstart: int, cend: int) -> pa.Table:
    """Parse every gzip member whose first byte lies in [cstart, cend):
    sync to the first member at-or-after cstart, then walk member by
    member (a member straddling cend is owned — and fully read — by
    this chunk). Inflated records accumulate and parse in ~32 MB runs
    (one Arrow table per run, not one per record); memory is bounded
    by PARSE_FLUSH + one member."""
    tabs = []
    pending: list[bytes] = []
    npend = 0

    def flush():
        nonlocal npend
        if pending:
            tabs.append(parse_warc_records(b"".join(pending)))
            pending.clear()
            npend = 0

    with open(path, "rb") as f:
        pos = 0 if cstart == 0 else _sync_to_member(f, cstart, cend)
        while 0 <= pos < cend:
            got = _inflate_member(f, pos)
            if got is None:
                raise ValueError(f"truncated gzip member at {pos}")
            raw, pos = got
            pending.append(raw)
            npend += len(raw)
            if npend >= PARSE_FLUSH:
                flush()
    flush()
    return (pa.concat_tables(tabs) if tabs else
            parse_warc_records(b""))


def _shard_ranges(ranges: list[tuple[int, int]],
                  n_shards: int) -> list[tuple[int, int]]:
    """Group contiguous member ranges into ~byte-balanced shards, each
    a single (start, end) range read."""
    if not ranges:
        return []
    total = ranges[-1][1] - ranges[0][0]
    per = max(1, total // max(1, n_shards))
    shards: list[tuple[int, int]] = []
    s = ranges[0][0]
    for (a, b) in ranges:
        if b - s >= per and b != ranges[-1][1]:
            shards.append((s, b))
            s = b
    shards.append((s, ranges[-1][1]))
    return shards


def warc_ranges(path: str, n_shards: int = 32) -> list[tuple[int, int]]:
    """The byte ranges [(start, end), ...] a crawl is read in, one
    task each; `parse_warc_range` parses one.

    .gz path is INDEX-FREE: only file-size/n byte chunk boundaries (a
    stat call — zero byte reads); each range's parse self-synchronizes
    to the first real gzip member at-or-after its start
    (`_sync_to_member`: magic scan + validated inflate + WARC/ prefix,
    the same resync trick as the newline-aligned JSONL chunking in
    sources/geojson.py) and parses every member that STARTS inside its
    range — a member straddling the boundary is owned by the range
    holding its first byte, so the partition is exact with no
    coordination. Ranges are capped at CHUNK_TARGET raw bytes so a huge
    segment can't blow a worker's heap (the blocked-source pattern; S1
    PBF reader twin).

    Plain .warc: records are Content-Length framed with no resync-able
    magic, so boundaries need a sequential header walk — but only the
    HEADERS are read (seek past payloads), so this pass is
    O(records × header bytes), not O(file); records are grouped into
    ~byte-balanced ranges."""
    import os

    size = os.path.getsize(path)
    if path.endswith(".gz"):
        n = max(n_shards, -(-size // CHUNK_TARGET))
        bounds = [size * i // n for i in range(n + 1)]
        return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    offs: list[int] = []
    with open(path, "rb") as f:
        pos = 0
        while pos < size:
            f.seek(pos)
            head = f.read(4096)
            while head[:2] == CRLF:      # inter-record CRLFs
                pos += 2
                head = head[2:]
            if not head:
                break
            while CRLF + CRLF not in head:
                more = f.read(4096)
                if not more:
                    raise ValueError(f"unterminated header at {pos}")
                head += more
            offs.append(pos)
            hdr_len = head.index(CRLF + CRLF)
            for line in head[:hdr_len].split(CRLF)[1:]:
                k, _, v = line.partition(b": ")
                if k.lower() == b"content-length":
                    pos = pos + hdr_len + 4 + int(v)
                    break
            else:
                raise ValueError(f"record without Content-Length at {pos}")
    return _shard_ranges(list(zip(offs, offs[1:] + [size])), n_shards)


def parse_warc_range(path: str, start: int, end: int) -> pa.Table:
    """(url, warc_ts, html) of the records one `warc_ranges` range
    owns."""
    if path.endswith(".gz"):
        return _parse_gz_chunk(path, start, end)
    with open(path, "rb") as f:
        f.seek(start)
        return parse_warc_records(f.read(end - start))
