"""WARC (ISO 28500) source: writer/index/reader round-trip over the
deterministic synthetic pages table — url, warc_ts, html must survive
byte-identically, sharded parallel reads must equal the whole file."""

import gzip

import numpy as np
import pandas as pd
import pytest

from tilemaker_ray.sources.pages import generate_block
from tilemaker_ray.sources.warc import (_shard_ranges, index_warc_gz,
                                        parse_warc_range, parse_warc_records,
                                        warc_ranges, write_warc)


@pytest.fixture(scope="module")
def pages():
    return generate_block(seed=7, block_id=0, n_rows=300)


@pytest.fixture(scope="module")
def warc_gz(pages, tmp_path_factory):
    p = str(tmp_path_factory.mktemp("warc") / "crawl.warc.gz")
    assert write_warc(pages, p, compress=True) == 300
    return p


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("url").reset_index(drop=True)


def read_warc(path: str, n_shards: int) -> pd.DataFrame:
    """The whole crawl, as the build reads it: every range of
    warc_ranges parsed by parse_warc_range, one map task's input each."""
    import pyarrow as pa
    return pa.concat_tables([parse_warc_range(path, a, b)
                             for a, b in warc_ranges(path, n_shards)]
                            ).to_pandas()


def test_index_finds_every_member(warc_gz):
    ranges = index_warc_gz(warc_gz)
    # 300 responses + 1 warcinfo, contiguous, covering the whole file
    assert len(ranges) == 301
    import os
    assert ranges[0][0] == 0 and ranges[-1][1] == os.path.getsize(warc_gz)
    for (_, b), (a2, _) in zip(ranges, ranges[1:]):
        assert b == a2


def test_parse_roundtrip_byte_identical(pages, warc_gz):
    with open(warc_gz, "rb") as f:
        import io
        raw = gzip.GzipFile(fileobj=io.BytesIO(f.read())).read()
    got = parse_warc_records(raw).to_pandas()
    exp = pages.select(["url", "warc_ts", "html"]).to_pandas()
    a, b = _norm(got), _norm(exp)
    assert list(a.url) == list(b.url)
    assert all(x == y for x, y in zip(a.html, b.html))  # byte-identical
    assert (a.warc_ts.to_numpy() == b.warc_ts.to_numpy()).all()


def test_shard_ranges_partition_exactly():
    ranges = [(i * 10, i * 10 + 10) for i in range(100)]
    shards = _shard_ranges(ranges, 7)
    assert shards[0][0] == 0 and shards[-1][1] == 1000
    for (_, b), (a2, _) in zip(shards, shards[1:]):
        assert b == a2
    assert all(a % 10 == 0 and b % 10 == 0 for a, b in shards)


def test_read_warc_sharded_equals_whole(pages, warc_gz):
    got = read_warc(warc_gz, n_shards=8)
    exp = pages.select(["url", "warc_ts", "html"]).to_pandas()
    a, b = _norm(got), _norm(exp)
    assert len(a) == 300
    assert list(a.url) == list(b.url)
    assert all(x == y for x, y in zip(a.html, b.html))


def test_read_plain_warc(pages, tmp_path):
    p = str(tmp_path / "crawl.warc")
    write_warc(pages, p, compress=False)
    got = _norm(read_warc(p, n_shards=5))
    exp = _norm(pages.select(["url", "warc_ts", "html"]).to_pandas())
    assert list(got.url) == list(exp.url)
    assert all(x == y for x, y in zip(got.html, exp.html))


def test_read_warc_many_chunks_mid_member_boundaries(pages, warc_gz):
    """Index-free chunked read with far more chunks than bytes-per-
    member: most chunk boundaries fall MID-member and some chunks own
    no member start at all — the straddling-member ownership rule must
    still partition the records exactly once."""
    got = _norm(read_warc(warc_gz, n_shards=97))
    exp = _norm(pages.select(["url", "warc_ts", "html"]).to_pandas())
    assert list(got.url) == list(exp.url)
    assert all(x == y for x, y in zip(got.html, exp.html))


def test_sync_skips_false_magic_in_stored_blocks(tmp_path):
    """Self-synchronization must reject gzip-magic byte sequences that
    are just payload: level-0 gzip members use stored deflate blocks,
    so GZ_MAGIC planted in the html appears LITERALLY in the compressed
    stream. Every chunk must still find only real member starts."""
    from tilemaker_ray.sources.warc import (GZ_MAGIC, _parse_gz_chunk,
                                            _record, _warc_date)
    html = (b"<html>" + GZ_MAGIC + b"WARC/1.1\r\n" + GZ_MAGIC * 40
            + b"trap" + GZ_MAGIC + b"</html>")
    p = str(tmp_path / "trap.warc.gz")
    ts = np.datetime64("2024-03-01T00:00:00.000001", "us")
    with open(p, "wb") as f:
        for i in range(30):
            http = (b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(html)).encode() + b"\r\n\r\n" + html)
            rec = _record(
                [(b"WARC-Type", b"response"),
                 (b"WARC-Target-URI", b"https://t.example/%d" % i),
                 (b"WARC-Date", _warc_date(ts)),
                 (b"Content-Type", b"application/http; msgtype=response")],
                http)
            f.write(gzip.compress(rec, 0))  # stored blocks: magic is literal
    import os
    size = os.path.getsize(p)
    # verify the trap is armed: raw stream contains magic mid-member
    raw = open(p, "rb").read()
    member_len = size // 30
    assert raw.count(GZ_MAGIC) > 30
    # parse via many small chunks, all boundaries landing mid-member
    step = max(97, member_len // 3)
    bounds = list(range(0, size, step)) + [size]
    tabs = [_parse_gz_chunk(p, a, b) for a, b in zip(bounds, bounds[1:])]
    import pyarrow as pa
    got = pa.concat_tables(tabs).to_pandas()
    assert len(got) == 30
    assert sorted(got.url) == ["https://t.example/%d" % i for i in
                               sorted(range(30), key=str)]
    assert all(h == html for h in got.html)


@pytest.mark.usefixtures("ray_session")
def test_write_warc_dir_roundtrip_and_resume(pages, tmp_path):
    """Distributed sink: one part per block, atomic + content-addressed
    (a second run writes nothing new), and the parts read back to the
    exact input rows."""
    import glob
    import os

    import ray.data

    from tilemaker_ray.sources.warc import write_warc_dir

    d = str(tmp_path / "crawl_parts")
    ds = ray.data.from_arrow(pages).repartition(4)
    n1 = write_warc_dir(ds, d)
    files = sorted(glob.glob(os.path.join(d, "part-*.warc.gz")))
    assert n1 == len(files) == 4
    mtimes = [os.path.getmtime(f) for f in files]
    assert write_warc_dir(ray.data.from_arrow(pages).repartition(4),
                          d) == 4
    assert [os.path.getmtime(f) for f in files] == mtimes  # resumed

    dfs = [read_warc(f, n_shards=2) for f in files]
    back = _norm(pd.concat(dfs, ignore_index=True))
    exp = _norm(pages.select(["url", "warc_ts", "html"]).to_pandas())
    assert list(back.url) == list(exp.url)
    assert all(x == y for x, y in zip(back.html, exp.html))


def test_non_response_records_skipped(pages, warc_gz):
    with open(warc_gz, "rb") as f:
        import io
        raw = gzip.GzipFile(fileobj=io.BytesIO(f.read())).read()
    t = parse_warc_records(raw)
    assert len(t) == 300  # warcinfo dropped


def test_warc_date_roundtrips_microseconds(pages):
    ts = pages.column("warc_ts").to_numpy()
    from tilemaker_ray.sources.warc import _warc_date
    s = _warc_date(ts[0])
    back = np.datetime64(s.decode().rstrip("Z"), "us")
    assert back == ts[0]


@pytest.mark.usefixtures("ray_session")
def test_warc_to_tiles_matches_parquet_path(tmp_path):
    """End-to-end: the same crawl read from WARC produces the same tile
    keys and per-tile feature counts as the parquet pages path (text is
    re-derived from html byte-identically; only the lang attr differs,
    predicted vs stored)."""
    import pyarrow.parquet as pq

    from tilemaker_ray.pipelines.flagship import tile_dataset
    from tilemaker_ray.sources.pages import pages_path

    pages_dir = pages_path(1000)
    import glob
    import pyarrow as pa
    tabs = [pq.read_table(p) for p in sorted(glob.glob(pages_dir + "/*.parquet"))]
    warc = str(tmp_path / "crawl.warc.gz")
    write_warc(pa.concat_tables(tabs), warc)

    cols = ["zoom", "tile_x", "tile_y", "n_features"]
    a = tile_dataset(pages_dir).to_pandas()[cols]
    b = tile_dataset(warc).to_pandas()[cols]
    a = a.sort_values(cols[:3]).reset_index(drop=True)
    b = b.sort_values(cols[:3]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_resumable_run_from_warc(pages, tmp_path):
    """--resume works with a .warc.gz input: the first run writes the
    tiles of tile_dataset byte for byte, and a rerun skips every
    partition and reads every byte range's stage-A checkpoint."""
    import glob
    import os

    from tilemaker_ray.pipelines.flagship import tile_dataset
    from tilemaker_ray.pipelines.resumable import run_resumable

    warc = str(tmp_path / "crawl.warc.gz")
    write_warc(pages, warc)
    out = str(tmp_path / "tiles_out")
    s1 = run_resumable(warc, out)
    assert s1["tiles_written_this_run"] > 0
    assert s1["feature_files_total"] == len(warc_ranges(warc)) > 1
    s2 = run_resumable(warc, out)
    assert s2["tiles_written_this_run"] == 0
    assert s2["partitions_done_before"] == s1["partitions_total"]
    assert s2["feature_files_done_before"] == s1["feature_files_total"]

    keys = ["zoom", "tile_x", "tile_y"]
    got = pd.concat([pd.read_parquet(f) for f in
                     glob.glob(os.path.join(out, "tiles", "*.parquet"))])
    got = got.sort_values(keys).reset_index(drop=True)
    exp = tile_dataset(warc).to_pandas().sort_values(keys) \
        .reset_index(drop=True)
    assert got[keys].astype(int).equals(exp[keys].astype(int))
    assert all(bytes(a) == bytes(b) for a, b in zip(got["mvt"], exp["mvt"]))


def test_langid_vote():
    """The WARC path's language vote: the language whose profile
    shares the most words wins; a tie goes to the first language in
    sorted order; no shared word gives 'und'."""
    from tilemaker_ray.ops.text import LangId

    langs, evidence = LangId().predict([
        "the city guide",            # en: 3
        "die stadt und der",         # de: 4
        "la ville et",               # fr: 3, es: 1
        "el y ciudad la",            # es: 4, fr: 1
        "la",                        # es: 1, fr: 1 -> es sorts first
        "und the",                   # de: 1, en: 1 -> de sorts first
        "nothing shared here",       # no evidence
        "",
        "la la la le",               # a word counts once: fr 2, es 1
    ])
    assert langs == ["en", "de", "fr", "es", "es", "de", "und", "und", "fr"]
    assert evidence == [3, 4, 3, 4, 1, 1, 0, 0, 2]
