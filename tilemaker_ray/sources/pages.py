"""Deterministic synthetic Common-Crawl-style web-page table.

Input shape mandated by BASELINE.json input_hint:
    (url:string, warc_ts:timestamp, html:binary, text:string, lang:string)

No external data: pages are synthesized deterministically from a seed.
Page text embeds geo mentions that the extraction profile parses:

    point:   "geo:<lat>,<lon>"                       → POINT feature
    route:   "route:<lat>,<lon>;<lat>,<lon>;..."     → LINESTRING feature
    area:    "area:<lat>,<lon>;<lat>,<lon>;..."      → POLYGON feature (ring)

Determinism contract: row i's content is a pure function of (seed, i)
— generation happens in fixed-size blocks of BLOCK_ROWS rows with a
per-block child seed, so the same (seed, n_rows) always produces the
same table regardless of how many parquet files it is split into.

This is the graft equivalent of the reference's .osm.pbf input
(/root/reference/src/pbf_reader.cpp): a parallel-readable, blocked,
deterministic source of entities.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BLOCK_ROWS = 10_000

LANGS = np.array(["en", "de", "fr", "es", "pt", "zh", "ja", "ru"])
WORDS = np.array([
    "travel", "city", "guide", "map", "street", "hotel", "park", "museum",
    "restaurant", "river", "coast", "mountain", "station", "market", "harbor",
    "visit", "near", "located", "district", "region", "tour", "walk",
])

# Feature "cities" — cluster centers pages talk about. Skewed: a few hot
# clusters (dense urban tiles) to exercise the salting path.
N_CLUSTERS = 64


def _cluster_table(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed ^ 0xC1057E85)
    lat = rng.uniform(-60.0, 65.0, N_CLUSTERS)
    lon = rng.uniform(-170.0, 170.0, N_CLUSTERS)
    # zipf-ish popularity: cluster 0 is ~30x hotter than the median
    pop = 1.0 / np.arange(1, N_CLUSTERS + 1) ** 0.8
    pop /= pop.sum()
    return lat, lon, pop


def generate_block(seed: int, block_id: int, n_rows: int) -> pa.Table:
    rng = np.random.default_rng((seed << 20) ^ block_id)
    clat, clon, cpop = _cluster_table(seed)
    base = block_id * BLOCK_ROWS

    doc_ids = np.arange(base, base + n_rows, dtype=np.int64)
    cl = rng.choice(N_CLUSTERS, size=n_rows, p=cpop)
    lang = LANGS[rng.integers(0, len(LANGS), n_rows)]
    ts = np.datetime64("2024-01-01T00:00:00") + \
        rng.integers(0, 365 * 24 * 3600, n_rows).astype("timedelta64[s]")

    urls = np.char.add(
        np.char.add("https://site", (doc_ids % 997).astype("U8")),
        np.char.add(".example/page/", doc_ids.astype("U12")))

    kinds = rng.random(n_rows)  # <0.70 point, <0.90 route, <0.97 area, else none
    texts: list[str] = []
    for i in range(n_rows):
        r = np.random.default_rng((seed << 21) ^ (base + i))
        nw = int(r.integers(8, 40))
        words = WORDS[r.integers(0, len(WORDS), nw)]
        lat0 = clat[cl[i]] + r.normal(0, 0.5)
        lon0 = clon[cl[i]] + r.normal(0, 0.5)
        mention = ""
        k = kinds[i]
        if k < 0.70:
            mention = f"geo:{lat0:.5f},{lon0:.5f}"
        elif k < 0.90:
            npts = int(r.integers(3, 9))
            dlat = np.cumsum(r.normal(0, 0.01, npts)) + lat0
            dlon = np.cumsum(r.normal(0, 0.01, npts)) + lon0
            mention = "route:" + ";".join(f"{a:.5f},{b:.5f}" for a, b in zip(dlat, dlon))
        elif k < 0.97:
            npts = int(r.integers(4, 10))
            ang = np.sort(r.uniform(0, 2 * np.pi, npts))
            rad = r.uniform(0.005, 0.08, npts)
            alat = lat0 + rad * np.sin(ang)
            alon = lon0 + rad * np.cos(ang)
            mention = "area:" + ";".join(f"{a:.5f},{b:.5f}" for a, b in zip(alat, alon))
        pos = int(r.integers(0, nw))
        toks = list(words[:pos]) + ([mention] if mention else []) + list(words[pos:])
        texts.append(" ".join(toks))

    html = [f"<html><body><p>{t}</p></body></html>".encode() for t in texts]
    return pa.table({
        "url": pa.array(urls.tolist(), pa.string()),
        "warc_ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "html": pa.array(html, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(lang.tolist(), pa.string()),
    })


def _materialize_blocked(d: str, n_rows: int, gen) -> str:
    """Write-once blocked materialization shared by every pages variant:
    `gen(block_id, rows)` must be a pure function (same args → same
    table), so concurrent/retried materializations converge on the same
    bytes; the _DONE marker plus tmp-dir rename makes it idempotent."""
    done = os.path.join(d, "_DONE")
    if os.path.exists(done):
        return d
    tmp = d + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    n_blocks = (n_rows + BLOCK_ROWS - 1) // BLOCK_ROWS
    for b in range(n_blocks):
        rows = min(BLOCK_ROWS, n_rows - b * BLOCK_ROWS)
        pq.write_table(gen(b, rows), os.path.join(tmp, f"block-{b:05d}.parquet"))
    os.makedirs(d, exist_ok=True)
    for f in os.listdir(tmp):
        os.replace(os.path.join(tmp, f), os.path.join(d, f))
    os.rmdir(tmp)
    with open(done, "w") as fh:
        fh.write("ok")
    return d


def pages_path(n_rows: int, seed: int = 42, root: str = "/tmp/tilemaker_ray_pages") -> str:
    """Materialize (once) and return the directory of the synthetic pages
    parquet table. One file per generation block → parallel reads."""
    d = os.path.join(root, f"n{n_rows}_s{seed}")
    return _materialize_blocked(
        d, n_rows, lambda b, rows: generate_block(seed, b, rows))


def generate_snapshot2_block(seed: int, block_id: int,
                             n_rows: int) -> pa.Table:
    """Second-crawl variant of generate_block for the crawl-delta op:
    page i is GONE when i % 7 == 0, its text/html are CHANGED (a
    deterministic suffix) when i % 5 == 0, unchanged otherwise; a 10%
    tail of NEW urls (ids >= the first snapshot's n_rows) is appended
    by snapshot2_pages_path.  Derived from the same generate_block
    output so unchanged rows are byte-identical across snapshots."""
    t = generate_block(seed, block_id, n_rows)
    i = np.arange(block_id * BLOCK_ROWS,
                  block_id * BLOCK_ROWS + n_rows, dtype=np.int64)
    keep = (i % 7) != 0
    changed = ((i % 5) == 0) & keep
    txt = np.asarray(t.column("text").to_pylist(), dtype=object)
    txt[changed] = [s + " updated edition" for s in txt[changed]]
    html = [f"<html><body><p>{s}</p></body></html>".encode() for s in txt]
    out = pa.table({
        "url": t.column("url"),
        "warc_ts": t.column("warc_ts"),
        "html": pa.array(html, pa.binary()),
        "text": pa.array(txt.tolist(), pa.string()),
        "lang": t.column("lang"),
    })
    return out.filter(pa.array(keep))


def small_delta_pages_path(n_rows: int, seed: int = 42,
                           every: int = 37,
                           root: str = "/tmp/tilemaker_ray_pages") -> str:
    """A recrawl snapshot with a REALISTIC delta: only every `every`-th
    page's text changed (~2.7% — a weekly recrawl's churn), no
    gone/new urls.  The incremental-maintenance bench uses this; the
    snapshot2 fixture's ~37% delta exercises correctness, not the
    motivating workload.  Unchanged rows are byte-identical to
    pages_path(n_rows) (derived from the same generate_block)."""
    d = os.path.join(root, f"smalldelta_n{n_rows}_s{seed}_e{every}")

    def gen(b: int, rows: int) -> pa.Table:
        t = generate_block(seed, b, rows)
        i = np.arange(b * BLOCK_ROWS, b * BLOCK_ROWS + rows,
                      dtype=np.int64)
        changed = (i % every) == 0
        txt = np.asarray(t.column("text").to_pylist(), dtype=object)
        txt[changed] = [s + " minor revision" for s in txt[changed]]
        html = np.asarray(t.column("html").to_pylist(), dtype=object)
        html[changed] = [
            f"<html><body><p>{s}</p></body></html>".encode()
            for s in txt[changed]]
        return pa.table({
            "url": t.column("url"),
            "warc_ts": t.column("warc_ts"),
            "html": pa.array(html.tolist(), pa.binary()),
            "text": pa.array(txt.tolist(), pa.string()),
            "lang": t.column("lang"),
        })

    return _materialize_blocked(d, n_rows, gen)


def snapshot2_pages_path(n_rows: int, seed: int = 42,
                         root: str = "/tmp/tilemaker_ray_pages") -> str:
    """Materialize (once) the second-crawl snapshot: the modified
    survivors of pages_path(n_rows) plus a 10% tail of brand-new
    pages (ids n_rows .. n_rows + n_rows//10)."""
    d = os.path.join(root, f"snap2_n{n_rows}_s{seed}")
    n_new = n_rows // 10
    total = n_rows + n_new

    def gen(b: int, rows: int) -> pa.Table:
        base = b * BLOCK_ROWS
        if base >= n_rows:            # pure new-page block
            return generate_block(seed, b, rows)
        if base + rows <= n_rows:     # pure survivor block
            return generate_snapshot2_block(seed, b, rows)
        cut = n_rows - base           # straddling block
        old = generate_snapshot2_block(seed, b, cut)
        new = generate_block(seed, b, rows).slice(cut)
        return pa.concat_tables([old, new])

    return _materialize_blocked(d, total, gen)


def rows_for_sf(sf_dir: str) -> int:
    """Map a testdata sf dir to a pages row count (sf0.001 → 2k rows,
    sf0.01 → 20k, sf0.1 → 200k)."""
    name = os.path.basename(sf_dir.rstrip("/"))
    sf = float(name.replace("sf", "")) if name.startswith("sf") else 0.001
    return max(1000, int(sf * 2_000_000))
