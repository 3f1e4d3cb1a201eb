"""Deduplication operators over the documents table — exact dedup,
MinHash+LSH near-dup, SimHash, and n-gram Jaccard verification. These
are the training-data-pipeline extensions.

Oracle coverage (round 2): exact dedups, simhash (md5-based majority
bits reproduced in generated SQL) and minhash_pairs (exact n²-Jaccard
SQL — valid because LSH recall is verified complete on the synthetic
scales, see tests) all carry DuckDB oracles.

Scale notes (100 TB design):
- exact dedup: content-hash in a vectorized map_batches, then
  groupby(hash) keep-first — hash-partitioned, no full-text shuffle
  (only hash + doc_id move).
- minhash: shingle→minhash per batch (stateful word-hash cache per
  actor), explode to (band, band_hash) rows, groupby bands →
  candidate pairs → DISTRIBUTED pair dedup (groupby) → verify on the
  candidate set only: candidate doc ids (not texts) broadcast, their
  shingle-hash sets gathered in one streaming pass.  The round-1
  driver-side full-table read is gone; at extreme candidate volume
  swap the gather for a pair⋈docs hash join.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count, Min

from .text import content_hash64

NUM_PERM = 64
NUM_BANDS = 16  # 4 rows per band
SHINGLE_K = 3  # word shingles
MINHASH_LOCAL_BUCKET_LIMIT = 2_000_000  # sketch rows; above → groupby


def exact_hash_rows(b: pa.Table) -> pa.Table:
    """The shuffle rows for exact dedup: the FULL 128-bit md5 content
    hash (two int64 halves) + doc_id — 24 bytes/row regardless of text
    size.  The text itself never enters the exchange (VERDICT r3 #3:
    grouping by full text shuffled the entire corpus)."""
    digs = [hashlib.md5(t.encode()).digest()
            for t in b.column("text").to_pylist()]
    return pa.table({
        "h_hi": pa.array(np.frombuffer(b"".join(d[:8] for d in digs),
                                       dtype="<i8"), pa.int64()),
        "h_lo": pa.array(np.frombuffer(b"".join(d[8:] for d in digs),
                                       dtype="<i8"), pa.int64()),
        "doc_id": b.column("doc_id").cast(pa.int64()),
    })


def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact duplicate groups by full text: (representative min doc_id,
    n_dups) for every duplicated text.

    Two passes, neither shuffling corpus text: (1) hash-partition the
    24-byte (h128, doc_id) rows and count per hash; (2) for the hash
    groups with n>1 only, gather their texts and confirm exact-text
    equality within each group (splitting any — astronomically
    unlikely — 128-bit collisions), so the result matches the
    GROUP BY text oracle even adversarially.  The candidate-hash set
    is broadcast via ray.put; at extreme dup volume the same confirm
    runs as a hash join keyed on (h_hi, h_lo) instead."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    counts = (ds.map_batches(exact_hash_rows, batch_format="pyarrow")
                .groupby(["h_hi", "h_lo"])
                .aggregate(Count(alias_name="n"))).to_pandas()
    dups = counts[counts.n > 1]
    empty = pd.DataFrame({"rep_doc_id": pd.Series(dtype="int64"),
                          "n_dups": pd.Series(dtype="int64")})
    if len(dups) == 0:
        return empty
    dup_ref = ray.put(frozenset(zip(dups.h_hi.astype(int),
                                    dups.h_lo.astype(int))))

    def cand_rows(b: pa.Table) -> pa.Table:
        dup_set = ray.get(dup_ref)
        hb = exact_hash_rows(b)
        hi = hb.column("h_hi").to_numpy()
        lo = hb.column("h_lo").to_numpy()
        keep = np.fromiter(((int(a), int(c)) in dup_set
                            for a, c in zip(hi, lo)),
                           dtype=bool, count=len(hi))
        m = pa.array(keep)
        return pa.table({"h_hi": hb.column("h_hi").filter(m),
                         "h_lo": hb.column("h_lo").filter(m),
                         "doc_id": hb.column("doc_id").filter(m),
                         "text": b.column("text").filter(m)})

    def confirm(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("text", as_index=False)
                .agg(rep_doc_id=("doc_id", "min"), n_dups=("doc_id", "size")))
        out = out[out.n_dups > 1]
        return out[["rep_doc_id", "n_dups"]].astype("int64")

    df = (ds.map_batches(cand_rows, batch_format="pyarrow")
            .groupby(["h_hi", "h_lo"])
            .map_groups(confirm, batch_format="pandas")).to_pandas()
    if len(df) == 0:
        return empty
    return (df.astype("int64").sort_values("rep_doc_id")
              .reset_index(drop=True))


def q_dedup_keep_first(sf_dir: str) -> pd.DataFrame:
    """Exact dedup keep-first: the surviving doc_ids (min per text
    group) — at scale the groupby key is the 64-bit content hash, so
    only (hash, doc_id) shuffles, not the text."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def h(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "h": pa.array(content_hash64(
                b.column("text").to_pylist()).astype(np.int64)),
        })

    out = (ds.map_batches(h, batch_format="pyarrow")
             .groupby("h").aggregate(Min("doc_id", alias_name="doc_id")))
    df = out.to_pandas()[["doc_id"]]
    return df.sort_values("doc_id").reset_index(drop=True)


def _shingles(words: list[str], k: int = SHINGLE_K):
    if len(words) < k:
        return [" ".join(words)] if words else []
    return [" ".join(words[i:i + k]) for i in range(len(words) - k + 1)]


def _minhash_params():
    rng = np.random.default_rng(1234)
    a = rng.integers(1, (1 << 61) - 1, NUM_PERM, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, (1 << 61) - 1, NUM_PERM, dtype=np.uint64)
    return a, b


MERSENNE = np.uint64((1 << 61) - 1)

# odd mixing constants for combining word hashes into a shingle hash
_C = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xC2B2AE3D27D4EB4F)
_C3 = np.uint64(0x165667B19E3779F9)


def _word_hash(w: str, cache: dict) -> np.uint64:
    h = cache.get(w)
    if h is None:
        h = np.uint64(int.from_bytes(
            hashlib.md5(w.encode()).digest()[8:16], "little"))
        cache[w] = h
    return h


def shingle_hashes(text: str, cache: dict | None = None,
                   k: int = SHINGLE_K) -> np.ndarray:
    """uint64 hash per k-word shingle: md5 word hashes (cached per
    actor — most words repeat) combined with odd-constant mixing.
    Replaces the round-1 per-character Python FNV loop per shingle."""
    if cache is None:
        cache = {}
    words = text.split(" ")
    if not words:
        return np.empty(0, dtype=np.uint64)
    wh = np.fromiter((_word_hash(w, cache) for w in words),
                     dtype=np.uint64, count=len(words))
    if len(wh) < k:
        mix = wh[0]
        for h in wh[1:]:
            mix = mix * _C ^ h
        return np.array([mix], dtype=np.uint64)
    with np.errstate(over="ignore"):
        return wh[:-2] * _C ^ wh[1:-1] * _C2 ^ wh[2:] * _C3


def minhash_signature(text: str, a: np.ndarray, b: np.ndarray,
                      cache: dict | None = None) -> np.ndarray:
    hv = shingle_hashes(text, cache)
    if not len(hv):
        return np.zeros(NUM_PERM, dtype=np.uint64)
    # (a*h + b) mod mersenne prime, min over shingles per permutation
    with np.errstate(over="ignore"):
        prods = (a[:, None] * hv[None, :] + b[:, None]) % MERSENNE
    return prods.min(axis=1)


class MinHasher:
    """Stateful actor: permutation parameters and the word-hash cache
    live once per actor. Emits one row per (doc, band)."""

    def __init__(self):
        self.a, self.b = _minhash_params()
        self.rows_per_band = NUM_PERM // NUM_BANDS
        self.cache: dict = {}
        # band hash: vectorized mix of the band's signature rows
        self.band_mix = (np.arange(1, self.rows_per_band + 1, dtype=np.uint64)
                         * _C) | np.uint64(1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        n = len(texts)
        sigs = np.empty((n, NUM_PERM), dtype=np.uint64)
        for i, t in enumerate(texts):
            sigs[i] = minhash_signature(t, self.a, self.b, self.cache)
        # all docs × all bands at once
        seg = sigs.reshape(n, NUM_BANDS, self.rows_per_band)
        with np.errstate(over="ignore"):
            bh = (seg * self.band_mix[None, None, :]).sum(axis=2)
            bh ^= bh >> np.uint64(33)
            # fold the band index into the hash: ONE small-int exchange
            # key instead of a 2-column sort (the single-int-key lesson
            # from the flagship shuffle, BASELINE.md)
            bh = (bh * np.uint64(16) +
                  np.arange(NUM_BANDS, dtype=np.uint64)[None, :])
            bh = (bh & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        doc = np.repeat(ids.astype(np.int64), NUM_BANDS)
        return pa.table({"doc_id": pa.array(doc),
                         "bucket_key": pa.array(bh.reshape(-1))})


def jaccard(a: str, b: str, k: int = SHINGLE_K) -> float:
    sa = set(_shingles(a.split(" "), k))
    sb = set(_shingles(b.split(" "), k))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def q_minhash_pairs(sf_dir: str, threshold: float = 0.5) -> pd.DataFrame:
    """MinHash-LSH near-dup candidate pairs, verified with exact n-gram
    Jaccard >= threshold. Returns (doc_a, doc_b) with doc_a < doc_b.

    Pipeline: minhash (actor pool) → explode bands → groupby
    (band, band_hash) → pairs within buckets → DISTRIBUTED pair dedup
    → candidate-only verify: only candidate doc ids are broadcast and
    only their shingle sets are gathered (O(candidates), never the
    full table — VERDICT r1 #3)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    bands = ds.map_batches(MinHasher, batch_format="pyarrow",
                           concurrency=(1, 8))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(g.doc_id.unique())
        out_a = []
        out_b = []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                out_a.append(ids[i])
                out_b.append(ids[j])
        return pd.DataFrame({"doc_a": pd.Series(out_a, dtype="int64"),
                             "doc_b": pd.Series(out_b, dtype="int64")})

    # Size-adaptive bucketing.  The band sketch is ~16 ints per doc
    # (≈1% of the text bytes): below the threshold the all-to-all
    # groupby costs 10-100x the data it moves, so the sketch is pulled
    # and bucketed locally (vectorized); above it, the distributed
    # single-int-key groupby runs — the 100 TB path.  Row count comes
    # from parquet metadata, not a ds.count() execution pass.
    import pyarrow.parquet as pq
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    if n_docs * NUM_BANDS <= MINHASH_LOCAL_BUCKET_LIMIT:
        bdf = bands.to_pandas()
        kb = bdf["bucket_key"].to_numpy()
        doc = bdf["doc_id"].to_numpy()
        order = np.argsort(kb, kind="stable")
        kb_s, doc_s = kb[order], doc[order]
        cut = np.flatnonzero(kb_s[1:] != kb_s[:-1]) + 1
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [len(kb_s)]])
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ids = np.unique(doc_s[s:e])
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    out_a.append(ids[i])
                    out_b.append(ids[j])
        pdf = pd.DataFrame({"doc_a": pd.Series(out_a, dtype="int64"),
                            "doc_b": pd.Series(out_b, dtype="int64")}
                           ).drop_duplicates()
    else:
        pairs = (bands.groupby("bucket_key")
                      .map_groups(bucket_pairs, batch_format="pandas"))
        # candidate pairs are small by LSH construction: dedup on the
        # driver is O(candidates), the same order as the verify below
        pdf = pairs.to_pandas().drop_duplicates()
    empty = pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                          "doc_b": pd.Series(dtype="int64")})
    if len(pdf) == 0:
        return empty
    cand_ref = ray.put(frozenset(map(int, set(pdf.doc_a) | set(pdf.doc_b))))

    def cand_shingle_sets(b: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        ids = b.column("doc_id").to_numpy()
        keep = [i for i, d in enumerate(ids) if int(d) in cand]
        cache: dict = {}
        out_id, out_sh = [], []
        for i in keep:
            hv = np.unique(shingle_hashes(b.column("text")[i].as_py(), cache))
            out_id.append(int(ids[i]))
            out_sh.append(hv.tobytes())
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "shingles": pa.array(out_sh, pa.binary())})

    sets_df = ds.map_batches(cand_shingle_sets,
                             batch_format="pyarrow").to_pandas()
    sh = {int(r.doc_id): np.frombuffer(r.shingles, dtype=np.uint64)
          for r in sets_df.itertuples()}

    def jac(a: int, b: int) -> float:
        sa, sb = sh[a], sh[b]
        if not len(sa) and not len(sb):
            return 1.0
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        return inter / (len(sa) + len(sb) - inter)

    keep = [jac(int(a), int(b)) >= threshold
            for a, b in zip(pdf.doc_a, pdf.doc_b)]
    out = pdf[np.asarray(keep, dtype=bool)][["doc_a", "doc_b"]]
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# --- exact n-gram Jaccard pairs via distributed inverted index ------------

# Default document-frequency cap for PIPELINE use: a shingle occurring
# in m docs emits O(m²) pair rows, so one ubiquitous stop-shingle is a
# death key at crawl scale (VERDICT r3 #4).  The ORACLE query passes
# max_df=None explicitly to stay exact.
NGRAM_MAX_DF = 1024


def ngram_jaccard_pairs_ds(sf_dir: str, threshold: float = 0.5,
                           max_df: int | None = NGRAM_MAX_DF
                           ) -> ray.data.Dataset:
    """EXACT near-dup pairs by n-gram Jaccard >= threshold — the
    inverted-index counterpart to q_minhash_pairs (which is recall-
    bounded by LSH).  Fully distributed, no driver-side text:

      shingle (actor-side md5, unique per doc) → explode
      (shingle_hash, doc_id, n_shingles) → groupby shingle → pair
      rows per co-occurrence → groupby (pair) count = |intersection|
      → vectorized Jaccard filter.

    Any pair with Jaccard > 0 shares a shingle, so candidate
    generation is complete and the DuckDB n²-Jaccard oracle matches
    exactly when max_df=None.  Scale note: a shingle appearing in m
    docs contributes O(m²) pair rows — inherent to the exact query
    (the SQL oracle pays the same join) — so the PIPELINE default
    caps document frequency at NGRAM_MAX_DF, dropping ubiquitous
    shingles that carry no near-dup signal; pass max_df=None (as the
    oracle query does) for the exact variant."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    class ShingleExplode:
        def __init__(self):
            self.cache: dict = {}

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy()
            out_sh, out_id, out_n = [], [], []
            for i, t in enumerate(b.column("text").to_pylist()):
                hv = np.unique(shingle_hashes(t, self.cache))
                out_sh.append(hv.view(np.int64))  # int64 view = groupby key
                out_id.append(np.full(len(hv), ids[i], np.int64))
                out_n.append(np.full(len(hv), len(hv), np.int64))
            cat = (lambda xs: np.concatenate(xs) if xs
                   else np.empty(0, np.int64))
            return pa.table({"sh": pa.array(cat(out_sh)),
                             "doc_id": pa.array(cat(out_id)),
                             "n": pa.array(cat(out_n))})

    exploded = ds.map_batches(ShingleExplode, batch_format="pyarrow",
                              concurrency=(1, 8))

    def posting_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if max_df is not None and len(g) > max_df:
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                                 "doc_b": pd.Series(dtype="int64"),
                                 "na": pd.Series(dtype="int64"),
                                 "nb": pd.Series(dtype="int64")})
        order = np.argsort(g["doc_id"].to_numpy(), kind="stable")
        ids = g["doc_id"].to_numpy()[order]
        ns = g["n"].to_numpy()[order]
        ai, bj = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[ai], "doc_b": ids[bj],
                             "na": ns[ai], "nb": ns[bj]})

    from ray.data.aggregate import Count
    inter = (exploded.groupby("sh")
                     .map_groups(posting_pairs, batch_format="pandas")
                     .groupby(["doc_a", "doc_b", "na", "nb"])
                     .aggregate(Count(alias_name="i")))

    def jfilter(b: pa.Table) -> pa.Table:
        i = b.column("i").to_numpy().astype(np.float64)
        na = b.column("na").to_numpy().astype(np.float64)
        nb = b.column("nb").to_numpy().astype(np.float64)
        keep = i / (na + nb - i) >= threshold
        return pa.table({"doc_a": b.column("doc_a").filter(pa.array(keep)),
                         "doc_b": b.column("doc_b").filter(pa.array(keep))})

    return inter.map_batches(jfilter, batch_format="pyarrow")


def q_ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5,
                          max_df: int | None = None) -> pd.DataFrame:
    # max_df=None: the ORACLE variant is exact by construction
    df = ngram_jaccard_pairs_ds(sf_dir, threshold, max_df).to_pandas()
    return (df.astype({"doc_a": "int64", "doc_b": "int64"})
              .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


DUP_SPAN_L = 20  # char L-grams; a span must be >= L chars to register

_KR_B = np.uint64(0x100000001B3)          # odd ⇒ invertible mod 2^64
_KR_BINV = np.uint64(pow(0x100000001B3, -1, 1 << 64))


def _gram_hashes(t: str, L: int, method: str = "md5") -> np.ndarray:
    """64-bit hash per L-char gram of `t` (len(t) >= L).

    'md5': digest[8:16] little-endian — matches DuckDB
    md5_number_lower, which is what makes the dup-span SQL oracle
    exact; ~0.5 µs per gram.
    'rolling': vectorized Karp-Rabin (h(i) = Σ c[j]·B^(L-1-j+i) mod
    2^64, computed as B^(L-1+i) · (p[i+L]-p[i]) with p the
    Binv-weighted prefix sum — all uint64 wraparound, ~5 numpy passes
    per doc, no per-gram Python). The production path for corpus-scale
    substring dedup; 64-bit collisions are possible in principle (the
    md5 path has the same exposure) and only ever mark an extra
    position duplicated."""
    if method == "md5":
        n = len(t) - L + 1
        return np.fromiter(
            (int.from_bytes(hashlib.md5(t[i:i + L].encode()).digest()[8:16],
                            "little") for i in range(n)),
            dtype=np.uint64, count=n)
    p, b_pow = _kr_prefix(t)
    n = len(t)
    return (p[L:] - p[:n - L + 1]) * b_pow[L - 1:n]


def _kr_prefix(t: str) -> tuple[np.ndarray, np.ndarray]:
    """Karp-Rabin prefix arrays for `t` (shared by the gram hasher and
    the CDC chunker — ONE place owns the scheme): p[k] = Σ_{j<k}
    c[j]·Binv^j and b_pow[k] = B^k, all uint64 wraparound.  The hash
    of any substring t[s:e) is (p[e] − p[s]) · B^(e−1) — position-
    independent, O(1) per substring."""
    with np.errstate(over="ignore"):
        c = np.frombuffer(t.encode("utf-32-le"), np.uint32).astype(np.uint64)
        n = len(c)
        binv_pow = np.concatenate(
            ([np.uint64(1)],
             np.cumprod(np.full(n, _KR_BINV, np.uint64))))   # Binv^j
        p = np.concatenate(([np.uint64(0)],
                            np.cumsum(c * binv_pow[:-1])))   # prefix
        b_pow = np.concatenate(
            ([np.uint64(1)],
             np.cumprod(np.full(n, _KR_B, np.uint64))))      # B^k, k=0..n
        return p, b_pow


def dup_span_stats_ds(sf_dir: str, L: int = DUP_SPAN_L,
                      hash_method: str = "md5") -> ray.data.Dataset:
    """Exact duplicate-substring coverage per document (the substring-
    level dedup signal of Lee et al. 2022, "Deduplicating Training Data
    Makes Language Models Better"): a char position is DUPLICATED when
    the L-gram starting there occurs >= 2 times in the corpus (any doc,
    any offset); per doc we return the total characters covered by
    duplicated L-grams — the "how much of this doc is boilerplate /
    copied text" number that drives substring-level filtering.

    Distributed shape: explode (gram_hash, doc_id, pos) rows in
    map_batches (24 B/row, never the text) → groupby(hash BUCKET)
    keeps hashes occurring >= 2 times → groupby(doc BUCKET) merges the
    surviving [pos, pos+L) intervals: covered = L + Σ min(Δpos, L)
    over sorted positions.  Two key-int shuffles, no driver text, no
    O(m²) blowup (a hash occurring m times emits m rows, not pairs).
    Both groupbys key on a COARSE bucket (hash>>52, doc_id%512), not
    the raw value: the exact same exchange volume, but each map_groups
    call gets thousands of rows and runs pure-numpy — grouping by raw
    hash costs one Python frame per (mostly singleton) group, which
    measured 20× slower on this data.

    Hashes are the md5 low-64 convention (`winnow_hashes` twin) so the
    DuckDB oracle reproduces every hash exactly via md5_number_lower;
    a Karp-Rabin rolling hash is the drop-in for production runs."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def grams(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        out_h, out_id, out_i = [], [], []
        for k, t in enumerate(b.column("text").to_pylist()):
            n = len(t) - L + 1
            if n <= 0:
                continue
            hv = _gram_hashes(t, L, hash_method)
            out_h.append(hv.view(np.int64))
            out_id.append(np.full(n, ids[k], np.int64))
            out_i.append(np.arange(1, n + 1, dtype=np.int64))  # SQL 1-based
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.empty(0, np.int64))
        h = cat(out_h)
        return pa.table({"h": pa.array(h),
                         "hb": pa.array(h >> 52),  # 4096 coarse buckets
                         "doc_id": pa.array(cat(out_id)),
                         "i": pa.array(cat(out_i))})

    exploded = ds.map_batches(grams, batch_format="pyarrow")

    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        """All rows of this hash bucket at once: keep positions whose
        exact hash occurs >= 2 times; flag each hash's lexicographic-
        min (doc_id, i) occurrence as `first` (the copy keep-first
        removal retains). Vectorized: one lexsort + run-length pass."""
        order = np.lexsort((g["i"].to_numpy(), g["doc_id"].to_numpy(),
                            g["h"].to_numpy()))
        h = g["h"].to_numpy()[order]
        doc = g["doc_id"].to_numpy()[order]
        i = g["i"].to_numpy()[order]
        new = np.concatenate(([True], h[1:] != h[:-1]))
        run = np.cumsum(new) - 1
        cnt = np.bincount(run)
        keep = cnt[run] >= 2
        doc, i, first = doc[keep], i[keep], new[keep]
        return pd.DataFrame({"db": doc % 512, "doc_id": doc,
                             "i": i, "first": first})

    def _interval_union(doc: np.ndarray, i: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, covered chars) per doc for sorted-by-(doc,i)
        [i, i+L) intervals: covered = L + Σ min(Δi, L), reset per doc."""
        contrib = np.empty(len(i), np.int64)
        contrib[0] = L
        if len(i) > 1:
            newdoc = doc[1:] != doc[:-1]
            contrib[1:] = np.where(newdoc, L,
                                   np.minimum(i[1:] - i[:-1], L))
        starts = np.flatnonzero(
            np.concatenate(([True], doc[1:] != doc[:-1])))
        return doc[starts], np.add.reduceat(contrib, starts)

    def per_docs(g: pd.DataFrame) -> pd.DataFrame:
        """All docs of this doc bucket at once: two interval unions —
        ALL dup positions (coverage) and non-first positions only
        (chars keep-first removal would delete)."""
        order = np.lexsort((g["i"].to_numpy(), g["doc_id"].to_numpy()))
        doc = g["doc_id"].to_numpy()[order]
        i = g["i"].to_numpy()[order]
        first = g["first"].to_numpy()[order]
        docs, covered = _interval_union(doc, i)
        out = pd.DataFrame({"doc_id": docs, "dup_span_chars": covered,
                            "dup_removed_chars": 0})
        out = out.set_index("doc_id")
        if (~first).any():
            rdocs, removed = _interval_union(doc[~first], i[~first])
            out.loc[rdocs, "dup_removed_chars"] = removed
        return out.reset_index()

    return (exploded.groupby("hb")
                    .map_groups(dup_positions, batch_format="pandas")
                    .groupby("db")
                    .map_groups(per_docs, batch_format="pandas"))


def q_dup_span_chars(sf_dir: str, L: int = DUP_SPAN_L) -> pd.DataFrame:
    """(doc_id, dup_span_chars, dup_removed_chars, dup_span_frac) for
    EVERY document — docs with no duplicated L-gram get 0 (left join
    against the lengths scan, which also supplies the denominators).
    dup_removed_chars = chars deleted by keep-first removal (positions
    whose gram has an earlier (doc_id, i) occurrence)."""
    import pyarrow.compute as pc

    def lengths(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id"),
                         "n_chars": pc.utf8_length(b.column("text"))})

    lens = (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"])
            .map_batches(lengths, batch_format="pyarrow").to_pandas())
    dup = dup_span_stats_ds(sf_dir, L).to_pandas()
    out = lens.merge(dup, on="doc_id", how="left")
    out["dup_span_chars"] = (out["dup_span_chars"].fillna(0)
                             .astype(np.int64))
    # round half AWAY from zero (DuckDB round()), not banker's: ratios
    # like 164/512 = 0.3203125 are exact ties at the 6th decimal
    out["dup_span_frac"] = np.floor(
        out["dup_span_chars"] / out["n_chars"] * 1e6 + 0.5) / 1e6
    out["dup_removed_chars"] = (out["dup_removed_chars"].fillna(0)
                                .astype(np.int64))
    return (out[["doc_id", "dup_span_chars", "dup_removed_chars",
                 "dup_span_frac"]]
            .sort_values("doc_id").reset_index(drop=True))


def _dup_span_oracle_sql(L: int = DUP_SPAN_L) -> str:
    return f"""
        WITH g AS (
          SELECT doc_id, CAST(i AS BIGINT) AS i,
                 md5_number_lower(substring(text, CAST(i AS INT), {L}))
                   AS h
          FROM documents, unnest(range(1, length(text) - {L} + 2)) AS t(i)
        ), d AS (
          SELECT h FROM g GROUP BY h HAVING count(*) >= 2
        ), p AS (
          SELECT g.doc_id, g.i,
                 row_number() OVER (PARTITION BY g.h
                                    ORDER BY g.doc_id, g.i) AS rn
          FROM g JOIN d USING (h)
        ), q AS (
          SELECT doc_id,
                 coalesce(least(i - lag(i) OVER (PARTITION BY doc_id
                                                 ORDER BY i), {L}),
                          {L}) AS c
          FROM p
        ), s AS (
          SELECT doc_id, CAST(sum(c) AS BIGINT) AS dup_span_chars
          FROM q GROUP BY doc_id
        ), q2 AS (
          SELECT doc_id,
                 coalesce(least(i - lag(i) OVER (PARTITION BY doc_id
                                                 ORDER BY i), {L}),
                          {L}) AS c
          FROM p WHERE rn >= 2
        ), s2 AS (
          SELECT doc_id, CAST(sum(c) AS BIGINT) AS dup_removed_chars
          FROM q2 GROUP BY doc_id
        )
        SELECT doc.doc_id,
               coalesce(s.dup_span_chars, 0) AS dup_span_chars,
               coalesce(s2.dup_removed_chars, 0) AS dup_removed_chars,
               round(coalesce(s.dup_span_chars, 0) * 1.0
                     / length(doc.text), 6) AS dup_span_frac
        FROM documents doc LEFT JOIN s USING (doc_id)
                           LEFT JOIN s2 USING (doc_id)
        ORDER BY doc.doc_id
    """


def dedup_substring_clean_ds(sf_dir: str, L: int = DUP_SPAN_L,
                             hash_method: str = "md5") -> ray.data.Dataset:
    """The ACTIONABLE substring dedup (Lee et al. 2022 ExactSubstr):
    delete from each document every char covered by a duplicated
    L-gram whose gram has an earlier (doc_id, pos) occurrence — the
    corpus keeps exactly one copy of each duplicated substring run.

    Distributed: the same (hash-bucket → keep-first flags) stage as
    `dup_span_stats_ds`, then ONE doc-bucket cogroup of removable
    positions WITH the texts (tagged union — text rows ride as i=-1),
    building cleaned strings under a boolean keep-mask per doc.  Note
    (inherent to the method, flagged in the paper): deleting a span
    can join previously-distant chars into new L-grams; the output is
    one-pass cleaned, not a fixpoint."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def grams(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        out_h, out_id, out_i = [], [], []
        for k, t in enumerate(b.column("text").to_pylist()):
            n = len(t) - L + 1
            if n <= 0:
                continue
            hv = _gram_hashes(t, L, hash_method)
            out_h.append(hv.view(np.int64))
            out_id.append(np.full(n, ids[k], np.int64))
            out_i.append(np.arange(1, n + 1, dtype=np.int64))
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.empty(0, np.int64))
        h = cat(out_h)
        return pa.table({"h": pa.array(h),
                         "hb": pa.array(h >> 52),
                         "doc_id": pa.array(cat(out_id)),
                         "i": pa.array(cat(out_i))})

    def removable_positions(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["i"].to_numpy(), g["doc_id"].to_numpy(),
                            g["h"].to_numpy()))
        h = g["h"].to_numpy()[order]
        doc = g["doc_id"].to_numpy()[order]
        i = g["i"].to_numpy()[order]
        new = np.concatenate(([True], h[1:] != h[:-1]))
        run = np.cumsum(new) - 1
        cnt = np.bincount(run)
        keep = (cnt[run] >= 2) & ~new       # non-first dup occurrences
        doc, i = doc[keep], i[keep]
        return pa.table({"db": pa.array(doc % 512),
                         "doc_id": pa.array(doc), "i": pa.array(i),
                         "text": pa.nulls(len(doc), pa.string())})

    def text_rows(b: pa.Table) -> pa.Table:
        doc = b.column("doc_id").to_numpy()
        return pa.table({"db": pa.array(doc % 512),
                         "doc_id": b.column("doc_id"),
                         "i": pa.array(np.full(len(doc), -1, np.int64)),
                         "text": b.column("text")})

    removable = (ds.map_batches(grams, batch_format="pyarrow")
                   .groupby("hb")
                   .map_groups(removable_positions, batch_format="pandas"))
    tagged = removable.union(ds.map_batches(text_rows,
                                            batch_format="pyarrow"))

    def clean_docs(g: pd.DataFrame) -> pd.DataFrame:
        ids, texts, removed = [], [], []
        for doc_id, sub in g.groupby("doc_id", sort=True):
            t = sub.loc[sub["i"] == -1, "text"]
            if t.empty:        # positions for a doc outside this read?
                continue       # cannot happen: same source, same bucket
            text = t.iloc[0]
            pos = sub.loc[sub["i"] > 0, "i"].to_numpy()
            if len(pos):
                mask = np.ones(len(text), bool)
                # vectorized interval paint via diff array
                d = np.zeros(len(text) + 1, np.int64)
                np.add.at(d, pos - 1, 1)                 # 1-based → 0
                np.add.at(d, np.minimum(pos - 1 + L, len(text)), -1)
                mask &= np.cumsum(d[:-1]) == 0
                arr = np.frombuffer(text.encode("utf-32-le"),
                                    dtype=np.uint32)
                cleaned = arr[mask].tobytes().decode("utf-32-le")
                removed.append(int((~mask).sum()))
            else:
                cleaned = text
                removed.append(0)
            ids.append(doc_id)
            texts.append(cleaned)
        return pd.DataFrame({"doc_id": np.array(ids, np.int64),
                             "clean_text": texts,
                             "removed_chars": np.array(removed,
                                                       np.int64)})

    return tagged.groupby("db").map_groups(clean_docs,
                                           batch_format="pandas")


def q_dedup_substring_clean(sf_dir: str) -> pd.DataFrame:
    """Rows-only driver entry (cleaned TEXT is the product; the removed
    -char counts it implies are oracled inside quality_score via
    dup_removed_chars — test-asserted equal)."""
    return (dedup_substring_clean_ds(sf_dir).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


SIMHASH_SHINGLE_K = 2


def simhash64_batch(texts: list[str], cache: dict | None = None) -> np.ndarray:
    """64-bit SimHash per text: majority bits over md5 2-word-shingle
    hashes (md5_number_lower order, so SQL reproduces it bit-exactly).
    Vectorized bit counting via np.unpackbits."""
    if cache is None:
        cache = {}
    out = np.empty(len(texts), dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    for i, t in enumerate(texts):
        sh = _shingles(t.split(" "), SIMHASH_SHINGLE_K)
        if not sh:
            out[i] = 0
            continue
        hv = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[8:16], "little")
             for s in sh), dtype=np.uint64, count=len(sh))
        bits = np.unpackbits(hv.view(np.uint8).reshape(-1, 8),
                             axis=1, bitorder="little")
        acc = bits.sum(axis=0, dtype=np.int64) * 2 - len(sh)
        out[i] = ((acc > 0).astype(np.uint64) << shifts).sum(dtype=np.uint64)
    return out


def q_simhash(sf_dir: str) -> pd.DataFrame:
    """SimHash fingerprints (uint64) per doc — exact DuckDB oracle via
    generated per-bit majority SQL."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def sh(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "simhash": pa.array(simhash64_batch(b.column("text").to_pylist()),
                                pa.uint64()),
        })

    return ds.map_batches(sh, batch_format="pyarrow").to_pandas()


def _simhash_oracle_sql() -> str:
    bit_sums = ", ".join(
        f"sum(CASE WHEN (h >> {b}) & 1 = 1 THEN 1 ELSE -1 END) AS s{b}"
        for b in range(64))
    # literal powers of two: DuckDB's << overflows at bit 63 even on
    # UBIGINT operands; big literals parse as HUGEINT, the sum is cast
    # back down at the end
    recompose = "CAST(" + " + ".join(
        f"(CASE WHEN s{b} > 0 THEN {1 << b}::HUGEINT ELSE 0::HUGEINT END)"
        for b in range(64)) + " AS UBIGINT)"
    return f"""
        WITH w AS (
          SELECT doc_id, string_split(text, ' ') AS ws FROM documents
        ), idx AS (
          SELECT doc_id, ws,
                 unnest(range(1, greatest(len(ws), 2))) AS i
          FROM w
        ), sh AS (
          SELECT doc_id,
                 md5_number_lower(CASE WHEN len(ws) < {SIMHASH_SHINGLE_K}
                                       THEN array_to_string(ws, ' ')
                                       ELSE ws[i] || ' ' || ws[i+1] END) AS h
          FROM idx
          WHERE len(ws) < {SIMHASH_SHINGLE_K} AND i = 1
             OR i + 1 <= len(ws)
        ), sums AS (
          SELECT doc_id, {bit_sums} FROM sh GROUP BY doc_id
        )
        SELECT doc_id, {recompose} AS simhash FROM sums
    """


def q_dedup_clusters(sf_dir: str) -> pd.DataFrame:
    """Near-dup CLUSTER canonicalization: connected components over the
    exact Jaccard pair graph, each doc labelled with the min doc_id of
    its component (the canonical representative a dedup pass keeps).

    Distributed min-label propagation, iterated to a fixpoint: labels
    start as own ids;
    each round joins neighbor labels across the (bidirected) edge list
    and folds min per node; converges in O(component diameter) rounds,
    checked by a label-sum aggregate. Labels/edges stay Datasets
    throughout (materialized per round — one row per doc / edge), so
    no driver-side union-find over a 10^10-edge graph."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])
    labels = docs.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id").cast(pa.int64()),
                            "label": b.column("doc_id").cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    # one propagation round = a TAGGED-UNION cogroup, not Dataset.join
    # (join emits empty-schema blocks for empty hash partitions, which
    # poisons the next round's shuffle): rows (key, kind=0, val=label)
    # carry the key's current label, rows (key, kind=1, val=dst) its
    # out-edges; one groupby(key) emits min-label to every neighbor.
    # The edge list stays a DATASET end-to-end — both directions are
    # emitted per batch, never concatenated on the driver.
    def bidirect(b: pa.Table) -> pa.Table:
        a = b.column("doc_a").to_numpy().astype(np.int64)
        c = b.column("doc_b").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(np.concatenate([a, c])),
            "kind": pa.array(np.ones(2 * len(a), np.uint8)),
            "val": pa.array(np.concatenate([c, a])),
        })

    # max_df=None keeps the edge list exact (this query is gated by the
    # recursive-CTE oracle); a pipeline run at crawl scale would keep
    # the NGRAM_MAX_DF default instead
    edges_tagged = (ngram_jaccard_pairs_ds(sf_dir, max_df=None)
                    .map_batches(bidirect, batch_format="pyarrow")
                    .materialize())
    from ray.data.aggregate import Min, Sum
    if edges_tagged.count():

        def propagate(g: pd.DataFrame) -> pa.Table:
            m = int(g.loc[g.kind == 0, "val"].min())
            targets = g.loc[g.kind == 1, "val"].to_numpy()
            ids = np.concatenate([[int(g["key"].iloc[0])], targets]).astype(np.int64)
            return pa.table({"doc_id": pa.array(ids),
                             "label": pa.array(np.full(len(ids), m, np.int64))})

        # min-label propagation converges (labels are monotone
        # non-increasing and bounded below); iterate until the label
        # sum is a fixpoint — a hard round cap would silently return
        # unconverged clusters for a component whose diameter exceeds it
        prev = None
        while True:
            lab_tagged = labels.map_batches(
                lambda b: pa.table({"key": b.column("doc_id"),
                                    "kind": pa.array(
                                        np.zeros(b.num_rows, np.uint8)),
                                    "val": b.column("label")}),
                batch_format="pyarrow")
            labels = (lab_tagged.union(edges_tagged)
                      .groupby("key").map_groups(propagate,
                                                 batch_format="pandas")
                      .groupby("doc_id")
                      .aggregate(Min("label", alias_name="label"))
                      .materialize())
            s = labels.aggregate(Sum("label"))["sum(label)"]
            if s == prev:
                break
            prev = s
    df = labels.to_pandas().rename(columns={"label": "cluster_id"})
    df["cluster_id"] = df["cluster_id"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


def _dedup_clusters_oracle_sql(threshold: float = 0.5) -> str:
    """Reachability closure via recursive CTE over the same exact
    Jaccard pair graph; cluster_id = min reachable doc_id."""
    return f"""
        WITH RECURSIVE p AS (
          SELECT doc_a, doc_b FROM ({_minhash_pairs_oracle_sql(threshold)}) t
        ), e AS (
          SELECT doc_a AS a, doc_b AS b FROM p
          UNION ALL
          SELECT doc_b AS a, doc_a AS b FROM p
        ), reach(node, r) AS (
          SELECT doc_id, doc_id FROM documents
          UNION
          SELECT reach.node, e.b FROM reach JOIN e ON e.a = reach.r
        )
        SELECT node AS doc_id, min(r) AS cluster_id
        FROM reach GROUP BY node ORDER BY doc_id
    """


def _minhash_pairs_oracle_sql(threshold: float = 0.5) -> str:
    """Exact n²-Jaccard over {SHINGLE_K}-word shingles.  This oracles
    the LSH pipeline only because LSH recall is complete on the
    synthetic data (verified in tests — all true pairs share at least
    one band)."""
    return f"""
        WITH w AS (
          SELECT doc_id, string_split(text, ' ') AS ws FROM documents
        ), idx AS (
          SELECT doc_id, ws,
                 unnest(range(1, greatest(len(ws), 2))) AS i
          FROM w
        ), sh AS (
          SELECT DISTINCT doc_id,
                 CASE WHEN len(ws) < {SHINGLE_K}
                      THEN array_to_string(ws, ' ')
                      ELSE ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] END AS s
          FROM idx
          WHERE len(ws) < {SHINGLE_K} AND i = 1
             OR i + 2 <= len(ws)
        ), cnt AS (
          SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
        ), inter AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY doc_a, doc_b
        )
        SELECT doc_a, doc_b
        FROM inter
        JOIN cnt ca ON ca.doc_id = doc_a
        JOIN cnt cb ON cb.doc_id = doc_b
        WHERE i * 1.0 / (ca.n + cb.n - i) >= {threshold}
        ORDER BY doc_a, doc_b
    """


ORACLES = {
    "dup_span_chars": _dup_span_oracle_sql(),
    "dedup_exact": """
        SELECT min(doc_id) AS rep_doc_id, count(*) AS n_dups
        FROM documents
        GROUP BY text
        HAVING count(*) > 1
        ORDER BY rep_doc_id
    """,
    "dedup_keep_first": """
        SELECT min(doc_id) AS doc_id
        FROM documents
        GROUP BY text
        ORDER BY doc_id
    """,
    "simhash": _simhash_oracle_sql(),
    "minhash_pairs": _minhash_pairs_oracle_sql(),
    # identical SQL, but here the oracle is exact WITHOUT the LSH
    # recall-completeness caveat: the inverted index enumerates every
    # pair with any shared shingle
    "ngram_jaccard_pairs": _minhash_pairs_oracle_sql(),
    "dedup_clusters": _dedup_clusters_oracle_sql(),
}


# --- content-defined chunking (FastCDC-style) dedup -------------------------

CDC_W = 16        # boundary-decision window, chars
CDC_BITS = 6      # boundary when the hash's TOP 6 bits are zero
                  # (P=1/64 → ~64-char expected chunks; high bits of
                  # the KR hash are the best-mixed after the B^k
                  # multiply — low bits cycle on periodic text)


def _cdc_chunks(t: str) -> tuple[np.ndarray, np.ndarray]:
    """Content-defined chunk (hashes, lengths) for one text.

    Boundary rule: cut AFTER position i+W whenever the Karp-Rabin
    hash of the W-char window starting at i has its top CDC_BITS bits
    zero — a pure
    function of local content, so an insertion/deletion only disturbs
    chunks overlapping the edit (the CDC shift-resistance property
    that gram-aligned fixed-size chunking lacks; Muthitacharoen et al.
    LBFS 2001 / FastCDC 2016 shape).  Chunk hashes come from the same
    KR prefix arrays in O(1) per chunk: hash of t[s:e) =
    (p[e] - p[s]) · B^(e-1), position-independent, so equal chunks
    hash equal wherever they sit.  Production runs add min/max chunk
    bounds; omitted here to keep the kernel one vectorized pass."""
    with np.errstate(over="ignore"):
        n = len(t)
        if n == 0:
            return np.empty(0, np.uint64), np.empty(0, np.int64)
        p, b_pow = _kr_prefix(t)
        if n >= CDC_W:
            win = (p[CDC_W:] - p[:n - CDC_W + 1]) * b_pow[CDC_W - 1:n]
            cuts = np.flatnonzero(win >> np.uint64(64 - CDC_BITS) == 0) \
                + CDC_W
        else:
            cuts = np.empty(0, np.int64)
        ends = np.unique(np.concatenate((cuts, [n]))).astype(np.int64)
        starts = np.concatenate(([0], ends[:-1]))
        hashes = (p[ends] - p[starts]) * b_pow[ends - 1]
        return hashes, ends - starts


def q_cdc_chunk_stats(sf_dir: str) -> pd.DataFrame:
    """Chunk-level dedup signal: per doc, total chunks and the
    chunks/bytes whose content-defined chunk occurs ≥ 2 times anywhere
    in the corpus.  Rows-only (the rolling boundary rule is not
    SQL-expressible); semantics are gated by the property tests
    (shift resistance, full-duplicate coverage, length conservation).

    Distributed shape (the dup_span twin): explode (chunk_hash,
    doc_id, len) rows — never the text — groupby a coarse hash bucket
    (a hash's whole corpus lands in one group, so in-group counts are
    global), pre-aggregate per doc inside the group, then one tiny
    per-doc-bucket fold."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def chunks(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        out_h, out_id, out_l = [], [], []
        for k, t in enumerate(b.column("text").to_pylist()):
            hv, ln = _cdc_chunks(t)
            if len(hv) == 0:
                continue
            out_h.append(hv.view(np.int64))
            out_id.append(np.full(len(hv), ids[k], np.int64))
            out_l.append(ln)
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.empty(0, np.int64))
        h = cat(out_h)
        return pa.table({"h": pa.array(h),
                         "hb": pa.array(h >> 52),
                         "doc_id": pa.array(cat(out_id)),
                         "ln": pa.array(cat(out_l))})

    exploded = ds.map_batches(chunks, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """Mark globally-duplicated hashes, then roll up per doc with
        sort + reduceat (a pandas groupby here costs a Python frame
        per mostly-tiny group × 4096 buckets — measured 2× the op)."""
        h = g["h"].to_numpy()
        doc = g["doc_id"].to_numpy()
        ln = g["ln"].to_numpy()
        if len(h) == 0:
            return pd.DataFrame({"doc_id": np.empty(0, np.int64),
                                 "n_chunks": np.empty(0, np.int64),
                                 "n_dup_chunks": np.empty(0, np.int64),
                                 "dup_chunk_bytes": np.empty(0, np.int64)})
        order = np.argsort(h, kind="stable")
        h, doc, ln = h[order], doc[order], ln[order]
        new = np.concatenate(([True], h[1:] != h[:-1]))
        run = np.cumsum(new) - 1
        dup = (np.bincount(run)[run] >= 2).astype(np.int64)
        order = np.argsort(doc, kind="stable")
        doc, dup, ln = doc[order], dup[order], ln[order]
        starts = np.flatnonzero(
            np.concatenate(([True], doc[1:] != doc[:-1])))
        return pd.DataFrame({
            "doc_id": doc[starts],
            "n_chunks": np.diff(np.concatenate((starts, [len(doc)]))),
            "n_dup_chunks": np.add.reduceat(dup, starts),
            "dup_chunk_bytes": np.add.reduceat(dup * ln, starts),
        })

    from ray.data.aggregate import Sum
    folded = (exploded.groupby("hb")
              .map_groups(per_bucket, batch_format="pandas")
              .groupby("doc_id")
              .aggregate(Sum("n_chunks", alias_name="n_chunks"),
                         Sum("n_dup_chunks", alias_name="n_dup_chunks"),
                         Sum("dup_chunk_bytes",
                             alias_name="dup_chunk_bytes")))
    df = folded.to_pandas().sort_values("doc_id").reset_index(drop=True)
    for c in ("n_chunks", "n_dup_chunks", "dup_chunk_bytes"):
        df[c] = df[c].astype(np.int64)
    return df


# --- pointer-doubling component labeling (the O(log d) scale path) ----------

def components_pointer_doubling(docs: ray.data.Dataset,
                                pairs: ray.data.Dataset,
                                ) -> tuple[pd.DataFrame, int]:
    """Driver-side wrapper over components_pointer_doubling_ds —
    collects the (doc_id, label) Dataset into a sorted DataFrame for
    the query/test callers.  Pipelines that feed the labels into
    further distributed stages should use the _ds variant and never
    bring the labels to the driver."""
    labels, rounds = components_pointer_doubling_ds(docs, pairs)
    df = labels.to_pandas()
    df["label"] = df["label"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True), rounds


def components_pointer_doubling_ds(docs: ray.data.Dataset,
                                   pairs: ray.data.Dataset,
                                   ) -> tuple[ray.data.Dataset, int]:
    """Connected-component min-labels in O(log diameter) rounds —
    the upgrade over q_dedup_clusters' O(diameter) min-label
    propagation for high-diameter graphs (chains of near-dups).

    Each round is (a) an edge RELAX — every node takes the min of its
    neighbors' labels (one tagged-union cogroup, the q_dedup_clusters
    kernel) — then (b) a pointer JUMP — label[v] ← label[label[v]],
    expressed as a second tagged cogroup keyed on the CURRENT label
    (kind 0 rows provide each node's label, kind 1 rows are requests
    from the nodes pointing at it).  Labels are monotone
    non-increasing and bounded, so the label-sum fixpoint test
    terminates; the doubling makes long chains collapse
    geometrically.  Returns (labels Dataset, rounds run) — the labels
    never touch the driver.

    Inputs: `docs` with a doc_id column; `pairs` with (doc_a, doc_b)
    undirected edges.  Everything stays Datasets between rounds."""
    from ray.data.aggregate import Min, Sum

    labels = docs.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id").cast(pa.int64()),
                            "label": b.column("doc_id").cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    def bidirect(b: pa.Table) -> pa.Table:
        a = b.column("doc_a").to_numpy().astype(np.int64)
        c = b.column("doc_b").to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(np.concatenate([a, c])),
            "kind": pa.array(np.ones(2 * len(a), np.uint8)),
            "val": pa.array(np.concatenate([c, a])),
        })

    edges_tagged = (pairs.map_batches(bidirect, batch_format="pyarrow")
                    .materialize())
    if not edges_tagged.count():
        return labels, 0

    def relax(g: pd.DataFrame) -> pa.Table:
        lab = g.loc[g.kind == 0, "val"]
        if lab.empty:                      # edge endpoint not in docs:
            raise ValueError(              # fail fast with the contract,
                "components_pointer_doubling: edge endpoint "
                f"{int(g['key'].iloc[0])} has no docs row")
        m = int(lab.min())
        targets = g.loc[g.kind == 1, "val"].to_numpy()
        ids = np.concatenate([[int(g["key"].iloc[0])],
                              targets]).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "label": pa.array(np.full(len(ids), m, np.int64))})

    def jump(g: pd.DataFrame) -> pa.Table:
        """key = some node w; kind 0 row carries label[w]; kind 1 rows
        are nodes v with label[v] == w asking for label[w]."""
        m = int(g.loc[g.kind == 0, "val"].min())
        askers = g.loc[g.kind == 1, "val"].to_numpy().astype(np.int64)
        return pa.table({"doc_id": pa.array(askers),
                         "label": pa.array(np.full(len(askers), m,
                                                   np.int64))})

    rounds = 0
    prev = None
    while True:
        rounds += 1
        lab_tagged = labels.map_batches(
            lambda b: pa.table({"key": b.column("doc_id"),
                                "kind": pa.array(
                                    np.zeros(b.num_rows, np.uint8)),
                                "val": b.column("label")}),
            batch_format="pyarrow")
        relaxed = (lab_tagged.union(edges_tagged)
                   .groupby("key").map_groups(relax, batch_format="pandas")
                   .groupby("doc_id")
                   .aggregate(Min("label", alias_name="label"))
                   .materialize())
        # pointer jump: every node asks its current label for ITS label
        provides = relaxed.map_batches(
            lambda b: pa.table({"key": b.column("doc_id"),
                                "kind": pa.array(
                                    np.zeros(b.num_rows, np.uint8)),
                                "val": b.column("label")}),
            batch_format="pyarrow")
        requests = relaxed.map_batches(
            lambda b: pa.table({"key": b.column("label"),
                                "kind": pa.array(
                                    np.ones(b.num_rows, np.uint8)),
                                "val": b.column("doc_id")}),
            batch_format="pyarrow")
        labels = (provides.union(requests)
                  .groupby("key").map_groups(jump, batch_format="pandas")
                  .groupby("doc_id")
                  .aggregate(Min("label", alias_name="label"))
                  .materialize())
        s = labels.aggregate(Sum("label"))["sum(label)"]
        if s == prev:
            break
        prev = s
    return labels, rounds
