"""Margin-based bitext mining — finding parallel (translation) pairs
across two monolingual embedding corpora; an independent implementation
of the published margin criterion (Artetxe & Schwenk 2019,
"Margin-based Parallel Corpus Mining in Multilingual Sentence
Embeddings"; the LASER / CCMatrix / NLLB data-pipeline shape).

For a source vector x with candidate target y:

    margin(x, y) = cos(x, y) /
                   (mean_k cos(x, NN_k(x; tgt)) / 2 +
                    mean_k cos(y, NN_k(y; src)) / 2)

i.e. the raw similarity normalized by both sides' local similarity
density ("ratio" margin) — absolute-threshold mining over-fires in
dense regions and under-fires in sparse ones; the margin fixes both.
A pair is mined when y is x's best target match and margin >= t
("forward" strategy in the paper).

Scale shape (the 100 TB story):
- each side's embeddings never pairwise-shuffle: the OPPOSITE side's
  normalized matrix is broadcast once (`ray.put`) and every
  map_batches task does one (batch x d) @ (d x n) matmul + a
  vectorized top-k — the brute-force-cosine baseline pattern shared
  with `q_cosine_topk` (ops/similarity.py).
- two passes: src-vs-tgt (best match + src k-NN mean) and tgt-vs-src
  (tgt k-NN mean); the join of the two is per-candidate-PAIR sized
  (<= |src| rows), not corpus-sized.
- when neither side fits a broadcast, the mining moves onto the IVF
  bucket exchange already built for `q_cosine_dup_pairs_ivf`
  (ops/similarity.py:515): both sides assign to shared centroids, the
  per-bucket pass computes local top-k, and the margin denominators
  come from the same bucketed k-NN — the published CCMatrix pipeline
  does exactly this compression.

Rows-only driver entry (float margins, approximate fixture recall is
exact by construction but not SQL-expressible); gated by brute-force
numpy parity + planted-pair recovery tests (tests/test_ops.py).

The reference engine (cldellow/tilemaker) has no embedding path; this
op belongs to the LLM-training-data half of the brief, next to
ops/similarity.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

BITEXT_K = 4          # k-NN pool for the margin denominator
# measured on the fixture: planted-translation margins 1.73-2.10,
# distractor margins 0.75-1.36 — 1.5 sits mid-gap on both sides
BITEXT_MARGIN_T = 1.5


def _knn_stats_batch(b: pa.Table, other: np.ndarray, other_ids: np.ndarray,
                     k: int, want_best: bool) -> pa.Table:
    """One (batch x d) @ (d x n_other) matmul: per row, the mean of the
    top-k cosines against the broadcast opposite side, plus (optionally)
    the argmax candidate."""
    ids = b.column("vec_id").to_numpy().astype(np.int64)
    if not len(ids):
        out = {"vec_id": pa.array(ids), "knn_mean": pa.array([], pa.float64())}
        if want_best:
            out["best_id"] = pa.array([], pa.int64())
            out["best_cos"] = pa.array([], pa.float64())
        return pa.table(out)
    mat = np.stack(b.column("embedding").to_numpy(zero_copy_only=False)
                   ).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ other.T                       # (nb, n_other)
    kk = min(k, sims.shape[1])
    part = np.partition(sims, sims.shape[1] - kk, axis=1)[:, -kk:]
    out = {"vec_id": pa.array(ids),
           "knn_mean": pa.array(part.mean(axis=1))}
    if want_best:
        j = np.argmax(sims, axis=1)
        out["best_id"] = pa.array(other_ids[j].astype(np.int64))
        out["best_cos"] = pa.array(sims[np.arange(len(ids)), j])
    return pa.table(out)


def _broadcast_side(ds: ray.data.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Materialize one side as an id-aligned normalized matrix (the
    broadcast small side; see module docstring for the IVF upgrade)."""
    df = ds.to_pandas()
    # an empty Dataset can to_pandas() to a COLUMN-LESS frame
    if not len(df) or "vec_id" not in df.columns:
        return np.zeros(0, np.int64), np.zeros((0, 1))
    df = df.sort_values("vec_id")
    ids = df["vec_id"].to_numpy(dtype=np.int64)
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    return ids, mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame({"src_id": np.zeros(0, np.int64),
                         "tgt_id": np.zeros(0, np.int64),
                         "margin": np.zeros(0, np.float64)})


def bitext_mine(src: ray.data.Dataset, tgt: ray.data.Dataset,
                k: int = BITEXT_K,
                margin_t: float = BITEXT_MARGIN_T) -> pd.DataFrame:
    """(src_id, tgt_id, margin) forward-mined pairs, margin >= margin_t,
    sorted by src_id.  Both datasets carry (vec_id, embedding)."""
    tgt_ids, tgt_mat = _broadcast_side(tgt)
    src_ids, src_mat = _broadcast_side(src)
    if not len(src_ids) or not len(tgt_ids):
        # an empty side (a language shard with nothing left after
        # upstream filtering) mines nothing — not a crash
        return _empty_pairs()
    tgt_ref, tgt_id_ref = ray.put(tgt_mat), ray.put(tgt_ids)
    src_ref, src_id_ref = ray.put(src_mat), ray.put(src_ids)

    def fwd(b: pa.Table) -> pa.Table:
        return _knn_stats_batch(b, ray.get(tgt_ref), ray.get(tgt_id_ref),
                                k, want_best=True)

    def bwd(b: pa.Table) -> pa.Table:
        return _knn_stats_batch(b, ray.get(src_ref), ray.get(src_id_ref),
                                k, want_best=False)

    f = src.map_batches(fwd, batch_format="pyarrow").to_pandas()
    g = (tgt.map_batches(bwd, batch_format="pyarrow").to_pandas()
            .rename(columns={"vec_id": "best_id",
                             "knn_mean": "tgt_knn_mean"}))
    m = f.merge(g, on="best_id")
    denom = (m["knn_mean"] + m["tgt_knn_mean"]) / 2.0
    m["margin"] = m["best_cos"] / denom
    m = m[m["margin"] >= margin_t]
    out = pd.DataFrame({"src_id": m["vec_id"].to_numpy(dtype=np.int64),
                        "tgt_id": m["best_id"].to_numpy(dtype=np.int64),
                        "margin": np.round(m["margin"].to_numpy(), 6)})
    return out.sort_values("src_id").reset_index(drop=True)


# --- deterministic fixture: planted translations + distractors -------------

TGT_ID_BASE = 1_000_000


def synth_tgt_table(sf_dir: str, noise: float = 0.4,
                    seed: int = 47) -> pa.Table:
    """A synthetic 'other language' corpus from the embeddings table:
    every 3rd source vector gets a planted translation (unit-normalized
    source + a noise vector of length `noise` — a translation is NEAR
    its source in the shared multilingual space but not identical,
    cos ≈ 1/sqrt(1+noise²) ≈ 0.93); the rest of the target side is the
    OTHER sources passed through a fixed random rotation — semantically
    unrelated content with the SAME density structure (pure-random
    distractors would be near-orthogonal to everything, deflating every
    k-NN mean and letting weak matches through the margin).
    tgt_id = TGT_ID_BASE + src vec_id for planted rows (ground truth by
    construction), TGT_ID_BASE + 500000 + i for distractors."""
    src = pd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"]).sort_values(
                              "vec_id")
    ids = src["vec_id"].to_numpy(dtype=np.int64)
    mat = np.stack(src["embedding"].to_numpy()).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    planted_mask = ids % 3 == 0
    g = rng.standard_normal((int(planted_mask.sum()), mat.shape[1]))
    g = g / np.linalg.norm(g, axis=1, keepdims=True)
    planted = mat[planted_mask] + noise * g
    q, _ = np.linalg.qr(rng.standard_normal((mat.shape[1], mat.shape[1])))
    distract = mat[~planted_mask] @ q.T
    n_dis = int((~planted_mask).sum())
    vecs = np.concatenate([planted, distract])
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    tids = np.concatenate([
        TGT_ID_BASE + ids[planted_mask],
        TGT_ID_BASE + 500_000 + np.arange(n_dis, dtype=np.int64)])
    emb = pa.FixedSizeListArray.from_arrays(pa.array(vecs.reshape(-1)),
                                            vecs.shape[1])
    return pa.table({"vec_id": pa.array(tids), "embedding": emb})


def q_bitext_mine(sf_dir: str) -> pd.DataFrame:
    """Rows-only driver entry (float margin scores not SQL-expressible):
    mine the planted-translation fixture against the embeddings table."""
    src = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    tgt = ray.data.from_arrow(synth_tgt_table(sf_dir))
    return bitext_mine(src, tgt)
