"""Perceptual-hash (pHash) image near-duplicate detection — the
image-side twin of the text SimHash/MinHash dedup family (the standard
DCT perceptual hash: Zauner 2010, "Implementation and Benchmarking of
Perceptual Image Hash Functions"; the pHash.org / imagehash scheme).

Hash: grayscale → 32x32 box-mean resize (exact integral-image area
average, any input size) → orthonormal 2-D DCT-II → the 8x8
low-frequency block → threshold each coefficient against the MEDIAN of
the 64 (median excludes DC, and the DC bit is forced 0) → 64-bit hash.
Invariant to affine luma changes (brightness/contrast), downscaling
and mild lossy re-encoding — the classic "same picture, different
file" signal.

Near-dup pairs: Hamming distance <= HAM_T via the shared band-LSH
exchange (ops/hamming_lsh.py — exact for HAM_T < 8 by pigeonhole; see
that module for the scale shape).  Decode + hash is an actor-pool
map_batches stage (codecs imported once per actor); image BYTES never
shuffle — only (band_key, doc_id, phash) rows do.

The reference engine (cldellow/tilemaker) has no image path; this op
belongs to the LLM-training-data half of the brief, next to
ops/dedup.py (text) and ops/similarity.py (embeddings).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .hamming_lsh import HAM_T, N_BANDS, dup_pairs_64, hamming64, pack_bits64

PHASH_SIZE = 32     # resize target (DCT input)
PHASH_LOW = 8       # low-frequency block edge -> 64-bit hash


def _dct_matrix(n: int = PHASH_SIZE) -> np.ndarray:
    """Orthonormal DCT-II basis (same construction as ops/jpeg.py's
    8x8 `_dct_matrix`, parameterized)."""
    k = np.arange(n)
    m = np.sqrt(2.0 / n) * np.cos((2 * k[None, :] + 1) * k[:, None]
                                  * np.pi / (2 * n))
    m[0] = np.sqrt(1.0 / n)
    return m


_DCT32 = _dct_matrix()


def _gray(img: np.ndarray) -> np.ndarray:
    if img.ndim == 3:
        return (0.299 * img[..., 0] + 0.587 * img[..., 1]
                + 0.114 * img[..., 2])
    return img.astype(np.float64)


def _box_resize(img: np.ndarray, n: int = PHASH_SIZE) -> np.ndarray:
    """Exact area-average resize to (n, n) via the integral image —
    handles any input size >= 1 without interpolation kernels."""
    a = img.astype(np.float64)
    h, w = a.shape
    ii = np.zeros((h + 1, w + 1))
    ii[1:, 1:] = a.cumsum(0).cumsum(1)
    # Floor edges with a forced >=1-pixel span per cell: for h >= n this
    # is an exact partition; for h < n cells overlap (nearest-neighbor
    # repetition), so a tiny image and its upscale hash alike instead of
    # degenerating to zero-width cells whose "mean" is 0.
    idx = np.arange(n, dtype=np.int64)
    ylo = idx * h // n
    yhi = np.maximum(ylo + 1, (idx + 1) * h // n)
    xlo = idx * w // n
    xhi = np.maximum(xlo + 1, (idx + 1) * w // n)
    sums = (ii[yhi, :][:, xhi] - ii[ylo, :][:, xhi]
            - ii[yhi, :][:, xlo] + ii[ylo, :][:, xlo])
    areas = np.outer(yhi - ylo, xhi - xlo).astype(np.float64)
    return sums / areas


def phash64(img: np.ndarray) -> np.uint64:
    """64-bit DCT perceptual hash of a grayscale or RGB uint8 image."""
    small = _box_resize(_gray(img))
    coef = (_DCT32 @ small @ _DCT32.T)[:PHASH_LOW, :PHASH_LOW].ravel()
    med = np.median(coef[1:])           # exclude DC from the median
    bits = coef > med
    bits[0] = False                     # DC bit forced 0
    return pack_bits64(bits)


class PHasher:
    """Actor-pool stage: decode (pure-numpy codecs, imported once per
    actor) → phash.  Emits (doc_id, phash) — image bytes stop here.

    on_error="quarantine" adds an `error` column ('' for ok rows) and
    keeps going past undecodable payloads instead of failing the task —
    at 100 TB corrupt media rows are a certainty, and one bad payload
    must not sink a block (downstream consumers filter error == '';
    the quarantine rows ARE the triage report)."""

    def __init__(self, on_error: str = "raise"):
        from .multimodal import decode_image
        self._decode = decode_image
        self.on_error = on_error

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy().astype(np.int64)
        payloads = b.column("payload").to_pylist()
        mts = b.column("media_type").to_pylist()
        hs = np.zeros(len(ids), np.uint64)
        errs = []
        for i in range(len(ids)):
            try:
                hs[i] = phash64(self._decode(payloads[i], mts[i]))
                errs.append("")
            except Exception as e:          # noqa: BLE001 — quarantine
                if self.on_error == "raise":
                    raise
                errs.append(f"{type(e).__name__}: {e}"[:200])
        cols = {"doc_id": pa.array(ids),
                "phash": pa.array(hs.view(np.int64))}
        if self.on_error == "quarantine":
            cols["error"] = pa.array(errs, pa.string())
        return pa.table(cols)


def phash_dataset(images: ray.data.Dataset,
                  concurrency: int = 2,
                  on_error: str = "raise") -> ray.data.Dataset:
    return images.map_batches(PHasher, batch_format="pyarrow",
                              fn_constructor_kwargs={"on_error": on_error},
                              concurrency=concurrency, batch_size=64)


def phash_dup_pairs(images: ray.data.Dataset,
                    ham_t: int = HAM_T,
                    max_bucket: int | None = 10_000,
                    on_error: str = "raise") -> pd.DataFrame:
    """Exact Hamming-<=ham_t pairs (for ham_t < N_BANDS and
    max_bucket=None, banding recall is perfect by pigeonhole),
    doc_a < doc_b, sorted.  max_bucket defaults ON (like the audio /
    video twins): m degenerate thumbnails (all-black, a repeated logo)
    in one band bucket would otherwise emit O(m^2) pair rows in a
    single map_groups task.  on_error="quarantine" excludes
    undecodable payloads from the exchange instead of failing."""
    import pyarrow.compute as pc
    hashed = phash_dataset(images, on_error=on_error)
    if on_error == "quarantine":
        hashed = hashed.map_batches(
            lambda b: b.filter(pc.equal(b.column("error"), ""))
                       .drop_columns(["error"]),
            batch_format="pyarrow")
    return dup_pairs_64(hashed, "phash", ham_t, max_bucket=max_bucket)


# --- deterministic fixture: structured images + perturbed copies ----------

def synth_phash_table(n: int, seed: int = 31) -> pa.Table:
    """Low-frequency 'photos' (random 4x4 fields upsampled — pHash is a
    low-frequency signature; pure noise is the degenerate case) plus a
    planted perturbed copy for every 5th image: brightness/contrast
    shifted and re-encoded through the lossy baseline-JPEG codec —
    the canonical same-picture-different-file pair."""
    from .jpeg import encode_jpeg
    from .multimodal import IMAGE_SCHEMA
    from .png import encode_png
    rng = np.random.default_rng(seed)
    rows = {"doc_id": [], "media_type": [], "payload": [],
            "width": [], "height": []}

    def add(i: int, img: np.ndarray, jpeg: bool):
        payload = (encode_jpeg(img, quality=90) if jpeg
                   else encode_png(img))
        rows["doc_id"].append(i)
        rows["media_type"].append("image/jpeg" if jpeg else "image/png")
        rows["payload"].append(payload)
        rows["height"].append(img.shape[0])
        rows["width"].append(img.shape[1])

    base_imgs = {}
    for i in range(n):
        h = int(rng.integers(48, 96))
        w = int(rng.integers(48, 96))
        low = rng.integers(40, 216, (4, 4)).astype(np.float64)
        img = np.clip(np.kron(low, np.ones((h // 4 + 1, w // 4 + 1)))
                      [:h, :w] + rng.normal(0, 4, (h, w)),
                      0, 255).astype(np.uint8)
        base_imgs[i] = img
        add(i, img, jpeg=False)
    for k, i in enumerate(range(0, n, 5)):
        img = base_imgs[i].astype(np.float64)
        img = np.clip(1.08 * img + 12.0, 0, 255).astype(np.uint8)
        add(n + k, img, jpeg=True)       # planted dup of doc i
    return pa.table(rows, schema=IMAGE_SCHEMA)


def q_image_phash_dups(sf_dir: str) -> pd.DataFrame:
    """Rows-only driver entry (hash not SQL-expressible): planted-dup
    fixture sized by sf, exact Hamming pairs."""
    from ..sources.pages import rows_for_sf
    n = max(100, rows_for_sf(sf_dir) // 200)
    # one Arrow table = ONE block: repartition so the decode
    # actor pool actually fans out
    images = ray.data.from_arrow(synth_phash_table(n)).repartition(8)
    return phash_dup_pairs(images)
