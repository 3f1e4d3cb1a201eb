"""Multimodal columns: image/audio/video as opaque binary columns with
typed metadata, processed by actor-pool map_batches stages.

Decode kernels: baseline JPEG (ops/jpeg.py — huffman + DCT with
subsampling and restart markers), PNG (ops/png.py — all five scanline
filters, gray/RGB/RGBA/palette, CRC-checked), BMP (24-bit / 8-bit
paletted) and PGM/PPM are REAL pure-python decoders of the public
formats; the remaining formats (webp / mp3 / h264 — no codec
libraries in this container) use the deterministic fake codec and
raise NotImplementedError
otherwise, the marked swap-in point for PIL/torchvision/ffmpeg.  Everything around
them — schema, batch sizing for large binary payloads, actor
signature, broadcast model weights, output layout — is real and
tested.

Scale notes: binary payloads make rows wide; stages use small
batch_size and pyarrow format so blocks stay within worker heaps and
the object store spills instead of Python lists.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

IMAGE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("media_type", pa.string()),     # "image/fake"
    ("payload", pa.binary()),        # opaque encoded bytes
    ("width", pa.int32()),
    ("height", pa.int32()),
])

FEATURE_DIM = 32


def synth_image_table(n: int, seed: int = 7) -> pa.Table:
    """Deterministic 'encoded images', mixing REAL formats (BMP, PGM,
    PNG, baseline JPEG — decoded by the pure-numpy codecs) with the
    fake codec that stands in for the remaining stubbed formats."""
    rng = np.random.default_rng(seed)
    rows = {"doc_id": [], "media_type": [], "payload": [], "width": [], "height": []}
    for i in range(n):
        w = int(rng.integers(16, 128))
        h = int(rng.integers(16, 128))
        kind = i % 6
        if kind == 0:
            img = rng.integers(0, 256, (h, w), dtype=np.uint8)
            payload = encode_bmp_gray(img)
            mt = "image/bmp"
        elif kind == 1:
            img = rng.integers(0, 256, (h, w), dtype=np.uint8)
            payload = encode_pgm(img)
            mt = "image/x-portable-graymap"
        elif kind == 2:
            from .png import encode_png
            img = rng.integers(0, 256, (h, w), dtype=np.uint8)
            payload = encode_png(img)
            mt = "image/png"
        elif kind == 3:
            from .png import encode_png
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            payload = encode_png(img)
            mt = "image/png"
        elif kind == 4:
            from .jpeg import encode_jpeg
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            payload = encode_jpeg(img, quality=85)
            mt = "image/jpeg"
        else:
            payload = struct.pack("<II", w, h) + rng.bytes(w * h // 4)
            mt = "image/fake"
        rows["doc_id"].append(i)
        rows["media_type"].append(mt)
        rows["payload"].append(payload)
        rows["width"].append(w)
        rows["height"].append(h)
    return pa.table(rows, schema=IMAGE_SCHEMA)


def decode_bmp(payload: bytes) -> np.ndarray:
    """Real BMP decode (public BITMAPINFOHEADER format, pure numpy):
    uncompressed (BI_RGB) 24-bit RGB or 8-bit paletted/grayscale,
    bottom-up or top-down rows, 4-byte row padding.  Returns (h, w)
    uint8 grayscale (BT.601 luma for RGB)."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    (pix_off,) = struct.unpack_from("<I", payload, 10)
    (hdr_size,) = struct.unpack_from("<I", payload, 14)
    if hdr_size < 40:
        raise NotImplementedError("BITMAPCOREHEADER BMPs not supported")
    w, h = struct.unpack_from("<ii", payload, 18)
    (bpp,) = struct.unpack_from("<H", payload, 28)
    (compression,) = struct.unpack_from("<I", payload, 30)
    if compression != 0:
        raise NotImplementedError(f"compressed BMP (method {compression})")
    top_down = h < 0
    h = abs(h)
    row_bytes = (w * bpp // 8 + 3) & ~3
    raw = np.frombuffer(payload, dtype=np.uint8, count=row_bytes * h,
                        offset=pix_off).reshape(h, row_bytes)
    if not top_down:
        raw = raw[::-1]
    if bpp == 24:
        bgr = raw[:, :w * 3].reshape(h, w, 3).astype(np.float32)
        luma = (0.114 * bgr[:, :, 0] + 0.587 * bgr[:, :, 1]
                + 0.299 * bgr[:, :, 2])
        return np.clip(np.rint(luma), 0, 255).astype(np.uint8)
    if bpp == 8:
        # palette: 4-byte BGRX entries after the info header
        n_colors = struct.unpack_from("<I", payload, 46)[0] or 256
        pal = np.frombuffer(payload, dtype=np.uint8, count=n_colors * 4,
                            offset=14 + hdr_size).reshape(n_colors, 4)
        pal_luma = np.clip(np.rint(
            0.114 * pal[:, 0].astype(np.float32)
            + 0.587 * pal[:, 1] + 0.299 * pal[:, 2]), 0, 255).astype(np.uint8)
        return pal_luma[raw[:, :w]]
    raise NotImplementedError(f"BMP bpp={bpp}")


def _pnm_header(payload: bytes) -> tuple[bytes, int, int, int, int]:
    """Parse P5/P6 header: (magic, w, h, maxval, data_offset)."""
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(payload):
        while i < len(payload) and payload[i:i + 1].isspace():
            i += 1
        if payload[i:i + 1] == b"#":
            while i < len(payload) and payload[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(payload) and not payload[i:i + 1].isspace():
            i += 1
        tokens.append(payload[start:i])
    i += 1  # single whitespace after maxval
    return tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3]), i


def decode_pnm(payload: bytes) -> np.ndarray:
    """Real PGM (P5) / PPM (P6) decode — pure numpy, 8-bit maxval."""
    magic, w, h, maxval, off = _pnm_header(payload)
    if maxval > 255:
        raise NotImplementedError("16-bit PNM")
    if magic == b"P5":
        return np.frombuffer(payload, dtype=np.uint8, count=w * h,
                             offset=off).reshape(h, w).copy()
    if magic == b"P6":
        rgb = np.frombuffer(payload, dtype=np.uint8, count=w * h * 3,
                            offset=off).reshape(h, w, 3).astype(np.float32)
        luma = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
        return np.clip(np.rint(luma), 0, 255).astype(np.uint8)
    raise NotImplementedError(f"PNM magic {magic!r}")


def decode_image(payload: bytes, media_type: str) -> np.ndarray:
    """Decode an encoded image to (h, w) uint8 grayscale.

    Real pure-python codecs: baseline JPEG (ops/jpeg.py — huffman +
    DCT, 4:2:0/4:2:2/4:4:4, restart markers), PNG, BMP (24-bit RGB /
    8-bit paletted) and PGM/PPM.  The deterministic fake codec
    ("image/fake") stands in for the remaining formats (webp among
    them); those raise NotImplementedError — the marked swap-in point
    for PIL."""
    if media_type == "image/bmp":
        return decode_bmp(payload)
    if media_type == "image/jpeg":
        from .jpeg import decode_jpeg
        return decode_jpeg(payload)
    if media_type == "image/png":
        from .png import decode_png
        return decode_png(payload)
    if media_type in ("image/x-portable-graymap", "image/x-portable-pixmap"):
        return decode_pnm(payload)
    if media_type == "image/fake":
        w, h = struct.unpack_from("<II", payload, 0)
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, (h, w), dtype=np.uint8)
    raise NotImplementedError(
        f"no codec for {media_type}: install PIL/ffmpeg and extend decode_image")


def encode_bmp_gray(img: np.ndarray) -> bytes:
    """Minimal 8-bit grayscale BMP writer (test/synth helper)."""
    h, w = img.shape
    row_bytes = (w + 3) & ~3
    pal = b"".join(bytes([v, v, v, 0]) for v in range(256))
    pix_off = 14 + 40 + len(pal)
    size = pix_off + row_bytes * h
    hdr = b"BM" + struct.pack("<IHHI", size, 0, 0, pix_off)
    hdr += struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, 0,
                       row_bytes * h, 2835, 2835, 256, 0)
    rows = np.zeros((h, row_bytes), dtype=np.uint8)
    rows[:, :w] = img[::-1]  # bottom-up
    return hdr + pal + rows.tobytes()


def encode_pgm(img: np.ndarray) -> bytes:
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode() + img.tobytes()


class ImageFeaturizer:
    """Actor-pool stage: broadcast 'model' weights fetched once per
    actor in __init__ (ST1 pattern), per-batch decode → resize →
    feature projection. With a real model this is batched inference."""

    def __init__(self, weights_ref=None, out_size: int = 16):
        if weights_ref is None:
            rng = np.random.default_rng(123)
            self.weights = rng.normal(0, 1, (out_size * out_size, FEATURE_DIM))
        else:
            self.weights = ray.get(weights_ref)
        self.out_size = out_size

    def _resize(self, img: np.ndarray) -> np.ndarray:
        """Nearest-neighbor resize to (out, out) — numpy only."""
        h, w = img.shape
        yi = (np.arange(self.out_size) * h // self.out_size)
        xi = (np.arange(self.out_size) * w // self.out_size)
        return img[np.ix_(yi, xi)]

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        payloads = b.column("payload").to_pylist()
        mts = b.column("media_type").to_pylist()
        feats = np.empty((len(ids), FEATURE_DIM))
        means = np.empty(len(ids))
        for i in range(len(ids)):
            img = decode_image(payloads[i], mts[i])
            small = self._resize(img).astype(np.float64).ravel() / 255.0
            feats[i] = small @ self.weights
            means[i] = img.mean()
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "embedding": pa.array(list(feats.astype(np.float32)),
                                  pa.list_(pa.float32())),
            "mean_luma": pa.array(means),
        })


def image_feature_dataset(n: int = 500, concurrency: int = 2,
                          batch_size: int = 64) -> ray.data.Dataset:
    """The full multimodal stage wiring: synth table → actor pool with
    small batches (large binary rows) → embedding rows."""
    table = synth_image_table(n)
    rng = np.random.default_rng(123)
    weights = rng.normal(0, 1, (16 * 16, FEATURE_DIM))
    wref = ray.put(weights)
    ds = ray.data.from_arrow(table)
    return ds.map_batches(ImageFeaturizer,
                          fn_constructor_kwargs={"weights_ref": wref},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


# --- audio: real RIFF/WAV PCM codec + frame-sampled features --------------

AUDIO_SR = 8000
AUDIO_FRAME = 512
AUDIO_HOP = 256


def encode_wav(samples: np.ndarray, sr: int = AUDIO_SR) -> bytes:
    """Minimal RIFF/WAVE writer: PCM 16-bit mono (public format,
    synth/test helper)."""
    pcm = np.clip(samples, -1.0, 1.0)
    data = (pcm * 32767.0).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sr, sr * 2, 2, 16)
    riff = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


# G.711 (ITU-T) companding tables, computed once at import from the
# published expansion formulas — 256-entry int16 lookups make the
# decode a single vectorized numpy index.
def _g711_tables() -> tuple[np.ndarray, np.ndarray]:
    u = np.arange(256, dtype=np.int64) ^ 0xFF          # mu-law bits invert
    sign = np.where(u & 0x80, -1, 1)
    exp = (u >> 4) & 0x07
    mant = u & 0x0F
    mu = sign * (((mant << 1) + 33 << exp) - 33) * 4   # 14-bit → 16-bit
    a = np.arange(256, dtype=np.int64) ^ 0x55          # A-law even-bit invert
    # A-law sign convention is the OPPOSITE of mu-law's: bit 7 set
    # (after the 0x55 toggle) means POSITIVE (ITU G.711 / Sun g711.c)
    sign_a = np.where(a & 0x80, 1, -1)
    exp_a = (a >> 4) & 0x07
    mant_a = a & 0x0F
    mag = np.where(exp_a == 0, (mant_a << 1) + 1,
                   ((mant_a << 1) + 33) << (exp_a - 1))
    al = sign_a * mag * 8                              # 13-bit → 16-bit
    return mu.astype(np.int16), al.astype(np.int16)


_MULAW_TABLE, _ALAW_TABLE = _g711_tables()

# IMA/DVI ADPCM (public spec, also used by decoders everywhere):
# per-nibble step-size adaptation over the published 89-entry table.
_IMA_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767],
    dtype=np.int64)
_IMA_INDEX_ADJ = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int64)


def _decode_ima_block(blk: bytes) -> np.ndarray:
    """One mono IMA-ADPCM block: 4-byte header (int16 predictor,
    uint8 step index, reserved) then 4-bit codes, low nibble first.
    The recurrence is inherently sequential (each sample feeds the
    next predictor) — the per-sample loop is the algorithm, not
    avoidable vectorization debt; blocks are small (≤2 KB) and decode
    inside the actor pool."""
    pred, idx = struct.unpack_from("<hB", blk, 0)
    nib = np.frombuffer(blk[4:], dtype=np.uint8)
    codes = np.empty(nib.size * 2, dtype=np.int64)
    codes[0::2] = nib & 0x0F
    codes[1::2] = nib >> 4
    out = np.empty(1 + codes.size, dtype=np.int16)
    out[0] = pred
    for k, c in enumerate(codes):
        step = int(_IMA_STEPS[idx])
        diff = step >> 3
        if c & 1:
            diff += step >> 2
        if c & 2:
            diff += step >> 1
        if c & 4:
            diff += step
        pred = pred - diff if c & 8 else pred + diff
        pred = max(-32768, min(32767, pred))
        idx = max(0, min(88, idx + int(_IMA_INDEX_ADJ[c & 7])))
        out[1 + k] = pred
    return out


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """Real RIFF/WAV decode, pure numpy: walks the chunk list
    (fmt /data, skipping others) and supports every compression
    actually found in crawled WAVs — PCM (format 1) 8/16-bit mono or
    stereo (mixed down), G.711 A-law (6) / mu-law (7) via vectorized
    256-entry lookups, and mono IMA/DVI ADPCM (17) block decode.
    Returns (float32 samples in [-1, 1], sample_rate).  Perceptual
    codecs (mp3/ogg — no codec libs in this container) raise
    NotImplementedError: the marked swap-in point for ffmpeg."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    i, n = 12, len(payload)
    fmt_code = channels = sr = bits = block_align = None
    data = None
    while i + 8 <= n:
        cid = payload[i:i + 4]
        (sz,) = struct.unpack_from("<I", payload, i + 4)
        body = i + 8
        if cid == b"fmt ":
            fmt_code, channels, sr = struct.unpack_from("<HHI", payload, body)
            (block_align,) = struct.unpack_from("<H", payload, body + 12)
            (bits,) = struct.unpack_from("<H", payload, body + 14)
        elif cid == b"data":
            data = payload[body:body + sz]
        i = body + sz + (sz & 1)  # chunks are word-aligned
    if fmt_code is None or data is None:
        raise ValueError("missing fmt/data chunk")
    if fmt_code == 1:
        if bits == 16:
            x = np.frombuffer(data, dtype="<i2").astype(np.float32) / 32768.0
        elif bits == 8:
            x = (np.frombuffer(data, dtype=np.uint8).astype(np.float32) - 128.0) / 128.0
        else:
            raise NotImplementedError(f"WAV {bits}-bit PCM")
    elif fmt_code in (6, 7):
        table = _ALAW_TABLE if fmt_code == 6 else _MULAW_TABLE
        x = (table[np.frombuffer(data, dtype=np.uint8)]
             .astype(np.float32) / 32768.0)
    elif fmt_code == 17:
        if channels != 1:
            raise NotImplementedError("stereo IMA ADPCM")
        ba = block_align or 1024
        # a final 4-byte header-only block still carries one seed sample
        blocks = [_decode_ima_block(data[o:o + ba])
                  for o in range(0, len(data) - 3, ba)]
        x = (np.concatenate(blocks) if blocks
             else np.empty(0, np.int16)).astype(np.float32) / 32768.0
        return x, sr
    else:
        raise NotImplementedError(
            f"WAV format {fmt_code}: install ffmpeg and extend decode_wav")
    if channels > 1:
        x = x[:len(x) - len(x) % channels].reshape(-1, channels).mean(axis=1)
    return x, sr


def _wrap_wav(fmt: bytes, data: bytes) -> bytes:
    riff = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


def encode_g711_wav(samples: np.ndarray, law: str = "mu",
                    sr: int = AUDIO_SR) -> bytes:
    """G.711 companding encoder (synth/test helper): nearest decode-
    table entry per sample, fully vectorized (sorted table +
    searchsorted)."""
    table = _MULAW_TABLE if law == "mu" else _ALAW_TABLE
    order = np.argsort(table.astype(np.int64))
    tv = table.astype(np.int64)[order]
    pcm = (np.clip(samples, -1.0, 1.0) * 32767.0).astype(np.int64)
    pos = np.searchsorted(tv, pcm).clip(1, 255)
    lo, hi = pos - 1, np.minimum(pos, 255)
    pick = np.where(np.abs(tv[lo] - pcm) <= np.abs(tv[hi] - pcm), lo, hi)
    codes = order[pick].astype(np.uint8)
    fmt_code = 7 if law == "mu" else 6
    fmt = struct.pack("<HHIIHH", fmt_code, 1, sr, sr, 1, 8)
    return _wrap_wav(fmt, codes.tobytes())


def encode_ima_adpcm_wav(samples: np.ndarray, sr: int = AUDIO_SR,
                         block_align: int = 256) -> bytes:
    """Mono IMA/DVI ADPCM encoder (synth/test helper): the standard
    sequential recurrence, one 4-bit code per sample after the block
    header's seed sample."""
    pcm = (np.clip(samples, -1.0, 1.0) * 32767.0).astype(np.int64)
    per_block = (block_align - 4) * 2 + 1
    out = bytearray()
    idx = 0
    for o in range(0, len(pcm), per_block):
        blk = pcm[o:o + per_block]
        pred = int(blk[0])
        out += struct.pack("<hBB", pred, idx, 0)
        nibbles = []
        for v in blk[1:]:
            step = int(_IMA_STEPS[idx])
            diff = int(v) - pred
            code = 8 if diff < 0 else 0
            diff = abs(diff)
            d, q = step >> 3, 0
            if diff >= step:
                code |= 4
                diff -= step
                d += step
            if diff >= step >> 1:
                code |= 2
                diff -= step >> 1
                d += step >> 1
            if diff >= step >> 2:
                code |= 1
                d += step >> 2
            pred = pred - d if code & 8 else pred + d
            pred = max(-32768, min(32767, pred))
            idx = max(0, min(88, idx + int(_IMA_INDEX_ADJ[code & 7])))
            nibbles.append(code)
        if len(nibbles) % 2:
            nibbles.append(0)
        arr = np.asarray(nibbles, dtype=np.uint8)
        out += (arr[0::2] | (arr[1::2] << 4)).tobytes()
    fmt = struct.pack("<HHIIHH", 17, 1, sr, sr // 2, block_align, 4)
    return _wrap_wav(fmt, bytes(out))


def synth_audio_table(n: int, seed: int = 11) -> pa.Table:
    """Deterministic 'recordings': sine + noise mixtures, REAL WAV
    payloads rotating through every supported compression (PCM 16-bit,
    G.711 mu-law / A-law, IMA ADPCM) so all four decode paths are
    load-bearing in the feature pipeline."""
    rng = np.random.default_rng(seed)
    encoders = (encode_wav,
                lambda x: encode_g711_wav(x, "mu"),
                lambda x: encode_g711_wav(x, "a"),
                encode_ima_adpcm_wav)
    rows = {"doc_id": [], "media_type": [], "payload": [], "n_samples": []}
    for i in range(n):
        dur = int(rng.integers(AUDIO_SR // 4, AUDIO_SR * 2))
        t = np.arange(dur) / AUDIO_SR
        f = float(rng.uniform(80, 2000))
        x = (0.6 * np.sin(2 * np.pi * f * t)
             + 0.2 * rng.standard_normal(dur)).astype(np.float32)
        rows["doc_id"].append(i)
        rows["media_type"].append("audio/wav")
        rows["payload"].append(encoders[i % 4](np.clip(x, -1.0, 1.0)))
        rows["n_samples"].append(dur)
    return pa.table(rows)


def frame_signal(x: np.ndarray, frame: int = AUDIO_FRAME,
                 hop: int = AUDIO_HOP) -> np.ndarray:
    """Frame-sample a 1-D signal into (n_frames, frame) windows
    (zero-copy strided view; trailing partial frame dropped)."""
    if len(x) < frame:
        x = np.pad(x, (0, frame - len(x)))
    n_frames = 1 + (len(x) - frame) // hop
    return np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, frame),
        strides=(x.strides[0] * hop, x.strides[0])).copy()


class AudioFeaturizer:
    """Actor-pool stage: WAV decode → frame-sample → vectorized
    per-frame RMS / zero-crossing / spectral centroid (rfft), reduced
    to per-doc features.  The mel filterbank analog (here: the rfft
    bin weights) is built once per actor in __init__ (ST1)."""

    def __init__(self, frame: int = AUDIO_FRAME, hop: int = AUDIO_HOP):
        self.frame, self.hop = frame, hop
        self.window = np.hanning(frame).astype(np.float32)
        self.freqs = np.fft.rfftfreq(frame, d=1.0 / AUDIO_SR)

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        out = {"doc_id": [], "n_frames": [], "duration_s": [],
               "rms_mean": [], "rms_max": [], "zcr_mean": [],
               "spectral_centroid": []}
        for i, payload in enumerate(b.column("payload").to_pylist()):
            x, sr = decode_wav(payload)
            fr = frame_signal(x, self.frame, self.hop)
            rms = np.sqrt((fr ** 2).mean(axis=1))
            zcr = (np.diff(np.signbit(fr).astype(np.int8), axis=1)
                   != 0).mean(axis=1)
            spec = np.abs(np.fft.rfft(fr * self.window, axis=1))
            power = spec.sum(axis=1)
            cent = (spec @ self.freqs) / np.where(power > 0, power, 1.0)
            out["doc_id"].append(int(ids[i]))
            out["n_frames"].append(len(fr))
            out["duration_s"].append(round(len(x) / sr, 6))
            out["rms_mean"].append(round(float(rms.mean()), 6))
            out["rms_max"].append(round(float(rms.max()), 6))
            out["zcr_mean"].append(round(float(zcr.mean()), 6))
            out["spectral_centroid"].append(round(float(cent.mean()), 3))
        return pa.table({k: pa.array(v) for k, v in out.items()})


def audio_feature_dataset(n: int = 200, concurrency: int = 2,
                          batch_size: int = 32) -> ray.data.Dataset:
    """synth WAV table → actor pool (small batches: wide binary rows)
    → per-doc audio features."""
    ds = ray.data.from_arrow(synth_audio_table(n))
    return ds.map_batches(AudioFeaturizer, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)


def q_audio_features(sf_dir: str) -> pd.DataFrame:
    """Rows-only query: real-WAV decode → frame-sample → features."""
    from ..sources.pages import rows_for_sf
    n = max(100, rows_for_sf(sf_dir) // 200)
    df = audio_feature_dataset(n).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


# --- video: rawvideo container (concatenated PGM frames) ------------------

def synth_rawvideo_table(n: int, seed: int = 23) -> pa.Table:
    """Deterministic 'clips': a real (if minimal) rawvideo container —
    concatenated P5 frames, each self-describing via its PNM header.
    Compressed video (h264/vp9) would swap in at decode_video."""
    rng = np.random.default_rng(seed)
    rows = {"doc_id": [], "media_type": [], "payload": [], "n_frames": []}
    for i in range(n):
        w = int(rng.integers(16, 64))
        h = int(rng.integers(16, 64))
        nf = int(rng.integers(4, 24))
        base = rng.integers(0, 256, (h, w), dtype=np.uint8)
        frames = []
        for f in range(nf):
            frames.append(encode_pgm(np.roll(base, f, axis=1)))
        rows["doc_id"].append(i)
        rows["media_type"].append("video/x-raw-pgm")
        rows["payload"].append(b"".join(frames))
        rows["n_frames"].append(nf)
    return pa.table(rows)


def decode_video(payload: bytes, media_type: str):
    """Yield (h, w) uint8 frames from a rawvideo payload.  Compressed
    containers raise NotImplementedError (ffmpeg swap-in point)."""
    if media_type != "video/x-raw-pgm":
        raise NotImplementedError(
            f"no codec for {media_type}: install ffmpeg and extend decode_video")
    off = 0
    while off < len(payload):
        magic, w, h, maxval, hdr = _pnm_header(payload[off:off + 64])
        assert magic == b"P5"
        end = off + hdr + w * h
        yield decode_pnm(payload[off:end])
        off = end


class VideoFrameSampler:
    """Actor-pool stage: decode → sample every `stride`-th frame →
    reuse the image feature projection per sampled frame, mean-pooled
    per clip (the decode/frame-sample/feature-extract chain from the
    multimodal brief as ONE pipeline of real stages)."""

    def __init__(self, weights_ref=None, stride: int = 4, out_size: int = 16):
        self.stride = stride
        self.proj = ImageFeaturizer(weights_ref, out_size)

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        out_id, out_ns, out_emb = [], [], []
        for i, payload in enumerate(b.column("payload").to_pylist()):
            frames = list(decode_video(payload,
                                       b.column("media_type")[i].as_py()))
            sampled = frames[::self.stride]
            feats = np.stack([
                (self.proj._resize(f).astype(np.float64).ravel() / 255.0)
                @ self.proj.weights for f in sampled])
            out_id.append(int(ids[i]))
            out_ns.append(len(sampled))
            out_emb.append(feats.mean(axis=0).astype(np.float32))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "n_sampled": pa.array(out_ns, pa.int64()),
            "embedding": pa.array([list(e) for e in out_emb],
                                  pa.list_(pa.float32())),
        })


def video_frame_dataset(n: int = 100, concurrency: int = 2,
                        batch_size: int = 16) -> ray.data.Dataset:
    ds = ray.data.from_arrow(synth_rawvideo_table(n))
    return ds.map_batches(VideoFrameSampler, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)


def q_video_frame_features(sf_dir: str) -> pd.DataFrame:
    """Rows-only query: rawvideo decode → frame-sample → per-clip
    mean-pooled frame embeddings."""
    from ..sources.pages import rows_for_sf
    n = max(50, rows_for_sf(sf_dir) // 400)
    df = video_frame_dataset(n).to_pandas()
    out = df[["doc_id", "n_sampled"]].sort_values("doc_id")
    return out.reset_index(drop=True)


def q_image_features(sf_dir: str) -> pd.DataFrame:
    """Rows-only query: deterministic multimodal featurize pipeline
    (sized by sf like the pages source)."""
    from ..sources.pages import rows_for_sf
    n = max(200, rows_for_sf(sf_dir) // 100)
    df = image_feature_dataset(n).to_pandas()
    df["mean_luma"] = df["mean_luma"].round(4)
    out = df[["doc_id", "mean_luma"]].sort_values("doc_id").reset_index(drop=True)
    return out
