import numpy as np
import pandas as pd
import pytest

from tilemaker_ray.ops import multimodal as mm


class TestDecode:
    def test_fake_codec_deterministic(self):
        t = mm.synth_image_table(12)
        i = t.column("media_type").to_pylist().index("image/fake")
        p = t.column("payload")[i].as_py()
        a = mm.decode_image(p, "image/fake")
        b = mm.decode_image(p, "image/fake")
        np.testing.assert_array_equal(a, b)
        assert a.shape == (t.column("height")[i].as_py(), t.column("width")[i].as_py())

    def test_unknown_codec_raises(self):
        with pytest.raises(NotImplementedError, match="codec"):
            mm.decode_image(b"\x00" * 16, "image/heic")


class TestFeaturizer:
    def test_direct_call(self):
        t = mm.synth_image_table(20)
        f = mm.ImageFeaturizer()
        out = f(t)
        assert out.num_rows == 20
        emb = out.column("embedding")[0].as_py()
        assert len(emb) == mm.FEATURE_DIM
        # deterministic
        out2 = mm.ImageFeaturizer()(t)
        np.testing.assert_array_equal(out.column("mean_luma").to_numpy(),
                                      out2.column("mean_luma").to_numpy())


@pytest.mark.usefixtures("ray_session")
class TestPipeline:
    def test_image_feature_dataset(self):
        df = mm.image_feature_dataset(n=200, concurrency=2).to_pandas()
        assert len(df) == 200
        assert df.embedding.map(len).eq(mm.FEATURE_DIM).all()
        assert df.mean_luma.between(100, 155).all()  # uniform pixels ≈ 127.5


class TestRealCodecs:
    def test_bmp_gray_roundtrip(self):
        from tilemaker_ray.ops.multimodal import decode_bmp, encode_bmp_gray
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (13, 17), dtype=np.uint8)  # odd width → padding
        assert (decode_bmp(encode_bmp_gray(img)) == img).all()

    def test_bmp_24bit(self):
        from tilemaker_ray.ops.multimodal import decode_bmp
        import struct
        # 2x2 24-bit BMP: solid red / green / blue / white, bottom-up
        w = h = 2
        row = lambda px: b"".join(bytes(p) for p in px) + b"\x00" * 2  # pad to 8
        pix = row([(0, 0, 255), (0, 255, 0)]) + row([(255, 0, 0), (255, 255, 255)])
        # rows bottom-up: first row is the BOTTOM row
        hdr = b"BM" + struct.pack("<IHHI", 14 + 40 + len(pix), 0, 0, 54)
        hdr += struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(pix), 0, 0, 0, 0)
        img = decode_bmp(hdr + pix)
        assert img.shape == (2, 2)
        # top row = second stored row: blue(29), white(255)
        assert img[0, 0] == 29 and img[0, 1] == 255
        assert img[1, 0] == 76 and img[1, 1] == 150  # red, green lumas

    def test_pgm_ppm(self):
        from tilemaker_ray.ops.multimodal import decode_pnm, encode_pgm
        rng = np.random.default_rng(6)
        img = rng.integers(0, 256, (7, 9), dtype=np.uint8)
        assert (decode_pnm(encode_pgm(img)) == img).all()
        ppm = b"P6\n# comment\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])
        out = decode_pnm(ppm)
        assert out.shape == (1, 2) and out[0, 0] == 76 and out[0, 1] == 29

    def test_mixed_media_pipeline(self, ray_session):
        from tilemaker_ray.ops.multimodal import image_feature_dataset
        df = image_feature_dataset(60).to_pandas()
        assert len(df) == 60
        assert df["embedding"].map(len).eq(32).all()


class TestAudio:
    def test_wav_roundtrip(self):
        from tilemaker_ray.ops.multimodal import decode_wav, encode_wav
        x = np.sin(2 * np.pi * 440 * np.arange(8000) / 8000).astype(np.float32)
        y, sr = decode_wav(encode_wav(x, 8000))
        assert sr == 8000 and len(y) == len(x)
        assert np.abs(y - x).max() < 1e-3  # 16-bit quantization only

    def test_wav_stereo_and_8bit(self):
        import struct
        from tilemaker_ray.ops.multimodal import decode_wav
        # hand-built stereo 16-bit: L=+0.5, R=-0.5 → mixdown ~0
        data = struct.pack("<4h", 16384, -16384, 16384, -16384)
        fmt = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
        riff = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        y, sr = decode_wav(b"RIFF" + struct.pack("<I", len(riff)) + riff)
        assert len(y) == 2 and np.abs(y).max() < 1e-3
        # compressed format code raises at the swap-in point
        fmt_bad = struct.pack("<HHIIHH", 85, 1, 8000, 8000, 1, 16)
        riff = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_bad)) + fmt_bad
                + b"data" + struct.pack("<I", 0))
        with pytest.raises(NotImplementedError):
            decode_wav(b"RIFF" + struct.pack("<I", len(riff)) + riff)

    def test_g711_roundtrip(self):
        """G.711 mu-law / A-law: companded encode → table decode must
        reconstruct within the codec's published SNR (~38 dB on a
        near-full-scale tone), and every decoded value must come from
        the 256-entry expansion table."""
        from tilemaker_ray.ops.multimodal import (_ALAW_TABLE, _MULAW_TABLE,
                                                  decode_wav, encode_g711_wav)
        rng = np.random.default_rng(3)
        x = (0.6 * np.sin(2 * np.pi * 440 * np.arange(4000) / 8000)
             + 0.05 * rng.normal(size=4000)).clip(-1, 1).astype(np.float32)
        for law, table in (("mu", _MULAW_TABLE), ("a", _ALAW_TABLE)):
            y, sr = decode_wav(encode_g711_wav(x, law))
            assert sr == 8000 and len(y) == len(x)
            rmse = float(np.sqrt(np.mean((x - y) ** 2)))
            assert rmse < 0.01, (law, rmse)
            vals = set(np.unique((y * 32768.0).astype(np.int16)))
            assert vals <= set(table.tolist())

    def test_g711_table_reference_points(self):
        """Published G.711 expansion anchors (ITU / Sun g711.c):
        mu-law 0xFF (zero code) → 0 with sign symmetry across the code
        space; A-law 0xD5 → +8 and 0x55 → -8 (bit 7 set AFTER the 0x55
        toggle means POSITIVE — the opposite of mu-law, the sign
        convention a review pass caught inverted), antisymmetric under
        code ^ 0x80."""
        from tilemaker_ray.ops.multimodal import _ALAW_TABLE, _MULAW_TABLE
        assert _MULAW_TABLE[0xFF] == 0
        assert _ALAW_TABLE[0xD5] == 8 and _ALAW_TABLE[0x55] == -8
        i = np.arange(256)
        np.testing.assert_array_equal(_ALAW_TABLE[i].astype(np.int64),
                                      -_ALAW_TABLE[i ^ 0x80].astype(np.int64))

        # full 256-code cross-check against the published Sun g711.c
        # expansion formulas, both laws
        def sun_alaw2linear(a_val):
            a_val ^= 0x55
            t = (a_val & 0x0F) << 4
            seg = (a_val & 0x70) >> 4
            if seg == 0:
                t += 8
            elif seg == 1:
                t += 0x108
            else:
                t = (t + 0x108) << (seg - 1)
            return t if (a_val & 0x80) else -t

        def sun_ulaw2linear(u):
            u = ~u & 0xFF
            t = ((u & 0x0F) << 3) + 0x84
            t <<= (u & 0x70) >> 4
            return (0x84 - t) if (u & 0x80) else (t - 0x84)

        np.testing.assert_array_equal(
            _ALAW_TABLE.astype(np.int64),
            np.array([sun_alaw2linear(c) for c in range(256)]))
        np.testing.assert_array_equal(
            _MULAW_TABLE.astype(np.int64),
            np.array([sun_ulaw2linear(c) for c in range(256)]))

    def test_ima_adpcm_roundtrip(self):
        """Mono IMA/DVI ADPCM: encode → block decode tracks the signal
        at the codec's 4-bit fidelity and preserves sample count
        (per-block predictor reseed, persistent step index)."""
        from tilemaker_ray.ops.multimodal import (decode_wav,
                                                  encode_ima_adpcm_wav)
        rng = np.random.default_rng(3)
        x = (0.6 * np.sin(2 * np.pi * 440 * np.arange(4000) / 8000)
             + 0.05 * rng.normal(size=4000)).clip(-1, 1).astype(np.float32)
        y, sr = decode_wav(encode_ima_adpcm_wav(x))
        assert sr == 8000
        # decode never LOSES samples (nibble padding may add ≤1)
        assert len(x) <= len(y) <= len(x) + 1
        m = len(x)
        rmse = float(np.sqrt(np.mean((x[:m] - y[:m]) ** 2)))
        assert rmse < 0.03, rmse
        corr = float(np.corrcoef(x[:m], y[:m])[0, 1])
        assert corr > 0.995, corr
        # header-only final block: its seed sample must survive
        # (505*2+1 samples/block → 1011 samples ends on a bare header)
        z = np.linspace(-0.5, 0.5, 1011).astype(np.float32)
        w, _ = decode_wav(encode_ima_adpcm_wav(z, block_align=256))
        assert len(w) >= 1011
        assert abs(float(w[1010]) - float(z[1010])) < 0.01

    def test_frame_signal(self):
        from tilemaker_ray.ops.multimodal import frame_signal
        fr = frame_signal(np.arange(1300, dtype=np.float32), 512, 256)
        assert fr.shape == (4, 512)
        assert fr[1][0] == 256  # hop offset
        assert frame_signal(np.ones(10, np.float32), 512, 256).shape == (1, 512)

    def test_audio_feature_dataset(self, ray_session):
        from tilemaker_ray.ops.multimodal import audio_feature_dataset
        df = audio_feature_dataset(20).to_pandas()
        assert len(df) == 20
        assert (df.n_frames > 0).all()
        assert (df.rms_mean > 0).all() and (df.spectral_centroid > 0).all()
        # deterministic across runs
        df2 = audio_feature_dataset(20).to_pandas()
        pd.testing.assert_frame_equal(df.sort_values("doc_id").reset_index(drop=True),
                                      df2.sort_values("doc_id").reset_index(drop=True))


class TestVideo:
    def test_rawvideo_decode(self):
        from tilemaker_ray.ops.multimodal import (decode_video,
                                                  synth_rawvideo_table)
        t = synth_rawvideo_table(3)
        nf = t.column("n_frames").to_pylist()
        for i in range(3):
            frames = list(decode_video(t.column("payload")[i].as_py(),
                                       "video/x-raw-pgm"))
            assert len(frames) == nf[i]
            assert frames[0].dtype == np.uint8 and frames[0].ndim == 2
        with pytest.raises(NotImplementedError):
            next(decode_video(b"x", "video/mp4"))

    def test_video_frame_dataset(self, ray_session):
        from tilemaker_ray.ops.multimodal import video_frame_dataset
        df = video_frame_dataset(10).to_pandas()
        assert len(df) == 10
        assert (df.n_sampled >= 1).all()
        assert all(len(e) == 32 for e in df.embedding)


class TestPng:
    def test_roundtrip_gray_rgb_rgba(self):
        from tilemaker_ray.ops import png
        import numpy as np
        rng = np.random.default_rng(3)
        g = rng.integers(0, 256, (23, 17), dtype=np.uint8)
        assert (png.decode_png(png.encode_png(g)) == g).all()
        rgb = rng.integers(0, 256, (9, 31, 3), dtype=np.uint8)
        lum = png._luma(rgb)
        assert (png.decode_png(png.encode_png(rgb)) == lum).all()
        rgba = rng.integers(0, 256, (12, 8, 4), dtype=np.uint8)
        assert (png.decode_png(png.encode_png(rgba)) == png._luma(rgba[:, :, :3])).all()

    def test_all_filters_decode(self):
        """Forward-filter rows per the spec (independent reference
        implementation), one filter type per row, and expect the
        decoder to invert every one exactly."""
        from tilemaker_ray.ops import png
        import numpy as np
        import struct, zlib
        rng = np.random.default_rng(5)
        h, w, bpp = 5, 11, 3
        raw = rng.integers(0, 256, (h, w * bpp), dtype=np.uint8)

        def paeth(a, b, c):
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            return a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)

        lines = []
        for y in range(h):
            f = y % 5
            prev = raw[y - 1] if y else np.zeros(w * bpp, np.int64)
            row = raw[y].astype(np.int64)
            out = np.zeros(w * bpp, np.int64)
            for x in range(w * bpp):
                left = row[x - bpp] if x >= bpp else 0
                up = prev[x]
                ul = prev[x - bpp] if x >= bpp else 0
                if f == 0:
                    pred = 0
                elif f == 1:
                    pred = left
                elif f == 2:
                    pred = up
                elif f == 3:
                    pred = (left + up) >> 1
                else:
                    pred = paeth(int(left), int(up), int(ul))
                out[x] = (row[x] - pred) & 0xFF
            lines.append(bytes([f]) + out.astype(np.uint8).tobytes())
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        data = (png._SIG + png._chunk(b"IHDR", ihdr)
                + png._chunk(b"IDAT", zlib.compress(b"".join(lines)))
                + png._chunk(b"IEND", b""))
        got = png.decode_png(data)
        exp = png._luma(raw.reshape(h, w, bpp))
        assert (got == exp).all()

    def test_palette_and_crc(self):
        from tilemaker_ray.ops import png
        import numpy as np
        import struct, zlib, pytest
        h, w = 4, 6
        idx = np.arange(h * w, dtype=np.uint8).reshape(h, w) % 5
        pal = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255],
                        [10, 20, 30], [200, 200, 200]], dtype=np.uint8)
        rows = b"".join(b"\x00" + idx[y].tobytes() for y in range(h))
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0)
        data = (png._SIG + png._chunk(b"IHDR", ihdr)
                + png._chunk(b"PLTE", pal.tobytes())
                + png._chunk(b"IDAT", zlib.compress(rows))
                + png._chunk(b"IEND", b""))
        assert (png.decode_png(data) == png._luma(pal[idx])).all()
        # corrupt one byte inside IHDR -> CRC must trip
        bad = bytearray(data)
        bad[16] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            png.decode_png(bytes(bad))

    def test_decode_image_dispatch_png(self):
        from tilemaker_ray.ops import multimodal as mm
        from tilemaker_ray.ops import png
        import numpy as np
        img = np.full((7, 7), 42, dtype=np.uint8)
        assert (mm.decode_image(png.encode_png(img), "image/png") == img).all()


class TestJpeg:
    """Baseline JPEG codec (ops/jpeg.py — VERDICT r3 #10): huffman +
    DCT round-trips within quantization error; subsampling, restart
    markers, odd sizes, progressive rejection, dispatch."""

    def test_gray_roundtrip_quality_ladder(self):
        from tilemaker_ray.ops.jpeg import decode_jpeg, encode_jpeg
        rng = np.random.default_rng(3)
        img = (np.add.outer(np.linspace(0, 200, 80),
                            np.linspace(0, 255, 96)) / 2).astype(np.uint8)
        img = np.clip(img + rng.integers(-8, 8, img.shape),
                      0, 255).astype(np.uint8)
        prev_size = None
        for q in (95, 85, 60):
            data = encode_jpeg(img, quality=q)
            assert data[:2] == b"\xff\xd8" and data[-2:] == b"\xff\xd9"
            dec = decode_jpeg(data)
            err = np.abs(dec.astype(int) - img.astype(int))
            assert dec.shape == img.shape
            assert err.mean() < 5 and err.max() < 25
            if prev_size is not None:
                assert len(data) < prev_size  # lower quality → smaller
            prev_size = len(data)

    def test_color_420_and_444(self):
        from tilemaker_ray.ops.jpeg import decode_jpeg, encode_jpeg
        rgb = np.zeros((50, 70, 3), np.uint8)
        rgb[..., 0] = np.linspace(0, 255, 70)[None, :]
        rgb[..., 1] = np.linspace(255, 0, 50)[:, None]
        rgb[..., 2] = 128
        for sub in (True, False):
            data = encode_jpeg(rgb, quality=90, subsample=sub)
            dec = decode_jpeg(data, color=True)
            assert dec.shape == rgb.shape
            assert np.abs(dec.astype(int) - rgb.astype(int)).mean() < 4
            luma = decode_jpeg(data)
            exp = (0.299 * rgb[..., 0] + 0.587 * rgb[..., 1]
                   + 0.114 * rgb[..., 2])
            assert np.abs(luma - exp).mean() < 2

    def test_restart_markers(self):
        from tilemaker_ray.ops.jpeg import decode_jpeg, encode_jpeg
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (40, 64), dtype=np.uint8)
        base = decode_jpeg(encode_jpeg(img, quality=90))
        for ri in (1, 3, 7):
            enc = encode_jpeg(img, quality=90, restart_interval=ri)
            assert b"\xff\xdd" in enc  # DRI present
            assert np.array_equal(decode_jpeg(enc), base)

    def test_odd_sizes(self):
        from tilemaker_ray.ops.jpeg import decode_jpeg, encode_jpeg
        rng = np.random.default_rng(7)
        for shape in ((17, 23), (8, 8), (9, 33, 3)):
            img = rng.integers(0, 256, shape, dtype=np.uint8)
            dec = decode_jpeg(encode_jpeg(img, quality=95),
                              color=len(shape) == 3)
            assert dec.shape == img.shape

    def test_progressive_rejected(self):
        from tilemaker_ray.ops.jpeg import decode_jpeg, encode_jpeg
        data = bytearray(encode_jpeg(np.zeros((8, 8), np.uint8)))
        i = data.index(b"\xff\xc0")
        data[i + 1] = 0xC2  # flip SOF0 → SOF2 (progressive)
        with pytest.raises(NotImplementedError, match="non-baseline"):
            decode_jpeg(bytes(data))

    def test_decode_image_dispatch_and_synth_mix(self):
        from tilemaker_ray.ops.jpeg import encode_jpeg
        img = np.full((16, 16), 99, dtype=np.uint8)
        out = mm.decode_image(encode_jpeg(img, quality=95), "image/jpeg")
        assert np.abs(out.astype(int) - 99).max() <= 3
        t = mm.synth_image_table(12)
        mts = t.column("media_type").to_pylist()
        assert "image/jpeg" in mts
        i = mts.index("image/jpeg")
        dec = mm.decode_image(t.column("payload")[i].as_py(), "image/jpeg")
        assert dec.shape == (t.column("height")[i].as_py(),
                             t.column("width")[i].as_py())
