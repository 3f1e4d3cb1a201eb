"""Property-based tests (hypothesis) over the pure kernels — the
randomized counterpart to the golden fixtures: invariants that must
hold for EVERY input, not just the frozen ones. No Ray session needed;
every target here is a plain function."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

# geometry strategies: finite, de-duplicated consecutive points
_coord = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False, width=32)


def _linestrings(min_pts=2, max_pts=40):
    return (st.lists(st.tuples(_coord, _coord),
                     min_size=min_pts, max_size=max_pts)
            .map(lambda pts: np.array(pts, dtype=np.float64)))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(1 << 62), max_value=(1 << 62)))
def test_mvt_varint_zigzag_roundtrip(v):
    from tilemaker_ray.mvt import _read_varint, _varint
    buf = bytearray()
    zz = (v << 1) ^ (v >> 63)           # zigzag like the encoder does
    _varint(buf, zz)
    got, end = _read_varint(bytes(buf), 0)
    assert end == len(buf)
    assert (got >> 1) ^ -(got & 1) == v


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-85.05, max_value=85.05,
                 allow_nan=False))
def test_tilemath_lat_projection_involution(lat):
    from tilemaker_ray.tilemath import lat2latp, latp2lat
    assert abs(latp2lat(lat2latp(lat)) - lat) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-179.999, max_value=179.999,
                 allow_nan=False),
       st.integers(min_value=0, max_value=14))
def test_tilemath_tilex_bounds_and_monotone(lon, z):
    from tilemaker_ray.tilemath import lon2tilex, tilex2lon
    x = lon2tilex(lon, z)
    assert 0 <= x < (1 << z) or x == (1 << z) - 1 or x == (1 << z)
    x = min(x, (1 << z) - 1)
    # the tile's west edge is <= lon < next tile's west edge (within fp)
    assert tilex2lon(x, z) - 1e-7 <= lon <= tilex2lon(x + 1, z) + 1e-7


@settings(max_examples=150, deadline=None)
@given(_linestrings(),
       st.floats(min_value=1e-6, max_value=1e4, allow_nan=False))
def test_douglas_peucker_subset_and_endpoints(ls, eps):
    from tilemaker_ray.geom.simplify import douglas_peucker
    out = douglas_peucker(ls, eps)
    assert len(out) >= 2
    assert (out[0] == ls[0]).all() and (out[-1] == ls[-1]).all()
    # every output vertex is one of the input vertices
    inset = {tuple(p) for p in ls}
    assert all(tuple(p) in inset for p in out)


@settings(max_examples=150, deadline=None)
@given(_linestrings(min_pts=2, max_pts=30))
def test_clip_linestring_stays_inside_box(ls):
    from tilemaker_ray.geom.clip import clip_linestring
    minx, miny, maxx, maxy = -10.0, -10.0, 10.0, 10.0
    parts = clip_linestring(ls, minx, miny, maxx, maxy)
    pad = 1e-6
    for p in parts:
        assert len(p) >= 2
        assert (p[:, 0] >= minx - pad).all() and (p[:, 0] <= maxx + pad).all()
        assert (p[:, 1] >= miny - pad).all() and (p[:, 1] <= maxy + pad).all()
    # a non-degenerate line fully inside the box keeps its arc length
    # (vertex COUNT may drop: the clipper dedups epsilon-duplicate and
    # collinear-repeat vertices by design)
    def arclen(arr):
        return float(np.hypot(*np.diff(arr, axis=0).T).sum())

    inside = np.clip(ls, -9.0, 9.0)
    if arclen(inside) > 1e-6:
        kept = clip_linestring(inside, minx, miny, maxx, maxy)
        assert abs(sum(arclen(p) for p in kept)
                   - arclen(inside)) < 1e-6 * max(1, arclen(inside))


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=0, max_size=200))
def test_content_hash_deterministic_and_spread(t):
    from tilemaker_ray.ops.text import content_hash64
    a = content_hash64([t, t, t + "x"])
    assert a[0] == a[1]
    assert a[0] != a[2]


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32,
                                      max_codepoint=0x10FF),
               min_size=25, max_size=120),
       st.integers(min_value=0, max_value=30))
def test_rolling_hash_position_invariance(t, shift):
    """A gram's Karp-Rabin hash must not depend on WHERE it sits:
    prefixing arbitrary text never changes the hashes of the grams the
    suffix contributes."""
    from tilemaker_ray.ops.dedup import DUP_SPAN_L, _gram_hashes
    prefix = "P" * shift
    h1 = _gram_hashes(t, DUP_SPAN_L, "rolling")
    h2 = _gram_hashes(prefix + t, DUP_SPAN_L, "rolling")
    assert (h2[shift:] == h1).all()


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab ", min_size=1, max_size=60),
       st.text(alphabet="ab ", min_size=1, max_size=60))
def test_winnow_containment_property(a, b):
    """Winnowing guarantee on arbitrary text: if `a` contains a
    substring of length >= W+K-1 of `b`, they share a fingerprint."""
    from tilemaker_ray.ops.text import WINNOW_K, WINNOW_W, winnow_hashes
    t = WINNOW_W + WINNOW_K - 1
    joined = a + b
    if len(b) >= t:
        h1 = set(winnow_hashes(joined).tolist())
        h2 = set(winnow_hashes(b).tolist())
        assert h1 & h2


_text = st.text(alphabet=st.characters(min_codepoint=32,
                                       max_codepoint=0x2FF),
                min_size=0, max_size=400)


@settings(max_examples=150, deadline=None)
@given(_text)
def test_cdc_chunks_conserve_and_position_independent(t):
    """CDC invariants for every input: chunk lengths tile the text
    exactly, and a duplicated text yields the identical chunk-hash
    sequence (hashes depend on content only, not absolute offset —
    checked by re-chunking t after a prefix that ends with a forced
    boundary can't be arranged, so we instead verify determinism +
    the substring-hash identity on each chunk)."""
    from tilemaker_ray.ops.dedup import _cdc_chunks, _kr_prefix

    h, ln = _cdc_chunks(t)
    assert int(ln.sum()) == len(t)
    assert (ln > 0).all() or len(t) == 0
    h2, ln2 = _cdc_chunks(t)
    assert np.array_equal(h, h2) and np.array_equal(ln, ln2)
    if len(t):
        # each chunk's hash equals the KR substring identity
        p, b_pow = _kr_prefix(t)
        ends = np.cumsum(ln)
        starts = ends - ln
        with np.errstate(over="ignore"):
            expect = (p[ends] - p[starts]) * b_pow[ends - 1]
        assert np.array_equal(h, expect)
        # equal chunks anywhere hash equal: chunk 0 re-hashed standalone
        e0 = int(ends[0])
        sub_h, sub_ln = _cdc_chunks(t[:e0])
        assert sub_h[0] == h[0]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=8),
                min_size=1, max_size=40))
def test_gopher_counts_invariants(words):
    """For every doc: n_words == len(split), 0 <= hapax <= n_words,
    1 <= max_tok_freq <= n_words, hapax + counts consistency
    (hapax == number of tokens whose count is exactly 1)."""
    import pandas as pd

    from tilemaker_ray.ops.text import gopher_counts

    t = " ".join(words)
    g = gopher_counts(pd.Series([t])).iloc[0]
    from collections import Counter
    c = Counter(words)
    assert g["n_words"] == len(words)
    assert g["n_hapax"] == sum(1 for v in c.values() if v == 1)
    assert g["max_tok_freq"] == max(c.values())
    assert g["gopher_pass"] in (0, 1)
