"""Unit-level parity with the reference's own C++ test vectors
(/root/reference/test/*.test.cpp) — the closest available stand-in for
byte-parity, since the reference binary cannot be built in this sandbox
(no boost/protobuf/lua; see BASELINE.md)."""

import gzip
import os
import zlib

import pytest

from conftest import REFERENCE
from tilemaker_ray.pipelines.osm import SignificantTags


class TestSignificantTagsVectors:
    """test/significant_tags.test.cpp ported 1:1."""

    def test_parse_filter(self):
        assert SignificantTags.parse_filter("foo") == (True, "foo", "")
        assert SignificantTags.parse_filter("~foo") == (False, "foo", "")
        assert SignificantTags.parse_filter("foo=bar") == (True, "foo", "bar")
        assert SignificantTags.parse_filter("~foo=bar") == (False, "foo", "bar")

    def test_invalid_mix_throws(self):
        with pytest.raises(ValueError):
            SignificantTags(["a", "~b"])

    def test_disabled_passes_everything(self):
        # omitted node_keys/way_keys: even an empty tag map passes
        assert SignificantTags(None).accept({})

    def test_empty_list_rejects_everything(self):
        # `way_keys = {}` (nodes-only extracts): rejects all
        t = SignificantTags([])
        assert not t.accept({})
        assert not t.accept({"building": "yes"})

    def test_default_accept_mode(self):
        # `way_keys = {"~building"}`
        t = SignificantTags(["~building"])
        assert not t.accept({"building": "yes"})
        assert t.accept({"building": "yes", "name": "Some name"})

    def test_default_reject_mode(self):
        # `way_keys = {"power=tower"}`
        t = SignificantTags(["power=tower"])
        assert not t.accept({})
        assert t.accept({"power": "tower"})
        assert not t.accept({"power": "line"})

    def test_inverted_kv(self):
        # `~foo=bar` rejects only the exact pair
        t = SignificantTags(["~foo=bar"])
        assert not t.accept({"foo": "bar"})
        assert t.accept({"foo": "baz"})


class TestNewlineChunkVectors:
    """test/helpers.test.cpp getNewlineChunks vectors against the same
    24-byte layout as its test.jsonl fixture: three lines, newlines at
    offsets 2, 12 and 23. Written inline; the reference's own file is
    checked too where it exists."""

    REFERENCE_JSONL = os.path.join(REFERENCE, "test", "test.jsonl")
    LINES = b'{}\n{"foo":1}\n{"bar":22}\n'

    @pytest.fixture(autouse=True)
    def _fixtures(self, tmp_path):
        path = tmp_path / "test.jsonl"
        path.write_bytes(self.LINES)
        self.fixtures = [str(path)]
        if os.path.exists(self.REFERENCE_JSONL):
            self.fixtures.append(self.REFERENCE_JSONL)

    def _chunks(self, n):
        """Per fixture, as (offset, length) pairs, the reference's
        representation (get_newline_chunks returns [start, end) ranges)."""
        from tilemaker_ray.sources.geojson import get_newline_chunks
        return [[(s, e - s) for s, e in get_newline_chunks(path, n)]
                for path in self.fixtures]

    def test_one_chunk(self):
        for got in self._chunks(1):
            assert got == [(0, 24)]

    def test_two_chunks(self):
        for got in self._chunks(2):
            assert got == [(0, 12), (12, 12)]

    def test_three_chunks_lopsided(self):
        for got in self._chunks(3):
            assert got == [(0, 12), (12, 11), (23, 1)]

    def test_many_chunks_devolves_to_per_line(self):
        for got in self._chunks(128):
            assert got == [(0, 2), (2, 10), (12, 11), (23, 1)]

    def test_chunks_parse_to_all_lines(self):
        # every line lands in exactly one chunk regardless of split
        import json
        from tilemaker_ray.sources.geojson import get_newline_chunks
        for path in self.fixtures:
            with open(path, "rb") as f:
                want = [json.loads(l) for l in f.read().splitlines()
                        if l.strip()]
            for n in (1, 2, 3, 4, 128):
                got = []
                with open(path, "rb") as f:
                    for s, e in get_newline_chunks(path, n):
                        f.seek(s)
                        for l in f.read(e - s).splitlines():
                            if l.strip():
                                got.append(json.loads(l))
                assert got == want, (path, n)


class TestCompressionRoundTrip:
    """test/helpers.test.cpp compression vectors — the repo uses
    stdlib gzip/zlib (mvt.py), same wire formats."""

    INPUT = b"a random string to be compressed"

    def test_gzip_levels(self):
        for level in list(range(1, 9)) + [-1]:
            blob = gzip.compress(self.INPUT, compresslevel=level if level > 0 else 9)
            assert gzip.decompress(blob) == self.INPUT

    def test_zlib_levels(self):
        for level in list(range(1, 9)) + [-1]:
            blob = zlib.compress(self.INPUT, level)
            assert zlib.decompress(blob) == self.INPUT
