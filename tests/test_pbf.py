"""Parity with the reference's pbf_reader test
(test/pbf_reader.test.cpp:7-120): header, per-block
counts, a string-table entry and one node, way and relation, checked
on the seeded OSM fixture against what its writer recorded, and on the
reference's test/monaco.pbf with its frozen values where that file
exists."""

import os

import numpy as np
import pytest

from tilemaker_ray.sources import pbf

from conftest import MONACO
# pbf_reader.test.cpp's frozen values, in the writer record's shape;
# sample entities give only the tags, refs and member types it checks
MONACO_RECORD = {
    "bbox": (7.409205, 43.723350, 7.448637, 43.751690),
    "optional_features": ["Sort.Type_then_ID"],
    "data_blobs": 6, "groups": 6, "strings": 8236,
    "counts": {"nodes": 30477, "ways": 4825, "relations": 285},
    "string_200": "description:FR",
    "node": {"id": 21911886, "tags": {"highway": "crossing"}},
    "way": {"id": 4224978, "tags": {"sport": "soccer"}, "n_refs": 5,
            "refs": {0: 25178088, 2: 25178045, 4: 25178088}},
    "relation": {"id": 1124039, "n_members": 17,
                 "types": {0: pbf.MEMBER_NODE, 2: pbf.MEMBER_WAY,
                           16: pbf.MEMBER_RELATION}},
}


def expected(record: dict) -> dict:
    """The writer's record of the OSM fixture as MONACO_RECORD."""
    tables = record["string_tables"]
    way, rel = record["way"], record["relation"]
    return {
        "bbox": record["bbox"],
        "optional_features": record["optional_features"],
        "data_blobs": len(tables), "groups": record["groups"],
        "strings": sum(len(t) for t in tables),
        "counts": {k: record["counts"][k]
                   for k in ("nodes", "ways", "relations")},
        "string_200": [s for t in tables for s in t][200],
        "node": record["node"],
        "way": {"id": way["id"], "tags": way["tags"],
                "n_refs": len(way["refs"]), "refs": dict(enumerate(way["refs"]))},
        "relation": {"id": rel["id"], "n_members": len(rel["memids"]),
                     "types": dict(enumerate(rel["types"]))},
    }


def cases(osm_pbf):
    """(path, expected values): the OSM fixture, and Monaco if present."""
    path, record = osm_pbf
    out = [(path, expected(record))]
    if os.path.exists(MONACO):
        out.append((MONACO, MONACO_RECORD))
    return out


class TestMonacoParity:
    def test_header(self, osm_pbf):
        for path, want in cases(osm_pbf):
            btype, data = next(pbf.iter_blobs(path))
            assert btype == "OSMHeader"
            hb = pbf.parse_header(data)
            assert hb.bbox == pytest.approx(want["bbox"])
            for feature in want["optional_features"]:
                assert feature in hb.optional_features

    def test_counts(self, osm_pbf):
        for path, want in cases(osm_pbf):
            self._check_counts(path, want)

    @staticmethod
    def _check_counts(path, want):
        data_blobs = [d for t, d in pbf.iter_blobs(path) if t == "OSMData"]
        assert len(data_blobs) == want["data_blobs"]
        groups = strings = nodes = ways = relations = 0
        found_node = found_way = found_rel = False
        string_200 = None
        node, way, rel = want["node"], want["way"], want["relation"]
        for d in data_blobs:
            pb = pbf.parse_primitive_block(d)
            groups += pb.n_groups
            for s in pb.strings:
                if strings == 200:
                    string_200 = s.decode()
                strings += 1
            ids, lat, lon, tags = pbf.block_nodes(pb)
            nodes += len(ids)
            if node["id"] in ids:
                i = int(np.nonzero(ids == node["id"])[0][0])
                assert tags[i].items() >= node["tags"].items()
                found_node = True
            for w in pb.ways:
                ways += 1
                if w["id"] == way["id"]:
                    t = pbf.way_tags(pb, w)
                    assert t.items() >= way["tags"].items()
                    assert len(w["refs"]) == way["n_refs"]
                    for i, ref in way["refs"].items():
                        assert w["refs"][i] == ref
                    found_way = True
            for r in pb.relations:
                relations += 1
                if r["id"] == rel["id"]:
                    assert len(r["memids"]) == rel["n_members"]
                    for i, mtype in rel["types"].items():
                        assert r["types"][i] == mtype
                    found_rel = True
        counts = want["counts"]
        assert (groups, strings, nodes, ways, relations) == (
            want["groups"], want["strings"], counts["nodes"],
            counts["ways"], counts["relations"])
        assert string_200 == want["string_200"]
        assert found_node and found_way and found_rel

    def test_blob_offsets_roundtrip(self, osm_inputs):
        for path in osm_inputs:
            blobs = list(pbf.iter_blobs(path))
            offs = pbf.blob_offsets(path)
            assert len(offs) == len(blobs)
            # reading by offset gives identical payloads (the per-task read)
            for (off, ln, t), (t2, d2) in zip(offs, blobs):
                assert t == t2
                assert pbf.read_blob_at(path, off, ln) == d2

    def test_packed_varint_kernel(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 1 << 62, 500, dtype=np.uint64)
        buf = bytearray()
        for v in vals.tolist():
            while True:
                b = v & 0x7F
                v >>= 7
                if v:
                    buf.append(b | 0x80)
                else:
                    buf.append(b)
                    break
        got = pbf.decode_packed_varints(bytes(buf))
        np.testing.assert_array_equal(got, vals)
