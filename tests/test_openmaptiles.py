"""OpenMapTiles profile port (profiles/openmaptiles.py) — unit tests of
the classification logic + a Monaco e2e with frozen per-layer counts
(reference: resources/process-openmaptiles.lua, resources/
config-openmaptiles.json)."""

import gzip
import os

import numpy as np
import pytest

from tilemaker_ray.profile import Emitter
from tilemaker_ray.profiles.openmaptiles import (
    OpenMapTilesProfile, calc_rank, capital_level, openmaptiles_config)

from conftest import MONACO


def _emit(profile=None, cfg=None):
    cfg = cfg or openmaptiles_config()
    return Emitter({l.name for l in cfg.layers})


def _attrs(f):
    return {k: v for k, (v, kind, mz) in f.attrs.items()}


class TestPlaceRank:
    def test_capital_level(self):
        assert capital_level("yes") == 2
        assert capital_level("4") == 4
        assert capital_level("") is None
        assert capital_level("no") is None

    def test_calc_rank_city_population(self):
        assert calc_rank("city", 4e6, None) == 1
        assert calc_rank("city", 600000, None) == 3
        assert calc_rank("town", 5000, None) == 10
        assert calc_rank("village", 100, None) is None

    def test_calc_rank_capital(self):
        # capital city of 2M: rank = 2 - 1 = 1
        assert calc_rank("city", 2e6, 2) == 1
        # capital=yes on a village is demoted (+3 non-city, +2 non-town);
        # the population bump is +2 — the reference checks <100000
        # BEFORE <50000, so the +3 branch is dead code there (r5 parity)
        assert calc_rank("village", 1000, 2) == 2 + 2 + 3 + 2
        # Monaco itself: capital=yes city under 100k → 2 + 2 = 4
        assert calc_rank("city", 38400, 2) == 4


class TestWayClassification:
    def _run(self, tags, closed=False, pts=None, relations=None):
        prof = OpenMapTilesProfile()
        emit = _emit()
        if pts is None:
            pts = np.array([[7.42, 43.5], [7.43, 43.51], [7.44, 43.52]])
            if closed:
                pts = np.vstack([pts, [[7.42, 43.5]]])
        prof.way_function(1, pts, closed, tags, emit, relations=relations)
        return emit.features

    def test_motorway(self):
        feats = self._run({"highway": "motorway", "name": "A8", "ref": "A8",
                           "oneway": "yes", "surface": "asphalt"})
        by_layer = {f.layer: f for f in feats}
        tr = by_layer["transportation"]
        assert _attrs(tr)["class"] == "motorway"
        assert tr.min_zoom == 4
        assert _attrs(tr)["oneway"] == 1
        assert _attrs(tr)["surface"] == "paved"
        assert tr.attrs["surface"][2] == 12  # per-attribute minzoom
        nm = by_layer["transportation_name"]
        assert nm.min_zoom == 7
        assert _attrs(nm)["ref"] == "A8"
        assert _attrs(nm)["ref_length"] == 2

    def test_link_becomes_ramp(self):
        feats = self._run({"highway": "motorway_link"})
        tr = feats[0]
        assert _attrs(tr)["class"] == "motorway"
        assert _attrs(tr)["ramp"] == 1
        assert tr.min_zoom == 9

    def test_residential_minor(self):
        feats = self._run({"highway": "residential"})
        assert _attrs(feats[0])["class"] == "minor"
        assert _attrs(feats[0])["subclass"] == "residential"
        assert feats[0].min_zoom == 12

    def test_path_subclass(self):
        feats = self._run({"highway": "steps"})
        assert _attrs(feats[0])["class"] == "path"
        assert _attrs(feats[0])["subclass"] == "steps"
        assert feats[0].min_zoom == 14

    def test_construction(self):
        feats = self._run({"highway": "construction",
                           "construction": "primary"})
        assert _attrs(feats[0])["class"] == "primary_construction"
        assert feats[0].min_zoom == 4

    def test_proposed_dropped(self):
        assert self._run({"highway": "proposed"}) == []

    def test_highway_area_dropped_except_path(self):
        assert self._run({"highway": "service", "area": "yes"},
                         closed=True) == []
        feats = self._run({"highway": "pedestrian", "area": "yes"},
                          closed=True)
        assert feats and feats[0].layer == "transportation"
        from tilemaker_ray.geom import core as gc
        assert feats[0].geom_type == gc.POLYGON_

    def test_railway_emits_reference_double_feature(self):
        feats = self._run({"railway": "rail", "usage": "main"})
        trs = [f for f in feats if f.layer == "transportation"]
        # lua :557 bare Layer() + write_to_transportation_layer → 2
        assert len(trs) == 2
        assert _attrs(trs[0]) == {}
        assert _attrs(trs[1])["class"] == "rail"
        assert trs[1].min_zoom == 8

    def test_boundary_from_relation_context(self):
        rels = [(9, "outer", {"type": "boundary",
                              "boundary": "administrative",
                              "admin_level": "2"})]
        feats = self._run({}, relations=rels)
        b = feats[0]
        assert b.layer == "boundary"
        assert _attrs(b)["admin_level"] == 2
        assert b.min_zoom == 0
        assert _attrs(b)["disputed"] == 0

    def test_boundary_maritime_dropped(self):
        feats = self._run({"boundary": "administrative", "admin_level": "4",
                           "maritime": "yes"})
        assert [f for f in feats if f.layer == "boundary"] == []

    def test_water_covered_dropped(self):
        assert self._run({"natural": "water", "covered": "yes"},
                         closed=True) == []

    def test_lake_with_name_gets_water_name(self):
        feats = self._run({"natural": "water", "name": "Lac"}, closed=True)
        layers = [f.layer for f in feats]
        assert "water" in layers and "water_name_detail" in layers
        w = next(f for f in feats if f.layer == "water")
        assert _attrs(w)["class"] == "lake"

    def test_river_waterway_vs_detail(self):
        feats = self._run({"waterway": "river", "name": "Var"})
        assert {f.layer for f in feats} == {"waterway", "water_name"}
        feats = self._run({"waterway": "stream"})
        assert {f.layer for f in feats} == {"waterway_detail",
                                            "water_name_detail"}

    def test_building_heights_integer_only_parse(self):
        feats = self._run({"building": "yes", "height": "22"}, closed=True)
        b = next(f for f in feats if f.layer == "building")
        assert _attrs(b)["render_height"] == 22
        # the Lua tonumber(x, 10) quirk: decimal heights parse to nil
        feats = self._run({"building": "yes", "height": "22.5",
                           "building:levels": "3"}, closed=True)
        b = next(f for f in feats if f.layer == "building")
        assert _attrs(b)["render_height"] == pytest.approx(3 * 3.66)

    def test_landcover_vs_landuse(self):
        feats = self._run({"landuse": "forest"}, closed=True)
        assert feats[0].layer == "landcover"
        assert _attrs(feats[0])["class"] == "wood"
        assert _attrs(feats[0])["subclass"] == "forest"
        feats = self._run({"landuse": "residential"}, closed=True)
        assert feats[0].layer == "landuse"
        assert feats[0].min_zoom == 8  # small area → 8

    def test_landuse_field_remap(self):
        feats = self._run({"landuse": "field"}, closed=True)
        assert _attrs(feats[0])["class"] == "farmland"

    def test_poi_rank_and_detail_split(self):
        prof = OpenMapTilesProfile()
        rank, cls, sub = prof.get_poi_rank({"amenity": "hospital"})
        assert (rank, cls, sub) == (1, "hospital", "hospital")
        rank, cls, sub = prof.get_poi_rank({"shop": "locksmith"})
        assert (rank, cls, sub) == (18, "shop", "locksmith")
        rank, cls, sub = prof.get_poi_rank(
            {"amenity": "place_of_worship", "religion": "christian"})
        assert (rank, cls, sub) == (25, "place_of_worship", "christian")
        assert prof.get_poi_rank({"highway": "residential"}) == (None,) * 3

    def test_catch_all_poi_detail(self):
        feats = self._run({"building": "yes", "name": "Villa"}, closed=True)
        pd_ = [f for f in feats if f.layer == "poi_detail"]
        assert len(pd_) == 1
        assert _attrs(pd_[0])["rank"] == 25

    def test_zorder_imposm(self):
        prof = OpenMapTilesProfile()
        emit = _emit()
        emit.Layer("transportation",
                   np.array([[7.42, 43.5], [7.43, 43.51]]))
        prof.set_z_order({"highway": "motorway", "bridge": "yes",
                          "layer": "2"}, emit)
        # 10 (bridge) + 20 (layer) + 9 (motorway) = 39, zorder-encoded
        from tilemaker_ray import tilemath as tm
        assert emit.features[0].z_order == tm.zorder_encode(39)


class TestNodeFunction:
    def _run(self, tags, relations=None):
        prof = OpenMapTilesProfile()
        emit = _emit()
        prof.node_function(1, 7.42, 43.5, tags, emit, relations=relations)
        return emit.features

    def test_place_country_iso_from_label_relation(self):
        rels = [(5, "label", {"ISO3166-1:alpha2": "MC"})]
        feats = self._run({"place": "country", "name": "Monaco",
                           "population": "38000"}, relations=rels)
        f = feats[0]
        assert f.layer == "place"
        assert _attrs(f)["iso_a2"] == "MC"
        assert _attrs(f)["class"] == "country"
        assert f.min_zoom == 3 and _attrs(f)["rank"] == 3

    def test_place_town_minzoom(self):
        f = self._run({"place": "town", "population": "20000"})[0]
        assert f.min_zoom == 7
        f = self._run({"place": "town", "population": "100"})[0]
        assert f.min_zoom == 8

    def test_peak(self):
        f = self._run({"natural": "peak", "ele": "162", "name": "Tête"})[0]
        assert f.layer == "mountain_peak"
        assert _attrs(f)["ele"] == 162
        assert _attrs(f)["ele_ft"] == 531

    def test_housenumber_and_poi_same_node(self):
        feats = self._run({"addr:housenumber": "12", "amenity": "cafe"})
        assert {f.layer for f in feats} == {"housenumber", "poi_detail"}


@pytest.mark.skipif(not os.path.exists(MONACO), reason=f"needs {MONACO}")
@pytest.mark.usefixtures("ray_session")
class TestMonacoE2E:
    """Frozen Monaco per-layer counts through the FULL OpenMapTiles
    profile + engine (extraction → geom → pk shuffle → MVT)."""

    def test_feature_layer_counts(self):
        from tilemaker_ray.pipelines.osm import osm_feature_dataset
        feats = osm_feature_dataset(MONACO, openmaptiles_config(),
                                    profile=OpenMapTilesProfile())
        counts = feats.to_pandas().groupby("layer").size().to_dict()
        assert counts == {
            "transportation": 2944, "poi_detail": 1722, "building": 1285,
            "transportation_name": 798, "housenumber": 340,
            "landcover": 151, "poi": 140, "water": 63, "boundary": 53,
            "landuse": 46, "aeroway": 14, "place": 11,
            "water_name_detail": 5, "waterway_detail": 3, "water_name": 1,
        }

    def test_tiles_render_all_layers(self):
        from tilemaker_ray.mvt import decode_tile
        from tilemaker_ray.pipelines.osm import osm_tile_dataset
        tiles = osm_tile_dataset(MONACO, openmaptiles_config(),
                                 profile=OpenMapTilesProfile()).to_pandas()
        assert len(tiles) == 22
        assert tiles.duplicated(subset=["zoom", "tile_x", "tile_y"]).sum() == 0
        busiest = tiles.loc[tiles.n_features.idxmax()]
        assert busiest.zoom == 14
        dec = decode_tile(gzip.decompress(busiest.mvt))
        got = {k: len(v["features"]) for k, v in dec.items()}
        # write_to chains land in the physical layer (poi_detail→poi,
        # water_name_detail→water_name, waterway_detail→waterway)
        assert got == {
            "place": 7, "boundary": 32, "poi": 1170, "housenumber": 228,
            "transportation": 1994, "transportation_name": 573,
            "building": 838, "water": 29, "water_name": 2, "aeroway": 13,
            "landuse": 36, "landcover": 83,
        }


@pytest.mark.usefixtures("ray_session")
class TestExternalOceanLayer:
    """LayerDef.source path: a synthesized Natural-Earth-style ocean
    shapefile renders through the OMT profile's attribute_function into
    the water layer (reference --input *.shp, shp_mem_tiles.cpp)."""

    def _write_ocean_shp(self, tmp_path):
        import sys, os
        sys.path.insert(0, os.path.dirname(__file__))
        from test_shapefile import poly_payload, write_dbf, write_shp
        ring = [(7.40, 43.71), (7.46, 43.71), (7.46, 43.76),
                (7.40, 43.76), (7.40, 43.71)]
        stype, pay = poly_payload([ring])
        shp = str(tmp_path / "ocean.shp")
        write_shp(shp, [(stype, pay)])
        write_dbf(str(tmp_path / "ocean.dbf"),
                  [("featurecla", "C", 20, 0)], [{"featurecla": "Ocean"}])
        return shp

    def test_external_table_and_e2e(self, osm_inputs, tmp_path):
        from tilemaker_ray.pipelines.osm import (external_features_table,
                                                 osm_tile_dataset)
        from tilemaker_ray.mvt import decode_tile
        from tilemaker_ray.geom import core as gc
        shp = self._write_ocean_shp(tmp_path)
        cfg = openmaptiles_config()
        for ld in cfg.layers:
            if ld.name == "ocean":
                ld.source = shp
        prof = OpenMapTilesProfile()
        ext = external_features_table(cfg, prof.attribute_function)
        assert ext.num_rows == 1
        assert ext.column("layer")[0].as_py() == "ocean"
        assert ext.column("geom_type")[0].as_py() == gc.POLYGON_
        assert '"class"' in ext.column("attrs")[0].as_py()

        for src in osm_inputs:
            df = osm_tile_dataset(src, cfg, profile=prof).to_pandas()
            # ocean write_to=water: some tile's water layer must now carry
            # a class=ocean polygon
            found = False
            for _, row in df[df.zoom == 14].iterrows():
                dec = decode_tile(gzip.decompress(row.mvt))
                for f in dec.get("water", {}).get("features", []):
                    if f["tags"].get("class") == "ocean":
                        found = True
                        break
                if found:
                    break
            assert found
