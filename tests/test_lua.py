"""Lua profile surface (tilemaker_ray/lua.py + profiles/lua_profile.py)
— the reference's `process.lua` extension point runs unmodified:
interpreter semantics, API-binding behavior, a feature-for-feature twin
parity against a hand-written Python profile, and the gold gate: the
reference's SHIPPED process-openmaptiles.lua reproduces the hand-port's
frozen Monaco per-layer counts through the full engine."""

import os

import numpy as np
import pytest

from tilemaker_ray.lua import (LuaError, LuaInterpreter, LuaTable,
                               lua_pattern_to_re, lua_tonumber,
                               lua_tostring)

from conftest import MONACO, REFERENCE, ROOT

EXAMPLE_LUA = os.path.join(ROOT, "tilemaker_ray", "profiles",
                           "process-example.lua")
REFERENCE_EXAMPLE_LUA = os.path.join(REFERENCE, "resources",
                                     "process-example.lua")
OMT_LUA = os.path.join(REFERENCE, "resources", "process-openmaptiles.lua")
COASTLINE_LUA = os.path.join(REFERENCE, "resources", "process-coastline.lua")
DEBUG_LUA = os.path.join(REFERENCE, "resources", "process-debug.lua")
DEBUG_CONFIG = os.path.join(REFERENCE, "resources", "config-debug.json")


def needs(*paths):
    """Skip unless every one of `paths` exists."""
    missing = [p for p in paths if not os.path.exists(p)]
    return pytest.mark.skipif(bool(missing), reason=f"needs {missing}")


def run(src: str) -> dict:
    L = LuaInterpreter()
    L.run(src)
    return L.globals


class TestInterpreter:
    def test_scoping_and_closures(self):
        g = run("""
            local x = 1
            function mk()
              local c = 0
              return function() c = c + 1 return c end
            end
            f = mk()
            a = f(); b = f()
            g2 = mk()
            c2 = g2()
        """)
        assert (g["a"], g["b"], g["c2"]) == (1.0, 2.0, 1.0)

    def test_multiple_assignment_and_returns(self):
        g = run("""
            function two() return 7, 8 end
            a, b, c = two()
            d = (two())            -- parens truncate to one value
            local t = {two()}      -- expands at tail
            n = #t
            x, y = 1, 2
            x, y = y, x
        """)
        assert (g["a"], g["b"], g["c"]) == (7.0, 8.0, None)
        assert g["d"] == 7.0 and g["n"] == 2.0
        assert (g["x"], g["y"]) == (2.0, 1.0)

    def test_truthiness_and_logic_ops(self):
        g = run("""
            a = nil or "dflt"
            b = false or 0          -- 0 is truthy in Lua
            c = 0 and "yes"
            d = "" and "empty-is-true"
            e = not nil
        """)
        assert g["a"] == "dflt" and g["b"] == 0.0
        assert g["c"] == "yes" and g["d"] == "empty-is-true"
        assert g["e"] is True

    def test_numeric_semantics(self):
        g = run("""
            a = 7 % 3
            b = -7 % 3              -- Lua: floored modulo -> 2
            c = 2^10
            d = -2^2                -- unary binds looser than ^
            e = 10 / 4
            s = tostring(3)         -- integer-valued floats print bare
            f = tonumber("0x1F")
            bad = tonumber("12abc")
        """)
        assert g["a"] == 1.0 and g["b"] == 2.0
        assert g["c"] == 1024.0 and g["d"] == -4.0 and g["e"] == 2.5
        assert g["s"] == "3" and g["f"] == 31.0 and g["bad"] is None

    def test_string_concat_precedence(self):
        g = run('a = "n" .. 1 + 2')     # .. binds looser than +
        assert g["a"] == "n3"

    def test_tables_and_length(self):
        g = run("""
            t = { "a", "b", x = 1, ["k e y"] = 2, "c" }
            n = #t
            v = t["k e y"]
            t[#t + 1] = "d"
            last = t[4]
            u = {}
            u[1.0] = "one"          -- 1.0 and 1 are the same key
            one = u[1]
        """)
        assert g["n"] == 3.0 and g["v"] == 2.0
        assert g["last"] == "d" and g["one"] == "one"

    def test_pairs_ipairs_break(self):
        g = run("""
            t = {10, 20, 30}
            s = 0
            for i, v in ipairs(t) do
              if v == 30 then break end
              s = s + v
            end
            keys = 0
            for k, v in pairs({a=1, b=2}) do keys = keys + 1 end
        """)
        assert g["s"] == 30.0 and g["keys"] == 2.0

    def test_repeat_and_numeric_for_step(self):
        g = run("""
            s = 0
            for i = 10, 1, -3 do s = s + i end   -- 10+7+4+1
            r = 0
            repeat r = r + 1 until r >= 4
        """)
        assert g["s"] == 22.0 and g["r"] == 4.0

    def test_pcall_and_error(self):
        g = run("""
            ok, err = pcall(function() error("boom") end)
            ok2, val = pcall(function() return 5 end)
        """)
        assert g["ok"] is False and "boom" in g["err"]
        assert g["ok2"] is True and g["val"] == 5.0

    def test_string_library(self):
        g = run("""
            a = string.sub("hello", 2, 4)
            b = string.sub("hello", -3)
            c = string.upper("ab") .. string.lower("CD")
            d = string.format("%05.1f|%s|%d", 3.25, "x", 9)
            e = string.rep("ab", 2)
            f = ("x;y;z"):len()
            i1, i2 = string.find("abcdef", "cd")
            m = string.match("key=value", "(%w+)=(%w+)")
        """)
        assert g["a"] == "ell" and g["b"] == "llo"
        assert g["c"] == "ABcd" and g["d"] == "003.2|x|9"
        assert g["e"] == "abab" and g["f"] == 5.0
        assert (g["i1"], g["i2"]) == (3.0, 4.0)
        assert g["m"] == "key"      # first capture of multi-return

    def test_gmatch_split_idiom(self):
        """The split() helper every shipped profile defines."""
        g = run("""
            function split(inputstr, sep)
              local t = {}
              for str in string.gmatch(inputstr, "([^"..sep.."]+)") do
                table.insert(t, str)
              end
              return t
            end
            p = split("8;9;10", ";")
            n = #p
            a, b, c = p[1], p[2], p[3]
        """)
        assert g["n"] == 3.0
        assert (g["a"], g["b"], g["c"]) == ("8", "9", "10")

    def test_gsub_variants(self):
        g = run("""
            a = string.gsub("hello world", "o", "0")
            b = string.gsub("hello", "l+", "L")
            c = string.gsub("a1b2", "%d", function(d) return d .. d end)
        """)
        assert g["a"] == "hell0 w0rld"
        assert g["b"] == "heLo"
        assert g["c"] == "a11b22"

    def test_lua_patterns(self):
        assert lua_pattern_to_re("%a+").fullmatch("Abc")
        assert lua_pattern_to_re("^ab-c$").fullmatch("ac")  # lazy -
        assert lua_pattern_to_re("[%d,]+").fullmatch("1,2")
        assert lua_pattern_to_re("%.").fullmatch(".")
        assert not lua_pattern_to_re("%.").fullmatch("x")
        with pytest.raises(LuaError):
            lua_pattern_to_re("%bxy")

    def test_tostring_tonumber(self):
        assert lua_tostring(3.0) == "3"
        assert lua_tostring(True) == "true"
        assert lua_tostring(None) == "nil"
        assert lua_tonumber(" 10 ") == 10.0
        assert lua_tonumber("ff", 16) == 255.0

    def test_shipped_profiles_all_load(self):
        """Every in-repo profile, and the reference's where it exists,
        runs top to bottom and defines way_function."""
        import glob

        from tilemaker_ray.lua import LuaFunction
        paths = sorted(
            glob.glob(os.path.join(os.path.dirname(EXAMPLE_LUA), "*.lua"))
            + glob.glob(os.path.join(REFERENCE, "resources", "*.lua")))
        assert paths
        for path in paths:
            L = LuaInterpreter()
            L.run(open(path).read())
            assert isinstance(L.globals.get("way_function"),
                              LuaFunction), path


class TestLuaProfileTwinParity:
    """process-example.lua (profiles/process-example.lua, and the
    reference's where it exists) through LuaProfile == a hand-written
    Python twin of the same logic, feature-for-feature (layer, geom
    type, minzoom, attrs incl. kinds/minzooms)."""

    class PyExampleTwin:
        """Manual port of process-example.lua (node+way hooks)."""

        def __init__(self):
            from tilemaker_ray.pipelines.osm import SignificantTags
            self.node_filter = SignificantTags(
                ["amenity", "historic", "leisure", "place", "shop",
                 "tourism"])
            self.way_filter = SignificantTags(None)

        @staticmethod
        def relation_scan(tags):
            return False

        relation_postscan = None

        @staticmethod
        def attribute_function(attr, layer):
            return attr

        def node_function(self, node_id, lon, latp, tags, emit,
                          relations=None):
            amenity = tags.get("amenity", "")
            shop = tags.get("shop", "")
            if amenity != "" or shop != "":
                emit.Layer("poi", (lon, latp))
                emit.Attribute("class", amenity if amenity != "" else shop)
                emit.Attribute("name:latin", tags.get("name", ""))
                emit.AttributeNumeric("rank", 3)
            place = tags.get("place", "")
            if place != "":
                emit.Layer("place", (lon, latp))
                emit.Attribute("class", place)
                emit.Attribute("name:latin", tags.get("name", ""))
                if place == "city":
                    emit.AttributeNumeric("rank", 4)
                    emit.MinZoom(3)
                elif place == "town":
                    emit.AttributeNumeric("rank", 6)
                    emit.MinZoom(6)
                else:
                    emit.AttributeNumeric("rank", 9)
                    emit.MinZoom(10)

        def way_function(self, way_id, pts, closed, tags, emit,
                         relations=None):
            from tilemaker_ray.geom import core as gc
            highway = tags.get("highway", "")
            waterway = tags.get("waterway", "")
            building = tags.get("building", "")
            if highway != "":
                emit.Layer("transportation", pts)
                if highway in ("unclassified", "residential"):
                    highway = "minor"
                emit.Attribute("class", highway)
                name = tags.get("name", "")
                if name != "":
                    emit.Layer("transportation_name", pts)
                    emit.Attribute("class", highway)
                    emit.Attribute("name:latin", name)
            if waterway in ("stream", "river", "canal"):
                emit.Layer("waterway", pts)
                emit.Attribute("class", waterway)
                emit.AttributeNumeric("intermittent", 0)
            if tags.get("natural") == "water":
                emit.Layer("water", [[gc.close_ring(pts)]])
                if tags.get("water") == "river":
                    emit.Attribute("class", "river")
                else:
                    emit.Attribute("class", "lake")
            if building != "":
                emit.Layer("building", [[gc.close_ring(pts)]])

        def relation_function(self, rel_id, polys, tags, emit):
            pass

    LAYERS = {"poi", "place", "transportation", "transportation_name",
              "waterway", "water", "building"}

    def _feats(self, profile, entities):
        from tilemaker_ray.profile import Emitter
        out = []
        for kind, eid, geom, tags in entities:
            emit = Emitter(set(self.LAYERS))
            if kind == "node":
                lon, latp = geom
                profile.node_function(eid, lon, latp, tags, emit)
            else:
                pts, closed = geom
                profile.way_function(eid, pts, closed, tags, emit)
            for f in emit.features:
                lon = None if np.isnan(f.lon) else f.lon
                latp = None if np.isnan(f.latp) else f.latp
                out.append((f.layer, f.geom_type, f.min_zoom, f.z_order,
                            lon, latp, f.canonical_attrs()))
        return out

    def test_example_profile_twin(self):
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        twin = self.PyExampleTwin()
        line = np.array([[7.42, 43.5], [7.43, 43.51], [7.44, 43.52]])
        ring = np.array([[7.4, 43.5], [7.41, 43.5], [7.41, 43.51],
                         [7.4, 43.5]])
        entities = [
            ("node", 1, (7.42, 43.9), {"amenity": "cafe", "name": "K"}),
            ("node", 2, (7.43, 43.9), {"shop": "bakery"}),
            ("node", 3, (7.44, 43.9), {"place": "city", "name": "M"}),
            ("node", 4, (7.45, 43.9), {"place": "town", "name": "T"}),
            ("node", 5, (7.46, 43.9), {"place": "village", "name": "V"}),
            ("node", 6, (7.47, 43.9), {"tourism": "hotel"}),
            ("way", 10, (line, False), {"highway": "residential",
                                        "name": "Rue"}),
            ("way", 11, (line, False), {"highway": "motorway"}),
            ("way", 12, (line, False), {"waterway": "river"}),
            ("way", 13, (ring, True), {"natural": "water",
                                       "water": "river"}),
            ("way", 14, (ring, True), {"natural": "water"}),
            ("way", 15, (ring, True), {"building": "yes"}),
            ("way", 16, (line, False), {"barrier": "fence"}),
        ]
        want = self._feats(twin, entities)
        assert len(want) == 12   # the fixture exercises every branch
        assert twin.node_filter.accept({"amenity": "cafe"}) and \
            not twin.node_filter.accept({"name": "x"})
        scripts = [EXAMPLE_LUA] + ([REFERENCE_EXAMPLE_LUA] if os.path.exists(
            REFERENCE_EXAMPLE_LUA) else [])
        for script in scripts:
            lua = LuaProfile(script)
            assert self._feats(lua, entities) == want, script
            # node_keys parsed from the script drive the same prefilter
            assert lua.node_filter.accept({"amenity": "cafe"})
            assert not lua.node_filter.accept({"name": "x"})


@needs(OMT_LUA, MONACO)
@pytest.mark.usefixtures("ray_session")
class TestLuaMonacoGold:
    """The reference's SHIPPED process-openmaptiles.lua, interpreted,
    must reproduce the hand-port's frozen Monaco per-layer counts
    through the full engine (the VERDICT r4 #6 'done' bar)."""

    def test_monaco_feature_counts_via_lua(self):
        from tilemaker_ray.pipelines.osm import osm_feature_dataset
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        from tilemaker_ray.profiles.openmaptiles import openmaptiles_config
        prof = LuaProfile(OMT_LUA)
        feats = osm_feature_dataset(MONACO, openmaptiles_config(),
                                    profile=prof)
        counts = feats.to_pandas().groupby("layer").size().to_dict()
        assert counts == {
            "transportation": 2944, "poi_detail": 1722, "building": 1285,
            "transportation_name": 798, "housenumber": 340,
            "landcover": 151, "poi": 140, "water": 63, "boundary": 53,
            "landuse": 46, "aeroway": 14, "place": 11,
            "water_name_detail": 5, "waterway_detail": 3, "water_name": 1,
        }


class TestInterpreterEdges:
    def test_numeric_string_coercion_in_arith(self):
        g = run('a = "10" + 5  b = "0x10" + 0')
        assert g["a"] == 15.0 and g["b"] == 16.0

    def test_table_method_definition_and_colon_call(self):
        g = run("""
            obj = { n = 2 }
            function obj.get(o) return o.n end
            function obj:bump() self.n = self.n + 1 end
            obj:bump()
            v = obj.get(obj)
        """)
        assert g["v"] == 3.0

    def test_nested_table_constructors(self):
        g = run("""
            poi = { amenity = { "bar", "cafe" }, shop = { "bakery" } }
            a = poi.amenity[2]
            n = 0
            for k, list in pairs(poi) do n = n + #list end
        """)
        assert g["a"] == "cafe" and g["n"] == 3.0

    def test_while_with_nested_break_only_exits_inner(self):
        g = run("""
            total = 0
            i = 0
            while i < 3 do
              i = i + 1
              local j = 0
              while true do
                j = j + 1
                if j >= 2 then break end
              end
              total = total + j
            end
        """)
        assert g["total"] == 6.0 and g["i"] == 3.0

    def test_scoped_local_shadowing(self):
        g = run("""
            x = "global"
            do
              local x = "inner"
              y = x
            end
            z = x
        """)
        assert g["y"] == "inner" and g["z"] == "global"

    def test_long_strings_and_comments(self):
        g = run("""
            --[[ a long
                 comment ]]
            s = [[line1
line2]]
        """)
        assert g["s"] == "line1\nline2"

    def test_string_find_plain_and_anchored(self):
        g = run("""
            a = string.find("a.b", ".", 1, true)
            b = string.find("hello", "^h") and 1 or 0
            c = string.find("hello", "^e") and 1 or 0
        """)
        assert g["a"] == 2.0 and g["b"] == 1.0 and g["c"] == 0.0

    def test_gsub_with_table_replacement(self):
        g = run('r = string.gsub("ab", "%a", { a = "1" })')
        assert g["r"] == "1b"       # unmatched table key keeps original


class TestLuaProfileMore:
    @needs(OMT_LUA)
    def test_attribute_function_parity_with_handport(self):
        """The Lua OMT attribute_function (shapefile remap) equals the
        hand-port's on every branch."""
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        from tilemaker_ray.profiles.openmaptiles import OpenMapTilesProfile
        lua = LuaProfile(OMT_LUA)
        py = OpenMapTilesProfile()
        cases = [
            ({"featurecla": "Glaciated areas"}, "landcover"),
            ({"featurecla": "Antarctic Ice Shelf"}, "landcover"),
            ({"featurecla": "Urban area"}, "landuse"),
            ({"featurecla": "Ocean"}, "ocean"),
            ({"scalerank": 3, "featurecla": "Lake"}, "water"),
        ]
        for attr, layer in cases:
            assert lua.attribute_function(dict(attr), layer) == \
                py.attribute_function(dict(attr), layer), (attr, layer)

    def test_way_keys_filter(self, tmp_path):
        """way_keys (the reference's optional way prefilter) parsed
        from the script drives SignificantTags like node_keys."""
        p = tmp_path / "wk.lua"
        p.write_text("""
            node_keys = { "amenity" }
            way_keys = { "highway", "waterway=river" }
            function node_function() end
            function way_function() end
        """)
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        prof = LuaProfile(str(p))
        assert prof.way_filter.accept({"highway": "primary"})
        assert prof.way_filter.accept({"waterway": "river"})
        assert not prof.way_filter.accept({"waterway": "stream"})
        assert not prof.way_filter.accept({"building": "yes"})

    def test_init_function_receives_project_and_runs_once(self, tmp_path):
        p = tmp_path / "init.lua"
        p.write_text("""
            calls = 0
            function init_function(name)
              calls = calls + 1
              seen = name
            end
            node_keys = {}
            function node_function() end
            function way_function() end
        """)
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        prof = LuaProfile(str(p))
        assert prof.lua.globals["calls"] == 1.0
        assert isinstance(prof.lua.globals["seen"], str)


@needs(OMT_LUA, MONACO)
@pytest.mark.usefixtures("ray_session")
class TestLuaMonacoBytes:
    """BYTE parity: Monaco rendered through the interpreted shipped
    Lua equals the hand-port's gzipped MVT blobs tile-for-tile — the
    strongest possible Lua-vs-port gate (attr kinds, minzooms, zorder
    and geometry all participate in the bytes)."""

    def test_monaco_tiles_byte_identical_to_handport(self):
        import pandas as pd

        from tilemaker_ray.pipelines.osm import osm_tile_dataset
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        from tilemaker_ray.profiles.openmaptiles import (
            OpenMapTilesProfile, openmaptiles_config)

        def tiles(profile):
            df = osm_tile_dataset(MONACO, openmaptiles_config(),
                                  profile=profile).to_pandas()
            return (df.sort_values(["zoom", "tile_x", "tile_y"])
                      .reset_index(drop=True))

        a = tiles(LuaProfile(OMT_LUA))
        b = tiles(OpenMapTilesProfile())
        assert len(a) == len(b) == 22
        pd.testing.assert_frame_equal(
            a[["zoom", "tile_x", "tile_y", "n_features", "n_bytes"]],
            b[["zoom", "tile_x", "tile_y", "n_features", "n_bytes"]])
        assert all(bytes(x) == bytes(y) for x, y in zip(a["mvt"], b["mvt"]))


class TestInterpreterHardening:
    """Review r5 fixes: host exceptions are pcall-catchable LuaErrors,
    pairs tolerates clearing, stray break is a parse error, pattern
    edge cases fail loudly or translate correctly."""

    def test_pcall_catches_host_exceptions(self):
        g = run("""
            ok, err = pcall(function()
              return string.format("%d", "nope")
            end)
        """)
        assert g["ok"] is False and "ValueError" in g["err"]

    def test_clear_table_during_pairs(self):
        g = run("""
            t = {a=1, b=2, c=3}
            for k, v in pairs(t) do t[k] = nil end
            n = 0
            for k in pairs(t) do n = n + 1 end
        """)
        assert g["n"] == 0.0

    def test_break_outside_loop_is_parse_error(self):
        with pytest.raises(LuaError, match="break outside"):
            run("break")
        with pytest.raises(LuaError, match="break outside"):
            run("while true do local f = function() break end end")
        # loops inside functions inside loops stay fine
        run("while true do local f = function() "
            "for i=1,2 do break end end f() break end")

    def test_boolean_keys_distinct_from_numbers(self):
        g = run("""
            t = {}
            t[1] = "one"; t[true] = "yes"; t[0] = "zero"; t[false] = "no"
            a, b, c, d = t[1], t[true], t[0], t[false]
            n = #t
            bools = 0
            for k, v in pairs(t) do
              if type(k) == "boolean" then bools = bools + 1 end
            end
        """)
        assert (g["a"], g["b"], g["c"], g["d"]) == ("one", "yes", "zero", "no")
        assert g["n"] == 1.0 and g["bools"] == 2.0

    def test_compare_string_with_number_raises(self):
        with pytest.raises(LuaError, match="compare string with number"):
            run('x = "10" < 5')
        g = run("""
            ok = pcall(function() return 1 <= "2" end)
            s = "10" < "9"
            n = 10 < 9
        """)
        assert g["ok"] is False and g["s"] is True and g["n"] is False

    def test_gsub_bad_capture_index_is_lua_error(self):
        g = run("""
            ok, err = pcall(function()
              return string.gsub("ab", "(a)", "%2")
            end)
        """)
        assert g["ok"] is False and "capture index" in g["err"]

    def test_uppercase_complements_in_sets(self):
        assert lua_pattern_to_re("[%S]+").fullmatch("abc")
        assert not lua_pattern_to_re("[%S]").match(" ")
        assert lua_pattern_to_re("[%D,]+").fullmatch("a,b")
        with pytest.raises(LuaError):
            lua_pattern_to_re("[%A]")

    def test_attribute_numeric_strict(self):
        from tilemaker_ray.lua import LuaError as LE
        from tilemaker_ray.profile import Emitter
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        import numpy as np
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "p.lua")
            with open(p, "w") as f:
                f.write("""
                    node_keys = {}
                    function node_function()
                      AttributeNumeric("x", tonumber(Find("missing")))
                    end
                    function way_function() end
                """)
            prof = LuaProfile(p)
            emit = Emitter({"poi"})
            with pytest.raises(LE, match="number expected"):
                prof.node_function(1, 0.0, 0.0, {}, emit)


class TestLuaPostscanAndCentroid:
    def test_relation_postscan_reads_parents_and_sets_tags(self, tmp_path):
        """relation_postscan_function: NextRelation iterates PARENT
        relations, FindInRelation reads their tags, SetTag mutates the
        relation's own tags (the reference's post-scan bounce-down,
        osm_lua_processing.cpp:1005-1017).  Exercised directly through
        the adapter (found a (tags, role) tuple-order bug on first
        test, r5)."""
        p = tmp_path / "ps.lua"
        p.write_text("""
            node_keys = {}
            function node_function() end
            function way_function() end
            function relation_scan_function()
              if Find("type") == "route" or Find("type") == "network" then
                Accept()
              end
            end
            function relation_postscan_function()
              while true do
                local rel = NextRelation()
                if not rel then break end
                local net = FindInRelation("network")
                if net ~= "" then SetTag("network", net) end
              end
            end
        """)
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        prof = LuaProfile(str(p))
        assert prof.relation_scan({"type": "route"}) is True
        assert prof.relation_scan({"type": "boundary"}) is False
        got = prof.relation_postscan(
            7, {"type": "route", "ref": "A8"},
            [(12, {"type": "network", "network": "icn"}, "child")])
        assert got == {"type": "route", "ref": "A8", "network": "icn"}
        # no parents: tags unchanged
        got2 = prof.relation_postscan(8, {"type": "route"}, [])
        assert got2 == {"type": "route"}

    def test_centroid_binding(self, tmp_path):
        """Centroid() returns {lat, lon} (the reference's vector<double>
        order, osm_lua_processing.cpp:186/855)."""
        p = tmp_path / "c.lua"
        p.write_text("""
            node_keys = {}
            function node_function()
              local c = Centroid()
              got_lat, got_lon = c[1], c[2]
            end
            function way_function() end
        """)
        import numpy as np

        from tilemaker_ray import tilemath as tm
        from tilemaker_ray.profile import Emitter
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        prof = LuaProfile(str(p))
        latp = float(tm.lat2latp(43.5))
        prof.node_function(1, 7.42, latp, {}, Emitter({"poi"}))
        g = prof.lua.globals
        assert abs(g["got_lon"] - 7.42) < 1e-12
        assert abs(g["got_lat"] - 43.5) < 1e-9


class TestVarargs:
    """Varargs (`...`) + select() — closes the last documented
    interpreter gap that real-world process.lua helpers hit."""

    def test_varargs_collect_and_forward(self):
        g = run("""
            function sum(...)
              local t = {...}
              local s = 0
              for i, v in ipairs(t) do s = s + v end
              return s, select("#", ...)
            end
            a, n = sum(1, 2, 3, 4)
            function fwd(...) return sum(...) end
            f = fwd(5, 6)
            function mixed(first, ...)
              return first .. "-" .. select("#", ...)
            end
            m = mixed("x", 10, 20)
            function tail(...) return select(2, ...) end
            t1, t2 = tail("a", "b", "c")
        """)
        assert g["a"] == 10.0 and g["n"] == 4.0
        assert g["f"] == 11.0 and g["m"] == "x-2"
        assert (g["t1"], g["t2"]) == ("b", "c")

    def test_vararg_outside_function_is_error(self):
        with pytest.raises(LuaError, match="outside a vararg"):
            run("v = ...")
        with pytest.raises(LuaError, match="outside a vararg"):
            run("function f() return ... end f()")


@needs(MONACO, DEBUG_CONFIG, DEBUG_LUA)
@pytest.mark.usefixtures("ray_session")
class TestLuaDebugProfile:
    """The reference's 538-line process-debug.lua (the split-layer
    debug schema) runs e2e through the interpreter on Monaco; counts
    frozen (no hand-port exists — this gate pins the interpreter +
    adapter against regressions, complementing the OMT byte gate)."""

    def test_monaco_debug_profile_counts(self):
        from tilemaker_ray.config import Config
        from tilemaker_ray.pipelines.osm import osm_feature_dataset
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        feats = osm_feature_dataset(
            MONACO,
            Config.from_json(DEBUG_CONFIG),
            profile=LuaProfile(DEBUG_LUA))
        counts = feats.to_pandas().groupby("layer").size().to_dict()
        assert counts == {
            "aeroway": 14, "building": 1285, "housenumber": 340,
            "landcover": 145, "landuse": 46, "place": 11, "poi": 34,
            "poi_detail": 1538, "transportation": 157,
            "transportation_detail": 2140, "transportation_main": 192,
            "transportation_mid": 385, "transportation_name": 40,
            "transportation_name_detail": 2326,
            "transportation_name_mid": 508, "water": 63,
            "water_name": 1, "water_name_detail": 5,
            "waterway_detail": 3,
        }


@needs(COASTLINE_LUA, OMT_LUA, MONACO)
@pytest.mark.usefixtures("ray_session")
class TestLuaCoastlineExternal:
    """The shipped process-coastline.lua's attribute_function drives
    the external-shapefile path end-to-end (LayerDef.source + remap —
    the hand-port's ocean e2e, through the interpreted Lua)."""

    def test_ocean_shapefile_via_coastline_lua(self, tmp_path):
        import gzip
        import os
        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from test_shapefile import poly_payload, write_dbf, write_shp

        from tilemaker_ray.geom import core as gc
        from tilemaker_ray.mvt import decode_tile
        from tilemaker_ray.pipelines.osm import (external_features_table,
                                                 osm_tile_dataset)
        from tilemaker_ray.profiles.lua_profile import LuaProfile
        from tilemaker_ray.profiles.openmaptiles import openmaptiles_config

        ring = [(7.40, 43.71), (7.46, 43.71), (7.46, 43.76),
                (7.40, 43.76), (7.40, 43.71)]
        stype, pay = poly_payload([ring])
        shp = str(tmp_path / "ocean.shp")
        write_shp(shp, [(stype, pay)])
        write_dbf(str(tmp_path / "ocean.dbf"),
                  [("featurecla", "C", 20, 0)],
                  [{"featurecla": "Ocean"}])

        cfg = openmaptiles_config()
        for ld in cfg.layers:
            if ld.name == "ocean":
                ld.source = shp
        prof = LuaProfile(COASTLINE_LUA)
        ext = external_features_table(cfg, prof.attribute_function)
        assert ext.num_rows == 1
        assert ext.column("layer")[0].as_py() == "ocean"
        assert ext.column("geom_type")[0].as_py() == gc.POLYGON_
        assert '"class"' in ext.column("attrs")[0].as_py()

        # full engine pass with the OMT Lua (the coastline script has
        # empty node/way hooks) just for the external layer rendering
        omt = LuaProfile(OMT_LUA)
        df = osm_tile_dataset(MONACO, cfg, profile=omt).to_pandas()
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
