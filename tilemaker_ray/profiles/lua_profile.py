"""Run a user's `process.lua` unmodified on the OSM pipeline — the
reference engine's actual extension surface (osm_lua_processing.cpp:
230-286 registers the API into a Lua state; CONFIGURATION.md:119-188
documents the hooks).  `LuaProfile` loads the script with the
pure-Python interpreter in tilemaker_ray/lua.py, binds the tilemaker
call surface (Find/Holds/Layer/Attribute*/MinZoom/ZOrder/IsClosed/
Area/Length/LayerAsCentroid/Accept/NextRelation/RestartRelations/
FindInRelation/SetTag/Id) and exposes the SAME profile protocol the
hand-written Python profiles implement (node_filter/way_filter,
node_function/way_function/relation_function, relation_scan,
attribute_function) — so `pipelines/osm.py` renders through it with
zero special-casing, and the geometry conventions are shared with the
hand-port via profiles/openmaptiles._NodeGeom/_WayGeom/_RelGeom.

Conformance gates (tests/test_lua.py): the shipped
process-example.lua matches a hand-written Python twin feature-for-
feature, and the shipped process-openmaptiles.lua reproduces the
hand-port's frozen Monaco per-layer counts through the full engine.
"""

from __future__ import annotations

import numpy as np

from ..lua import LuaError, LuaInterpreter, LuaTable, lua_tostring
from ..pipelines.osm import SignificantTags
from ..profile import Emitter
from .openmaptiles import _NodeGeom, _RelGeom, _WayGeom


def _table_to_list(t) -> list:
    if t is None:
        return []
    return [t.get(i) for i in range(1, t.length() + 1)]


def _table_to_dict(t) -> dict:
    return {} if t is None else dict(t.items())


def _dict_to_table(d: dict) -> LuaTable:
    return LuaTable(dict(d))


class _Ctx:
    """Per-entity call context the API closures read."""
    __slots__ = ("tags", "geom", "emit", "relations", "rel_i",
                 "accepted", "cur_rel_tags")

    def __init__(self, tags, geom, emit, relations):
        self.tags = tags
        self.geom = geom
        self.emit = emit
        self.relations = relations or []
        self.rel_i = 0
        self.accepted = False
        self.cur_rel_tags = None


class LuaProfile:
    """Profile-protocol adapter over a Lua script (same interface as
    profiles.openmaptiles.OpenMapTilesProfile)."""

    def __init__(self, lua_path: str):
        self.lua = LuaInterpreter()
        self._ctx: _Ctx | None = None
        self._install_api()
        with open(lua_path) as f:
            self.lua.run(f.read())
        g = self.lua.globals
        node_keys = g.get("node_keys")
        way_keys = g.get("way_keys")
        self.node_filter = SignificantTags(
            [str(x) for x in _table_to_list(node_keys)]
            if node_keys is not None else None)
        self.way_filter = SignificantTags(
            [str(x) for x in _table_to_list(way_keys)]
            if way_keys is not None else None)
        self._node_fn = g.get("node_function")
        self._way_fn = g.get("way_function")
        self._scan_fn = g.get("relation_scan_function")
        self._postscan_fn = g.get("relation_postscan_function")
        self._attr_fn = g.get("attribute_function")
        init = g.get("init_function")
        if init is not None:
            self.lua.call(init, "tilemaker_ray")

    # ---- API bindings (osm_lua_processing.cpp:237-273) -------------------

    def _install_api(self):
        g = self.lua.globals

        def ctx() -> _Ctx:
            c = self._ctx
            if c is None:
                raise LuaError("tilemaker API called outside a hook")
            return c

        def Find(key):
            return str(ctx().tags.get(str(key), ""))

        def Holds(key):
            return str(key) in ctx().tags

        def Id():
            return str(ctx().geom.osm_id)

        def HasTags():
            return bool(ctx().tags)

        def AllKeys():
            t = LuaTable()
            for i, k in enumerate(ctx().tags, 1):
                t.set(i, k)
            return t

        def AllTags():
            return _dict_to_table({k: str(v)
                                   for k, v in ctx().tags.items()})

        def SetTag(key, value):
            ctx().tags[str(key)] = str(value)

        def Layer(name, is_area=None):
            c = ctx()
            c.emit.Layer(str(name), c.geom.layer_geom(bool(is_area)))

        def LayerAsCentroid(name, *algo):
            c = ctx()
            alg = str(algo[0]) if algo else "polylabel"
            c.emit.LayerAsCentroid(str(name), c.geom.centroid_geom(),
                                   algo=alg)

        def Attribute(key, value, minzoom=0.0):
            ctx().emit.Attribute(str(key), lua_tostring(value),
                                 int(minzoom or 0))

        def AttributeNumeric(key, value, minzoom=0.0):
            # strict like the reference's kaguya float binding: nil or
            # a non-numeric string is a Lua type error, not a silent 0
            # (review r5) — scripts guard with `tonumber(x) or 0`
            from ..lua import lua_tonumber
            v = lua_tonumber(value)
            if v is None:
                raise LuaError(
                    f"AttributeNumeric({key!r}): number expected, got "
                    f"{lua_tostring(value)!r}")
            ctx().emit.AttributeNumeric(str(key), v, int(minzoom or 0))

        def AttributeBoolean(key, value, minzoom=0.0):
            ctx().emit.AttributeBoolean(str(key), bool(value),
                                        int(minzoom or 0))

        def MinZoom(z):
            ctx().emit.MinZoom(float(z))

        def ZOrder(z):
            ctx().emit.ZOrder(float(z))

        def IsClosed():
            return bool(ctx().geom.closed)

        def Area():
            return float(ctx().geom.area())

        def Length():
            from ..geom import core as gc
            geom = ctx().geom
            if isinstance(geom, _WayGeom):
                return float(gc.haversine_length(geom.pts))
            if isinstance(geom, _RelGeom):
                return float(sum(gc.haversine_length(r)
                                 for r in geom.as_line()))
            return 0.0

        def Centroid(*algo):
            c = ctx().emit  # noqa: F841 — parity of signature only
            geom = ctx().geom.centroid_geom()
            from ..geom import core as gc
            if isinstance(geom, tuple):
                lon, latp = geom
            else:
                alg = str(algo[0]) if algo else "polylabel"
                if alg == "polylabel":
                    from ..geom.polylabel import polylabel
                    lon, latp = polylabel(geom)
                else:
                    lon, latp = gc.centroid(geom[0])
            from .. import tilemath as tm
            t = LuaTable()
            t.set(1, float(tm.latp2lat(latp)))
            t.set(2, float(lon))
            return t

        def Accept():
            ctx().accepted = True

        def NextRelation():
            c = ctx()
            if c.rel_i >= len(c.relations):
                c.cur_rel_tags = None
                return None
            rid, role, rtags = c.relations[c.rel_i]
            c.rel_i += 1
            c.cur_rel_tags = rtags
            return (str(rid), str(role or ""))

        def RestartRelations():
            c = ctx()
            c.rel_i = 0
            c.cur_rel_tags = None

        def FindInRelation(key):
            c = ctx()
            if c.cur_rel_tags is None:
                return ""
            return str(c.cur_rel_tags.get(str(key), ""))

        def _join(verb):
            def f(layer, *args):
                j = ctx().emit.joins
                if j is None:
                    raise LuaError(f"{verb}: no external layer index")
                return getattr(j, verb)(str(layer), *args)
            return f

        g.update({
            "Find": Find, "Holds": Holds, "Id": Id, "HasTags": HasTags,
            "AllKeys": AllKeys, "AllTags": AllTags, "SetTag": SetTag,
            "Layer": Layer, "LayerAsCentroid": LayerAsCentroid,
            "Attribute": Attribute, "AttributeNumeric": AttributeNumeric,
            "AttributeBoolean": AttributeBoolean, "MinZoom": MinZoom,
            "ZOrder": ZOrder, "IsClosed": IsClosed, "Area": Area,
            "Length": Length, "Centroid": Centroid, "Accept": Accept,
            "NextRelation": NextRelation,
            "RestartRelations": RestartRelations,
            "FindInRelation": FindInRelation,
            "Intersects": _join("Intersects"),
            "FindIntersecting": _join("FindIntersecting"),
            "CoveredBy": _join("CoveredBy"),
            "FindCovering": _join("FindCovering"),
            "AreaIntersecting": _join("AreaIntersecting"),
        })

    # ---- profile protocol -------------------------------------------------

    def node_function(self, node_id: int, lon: float, latp: float,
                      tags: dict, emit: Emitter,
                      relations: list | None = None) -> None:
        if self._node_fn is None:
            return
        geom = _LuaNodeGeom(node_id, lon, latp)
        self._ctx = _Ctx(dict(tags), geom, emit, relations)
        try:
            self.lua.call(self._node_fn)
        finally:
            self._ctx = None

    def way_function(self, way_id: int, pts: np.ndarray, closed: bool,
                     tags: dict, emit: Emitter,
                     relations: list | None = None) -> None:
        if self._way_fn is None:
            return
        geom = _LuaWayGeom(way_id, pts, closed)
        self._ctx = _Ctx(dict(tags), geom, emit, relations)
        try:
            self.lua.call(self._way_fn)
        finally:
            self._ctx = None

    def relation_function(self, rel_id: int, polys, tags: dict,
                          emit: Emitter) -> None:
        """Multipolygon relations route through way_function with
        IsClosed()=true (the reference's way-on-relation path)."""
        if self._way_fn is None or not polys:
            return
        geom = _LuaRelGeom(rel_id, polys)
        self._ctx = _Ctx(dict(tags), geom, emit, [])
        try:
            self.lua.call(self._way_fn)
        finally:
            self._ctx = None

    def relation_scan(self, tags: dict) -> bool:
        if self._scan_fn is None:
            return False
        self._ctx = _Ctx(dict(tags), _LuaScanGeom(), None, [])
        try:
            self.lua.call(self._scan_fn)
            return self._ctx.accepted
        finally:
            self._ctx = None

    @property
    def relation_postscan(self):
        return None if self._postscan_fn is None else self._postscan

    def _postscan(self, rel_id: int, tags: dict, parents: list) -> dict:
        # relation_scan_tables hands parents as (pid, tags, role);
        # NextRelation/FindInRelation consume (rid, role, tags)
        rels = [(pid, role, ptags) for pid, ptags, role in parents]
        self._ctx = _Ctx(dict(tags), _LuaScanGeom(), None, rels)
        try:
            self.lua.call(self._postscan_fn)
            return self._ctx.tags
        finally:
            self._ctx = None

    def attribute_function(self, attr: dict, layer: str) -> dict:
        if self._attr_fn is None:
            return attr
        out = self.lua.call(self._attr_fn, _dict_to_table(attr),
                            str(layer))
        if isinstance(out, tuple):
            out = out[0] if out else None
        if not isinstance(out, LuaTable):
            return {}
        return _table_to_dict(out)


# ---- geometry adapters (conventions shared with the hand-port) ------------

class _LuaNodeGeom(_NodeGeom):
    def __init__(self, osm_id, lon, latp):
        super().__init__(lon, latp)
        self.osm_id = osm_id

    def layer_geom(self, is_area: bool):
        return self.pt


class _LuaWayGeom(_WayGeom):
    def __init__(self, osm_id, pts, closed):
        super().__init__(pts, closed)
        self.osm_id = osm_id

    def layer_geom(self, is_area: bool):
        if is_area:
            return self.as_polys()
        return self.as_line()


class _LuaRelGeom(_RelGeom):
    def __init__(self, osm_id, polys):
        super().__init__(polys)
        self.osm_id = osm_id

    def layer_geom(self, is_area: bool):
        if is_area:
            return self.as_polys()
        return self.as_line()


class _LuaScanGeom:
    """relation_scan context has no geometry."""
    osm_id = 0
    closed = True

    def area(self):
        return 0.0

    def layer_geom(self, is_area):   # pragma: no cover
        raise LuaError("Layer() not available during relation scan")

    def centroid_geom(self):         # pragma: no cover
        raise LuaError("LayerAsCentroid() not available during scan")
