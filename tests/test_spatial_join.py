import numpy as np
import pytest

from tilemaker_ray import tilemath as tm
from tilemaker_ray.geom import core as gc
from tilemaker_ray.geom.clip import clip_ring_convex
from tilemaker_ray.sources.regions import region_table, _convex_hull
from tilemaker_ray.stages.spatial_join import PolygonIndex, SpatialJoins


@pytest.fixture(scope="module")
def regions():
    return region_table()


@pytest.fixture(scope="module")
def index(regions):
    return PolygonIndex(regions)


def brute_point_hits(regions, lon, latp):
    return [i for i, r in enumerate(regions)
            if gc.points_in_polygon_inclusive([lon], [latp], [r["ring"]])[0]]


class TestConvexHull:
    def test_hull_is_convex_ccw(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 1, (30, 2))
        h = _convex_hull(pts)
        assert (h[0] == h[-1]).all()
        assert gc.ring_signed_area(h) > 0  # CCW
        # all cross products of consecutive edges non-negative
        a = h[:-1]
        e = np.diff(h, axis=0)
        cr = np.cross(e[:-1], e[1:])
        assert (cr >= -1e-12).all()


class TestConvexClip:
    def test_full_overlap(self):
        sq = gc.close_ring(np.array([[0., 0.], [4., 0.], [4., 4.], [0., 4.]]))
        clip = gc.close_ring(np.array([[-1., -1.], [9., -1.], [9., 9.], [-1., 9.]]))
        out = clip_ring_convex(sq, clip)
        assert abs(abs(gc.ring_signed_area(gc.close_ring(out))) - 16.0) < 1e-9

    def test_partial_overlap_area(self):
        sq = gc.close_ring(np.array([[0., 0.], [4., 0.], [4., 4.], [0., 4.]]))
        clip = gc.close_ring(np.array([[2., 2.], [6., 2.], [6., 6.], [2., 6.]]))
        out = clip_ring_convex(sq, clip)
        assert abs(abs(gc.ring_signed_area(gc.close_ring(out))) - 4.0) < 1e-9

    def test_no_overlap(self):
        sq = gc.close_ring(np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]]))
        clip = gc.close_ring(np.array([[5., 5.], [6., 5.], [6., 6.], [5., 6.]]))
        assert len(clip_ring_convex(sq, clip)) == 0


class TestPolygonIndex:
    def test_point_probe_matches_brute(self, index, regions):
        rng = np.random.default_rng(11)
        for _ in range(300):
            lon = rng.uniform(-170, 170)
            latp = float(tm.lat2latp(rng.uniform(-60, 65)))
            got = sorted(index.find_intersecting(gc.POINT_, (lon, latp)))
            want = sorted(brute_point_hits(regions, lon, latp))
            assert got == want

    def test_line_probe_matches_brute(self, index, regions):
        rng = np.random.default_rng(13)
        for _ in range(60):
            lon = rng.uniform(-170, 165)
            latp = float(tm.lat2latp(rng.uniform(-60, 60)))
            ls = np.array([[lon, latp], [lon + 4, latp + 2], [lon + 6, latp - 1]])
            got = sorted(index.find_intersecting(gc.LINESTRING_, [ls]))
            want = sorted(i for i, r in enumerate(regions)
                          if gc.polyline_intersects_polygon(ls, [r["ring"]]))
            assert got == want

    def test_covered_by(self, index, regions):
        # a tiny square inside region 0's centroid is covered by it
        r0 = regions[0]["ring"]
        cx, cy = gc.centroid([r0])
        tiny = gc.close_ring(np.array([
            [cx - .01, cy - .01], [cx + .01, cy - .01],
            [cx + .01, cy + .01], [cx - .01, cy + .01]]))
        hits = index.find_covering(gc.POLYGON_, [tiny])
        assert 0 in hits

    def test_area_intersecting_full_containment(self, index, regions):
        r0 = regions[0]["ring"]
        cx, cy = gc.centroid([r0])
        tiny = gc.close_ring(np.array([
            [cx - .05, cy - .05], [cx + .05, cy - .05],
            [cx + .05, cy + .05], [cx - .05, cy + .05]]))
        area = index.area_intersecting([tiny])
        own = abs(gc.spherical_area([[gc.correct_polygon([tiny])[0]]]))
        # fully inside exactly one region unless regions overlap there
        n_containing = len(index.find_intersecting(gc.POLYGON_, tiny))
        assert area == pytest.approx(own * n_containing, rel=1e-6)

    def test_nearest(self, index, regions):
        rng = np.random.default_rng(17)
        for _ in range(40):
            lon = rng.uniform(-170, 170)
            latp = float(tm.lat2latp(rng.uniform(-60, 65)))
            got = index.nearest(lon, latp, 1)[0]
            # brute: min ring distance (0 if inside)
            from tilemaker_ray.stages.spatial_join import _ring_distance
            d = []
            for i, r in enumerate(regions):
                inside = gc.points_in_polygon_inclusive([lon], [latp], [r["ring"]])[0]
                d.append(0.0 if inside else _ring_distance(lon, latp, r["ring"]))
            assert d[got] == pytest.approx(min(d))

    def test_cell_prefilter_no_false_negatives(self, regions):
        # prefilter at a coarse zoom must never drop a true hit
        coarse = PolygonIndex(regions, cell_zoom=6)
        rng = np.random.default_rng(23)
        for _ in range(150):
            lon = rng.uniform(-170, 170)
            latp = float(tm.lat2latp(rng.uniform(-60, 65)))
            got = sorted(coarse.find_intersecting(gc.POINT_, (lon, latp)))
            want = sorted(brute_point_hits(regions, lon, latp))
            assert got == want


@pytest.mark.usefixtures("ray_session")
class TestJoinedPipeline:
    def test_flagship_with_joins(self):
        import gzip
        from tilemaker_ray.mvt import decode_tile
        from tilemaker_ray.pipelines.flagship import tile_dataset
        from tilemaker_ray.sources.pages import pages_path
        d = pages_path(1000)
        df = tile_dataset(d, with_joins=True).to_pandas()
        assert len(df) > 500
        # some z14 place features must carry the region attribute
        tagged = 0
        for _, row in df[df.zoom == 14].head(400).iterrows():
            dec = decode_tile(gzip.decompress(row.mvt))
            for lay in dec.values():
                for f in lay["features"]:
                    if "region" in f["tags"] or "near_region" in f["tags"]:
                        tagged += 1
        assert tagged > 0
