import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the reference tilemaker checkout; tests that read its files run them
# only where they exist
REFERENCE = os.environ.get("TILEMAKER_REFERENCE", "/root/reference")
MONACO = os.path.join(REFERENCE, "test", "monaco.pbf")

# FIXTURES.md F1's fixture bbox (min lon, min lat, max lon, max lat)
MONACO_BBOX = (7.409205, 43.723350, 7.448637, 43.751690)

sys.path.insert(0, os.path.join(ROOT, "scripts"))
from synth_pbf import split_pbf, synthesize  # noqa: E402,F401


@pytest.fixture(scope="session")
def ray_session():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def osm_pbf(tmp_path_factory):
    """(path, record) of the seeded OSM fixture (FIXTURES.md F6): a
    synthetic PBF over the F1 bbox with highways, buildings, landuse
    multipolygons, tagged POIs, bus routes and route masters. `record`
    is what `synth_pbf.synthesize` says it wrote; tests take expected
    values from it, never from a decode."""
    path = str(tmp_path_factory.mktemp("osm_fixture") / "fixture.osm.pbf")
    record: dict = {}
    synthesize(path, n_nodes=30_000, n_ways=4_800, n_rels=40,
               bbox=MONACO_BBOX, seed=11, n_pois=60, n_routes=8,
               n_route_masters=3, record=record)
    return path, record


@pytest.fixture(scope="session")
def osm_inputs(osm_pbf):
    """The OSM fixture's path, then Monaco's where it exists."""
    return [osm_pbf[0]] + ([MONACO] if os.path.exists(MONACO) else [])
