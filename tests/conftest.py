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


def split_pbf(src: str, a: str, b: str) -> int:
    """Write `src`'s OSMData blobs alternately to `a` and `b`, each file
    led by `src`'s OSMHeader blob, so ways in one file reference nodes
    in the other. Returns the number of OSMData blobs."""
    from tilemaker_ray.sources.pbf import blob_offsets

    raw = open(src, "rb").read()
    header, data, pos = b"", [], 0
    # blob_offsets gives each blob's payload; its framing (length
    # prefix + BlobHeader) starts where the previous payload ended
    for start, size, typ in blob_offsets(src):
        section, pos = raw[pos:start + size], start + size
        if typ == "OSMHeader":
            header = section
        elif typ == "OSMData":
            data.append(section)
    for path, part in ((a, data[::2]), (b, data[1::2])):
        with open(path, "wb") as f:
            f.write(header + b"".join(part))
    return len(data)


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
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    from synth_pbf import synthesize

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
