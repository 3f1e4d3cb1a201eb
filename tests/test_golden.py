"""Frozen golden expectations (FIXTURES.md F4): any change to
extraction, tile assignment, the tile chain (geometry, assembly), or
MVT encoding that alters these is either a bug or an intentional
semantic change (regenerate with scripts/freeze_golden.py and say so
in the commit)."""

import hashlib
import os

import pandas as pd
import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
N_PAGES = 500


@pytest.fixture(scope="module")
def pages():
    from tilemaker_ray.sources.pages import generate_block
    return generate_block(42, 0, N_PAGES)


class TestGolden:
    def test_text_extraction_invariant(self, pages):
        from tilemaker_ray.profile import extract_text
        exp = pd.read_parquet(os.path.join(GOLDEN, "expected_text_sha256.parquet"))
        got = [hashlib.sha256(extract_text(h).encode()).hexdigest()
               for h in pages["html"].to_pylist()]
        assert got == exp.text_sha256.tolist()

    def test_tile_assignments(self, pages):
        from tilemaker_ray.stages.extract import PageFeatureExtractor
        from tilemaker_ray.stages.tiles import LOWZOOM, assign_tiles_batch
        exp = pd.read_parquet(os.path.join(GOLDEN, "expected_tile_assignments.parquet"))
        assigned = assign_tiles_batch(PageFeatureExtractor()(pages)).to_pandas()
        main = assigned[assigned.z6x != LOWZOOM]
        got = (main[["url", "feature_id", "layer", "tile_x", "tile_y", "large"]]
               .sort_values(["url", "feature_id", "tile_x", "tile_y"])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_tile_bytes(self, pages):
        from tilemaker_ray.config import default_config
        from tilemaker_ray.pipelines.chain import tiles_local
        from tilemaker_ray.stages.extract import PageFeatureExtractor
        exp = pd.read_parquet(os.path.join(GOLDEN, "expected_tiles.parquet"))
        out = tiles_local(PageFeatureExtractor()(pages), default_config())
        rows = []
        for _, row in out.iterrows():
            rows.append((int(row.zoom), int(row.tile_x), int(row.tile_y),
                         int(row.n_features),
                         hashlib.sha256(row.mvt).hexdigest()))
        got = pd.DataFrame(rows, columns=["zoom", "tile_x", "tile_y",
                                          "n_features", "mvt_sha256"])
        got = got.sort_values(["zoom", "tile_x", "tile_y"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
