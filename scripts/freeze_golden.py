"""Generate the frozen golden fixtures (FIXTURES.md F4): tile
assignments, text-extraction hashes, and per-tile MVT byte hashes for
a fixed small input. Run once; regenerate ONLY on an intentional
semantic change (and say so in the commit message).

    python scripts/freeze_golden.py          # writes tests/golden/
"""

import hashlib
import os
import sys

import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")
N_PAGES = 500


def build():
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tilemaker_ray.config import default_config
    from tilemaker_ray.pipelines.chain import tiles_local
    from tilemaker_ray.profile import extract_text
    from tilemaker_ray.sources.pages import generate_block
    from tilemaker_ray.stages.extract import PageFeatureExtractor
    from tilemaker_ray.stages.tiles import LOWZOOM, assign_tiles_batch

    os.makedirs(GOLDEN, exist_ok=True)
    pages = generate_block(42, 0, N_PAGES)

    # F4.3 — text extraction invariant
    sha = [hashlib.sha256(extract_text(h).encode()).hexdigest()
           for h in pages["html"].to_pylist()]
    pq.write_table(pa.table({"url": pages["url"], "text_sha256": pa.array(sha)}),
                   os.path.join(GOLDEN, "expected_text_sha256.parquet"))

    # F4.1 — tile assignments per feature
    feats = PageFeatureExtractor()(pages)
    assigned = assign_tiles_batch(feats).to_pandas()
    main = assigned[assigned.z6x != LOWZOOM]
    ta = (main[["url", "feature_id", "layer", "tile_x", "tile_y", "large"]]
          .sort_values(["url", "feature_id", "tile_x", "tile_y"])
          .reset_index(drop=True))
    ta.to_parquet(os.path.join(GOLDEN, "expected_tile_assignments.parquet"))

    # F4.2 — per-tile MVT byte hashes (the tile chain, in process)
    out = tiles_local(feats, default_config())
    rows = []
    for _, row in out.iterrows():
        rows.append((int(row.zoom), int(row.tile_x), int(row.tile_y),
                     int(row.n_features),
                     hashlib.sha256(row.mvt).hexdigest()))
    tiles = pd.DataFrame(rows, columns=["zoom", "tile_x", "tile_y",
                                        "n_features", "mvt_sha256"])
    tiles = tiles.sort_values(["zoom", "tile_x", "tile_y"]).reset_index(drop=True)
    tiles.to_parquet(os.path.join(GOLDEN, "expected_tiles.parquet"))
    print(f"frozen: {len(ta)} assignments, {len(tiles)} tiles, {N_PAGES} pages")


if __name__ == "__main__":
    build()
