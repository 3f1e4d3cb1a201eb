import glob
import os

import pandas as pd
import pytest

from tilemaker_ray.sources.pages import pages_path
from tilemaker_ray.state.manifest import Manifest


@pytest.mark.usefixtures("ray_session")
class TestResumable:
    def test_run_and_resume(self, tmp_path):
        from tilemaker_ray.pipelines.resumable import run_resumable
        pages = pages_path(1000)
        out = str(tmp_path / "out")
        s1 = run_resumable(pages, out)
        assert s1["partitions_done_before"] == 0
        assert s1["partitions_total"] > 10
        n_files = len(glob.glob(os.path.join(out, "tiles", "*.parquet")))
        assert n_files == s1["partitions_total"]

        # resume: everything already done → nothing re-rendered
        s2 = run_resumable(pages, out)
        assert s2["partitions_done_before"] == s1["partitions_total"]
        assert s2["tiles_written_this_run"] == 0

        # manifest rows carry lineage + metrics
        rows = Manifest(out).rows()
        assert all(r["lineage"]["pages"] == pages for r in rows)
        assert all(r["rows"] >= 0 and r["wall_s"] >= 0 for r in rows)

        # partial resume: delete one manifest shard entry by removing all
        # shards and rewriting minus one partition → that partition (and
        # only it) is re-rendered
        mdir = os.path.join(out, "_manifest")
        all_rows = Manifest(out).rows()
        victim = next(r["partition"] for r in all_rows
                      if r["partition"].startswith("pk"))
        for f in glob.glob(os.path.join(mdir, "*.jsonl")):
            os.remove(f)
        w = Manifest(out).writer()
        for r in all_rows:
            if r["partition"] != victim:
                w.record(r["partition"], r["rows"], r["bytes"], r["wall_s"], r["lineage"])
        s3 = run_resumable(pages, out)
        assert s3["partitions_done_before"] == s1["partitions_total"] - 1

        # written tiles parquet reads back consistently
        dfs = [pd.read_parquet(f) for f in
               glob.glob(os.path.join(out, "tiles", "*.parquet"))]
        tiles = pd.concat([d for d in dfs if len(d)], ignore_index=True)
        assert not tiles.duplicated(subset=["zoom", "tile_x", "tile_y"]).any()
        assert (tiles.n_bytes > 0).all()

    def test_stage_a_checkpoint_and_midshuffle_resume(self, tmp_path):
        """Stage A persists per input unit (here half of a pages file);
        a crash between the stages resumes without re-extracting
        finished units, and a partially-extracted run re-extracts ONLY
        the missing units."""
        from tilemaker_ray.pipelines.flagship import page_units
        from tilemaker_ray.pipelines.resumable import run_resumable
        pages = pages_path(20000)  # 2 input block files
        n_units = len(page_units(pages))
        assert n_units == 4   # 2 files of 10,000 rows, cut in halves
        out = str(tmp_path / "out")
        s1 = run_resumable(pages, out)
        assert s1["feature_files_total"] == n_units
        assert s1["feature_files_done_before"] == 0
        feats = sorted(glob.glob(os.path.join(out, "features", "*.parquet")))
        assert len(feats) == n_units
        ft_rows = [r for r in Manifest(out).rows()
                   if r["partition"].startswith("ft-")]
        assert len(ft_rows) == n_units
        assert all(r["lineage"]["stage"] == "extract" and
                   r["lineage"]["n_pages"] == 5000 for r in ft_rows)

        # full resume: no unit re-extracted (mtimes untouched), no tile
        # re-rendered
        mtimes = {f: os.path.getmtime(f) for f in feats}
        s2 = run_resumable(pages, out)
        assert s2["feature_files_done_before"] == n_units
        assert s2["tiles_written_this_run"] == 0
        assert {f: os.path.getmtime(f) for f in feats} == mtimes

        # mid-shuffle crash: stage A half done (the second file's
        # checkpoints + manifest rows lost), stage B not started.
        # Resume re-extracts only the lost units and produces tiles
        # identical to a fresh run.
        out2 = str(tmp_path / "out2")
        os.makedirs(os.path.join(out2, "features"))
        import shutil
        w = Manifest(out2).writer()
        kept = {}
        for r in ft_rows:
            name = r["partition"][len("ft-"):] + ".parquet"
            if not name.startswith("block-00000."):
                continue
            path = os.path.join(out2, "features", name)
            shutil.copy(os.path.join(out, "features", name), path)
            w.record(r["partition"], r["rows"], r["bytes"], r["wall_s"],
                     r["lineage"])
            kept[path] = os.path.getmtime(path)
        assert len(kept) == n_units // 2
        s3 = run_resumable(pages, out2)
        assert s3["feature_files_done_before"] == len(kept)
        # not re-extracted
        assert {f: os.path.getmtime(f) for f in kept} == kept
        assert s3["tiles_written_this_run"] == s1["tiles_written_this_run"]

        def tiles_df(d):
            dfs = [pd.read_parquet(f) for f in
                   sorted(glob.glob(os.path.join(d, "tiles", "*.parquet")))]
            return (pd.concat([x for x in dfs if len(x)], ignore_index=True)
                    .sort_values(["zoom", "tile_x", "tile_y"])
                    .reset_index(drop=True))

        t1, t2 = tiles_df(out), tiles_df(out2)
        assert len(t1) == len(t2)
        assert (t1["mvt"] == t2["mvt"]).all()

    def test_tiles_match_tile_dataset(self, tmp_path):
        """The resumable run is the build's two waves with an output
        directory: its tiles equal tile_dataset's byte for byte."""
        from tilemaker_ray.pipelines.flagship import tile_dataset
        from tilemaker_ray.pipelines.resumable import run_resumable
        pages = pages_path(1000)
        out = str(tmp_path / "out")
        run_resumable(pages, out)

        keys = ["zoom", "tile_x", "tile_y"]
        dfs = [pd.read_parquet(f) for f in
               glob.glob(os.path.join(out, "tiles", "*.parquet"))]
        got = (pd.concat(dfs, ignore_index=True).sort_values(keys)
               .reset_index(drop=True))
        exp = (tile_dataset(pages).to_pandas().sort_values(keys)
               .reset_index(drop=True))
        assert len(got) == len(exp) > 100
        assert got[keys].astype(int).equals(exp[keys].astype(int))
        assert all(bytes(a) == bytes(b)
                   for a, b in zip(got["mvt"], exp["mvt"]))
