"""Resumable flagship run: tiles written as partitioned parquet with a
checkpoint manifest; a rerun skips finished partitions.

TWO checkpointed stages — the job resumes MID-SHUFFLE (north rule):

Stage A (extract → geometry → partition key): partition unit = one
input pages parquet block file.  Each file's exploded feature rows are
written to out_dir/features/<stem>.parquet (atomic rename) with a
`ft-<stem>` manifest row BEFORE the assembly shuffle, so a crash
between the two stages resumes by re-extracting only the missing
files; finished extraction work — the expensive stateful-parser stage
— is never repeated.  The exchange width (pk count) is pinned in
run_meta.json on first run, so stage-A rows map to identical stage-B
partitions across resumes on any cluster size.  WARC inputs keep the
recompute-stage-A path (their chunk tasks self-sync on byte ranges,
not files).

Stage B (assembly): partition unit = the stage-B macro-block group
(zoom, mx, my) — the same key as the assembly shuffle, so the
skip-filter sits right after the stage-A checkpoint read and completed
partitions never re-enter the exchange.

Layout:
    out_dir/features/<block-stem>.parquet          (stage-A rows)
    out_dir/tiles/pk{N}.parquet                    (atomic rename)
    out_dir/_manifest/shard-*.jsonl                (lineage + metrics)
"""

from __future__ import annotations

import glob
import io
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..config import Config, default_config
from ..state.manifest import Manifest, atomic_write
from ..stages.salted import TileAssembler
from . import chain
from .flagship import feature_dataset


class WritingAssembler(TileAssembler):
    """Stage B + atomic parquet write + manifest row per partition."""

    def __init__(self, out_dir: str, pages_dir: str, config: Config | None = None):
        super().__init__(config)
        self.out_dir = out_dir
        self.pages_dir = pages_dir
        self.tiles_dir = os.path.join(out_dir, "tiles")
        os.makedirs(self.tiles_dir, exist_ok=True)
        self.mwriter = Manifest(out_dir).writer()

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        t0 = time.time()
        key = f"pk{int(df['pk'].iloc[0]):05d}"
        out = super().__call__(df)
        path = os.path.join(self.tiles_dir, f"{key}.parquet")
        table = pa.Table.from_pandas(out, preserve_index=False)
        import io
        buf = io.BytesIO()
        pq.write_table(table, buf)
        atomic_write(path, buf.getvalue())
        self.mwriter.record(key, len(out), int(out["n_bytes"].sum()) if len(out) else 0,
                            time.time() - t0,
                            lineage={"pages": self.pages_dir,
                                     "stage": "assemble", "n_input_rows": len(df)})
        return out[["zoom", "tile_x", "tile_y", "n_features", "n_bytes"]]


class FeatureCheckpointer:
    """Stage-A checkpoint actor: one input pages block file per call →
    extract (PageFeatureExtractor, built once per actor) → geometry
    (GeomMap) → partition key → features/<stem>.parquet (atomic) +
    `ft-<stem>` manifest row.  Input chunks through the extractor in
    the live pipeline's batch size so the emitted rows are identical
    to the streaming path's (assembly is order/batching-insensitive,
    but identical inputs make that a non-question)."""

    BATCH = 2048

    def __init__(self, out_dir: str, pages_dir: str, nparts: int,
                 config: Config | None = None):
        from ..stages.extract import PageFeatureExtractor
        from ..stages.salted import GeomMap
        config = config or default_config()
        self.config = config
        self.extractor = PageFeatureExtractor(
            known_layers={l.name for l in config.layers})
        self.geom = GeomMap(config)
        self.nparts = nparts
        self.pages_dir = pages_dir
        self.fdir = os.path.join(out_dir, "features")
        os.makedirs(self.fdir, exist_ok=True)
        self.mwriter = Manifest(out_dir).writer()

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from ..stages.salted import add_partition_key
        out = []
        for path in batch["path"]:
            t0 = time.time()
            t = pq.read_table(path, columns=["url", "html", "text", "lang"])
            parts = [add_partition_key(
                         self.geom(self.extractor(t.slice(off, self.BATCH))),
                         self.nparts)
                     for off in range(0, max(t.num_rows, 1), self.BATCH)]
            df = pd.concat(parts, ignore_index=True)
            stem = os.path.splitext(os.path.basename(path))[0]
            buf = io.BytesIO()
            pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                           buf)
            atomic_write(os.path.join(self.fdir, f"{stem}.parquet"),
                         buf.getvalue())
            self.mwriter.record(
                f"ft-{stem}", len(df), buf.getbuffer().nbytes,
                time.time() - t0,
                lineage={"pages": self.pages_dir, "stage": "extract",
                         "file": os.path.basename(path),
                         "n_pages": t.num_rows})
            out.append({"file": stem, "rows": len(df)})
        return pd.DataFrame(out)


def run_resumable(pages_dir: str, out_dir: str,
                  config: Config | None = None,
                  checkpoint_features: bool | None = None) -> dict:
    """Run (or resume) the flagship into out_dir. Returns summary stats.
    Completed partitions (per the manifest) are skipped per stage:
    stage A by input block file, stage B — after the shuffle boundary —
    via a broadcast key-set filter.  checkpoint_features defaults to
    True for parquet pages dirs, False for WARC inputs (whose stage A
    is re-derived from byte ranges, not files)."""
    import json
    config = config or default_config()
    is_warc = pages_dir.endswith((".warc", ".warc.gz"))
    if checkpoint_features is None:
        checkpoint_features = not is_warc
    manifest = Manifest(out_dir)
    all_done = manifest.completed()
    done_a = {k for k in all_done if k.startswith("ft-")}
    done = {k for k in all_done if not k.startswith("ft-")}

    # pin the partition count on first run so a resume (possibly on a
    # different cluster size) maps rows to the same partitions
    from ..stages.salted import (add_partition_key, data_num_partitions,
                                 dir_input_bytes)
    meta_path = os.path.join(out_dir, "_manifest", "run_meta.json")
    if os.path.exists(meta_path):
        nparts = json.load(open(meta_path))["num_partitions"]
    else:
        nparts = data_num_partitions(dir_input_bytes(pages_dir))
        with open(meta_path, "w") as f:
            json.dump({"num_partitions": nparts, "pages": pages_dir}, f)

    from ray.data import DataContext
    ctx = DataContext.get_current()
    if ctx.target_max_block_size is None or ctx.target_max_block_size > 8 * 1024 * 1024:
        ctx.target_max_block_size = 8 * 1024 * 1024

    def skip_done(df: pd.DataFrame) -> pd.DataFrame:
        """Anti-join against the completed-partition set. Captured in
        the task closure (plain function — an actor pool here would
        reserve CPUs and can starve the task stages on small clusters);
        for a very large done-set switch to ray.put + lazy ray.get."""
        if not done:
            return df
        keys = "pk" + df["pk"].astype(np.int64).astype(str).str.zfill(5)
        return df[~keys.isin(done)]

    assembler = WritingAssembler(out_dir, pages_dir, config)

    def run_assemble(df):
        return assembler(df)

    def add_pk(df):
        return add_partition_key(df, nparts)

    feature_files_total = feature_files_before = 0
    if checkpoint_features:
        files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
        fdir = os.path.join(out_dir, "features")
        feature_files_total = len(files)

        def _ckpt_ok(f: str) -> bool:
            stem = os.path.splitext(os.path.basename(f))[0]
            return (f"ft-{stem}" in done_a
                    and os.path.exists(os.path.join(fdir, f"{stem}.parquet")))

        todo = [f for f in files if not _ckpt_ok(f)]
        feature_files_before = feature_files_total - len(todo)
        if todo:
            n_act = max(1, min(len(todo),
                               int(ray.cluster_resources().get("CPU", 8)) - 2))
            (ray.data.from_items([{"path": f} for f in todo])
             .map_batches(FeatureCheckpointer,
                          fn_constructor_kwargs={
                              "out_dir": out_dir, "pages_dir": pages_dir,
                              "nparts": nparts, "config": config},
                          batch_size=1, batch_format="pandas",
                          concurrency=n_act)
             .materialize())
        partials = (ray.data.read_parquet(fdir)
                    .map_batches(skip_done, batch_format="pandas"))
    else:
        partials = (chain.geometry(feature_dataset(pages_dir, config), config)
                    .map_batches(add_pk, batch_format="pandas")
                    .map_batches(skip_done, batch_format="pandas"))
    tiles = partials.groupby("pk").map_groups(
        run_assemble, batch_format="pandas")
    summary = tiles.map_batches(
        lambda df: pd.DataFrame({"tiles": [len(df)],
                                 "bytes": [int(df["n_bytes"].sum()) if len(df) else 0]}),
        batch_format="pandas").to_pandas().sum()

    rows = Manifest(out_dir).rows()
    pk_rows = [r for r in rows if not r["partition"].startswith("ft-")]
    return {
        "partitions_done_before": len(done),
        "partitions_total": len(pk_rows),
        "feature_files_total": feature_files_total,
        "feature_files_done_before": feature_files_before,
        "tiles_written_this_run": int(summary.get("tiles", 0)),
        "manifest_rows": len(rows),
    }
