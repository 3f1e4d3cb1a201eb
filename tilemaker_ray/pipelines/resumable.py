"""Resumable flagship run: tiles written as partitioned parquet with a
checkpoint manifest; a rerun skips finished work.

It is the build's two task waves (pipelines/chain.waves) with an output
directory, and both waves checkpoint, so the job resumes MID-SHUFFLE
(north rule):

Stage A (the map wave: extract → geometry → partition key): unit = one
input unit of the build (flagship.page_units), a row range of a pages
parquet file or a WARC byte range.
Each unit's keyed GeomMap rows are written to
out_dir/features/<stem>.parquet (atomic rename) with an `ft-<stem>`
manifest row BEFORE the reduce wave, so a crash between the waves
resumes by re-extracting only the missing units; a unit whose row the
manifest lists is read back from its file, and finished extraction
work — the expensive stateful-parser stage — is never repeated.  The
exchange width (pk count) is pinned in run_meta.json on first run, so
stage-A rows map to identical stage-B partitions across resumes on any
cluster size.

Stage B (the reduce wave: assembly): unit = one partition key, the
assembly exchange's own key.  Each map task drops the rows of the
partitions the manifest lists, so completed partitions never re-enter
the exchange; each reducer writes tiles/pk{N}.parquet and its manifest
row per partition.

Layout:
    out_dir/features/<unit-stem>.parquet           (stage-A rows)
    out_dir/tiles/pk{N}.parquet                    (atomic rename)
    out_dir/_manifest/shard-*.jsonl                (lineage + metrics)
"""

from __future__ import annotations

import io
import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import Config, default_config
from ..state.manifest import Manifest, atomic_write
from ..stages.salted import (GeomMap, TileAssembler, add_partition_key,
                             data_num_partitions, dir_input_bytes)
from . import chain
from .flagship import PageMap, page_units


def _stem(unit: tuple[str, int, int]) -> str:
    """A unit's checkpoint name: its file's name and its row or byte
    range."""
    path, start, end = unit
    return f"{os.path.basename(path)}-{start}-{end}"


def _parquet_bytes(df: pd.DataFrame) -> bytes:
    buf = io.BytesIO()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), buf)
    return buf.getvalue()


def run_resumable(pages_dir: str, out_dir: str,
                  config: Config | None = None,
                  with_joins: bool = False) -> dict:
    """Run (or resume) the flagship into out_dir. Returns summary stats.
    Completed work (per the manifest) is skipped per stage: stage A by
    input unit, stage B by partition key."""
    config = config or default_config()
    manifest = Manifest(out_dir)
    all_done = manifest.completed()
    done_a = {k for k in all_done if k.startswith("ft-")}
    done = {k for k in all_done if not k.startswith("ft-")}
    done_pks = np.array(sorted(int(k[2:]) for k in done), np.int64)

    # pin the partition count on first run so a resume (possibly on a
    # different cluster size) maps rows to the same partitions
    meta_path = os.path.join(out_dir, "_manifest", "run_meta.json")
    if os.path.exists(meta_path):
        nparts = json.load(open(meta_path))["num_partitions"]
    else:
        nparts = data_num_partitions(dir_input_bytes(pages_dir))
        with open(meta_path, "w") as f:
            json.dump({"num_partitions": nparts, "pages": pages_dir}, f)

    fdir = os.path.join(out_dir, "features")
    tdir = os.path.join(out_dir, "tiles")
    os.makedirs(fdir, exist_ok=True)
    os.makedirs(tdir, exist_ok=True)
    mwriter = manifest.writer()
    page_map = PageMap(config, with_joins=with_joins)
    geom_map = GeomMap(config)
    assembler = TileAssembler(config)

    def checkpointed(unit) -> bool:
        stem = _stem(unit)
        return (f"ft-{stem}" in done_a
                and os.path.exists(os.path.join(fdir, f"{stem}.parquet")))

    def stage_a(unit) -> pd.DataFrame:
        stem = _stem(unit)
        path = os.path.join(fdir, f"{stem}.parquet")
        if checkpointed(unit):
            df = pd.read_parquet(path)
        else:
            t0 = time.time()
            pages = page_map.pages(unit)
            df = add_partition_key(geom_map(page_map.extractor(pages)),
                                   nparts)
            data = _parquet_bytes(df)
            atomic_write(path, data)
            mwriter.record(f"ft-{stem}", len(df), len(data),
                           time.time() - t0,
                           lineage={"pages": pages_dir, "stage": "extract",
                                    "unit": stem, "n_pages": pages.num_rows})
        return df[~np.isin(df["pk"].to_numpy(), done_pks)]

    def stage_b(group: pd.DataFrame) -> pd.DataFrame:
        t0 = time.time()
        key = f"pk{int(group['pk'].iloc[0]):05d}"
        out = assembler(group)
        atomic_write(os.path.join(tdir, f"{key}.parquet"),
                     _parquet_bytes(out))
        mwriter.record(key, len(out),
                       int(out["n_bytes"].sum()) if len(out) else 0,
                       time.time() - t0,
                       lineage={"pages": pages_dir, "stage": "assemble",
                                "n_input_rows": len(group)})
        return out[["zoom", "tile_x", "tile_y", "n_features", "n_bytes"]]

    units = page_units(pages_dir)
    units_before = sum(map(checkpointed, units))
    _, written = chain.waves(units, stage_a, "pk", stage_b, nparts)

    rows = Manifest(out_dir).rows()
    pks = {r["partition"] for r in rows if not r["partition"].startswith("ft-")}
    return {
        "partitions_done_before": len(done),
        "partitions_total": len(pks),
        "feature_files_total": len(units),
        "feature_files_done_before": units_before,
        "tiles_written_this_run": sum(written),
        "manifest_rows": len(rows),
    }
