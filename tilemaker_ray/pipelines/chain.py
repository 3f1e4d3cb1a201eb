"""The tile chain every pipeline runs, from feature rows to MVT tiles:

    features → map_batches(GeomMap)                  [geometry, tasks]
             → map_batches(add_partition_key)        [exchange key]
             → groupby("pk").map_groups(TileAssembler)  [MVT assembly]

`geometry` and `assemble` are its two halves (the incremental pipeline
keeps the rows between them as its feature store); `tiles` is both.
`tiles_local` runs the same stages in this process over a features
table: the reference the tests and scripts/freeze_golden.py check the
Ray chain's tiles against. A tile's bytes depend only on its rows, so
batching and the partition count do not change the output.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from ..config import Config
from ..stages.salted import GeomMap, TileAssembler, add_partition_key

# rows per GeomMap call in tiles_local: the extractor's batch size
LOCAL_BATCH_ROWS = 2048
# exchange width of tiles_local; any value gives the same tiles
LOCAL_PARTITIONS = 16


def geometry(feats: ray.data.Dataset, config: Config) -> ray.data.Dataset:
    """Feature rows → GeomMap rows (one per feature × tile × zoom)."""
    geom_map = GeomMap(config)

    def run_geom(b):
        return geom_map(b)

    return feats.map_batches(run_geom, batch_format="pyarrow")


def assemble(rows: ray.data.Dataset, nparts: int,
             config: Config) -> ray.data.Dataset:
    """GeomMap rows → tiles: the one all-to-all exchange, on a
    partition key hashed from the tile's macro-block, then per-group
    MVT assembly."""
    assembler = TileAssembler(config)

    def add_pk(df):
        return add_partition_key(df, nparts)

    def run_assemble(df):
        return assembler(df)

    return (rows.map_batches(add_pk, batch_format="pandas")
                .groupby("pk")
                .map_groups(run_assemble, batch_format="pandas"))


def tiles(feats: ray.data.Dataset, nparts: int,
          config: Config) -> ray.data.Dataset:
    return assemble(geometry(feats, config), nparts, config)


def tiles_local(feats: pa.Table, config: Config) -> pd.DataFrame:
    """The chain in this process: the same GeomMap, add_partition_key
    and TileAssembler over an in-memory features table."""
    geom_map = GeomMap(config)
    rows = pd.concat(
        [geom_map(pa.Table.from_batches([b], schema=feats.schema))
         for b in feats.to_batches(max_chunksize=LOCAL_BATCH_ROWS)]
        or [geom_map(feats)],
        ignore_index=True)
    keyed = add_partition_key(rows, LOCAL_PARTITIONS)
    assembler = TileAssembler(config)
    return pd.concat([assembler(g) for _, g in keyed.groupby("pk", sort=True)]
                     or [assembler(keyed)],
                     ignore_index=True)
