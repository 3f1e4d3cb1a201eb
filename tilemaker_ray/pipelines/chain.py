"""The tile chain every pipeline runs, as two waves of plain Ray tasks:

    units ─ map wave, one task per unit:
              prep(unit)                        [read + extract]
            → GeomMap                           [geometry]
            → add_partition_key                 [exchange key]
            → split by pk                       [a piece per reducer]
          ─ reduce wave, one task per reducer:
              TileAssembler per pk              [MVT assembly]

`waves(units, prep, key, fn, nparts)` is the primitive: a map task runs
prep on its unit and cuts the rows into a piece per reducer by `key`,
and a reduce task calls fn once per key value it holds. Every grouped
step of a tile path runs it. `tiles` is the build above. `assemble` is
the same over GeomMap rows already made (the incremental pipeline's
feature store). `exchange` is `waves` over a Dataset's blocks with no
prep; its users are the crawl delta's bucket join and the Bloom confirm
join. Multipolygon assembly (pipelines/osm) and the resumable run call
`waves` directly, with their own prep and fn.
`tiles_local` runs the same stages in this process over a features
table: the reference the tests and scripts/freeze_golden.py check the
Ray chain's tiles against. A tile's bytes depend only on its rows, so
units, batching and the partition count do not change the output.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import Config
from ..stages.salted import GeomMap, TileAssembler, add_partition_key

# rows per GeomMap call in tiles_local; any value gives the same tiles
LOCAL_BATCH_ROWS = 2048
# exchange width of tiles_local; any value gives the same tiles
LOCAL_PARTITIONS = 16


@ray.remote
def _map(unit, prep, key: str, nred: int):
    """One map task: prep(unit) (the unit itself when prep is None), cut
    into one piece per reducer by key modulo nred, each piece in row
    order. A frame without the key column (Ray Data emits empty blocks
    with no columns) splits into empty pieces."""
    df = unit if prep is None else prep(unit)
    if nred == 1:
        return df
    if key not in df.columns:
        return [df] * nred
    dest = df[key].to_numpy() % nred
    order = np.argsort(dest, kind="stable")
    cuts = np.searchsorted(dest[order], np.arange(1, nred))
    return [df.take(rows) for rows in np.split(order, cuts)]


@ray.remote(num_returns=2)
def _reduce(fn, key: str, *pieces: pd.DataFrame):
    """One reducer: its pieces in unit order, stable-sorted by key, and
    fn called once per run of one key value. Returns (output, rows)."""
    pieces = [p for p in pieces if len(p)]
    if not pieces:
        return pd.DataFrame(), 0
    df = pd.concat(pieces, ignore_index=True)
    keys = df[key].to_numpy()
    order = np.argsort(keys, kind="stable")
    df, keys = df.take(order), keys[order]
    bounds = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(df)]])
    out = pd.concat([fn(df.iloc[s:e]) for s, e in zip(starts, ends)],
                    ignore_index=True)
    return out, len(out)


def waves(units: list, prep, key: str, fn,
          nparts: int) -> tuple[list, list[int]]:
    """A grouped map over units as plain Ray tasks, with the contract of
    a pandas groupby(key) over the concatenated prep(unit) frames
    followed by a per-group map: fn is called once per distinct value
    of the integer column `key`, on that value's rows in unit order.

    A unit is anything a task takes: a row or byte range of a file, or
    the ObjectRef of a block, which Ray resolves to the block. One map
    task per unit runs prep and cuts its rows into a piece per reducer
    (key modulo the reducer count); each of the min(nparts, units)
    reducers then calls fn per key it holds, in ascending key order, so
    a small input runs few tasks. prep and fn go to the object store
    once.
    Runs when called: the reduce wave is a barrier. Returns the
    reducers' output refs and their row counts."""
    nred = max(1, min(nparts, len(units)))
    prep, fn = ray.put(prep), ray.put(fn)
    split = _map.options(num_returns=nred)
    pieces = [split.remote(u, prep, key, nred) for u in units]
    if nred == 1:
        pieces = [[p] for p in pieces]   # num_returns=1: a bare ref
    outs = [_reduce.remote(fn, key, *(p[r] for p in pieces))
            for r in range(nred)]
    rows = ray.get([n for _, n in outs])
    return [out for out, _ in outs], rows


def _dataset(outs: list, rows: list[int]) -> ray.data.Dataset:
    """The reducers' outputs as a Dataset. A reducer whose output has no
    rows adds no block."""
    return ray.data.from_pandas_refs(
        [out for out, n in zip(outs, rows) if n] or outs[:1])


def map_wave(units: list, prep) -> ray.data.Dataset:
    """The map wave alone: one task and one block per unit, prep(unit)."""
    prep = ray.put(prep)
    return ray.data.from_pandas_refs(
        [_map.remote(u, prep, "", 1) for u in units])


def exchange(ds: ray.data.Dataset, key: str, fn,
             nparts: int) -> ray.data.Dataset:
    """`waves` over the blocks of `ds`, with no prep."""
    return _dataset(*waves(ds.to_pandas_refs(), None, key, fn, nparts))


def assemble(rows: ray.data.Dataset, nparts: int,
             config: Config) -> ray.data.Dataset:
    """GeomMap rows → tiles: each map task keys its block by the tile's
    macro-block (add_partition_key), then per-group MVT assembly."""
    def add_pk(df: pd.DataFrame) -> pd.DataFrame:
        return add_partition_key(df, nparts) if len(df) else df

    return _dataset(*waves(rows.to_pandas_refs(), add_pk, "pk",
                           TileAssembler(config), nparts))


def tiles(units: list, prep, nparts: int,
          config: Config) -> ray.data.Dataset:
    """Input units → tiles: each map task runs prep(unit), which gives
    feature rows (stages/extract.FEATURE_SCHEMA), then GeomMap and the
    partition key; the reducers assemble."""
    geom_map = GeomMap(config)

    def map_unit(unit) -> pd.DataFrame:
        return add_partition_key(geom_map(prep(unit)), nparts)

    return _dataset(*waves(units, map_unit, "pk", TileAssembler(config),
                           nparts))


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
