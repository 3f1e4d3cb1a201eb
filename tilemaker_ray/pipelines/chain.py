"""The tile chain every pipeline runs, from feature rows to MVT tiles:

    features → map_batches(GeomMap)                  [geometry, tasks]
             → map_batches(add_partition_key)        [exchange key]
             → exchange("pk", TileAssembler)         [MVT assembly]

`geometry` and `assemble` are its two halves (the incremental pipeline
keeps the rows between them as its feature store); `tiles` is both.
`exchange` is the all-to-all every grouped step of a tile path runs:
the assembly here, the crawl delta's bucket join, the Bloom confirm
join, multipolygon assembly and the resumable run's stage B.
`tiles_local` runs the same stages in this process over a features
table: the reference the tests and scripts/freeze_golden.py check the
Ray chain's tiles against. A tile's bytes depend only on its rows, so
batching and the partition count do not change the output.
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
def _split(df: pd.DataFrame, key: str, nred: int):
    """One input block → one piece per reducer, by key modulo nred, each
    piece in block order. Ray Data emits empty blocks with no columns;
    those split into empty pieces."""
    if key not in df.columns:
        pieces = [df] * nred
    else:
        dest = df[key].to_numpy() % nred
        order = np.argsort(dest, kind="stable")
        cuts = np.searchsorted(dest[order], np.arange(1, nred))
        pieces = [df.take(rows) for rows in np.split(order, cuts)]
    return pieces if nred > 1 else pieces[0]


@ray.remote(num_returns=2)
def _reduce(fn, key: str, *pieces: pd.DataFrame):
    """One reducer: its pieces in block order, stable-sorted by key, and
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


def exchange(ds: ray.data.Dataset, key: str, fn,
             nparts: int) -> ray.data.Dataset:
    """A grouped map over `ds` as plain Ray tasks, with the contract of
    Ray Data's groupby(key) followed by a per-group pandas map: fn is
    called once per distinct value of the integer column `key`, on that
    value's rows in input order. One split task per input block cuts it
    into a piece per reducer (key modulo the reducer count); each of the
    min(nparts, input blocks) reducers then calls fn per key it holds,
    in ascending key order, so a small input runs few tasks. Runs `ds`
    when called: the exchange is a barrier. A reducer whose output has
    no rows adds no block to the result."""
    refs = ds.to_pandas_refs()
    nred = max(1, min(nparts, len(refs)))
    split = _split.options(num_returns=nred)
    pieces = [split.remote(r, key, nred) for r in refs]
    if nred == 1:
        pieces = [[p] for p in pieces]   # num_returns=1: a bare ref
    outs = [_reduce.remote(fn, key, *(p[r] for p in pieces))
            for r in range(nred)]
    rows = ray.get([n for _, n in outs])
    return ray.data.from_pandas_refs(
        [out for (out, _), n in zip(outs, rows) if n] or [outs[0][0]])


def geometry(feats: ray.data.Dataset, config: Config) -> ray.data.Dataset:
    """Feature rows → GeomMap rows (one per feature × tile × zoom)."""
    geom_map = GeomMap(config)

    def run_geom(b):
        return geom_map(b)

    return feats.map_batches(run_geom, batch_format="pyarrow")


def assemble(rows: ray.data.Dataset, nparts: int,
             config: Config) -> ray.data.Dataset:
    """GeomMap rows → tiles: the exchange on a partition key hashed
    from the tile's macro-block, then per-group MVT assembly."""
    assembler = TileAssembler(config)

    def add_pk(df):
        return add_partition_key(df, nparts)

    def run_assemble(df):
        return assembler(df)

    return exchange(rows.map_batches(add_pk, batch_format="pandas"),
                    "pk", run_assemble, nparts)


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
