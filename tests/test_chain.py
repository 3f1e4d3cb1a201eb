"""chain.waves and chain.exchange: the grouped map every tile path runs.
Its contract is a pandas groupby(key).apply(fn) over the whole input —
the concatenated prep(unit) frames, or the dataset's blocks — with fn
called once per key value, each group's rows in input order, whatever
the unit or block layout and partition count."""

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data

from tilemaker_ray.pipelines.chain import exchange, waves


def _blocks_ds(blocks: list[pd.DataFrame]) -> ray.data.Dataset:
    """A Dataset of exactly these pandas blocks, empty ones included."""
    return ray.data.from_pandas_refs([ray.put(b) for b in blocks])


def _frame(n: int, nkeys: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame({"k": rng.integers(0, nkeys, n).astype(np.int64),
                         "v": np.arange(n, dtype=np.int64)})


def _summarizer():
    """fn for the exchange: one row per group that depends on the order
    of the group's rows — its key, size, first value and an
    order-weighted checksum. (Built in a function so Ray ships it by
    value: workers cannot import this test module.)"""
    def summary(g: pd.DataFrame) -> pd.DataFrame:
        v = g["v"].to_numpy()
        return pd.DataFrame({
            "k": [int(g["k"].iloc[0])], "n": [len(g)], "first": [int(v[0])],
            "ordsum": [int((v * np.arange(1, len(v) + 1)).sum())]})
    return summary


def _expected(df: pd.DataFrame) -> pd.DataFrame:
    """pandas groupby("k").apply(fn), spelled out (apply warns about
    passing the key column, which fn reads)."""
    fn = _summarizer()
    return pd.concat([fn(g) for _, g in df.groupby("k", sort=True)],
                     ignore_index=True)


def _run(blocks, nparts) -> pd.DataFrame:
    out = exchange(_blocks_ds(blocks), "k", _summarizer(), nparts).to_pandas()
    return out.sort_values("k").reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("nparts", [1, 3, 64])
def test_exchange_matches_pandas_groupby(nparts):
    """R == 1 (the bare-ref split return), R below the block count and
    nparts above it; an empty zero-column block rides along, as Ray
    Data emits them."""
    df = _frame(3000, 11, seed=nparts)
    blocks = [df.iloc[:900], pd.DataFrame(), df.iloc[900:2000],
              df.iloc[2000:]]
    got = _run(blocks, nparts)
    pd.testing.assert_frame_equal(got, _expected(df), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_exchange_calls_fn_once_per_key():
    """fn runs once per distinct key; a key with no rows is never
    called; keys arrive ascending within a reducer."""
    df = _frame(2000, 40, seed=7)
    df = df[df["k"] % 3 != 0]          # every third key has no rows
    blocks = [df.iloc[i:i + 250] for i in range(0, len(df), 250)]

    def keys_seen(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [int(g["k"].iloc[0])],
                             "nkeys": [g["k"].nunique()]})

    out = exchange(_blocks_ds(blocks), "k", keys_seen, 4).to_pandas()
    assert sorted(out["k"]) == sorted(df["k"].unique())
    assert (out["nkeys"] == 1).all()
    for block in exchange(_blocks_ds(blocks), "k", keys_seen, 4) \
            .iter_batches(batch_format="pandas", batch_size=None):
        assert block["k"].is_monotonic_increasing


@pytest.mark.usefixtures("ray_session")
def test_exchange_of_empty_inputs():
    """No blocks at all, or only empty zero-column blocks: fn is never
    called and the result has no rows."""
    def never(g):
        raise AssertionError("fn called on an empty input")

    no_blocks = ray.data.from_items([])
    assert no_blocks.to_pandas_refs() == []
    for ds in (no_blocks, _blocks_ds([pd.DataFrame(), pd.DataFrame()])):
        assert exchange(ds, "k", never, 8).count() == 0


def _unit_prep():
    """prep for the map wave: unit 2 yields an empty zero-column frame
    (as Ray Data's empty blocks are), unit 5 zero rows with columns,
    every other unit a frame of its own. (Built in a function so Ray
    ships it by value.)"""
    def prep(unit: int) -> pd.DataFrame:
        if unit == 2:
            return pd.DataFrame()
        n = 0 if unit == 5 else 300 + unit
        rng = np.random.default_rng(unit)
        return pd.DataFrame({
            "k": rng.integers(0, 11, n).astype(np.int64),
            "v": np.arange(n, dtype=np.int64) + 1000 * unit})
    return prep


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("nparts", [1, 3, 64])
def test_waves_with_prep_match_pandas_groupby(nparts):
    """The map wave runs prep on each unit: 8 units, so R == 1, more
    units than reducers, and fewer; units whose prep yields zero rows
    or zero columns ride along. The reducers' output equals a pandas
    groupby over the concatenated prep outputs in unit order."""
    units, prep = list(range(8)), _unit_prep()
    outs, rows = waves(units, prep, "k", _summarizer(), nparts)
    assert len(outs) == min(nparts, len(units))
    got = pd.concat([o for o, n in zip(ray.get(outs), rows) if n],
                    ignore_index=True)
    assert sum(rows) == len(got)
    got = got.sort_values("k").reset_index(drop=True)
    frames = [prep(u) for u in units]
    expect = pd.concat([f for f in frames if len(f.columns)],
                       ignore_index=True)
    pd.testing.assert_frame_equal(got, _expected(expect), check_dtype=False)
