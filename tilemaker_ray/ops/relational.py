"""Relational operator coverage over the TPC-H-ish testdata tables:
grouped aggregation with pre-aggregation (A6 pattern), partitioned hash
join (J1/J2 pattern: Dataset.join), broadcast dict join (J9 pattern),
sort + limit (O-family), and event-time tumbling windows (the oracle
side of streaming-shaped workloads).

These evidence the engine's generic query surface; column names match
the oracle SQL exactly (driver hash-compares values by sorted column
name).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum


def q_lineitem_agg(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped: pre-aggregate per batch (combiner), then a tiny
    groupby over partials — the A6 "push aggregation partial" pattern."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["revenue"] = df.l_extendedprice * (1.0 - df.l_discount)
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_price=("l_extendedprice", "sum"),
            sum_revenue=("revenue", "sum"),
            sum_disc=("l_discount", "sum"),
            n=("l_quantity", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["l_returnflag", "l_linestatus"])
             .aggregate(Sum("sum_qty", alias_name="sum_qty"),
                        Sum("sum_price", alias_name="sum_price"),
                        Sum("sum_revenue", alias_name="sum_revenue"),
                        Sum("sum_disc", alias_name="_sd"),
                        Sum("n", alias_name="count_order")))
    df = out.to_pandas()
    df["avg_disc"] = (df["_sd"] / df["count_order"]).round(6)
    for c in ("sum_qty", "sum_price", "sum_revenue"):
        df[c] = df[c].round(2)
    df = df.drop(columns=["_sd"]).sort_values(
        ["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    return df


def q_order_revenue_topk(sf_dir: str) -> pd.DataFrame:
    """Q3-shaped: lineitem ⋈ orders (partitioned hash join) ⋈ customer
    (broadcast dict), revenue per order for BUILDING-segment customers,
    top 10 by revenue."""
    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def li_partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["revenue"] = df.l_extendedprice * (1.0 - df.l_discount)
        g = df.groupby("l_orderkey", as_index=False).agg(revenue=("revenue", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    rev = (li.map_batches(li_partial, batch_format="pyarrow")
             .groupby("l_orderkey").aggregate(Sum("revenue", alias_name="revenue")))

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey", "o_orderdate"])
    from ._util import schema_guard
    joined = rev.join(orders, join_type="inner", num_partitions=8,
                      on=("l_orderkey",), right_on=("o_orderkey",)).map_batches(
        schema_guard(pa.schema([("l_orderkey", pa.int64()),
                                ("revenue", pa.float64()),
                                ("o_custkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us"))])),
        batch_format="pyarrow")

    # small side broadcast: BUILDING customers as a frozenset via ray.put
    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    building = ray.put(frozenset(cust.loc[cust.c_mktsegment == "BUILDING", "c_custkey"]))

    class SemiFilter:
        def __init__(self, ref):
            self.keys = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            mask = np.array([k in self.keys for k in b.column("o_custkey").to_pylist()])
            return b.filter(pa.array(mask))

    flt = joined.map_batches(SemiFilter, fn_constructor_kwargs={"ref": building},
                             batch_format="pyarrow", concurrency=(1, 8))
    top = flt.sort(["revenue", "l_orderkey"], descending=[True, False]).limit(10)
    df = top.to_pandas()[["l_orderkey", "revenue"]]
    df = df.rename(columns={"l_orderkey": "o_orderkey"})
    df["revenue"] = df["revenue"].round(2)
    return df


def q_nation_customer_count(sf_dir: str) -> pd.DataFrame:
    """Broadcast dict join (J9 pattern): customer → nation name, count
    per nation."""
    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"])
    nmap = ray.put(dict(zip(nation.n_nationkey, nation.n_name)))
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_nationkey"])

    class MapNation:
        def __init__(self, ref):
            self.m = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            keys = b.column("c_nationkey").to_numpy()
            names = [self.m.get(int(k), "") for k in keys]
            return pa.table({"n_name": pa.array(names, pa.string())})

    out = (cust.map_batches(MapNation, fn_constructor_kwargs={"ref": nmap},
                            batch_format="pyarrow", concurrency=(1, 8))
               .groupby("n_name").aggregate(Count(alias_name="n_customers")))
    return out.to_pandas().sort_values("n_name").reset_index(drop=True)


def q_events_window(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-day event-time window per event_type: count, sum, max.

    Ray Data has no watermarks (SURVEY §2.9 — nor does the reference);
    windows are a grouped aggregation over floor(ts/day)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type", "value"])

    def add_window(b: pa.Table) -> pa.Table:
        ts = b.column("ts").to_numpy()
        day = ts.astype("datetime64[D]").astype("datetime64[us]")
        return pa.table({
            "event_type": b.column("event_type"),
            "day": pa.array(day),
            "value": b.column("value"),
        })

    out = (ds.map_batches(add_window, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Count(alias_name="n"),
                        Sum("value", alias_name="sum_value"),
                        Max("value", alias_name="max_value")))
    df = out.to_pandas().sort_values(["event_type", "day"]).reset_index(drop=True)
    df["sum_value"] = df["sum_value"].round(2)
    return df


SESSION_GAP_MIN = 30


def q_events_sessionize(sf_dir: str) -> pd.DataFrame:
    """Session (gap) windows per user: a new session starts when the
    gap to the previous event exceeds 30 minutes. The stream-shaped
    pattern from the guide: partition by key, sort by ts inside
    map_groups (Ray Data has no watermarks; ordering assumption is
    event-time sort within the user partition)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts", "value"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="stable")
        gap = g["ts"].diff() > pd.Timedelta(minutes=SESSION_GAP_MIN)
        sid = gap.cumsum().astype(np.int64)
        out = g.assign(session_id=sid).groupby("session_id", as_index=False).agg(
            user_id=("user_id", "first"),
            n_events=("event_id", "size"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            sum_value=("value", "sum"),
        )
        out["sum_value"] = out["sum_value"].round(2)
        out["n_events"] = out["n_events"].astype(np.int64)
        return out[["user_id", "session_id", "n_events",
                    "session_start", "session_end", "sum_value"]]

    out = ds.groupby("user_id").map_groups(sessions, batch_format="pandas")
    return (out.to_pandas()
               .sort_values(["user_id", "session_id"]).reset_index(drop=True))


def q_supplier_balance(sf_dir: str) -> pd.DataFrame:
    """Sort + filter: suppliers with positive balance, ordered."""
    ds = ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                               columns=["s_suppkey", "s_name", "s_acctbal"])
    out = (ds.map_batches(
               lambda b: b.filter(pa.compute.greater(b.column("s_acctbal"), 0.0)),
               batch_format="pyarrow")
             .sort(["s_acctbal", "s_suppkey"], descending=[True, False]))
    return out.to_pandas()


def q_asof_join(sf_dir: str) -> pd.DataFrame:
    """Backward as-of join (the operator Ray Data lacks natively): each
    purchase event is matched to the LATEST view event by the same user
    with view_ts <= purchase_ts.

    Expressed as a composition the Dataset API allows: prune + filter at
    the read, ONE hash shuffle on the join key (user_id), then a sorted
    merge_asof inside each group — the (a)-style custom-operator
    composition (map_batches + groupby().map_groups + in-group sort).

    Partitioning assumption: one user's events fit in a worker (same
    assumption the reference makes for per-way node lists); at 100 TB a
    hot user would be range-partitioned by time with one boundary row
    replicated per cut.

    Determinism: view events are pre-aggregated per (user_id, ts) with
    max(value) so duplicate right-side timestamps cannot make the as-of
    pick ambiguous (mirrored in the oracle SQL).
    """
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "event_type", "value"])
    ds = ds.map_batches(
        lambda b: b.filter(pa.compute.is_in(
            b.column("event_type"),
            value_set=pa.array(["purchase", "view"]))),
        batch_format="pyarrow")

    def asof_in_user(g: pd.DataFrame) -> pd.DataFrame:
        p = (g.loc[g.event_type == "purchase",
                   ["event_id", "user_id", "ts", "value"]]
              .rename(columns={"ts": "purchase_ts", "value": "purchase_value"})
              .sort_values(["purchase_ts", "event_id"], kind="stable"))
        v = (g.loc[g.event_type == "view", ["ts", "value"]]
              .groupby("ts", as_index=False).agg(view_value=("value", "max"))
              .sort_values("ts", kind="stable"))
        if p.empty:
            return pd.DataFrame(columns=["event_id", "user_id", "purchase_ts",
                                         "purchase_value", "view_ts", "view_value"])
        v["view_ts"] = v["ts"]
        m = pd.merge_asof(p, v, left_on="purchase_ts", right_on="ts",
                          direction="backward").drop(columns=["ts"])
        m = m[m.view_ts.notna()]
        return m[["event_id", "user_id", "purchase_ts", "purchase_value",
                  "view_ts", "view_value"]]

    out = ds.groupby("user_id").map_groups(asof_in_user, batch_format="pandas")
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


def q_events_lag_delta(sf_dir: str) -> pd.DataFrame:
    """lag() window function: per-user value delta vs the previous event
    in (ts, event_id) order. One shuffle on user_id, vectorized diff
    inside the group."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts", "value"])

    def lag_delta(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="stable")
        delta = (g["value"] - g["value"].shift(1)).round(2)
        out = g.assign(delta=delta)
        out = out[out.delta.notna()]
        return out[["event_id", "user_id", "delta"]]

    out = ds.groupby("user_id").map_groups(lag_delta, batch_format="pandas")
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


# --- distributed exact quantiles (no sort, no shuffle) -------------------

QUANTILE_QS = (0.5, 0.95, 0.99)
QUANTILE_BINS = 4096


def _bin_index(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Deterministic bin assignment shared by the histogram and gather
    passes (identical float expression, so counts always agree)."""
    idx = np.floor((v - lo) * (QUANTILE_BINS / (hi - lo))).astype(np.int64)
    return np.clip(idx, 0, QUANTILE_BINS - 1)


def q_global_quantile(sf_dir: str) -> pd.DataFrame:
    """Exact global quantiles of l_extendedprice WITHOUT a distributed
    sort: (A) streaming min/max/count aggregate, (B) streaming fixed-bin
    histogram with per-batch partials, (C) gather only the values in the
    rank-straddling bins (expected n/4096 of the data; re-binned
    recursively while a candidate bin exceeds the gather cap, so a
    point-mass bin can't OOM the driver), then exact selection + linear
    interpolation (DuckDB quantile_cont semantics).

    This is the scale path for order statistics at 100 TB: three
    streaming passes over one pruned column, driver holds only
    histogram counts + one small candidate slice.
    """
    from ray.data.aggregate import Count, Max, Min

    path = f"{sf_dir}/lineitem.parquet"

    def read():
        return ray.data.read_parquet(path, columns=["l_extendedprice"])

    stats = read().aggregate(Min("l_extendedprice"), Max("l_extendedprice"),
                             Count(alias_name="n"))
    lo, hi = float(stats["min(l_extendedprice)"]), float(stats["max(l_extendedprice)"])
    n = int(stats["n"])

    ranks = {q: (n - 1) * q for q in QUANTILE_QS}
    # order statistics we must recover exactly (floor/ceil of each rank)
    need = sorted({int(np.floor(r)) for r in ranks.values()} |
                  {int(np.ceil(r)) for r in ranks.values()})

    kv = _exact_kth_values(read, "l_extendedprice", need, lo, hi,
                           cap=GATHER_CAP)

    rows = []
    for q in QUANTILE_QS:
        r = ranks[q]
        k0, k1 = int(np.floor(r)), int(np.ceil(r))
        v0, v1 = kv[k0], kv[k1]
        val = v0 + (v1 - v0) * (r - k0)
        rows.append({"q": q, "value": round(val, 6)})
    return pd.DataFrame(rows)


GATHER_CAP = 200_000


def _chain_mask(v: np.ndarray, lo: float, hi: float,
                chain: tuple) -> np.ndarray:
    """Membership predicate for a refinement level: the root range
    filter plus, per descended level, the EXACT bin-id expression that
    produced that level's counts (`_bin_index(v, slo, shi) == b`).
    Re-deriving child edges arithmetically (slo + b*w) can disagree
    with floor((v-slo)*scale) by one ulp at bin boundaries, silently
    shifting an 'exact' order statistic by one rank — so membership is
    always defined by the identical expression that binned the parent
    (ADVICE r3)."""
    m = (v >= lo) & (v < hi)
    for slo, shi, b in chain:
        m &= _bin_index(v, slo, shi) == b
    return m


def _exact_kth_values(read, col: str, ks: list[int], lo: float, hi: float,
                      cap: int = GATHER_CAP) -> dict[int, float]:
    """Exact 0-based order statistics of `col` without a distributed
    sort. EVERY rank is refined independently: a rank whose bin still
    exceeds the gather cap narrows to that bin and re-bins next level
    (so two ranks straddling two different overweight bins both refine
    — neither forces an oversized driver gather), while ranks whose
    bins fit are resolved with one filtered gather. Child membership
    is the parent's own bin-id expression (see _chain_mask), so counts
    and gathers always agree. A scale range that can no longer shrink
    in float64 holds values within one ulp of each other; its rank
    resolves from a single representative row."""
    import functools

    from ray.data.aggregate import Sum

    root_lo, root_hi = lo, hi + 1e-9
    # per-rank state: (scale_lo, scale_hi, chain of (slo, shi, bin),
    #                  count_below_range)
    pend: dict[int, tuple] = {k: (root_lo, root_hi, (), 0) for k in ks}
    resolved: dict[int, float] = {}
    while pend:
        by_range: dict[tuple, list[int]] = {}
        for k, rng in pend.items():
            by_range.setdefault(rng, []).append(k)
        pend = {}
        for (clo, chi, chain, off), kk in by_range.items():

            def hist(b: pa.Table, clo=clo, chi=chi, chain=chain) -> pa.Table:
                v = b.column(col).to_numpy()
                v = v[_chain_mask(v, root_lo, root_hi, chain)]
                bins, counts = np.unique(_bin_index(v, clo, chi),
                                         return_counts=True)
                return pa.table({"bin": pa.array(bins),
                                 "cnt": pa.array(counts.astype(np.int64))})

            hdf = (read().map_batches(hist, batch_format="pyarrow")
                         .groupby("bin").aggregate(Sum("cnt", alias_name="cnt"))
                         .to_pandas())
            counts = np.zeros(QUANTILE_BINS, dtype=np.int64)
            counts[hdf["bin"].to_numpy()] = hdf["cnt"].to_numpy()
            cum = np.concatenate([[0], np.cumsum(counts)])

            gather_bins: dict[int, list[int]] = {}
            for k in kk:
                b = int(np.searchsorted(cum, k - off, side="right") - 1)
                w = (chi - clo) / QUANTILE_BINS
                nlo, nhi = clo + b * w, clo + (b + 1) * w
                shrinks = nlo < nhi and (nhi - nlo) < (chi - clo)
                if counts[b] > cap and shrinks:
                    pend[k] = (nlo, nhi, chain + ((clo, chi, b),),
                               off + int(cum[b]))
                else:
                    gather_bins.setdefault(b, []).append(k)
            if not gather_bins:
                continue
            normal = sorted(b for b in gather_bins if counts[b] <= cap)

            def gather(b: pa.Table, clo=clo, chi=chi, chain=chain,
                       bset=None) -> pa.Table:
                v = b.column(col).to_numpy()
                v = v[_chain_mask(v, root_lo, root_hi, chain)]
                bi = _bin_index(v, clo, chi)
                keep = np.isin(bi, bset)
                return pa.table({"bin": pa.array(bi[keep]),
                                 "v": pa.array(v[keep])})

            per_bin: dict[int, np.ndarray] = {}
            if normal:
                cdf = read().map_batches(
                    functools.partial(gather, bset=tuple(normal)),
                    batch_format="pyarrow").to_pandas()
                per_bin = {b: np.sort(g["v"].to_numpy())
                           for b, g in cdf.groupby("bin")}
            for b, bk in gather_bins.items():
                if counts[b] > cap:
                    # non-shrinkable point mass: every value in the bin
                    # is within 1 ulp — one representative row suffices
                    rep = (read().map_batches(
                               functools.partial(gather, bset=(b,)),
                               batch_format="pyarrow")
                           .limit(1).to_pandas())
                    for k in bk:
                        resolved[k] = float(rep["v"].iloc[0])
                    continue
                vals = per_bin[b]
                for k in bk:
                    resolved[k] = float(vals[k - off - int(cum[b])])
    return resolved


def q_orders_running_total(sf_dir: str) -> pd.DataFrame:
    """Cumulative window aggregate: running total of order value per
    customer in (o_orderdate, o_orderkey) order — one key shuffle,
    vectorized cumsum inside the group."""
    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey", "o_custkey",
                                        "o_orderdate", "o_totalprice"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_orderdate", "o_orderkey"], kind="stable")
        g = g.assign(running_total=g["o_totalprice"].cumsum().round(2))
        return g[["o_orderkey", "o_custkey", "running_total"]]

    out = ds.groupby("o_custkey").map_groups(running, batch_format="pandas")
    return out.to_pandas().sort_values("o_orderkey").reset_index(drop=True)


HOP_SECONDS = 1800


def q_events_hopping_window(sf_dir: str) -> pd.DataFrame:
    """Hopping (sliding) event-time windows: 1-hour windows every 30
    minutes, so each event lands in exactly two windows. The window
    explosion happens per batch (vectorized epoch arithmetic on int64
    microseconds — deterministic, no float time math), then the same
    partial-agg + small-groupby pattern as the tumbling window."""
    from ray.data.aggregate import Count, Sum
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type", "value"])

    def explode(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.timestamp("us")).to_numpy().astype("datetime64[us]").astype(np.int64)
        base = us // (HOP_SECONDS * 1_000_000) * (HOP_SECONDS * 1_000_000)
        starts = np.concatenate([base, base - HOP_SECONDS * 1_000_000])
        et = b.column("event_type").to_pylist()
        val = b.column("value").to_numpy()
        return pa.table({
            "window_start": pa.array(starts.astype("datetime64[us]")),
            "event_type": pa.array(et + et, pa.string()),
            "value": pa.array(np.concatenate([val, val])),
        })

    out = (ds.map_batches(explode, batch_format="pyarrow")
             .groupby(["window_start", "event_type"])
             .aggregate(Count(alias_name="n"),
                        Sum("value", alias_name="sum_value")))
    df = out.to_pandas()
    df["sum_value"] = df["sum_value"].round(2)
    df["n"] = df["n"].astype("int64")
    return (df.sort_values(["window_start", "event_type"])
              .reset_index(drop=True))


PIVOT_TYPES = ("click", "view", "purchase", "signup", "error")


def q_events_pivot(sf_dir: str) -> pd.DataFrame:
    """Pivot / conditional aggregation: one row per day, one count and
    value-sum column per event type. Per-batch partial over
    (day, type) keeps the exchange tiny; the pivot itself is a
    vectorized unstack over the aggregated frame (days × types — small
    by construction at any input scale)."""
    from ray.data.aggregate import Count, Sum
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type", "value"])

    def add_day(b: pa.Table) -> pa.Table:
        day = b.column("ts").to_numpy().astype("datetime64[D]").astype("datetime64[us]")
        return pa.table({"day": pa.array(day),
                         "event_type": b.column("event_type"),
                         "value": b.column("value")})

    agg = (ds.map_batches(add_day, batch_format="pyarrow")
             .groupby(["day", "event_type"])
             .aggregate(Count(alias_name="n"),
                        Sum("value", alias_name="s"))).to_pandas()
    wide = agg.pivot(index="day", columns="event_type")
    # an event type absent from the input must still emit all-zero
    # columns (like the SQL FILTER oracle), not raise KeyError
    wide = wide.reindex(
        columns=pd.MultiIndex.from_product([["n", "s"], PIVOT_TYPES]))
    out = pd.DataFrame({"day": wide.index})
    for t in PIVOT_TYPES:
        out[f"{t}_n"] = wide[("n", t)].fillna(0).astype("int64").to_numpy()
        out[f"{t}_value"] = wide[("s", t)].fillna(0.0).round(2).to_numpy()
    return out.sort_values("day").reset_index(drop=True)


GROUP_QUANTILE_QS = (0.5, 0.9)


def q_group_quantile(sf_dir: str) -> pd.DataFrame:
    """Exact PER-GROUP quantiles without materializing any group: the
    same histogram machinery as q_global_quantile, keyed by group —
    per-batch partial (group, bin, cnt) rows, one small groupby, then a
    gather restricted to each group's rank-straddling bins (expected
    group_n/4096 values per group). This is the scale path when a
    group is itself huge (per-returnflag over 100 TB of lineitem):
    map_groups would materialize the whole group; this never does."""
    from ray.data.aggregate import Count, Max, Min, Sum

    path = f"{sf_dir}/lineitem.parquet"
    gcol, vcol = "l_returnflag", "l_extendedprice"

    def read():
        return ray.data.read_parquet(path, columns=[gcol, vcol])

    stats = (read().groupby(gcol)
                   .aggregate(Min(vcol), Max(vcol), Count(alias_name="n"))
                   .to_pandas())
    rng = {r[gcol]: (float(r[f"min({vcol})"]), float(r[f"max({vcol})"]) + 1e-9,
                     int(r["n"]))
           for _, r in stats.iterrows()}

    def hist(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        out_g, out_b, out_c = [], [], []
        for g, sub in df.groupby(gcol):
            lo, hi, _ = rng[g]
            bins, counts = np.unique(_bin_index(sub[vcol].to_numpy(), lo, hi),
                                     return_counts=True)
            out_g.extend([g] * len(bins))
            out_b.extend(bins.tolist())
            out_c.extend(counts.astype(np.int64).tolist())
        return pa.table({gcol: pa.array(out_g, pa.string()),
                         "bin": pa.array(out_b, pa.int64()),
                         "cnt": pa.array(out_c, pa.int64())})

    hdf = (read().map_batches(hist, batch_format="pyarrow")
                 .groupby([gcol, "bin"]).aggregate(Sum("cnt", alias_name="cnt"))
                 .to_pandas())

    # per group: cumulative bin counts → needed bins per quantile rank.
    # Groups whose rank-straddling bin exceeds GATHER_CAP (a point-mass
    # bin would otherwise pull that entire mass onto the driver) refine
    # through _exact_kth_values on a group-filtered read instead
    # (ADVICE r3); the common case stays one bulk gather for all groups.
    need: dict[str, dict] = {}
    group_ks: dict[str, list[int]] = {}
    overweight: set[str] = set()
    for g, sub in hdf.groupby(gcol):
        counts = np.zeros(QUANTILE_BINS, dtype=np.int64)
        counts[sub["bin"].to_numpy()] = sub["cnt"].to_numpy()
        cum = np.concatenate([[0], np.cumsum(counts)])
        n = rng[g][2]
        ks = sorted({int(np.floor((n - 1) * q)) for q in GROUP_QUANTILE_QS} |
                    {int(np.ceil((n - 1) * q)) for q in GROUP_QUANTILE_QS})
        group_ks[g] = ks
        bset = sorted({int(np.searchsorted(cum, k, side="right") - 1) for k in ks})
        if any(counts[b] > GATHER_CAP for b in bset):
            overweight.add(g)
        need[g] = {"cum": cum, "bins": set(bset)}

    def gather(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        keep_g, keep_b, keep_v = [], [], []
        for g, sub in df.groupby(gcol):
            if g in overweight:
                continue
            lo, hi, _ = rng[g]
            v = sub[vcol].to_numpy()
            bi = _bin_index(v, lo, hi)
            m = np.isin(bi, list(need[g]["bins"]))
            keep_g.extend([g] * int(m.sum()))
            keep_b.extend(bi[m].tolist())
            keep_v.extend(v[m].tolist())
        return pa.table({gcol: pa.array(keep_g, pa.string()),
                         "bin": pa.array(keep_b, pa.int64()),
                         "v": pa.array(keep_v, pa.float64())})

    per_bin: dict = {}
    if len(overweight) < len(rng):
        cdf = read().map_batches(gather, batch_format="pyarrow").to_pandas()
        per_bin = {(g, b): np.sort(sub["v"].to_numpy())
                   for (g, b), sub in cdf.groupby([gcol, "bin"])}

    # overweight groups: capped recursive refinement, one group at a time
    kv_over: dict[str, dict[int, float]] = {}
    for g in sorted(overweight):
        lo, hi, _ = rng[g]

        def read_g(g=g):
            def only(b: pa.Table) -> pa.Table:
                df = b.to_pandas()
                return pa.table({vcol: pa.array(
                    df.loc[df[gcol] == g, vcol].to_numpy(), pa.float64())})
            return read().map_batches(only, batch_format="pyarrow")

        kv_over[g] = _exact_kth_values(read_g, vcol, group_ks[g],
                                       lo, hi - 1e-9, cap=GATHER_CAP)

    rows = []
    for g in sorted(rng):
        cum, n = need[g]["cum"], rng[g][2]

        def kth(k: int) -> float:
            if g in overweight:
                return kv_over[g][k]
            b = int(np.searchsorted(cum, k, side="right") - 1)
            return float(per_bin[(g, b)][k - int(cum[b])])

        row = {gcol: g}
        for q, name in zip(GROUP_QUANTILE_QS, ("p50", "p90")):
            r = (n - 1) * q
            k0, k1 = int(np.floor(r)), int(np.ceil(r))
            v0, v1 = kth(k0), kth(k1)
            row[name] = round(v0 + (v1 - v0) * (r - k0), 6)
        rows.append(row)
    return pd.DataFrame(rows)


ORACLES = {
    "lineitem_agg": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 2) AS sum_qty,
               round(sum(l_extendedprice), 2) AS sum_price,
               round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS sum_revenue,
               count(*) AS count_order,
               round(sum(l_discount)/count(*), 6) AS avg_disc
        FROM lineitem
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "order_revenue_topk": """
        SELECT o.o_orderkey,
               round(sum(l.l_extendedprice * (1.0 - l.l_discount)), 2) AS revenue
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        WHERE c.c_mktsegment = 'BUILDING'
        GROUP BY o.o_orderkey
        ORDER BY revenue DESC, o.o_orderkey
        LIMIT 10
    """,
    "nation_customer_count": """
        SELECT n.n_name, count(*) AS n_customers
        FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name ORDER BY n.n_name
    """,
    "events_window": """
        SELECT event_type, date_trunc('day', ts) AS day,
               count(*) AS n, round(sum(value), 2) AS sum_value, max(value) AS max_value
        FROM events
        GROUP BY event_type, date_trunc('day', ts)
        ORDER BY event_type, day
    """,
    "events_sessionize": f"""
        WITH g AS (
          SELECT user_id, event_id, ts, value,
                 CASE WHEN ts - lag(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
                      THEN 1 ELSE 0 END AS is_new
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), s AS (
          SELECT *, CAST(sum(is_new) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id
                                           ROWS UNBOUNDED PRECEDING)
                         AS BIGINT) AS session_id
          FROM g
        )
        SELECT user_id, session_id, count(*) AS n_events,
               min(ts) AS session_start, max(ts) AS session_end,
               round(sum(value), 2) AS sum_value
        FROM s GROUP BY user_id, session_id
        ORDER BY user_id, session_id
    """,
    "supplier_balance": """
        SELECT s_suppkey, s_name, s_acctbal
        FROM supplier WHERE s_acctbal > 0.0
        ORDER BY s_acctbal DESC, s_suppkey
    """,
    "asof_join": """
        WITH p AS (
          SELECT event_id, user_id, ts AS purchase_ts, value AS purchase_value
          FROM events WHERE event_type = 'purchase'
        ), v AS (
          SELECT user_id, ts AS view_ts, max(value) AS view_value
          FROM events WHERE event_type = 'view' GROUP BY user_id, ts
        )
        SELECT p.event_id, p.user_id, p.purchase_ts, p.purchase_value,
               v.view_ts, v.view_value
        FROM p ASOF JOIN v
          ON p.user_id = v.user_id AND p.purchase_ts >= v.view_ts
        ORDER BY p.event_id
    """,
    "events_lag_delta": """
        WITH g AS (
          SELECT event_id, user_id, value,
                 lag(value) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS prev
          FROM events
        )
        SELECT event_id, user_id, round(value - prev, 2) AS delta
        FROM g WHERE prev IS NOT NULL ORDER BY event_id
    """,
    "events_pivot": f"""
        SELECT date_trunc('day', ts) AS day,
               {", ".join(
                   f"count(*) FILTER (WHERE event_type = '{t}') AS {t}_n, "
                   f"round(coalesce(sum(value) FILTER (WHERE event_type = '{t}'), 0), 2)"
                   f" AS {t}_value" for t in PIVOT_TYPES)}
        FROM events GROUP BY day ORDER BY day
    """,
    "orders_running_total": """
        SELECT o_orderkey, o_custkey,
               round(sum(o_totalprice) OVER (
                 PARTITION BY o_custkey
                 ORDER BY o_orderdate, o_orderkey
                 ROWS UNBOUNDED PRECEDING), 2) AS running_total
        FROM orders ORDER BY o_orderkey
    """,
    "events_hopping_window": f"""
        WITH w AS (
          -- make_timestamp(micros) is timezone-free (epoch arithmetic on
          -- the naive TIMESTAMP), unlike to_timestamp() which yields
          -- TIMESTAMPTZ and would shift by the session TZ on non-UTC hosts
          SELECT event_type, value,
                 unnest([
                   make_timestamp(CAST(floor(epoch(ts) / {HOP_SECONDS})
                                       * {HOP_SECONDS} AS BIGINT) * 1000000),
                   make_timestamp((CAST(floor(epoch(ts) / {HOP_SECONDS})
                                        * {HOP_SECONDS} AS BIGINT)
                                   - {HOP_SECONDS}) * 1000000)
                 ]) AS window_start
          FROM events
        )
        SELECT window_start, event_type, count(*) AS n,
               round(sum(value), 2) AS sum_value
        FROM w GROUP BY window_start, event_type
        ORDER BY window_start, event_type
    """,
    "group_quantile": """
        SELECT l_returnflag,
               round(quantile_cont(l_extendedprice, 0.5), 6) AS p50,
               round(quantile_cont(l_extendedprice, 0.9), 6) AS p90
        FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
    """,
    "global_quantile": """
        SELECT q, round(v, 6) AS value FROM (
          SELECT 0.5 AS q, quantile_cont(l_extendedprice, 0.5) AS v FROM lineitem
          UNION ALL
          SELECT 0.95, quantile_cont(l_extendedprice, 0.95) FROM lineitem
          UNION ALL
          SELECT 0.99, quantile_cont(l_extendedprice, 0.99) FROM lineitem
        ) ORDER BY q
    """,
}
