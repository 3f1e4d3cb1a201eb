"""Local stand-in for the driver's correctness gate: run every
queries() entry at a given sf dir and compare against oracle_sql() via
DuckDB — row count, column names, and order-insensitive value
comparison (sorted by all columns). Usage:

    python scripts/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents"]


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            continue
        if np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
        if np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def main():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    qs = E.queries()
    oracles = E.oracle_sql(sf)
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = fn(sf)
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: {len(df)} rows (rows-only) [{dt:.1f}s]")
            n_pass += 1
            continue
        exp = con.sql(oracles[name]).df()
        a = normalize(df)
        b = normalize(exp)
        if list(a.columns) != list(b.columns):
            print(f"FAIL {name}: columns {list(a.columns)} vs {list(b.columns)}")
            n_fail += 1
            continue
        if len(a) != len(b):
            print(f"FAIL {name}: rows {len(a)} vs {len(b)}")
            n_fail += 1
            continue
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                          check_exact=False, rtol=1e-9, atol=1e-9)
            print(f"ok   {name}: {len(a)} rows MATCH [{dt:.1f}s]")
            n_pass += 1
        except AssertionError as ex:
            print(f"FAIL {name}: value mismatch: {str(ex)[:300]}")
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
