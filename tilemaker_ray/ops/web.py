"""Crawl-snapshot delta over the synthetic pages table (url, warc_ts,
html, text, lang): per url, new / gone / changed / unchanged across two
crawls, by content hash — the CDX-style revisit dedup every incremental
crawl pipeline runs before reprocessing.

The incremental tile pipeline looks `crawl_delta_ds` up in this module
at call time, so a caller can wrap it (a tracer, a test double) by
patching the module attribute.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

# Scale shape: each snapshot is hashed in its own streaming pass (the
# exchange carries (url, md5, side) — never page bytes), the union is
# bucketed by a url hash and each bucket resolves its statuses in one
# vectorised pass (_resolve_statuses). The bucket count follows the
# input size by the rule the tile exchange uses, so a small crawl is
# not cut into many buckets it barely fills; the exchange runs at most
# one reducer task per input block whatever the bucket count.


def _resolve_statuses(g: pd.DataFrame) -> pd.DataFrame:
    """(url, h, side) rows of any set of whole urls → one (url, status)
    row per url, sorted by url: `new` (only on the new side), `gone`
    (only on the old side), `unchanged` (equal hashes) or `changed`."""
    def side(name: str) -> pd.Series:
        rows = g.loc[g["side"] == name].drop_duplicates("url")
        return rows.set_index("url")["h"].rename(name)

    w = pd.concat([side("old"), side("new")], axis=1).sort_index()
    status = np.select(
        [w["old"].isna(), w["new"].isna(), w["old"] == w["new"]],
        ["new", "gone", "unchanged"], default="changed")
    return pd.DataFrame({"url": w.index.to_numpy(), "status": status})


def q_crawl_delta(sf_dir: str) -> pd.DataFrame:
    """(url, status) across the two synthetic crawl snapshots.
    Rows-only driver entry (the FULL OUTER JOIN oracle runs in
    tests/test_ops.py instead)."""
    from ..sources.pages import (pages_path, rows_for_sf,
                                 snapshot2_pages_path)
    n = rows_for_sf(sf_dir)
    out = crawl_delta_ds(pages_path(n), snapshot2_pages_path(n))
    return out.to_pandas().sort_values("url").reset_index(drop=True)


def crawl_delta_ds(old_dir: str, new_dir: str,
                   content_cols: tuple[str, ...] = ("text",),
                   ) -> "ray.data.Dataset":
    """(url, status ∈ {new, gone, changed, unchanged}) Dataset across
    two page-snapshot dirs — the CDX-style revisit classifier.  A
    tagged-union bucket join: both sides hash to the same url bucket,
    ONE exchange (pipelines/chain.exchange) resolves each url's pair of
    content hashes (no driver-side join; each bucket touches only its
    own urls).

    `content_cols` defines what counts as "changed" (md5 over the
    concatenation).  The default matches the CDX convention (body
    text); the incremental tile pipeline passes every column feature
    extraction reads — a lang-only re-annotation MUST count as changed
    there or its tiles go stale (review r4)."""
    from ..pipelines.chain import exchange
    from ..stages.salted import data_num_partitions, dir_input_bytes
    sides = {"old": old_dir, "new": new_dir}
    buckets = data_num_partitions(dir_input_bytes(old_dir)
                                  + dir_input_bytes(new_dir))

    def hashed(side: str):
        def f(b: pa.Table) -> pa.Table:
            u = b.column("url").to_pandas()
            cols = [b.column(c).to_pylist() for c in content_cols]
            h = pd.Series([hashlib.md5(
                "\x00".join(str(v) for v in vals).encode()).hexdigest()
                for vals in zip(*cols)])
            bk = (pd.util.hash_pandas_object(u, index=False)
                  % buckets).astype("int64")
            return pa.table({"bucket": pa.array(bk.to_numpy()),
                             "url": pa.array(u),
                             "h": pa.array(h),
                             "side": pa.array([side] * len(u),
                                              pa.string())})
        return f

    parts = [ray.data.read_parquet(p, columns=["url", *content_cols])
                .map_batches(hashed(s), batch_format="pyarrow")
             for s, p in sides.items()]
    return exchange(parts[0].union(parts[1]), "bucket",
                    _resolve_statuses, buckets)


def crawl_delta_oracle_sql(old_dir: str, new_dir: str) -> str:
    return f"""
        WITH o AS (
          SELECT url, md5(text) AS h
          FROM read_parquet('{old_dir}/*.parquet')
        ), n AS (
          SELECT url, md5(text) AS h
          FROM read_parquet('{new_dir}/*.parquet')
        )
        SELECT coalesce(o.url, n.url) AS url,
               CASE WHEN o.url IS NULL THEN 'new'
                    WHEN n.url IS NULL THEN 'gone'
                    WHEN o.h = n.h THEN 'unchanged'
                    ELSE 'changed' END AS status
        FROM o FULL OUTER JOIN n ON o.url = n.url
        ORDER BY url
    """
