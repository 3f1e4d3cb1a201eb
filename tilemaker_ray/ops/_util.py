"""Shared operator utilities."""

from __future__ import annotations

import pyarrow as pa


def schema_guard(schema: pa.Schema):
    """Normalizer to place AFTER a Dataset.join whose output feeds
    another shuffle: join tasks emit EMPTY blocks with an empty schema
    for empty hash partitions, and a downstream groupby/join then fails
    with acero's 'no match for key field' (seen in q_dedup_clusters
    before it dropped joins entirely). Maps every block onto the
    expected schema; empty/schemaless blocks become typed empty
    tables."""
    names = schema.names

    def fix(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return schema.empty_table()
        if not set(names) <= set(b.column_names):
            # a DATA-BEARING block missing expected columns is schema
            # drift (e.g. a Ray upgrade renaming join outputs) — raise
            # loudly instead of silently dropping rows
            raise ValueError(
                f"join output columns {b.column_names} missing expected "
                f"{sorted(set(names) - set(b.column_names))}")
        return pa.table({n: b.column(n).cast(schema.field(n).type)
                         for n in names}, schema=schema)

    return fix


def hash_tokens_u64(toks) -> "np.ndarray":
    """Per-token 64-bit hash, value-identical to
    ``pd.util.hash_array(toks)`` on object arrays but with the siphash
    run once per UNIQUE token (factorize + gather) — the corpus
    repeats each token hundreds of times per batch, and per-occurrence
    object hashing measured as the dominant cost of every
    token-hashing pass.

    pd.factorize encodes missing values (a null text row explodes to
    NaN) as code -1 and EXCLUDES them from the uniques, so a plain
    h[codes] gather would return the last unique's hash — a
    batch-composition-dependent bucket (and an IndexError on an
    all-NaN batch).  Those positions are restored to hash_array's own
    NaN hash, keeping the helper value-identical for every input.

    Used by the decontamination GramJoin — probe and doc grams must
    hash identically, so there is exactly one implementation."""
    import numpy as np
    import pandas as pd

    codes, uniq = pd.factorize(toks)
    if not len(uniq):
        out = np.zeros(len(codes), np.uint64)
    else:
        out = pd.util.hash_array(
            uniq.astype(object, copy=False))[np.clip(codes, 0, None)]
    na = codes < 0
    if na.any():
        # hash_array distinguishes None from NaN (ADVICE r4: None is
        # hashed as an object, NaN via the float path) — restore each
        # NA position to ITS OWN hash_array value.  The `is None` scan
        # touches only the NA rows, so the factorize-once win stands.
        out = out.copy()
        vals = np.asarray(toks, dtype=object)[na]
        is_none = np.fromiter((v is None for v in vals), bool, len(vals))
        fill = np.empty(len(vals), np.uint64)
        fill[~is_none] = pd.util.hash_array(
            np.array([np.nan], dtype=object))[0]
        if is_none.any():
            fill[is_none] = pd.util.hash_array(
                np.array([None], dtype=object))[0]
        out[na] = fill
    return out
