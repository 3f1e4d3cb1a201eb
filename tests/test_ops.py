"""Operator queries vs DuckDB oracles at sf0.001 (fast subset of the
driver's correctness gate; scripts/check_oracles.py runs the full set)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def check(name, con):
    import __ray_entry__ as E
    res = E.queries()[name](SF)
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    exp = con.sql(E.oracle_sql(SF)[name]).df()
    a, b = normalize(df), normalize(exp)
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, rtol=1e-9, atol=1e-9)


ORACLED = [
    "lineitem_agg", "events_window", "token_count",
    "quality_score", "dedup_keep_first",
    "fingerprint", "ngram_jaccard_pairs",
    "asof_join", "events_lag_delta", "global_quantile",
    "top_terms", "hash_sample",
    "group_quantile", "tfidf_top_term", "dedup_clusters",
    "lang_vocab", "orders_running_total",
    "events_hopping_window", "events_pivot",
    "decontaminate",
]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", ORACLED)
def test_oracle(name, con):
    check(name, con)


def test_driver_contract_shape():
    """Every oracle names a query (no merge constituent left behind),
    every oracled query precedes every rows-only one (the ORDERING
    CONTRACT in queries()), and test_oracle checks only oracled
    queries."""
    import __ray_entry__ as E

    names, oracles = list(E.queries()), E.oracle_sql()
    assert not set(oracles) - set(names)
    oracled = [n in oracles for n in names]
    assert oracled == sorted(oracled, reverse=True)
    assert set(ORACLED) <= set(oracles)


@pytest.mark.usefixtures("ray_session")
def test_dup_span_chars_properties(tmp_path):
    """Substring-dedup semantics on a controlled corpus: a shared
    S-char substring covers exactly S chars in both docs; all-unique
    text covers 0; a self-repetitive doc is covered end to end."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tilemaker_ray.ops.dedup import DUP_SPAN_L, q_dup_span_chars
    assert DUP_SPAN_L == 20
    shared = "0123456789abcdefghijklmnopqrs"          # 29 unique chars
    assert len(shared) == 29
    d = tmp_path / "sf_span"
    d.mkdir()
    # neighbors of `shared` differ between the two docs, so the shared
    # run is exactly the 29 chars (shared delimiters would extend it)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "AAAA BBBB CCCC DDDD-" + shared + "-EEEE FFFF GGGG",
            "hhhh iiii jjjj kkkk_" + shared + "_llll mmmm nnnn",
            "every gram here is globally unique, no repeats at all.",
            "Z" * 50,                                  # self-repetitive
        ]),
    }), str(d / "documents.parquet"))
    got = q_dup_span_chars(str(d)).set_index("doc_id")
    assert got.loc[0, "dup_span_chars"] == len(shared)
    assert got.loc[1, "dup_span_chars"] == len(shared)
    assert got.loc[2, "dup_span_chars"] == 0
    assert got.loc[3, "dup_span_chars"] == 50
    assert got.loc[3, "dup_span_frac"] == 1.0
    # keep-first removal: doc0 holds the first occurrence of every
    # shared gram, so only doc1 loses the 29 chars; the self-repeating
    # doc keeps one gram's worth of lead chars (positions 2.. removed)
    assert got.loc[0, "dup_removed_chars"] == 0
    assert got.loc[1, "dup_removed_chars"] == len(shared)
    assert got.loc[3, "dup_removed_chars"] == 49
    from tilemaker_ray.ops.dedup import q_dedup_substring_clean
    cl = q_dedup_substring_clean(str(d)).set_index("doc_id")
    assert shared in cl.loc[0, "clean_text"]
    assert shared not in cl.loc[1, "clean_text"]
    assert cl.loc[1, "clean_text"] == (
        "hhhh iiii jjjj kkkk_" "_llll mmmm nnnn")
    assert cl.loc[3, "clean_text"] == "Z"
    assert (cl["removed_chars"] == got["dup_removed_chars"]).all()


@pytest.mark.usefixtures("ray_session")
def test_lm_bits_hand_computed(tmp_path):
    """Smoothed-bigram LM score on a 2-doc corpus small enough to do
    by hand: N=5 tokens, V=2 vocab, C(a)=3 C(b)=2, C(ab)=2 C(ba)=1."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from tilemaker_ray.ops.text import LM_ALPHA, q_lm_bits
    assert LM_ALPHA == 0.5
    d = tmp_path / "sf_lm"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["a b a", "a b"]),
    }), str(d / "documents.parquet"))
    got = q_lm_bits(str(d)).set_index("doc_id")
    p1 = 3.5 / 6            # (C(a)+α)/(N+αV)
    pab = 2.5 / 4           # (C(ab)+α)/(C(a)+αV)
    pba = 1.5 / 3           # (C(ba)+α)/(C(b)+αV)
    exp0 = round(-(math.log2(p1) + math.log2(pab) + math.log2(pba)) / 3, 6)
    exp1 = round(-(math.log2(p1) + math.log2(pab)) / 2, 6)
    assert got.loc[0, "lm_bits"] == exp0
    assert got.loc[1, "lm_bits"] == exp1


@pytest.mark.usefixtures("ray_session")
def test_rolling_gram_hash_parity():
    """The vectorized Karp-Rabin production path: equal L-grams hash
    equal wherever they sit (the property dup-span relies on), distinct
    grams collide never on this corpus, and the full dup-span pipeline
    returns IDENTICAL results under 'rolling' and 'md5' hashing."""
    from tilemaker_ray.ops.dedup import (DUP_SPAN_L, _gram_hashes,
                                         dup_span_stats_ds)
    t = "abcdefghijklmnopqrstuvwxyz0123456789 the quick brown fox"
    h = _gram_hashes(t, DUP_SPAN_L, "rolling")
    assert len(h) == len(t) - DUP_SPAN_L + 1
    # same gram at two offsets hashes equal
    u = "XX" + t[5:25] + "YYYY" + t[5:25] + "Z"
    hu = _gram_hashes(u, DUP_SPAN_L, "rolling")
    assert hu[2] == hu[26]
    # all distinct grams of t hash distinct
    assert len(np.unique(h)) == len(h)
    # unicode beyond ASCII round-trips through the utf-32 view
    v = "héllo wörld ünicode — ça va très bien aujourd'hui ici"
    hv = _gram_hashes(v, DUP_SPAN_L, "rolling")
    assert len(hv) == len(v) - DUP_SPAN_L + 1

    a = (dup_span_stats_ds(SF, hash_method="md5").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (dup_span_stats_ds(SF, hash_method="rolling").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_winnow_shared_substring_guarantee():
    """Winnowing's core property (Schleimer et al. 2003 thm): any
    shared substring of length >= W+K-1 produces at least one shared
    fingerprint hash; disjoint texts share none."""
    from tilemaker_ray.ops.text import WINNOW_K, WINNOW_W, winnow_hashes
    shared = "a common passage long enough to straddle a full window"
    assert len(shared) >= WINNOW_W + WINNOW_K - 1
    h1 = set(winnow_hashes("left prefix text " + shared).tolist())
    h2 = set(winnow_hashes(shared + " unrelated suffix words").tolist())
    assert h1 & h2
    d1 = set(winnow_hashes("abcdefgh" * 8).tolist())
    d2 = set(winnow_hashes("01234567" * 8).tolist())
    assert not (d1 & d2)
    # short-text edge cases: below K hashes whole; K..K+W-1 grams → 1 min
    assert len(winnow_hashes("ab")) == 1
    assert len(winnow_hashes("x" * (WINNOW_K + 1))) == 1


@pytest.mark.usefixtures("ray_session")
def test_minhash_finds_near_dups(con):
    # plant a near-duplicate pair and check the LSH pipeline finds it
    from tilemaker_ray.ops.dedup import jaccard, minhash_signature, _minhash_params
    a, b = _minhash_params()
    t1 = "the quick brown fox jumps over the lazy dog again and again"
    t2 = "the quick brown fox jumps over the lazy dog again and once"
    s1 = minhash_signature(t1, a, b)
    s2 = minhash_signature(t2, a, b)
    est = (s1 == s2).mean()
    true_j = jaccard(t1, t2)
    assert abs(est - true_j) < 0.35  # 64 perms -> coarse estimate

    # identical docs collide in every band
    s3 = minhash_signature(t1, a, b)
    assert (s1 == s3).all()


@pytest.mark.usefixtures("ray_session")
def test_dedup_exact_finds_planted_duplicates():
    """The sf documents tables have no duplicate texts (the oracle only
    proves the empty case) — plant duplicates and run the same grouped
    pipeline on them."""
    import ray
    from ray.data.aggregate import Count, Min
    docs = pd.DataFrame({
        "doc_id": range(10),
        "text": ["unique %d" % i for i in range(7)] + ["dup a", "dup a", "dup b"],
    })
    ds = ray.data.from_pandas(docs)
    out = (ds.groupby("text")
             .aggregate(Min("doc_id", alias_name="rep_doc_id"),
                        Count(alias_name="n_dups"))).to_pandas()
    dups = out[out.n_dups > 1].sort_values("rep_doc_id")
    assert list(dups.rep_doc_id) == [7]
    assert list(dups.n_dups) == [2]
    assert (out.n_dups == 1).sum() == 8  # 7 unique + "dup b"


@pytest.mark.usefixtures("ray_session")
def test_simhash_langid_fingerprint_minhash_oracles(con):
    """The round-2 generated-SQL oracles match bit/row-exactly
    (simhash rides the merged fingerprint row; langid the merged
    quality_score row)."""
    for name in ("fingerprint", "quality_score", "minhash_pairs"):
        check(name, con)


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_recall_complete(con):
    """The minhash_pairs oracle is the exact n²-Jaccard: valid only
    while LSH recall is complete on the synthetic data — assert it."""
    import __ray_entry__ as E
    from tilemaker_ray.ops.dedup import _minhash_pairs_oracle_sql
    mine = E.queries()["minhash_pairs"](SF)
    exp = con.sql(_minhash_pairs_oracle_sql()).df()
    assert set(map(tuple, mine.values.tolist())) == \
        set(map(tuple, exp.values.tolist()))


@pytest.mark.usefixtures("ray_session")
def test_flagship_point_counts_oracle(con):
    """The full flagship engine path (extract tasks → assign → pk
    shuffle → O3 sort + limit + combine assembly) vs the exact SQL twin
    (FNV-1a in list_reduce + mercator tile math) — VERDICT r2 #6."""
    import duckdb
    from tilemaker_ray.pipelines.flagship import (flagship_points_oracle_sql,
                                                  q_flagship_point_counts)
    from tilemaker_ray.sources.pages import pages_path, rows_for_sf
    mine = q_flagship_point_counts(SF)
    c = duckdb.connect()
    exp = c.sql(flagship_points_oracle_sql(pages_path(rows_for_sf(SF)))).df()
    a, b = normalize(mine), normalize(exp)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_seq_pack_oracle_and_bucket_invariance():
    """Sequence packing vs the SQL window-cumsum oracle, AND the
    distributed prefix sum must be bucket-size invariant (bucket=64
    forces 8 buckets at SF, exercising the cross-bucket offset
    broadcast that a single 4096-doc bucket would hide).  Spans must
    tile the stream: doc i+1 starts where doc i ends, block indices
    consistent with seq_len."""
    import duckdb

    from tilemaker_ray.ops.text import SEQ_LEN, q_seq_pack, seq_pack_oracle_sql

    mine = q_seq_pack(SF)
    small = q_seq_pack(SF, bucket=64)
    pd.testing.assert_frame_equal(mine, small)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    exp = con.sql(seq_pack_oracle_sql()).df()
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)
    s = mine.sort_values("doc_id")
    assert s["start_tok"].iloc[0] == 0
    np.testing.assert_array_equal(s["end_tok"].to_numpy()[:-1],
                                  s["start_tok"].to_numpy()[1:])
    np.testing.assert_array_equal(s["first_block"],
                                  s["start_tok"] // SEQ_LEN)
    np.testing.assert_array_equal(s["last_block"],
                                  (s["end_tok"] - 1) // SEQ_LEN)


@pytest.mark.usefixtures("ray_session")
def test_badwords_oracle_and_counting():
    """Blocklist scrub vs its SQL twin at SF, plus crafted counting
    semantics: adjacent blocklist terms share a delimiter (lookahead),
    substrings of longer tokens never match."""
    import duckdb

    from tilemaker_ray.ops.text import BADWORDS_ORACLE, q_badwords
    mine = q_badwords(SF).sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    exp = (con.sql(BADWORDS_ORACLE).df()
              .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)
    assert mine["n_badwords"].sum() > 0          # rule actually fires
    assert 0 < mine["badword_pass"].sum() < len(mine)
    import re
    from tilemaker_ray.ops.text import BADWORDS
    rx = re.compile(r"(?:^| )(?:"
                    + "|".join(map(re.escape, BADWORDS)) + r")(?= |\Z)")
    assert len(rx.findall("slow slow big")) == 3
    assert len(rx.findall("slowly bigger slow")) == 1
    # Trailing-newline parity (review r4): $ matches before a final
    # '\n', but the split-on-space oracle keeps the newline inside the
    # last token — \Z must NOT count it.  Verified against DuckDB.
    assert len(rx.findall("ends with slow\n")) == 0
    nl = con.sql("SELECT len(list_filter(string_split("
                 "'ends with slow' || chr(10), ' '), "
                 "w -> w IN ('slow', 'big')))").fetchone()[0]
    assert nl == 0


@pytest.mark.usefixtures("ray_session")
def test_crawl_delta_oracle():
    """Per-url lifecycle status across the two synthetic crawl
    snapshots vs the FULL-OUTER-JOIN content-hash oracle (this test IS
    the op's oracle — the driver window is full); all four statuses
    must occur, and the counts must match the generator's residue
    classes (gone: i%7==0, changed: i%5==0 minus overlaps, new: 10%)."""
    import duckdb

    from tilemaker_ray.ops.web import crawl_delta_oracle_sql, q_crawl_delta
    from tilemaker_ray.sources.pages import (pages_path, rows_for_sf,
                                             snapshot2_pages_path)

    n = rows_for_sf(SF)
    mine = q_crawl_delta(SF)
    con = duckdb.connect()
    exp = (con.sql(crawl_delta_oracle_sql(pages_path(n),
                                          snapshot2_pages_path(n)))
              .df())
    pd.testing.assert_frame_equal(mine.reset_index(drop=True),
                                  exp.reset_index(drop=True),
                                  check_dtype=False)
    c = mine["status"].value_counts()
    gone = (n + 6) // 7
    changed = (n + 4) // 5 - (n + 34) // 35
    assert c["gone"] == gone and c["changed"] == changed
    assert c["new"] == n // 10
    assert c["unchanged"] == n - gone - changed


def test_resolve_statuses_hand_built():
    """One pass over urls from several buckets, in shuffle order: a url
    only on the old side is gone, only on the new side new, equal
    hashes unchanged, different hashes changed; a url seen twice on
    one side still gives one row."""
    from tilemaker_ray.ops.web import _resolve_statuses
    g = pd.DataFrame({
        "bucket": [5, 2, 5, 9, 2, 9, 5, 5],
        "url": ["https://b.example/2", "https://a.example/1",
                "https://b.example/2", "https://c.example/3",
                "https://d.example/4", "https://c.example/3",
                "https://e.example/5", "https://e.example/5"],
        "h": ["h2", "h1", "h2", "h3old", "h4", "h3new", "h5", "h5"],
        "side": ["new", "old", "old", "old", "new", "new", "old", "old"],
    })
    want = pd.DataFrame({
        "url": ["https://a.example/1", "https://b.example/2",
                "https://c.example/3", "https://d.example/4",
                "https://e.example/5"],
        "status": ["gone", "unchanged", "changed", "new", "gone"],
    })
    pd.testing.assert_frame_equal(_resolve_statuses(g), want)


@pytest.mark.usefixtures("ray_session")
def test_crawl_delta_lang_only_change(tmp_path):
    """A page whose text is the same but whose lang was re-annotated is
    unchanged by the default (text) hash and changed once lang is one
    of the content columns, as the incremental pipeline passes them."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tilemaker_ray.ops.web import crawl_delta_ds

    def snapshot(name, langs):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(pa.table({
            "url": ["https://a.example/1", "https://b.example/2"],
            "html": ["<p>one</p>", "<p>two</p>"],
            "text": ["one", "two"],
            "lang": langs,
        }), d / "part-0.parquet")
        return str(d)

    old = snapshot("old", ["en", "en"])
    new = snapshot("new", ["en", "de"])

    def statuses(**kw):
        df = crawl_delta_ds(old, new, **kw).to_pandas()
        return dict(zip(df["url"], df["status"]))

    assert statuses() == {"https://a.example/1": "unchanged",
                          "https://b.example/2": "unchanged"}
    assert statuses(content_cols=("text", "lang", "html")) == {
        "https://a.example/1": "unchanged",
        "https://b.example/2": "changed"}


@pytest.mark.usefixtures("ray_session")
def test_global_quantile_point_mass_refinement():
    """The histogram-refinement path: a column that is one point mass
    plus a thin tail still recovers exact quantiles (a single
    overweight bin must refine, not OOM the gather)."""
    import tilemaker_ray.ops.relational as R
    rng = np.random.default_rng(7)
    v = np.concatenate([np.full(50_000, 100.0), rng.uniform(0, 1000, 1000)])
    exp = {q: float(np.quantile(v, q, method="linear")) for q in R.QUANTILE_QS}
    import pyarrow.parquet as pq
    import pyarrow as pa
    import tempfile, os
    d = tempfile.mkdtemp()
    os.makedirs(f"{d}/sf_fake", exist_ok=True)
    pq.write_table(pa.table({"l_extendedprice": v}),
                   f"{d}/sf_fake/lineitem.parquet")
    got = R.q_global_quantile(f"{d}/sf_fake")
    for _, row in got.iterrows():
        assert abs(row["value"] - round(exp[row["q"]], 6)) < 1e-6


@pytest.mark.usefixtures("ray_session")
def test_asof_join_no_prior_view_dropped():
    """Purchases with no earlier view by the same user must not appear
    (inner as-of semantics, matching the SQL ASOF JOIN)."""
    import duckdb
    import __ray_entry__ as E
    res = E.queries()["asof_join"](SF)
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    assert (df.view_ts <= df.purchase_ts).all()
    c = duckdb.connect()
    c.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
    n_unmatched = c.sql("""
        WITH p AS (SELECT user_id, ts FROM events WHERE event_type='purchase'),
             v AS (SELECT user_id, min(ts) AS first_view FROM events
                   WHERE event_type='view' GROUP BY user_id)
        SELECT count(*) FROM p LEFT JOIN v USING (user_id)
        WHERE first_view IS NULL OR p.ts < first_view
    """).fetchone()[0]
    n_purchases = c.sql(
        "SELECT count(*) FROM events WHERE event_type='purchase'").fetchone()[0]
    assert len(df) == n_purchases - n_unmatched


@pytest.mark.usefixtures("ray_session")
def test_dedup_clusters_transitive_chain(tmp_path):
    """Multi-hop propagation: A~B and B~C above threshold but A~C
    below it must still land in ONE cluster labelled min(doc_id) —
    requires >1 label-propagation round."""
    from tilemaker_ray.ops.dedup import jaccard, q_dedup_clusters
    toks = [f"t{i}" for i in range(1, 17)]
    a = " ".join(toks[0:12])
    b = " ".join(toks[2:14])
    c = " ".join(toks[4:16])
    assert jaccard(a, b) >= 0.5 and jaccard(b, c) >= 0.5
    assert jaccard(a, c) < 0.5
    import pyarrow as pa
    import pyarrow.parquet as pq
    d = tmp_path / "sf_chain"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([a, b, c, "zz yy xx ww vv uu"]),
    }), str(d / "documents.parquet"))
    out = q_dedup_clusters(str(d))
    got = dict(zip(out.doc_id, out.cluster_id))
    assert got == {0: 0, 1: 0, 2: 0, 3: 3}


@pytest.mark.usefixtures("ray_session")
def test_global_quantile_two_point_masses():
    """Two >cap point masses straddling different quantile ranks must
    BOTH refine independently (the old code bailed out of refinement
    whenever more than one bin was needed) and the p50 rank pair that
    straddles the mass boundary must interpolate across bins."""
    import tilemaker_ray.ops.relational as R
    v = np.concatenate([np.full(300_000, 100.0), np.full(300_000, 200.0)])
    exp = {q: float(np.quantile(v, q, method="linear")) for q in R.QUANTILE_QS}
    import pyarrow.parquet as pq
    import pyarrow as pa
    import tempfile, os
    d = tempfile.mkdtemp()
    os.makedirs(f"{d}/sf_fake2", exist_ok=True)
    pq.write_table(pa.table({"l_extendedprice": v}),
                   f"{d}/sf_fake2/lineitem.parquet")
    got = R.q_global_quantile(f"{d}/sf_fake2")
    for _, row in got.iterrows():
        assert abs(row["value"] - round(exp[row["q"]], 6)) < 1e-6, row


@pytest.mark.usefixtures("ray_session")
def test_bpe_distributed_matches_reference():
    """Distributed BPE training reproduces the classic single-threaded
    algorithm bit-identically (same merge sequence, deterministic
    tie-break), and the apply-side tokenizer compresses: learned-token
    count per doc sits between the word count and the char count."""
    import duckdb
    from tilemaker_ray.ops.bpe import (bpe_apply_ds, bpe_train,
                                       bpe_train_reference)
    m_dist = bpe_train(SF, 12)
    wf = dict(duckdb.connect().execute(
        f"SELECT tok, count(*) FROM (SELECT unnest(string_split(text,' '))"
        f" AS tok FROM read_parquet('{SF}/documents.parquet'))"
        f" GROUP BY tok").fetchall())
    assert m_dist == bpe_train_reference(wf, 12)
    assert len(m_dist) == 12

    df = bpe_apply_ds(SF, m_dist).to_pandas()
    lens = duckdb.connect().execute(
        f"SELECT doc_id, len(string_split(text,' ')) AS nw, length(text)"
        f" AS nc FROM read_parquet('{SF}/documents.parquet')").df()
    m = df.merge(lens, on="doc_id")
    assert (m.n_bpe_trained_tokens >= m.nw).all()       # >= 1 tok/word
    assert (m.n_bpe_trained_tokens <= m.nc + m.nw).all()  # <= chars+EOW
    # merges actually fire: strictly fewer symbols than no-merge bound
    assert (m.n_bpe_trained_tokens < m.nc - m.nw + 1 + m.nw).any()


def test_bloom_no_false_negatives_and_fpr():
    from tilemaker_ray.pipelines.incremental import bloom_bits, bloom_contains
    rng = np.random.default_rng(6)
    m_bits = 1 << 17
    members = rng.choice(10_000_000, 8_000, replace=False).astype(np.int64)
    bits = bloom_bits(members, m_bits)
    assert bloom_contains(bits, members, m_bits).all()   # zero FN, always
    others = np.setdiff1d(
        rng.choice(10_000_000, 60_000, replace=False).astype(np.int64),
        members)
    fpr = bloom_contains(bits, others, m_bits).mean()
    assert fpr < 0.02, fpr    # ~0.3% theoretical at 16 bits/key, k=5
    # OR-merge property: split-and-or equals whole
    a = bloom_bits(members[:3000], m_bits)
    b = bloom_bits(members[3000:], m_bits)
    assert (np.bitwise_or(a, b) == bits).all()


@pytest.mark.usefixtures("ray_session")
def test_group_quantile_point_mass_group(tmp_path, monkeypatch):
    """ADVICE r3: a group whose rank-straddling bin is a point mass
    larger than GATHER_CAP must refine through the capped recursive
    path instead of gathering the whole mass onto the driver — while
    sibling normal groups keep the bulk-gather fast path."""
    import tilemaker_ray.ops.relational as R
    rng = np.random.default_rng(11)
    a = np.concatenate([np.full(8_000, 100.0), rng.uniform(0, 1000, 200)])
    b = rng.uniform(0, 500, 1_000)
    import pyarrow as pa
    import pyarrow.parquet as pq
    d = tmp_path / "sf_gq"
    d.mkdir()
    pq.write_table(pa.table({
        "l_returnflag": pa.array(["A"] * len(a) + ["B"] * len(b)),
        "l_extendedprice": pa.array(np.concatenate([a, b])),
    }), str(d / "lineitem.parquet"))
    monkeypatch.setattr(R, "GATHER_CAP", 1_000)
    got = R.q_group_quantile(str(d)).set_index("l_returnflag")
    for g, v in (("A", a), ("B", b)):
        for q, name in zip(R.GROUP_QUANTILE_QS, ("p50", "p90")):
            exp = float(np.quantile(v, q, method="linear"))
            assert abs(got.loc[g, name] - round(exp, 6)) < 1e-6, (g, name)


@pytest.mark.usefixtures("ray_session")
def test_events_pivot_absent_type(tmp_path):
    """ADVICE r3: an event type entirely absent from the input must
    emit all-zero columns (like the SQL FILTER oracle), not KeyError."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from tilemaker_ray.ops.relational import PIVOT_TYPES, q_events_pivot
    d = tmp_path / "sf_pivot"
    d.mkdir()
    ts = pa.array(np.array(["2024-01-01T10:00:00", "2024-01-01T11:00:00",
                            "2024-01-02T10:00:00"], dtype="datetime64[us]"))
    pq.write_table(pa.table({
        "ts": ts,
        "event_type": pa.array(["click", "view", "click"]),
        "value": pa.array([1.5, 2.0, 3.0]),
    }), str(d / "events.parquet"))
    out = q_events_pivot(str(d))
    assert len(out) == 2
    for t in PIVOT_TYPES:
        assert f"{t}_n" in out.columns and f"{t}_value" in out.columns
    assert out["click_n"].tolist() == [1, 1]
    for t in ("purchase", "signup", "error"):
        assert out[f"{t}_n"].tolist() == [0, 0]
        assert out[f"{t}_value"].tolist() == [0.0, 0.0]


@pytest.mark.usefixtures("ray_session")
def test_hopping_window_oracle_timezone_free():
    """ADVICE r3: the hopping-window oracle must produce identical
    window_start values regardless of the DuckDB session time zone
    (the Ray side is naive int64 epoch arithmetic)."""
    import duckdb
    import __ray_entry__ as E
    sql = E.oracle_sql()["events_hopping_window"]
    frames = []
    for tz in ("UTC", "America/New_York", "Asia/Tokyo"):
        c = duckdb.connect()
        c.sql(f"SET TimeZone='{tz}'")
        c.sql(f"CREATE VIEW events AS SELECT * FROM "
              f"read_parquet('{SF}/events.parquet')")
        frames.append(c.sql(sql).df())
    pd.testing.assert_frame_equal(frames[0], frames[1])
    pd.testing.assert_frame_equal(frames[0], frames[2])


def test_mvt_value_memo_skips_nan():
    """ADVICE r3: float NaN never hits the memo (NaN != NaN), so it
    must not insert dead entries that evict useful ones."""
    from tilemaker_ray import mvt
    mvt._VALUE_MEMO.clear()
    a = mvt._encode_value_memo(float("nan"))
    b = mvt._encode_value_memo(float("nan"))
    assert a == b == mvt._encode_value(float("nan"))
    assert len(mvt._VALUE_MEMO) == 0
    # normal floats still memoize
    mvt._encode_value_memo(1.25)
    assert len(mvt._VALUE_MEMO) == 1


def test_dedup_exact_shuffle_carries_hash_not_text():
    """VERDICT r3 #3: the exact-dedup exchange rows are (h128, doc_id)
    — 24 bytes/row — never the document text."""
    import hashlib
    import pyarrow as pa
    from tilemaker_ray.ops.dedup import exact_hash_rows
    b = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array(["same text", "same text", "other"])})
    out = exact_hash_rows(b)
    assert out.column_names == ["h_hi", "h_lo", "doc_id"]
    assert "text" not in out.column_names
    hi = out.column("h_hi").to_pylist()
    lo = out.column("h_lo").to_pylist()
    assert (hi[0], lo[0]) == (hi[1], lo[1])
    assert (hi[0], lo[0]) != (hi[2], lo[2])
    d = hashlib.md5(b"same text").digest()
    assert hi[0] == int.from_bytes(d[:8], "little", signed=True)
    assert lo[0] == int.from_bytes(d[8:], "little", signed=True)


@pytest.mark.usefixtures("ray_session")
def test_ngram_max_df_bounds_hot_shingle(tmp_path):
    """VERDICT r3 #4: the pipeline entrypoint caps shingle document
    frequency by default (a df=m stop-shingle emits O(m²) pair rows);
    pairs supported only by a hot shingle vanish under the cap while
    true near-dups (many low-df shingles) survive.  The oracle query
    passes max_df=None and stays exact."""
    import inspect
    import pyarrow as pa
    import pyarrow.parquet as pq
    from tilemaker_ray.ops.dedup import (ngram_jaccard_pairs_ds,
                                         q_ngram_jaccard_pairs)
    # default is ON for pipeline use
    sig = inspect.signature(ngram_jaccard_pairs_ds)
    assert sig.parameters["max_df"].default is not None
    d = tmp_path / "sf_hot"
    d.mkdir()
    hot = ["the quick fox"] * 12            # one shingle, df=12
    near = ["aa bb cc dd ee ff gg hh",      # 5 of 6 shingles shared
            "aa bb cc dd ee ff gg zz"]      # J = 5/7 >= 0.5, all df=2
    pq.write_table(pa.table({
        "doc_id": pa.array(range(14), pa.int64()),
        "text": pa.array(hot + near),
    }), str(d / "documents.parquet"))
    capped = ngram_jaccard_pairs_ds(str(d), max_df=5).to_pandas()
    got = set(zip(capped.doc_a.astype(int), capped.doc_b.astype(int)))
    assert got == {(12, 13)}  # hot-shingle pairs dropped, true dup kept
    exact = q_ngram_jaccard_pairs(str(d))  # oracle variant: max_df=None
    pairs = set(zip(exact.doc_a.astype(int), exact.doc_b.astype(int)))
    assert (12, 13) in pairs and len(pairs) == 66 + 1


@pytest.mark.usefixtures("ray_session")
def test_dedup_exact_confirm_path(tmp_path):
    """The two-pass exact dedup (hash exchange + candidate-only text
    confirm) on data that actually HAS duplicate groups."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from tilemaker_ray.ops.dedup import q_dedup_exact
    d = tmp_path / "sf_dups"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([5, 1, 2, 3, 4, 0], pa.int64()),
        "text": pa.array(["x", "x", "x", "y", "y", "z"]),
    }), str(d / "documents.parquet"))
    out = q_dedup_exact(str(d))
    assert out.values.tolist() == [[1, 3], [3, 2]]


@pytest.mark.usefixtures("ray_session")
def test_gopher_rules_hand_computed(tmp_path):
    """Gopher gate on a corpus small enough to check by hand: word
    count, hapax count, mode frequency, and each rule's failure mode
    (too short, too-long mean token, low diversity)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tilemaker_ray.ops.text import q_gopher_rules

    passing = " ".join(f"word{c}" for c in "abcdefghijkl")   # 12 hapax
    d = tmp_path / "sf_gopher"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "aa bb aa cc",                                   # too short
            passing,                                         # passes all
            " ".join(["superduperlongword"] * 15),           # mean>10, dup
            " ".join(["x"] * 20),                            # mean<3
        ]),
    }), str(d / "documents.parquet"))
    got = q_gopher_rules(str(d)).set_index("doc_id")
    assert got.loc[0].tolist() == [4, 2, 2, 0]     # n, hapax, maxf, pass
    assert got.loc[1].tolist() == [12, 12, 1, 1]
    assert got.loc[2, "gopher_pass"] == 0 and got.loc[2, "max_tok_freq"] == 15
    assert got.loc[3, "gopher_pass"] == 0 and got.loc[3, "n_hapax"] == 0


@pytest.mark.usefixtures("ray_session")
def test_weighted_sample_inclusion_rule():
    """Every kept doc satisfies hash64 % MOD < n_chars and every
    dropped one violates it (recomputed directly from the parquet),
    and the kept fraction sits near E[n_chars]/MOD."""
    import hashlib

    import pyarrow.parquet as pq

    from tilemaker_ray.ops.sampling import WEIGHT_MOD, q_weighted_sample

    got = set(q_weighted_sample(SF)["doc_id"])
    src = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "text", "n_chars"]).to_pandas()
    h = src["text"].map(lambda t: int.from_bytes(
        hashlib.md5(t.encode()).digest()[8:16], "little"))
    keep = (h % WEIGHT_MOD) < src["n_chars"]
    assert set(src.loc[keep, "doc_id"]) == got
    assert 0 < len(got) < len(src)


@pytest.mark.usefixtures("ray_session")
def test_cdc_chunk_dedup(tmp_path):
    """Content-defined chunking properties: chunk lengths conserve the
    text, an exact duplicate doc is 100% dup bytes, and an insertion
    only disturbs chunks overlapping the edit (shift resistance —
    the suffix chunk stream realigns)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tilemaker_ray.ops.dedup import _cdc_chunks, q_cdc_chunk_stats

    base = ("documents change near the beginning yet their later "
            "chunks keep aligning because boundaries come from local "
            "content only; sphinx of black quartz judge my vow 12345 "
            "pack my box with five dozen liquor jugs 67890 and more "
            "varied filler text keeps the window hashes well mixed")
    h1, l1 = _cdc_chunks(base)
    assert l1.sum() == len(base)
    assert len(h1) >= 3          # enough chunks for the test to bite
    shifted = "INSERTED PREFIX EDIT " + base
    h2, l2 = _cdc_chunks(shifted)
    assert l2.sum() == len(shifted)
    # shift resistance: all but the first chunk(s) realign
    shared = set(h1.tolist()) & set(h2.tolist())
    assert len(shared) >= len(h1) - 2
    # equal chunks hash equal wherever they sit (position independence)
    d = tmp_path / "sf_cdc"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([base, base, "completely unrelated short x"]),
    }), str(d / "documents.parquet"))
    df = q_cdc_chunk_stats(str(d)).set_index("doc_id")
    assert df.loc[0, "dup_chunk_bytes"] == len(base)
    assert df.loc[1, "dup_chunk_bytes"] == len(base)
    assert df.loc[0, "n_dup_chunks"] == df.loc[0, "n_chunks"]
    assert df.loc[2, "dup_chunk_bytes"] == 0
    assert df["n_chunks"].sum() == 2 * len(h1) + len(
        _cdc_chunks("completely unrelated short x")[0])


@pytest.mark.usefixtures("ray_session")
def test_lm_tercile_matches_duckdb_ntile(con):
    """Exact distributed ntile (histogram-refinement cutoffs + tie
    resolution on doc_id) vs DuckDB ntile(3), tie-for-tie, plus the
    ntile size contract (larger tiles first)."""
    from tilemaker_ray.ops.text import LM_TILES, ORACLES, q_lm_tercile

    got = q_lm_tercile(SF)
    exp = con.sql(ORACLES["lm_tercile"]).df()
    m = got.merge(exp, on="doc_id", suffixes=("", "_sql"))
    assert (m["lm_tercile"] == m["lm_tercile_sql"]).all()
    sizes = got["lm_tercile"].value_counts().sort_index().tolist()
    assert sum(sizes) == len(got) and len(sizes) == LM_TILES
    assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))


@pytest.mark.usefixtures("ray_session")
def test_pointer_doubling_components(tmp_path):
    """The O(log d) pointer-doubling labeler: on a 48-node PATH graph
    (diameter 47) it must converge in ~log rounds, not ~d rounds, with
    every node labelled 0; on a multi-component graph it must match
    the O(d) min-label propagation used by q_dedup_clusters."""
    import pyarrow as pa
    import ray.data

    from tilemaker_ray.ops.dedup import components_pointer_doubling

    n = 48
    docs = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64))}))
    path = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(np.arange(n - 1, dtype=np.int64)),
        "doc_b": pa.array(np.arange(1, n, dtype=np.int64))}))
    labels, rounds = components_pointer_doubling(docs, path)
    assert (labels["label"] == 0).all()
    # path diameter 47: plain propagation needs ~47 rounds; doubling
    # (relax halves distance-to-root, jump halves pointer depth) must
    # land well under half that — generous cap at 14
    assert rounds <= 14

    # multi-component graph: {0,1,2} via chain, {5,7} pair, 9 isolated
    docs2 = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(np.array([0, 1, 2, 5, 7, 9], np.int64))}))
    edges2 = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(np.array([0, 1, 5], np.int64)),
        "doc_b": pa.array(np.array([1, 2, 7], np.int64))}))
    labels2, _ = components_pointer_doubling(docs2, edges2)
    got = dict(zip(labels2["doc_id"], labels2["label"]))
    assert got == {0: 0, 1: 0, 2: 0, 5: 5, 7: 5, 9: 9}

    # empty edge set: every node is its own canonical representative
    labels3, r3 = components_pointer_doubling(
        docs2, ray.data.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64())})))
    assert r3 == 0 and (labels3["label"].to_numpy()
                        == labels3["doc_id"].to_numpy()).all()


@pytest.mark.usefixtures("ray_session")
def test_lang_balance_properties():
    """Language rebalancing: expected kept per language ≈ the smallest
    language's size; every kept doc satisfies the integer rule
    hash % n_lang < n_min recomputed directly from the parquet."""
    import hashlib

    import pyarrow.parquet as pq

    from tilemaker_ray.ops.sampling import q_lang_balance

    got = q_lang_balance(SF)
    src = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "lang", "text"]).to_pandas()
    n = src["lang"].value_counts()
    mn = int(n.min())
    h = src["text"].map(lambda t: int.from_bytes(
        hashlib.md5(t.encode()).digest()[8:16], "little"))
    keep = (h % src["lang"].map(n).astype("uint64")) < mn
    assert set(src.loc[keep, "doc_id"]) == set(got["doc_id"])
    kept = got["lang"].value_counts()
    # Bernoulli with p = mn/n_lang: each language lands near mn
    assert (kept > 0.6 * mn).all() and (kept < 1.4 * mn).all()
    # the dominant language was actually downsampled
    assert kept[n.idxmax()] < n.max() * 0.7


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_ngram_brute_parity():
    """The hash-join scale path matches a brute-force token-aligned
    scan exactly (collisions closed by the gram-string confirm)."""
    import pandas as pd
    from tilemaker_ray.ops.text import _probe_grams, q_decontaminate_ngram

    got = q_decontaminate_ngram(SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    probes = _probe_grams(SF)
    grams = {}                    # gram string -> min probe_id
    for pid, g in zip(probes["probe_id"], probes["gram"]):
        grams[g] = min(grams.get(g, pid), pid)
    by_n = {}
    for g, pid in grams.items():
        by_n.setdefault(len(g.split(" ")), {})[g] = pid
    rows = []
    for did, text in zip(docs["doc_id"], docs["text"]):
        toks = text.split(" ")
        best, hits = None, 0
        for n, gset in by_n.items():
            for i in range(len(toks) - n + 1):
                g = " ".join(toks[i:i + n])
                if g in gset:
                    hits += 1
                    pid = gset[g]
                    best = pid if best is None else min(best, pid)
        if best is not None:
            rows.append({"doc_id": did, "probe_id": best, "n_hits": hits})
    exp = (pd.DataFrame(rows, columns=["doc_id", "probe_id", "n_hits"])
           .astype("int64").sort_values("doc_id").reset_index(drop=True))
    assert len(exp) >= 5          # the fixture plants real hits
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_ngram_token_boundary(tmp_path):
    """Token-aligned semantics: a probe gram embedded MID-WORD is not
    contamination (the substring variant would flag it); an aligned
    occurrence is, and the smallest matching probe wins."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from tilemaker_ray.ops.text import PROBE_MOD, q_decontaminate_ngram

    g0 = "alpha beta gamma delta epsilon zeta eta theta"
    g1 = "one two three four five six seven eight"
    texts = {
        0: g0 + " trailing words here",              # probe 0
        PROBE_MOD: g1 + " more trailing words",      # probe 101
        1: "prefix " + g0 + " suffix",               # aligned -> hit p0
        2: "prefixalpha beta gamma delta epsilon zeta eta theta x",
        3: f"x {g1} y {g0} z",                       # both -> min pid 0
        4: "no contamination at all in this document text",
    }
    d = tmp_path / "sf_ngram"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
    }), str(d / "documents.parquet"))
    got = q_decontaminate_ngram(str(d)).set_index("doc_id")
    # probes self-match (their own first-8 gram), doc 1 and 3 hit
    assert set(got.index) == {0, PROBE_MOD, 1, 3}
    assert got.loc[1, "probe_id"] == 0
    assert got.loc[3, "probe_id"] == 0 and got.loc[3, "n_hits"] == 2
    assert 2 not in got.index     # mid-word: NOT token-aligned


def test_bpe_tiebreak_is_lexicographic():
    """Merge-count ties resolve by (a, b) lexicographic — the
    deterministic pick VERDICT r4 #4 requires: every pair here ties at
    count 2 in round one, so the winner is forced by the order alone."""
    from tilemaker_ray.ops.bpe import EOW, bpe_train_reference
    # "zx" x2 and "ya" x2: round-1 pair counts all tie at 2 —
    # ('a', EOW) vs ('y','a') vs ('z','x') vs ('x',EOW): lexicographic
    # min is ('a', EOW) (first element decides: 'a' < 'x' < 'y' < 'z')
    wf = {"zx": 2, "ya": 2}
    merges = bpe_train_reference(wf, 1)
    assert merges == [("a", EOW)]
    # and the full sequence stays deterministic across dict orderings
    assert (bpe_train_reference({"ya": 2, "zx": 2}, 4)
            == bpe_train_reference(wf, 4))


def test_pandas_nul_hashing_is_why_eow_is_not_nul():
    """Root-cause record for the r4 BPE flake: pandas' string
    hashtable truncates at embedded NUL bytes, so groupby keys
    'a\\x00' and 'a' COLLAPSE and their counts merge — with EOW='\\x00'
    the distributed trainer inflated ('x','y\\x00') counts whenever
    ('x','y') coexisted.  This test pins the environment behavior
    (if pandas ever fixes it, this documents why EOW moved to U+E000)
    and asserts the chosen sentinel is hash-stable."""
    from tilemaker_ray.ops.bpe import EOW
    assert EOW == "" and "\x00" not in EOW
    # the hazard that forced the move (pandas 2.x behavior):
    codes, _ = pd.factorize(pd.Series(["a\x00", "a"]))
    assert codes[0] == codes[1]          # NUL-truncated collision
    # the sentinel in use does NOT collide:
    codes2, _ = pd.factorize(pd.Series(["a" + EOW, "a"]))
    assert codes2[0] != codes2[1]
    h = pd.util.hash_pandas_object(
        pd.Series(["a" + EOW, "a"]), index=False)
    assert h.iloc[0] != h.iloc[1]


@pytest.mark.usefixtures("ray_session")
def test_bpe_block_order_invariance():
    """The distributed trainer's merge sequence is invariant to input
    block count and row order (the r4 flake's suspected mechanism was
    a tie resolved by arrival order): identical merges from 1-block,
    7-block and row-shuffled word tables, all equal to the reference
    on the same frequencies — ties included (every word has freq 1)."""
    import ray.data

    from tilemaker_ray.ops.bpe import bpe_train_from_words, bpe_train_reference
    rng = np.random.default_rng(17)
    words = ["".join(rng.choice(list("abcd"), rng.integers(2, 6)))
             for _ in range(120)]
    words = sorted(set(words))
    wf = {w: 1 for w in words}       # all-tied frequencies
    want = bpe_train_reference(wf, 10)
    base = pd.DataFrame({"word": words,
                         "n": np.ones(len(words), np.int64)})
    perms = [base, base.iloc[::-1].reset_index(drop=True),
             base.sample(frac=1, random_state=3).reset_index(drop=True)]
    for nblocks, df in zip((1, 7, 4), perms):
        ds = ray.data.from_pandas(df).repartition(nblocks)
        got = bpe_train_from_words(ds, 10)
        assert got == want, (nblocks, got[:3], want[:3])


def test_hash_tokens_u64_value_identity_incl_none():
    """hash_tokens_u64 must equal pd.util.hash_array elementwise for
    every NA flavor callers can see (ADVICE r4: pyarrow null strings
    surface as None, exploded nulls as NaN) and for empty input."""
    from tilemaker_ray.ops._util import hash_tokens_u64
    arr = np.array(["a", None, np.nan, "b", "a", None, "", "a"],
                   dtype=object)
    np.testing.assert_array_equal(hash_tokens_u64(arr),
                                  pd.util.hash_array(arr))
    allna = np.array([None, np.nan], dtype=object)
    np.testing.assert_array_equal(hash_tokens_u64(allna),
                                  pd.util.hash_array(allna))
    assert len(hash_tokens_u64(np.array([], dtype=object))) == 0
