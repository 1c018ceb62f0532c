"""Full-text relevance scoring + per-group normalization over ``documents``.

Two operators a training-data pipeline needs that the dedup/textstats
families don't cover:

- ``bm25_topk`` — Okapi BM25 ranking of every document against a fixed
  query-term set, global top-k.  The classic "which corpus slices match
  this probe query" curation tool (quality probes, contamination probes,
  topic probes all reduce to it).
- ``zscore_by_source`` — per-source standardization of a per-doc statistic
  (token count): the global-stats-then-apply normalization shape every
  feature pipeline needs (Ray Data has no window functions; this is the
  two-pass broadcast pattern).

Scale shape shared by both: the text is read and tokenized ONCE into a
small integer projection (~40 B/doc vs KB-sized text) which is
materialized; corpus statistics are reduced IN-CLUSTER from that
projection, broadcast via ``ray.put``, and the scoring pass streams over
the same projection.  Nothing driver-side grows with corpus size: BM25's
corpus stats are one fixed-width row, z-score's are one row per *source*
(bounded by the source vocabulary, not the corpus).

Determinism contract with the SQL oracles: every per-term BM25
contribution is converted to integer nanounits (``floor(x * 1e9 + 0.5)``, the tie-rule-proof repo convention) before
summation, so addition order cannot perturb the result (same trick as the
integer-cents aggregates in events.py); the z-score uses the identical
double expression tree in both engines over exact integer sums.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..stages.shuffle import two_phase_groupby

# fixed probe query (public corpus vocabulary, mixed document frequencies)
QUERY_TERMS: tuple[str, ...] = ("join", "window", "hash", "vector")
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOPK = 20


def _doc_term_projection(sf_dir: str):
    """(doc_id, dl, tf_<term>...) — one tokenize pass, then materialized.

    The projection is ~40 B/doc; at 100 TB of text that is ~3 orders of
    magnitude smaller than the input and spills to the object store, which
    is cheaper than re-reading + re-tokenizing the text for the second
    (scoring) pass."""

    def project(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        out = {
            "doc_id": df["doc_id"].astype("int64"),
            "dl": toks.str.len().astype("int64"),
        }
        for t in QUERY_TERMS:
            out[f"tf_{t}"] = toks.map(lambda ws: ws.count(t)).astype("int64")
        return pd.DataFrame(out)

    from ..stages.shuffle import drop_null_rows

    return (
        drop_null_rows(
            ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"]))
        .map_batches(project, batch_format="pandas")
        .materialize()
    )


def bm25_topk(sf_dir: str, k: int = BM25_TOPK):
    """(rank, doc_id, score_nano) — global BM25 top-k for QUERY_TERMS.

    score_nano = Σ_t round(idf_t · tf·(k1+1)/(tf + k1·(1−b+b·dl/avgdl)) · 1e9)
    with idf_t = ln(1 + (N − df_t + 0.5)/(df_t + 0.5)).

    Phases: (1) corpus stats (N, Σdl, df per term) via a native in-cluster
    sum over the int projection — ONE fixed-width row, broadcast; (2) a
    streaming scoring pass emitting per-block partial top-k; (3) the
    in-cluster two-phase merge (fan-in then single task) — the driver never
    sees a block-count-sized set.  Ties break on doc_id; only docs
    containing ≥1 query term are ranked."""
    proj = _doc_term_projection(sf_dir)

    # corpus stats (N, Σdl, per-term df) in ONE in-cluster reduce
    def stat_cols(df: pd.DataFrame) -> pd.DataFrame:
        out = {"one": np.ones(len(df), dtype=np.int64), "dl": df["dl"]}
        for t in QUERY_TERMS:
            out[f"df_{t}"] = (df[f"tf_{t}"] > 0).astype("int64")
        return pd.DataFrame(out)

    stats = proj.map_batches(stat_cols, batch_format="pandas").sum(
        ["one", "dl"] + [f"df_{t}" for t in QUERY_TERMS]
    )
    if not stats or stats.get("sum(one)") in (None, 0):
        # empty documents table: Dataset.sum yields Nones and int(None)
        # crashed (the oracle's WHERE score>0 returns zero rows)
        return ray.data.from_pandas(pd.DataFrame(
            {"rank": pd.Series([], dtype="int64"),
             "doc_id": pd.Series([], dtype="int64"),
             "score_nano": pd.Series([], dtype="int64")}))
    n_docs = int(stats["sum(one)"])

    avgdl = float(stats["sum(dl)"]) / n_docs
    idf = np.array(
        [
            math.log(1.0 + (n_docs - stats[f"sum(df_{t})"] + 0.5)
                     / (stats[f"sum(df_{t})"] + 0.5))
            for t in QUERY_TERMS
        ]
    )
    stats_ref = ray.put((avgdl, idf))

    def score_block(df: pd.DataFrame) -> pd.DataFrame:
        avgdl_, idf_ = ray.get(stats_ref)
        dl = df["dl"].to_numpy(dtype=np.float64)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / avgdl_))
        total = np.zeros(len(df), dtype=np.int64)
        for j, t in enumerate(QUERY_TERMS):
            tf = df[f"tf_{t}"].to_numpy(dtype=np.float64)
            contrib = idf_[j] * (tf * (BM25_K1 + 1.0) / (tf + norm))
            total += np.floor(contrib * 1e9 + 0.5).astype(np.int64)
        out = pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"), "score_nano": total}
        )
        out = out[out["score_nano"] > 0]
        return out.sort_values(
            ["score_nano", "doc_id"], ascending=[False, True]
        ).head(k)

    partials = proj.map_batches(score_block, batch_format="pandas")

    def _typed(df: pd.DataFrame) -> pd.DataFrame:
        # a corpus with zero term hits yields column-less empty blocks
        # through the repartition (the known Ray footgun) — retype them
        if "doc_id" not in df.columns:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "score_nano": pd.Series([], dtype="int64"),
                }
            )
        return df

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return _typed(df).sort_values(
            ["score_nano", "doc_id"], ascending=[False, True]
        ).head(k)

    mid = partials.repartition(8).map_batches(
        combine, batch_format="pandas", batch_size=None
    )
    # final merge: ≤ 8·k rows by construction (constant, NOT block-count-
    # sized), collected and ranked driver-side — also the only way to keep
    # a TYPED result when zero docs hit any term (Ray drops the schema of
    # fully-empty datasets: map_batches is skipped for empty blocks, so no
    # in-cluster stage can ever retype them)
    out = combine(mid.to_pandas()).reset_index(drop=True)
    out.insert(0, "rank", np.arange(1, len(out) + 1, dtype=np.int64))
    return ray.data.from_pandas(out)


def zscore_by_source(sf_dir: str):
    """(doc_id, source, n_tokens, z) — token count standardized within each
    source (population mean/std), the distributed window-function shape:
    per-block integer partials → tiny per-source stats (in-cluster, one row
    per source) → broadcast → streaming apply.

    Bounded driver state: the stats table is one row per SOURCE (a crawl
    has thousands of sources, not billions).  Sources with zero variance
    get z = 0 (mirrored in SQL)."""

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        n = toks.str.len().astype("int64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "source": df["source"],
                "n_tokens": n,
                "sq": n * n,
            }
        )

    from ..stages.shuffle import drop_null_rows

    proj = (
        drop_null_rows(
            ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text", "source"]))
        .map_batches(counts, batch_format="pandas")
        .materialize()
    )

    stats = two_phase_groupby(
        proj.map_batches(
            lambda df: df[["source", "n_tokens", "sq"]], batch_format="pandas"
        ),
        keys=["source"],
        aggs={
            "n": (None, "size", "sum"),
            "s": ("n_tokens", "sum", "sum"),
            "q": ("sq", "sum", "sum"),
        },
    ).to_pandas()  # bounded: one row per source
    if stats.empty:
        # empty corpus: Ray's to_pandas drops even the COLUMN NAMES of an
        # all-empty exchange, so the named projection below KeyErrors —
        # regression of the vectorized-merge rewrite (the old itertuples
        # loop silently tolerated the column-less frame, review r4 w9)
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "source": pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
            "z": pa.array([], pa.float64()),
        }))
    lut_ref = ray.put(
        stats[["source", "n", "s", "q"]].reset_index(drop=True)
    )

    def apply_z(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized hash-join against the broadcast per-source stats (the
        # previous per-row list-comprehension lookup was a Python loop in
        # the hot scoring pass — review r4 w9)
        m = df.merge(ray.get(lut_ref), on="source", how="left", sort=False)
        n = m["n"].to_numpy(dtype=np.float64)
        s = m["s"].to_numpy(dtype=np.float64)
        q = m["q"].to_numpy(dtype=np.float64)
        x = m["n_tokens"].to_numpy(dtype=np.float64)
        # expression tree mirrored VERBATIM in the SQL oracle: exact integer
        # sums in, identical double ops out → bit-identical before rounding
        mean = s / n
        var = q / n - mean * mean
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(var > 0, (x - mean) / np.sqrt(var), 0.0)
        from ..stages.shuffle import round6_away

        return pd.DataFrame(
            {
                "doc_id": m["doc_id"].astype("int64"),
                "source": m["source"],
                "n_tokens": m["n_tokens"].astype("int64"),
                # round6_away, not np.round: DuckDB round() is half-away —
                # the repo-wide bridge (latent tie divergence, review r4 w9)
                "z": round6_away(z),
            }
        )

    return proj.map_batches(apply_z, batch_format="pandas")


# ---------------------------------------------------------------------------
# TF-IDF top terms per source + probe-set fuzzy matching

TFIDF_TOPK = 10
# probe registry bound: deterministic, corpus-size-independent (≤ 1000
# probes no matter how large the table grows — a real deployment passes
# its own probe list; the cap is what keeps the broadcast side bounded)
PROBE_MOD = 101
PROBE_ID_CAP = PROBE_MOD * 1000
# token-set Jaccard acceptance: inter/union ≥ 4/5, compared in integers
# (5·inter ≥ 4·union) so no float ever enters the decision
FUZZY_NUM = 4
FUZZY_DEN = 5


def _split_terms(texts: pd.Series) -> pd.Series:
    """space-split with empty tokens dropped (docs carry trailing spaces;
    '' is not a term) — mirrored in SQL as list_filter(w -> w <> '')."""
    return texts.str.split(" ").map(lambda ws: [w for w in ws if w])


def tfidf_top_terms(sf_dir: str, k: int = TFIDF_TOPK):
    """(source, rank, term, tf, df, score_nano) — per-source top-k terms by
    smoothed TF-IDF: score = tf · idf_nano with
    idf_nano = floor((ln((1+N)/(1+df)) + 1) · 1e9 + 0.5) (the sklearn
    smooth-idf formula, quantized to an integer so summation/compare order
    cannot perturb ranking), N = count of sources that contributed ≥ 1
    term, df = count of sources containing the term.

    Scale shape: one tokenize pass reduces the corpus to a (source, term,
    tf) table via the bucketed two-phase exchange — its size is bounded by
    |vocab| × |sources|, not the corpus.  df rides a per-TERM group pass
    (group size ≤ |sources|), the top-k is a per-block partial top-k per
    source followed by a per-SOURCE group merge (group size ≤ k × blocks
    after the partial).  Driver state: the distinct-source list only
    (bounded like zscore_by_source's stats).  Overflow contract: tf ×
    idf_nano stays in int64 for tf ≤ 4×10⁸ occurrences per (source, term)
    — guarded loudly below, same convention as _cents."""
    from ..stages.shuffle import drop_null_rows

    def explode_counts(df: pd.DataFrame) -> pd.DataFrame:
        # in-block combiner: (source, term, n) partials, never raw tokens
        t = pd.DataFrame(
            {"source": df["source"], "term": _split_terms(df["text"])}
        ).explode("term")
        t = t.dropna(subset=["term"])
        out = t.groupby(["source", "term"], sort=False).size().reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    tf_tbl = two_phase_groupby(
        drop_null_rows(
            ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["text", "source"])
        ).map_batches(explode_counts, batch_format="pandas"),
        keys=["source", "term"],
        aggs={"tf": ("n", "sum", "sum")},
    ).materialize()

    sources = tf_tbl.unique("source")  # bounded: one entry per source
    n_sources = len(sources)
    if n_sources == 0:
        return ray.data.from_arrow(pa.table({
            "source": pa.array([], pa.string()),
            "rank": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
            "score_nano": pa.array([], pa.int64()),
        }))

    def attach_df_and_score(g: pd.DataFrame) -> pd.DataFrame:
        # per-TERM group: ≤ n_sources rows
        df_t = np.int64(len(g))
        idf_nano = np.int64(math.floor(
            (math.log((1.0 + n_sources) / (1.0 + float(df_t))) + 1.0) * 1e9
            + 0.5))
        tf = g["tf"].to_numpy(dtype=np.int64)
        if (tf > 400_000_000).any():
            raise OverflowError(
                "tfidf_top_terms: tf > 4e8 would overflow int64 score_nano"
            )
        out = g[["source", "term"]].copy()
        out["tf"] = tf
        out["df"] = df_t
        out["score_nano"] = tf * idf_nano
        return out

    scored = tf_tbl.groupby("term").map_groups(
        attach_df_and_score, batch_format="pandas"
    )

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["score_nano", "term"], ascending=[False, True])
            .groupby("source", sort=False)
            .head(k)
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score_nano", "term"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g.insert(1, "rank", np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["source", "rank", "term", "tf", "df", "score_nano"]]

    return (
        scored.map_batches(partial_topk, batch_format="pandas")
        .groupby("source")
        .map_groups(final_topk, batch_format="pandas")
    )


def fuzzy_match_probe(sf_dir: str):
    """(probe_id, doc_id, n_inter, n_union) — fuzzy (set-similarity) JOIN
    of every document against a bounded probe registry: distinct-token-set
    Jaccard ≥ 4/5, decided in integers (5·inter ≥ 4·union; two empty sets
    match by the module's jaccard(∅,∅)=1 convention).  The entity-
    resolution / contamination-probe shape: a small trusted side matched
    fuzzily against the whole corpus.

    Probe registry: docs with doc_id % 101 == 0 AND doc_id < 101000 —
    deterministic and ≤ 1000 rows regardless of corpus size, so the
    broadcast (ray.put) side is bounded by construction.

    Scale shape: probes broadcast once; each batch tokenizes, explodes to
    DISTINCT (row, token), and resolves all probes in ONE vectorized
    pandas hash-merge + group count — no per-row Python loop, no shuffle
    at all (the classic broadcast-small-side join)."""
    from ..stages.shuffle import drop_null_rows

    out_schema = pa.schema([
        ("probe_id", pa.int64()), ("doc_id", pa.int64()),
        ("n_inter", pa.int64()), ("n_union", pa.int64()),
    ])

    probe_schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])

    def pick_probes(b: pa.Table) -> pa.Table:
        doc = b.column("doc_id").to_numpy(zero_copy_only=False)
        keep = pa.array((doc % PROBE_MOD == 0) & (doc < PROBE_ID_CAP))
        return b.filter(keep).select(["doc_id", "text"]).cast(probe_schema)

    probes = (
        drop_null_rows(
            ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"]))
        .map_batches(pick_probes, batch_format="pyarrow")
        .to_pandas()  # bounded ≤ 1000 rows by the doc_id cap above
    )
    if probes.empty:
        return ray.data.from_arrow(out_schema.empty_table())

    # (token, probe_id) long table + per-probe set sizes, broadcast once
    pt = pd.DataFrame({
        "probe_id": probes["doc_id"].astype("int64"),
        "token": _split_terms(probes["text"]).map(lambda ws: sorted(set(ws))),
    }).explode("token").dropna(subset=["token"])
    psize = pt.groupby("probe_id").size().rename("p_sz").reset_index()
    # probes with an empty token set never join through the merge — they
    # still must match empty-set docs (jaccard(∅,∅)=1), tracked separately
    empty_probes = probes.loc[
        ~probes["doc_id"].astype("int64").isin(psize["probe_id"]),
        "doc_id"].astype("int64").to_numpy()
    state_ref = ray.put((pt, psize, empty_probes))

    def match(df: pd.DataFrame) -> pa.Table:
        pt_, psize_, empty_ = ray.get(state_ref)
        toks = _split_terms(df["text"]).map(lambda ws: sorted(set(ws)))
        d_sz = toks.str.len().to_numpy(dtype=np.int64)
        long = pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "d_sz": d_sz,
            "token": toks,
        }).explode("token").dropna(subset=["token"])
        hits = long.merge(pt_, on="token", sort=False)
        inter = (
            hits.groupby(["probe_id", "doc_id", "d_sz"], sort=False)
            .size().rename("n_inter").reset_index()
        )
        inter = inter.merge(psize_, on="probe_id", sort=False)
        n_union = (inter["d_sz"] + inter["p_sz"] - inter["n_inter"]).astype("int64")
        keep = FUZZY_DEN * inter["n_inter"].astype("int64") >= FUZZY_NUM * n_union
        out = pd.DataFrame({
            "probe_id": inter.loc[keep, "probe_id"].astype("int64"),
            "doc_id": inter.loc[keep, "doc_id"].astype("int64"),
            "n_inter": inter.loc[keep, "n_inter"].astype("int64"),
            "n_union": n_union[keep],
        })
        if len(empty_):
            empty_docs = df.loc[pd.Series(d_sz, index=df.index) == 0,
                                "doc_id"].astype("int64").to_numpy()
            if len(empty_docs):
                grid_p = np.repeat(empty_, len(empty_docs))
                grid_d = np.tile(empty_docs, len(empty_))
                out = pd.concat([out, pd.DataFrame({
                    "probe_id": grid_p, "doc_id": grid_d,
                    "n_inter": np.zeros(len(grid_p), dtype=np.int64),
                    "n_union": np.zeros(len(grid_p), dtype=np.int64),
                })], ignore_index=True)
        if not len(out):
            return out_schema.empty_table()
        return pa.Table.from_pandas(out, preserve_index=False).cast(out_schema)

    return (
        drop_null_rows(
            ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"]))
        .map_batches(match, batch_format="pandas")
    )


def queries():
    return {
        "bm25_topk": bm25_topk,
        "zscore_by_source": zscore_by_source,
        "tfidf_top_terms": tfidf_top_terms,
        "fuzzy_match_probe": fuzzy_match_probe,
    }


def oracles():
    tf_cols = ", ".join(
        f"len(list_filter(string_split(text, ' '), w -> w = '{t}')) AS tf_{t}"
        for t in QUERY_TERMS
    )
    contrib = " + ".join(
        f"""CAST(floor(
              ln(1.0 + (s.n_docs - s.df_{t} + 0.5) / (s.df_{t} + 0.5))
              * (tf_{t} * ({BM25_K1} + 1.0)
                 / (tf_{t} + {BM25_K1} * (1.0 - {BM25_B}
                    + {BM25_B} * (dl / (CAST(s.sum_dl AS DOUBLE) / s.n_docs)))))
              * 1e9 + 0.5) AS BIGINT)"""
        for t in QUERY_TERMS
    )
    df_cols = ", ".join(
        f"sum(CASE WHEN tf_{t} > 0 THEN 1 ELSE 0 END) AS df_{t}"
        for t in QUERY_TERMS
    )
    return {
        "bm25_topk": f"""
        WITH proj AS (
          SELECT doc_id, len(string_split(text, ' ')) AS dl, {tf_cols}
          FROM documents
        ),
        stats AS (
          SELECT count(*) AS n_docs, sum(dl) AS sum_dl, {df_cols} FROM proj
        ),
        scored AS (
          SELECT p.doc_id, CAST(p.dl AS DOUBLE) AS dl,
                 {contrib} AS score_nano
          FROM proj p, stats s
        )
        SELECT CAST(row_number() OVER (ORDER BY score_nano DESC, doc_id)
                    AS BIGINT) AS rank,
               doc_id, score_nano
        FROM scored WHERE score_nano > 0
        ORDER BY score_nano DESC, doc_id
        LIMIT {BM25_TOPK}
        """,
        "zscore_by_source": """
        WITH proj AS (
          SELECT doc_id, source,
                 CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
          FROM documents
        ),
        stats AS (
          SELECT source, count(*) AS n, sum(n_tokens) AS s,
                 sum(n_tokens * n_tokens) AS q
          FROM proj GROUP BY source
        )
        SELECT p.doc_id, p.source, p.n_tokens,
               round(CASE
                 WHEN (CAST(q AS DOUBLE) / n
                       - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n)) > 0
                 THEN (CAST(p.n_tokens AS DOUBLE) - CAST(s AS DOUBLE) / n)
                      / sqrt(CAST(q AS DOUBLE) / n
                             - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n))
                 ELSE 0.0 END, 6) AS z
        FROM proj p JOIN stats USING (source)
        """,
        # N = count of sources contributing ≥ 1 term (a source whose docs
        # are all empty text has no terms and is outside the vocabulary
        # universe on BOTH sides)
        "tfidf_top_terms": f"""
        WITH tok AS (
          SELECT source,
                 unnest(list_filter(string_split(text, ' '), w -> w <> ''))
                   AS term
          FROM documents
        ),
        tf AS (SELECT source, term, count(*) AS tf FROM tok GROUP BY 1, 2),
        dfreq AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
        nn AS (SELECT count(DISTINCT source) AS n FROM tf),
        scored AS (
          SELECT tf.source, tf.term, tf.tf, dfreq.df,
                 tf.tf * CAST(floor(
                   (ln((1.0 + nn.n) / (1.0 + dfreq.df)) + 1.0) * 1e9 + 0.5
                 ) AS BIGINT) AS score_nano
          FROM tf JOIN dfreq USING (term) CROSS JOIN nn
        )
        SELECT source,
               CAST(row_number() OVER (
                 PARTITION BY source ORDER BY score_nano DESC, term
               ) AS BIGINT) AS rank,
               term, tf, df, score_nano
        FROM scored
        QUALIFY rank <= {TFIDF_TOPK}
        """,
        "fuzzy_match_probe": f"""
        WITH probes AS (
          SELECT doc_id AS probe_id,
                 list_distinct(list_filter(string_split(text, ' '),
                                           w -> w <> '')) AS pt
          FROM documents
          WHERE doc_id % {PROBE_MOD} = 0 AND doc_id < {PROBE_ID_CAP}
        ),
        docs AS (
          SELECT doc_id,
                 list_distinct(list_filter(string_split(text, ' '),
                                           w -> w <> '')) AS dt
          FROM documents
        ),
        m AS (
          SELECT p.probe_id, d.doc_id,
                 CAST(len(list_intersect(d.dt, p.pt)) AS BIGINT) AS n_inter,
                 CAST(len(d.dt) + len(p.pt)
                      - len(list_intersect(d.dt, p.pt)) AS BIGINT) AS n_union
          FROM probes p CROSS JOIN docs d
        )
        SELECT probe_id, doc_id, n_inter, n_union
        FROM m WHERE {FUZZY_DEN} * n_inter >= {FUZZY_NUM} * n_union
        """,
    }
