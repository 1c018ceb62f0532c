"""Corpus n-gram language model: distributed bigram fit + streaming
perplexity scoring (task brief "text analysis" / quality scoring — the
KenLM-shaped operator every LLM-data pipeline runs to filter low-quality
text by LM surprisal, cf. CCNet / Gopher data curation).

Shape at 100 TB:
- the FIT is one combiner-first exchange: per-block Counter partials
  collapse in-block duplicates, ``two_phase_groupby`` merges them, and the
  driver only ever holds the finished model table (vocab + bigram counts —
  the model artifact).  In production the table is count-pruned (drop
  bigrams with c < k) / top-V capped before broadcast, exactly like a
  shipped KenLM binary; at test scale it stays exact so the oracle is
  bit-for-bit.
- SCORING is one streaming pass against the ``ray.put`` model (read once
  per worker, never re-shipped per batch): per block, token/bigram counts
  come from two vectorized pandas ``.map`` lookups, and logs are taken
  once per DISTINCT integer count (memoized per worker) — never per
  position.

Exactness: the per-position term is ln(c_prev + V) − ln(c_big + 1) — ln of
SMALL INTEGERS, carried as integer NANOUNITS (floor(x·1e9 + 0.5), DuckDB's
round-half-away for positives) so float summation order cannot perturb the
hash — the integer-cents / bm25 trick.  Both engines take ln of the same
exact integer through the same libm, so the nanounit terms agree and the
sums are exact-integer equal.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from ..pipelines.triples import _ln_nano_arr

PPL_NANO = 1_000_000_000


def _read_docs(sf_dir: str, columns=("doc_id", "text")):
    from ..stages.shuffle import drop_null_rows

    # null contract: incomplete rows dropped at the read (see drop_null_rows)
    return drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=list(columns)
    ))


def _fit_bigram_model(sf_dir: str):
    """(uni: Series token→count, big: Series 'w1 w2'→count, V).

    One combiner-first exchange; the driver holds only the merged model."""
    from ..stages.shuffle import two_phase_groupby

    def block_counts(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        cu: Counter = Counter()
        cb: Counter = Counter()
        for t in df["text"]:
            toks = t.split(" ")
            cu.update(toks)
            cb.update(" ".join(p) for p in zip(toks, toks[1:]))
        return pd.DataFrame(
            {
                "kind": np.r_[
                    np.zeros(len(cu), dtype=np.int64),
                    np.ones(len(cb), dtype=np.int64),
                ],
                "g": list(cu.keys()) + list(cb.keys()),
                "c": np.fromiter(
                    (v for v in cu.values()), dtype=np.int64, count=len(cu)
                ).tolist()
                + list(cb.values()),
            }
        )

    partials = _read_docs(sf_dir).map_batches(block_counts, batch_format="pandas")
    # bucket on the HIGH-cardinality key: two_phase_groupby buckets on
    # keys[0], and "kind" has only 2 values — bucketing on it funnels the
    # whole vocabulary into <= 2 merge tasks (review r4)
    merged = two_phase_groupby(
        partials, keys=["g", "kind"], aggs={"c": ("c", "sum", "sum")}
    ).to_pandas()
    if merged.empty:  # empty corpus drops the frame's schema (KeyError)
        empty = pd.Series([], dtype="int64")
        return empty, empty, 0
    uni_df = merged[merged["kind"] == 0]
    big_df = merged[merged["kind"] == 1]
    uni = pd.Series(
        uni_df["c"].to_numpy(dtype=np.int64), index=uni_df["g"].to_numpy()
    )
    big = pd.Series(
        big_df["c"].to_numpy(dtype=np.int64), index=big_df["g"].to_numpy()
    )
    return uni, big, len(uni)


def lm_perplexity(sf_dir: str):
    """(doc_id, n_bigrams, nll_nano, ppl) — add-one-smoothed bigram LM
    perplexity per document, model fit on the same corpus:

        P(w2 | w1) = (c(w1 w2) + 1) / (c(w1) + V)
        nll_nano   = Σ_positions  ln_nano(c(w1)+V) − ln_nano(c(w1 w2)+1)
        ppl        = round(exp(nll_nano / 1e9 / n_bigrams), 6)

    Docs with fewer than 2 tokens have no bigram and are absent (the
    oracle's position unnest is empty for them too)."""
    model_ref = ray.put(_fit_bigram_model(sf_dir))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        uni, big, V = ray.get(model_ref)
        tok_lists = [t.split(" ") for t in df["text"]]
        nb = np.array([max(len(t) - 1, 0) for t in tok_lists], dtype=np.int64)
        keep = nb > 0
        if not keep.any():
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_bigrams": pd.Series([], dtype="int64"),
                    "nll_nano": pd.Series([], dtype="int64"),
                    "ppl": pd.Series([], dtype="float64"),
                }
            )
        w1 = [t for toks, n in zip(tok_lists, nb) for t in toks[:n]]
        pair = [
            f"{toks[i]} {toks[i + 1]}"
            for toks, n in zip(tok_lists, nb)
            for i in range(n)
        ]
        c_prev = pd.Series(w1).map(uni).to_numpy(dtype=np.int64)
        c_big = pd.Series(pair).map(big).to_numpy(dtype=np.int64)
        terms = _ln_nano_arr(c_prev + V) - _ln_nano_arr(c_big + 1)
        offs = np.concatenate(([0], np.cumsum(nb[keep])[:-1]))
        nll = np.add.reduceat(terms, offs)
        n_kept = nb[keep]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64)[keep],
                "n_bigrams": n_kept,
                "nll_nano": nll,
                "ppl": np.round(np.exp(nll / PPL_NANO / n_kept), 6),
            }
        )

    return _read_docs(sf_dir).map_batches(score, batch_format="pandas")


def queries():
    return {"lm_perplexity": lm_perplexity}


def oracles():
    return {
        # same model, same nanounit terms: ln of identical exact integers
        # through the same libm, floor(x*1e9+0.5) == round() for positives
        "lm_perplexity": """
        WITH toks AS (
          SELECT doc_id, string_split(text, ' ') AS ts FROM documents
        ),
        uni AS (
          SELECT w, count(*) AS c
          FROM (SELECT unnest(ts) AS w FROM toks) GROUP BY w
        ),
        vv AS (SELECT count(*) AS v FROM uni),
        pos AS (
          SELECT doc_id, ts[i] AS w1, ts[i + 1] AS w2
          FROM (
            SELECT doc_id, ts,
                   unnest(range(1, greatest(len(ts) - 1, 0) + 1)) AS i
            FROM toks
          )
        ),
        big AS (SELECT w1, w2, count(*) AS c FROM pos GROUP BY w1, w2),
        terms AS (
          SELECT p.doc_id,
                 CAST(round(ln(CAST(u.c + vv.v AS DOUBLE)) * 1e9) AS BIGINT)
                 - CAST(round(ln(CAST(b.c + 1 AS DOUBLE)) * 1e9) AS BIGINT)
                 AS t
          FROM pos p
          JOIN uni u ON u.w = p.w1
          JOIN big b ON b.w1 = p.w1 AND b.w2 = p.w2
          CROSS JOIN vv
        )
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_bigrams,
               CAST(sum(t) AS BIGINT) AS nll_nano,
               round(exp(sum(t) / 1e9 / count(*)), 6) AS ppl
        FROM terms GROUP BY doc_id
        """,
    }
