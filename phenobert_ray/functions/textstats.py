"""Text analysis operators over the ``documents`` table (task brief:
language-ID, quality scoring, token counting, document fingerprinting).

All per-doc stats are computed vectorized inside ``map_batches`` (pandas str
kernels / numpy) — no Python row loops; groupby aggregations pre-aggregate
per block before shuffling.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data.aggregate import Sum

from ..stages.shuffle import drop_null_rows

# tiny deterministic marker sets for the language-ID heuristic (mirrored in
# the SQL oracle; a real deployment swaps in full n-gram profiles)
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "de": ("der", "die", "und"),
    "en": ("the", "a"),
    "es": ("el", "los", "las"),
    "fr": ("le", "la", "les"),
}
_STOP_MARKERS = ("the", "a")


def _ws_token_count(texts: pd.Series) -> pd.Series:
    """Whitespace token count — THE projection shared by doc_stats /
    token_count_by_source / global_sort_rank / ntile_by_source / quantiles;
    must stay in lockstep with the oracles' len(string_split(text, ' '))."""
    return texts.str.split(" ").str.len().astype("int64")


def _read_docs(sf_dir: str, columns: tuple[str, ...] = ("doc_id", "text")):
    # null contract: a row is dropped iff it is null in a column THIS
    # operator projects (drop_null_rows).  Every call site names exactly
    # the columns it uses — over-projecting `source` from text-only
    # operators silently dropped null-source docs that the SQL oracles
    # (which never read source) still count (review r4 w8)
    return drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=list(columns)
    ))


def _tok_stats(df: pd.DataFrame) -> pd.DataFrame:
    toks = df["text"].str.split(" ")
    n_tokens = toks.str.len()
    n_uniq = toks.map(lambda t: len(set(t)))
    n_stop = toks.map(lambda t: sum(1 for w in t if w in _STOP_MARKERS))
    out = {}
    if "doc_id" in df.columns:
        out["doc_id"] = df["doc_id"]
    if "source" in df.columns:
        out["source"] = df["source"]
    out.update(
        {
            "n_chars": df["text"].str.len().astype("int64"),
            "n_tokens": n_tokens.astype("int64"),
            "n_uniq_tokens": n_uniq.astype("int64"),
            "n_stop": n_stop.astype("int64"),
        }
    )
    return pd.DataFrame(out)


def doc_stats(sf_dir: str):
    """(doc_id, n_chars, n_tokens, n_uniq_tokens, stop_ratio)."""

    from ..stages.shuffle import round6_away

    def f(df: pd.DataFrame) -> pd.DataFrame:
        s = _tok_stats(df)
        # round6_away, not .round(6): the oracle is DuckDB round() and
        # n_stop/n_tokens produces exact half ties (reproduced at 1/128)
        s["stop_ratio"] = round6_away(s["n_stop"] / s["n_tokens"])
        return s[["doc_id", "n_chars", "n_tokens", "n_uniq_tokens", "stop_ratio"]]

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


def token_count_by_source(sf_dir: str):
    """(source, n_docs, total_tokens) — block-local partials then a tiny
    groupby merge (combiner pattern)."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        s = _tok_stats(df)
        return s.groupby("source", as_index=False).agg(
            n_docs=("n_tokens", "size"), total_tokens=("n_tokens", "sum")
        )

    import pyarrow.dataset as pads

    if pads.dataset(f"{sf_dir}/documents.parquet").count_rows() == 0:
        # empty corpus: Ray drops the schema of all-empty datasets, so the
        # result would be column-less (KeyError in any consumer) — typed
        # empty instead, like the file's other operators (review r4 w8);
        # footer row count is metadata-only
        return ray.data.from_arrow(pa.table(
            {"source": pa.array([], pa.string()),
             "n_docs": pa.array([], pa.int64()),
             "total_tokens": pa.array([], pa.int64())}))

    partial = _read_docs(sf_dir, ("text", "source")).map_batches(
        f, batch_format="pandas")
    merged = partial.groupby("source").aggregate(Sum("n_docs"), Sum("total_tokens"))
    return merged.map_batches(
        lambda b: b.rename_columns(["source", "n_docs", "total_tokens"]),
        batch_format="pyarrow",
    )


def quality_score(sf_dir: str):
    """(doc_id, ttr, is_short) — type-token ratio quality signal."""

    from ..stages.shuffle import round6_away

    def f(df: pd.DataFrame) -> pd.DataFrame:
        s = _tok_stats(df)
        return pd.DataFrame(
            {
                "doc_id": s["doc_id"],
                "ttr": round6_away(s["n_uniq_tokens"] / s["n_tokens"]),
                "is_short": s["n_tokens"] < 20,
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


def lang_id(sf_dir: str):
    """(doc_id, lang_pred) — marker-count argmax with alphabetical
    tie-break, 'und' when no marker hits."""
    langs = sorted(LANG_MARKERS)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        counts = np.zeros((len(df), len(langs)), dtype=np.int64)
        for j, lang in enumerate(langs):
            markers = set(LANG_MARKERS[lang])
            counts[:, j] = toks.map(lambda t: sum(1 for w in t if w in markers)).to_numpy()
        best = counts.argmax(axis=1)  # ties → lowest index = alphabetical
        pred = np.array(langs, dtype=object)[best]
        pred[counts.max(axis=1) == 0] = "und"
        return pd.DataFrame({"doc_id": df["doc_id"], "lang_pred": pred})

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


_TOK_H: dict[str, int] = {}  # md5-prefix token-hash memo (per worker)


def _tok_md5_64(tok: str) -> int:
    h = _TOK_H.get(tok)
    if h is None:
        h = int(hashlib.md5(tok.encode()).hexdigest()[:16], 16)
        if len(_TOK_H) < 500_000:
            _TOK_H[tok] = h
    return h


def fingerprint(sf_dir: str):
    """(doc_id, fp) — 64-bit Rabin-Karp-style rolling token hash (document
    fingerprinting).  Token hash = first 64 bits of md5 so the DuckDB
    oracle can recompute the identical fold in SQL (recursive CTE over
    token ordinals); order-sensitivity and modulus are unchanged.

    Vectorized: each distinct token in the
    block is md5-hashed once (memoized), then the Horner fold runs
    position-stepped across all docs at once in uint64, using the Mersenne
    identity 2^61 ≡ 1 (mod M) to keep h*257 inside 64 bits:
    h*256 ≡ (h >> 53) + ((h & (2^53-1)) << 8)."""
    MOD = np.uint64((1 << 61) - 1)
    MASK53 = np.uint64((1 << 53) - 1)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        tok_lists = [t.split(" ") for t in df["text"]]
        counts = np.array([len(t) for t in tok_lists], dtype=np.int64)
        uidx: dict[str, int] = {}
        idx = np.empty(int(counts.sum()), dtype=np.int64)
        i = 0
        for toks in tok_lists:
            for tok in toks:
                j = uidx.get(tok)
                if j is None:
                    j = uidx[tok] = len(uidx)
                idx[i] = j
                i += 1
        uh = np.fromiter(
            (_tok_md5_64(t) for t in uidx), dtype=np.uint64, count=len(uidx)
        )
        hvm = uh[idx] % MOD
        offs = np.r_[0, np.cumsum(counts)[:-1]]
        n = len(df)
        # process docs longest-first so each step works on a prefix
        order = np.argsort(-counts, kind="stable")
        sc, so = counts[order], offs[order]
        h = np.zeros(n, dtype=np.uint64)
        for j in range(int(sc[0]) if n else 0):
            na = int(np.searchsorted(-sc, -j, side="left"))  # docs with count > j
            if na == 0:
                break
            cur = h[:na]
            mul = (cur >> np.uint64(53)) + ((cur & MASK53) << np.uint64(8)) + cur
            h[:na] = (mul + hvm[so[:na] + j]) % MOD
        out = np.empty(n, dtype=np.uint64)
        out[order] = h
        return pd.DataFrame({"doc_id": df["doc_id"], "fp": pd.array(out, dtype="uint64")})

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


# ---------------------------------------------------------------------------


_BPE_RE_SRC = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\t\n\x0b\f\r ]+"
# GPT-2-ish pre-tokenizer shape: letter runs, SINGLE digits, punctuation
# runs.  The whitespace class is an EXPLICIT ASCII set, not \s: Python
# re's \s is Unicode-aware (excludes U+00A0 etc.) while DuckDB/RE2's \s
# is ASCII-only (matches U+00A0 as "punctuation") — a corpus with
# non-breaking spaces diverged engine vs oracle (review r4 w8); the
# shared literal class makes both engines split identically


def bpe_token_count(sf_dir: str):
    """(doc_id, n_ws_tokens, n_bpe_tokens) — whitespace tokens vs a
    BPE-ish pre-tokenizer regex count (task brief "token counting")."""
    import re

    bpe = re.compile(_BPE_RE_SRC)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_ws_tokens": _ws_token_count(df["text"]),
                "n_bpe_tokens": df["text"].map(
                    lambda t: len(bpe.findall(t))
                ).astype("int64"),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


# char-trigram language profiles (tiny public-knowledge profiles; the
# scoring is the classic Cavnar-Trenkle n-gram-frequency idea reduced to a
# fixed profile per language so both numpy and SQL compute it exactly)
TRIGRAM_PROFILES = {
    "en": ["the", " th", "he ", "ing", "and"],
    "de": ["der", "ein", "ich", "sch", "und"],
    "fr": ["les", "de ", "ent", "que", "ion"],
    "es": ["de ", "la ", "os ", "ión", "que"],
}


def lang_id_ngram(sf_dir: str):
    """(doc_id, lang_pred) — argmax over summed char-trigram profile hits
    (ties → alphabetical; zero hits → 'und')."""
    import re

    langs = sorted(TRIGRAM_PROFILES)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        counts = np.zeros((len(df), len(langs)), dtype=np.int64)
        low = df["text"].str.lower()
        for j, lang in enumerate(langs):
            tot = np.zeros(len(df), dtype=np.int64)
            for tri in TRIGRAM_PROFILES[lang]:
                tot += low.str.count(re.escape(tri)).to_numpy(dtype=np.int64)
            counts[:, j] = tot
        best = counts.argmax(axis=1)
        pred = np.array(langs, dtype=object)[best]
        pred[counts.max(axis=1) == 0] = "und"
        return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                             "lang_pred": pred})

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


TOP_K_TOKENS = 20


def longest_docs_by_source(sf_dir: str, k: int = 3):
    """(source, doc_id, n_tokens, rank) — GROUPED top-k: the k longest docs
    per source (ties → lower doc_id).  The per-KEY top-k pattern (distinct
    from ``top_tokens``' global top-k): each block keeps its own k best per
    source (combiner), so the exchange moves ≤ k rows per (block, source)
    and every group-merge task holds O(blocks_touching_source × k) rows,
    never the source's documents."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s = pd.DataFrame(
            {
                "source": df["source"],
                "doc_id": df["doc_id"].astype("int64"),
                "n_tokens": _ws_token_count(df["text"]),
            }
        )
        s = s.sort_values(["n_tokens", "doc_id"], ascending=[False, True])
        return s.groupby("source", as_index=False).head(k)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_tokens", "doc_id"], ascending=[False, True]).head(k)
        df = df.reset_index(drop=True)
        df["rank"] = pd.array(range(1, len(df) + 1), dtype="int64")
        return df[["source", "doc_id", "n_tokens", "rank"]]

    part = _read_docs(sf_dir, ("doc_id", "text", "source")).map_batches(
        partial, batch_format="pandas")
    return part.groupby("source").map_groups(merge, batch_format="pandas")


def top_tokens(sf_dir: str, k: int = TOP_K_TOKENS):
    """(token, n) — global top-k most frequent whitespace tokens (heavy
    hitters).  Classic combiner shape: per-block vectorized value_counts
    collapse before the exchange, the merge handles one bucket of partial
    counts, and only k rows ever reach the driver (per-bucket top-k then a
    tiny global head).  Tie-break: count desc, token asc (deterministic,
    mirrored in SQL)."""
    from ..stages.shuffle import two_phase_groupby

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].str.split(" ").explode().value_counts()
        return pd.DataFrame({"token": vc.index.astype(str), "n": vc.to_numpy()})

    posted = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )).map_batches(partial_counts, batch_format="pandas")
    counts = two_phase_groupby(
        posted, keys=["token"], aggs={"n": ("n", "sum", "sum")}
    )

    def per_bucket_topk(b):
        df = b.to_pandas()
        df = df.sort_values(["n", "token"], ascending=[False, True]).head(k)
        import pyarrow as pa_

        return pa_.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    partial_top = counts.map_batches(per_bucket_topk, batch_format="pyarrow")
    out = partial_top.to_pandas()
    if out.empty:  # empty corpus: Ray drops the schema → sort KeyError
        out = pd.DataFrame({"token": pd.Series([], dtype="string"),
                            "n": pd.Series([], dtype="int64")})
    out = out.sort_values(["n", "token"], ascending=[False, True]).head(k)
    out = out.reset_index(drop=True).astype({"n": "int64"})
    # uniform queries() contract: every entry returns a Ray Dataset
    return ray.data.from_pandas(out)


N_GRAM = 3  # default word-gram width of doc_gram_hashes
_GRAM_H: dict[str, int] = {}  # gram-hash memo (per worker)


def _gram_md5_64(g: str) -> int:
    h = _GRAM_H.get(g)
    if h is None:
        h = int(hashlib.md5(g.encode()).hexdigest()[:16], 16)
        if len(_GRAM_H) < 500_000:
            _GRAM_H[g] = h
    return h


def doc_gram_hashes(text: str, n: int = N_GRAM) -> np.ndarray:
    """md5-64 hashes of the word n-grams of ``text`` (positions, not
    distinct) — the compact wire/broadcast representation of a gram."""
    toks = text.split(" ")
    m = len(toks) - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.uint64)
    return np.fromiter(
        (_gram_md5_64(" ".join(toks[i : i + n])) for i in range(m)),
        dtype=np.uint64,
        count=m,
    )


WINNOW_K = 4  # gram width for winnowing
WINNOW_W = 5  # window width (guarantee: every W consecutive grams yield a pick)


def winnowing_fingerprints(sf_dir: str, k: int = WINNOW_K, w: int = WINNOW_W):
    """(doc_id, pos, fp) — winnowing document fingerprints (Schleimer et
    al. 2003, the MOSS algorithm): md5-64 hash every word k-gram, slide a
    w-window over the hash sequence, select the MINIMUM of each window
    (rightmost on ties), emit the DISTINCT selections.  The selected set
    is the standard locality-insensitive sketch: any shared substring of
    ≥ w+k−1 tokens between two docs is guaranteed to share a fingerprint.

    Pure per-batch map, zero exchanges (downstream matching reuses the
    posting-list machinery of duplicate_spans/ngram_jaccard).  Vectorized
    per doc with a sliding-window view; rightmost-tie argmin comes from
    argmin over the REVERSED window axis.  Docs with fewer than k+w−1
    tokens (< w grams) emit nothing — mirrored by the oracle's range."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out_d, out_p, out_h = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            h = doc_gram_hashes(text, k)
            if len(h) < w:
                continue
            win = np.lib.stride_tricks.sliding_window_view(h, w)
            # argmin of the reversed window = RIGHTMOST min of the window
            rev_arg = np.argmin(win[:, ::-1], axis=1)
            pos = np.arange(len(win)) + (w - 1 - rev_arg)
            sel = np.unique(pos)
            out_d.append(np.full(len(sel), doc_id, dtype=np.int64))
            out_p.append(sel.astype(np.int64))
            out_h.append(h[sel])
        if not out_d:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "pos": pd.Series([], dtype="int64"),
                    "fp": pd.array([], dtype="uint64"),
                }
            )
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(out_d),
                "pos": np.concatenate(out_p),
                "fp": pd.array(np.concatenate(out_h), dtype="uint64"),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


def _bpe_units_sql(n_merges: int) -> str:
    """CTE chain computing the BPE training loop IN SQL — the oracle for
    ``bpe_train_merges`` / ``bpe_encode`` (previously rows-only on the
    belief that the sequential greedy rewrite isn't SQL-expressible;
    it is): for a merge pair (a, b) with a ≠ b, sites (tok=a, next=b)
    can never overlap — site i+1 would need tok[i+1] = a AND = b — so
    greedy left-to-right merges EVERY site; for a == b, sites form runs
    of consecutive positions and greedy picks every other one, which is
    the gaps-and-islands window ``(pos − island_start) % 2 = 0``.  The
    same parity formula covers both cases (a ≠ b islands are singletons).
    Each round is pairs → global argmax (count DESC, pair ASC — the
    engine's tie rule) → site/island selection → sequence rebuild
    (merged unit = left || ' ' || right, absorbed right unit dropped via
    lag).  Defines units_1..units_{n+1} and best_1..best_n."""
    # sequences are keyed on a synthetic ROW id, not doc_id: the engine
    # treats each input row independently, so an input with duplicate
    # doc_ids must not have its rows' token streams interleaved by the
    # doc_id window partitions (reproduced, review r4 w9); doc_id rides
    # along for the output projection only
    parts = ["""units_1 AS (
      SELECT rid, doc_id, CAST(generate_subscripts(l, 1) AS BIGINT) AS pos,
             unnest(l) AS tok
      FROM (SELECT row_number() OVER () AS rid, doc_id,
                   string_split(text, ' ') AS l FROM documents)
    )"""]
    for r in range(1, n_merges + 1):
        parts.append(f"""lead_{r} AS (
      SELECT rid, doc_id, pos, tok,
             lead(tok) OVER (PARTITION BY rid ORDER BY pos) AS nxt
      FROM units_{r}
    )""")
        parts.append(f"""best_{r} AS (
      SELECT tok AS l, nxt AS r2, count(*) AS n
      FROM lead_{r} WHERE nxt IS NOT NULL
      GROUP BY 1, 2 ORDER BY n DESC, l, r2 LIMIT 1
    )""")
        parts.append(f"""site_{r} AS (
      SELECT d.rid, d.doc_id, d.pos, d.tok, d.nxt,
             CASE WHEN d.tok = b.l AND d.nxt = b.r2 THEN 1 ELSE 0 END AS site
      FROM lead_{r} d LEFT JOIN best_{r} b ON TRUE
    )""")
        parts.append(f"""sel_{r} AS (
      SELECT rid, doc_id, pos, tok, nxt, site,
             CASE WHEN site = 1 AND (pos - min(pos) OVER
               (PARTITION BY rid, island)) % 2 = 0 THEN 1 ELSE 0 END
               AS merged
      FROM (SELECT *, CASE WHEN site = 1 THEN pos - ROW_NUMBER() OVER
              (PARTITION BY rid, site ORDER BY pos) END AS island
            FROM site_{r})
    )""")
        parts.append(f"""units_{r + 1} AS (
      SELECT rid, doc_id,
             CAST(ROW_NUMBER() OVER (PARTITION BY rid ORDER BY pos)
                  AS BIGINT) AS pos,
             CASE WHEN merged = 1 THEN tok || ' ' || nxt ELSE tok END AS tok
      FROM (SELECT *, lag(merged, 1, 0) OVER
              (PARTITION BY rid ORDER BY pos) AS prevm FROM sel_{r})
      WHERE prevm = 0
    )""")
    return ",\n    ".join(parts)


def _bpe_train_merges_oracle(n_merges: int = 4) -> str:
    ranks = "\n      UNION ALL ".join(
        f'SELECT CAST({r - 1} AS BIGINT) AS "rank", l AS "left", '
        f'r2 AS "right", n FROM best_{r}'
        for r in range(1, n_merges + 1)
    )
    return f"""
    WITH {_bpe_units_sql(n_merges)}
    SELECT * FROM (
      {ranks}
    ) ORDER BY "rank"
    """


def _bpe_encode_oracle(n_merges: int = 4) -> str:
    return f"""
    WITH {_bpe_units_sql(n_merges)}
    SELECT doc_id, count(*) AS n_units,
           CAST(count(*) FILTER (WHERE contains(tok, ' ')) AS BIGINT)
             AS n_merged_units
    FROM units_{n_merges + 1} GROUP BY rid, doc_id
    """


def _apply_merges(toks: list, merges: list) -> list:
    """Apply learned merges in RANK ORDER, each left-to-right and
    non-overlapping (the standard BPE tokenizer application rule); a
    merged unit is the space-join of its parts, so later merges can pair
    it with neighbours."""
    for a, b in merges:
        out = []
        i = 0
        n = len(toks)
        while i < n:
            if i + 1 < n and toks[i] == a and toks[i + 1] == b:
                out.append(a + " " + b)
                i += 2
            else:
                out.append(toks[i])
                i += 1
        toks = out
    return toks


def bpe_train_merges(sf_dir: str, n_merges: int = 4):
    """(rank, left, right, n) — the first ``n_merges`` BPE merge rules
    learned over the corpus (word-level units, the tokenizer-training
    loop itself, cf. Sennrich et al. 2016): each round counts adjacent
    unit pairs corpus-wide, takes the global argmax (ties broken by
    (left, right) ascending — deterministic), appends it to the merge
    list, and re-tokenizes in the next round.

    Distributed shape per round: broadcast the merge list (≤ n_merges
    rows) via ``ray.put``, one streaming apply+count pass with per-block
    Counter partials, one combiner-first exchange, per-bucket top-1, then
    a ≤ P-row driver argmax.  Rounds re-derive units from text instead of
    materializing sequences between rounds — every round stays a pure
    streaming pass over the source table (resumable, nothing pinned in
    the object store across rounds) at the cost of re-applying ≤ r prior
    merges; production trainers with thousands of merges keep materialized
    sequences + pair-delta updates instead (documented trade).

    SQL-oracled after all (review r4 w9): the greedy sequential rewrite
    unrolls into one windowed CTE block per round — see _bpe_units_sql
    for the non-overlap / run-parity argument — in addition to the
    serial pytest reference in tests/test_functions.py."""
    from ..stages.shuffle import two_phase_groupby

    src = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    ))
    merges: list = []
    rows = []
    for rank in range(n_merges):
        merges_ref = ray.put([(a, b) for a, b, _ in merges])

        def partial(df: pd.DataFrame, _ref=merges_ref) -> pd.DataFrame:
            from collections import Counter

            ms = ray.get(_ref)
            c: Counter = Counter()
            for t in df["text"]:
                u = _apply_merges(t.split(" "), ms)
                c.update(zip(u, u[1:]))
            if not c:
                return pd.DataFrame(
                    {"left": pd.Series([], dtype=str),
                     "right": pd.Series([], dtype=str),
                     "n": pd.Series([], dtype="int64")}
                )
            ks = list(c.keys())
            return pd.DataFrame(
                {"left": [a for a, _ in ks],
                 "right": [b for _, b in ks],
                 "n": np.fromiter(c.values(), dtype=np.int64, count=len(c))}
            )

        counts = two_phase_groupby(
            src.map_batches(partial, batch_format="pandas"),
            keys=["left", "right"],
            aggs={"n": ("n", "sum", "sum")},
        )

        def top1(b):
            import pyarrow as pa_

            df = b.to_pandas()
            df = df.sort_values(
                ["n", "left", "right"], ascending=[False, True, True]
            ).head(1)
            return pa_.Table.from_pandas(
                df, preserve_index=False
            ).replace_schema_metadata(None)

        cand = counts.map_batches(top1, batch_format="pyarrow").to_pandas()
        if cand.empty:
            break
        best = cand.sort_values(
            ["n", "left", "right"], ascending=[False, True, True]
        ).iloc[0]
        merges.append((best["left"], best["right"], int(best["n"])))
        rows.append(
            {"rank": rank, "left": best["left"], "right": best["right"],
             "n": int(best["n"])}
        )
    return ray.data.from_pandas(
        pd.DataFrame(rows, columns=["rank", "left", "right", "n"]).astype(
            {"rank": "int64", "n": "int64"}
        )
        if rows
        else pd.DataFrame(
            {"rank": pd.Series([], dtype="int64"),
             "left": pd.Series([], dtype=str),
             "right": pd.Series([], dtype=str),
             "n": pd.Series([], dtype="int64")}
        )
    )


class _PairCountShard:
    """One shard of the global adjacent-pair count table — the shared
    MUTABLE state of the materialized BPE trainer (the legitimate
    raw-actor case of SURVEY §2: Dataset ops can't express an
    incrementally-updated index).  Pairs land on shard
    ``hash(left,right) % P``; deltas may go negative transiently and are
    skipped at read time."""

    def __init__(self):
        self.c: dict = {}

    def add(self, pairs: list, deltas: list) -> None:
        c = self.c
        for p, d in zip(pairs, deltas):
            c[p] = c.get(p, 0) + d

    def top1(self):
        """Local best by (n desc, left asc, right asc); None if empty."""
        best = None
        for (a, b), n in self.c.items():
            if n <= 0:
                continue
            key = (-n, a, b)
            if best is None or key < best[0]:
                best = (key, (a, b, n))
        return best[1] if best else None

def _shard_of(pair, P: int) -> int:
    import zlib

    return zlib.crc32(f"{pair[0]}\x00{pair[1]}".encode()) % P


def _push_deltas(shards, delta_counter) -> None:
    import ray as _ray

    P = len(shards)
    by_shard: list[tuple[list, list]] = [([], []) for _ in range(P)]
    for p, d in delta_counter.items():
        if d:
            s = by_shard[_shard_of(p, P)]
            s[0].append(p)
            s[1].append(d)
    _ray.get([shards[i].add.remote(ps, ds)
              for i, (ps, ds) in enumerate(by_shard) if ps])


class _BpeSeqWorker:
    """One partition of the MATERIALIZED unit sequences, held in an actor
    across merge rounds (the legitimate raw-actor case of SURVEY §2:
    an incrementally-rewritten corpus + delta-updated global index is not
    expressible as stateless Dataset ops — per-round Dataset materializes
    cost ~0.3 s of orchestration each, measured, which dominates 64
    rounds).  A token → doc-id index makes each round O(occurrences of
    the merged pair in this partition), not O(partition)."""

    def __init__(self, shards):
        self.shards = shards
        self.units: list[list[str]] = []
        self.tok2docs: dict[str, set] = {}

    def load_and_seed(self, split) -> int:
        from collections import Counter

        c: Counter = Counter()
        t2d = self.tok2docs
        for batch in split.iter_batches(batch_format="pyarrow"):
            for text in batch.column("text").to_pylist():
                u = text.split(" ")
                di = len(self.units)
                self.units.append(u)
                c.update(zip(u, u[1:]))
                for tok in u:
                    s = t2d.get(tok)
                    if s is None:
                        t2d[tok] = {di}
                    else:
                        s.add(di)
        _push_deltas(self.shards, c)
        return len(self.units)

    def apply(self, a: str, b: str) -> int:
        """Merge (a, b) → 'a b' everywhere in this partition; push pair-
        count deltas to the shard table.  Index entries are added for the
        merged unit; stale memberships (doc no longer contains a token)
        are left lazily — they only cost a wasted adjacency scan."""
        from collections import Counter

        merged = a + " " + b
        docs = (self.tok2docs.get(a, set())
                & self.tok2docs.get(b, set()))
        if not docs:
            return 0
        delta: Counter = Counter()
        rewritten = 0
        for di in sorted(docs):
            u = self.units[di]
            hit = False
            for i in range(len(u) - 1):
                if u[i] == a and u[i + 1] == b:
                    hit = True
                    break
            if not hit:
                continue
            delta.subtract(zip(u, u[1:]))
            new = []
            i, ln = 0, len(u)
            while i < ln:
                if i + 1 < ln and u[i] == a and u[i + 1] == b:
                    new.append(merged)
                    i += 2
                else:
                    new.append(u[i])
                    i += 1
            delta.update(zip(new, new[1:]))
            self.units[di] = new
            self.tok2docs.setdefault(merged, set()).add(di)
            rewritten += 1
        _push_deltas(self.shards, delta)
        return rewritten


def bpe_train_merges_materialized(sf_dir: str, n_merges: int = 64,
                                  num_shards: int | None = None,
                                  num_workers: int | None = None):
    """(rank, left, right, n) — identical semantics (bit-equal output,
    pytest-pinned) to :func:`bpe_train_merges`, in the PRODUCTION shape
    for large merge counts: unit sequences are
    tokenized ONCE into actor-held partitions and rewritten by exactly
    one merge per round (no per-round re-derive — O(n) total rewrite work
    instead of O(n²) merge applications); global pair counts live in a
    sharded actor table updated by DELTAS from the rewrites.  Per-round
    cost: one top-1 RPC per count shard + one apply RPC per worker, with
    per-worker work bounded by the merged pair's occurrence count (token →
    doc index) — at 64 merges this runs ~5× faster than 64 Dataset
    passes and ~30× faster than the re-derive loop (measured at sf0.1).

    Scale notes: sequence partitions live in worker heaps (the standard
    tokenizer-trainer trade — production systems spill partitions to
    local disk; ≈ corpus-sized total, spread over the cluster); the count
    table is sharded so no single process holds the corpus bigram
    vocabulary.  Actor LOSS loses state — production hardening would
    checkpoint partitions + replay deltas (documented trade)."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    P = num_shards or max(4, cpus // 4)
    K = num_workers or max(4, cpus // 2)
    # split (materializes) BEFORE spawning actors, and keep the actors at
    # num_cpus=0: reserving K CPUs would starve the read tasks on a small
    # cluster (measured deadlock at 4 CPUs); K ≤ cores/2 bounds real
    # oversubscription
    splits = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )).split(K)
    shards = [ray.remote(num_cpus=0)(_PairCountShard).remote()
              for _ in range(P)]
    workers = [ray.remote(num_cpus=0)(_BpeSeqWorker).remote(shards)
               for _ in range(K)]
    try:
        ray.get([w.load_and_seed.remote(s) for w, s in zip(workers, splits)])

        rows = []
        for rank in range(n_merges):
            cands = [c
                     for c in ray.get([s.top1.remote() for s in shards]) if c]
            if not cands:
                break
            a, b_, n = min(cands, key=lambda t: (-t[2], t[0], t[1]))
            rows.append({"rank": rank, "left": a, "right": b_, "n": int(n)})
            ray.get([w.apply.remote(a, b_) for w in workers])
    finally:
        # corpus-sized actor heaps must not outlive the trainer, even on a
        # mid-round failure
        for h in shards + workers:
            ray.kill(h)
    return ray.data.from_pandas(
        pd.DataFrame(rows, columns=["rank", "left", "right", "n"]).astype(
            {"rank": "int64", "n": "int64"})
        if rows else
        pd.DataFrame({"rank": pd.Series([], dtype="int64"),
                      "left": pd.Series([], dtype=str),
                      "right": pd.Series([], dtype=str),
                      "n": pd.Series([], dtype="int64")}))


def bpe_pair_counts(sf_dir: str, k: int = 30):
    """(pair, n) — global top-k most frequent ADJACENT token pairs: the
    counting step at the heart of BPE/tokenizer training (each merge round
    picks argmax over exactly this table).  Same combiner shape as
    top_tokens, but the per-block kernel builds pairs with one vectorized
    shift over the flattened token stream (doc-boundary mask — no pair
    crosses documents, no Python per-doc loop)."""
    from ..stages.shuffle import two_phase_groupby

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        flat = toks.explode()
        if len(flat) == 0:
            return pd.DataFrame(
                {"pair": pd.Series([], dtype=str),
                 "n": pd.Series([], dtype="int64")}
            )
        vals = flat.to_numpy(dtype=object)
        same_doc = flat.index.to_numpy()[1:] == flat.index.to_numpy()[:-1]
        left = vals[:-1][same_doc]
        right = vals[1:][same_doc]
        pairs = pd.Series(left) + " " + pd.Series(right)
        vc = pairs.value_counts()
        return pd.DataFrame({"pair": vc.index.astype(str), "n": vc.to_numpy()})

    posted = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )).map_batches(partial_counts, batch_format="pandas")
    counts = two_phase_groupby(
        posted, keys=["pair"], aggs={"n": ("n", "sum", "sum")}
    )

    def per_bucket_topk(b):
        import pyarrow as pa_

        df = b.to_pandas()
        df = df.sort_values(["n", "pair"], ascending=[False, True]).head(k)
        return pa_.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    partial_top = counts.map_batches(per_bucket_topk, batch_format="pyarrow")
    out = partial_top.to_pandas()  # ≤ k rows per bucket, constant-bounded
    if out.empty:  # empty corpus: Ray drops the schema → sort KeyError
        out = pd.DataFrame({"pair": pd.Series([], dtype="string"),
                            "n": pd.Series([], dtype="int64")})
    out = out.sort_values(["n", "pair"], ascending=[False, True]).head(k)
    out = out.reset_index(drop=True).astype({"n": "int64"})
    return ray.data.from_pandas(out)


def distinct_texts_by_source(sf_dir: str):
    """(source, n_docs, n_distinct) — grouped COUNT DISTINCT, the
    two-exchange pattern: dedup on (source, md5) first (combiner collapses
    per block), then count per source.  The duplicate-rate-per-source view
    a crawl pipeline monitors."""
    import hashlib as _hl

    from ..stages.shuffle import two_phase_groupby

    ds = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    ))

    def hashed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": df["source"],
                "h": df["text"].map(lambda t: _hl.md5(t.encode()).hexdigest()),
            }
        )

    # keys ordered ["h", "source"]: the exchange buckets on keys[0], and
    # bucketing on the HIGH-cardinality hash spreads a hot source across
    # buckets instead of serializing its whole distinct set into one task
    pairs = two_phase_groupby(
        ds.map_batches(hashed, batch_format="pandas"),
        keys=["h", "source"],
        aggs={"n_docs": (None, "size", "sum")},
    )
    return two_phase_groupby(
        pairs,
        keys=["source"],
        aggs={"n_docs": ("n_docs", "sum", "sum"),
              "n_distinct": (None, "size", "sum")},
    )


HIST_BUCKET = 200  # chars per length-histogram bucket


def length_histogram(sf_dir: str, bucket: int = HIST_BUCKET):
    """(bucket_lo, n) — document-length histogram (combiner + one tiny
    exchange; the shape monitoring dashboards pull)."""
    from ..stages.shuffle import two_phase_groupby

    ds = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"]
    ))

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"bucket_lo": (df["n_chars"] // bucket * bucket).astype("int64")}
        )

    return two_phase_groupby(
        ds.map_batches(bucketize, batch_format="pandas"),
        keys=["bucket_lo"],
        aggs={"n": (None, "size", "sum")},
    )


def global_sort_rank(sf_dir: str, n_id_buckets: int = 16):
    """(doc_id, n_tokens, rank) — the global ORDER BY (n_tokens DESC,
    doc_id) rank of every document: distributed total-order sort + rank
    assignment WITHOUT materializing a sorted copy.

    Shape (the ordered-prefix-sum pattern):
      1. one tokenize pass → (doc_id, n_tokens) int rows, materialized
         (~16 B/doc);
      2. an order-preserving composite range bucket
         ``(max_nt − nt) · S + id_subbucket`` — the id sub-split keeps a
         single dominant document length from collapsing into one bucket
         (exact-tie rows order by doc_id, which the id ranges preserve);
      3. per-bucket COUNTS reduce in-cluster; the driver folds them (in
         bucket order) into exclusive rank offsets — O(non-empty buckets)
         driver state, never O(docs) — broadcast once;
      4. one groupby(bucket) exchange of the int rows; each bucket sorts
         locally and adds its offset.
    At 100 TB, quantize n_tokens into bands (and sub-split ties) to bound
    the offset table; the exactness argument is unchanged within a band
    holding a single value."""
    import ray as _ray
    from ray.data.aggregate import Max, Min

    from ..stages.shuffle import two_phase_groupby

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_tokens": _ws_token_count(df["text"]),
            }
        )

    proj = (
        drop_null_rows(ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"]))
        .map_batches(project, batch_format="pandas")
        .materialize()
    )
    agg = proj.aggregate(Min("doc_id"), Max("doc_id"), Max("n_tokens"))
    if not agg or agg.get("max(n_tokens)") is None:  # empty documents
        # table: aggregate yields Nones and int(None) would crash
        return ray.data.from_pandas(
            pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "n_tokens": pd.Series([], dtype="int64"),
                          "rank": pd.Series([], dtype="int64")})
        )
    lo, hi = int(agg["min(doc_id)"]), int(agg["max(doc_id)"])
    max_nt = int(agg["max(n_tokens)"])
    width = max(1, (hi - lo + n_id_buckets) // n_id_buckets)

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rbucket"] = (max_nt - df["n_tokens"]) * n_id_buckets + (
            (df["doc_id"] - lo) // width
        )
        return df

    bucketed = proj.map_batches(bucketize, batch_format="pandas")

    counts = two_phase_groupby(
        bucketed.map_batches(
            lambda df: df[["rbucket"]], batch_format="pandas"
        ),
        keys=["rbucket"],
        aggs={"n": (None, "size", "sum")},
    ).to_pandas()
    counts = counts.sort_values("rbucket")
    offsets = dict(
        zip(
            counts["rbucket"].astype("int64"),
            np.concatenate(([0], counts["n"].to_numpy()[:-1].cumsum())).astype(
                "int64"
            ),
        )
    )
    off_ref = _ray.put(offsets)

    def rank_group(df: pd.DataFrame) -> pd.DataFrame:
        offs = _ray.get(off_ref)
        df = df.sort_values(["n_tokens", "doc_id"], ascending=[False, True])
        base = int(offs[int(df["rbucket"].iloc[0])])
        df["rank"] = base + 1 + np.arange(len(df), dtype=np.int64)
        return df[["doc_id", "n_tokens", "rank"]]

    return bucketed.groupby("rbucket").map_groups(
        rank_group, batch_format="pandas"
    )


_HLL_M = 1024  # registers (b=10); σ ≈ 1.04/√1024 ≈ 3.3%


def hll_distinct_by_source(sf_dir: str):
    """(source, n_hit, est) — HyperLogLog approximate COUNT DISTINCT of
    texts per source: THE sketch for web-scale cardinality (the exact
    ``distinct_texts_by_source`` needs a dedup exchange over every
    distinct text; this needs a CONSTANT 1024 registers per source, merged
    with max — rows on the exchange are O(blocks × sources × 1024)
    regardless of corpus size).

    Fully SQL-oracled despite being a sketch: registers are pure functions
    of md5(text) (j = low 10 bits, ρ = 53 − bit_length(h >> 12)), and the
    harmonic sum is carried in integer units of 2⁻⁵³ (max 1024·2⁵³ = 2⁶³),
    so both engines divide the same exact integer — the estimate is
    bit-identical, not approximately equal.  Small-range (linear counting)
    correction included, same expression both sides."""
    import hashlib as _hl

    from ..stages.shuffle import two_phase_groupby

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = np.fromiter(
            (int(_hl.md5(t.encode()).hexdigest()[:16], 16) for t in df["text"]),
            dtype=np.uint64,
            count=len(df),
        )
        j = (h & np.uint64(_HLL_M - 1)).astype(np.int64)
        w = (h >> np.uint64(12)).astype(np.int64)  # < 2^52: exact in float64
        _, exp = np.frexp(w.astype(np.float64))
        rho = np.where(w == 0, np.int64(53), np.int64(53) - exp).astype(np.int64)
        out = pd.DataFrame({"source": df["source"], "j": j, "rho": rho})
        return out.groupby(["source", "j"], as_index=False)["rho"].max()

    regs = two_phase_groupby(
        drop_null_rows(ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["source", "text"]))
        .map_batches(partial, batch_format="pandas"),
        keys=["source", "j"],
        aggs={"rho": ("rho", "max", "max")},
    )

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        import math

        m = _HLL_M
        n_hit = len(df)
        # exact integer harmonic sum in units of 2^-53 (python bigint)
        units = sum(1 << (53 - int(r)) for r in df["rho"]) + (m - n_hit) * (
            1 << 53
        )
        e_raw = (
            0.7213 / (1.0 + 1.079 / 1024.0)
            * 1024.0 * 1024.0 * 9007199254740992.0 / float(units)
        )
        zeros = m - n_hit
        if e_raw <= 2.5 * 1024.0 and zeros > 0:
            est = 1024.0 * math.log(1024.0 / float(zeros))
        else:
            est = e_raw
        from ..stages.shuffle import round6_away

        return pd.DataFrame(
            {
                "source": [df["source"].iloc[0]],
                "n_hit": np.array([n_hit], dtype=np.int64),
                # round6_away, not builtin round(): DuckDB round() is
                # half-away-from-zero — the repo-wide bridge for every
                # float column an oracle compares (review r4 w8; latent
                # for e_raw tie values, no current input hits one)
                "est": [float(round6_away(est))],
            }
        )

    return regs.groupby("source").map_groups(estimate, batch_format="pandas")


NTILE_K = 4


def ntile_by_source(sf_dir: str, k: int = NTILE_K):
    """(doc_id, source, n_tokens, quartile) — each document's ntile(k)
    within its source, ordered by (n_tokens, doc_id): the PER-GROUP
    ranked-window shape (length-quartile stratification for curriculum /
    balanced sampling), completing the window family next to the global
    rank and the per-key running sums.

    Same ordered-prefix-sum machinery as global_sort_rank, but keyed by
    (source, exact n_tokens) range buckets: in-cluster bucket counts →
    per-source exclusive offsets folded on the driver (O(sources ×
    distinct lengths) — quantize length bands at real scale) → one
    groupby exchange where each bucket sorts locally, adds its offset,
    and computes the ntile from its source's total.  DuckDB's ntile
    semantics are mirrored exactly: the first n % k buckets get one
    extra row."""
    import ray as _ray

    from ..stages.shuffle import from_pandas_clean, two_phase_groupby

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "source": df["source"],
                "n_tokens": _ws_token_count(df["text"]),
            }
        )

    proj = (
        _read_docs(sf_dir, ("doc_id", "text", "source"))
        .map_batches(project, batch_format="pandas")
        .materialize()
    )

    counts = two_phase_groupby(
        proj.map_batches(
            lambda df: df[["source", "n_tokens"]], batch_format="pandas"
        ),
        keys=["source", "n_tokens"],
        aggs={"n": (None, "size", "sum")},
    ).to_pandas()  # O(sources × distinct lengths) — bounded
    if counts.empty:  # empty documents table: Ray's to_pandas drops the
        # schema from all-empty blocks and sort_values would KeyError
        return ray.data.from_pandas(
            pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "source": pd.Series([], dtype="string"),
                          "n_tokens": pd.Series([], dtype="int64"),
                          "quartile": pd.Series([], dtype="int64")})
        )
    counts = counts.sort_values(["source", "n_tokens"])
    offsets: dict = {}
    totals: dict = {}
    for src, grp in counts.groupby("source", sort=False):
        c = grp["n"].to_numpy(dtype=np.int64)
        offs = np.concatenate(([0], c[:-1].cumsum()))
        for nt, off in zip(grp["n_tokens"], offs):
            offsets[(src, int(nt))] = int(off)
        totals[src] = int(c.sum())
    state = _ray.put((offsets, totals, k))

    def rank_group(df: pd.DataFrame):
        offs, tots, k_ = _ray.get(state)
        df = df.sort_values("doc_id")
        src = df["source"].iloc[0]
        nt = int(df["n_tokens"].iloc[0])
        r = offs[(src, nt)] + 1 + np.arange(len(df), dtype=np.int64)
        n = tots[src]
        base, extra = n // k_, n % k_
        head = extra * (base + 1)
        # both np.where branches evaluate: max(base, 1) only guards the
        # unused second branch when n < k (base = 0, every row ≤ head)
        q = np.where(
            r <= head,
            (r - 1) // (base + 1) + 1,
            extra + (np.maximum(r - head, 1) - 1) // max(base, 1) + 1,
        )
        out = df[["doc_id", "source", "n_tokens"]].copy()
        out["quartile"] = q.astype("int64")
        return from_pandas_clean(out)

    return proj.groupby(["source", "n_tokens"]).map_groups(
        rank_group, batch_format="pandas"
    )


def bpe_encode(sf_dir: str, n_merges: int = 4):
    """(doc_id, n_units, n_merged_units) — tokenize the corpus with the
    merge table learned by ``bpe_train_merges``: the APPLY half of the
    tokenizer loop (train → encode → pack), what every corpus pass runs
    before token-budget packing.

    Scale shape: the merge table is the tokenizer artifact (≤ n_merges
    rows), learned once and broadcast via ``ray.put``; encoding is one
    streaming pass with the same rank-order left-to-right rule the
    trainer used.  SQL-oracled like the trainer (review r4 w9, see
    _bpe_units_sql) in addition to the serial pytest reference."""
    mt = bpe_train_merges_materialized(sf_dir, n_merges).to_pandas()
    # empty corpus learns no merges; Ray's to_pandas drops the schema of a
    # fully-empty dataset, so sort_values would KeyError on "rank"
    if mt.empty:
        merges = []
    else:
        mt = mt.sort_values("rank")
        merges = list(zip(mt["left"], mt["right"]))
    ref = ray.put(merges)

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        ms = ray.get(ref)
        units = [_apply_merges(t.split(" "), ms) for t in df["text"]]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_units": np.array([len(u) for u in units], dtype=np.int64),
                "n_merged_units": np.array(
                    [sum(" " in x for x in u) for u in units], dtype=np.int64
                ),
            }
        )

    return _read_docs(sf_dir).map_batches(encode, batch_format="pandas")


CMS_D = 4  # sketch rows (hash functions)
CMS_W = 512  # sketch width (cells per row)
CMS_PROBE_DOCS = 5  # probe set = distinct tokens of doc_id < this


_CMS_MEMO: dict[tuple[int, str, int], int] = {}  # per-worker cell memo (_TOK_H pattern)


def _cms_cell(r: int, token: str, w: int) -> int:
    # w is part of the key: the cell index is md5 % w, so a second call
    # with a different sketch width in the same (long-lived Ray worker)
    # process must not reuse the first width's cells (review r4 w8)
    key = (r, token, w)
    c = _CMS_MEMO.get(key)
    if c is None:
        c = int(hashlib.md5(f"{r}|{token}".encode()).hexdigest()[:16], 16) % w
        if len(_CMS_MEMO) < 4_000_000:
            _CMS_MEMO[key] = c
    return c


def cms_probe_counts(
    sf_dir: str, d: int = CMS_D, w: int = CMS_W, probe_docs: int = CMS_PROBE_DOCS
):
    """(token, est, true_n) — Count-Min sketch frequency estimates for a
    probe token set, next to the exact counts (the CMS guarantee est ≥
    true_n is visible in the output).  The streaming-counter sketch every
    trillion-token pipeline uses when exact per-token counts don't fit.

    Scale shape: the sketch is the artifact — d×w integers (4×512 here),
    NOT the vocabulary.  One combiner-first token-count exchange feeds a
    second tiny (r, cell) exchange; the driver holds only the d×w grid and
    the bounded probe set.  Cells are pure md5 functions of (row, token),
    so the DuckDB oracle rebuilds the identical sketch — estimates match
    bit-for-bit, including collision-inflated ones."""
    from ..stages.shuffle import two_phase_groupby

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].str.split(" ").explode().value_counts()
        return pd.DataFrame({"token": vc.index.astype(str), "n": vc.to_numpy()})

    counts = two_phase_groupby(
        _read_docs(sf_dir, ("text",)).map_batches(
            partial_counts, batch_format="pandas"),
        keys=["token"],
        aggs={"n": ("n", "sum", "sum")},
    ).materialize()  # consumed twice (grid + probe lookup): without this,
    # the whole corpus scan + count exchange re-executes for the ≤|probe|
    # exact-count rows (review finding)

    def to_cells(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["token"].to_numpy()
        n = df["n"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "r": np.repeat(np.arange(d, dtype=np.int64), len(toks)),
                "cell": np.array(
                    [_cms_cell(r, t, w) for r in range(d) for t in toks],
                    dtype=np.int64,
                ),
                "s": np.tile(n, d),
            }
        )

    grid = two_phase_groupby(
        counts.map_batches(to_cells, batch_format="pandas"),
        keys=["r", "cell"],
        aggs={"s": ("s", "sum", "sum")},
    ).to_pandas()  # ≤ d×w rows — the sketch itself
    sketch = np.zeros((d, w), dtype=np.int64)
    if not grid.empty:  # empty corpus drops the frame's schema (KeyError)
        sketch[
            grid["r"].to_numpy(dtype=np.int64),
            grid["cell"].to_numpy(dtype=np.int64),
        ] = grid["s"].to_numpy(dtype=np.int64)

    import pyarrow.dataset as pads

    probe_txt = (
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["text"], filter=pads.field("doc_id") < probe_docs)
        .drop_null()  # the read-boundary null contract (drop_null_rows)
        .column("text")
        .to_pylist()
    )
    probe = sorted({t for txt in probe_txt for t in txt.split(" ")})

    probe_ref = ray.put(set(probe))

    def keep_probe(df: pd.DataFrame) -> pd.DataFrame:
        p = ray.get(probe_ref)
        return df[df["token"].isin(p)]

    exact = (
        counts.map_batches(keep_probe, batch_format="pandas").to_pandas()
    )  # ≤ |probe| rows
    if "token" not in exact.columns:  # empty probe set drops the schema
        exact = pd.DataFrame(
            {"token": pd.Series([], dtype=str),
             "n": pd.Series([], dtype="int64")}
        )
    true_n = exact.set_index("token")["n"]
    est = np.array(
        [min(sketch[r, _cms_cell(r, t, w)] for r in range(d)) for t in probe],
        dtype=np.int64,
    )
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "token": probe,
                "est": est,
                "true_n": np.array(
                    [true_n.get(t, 0) for t in probe], dtype=np.int64
                ),
            }
        )
    )


def _cms_sql(d: int = CMS_D, w: int = CMS_W, probe_docs: int = CMS_PROBE_DOCS) -> str:
    return f"""
    WITH cnt AS (
      SELECT token, count(*) AS c FROM (
        SELECT unnest(string_split(text, ' ')) AS token FROM documents
      ) GROUP BY token
    ),
    cells AS (
      SELECT rr.r,
             CAST(('0x' || substr(md5(CAST(rr.r AS VARCHAR) || '|' || token), 1, 16))
               AS UBIGINT) % {w} AS cell,
             sum(c) AS s
      FROM cnt, (SELECT unnest(range({d})) AS r) rr
      GROUP BY 1, 2
    ),
    probe AS (
      SELECT DISTINCT unnest(string_split(text, ' ')) AS token
      FROM documents WHERE doc_id < {probe_docs}
    )
    SELECT p.token,
           CAST(min(ce.s) AS BIGINT) AS est,
           CAST(any_value(cnt.c) AS BIGINT) AS true_n
    FROM probe p
    CROSS JOIN (SELECT unnest(range({d})) AS r) rr
    JOIN cells ce ON ce.r = rr.r
      AND ce.cell = CAST(('0x' || substr(md5(CAST(rr.r AS VARCHAR) || '|' || p.token), 1, 16))
                      AS UBIGINT) % {w}
    JOIN cnt ON cnt.token = p.token
    GROUP BY p.token
    """


ROLLUP_ALL = "(all)"  # sentinel for the rolled-up level (no real source
# or lang in the synthetic tables uses it; a deployment with colliding
# names passes its own sentinel)


def rollup_token_stats(sf_dir: str):
    """(source, lang, n_docs, n_tokens) — hierarchical aggregate à la
    GROUP BY ROLLUP(source, lang): the (source, lang) leaf level, the
    per-source subtotal (lang = '(all)') and the grand total (both
    '(all)') in one result.  The warehouse rollup shape every corpus
    dashboard needs.

    Scale shape: ONE streaming pass emits block-local leaf partials
    (combiner), one bucketed exchange merges them; both upper levels are
    pure arithmetic over the LEAF table, which is bounded by
    |sources| × |langs| (vocabulary-sized — collected driver-side for
    that reason, never the corpus)."""
    from ..stages.shuffle import two_phase_groupby

    import pyarrow.dataset as pads

    empty = pa.table({
        "source": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
        "n_docs": pa.array([], pa.int64()),
        "n_tokens": pa.array([], pa.int64()),
    })
    if pads.dataset(f"{sf_dir}/documents.parquet").count_rows() == 0:
        return ray.data.from_arrow(empty)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "source": df["source"],
            "lang": df["lang"],
            "n_tokens": df["text"].str.split(" ").str.len().astype("int64"),
        })
        return out.groupby(["source", "lang"], as_index=False).agg(
            n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum"))

    leaf = two_phase_groupby(
        _read_docs(sf_dir, ("text", "source", "lang")).map_batches(
            partial, batch_format="pandas"),
        keys=["source", "lang"],
        aggs={"n_docs": ("n_docs", "sum", "sum"),
              "n_tokens": ("n_tokens", "sum", "sum")},
    ).to_pandas()  # bounded: one row per (source, lang)
    if leaf.empty:
        return ray.data.from_arrow(empty)
    per_source = leaf.groupby("source", as_index=False).agg(
        n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum"))
    per_source["lang"] = ROLLUP_ALL
    total = pd.DataFrame({
        "source": [ROLLUP_ALL], "lang": [ROLLUP_ALL],
        "n_docs": [leaf["n_docs"].sum()],
        "n_tokens": [leaf["n_tokens"].sum()],
    })
    out = pd.concat([leaf, per_source, total], ignore_index=True)
    out = out[["source", "lang", "n_docs", "n_tokens"]].astype(
        {"n_docs": "int64", "n_tokens": "int64"})
    return ray.data.from_arrow(
        pa.Table.from_pandas(out, preserve_index=False))


def queries():
    return {
        "rollup_token_stats": rollup_token_stats,
        "doc_stats": doc_stats,
        "cms_probe_counts": cms_probe_counts,
        "ntile_by_source": ntile_by_source,
        "global_sort_rank": global_sort_rank,
        "hll_distinct_by_source": hll_distinct_by_source,
        "token_count_by_source": token_count_by_source,
        "quality_score": quality_score,
        "lang_id": lang_id,
        "fingerprint": fingerprint,
        "winnowing_fingerprints": winnowing_fingerprints,
        "token_quantiles_by_source": token_quantiles_by_source,
        "bpe_token_count": bpe_token_count,
        "lang_id_ngram": lang_id_ngram,
        "top_tokens": top_tokens,
        "bpe_pair_counts": bpe_pair_counts,
        # the materialized trainer is the default serving path (bit-equal
        # to the streaming re-derive loop, pytest-pinned; ~2× faster at 4
        # merges and ~30× at 64); the re-derive loop
        # stays as the resumable/no-actor-state variant and parity anchor
        "bpe_train_merges": lambda sf_dir: bpe_train_merges_materialized(
            sf_dir, n_merges=4),
        "bpe_encode": bpe_encode,
        "longest_docs_by_source": longest_docs_by_source,
        "distinct_texts_by_source": distinct_texts_by_source,
        "length_histogram": length_histogram,
    }


def oracles():
    stop_list = ", ".join(f"'{w}'" for w in _STOP_MARKERS)
    lang_cases = []
    for lang in sorted(LANG_MARKERS):
        marks = ", ".join(f"'{w}'" for w in LANG_MARKERS[lang])
        lang_cases.append(
            f"(SELECT count(*) FROM unnest(string_split(text, ' ')) AS u(w) WHERE w IN ({marks})) AS n_{lang}"
        )
    tri_cases = []
    for lang in sorted(TRIGRAM_PROFILES):
        parts = " + ".join(
            f"CAST((length(lower(text)) - length(replace(lower(text), '{tri}', ''))) / {len(tri)} AS BIGINT)"
            for tri in TRIGRAM_PROFILES[lang]
        )
        tri_cases.append(f"({parts}) AS n_{lang}")
    tri_langs = sorted(TRIGRAM_PROFILES)
    tri_best = "CASE "
    for lang in tri_langs:
        others = " AND ".join(
            f"n_{lang} >= n_{o}" if o > lang else f"n_{lang} > n_{o}"
            for o in tri_langs if o != lang
        )
        tri_best += f"WHEN {others or 'TRUE'} THEN '{lang}' "
    tri_best += "END"

    return {
        "distinct_texts_by_source": """
        SELECT source, count(*) AS n_docs,
               count(DISTINCT md5(text)) AS n_distinct
        FROM documents GROUP BY source
        """,
        "hll_distinct_by_source": """
        WITH h AS (
          SELECT source,
                 CAST(('0x' || substr(md5(text), 1, 16)) AS UBIGINT) AS hv
          FROM documents
        ),
        r AS (
          SELECT source, CAST(hv & 1023 AS BIGINT) AS j,
                 CASE WHEN (hv >> 12) = 0 THEN 53
                      ELSE 53 - length(printf('%b', CAST(hv >> 12 AS BIGINT)))
                      END AS rho
          FROM h
        ),
        reg AS (
          SELECT source, j, MAX(rho) AS rho FROM r GROUP BY source, j
        ),
        s AS (
          SELECT source, count(*) AS n_hit,
                 sum(CAST((CAST(1 AS UBIGINT) << (53 - rho)) AS HUGEINT))
                   + CAST(1024 - count(*) AS HUGEINT)
                     * CAST((CAST(1 AS UBIGINT) << 53) AS HUGEINT) AS su
          FROM reg GROUP BY source
        ),
        e AS (
          SELECT source, n_hit,
                 0.7213 / (1.0 + 1.079 / 1024.0)
                   * 1024.0 * 1024.0 * 9007199254740992.0
                   / CAST(su AS DOUBLE) AS e_raw
          FROM s
        )
        SELECT source, CAST(n_hit AS BIGINT) AS n_hit,
               round(CASE WHEN e_raw <= 2.5 * 1024.0 AND (1024 - n_hit) > 0
                          THEN 1024.0 * ln(1024.0 / CAST(1024 - n_hit AS DOUBLE))
                          ELSE e_raw END, 6) AS est
        FROM e
        """,
        "global_sort_rank": """
        SELECT doc_id,
               CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
               CAST(row_number() OVER (
                 ORDER BY len(string_split(text, ' ')) DESC, doc_id
               ) AS BIGINT) AS rank
        FROM documents
        """,
        "length_histogram": f"""
        SELECT (n_chars // {HIST_BUCKET}) * {HIST_BUCKET} AS bucket_lo,
               count(*) AS n
        FROM documents GROUP BY 1
        """,
        "longest_docs_by_source": """
        WITH r AS (
          SELECT source, doc_id,
                 len(string_split(text, ' ')) AS n_tokens,
                 row_number() OVER (
                   PARTITION BY source
                   ORDER BY len(string_split(text, ' ')) DESC, doc_id
                 ) AS rank
          FROM documents
        )
        SELECT source, doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
               CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= 3
        """,
        "bpe_train_merges": _bpe_train_merges_oracle(4),
        "bpe_encode": _bpe_encode_oracle(4),
        "bpe_pair_counts": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
        p AS (
          SELECT ts[u.i] || ' ' || ts[u.i + 1] AS pair
          FROM t, unnest(range(1, len(ts))) AS u(i)
        )
        SELECT pair, count(*) AS n FROM p
        GROUP BY pair ORDER BY n DESC, pair ASC LIMIT 30
        """,
        "top_tokens": f"""
        SELECT u.tok AS token, count(*) AS n
        FROM documents, unnest(string_split(text, ' ')) AS u(tok)
        GROUP BY u.tok
        ORDER BY n DESC, token ASC
        LIMIT {TOP_K_TOKENS}
        """,
        "bpe_token_count": f"""
        SELECT doc_id,
               len(string_split(text, ' ')) AS n_ws_tokens,
               len(regexp_extract_all(text, '{_BPE_RE_SRC}')) AS n_bpe_tokens
        FROM documents
        """,
        "lang_id_ngram": f"""
        WITH c AS (SELECT doc_id, {', '.join(tri_cases)} FROM documents)
        SELECT doc_id,
               CASE WHEN {' AND '.join(f'n_{la} = 0' for la in tri_langs)}
                    THEN 'und' ELSE {tri_best} END AS lang_pred
        FROM c
        """,
        "winnowing_fingerprints": """
        WITH toks AS (
          SELECT doc_id, string_split(text, ' ') AS ts FROM documents
        ),
        gh AS (
          SELECT doc_id, i,
                 CAST(('0x' || substr(md5(array_to_string(ts[i:i+3], ' ')),
                                      1, 16)) AS UBIGINT) AS h
          FROM (
            SELECT doc_id, ts,
                   unnest(range(1, greatest(len(ts) - 3, 0) + 1)) AS i
            FROM toks
          )
        ),
        hl AS (SELECT doc_id, list(h ORDER BY i) AS hs FROM gh GROUP BY doc_id),
        wins AS (
          SELECT doc_id, hs,
                 unnest(range(1, greatest(len(hs) - 4, 0) + 1)) AS p
          FROM hl
        ),
        sel AS (
          SELECT doc_id,
                 p + (5 + 1
                      - list_position(list_reverse(hs[p:p+4]),
                                      list_min(hs[p:p+4]))) - 2 AS pos,
                 list_min(hs[p:p+4]) AS fp
          FROM wins
        )
        SELECT DISTINCT doc_id, CAST(pos AS BIGINT) AS pos, fp FROM sel
        """,
        "fingerprint": """
        -- keyed on a synthetic ROW id: the engine fingerprints each input
        -- row independently, so duplicate doc_ids must not cross-join the
        -- recursive roll (reproduced: 11 rows from 7 inputs, review r4 w9)
        WITH RECURSIVE tokslist AS (
          SELECT row_number() OVER () AS rid, doc_id,
                 string_split(text, ' ') AS ts
          FROM documents
        ),
        idx AS (
          SELECT rid, ts, unnest(range(1, len(ts) + 1)) AS i FROM tokslist
        ),
        thash AS (
          SELECT rid, i,
                 CAST(('0x' || substr(md5(ts[i]), 1, 16)) AS UBIGINT) AS th
          FROM idx
        ),
        maxi AS (SELECT rid, MAX(i) AS n FROM thash GROUP BY rid),
        roll(rid, i, h) AS (
          SELECT rid, 0, CAST(0 AS HUGEINT) FROM maxi
          UNION ALL
          SELECT r.rid, r.i + 1,
                 (r.h * 257 + CAST(t.th AS HUGEINT)) % 2305843009213693951
          FROM roll r JOIN thash t ON t.rid = r.rid AND t.i = r.i + 1
        )
        SELECT tl.doc_id, CAST(r.h AS UBIGINT) AS fp
        FROM roll r
        JOIN maxi m ON m.rid = r.rid AND r.i = m.n
        JOIN tokslist tl ON tl.rid = r.rid
        """,
        "cms_probe_counts": _cms_sql(),
        "ntile_by_source": f"""
        SELECT doc_id, source,
               CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
               CAST(ntile({NTILE_K}) OVER (
                 PARTITION BY source
                 ORDER BY len(string_split(text, ' ')), doc_id
               ) AS BIGINT) AS quartile
        FROM documents
        """,
        "doc_stats": f"""
        WITH s AS (
          SELECT doc_id, length(text) AS n_chars,
                 len(string_split(text, ' ')) AS n_tokens,
                 (SELECT count(DISTINCT w) FROM unnest(string_split(text, ' ')) AS u(w)) AS n_uniq_tokens,
                 (SELECT count(*) FROM unnest(string_split(text, ' ')) AS u(w) WHERE w IN ({stop_list})) AS n_stop
          FROM documents
        )
        SELECT doc_id, n_chars, n_tokens, n_uniq_tokens,
               round(n_stop / CAST(n_tokens AS DOUBLE), 6) AS stop_ratio
        FROM s
        """,
        "token_quantiles_by_source": """
        WITH t AS (SELECT source, len(string_split(text, ' ')) AS n FROM documents)
        SELECT source,
               round(percentile_cont(0.25) WITHIN GROUP (ORDER BY n), 6) AS p25,
               round(percentile_cont(0.50) WITHIN GROUP (ORDER BY n), 6) AS p50,
               round(percentile_cont(0.75) WITHIN GROUP (ORDER BY n), 6) AS p75
        FROM t GROUP BY source
        """,
        "token_count_by_source": """
        SELECT source, count(*) AS n_docs,
               CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS total_tokens
        FROM documents GROUP BY source
        """,
        # WHERE mirrors drop_null_rows over the projected columns, and
        # keeps real NULLs from colliding with ROLLUP's subtotal NULLs
        "rollup_token_stats": f"""
        SELECT COALESCE(source, '{ROLLUP_ALL}') AS source,
               COALESCE(lang, '{ROLLUP_ALL}') AS lang,
               count(*) AS n_docs,
               CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS n_tokens
        FROM documents
        WHERE source IS NOT NULL AND lang IS NOT NULL AND text IS NOT NULL
        GROUP BY ROLLUP(source, lang)
        HAVING count(*) > 0  -- drop only ROLLUP's zero-row grand total on
                             -- an empty input (engine: typed empty there)
        """,
        "quality_score": """
        SELECT doc_id,
               round((SELECT count(DISTINCT w) FROM unnest(string_split(text,' ')) AS u(w))
                     / CAST(len(string_split(text,' ')) AS DOUBLE), 6) AS ttr,
               len(string_split(text,' ')) < 20 AS is_short
        FROM documents
        """,
        "lang_id": f"""
        WITH c AS (
          SELECT doc_id, {', '.join(lang_cases)}
          FROM documents
        )
        SELECT doc_id,
               CASE WHEN greatest(n_de, n_en, n_es, n_fr) = 0 THEN 'und'
                    WHEN n_de >= n_en AND n_de >= n_es AND n_de >= n_fr THEN 'de'
                    WHEN n_en >= n_es AND n_en >= n_fr THEN 'en'
                    WHEN n_es >= n_fr THEN 'es'
                    ELSE 'fr' END AS lang_pred
        FROM c
        """,
    }


def token_quantiles_by_source(sf_dir: str):
    """(source, p25, p50, p75) of per-doc token counts — EXACT quantiles
    via two-phase weighted histograms: the
    exchange carries (source, n_tokens, cnt) partials, so a dominant
    source's state is bounded by its number of DISTINCT token counts (≤
    max doc length), never by its document count.  The weighted linear
    interpolation over the histogram equals numpy 'linear' /
    SQL percentile_cont exactly — no approximation."""
    from ..stages.shuffle import two_phase_groupby

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": df["source"],
                "n_tokens": _ws_token_count(df["text"]),
            }
        )

    hist = two_phase_groupby(
        _read_docs(sf_dir, ("text", "source")).map_batches(
            counts, batch_format="pandas"),
        keys=["source", "n_tokens"],
        aggs={"cnt": (None, "size", "sum")},
    )

    def per_source(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("n_tokens")
        vals = df["n_tokens"].to_numpy(dtype=np.float64)
        cnt = df["cnt"].to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        cum = np.cumsum(cnt)

        def value_at(r: int) -> float:  # r-th smallest, 0-based
            return float(vals[np.searchsorted(cum, r + 1, side="left")])

        out = {}
        for p, nm in ((25, "p25"), (50, "p50"), (75, "p75")):
            h = (n - 1) * p / 100.0
            lo, hi = int(np.floor(h)), int(np.ceil(h))
            vlo, vhi = value_at(lo), value_at(hi)
            out[nm] = [round(vlo + (h - lo) * (vhi - vlo), 6)]
        return pd.DataFrame({"source": [df["source"].iloc[0]], **out})

    return hist.groupby("source").map_groups(per_source, batch_format="pandas")
