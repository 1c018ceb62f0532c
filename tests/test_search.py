"""Serial brute-force oracles for assorted registry operators (total-order
rank, label centroids, hopping windows, HLL, BPE pair counts, token-stat
rollups) over the real sf0.001 tables."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq


def test_global_sort_rank_matches_serial(sf_small):
    from phenobert_ray.functions.textstats import global_sort_rank

    got = (global_sort_rank(sf_small).to_pandas()
           .sort_values("rank").reset_index(drop=True))
    docs = pq.read_table(f"{sf_small}/documents.parquet").to_pandas()
    nt = docs["text"].str.split(" ").str.len().astype("int64")
    exp = (
        pd.DataFrame({"doc_id": docs["doc_id"], "n_tokens": nt})
        .sort_values(["n_tokens", "doc_id"], ascending=[False, True])
        .reset_index(drop=True)
    )
    exp["rank"] = np.arange(1, len(exp) + 1, dtype=np.int64)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # ranks are a permutation of 1..N — no gaps, no dupes across buckets
    assert sorted(got["rank"]) == list(range(1, len(exp) + 1))


def test_global_sort_rank_tie_skew(tmp_path):
    """A corpus where EVERY doc has the same token count: the id sub-split
    must spread the single hot length across buckets and still produce the
    exact doc_id-ordered ranking."""
    import pyarrow as pa

    from phenobert_ray.functions.textstats import global_sort_rank

    n = 2000
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n)[::-1].copy(), pa.int64()),
            "text": ["w x y z"] * n,
            "source": ["s"] * n,
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    got = (global_sort_rank(str(tmp_path), n_id_buckets=8).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert (got["rank"].to_numpy() == got["doc_id"].to_numpy() + 1).all()


def test_label_centroids_matches_numpy(sf_small):
    from phenobert_ray.functions.ann import label_centroids

    got = label_centroids(sf_small).to_pandas()
    emb = pq.read_table(f"{sf_small}/embeddings.parquet").to_pandas()
    for lbl, g in emb.groupby("label"):
        M = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        want = np.round(M.mean(axis=0), 6)
        mine = (got[got["label"] == lbl].sort_values("dim")["centroid"]
                .to_numpy())
        # engine means are integer-micro-quantized (≤5e-7 off the float
        # mean) then 6-decimal rounded (≤5e-7): 2e-6 covers both
        assert np.allclose(mine, want, atol=2e-6)
        assert (got[got["label"] == lbl]["n_vecs"] == len(g)).all()


def test_hopping_window_agg_covers_tumbling(sf_small):
    """Every event is in exactly width/hop windows: total n_events is
    2x the tumbling count, and each hopping window equals the sum of the
    two tumbling windows it spans."""
    from phenobert_ray.functions.events import hopping_window_agg, window_agg

    hop = hopping_window_agg(sf_small).to_pandas()
    tum = window_agg(sf_small).to_pandas()
    assert hop["n_events"].sum() == 2 * tum["n_events"].sum()
    t = tum.set_index(["window_start", "event_type"])["n_events"]
    for _, r in hop.head(50).iterrows():
        a = t.get((r["window_start"], r["event_type"]), 0)
        b = t.get((r["window_start"] + pd.Timedelta(hours=1), r["event_type"]), 0)
        assert r["n_events"] == a + b


def test_hll_estimate_accuracy(sf_small):
    from phenobert_ray.functions.textstats import hll_distinct_by_source

    got = hll_distinct_by_source(sf_small).to_pandas().set_index("source")
    docs = pq.read_table(f"{sf_small}/documents.parquet").to_pandas()
    exact = docs.groupby("source")["text"].nunique()
    for src, n in exact.items():
        est = got.loc[src, "est"]
        # small cardinalities sit in the linear-counting regime: tight
        assert abs(est - n) / n < 0.1, (src, est, n)


def test_hll_large_cardinality(tmp_path):
    """20k distinct texts, one source: the raw-estimate branch (not linear
    counting) must land within ~4 sigma (sigma = 1.04/sqrt(1024))."""
    import pyarrow as pa

    from phenobert_ray.functions.textstats import hll_distinct_by_source

    n = 20_000
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": [f"doc number {i} payload" for i in range(n)],
            "source": ["big"] * n,
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    got = hll_distinct_by_source(str(tmp_path)).to_pandas()
    est = float(got.loc[0, "est"])
    assert abs(est - n) / n < 4 * 1.04 / np.sqrt(1024)


def test_bpe_pair_counts_matches_serial(sf_small):
    from collections import Counter

    from phenobert_ray.functions.textstats import bpe_pair_counts

    got = bpe_pair_counts(sf_small, k=12).to_pandas()
    docs = pq.read_table(f"{sf_small}/documents.parquet").to_pandas()
    c = Counter()
    for t in docs["text"]:
        ws = t.split(" ")
        c.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:12]
    assert list(zip(got["pair"], got["n"])) == want


def test_rollup_token_stats_matches_serial(sf_small):
    """ROLLUP levels: leaf (source, lang), per-source subtotal, grand
    total — each must equal the obvious pandas aggregation."""
    from phenobert_ray.functions.textstats import ROLLUP_ALL, rollup_token_stats

    got = rollup_token_stats(sf_small).to_pandas()
    docs = pq.read_table(f"{sf_small}/documents.parquet",
                         columns=["text", "source", "lang"]).to_pandas()
    docs["n_tokens"] = docs["text"].str.split(" ").str.len()
    leaf = docs.groupby(["source", "lang"]).agg(
        n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum"))
    g_leaf = got[(got["source"] != ROLLUP_ALL) & (got["lang"] != ROLLUP_ALL)]
    assert len(g_leaf) == len(leaf)
    for (s, l), row in leaf.iterrows():
        m = g_leaf[(g_leaf["source"] == s) & (g_leaf["lang"] == l)]
        assert len(m) == 1
        assert int(m["n_docs"].iloc[0]) == row["n_docs"]
        assert int(m["n_tokens"].iloc[0]) == row["n_tokens"]
    g_src = got[(got["source"] != ROLLUP_ALL) & (got["lang"] == ROLLUP_ALL)]
    src = docs.groupby("source").agg(n_docs=("n_tokens", "size"),
                                     n_tokens=("n_tokens", "sum"))
    assert len(g_src) == len(src)
    for s, row in src.iterrows():
        m = g_src[g_src["source"] == s]
        assert int(m["n_docs"].iloc[0]) == row["n_docs"]
        assert int(m["n_tokens"].iloc[0]) == row["n_tokens"]
    g_tot = got[(got["source"] == ROLLUP_ALL) & (got["lang"] == ROLLUP_ALL)]
    assert len(g_tot) == 1
    assert int(g_tot["n_docs"].iloc[0]) == len(docs)
    assert int(g_tot["n_tokens"].iloc[0]) == docs["n_tokens"].sum()
