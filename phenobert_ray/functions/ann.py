"""Similarity search over the ``embeddings`` table (task brief).

- ``ann_topk``: brute-force cosine top-k — the query matrix is broadcast
  once with ``ray.put`` and every block computes a numpy matmul + partial
  top-k against it; partials (k rows per query per block) are merged
  IN-CLUSTER by a two-phase tree reduce (``_merge_topk``) so no
  driver-side structure grows with block count.  No all-to-all shuffle,
  no full materialization.
- ``ann_ivf_topk``: the IVF/LSH-bucketed scale path — candidates are
  searched only within the query's coarse bucket (here: the ``label``
  column as the pre-computed coarse quantizer cell).

Input contract: ``vec_id`` is a PRIMARY KEY (vector ids are generated,
not crawled).  The family's oracles key sample/seed/join steps on it, so
duplicate ids make engine and oracle legitimately disagree on which row
a given id denotes (probed, review r4 w9) — unlike the documents table,
where row-distinct semantics are defined.

Integer-exact k-means kernel (``ann_kmeans_topk``'s coarse quantizer):
true Lloyd centroids are RATIONAL (Σx / n), and comparing exact
rationals across clusters with different denominators doesn't vectorize
into int64.  Instead centroids live on a fixed-point grid at 1/R of a
quantization step:

    point  q  = floor(f·QUANT + 0.5)                (identical in DuckDB)
    M_c       = round_half_away(R·Σq / n)           (exact int division)
    cost(x,c) = Σ_dim (R·q − M_c)²                  (pure int64)

so both engines argmin over IDENTICAL integers — no float summation-
order hazard, bit-exact assignments, SQL-oracle-able as chained CTEs
(one CTE pair per Lloyd round, see ``_sampled_lloyd_cte``).  Ties break
to the smallest cluster id in both engines (np.argmin first-hit ==
ORDER BY cost, cluster).  Empty clusters keep their previous centroid
(coalesce in both engines).  Division rounds half away from zero on the
absolute value, sidestepping the DuckDB-truncates / numpy-floors
divergence on negatives.

int64 bounds: cost terms are ≤ 64·(2R·max|q|)² — independent of cluster
size n (the reason fixed-point beats the n²-scaled-rational formulation,
whose cross-cluster comparison is also just wrong: the scale factor
differs per cluster).  Safe while max|q| < 2²² (|component| < ~4194 at
QUANT=1000); ``_check_bounds`` raises past it.  The sum 2R·|Σq| stays
< 2⁶³ up to n ≈ 10¹⁴ members per cluster.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

K = 5
N_QUERIES = 8  # vec_id < 8 are the query set; the rest is the corpus

# kmeans-IVF coarse quantizer (used by ann_kmeans_topk)
N_CELLS = 8
KMEANS_ITERS = 3  # Lloyd rounds; mirrored as SQL CTE pairs in the oracle
KMEANS_SAMPLE = 4096  # driver-side fit sample (bounded regardless of corpus)

# integer-exact k-means kernel (module docstring)
DIM = 64
QUANT = 1000
R = 16  # centroid sub-resolution: 1/R of a quantization step


def _check_bounds(q: np.ndarray) -> None:
    # the binding term is ‖M_c‖² ≤ DIM·(R·max|q|)², which must stay under
    # 2⁶³: max|q| < sqrt(2⁶³/64)/16 ≈ 2²⁴·⁵.  2²² leaves >2 bits of margin.
    # (A review repro showed the earlier 2²⁶ guard admitted silent int64
    # wraparound from ~2²³·⁵ — numpy wraps, the HUGEINT oracle doesn't.)
    if np.abs(q).max(initial=0) >= 2**22:
        raise ValueError(
            "integer-exact kmeans bound exceeded (|q| too large); lower "
            "QUANT or switch to the float cost path (see module docstring)"
        )


def _assign(q: np.ndarray, M: np.ndarray) -> np.ndarray:
    """argmin_c Σ (R·q − M_c)², first-hit tie-break (smallest cluster).

    Expanded to R²·q2 − 2R·(q·M_c) + ‖M_c‖² so the block does ONE int64
    matmul instead of k dense subtractions; the R²·q2 term is common to
    every cluster and dropped from the argmin."""
    dot = q @ M.T  # (B, k) int64 matmul
    cost = (M * M).sum(axis=1)[None, :] - 2 * R * dot
    return np.argmin(cost, axis=1)


def _rounded_div(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """round_half_away(R·s / n) in pure ints, DuckDB-agreeing on negatives."""
    return np.sign(s) * ((2 * R * np.abs(s) + n) // (2 * n))


def _read_emb(sf_dir: str, columns: tuple[str, ...] = ("vec_id", "embedding", "label")):
    from ..stages.shuffle import drop_null_rows

    # null contract: incomplete rows dropped at the read (see drop_null_rows)
    return drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=list(columns)
    ))


def _emb_row_count(sf_dir: str) -> int:
    """Footer-only row count of the embeddings table (no column scan)."""
    import glob
    import os

    import pyarrow.parquet as pq

    p = f"{sf_dir}/embeddings.parquet"
    paths = [p] if os.path.isfile(p) else sorted(
        glob.glob(os.path.join(p, "*.parquet")))
    return sum(pq.ParquetFile(f_).metadata.num_rows for f_ in paths)


def _empty_topk():
    """Typed empty (query_id, rank, neighbor_id) result — every ann_*
    query returns this on an empty embeddings table instead of crashing
    np.stack([]) in the query-matrix/centroid builders (review r4)."""
    import pyarrow as pa

    return ray.data.from_arrow(pa.schema(
        [("query_id", pa.int64()), ("rank", pa.int64()),
         ("neighbor_id", pa.int64())]).empty_table())


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _query_matrix(sf_dir: str, raw: bool = False):
    """(qids, normalized Q[, raw Q]) for the query set (vec_id <
    N_QUERIES); ``raw=True`` additionally returns the unnormalized matrix
    (the kmeans probe quantizes RAW components, matching the oracle)."""
    import pyarrow.dataset as pads

    t = (
        pads.dataset(f"{sf_dir}/embeddings.parquet")
        .to_table(columns=["vec_id", "embedding"], filter=pads.field("vec_id") < N_QUERIES)
        .drop_null()  # the read-boundary null contract (drop_null_rows)
        .sort_by("vec_id")
    )
    q = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    ids = t.column("vec_id").to_numpy()
    if raw:
        return ids, _normalize(q), q
    return ids, _normalize(q)


def _merge_topk(partials, k: int, dedup: bool = False, fan_in: int = 8):
    """In-cluster two-phase top-k merge: coalesce the partial rows to
    ``fan_in`` partitions, combine per partition (top-k merge is
    associative), then one single-task global merge.  Nothing driver-side
    grows with block count — the driver only
    ever sees the final ≤ k × queries rows if it collects at all."""

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if dedup:
            df = df.drop_duplicates(["query_id", "neighbor_id"])
        df = df.sort_values(
            ["query_id", "cos", "neighbor_id"], ascending=[True, False, True]
        )
        return df.groupby("query_id", as_index=False).head(k)

    mid = partials.repartition(fan_in).map_batches(
        combine, batch_format="pandas", batch_size=None
    )
    return mid.repartition(1).map_batches(
        combine, batch_format="pandas", batch_size=None
    )


def _finish_ranks(top_ds):
    """(query_id, rank, neighbor_id) from merged per-query top rows —
    runs on the single merged block, stays a Dataset."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["query_id", "cos", "neighbor_id"], ascending=[True, False, True]
        ).reset_index(drop=True)
        df["rank"] = df.groupby("query_id").cumcount() + 1
        return df[["query_id", "rank", "neighbor_id"]].astype("int64")

    return top_ds.map_batches(f, batch_format="pandas", batch_size=None)


def _topk_partials(sf_dir: str, k: int, carry: tuple[str, ...] = ()):
    """Distributed partial top-k: every block computes its own k best per
    query against the broadcast query matrix; returns the partials
    DATASET (≤ k × queries rows per block) for in-cluster merging.

    ``carry`` names extra per-candidate columns (e.g. ``label``) to ride
    along with each partial hit, so downstream consumers never need a
    driver-side join against the full table."""
    qids, Q = _query_matrix(sf_dir)
    q_ref = ray.put((qids, Q))

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        qids_, Q_ = ray.get(q_ref)
        df = df[df["vec_id"] >= N_QUERIES]
        empty = {
            "query_id": pd.Series([], dtype="int64"),
            "neighbor_id": pd.Series([], dtype="int64"),
            "cos": pd.Series([], dtype="float64"),
        }
        for c in carry:
            empty[c] = pd.Series([], dtype="int64")
        if df.empty:
            return pd.DataFrame(empty)
        ids = df["vec_id"].to_numpy()
        C = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        S = np.round(Q_ @ C.T, 6)  # (n_queries, n_candidates)
        carried = {c: df[c].to_numpy() for c in carry}
        out_q, out_n, out_s = [], [], []
        out_c: dict[str, list] = {c: [] for c in carry}
        kk = min(k, S.shape[1])
        for qi in range(S.shape[0]):
            # partial top-k within this block, deterministic tie-break by id
            order = np.lexsort((ids, -S[qi]))[:kk]
            out_q.extend([qids_[qi]] * len(order))
            out_n.extend(ids[order])
            out_s.extend(S[qi][order])
            for c in carry:
                out_c[c].extend(carried[c][order])
        cols = {
            "query_id": pd.array(out_q, dtype="int64"),
            "neighbor_id": pd.array(out_n, dtype="int64"),
            "cos": pd.array(out_s, dtype="float64"),
        }
        for c in carry:
            cols[c] = pd.array(out_c[c], dtype="int64")
        return pd.DataFrame(cols)

    return _read_emb(
        sf_dir, columns=("vec_id", "embedding", *carry)
    ).map_batches(partial_topk, batch_format="pandas")


def ann_topk(sf_dir: str, k: int = K):
    """(query_id, rank, neighbor_id) — exact top-k by (round(cos,6) desc,
    vec_id asc) over the corpus (vec_id >= N_QUERIES).  Partials merge
    in-cluster (two-phase tree reduce), never on the driver."""
    if _emb_row_count(sf_dir) == 0:
        return _empty_topk()
    return _finish_ranks(_merge_topk(_topk_partials(sf_dir, k), k))


def ann_ivf_topk(sf_dir: str, k: int = 3):
    """(query_id, rank, neighbor_id) — top-k restricted to the query's
    coarse bucket (label).  One groupby shuffle on the bucket key; each
    group is searched with a local matmul."""
    if _emb_row_count(sf_dir) == 0:
        return _empty_topk()
    import pyarrow.dataset as pads

    qt = (
        pads.dataset(f"{sf_dir}/embeddings.parquet")
        .to_table(
            columns=["vec_id", "embedding", "label"],
            filter=pads.field("vec_id") < N_QUERIES,
        )
        .drop_null()  # the read-boundary null contract (drop_null_rows)
        .sort_by("vec_id")
    )
    by_label: dict[int, list[tuple[int, np.ndarray]]] = {}
    for vid, emb, lab in zip(
        qt.column("vec_id").to_pylist(),
        qt.column("embedding").to_pylist(),
        qt.column("label").to_pylist(),
    ):
        by_label.setdefault(lab, []).append((vid, np.asarray(emb, dtype=np.float64)))
    q_ref = ray.put(by_label)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(q_ref)
        lab = int(df["label"].iloc[0])
        queries = lut.get(lab, [])
        df = df[df["vec_id"] >= N_QUERIES]
        if not queries or df.empty:
            return pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype="int64"),
                    "rank": pd.Series([], dtype="int64"),
                    "neighbor_id": pd.Series([], dtype="int64"),
                }
            )
        ids = df["vec_id"].to_numpy()
        C = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        rows = []
        for vid, q in queries:
            qn = q / np.linalg.norm(q)
            s = np.round(C @ qn, 6)
            order = np.lexsort((ids, -s))[: min(k, len(ids))]
            rows.extend(
                (vid, r + 1, int(ids[o])) for r, o in enumerate(order)
            )
        return pd.DataFrame(rows, columns=["query_id", "rank", "neighbor_id"]).astype(
            "int64"
        )

    return _read_emb(sf_dir).groupby("label").map_groups(per_bucket, batch_format="pandas")


def label_centroids(sf_dir: str):
    """(label, dim, n_vecs, centroid) — per-class mean embedding, the
    vector aggregate behind IVF training, class prototypes and
    centroid-distance filters.

    Scale shape: vectors NEVER cross the wire — each block computes a
    per-label partial vector sum (numpy column sum over the stacked
    block), emits (label, dim, s, n) scalar rows (labels × dims per
    block), and the two-phase bucket exchange merges them.  The mean is
    taken once after the merge; at 10^12 vectors the exchange carries
    O(blocks × labels × dims) scalars, independent of corpus size.

    Per-label row bound: micro-quantized partials merge as int64, so a
    single label overflows at ~2^63 / (|component|·1e6) rows — ~2.2e9
    vectors per label at the documented |component| ≤ 4194 contract.
    ``finish`` enforces |s| ≤ n_vecs·4194e6 and fails
    loudly (like ``_cents``) instead of letting a wrapped sum diverge
    silently from DuckDB's HUGEINT promotion; labels bigger than the
    bound need a wider accumulator (split-hi/lo int64 pair), not a
    silent wrap.

    Determinism: components are quantized to integer MICROS
    (floor(x·1e6 + 0.5), the k-means kernel's rounding) before summation,
    so distributed accumulation order cannot perturb the mean — a raw
    double partial sum is order-dependent when one label mixes component
    magnitudes (1e3 next to 1e-8).  The mean is then ONE identical double
    expression over exact ints in both engines."""
    from ..stages.shuffle import round6_away, two_phase_groupby

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lbl, g in df.groupby("label"):
            M = np.stack(g["embedding"].to_numpy()).astype(np.float64)
            s = np.floor(M * 1e6 + 0.5).astype(np.int64).sum(axis=0)
            out.append(
                pd.DataFrame(
                    {
                        "label": np.int64(lbl),
                        "dim": np.arange(M.shape[1], dtype=np.int64),
                        "s": s,
                        "n": np.int64(len(g)),
                    }
                )
            )
        if not out:
            return pd.DataFrame(
                {
                    "label": pd.Series([], dtype="int64"),
                    "dim": pd.Series([], dtype="int64"),
                    "s": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(out, ignore_index=True)

    merged = two_phase_groupby(
        _read_emb(sf_dir, ("embedding", "label")).map_batches(
            partial, batch_format="pandas"
        ),
        keys=["label", "dim"],
        aggs={"s": ("s", "sum", "sum"), "n_vecs": ("n", "sum", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # overflow loud-guard: any honest (non-wrapped) sum satisfies
        # |s| ≤ n_vecs · 4194e6 under the component contract; a wrapped
        # int64 sum violates it.  DuckDB would have promoted to HUGEINT —
        # silently diverging — so the engine must fail, not wrap.
        s64 = df["s"].to_numpy(dtype=np.int64)
        n64 = df["n_vecs"].to_numpy(dtype=np.float64)
        bad = np.abs(s64.astype(np.float64)) > n64 * 4194e6
        if bad.any():
            raise OverflowError(
                f"label_centroids: {int(bad.sum())} (label, dim) partial "
                "sum(s) exceed n_vecs*4194e6 — int64 accumulator wrapped "
                "or a component violated the |x| <= 4194 contract; use a "
                "wider accumulator for labels past ~2.2e9 rows"
            )
        # expression tree mirrored VERBATIM in the oracle: exact int sums
        # in, identical double ops out, half-away rounding on both sides
        df["centroid"] = round6_away(
            df["s"].to_numpy(dtype=np.float64) / 1e6
            / df["n_vecs"].to_numpy(dtype=np.float64)
        )
        df["label"] = df["label"].astype("int64")
        return df[["label", "dim", "n_vecs", "centroid"]]

    return merged.map_batches(finish, batch_format="pandas")


def queries():
    return {
        "ann_topk": ann_topk,
        "ann_ivf_topk": ann_ivf_topk,
        "knn_label_vote": knn_label_vote,
        "ann_lsh_topk": ann_lsh_topk,
        "ann_kmeans_topk": ann_kmeans_topk,
        "label_centroids": label_centroids,
    }


def _sampled_lloyd_cte(n_cells: int = N_CELLS, iters: int = KMEANS_ITERS,
                       sample: int = KMEANS_SAMPLE) -> str:
    """CTE chain (no leading WITH) re-deriving ``_fit_centroids`` in SQL:
    ``q`` = quantized coordinates of EVERY vector, ``qs`` = the id-range
    fit sample, ``seeds`` = its n_cells smallest ids, ``c0..c{iters}`` =
    the Lloyd rounds of the module's kernel (identical integer costs,
    ties to the smallest seed id, half-away rational means, empty cells
    coalesce to the previous centroid).  Callers
    append their own assignment / probe CTEs over ``c{iters}``."""
    head = f"""
    q AS (
      SELECT vec_id, i - 1 AS dim,
             CAST(floor(CAST(embedding[i] AS DOUBLE) * {QUANT} + 0.5) AS BIGINT) AS qv
      FROM (SELECT vec_id, embedding, unnest(range(1, {DIM} + 1)) AS i
            FROM embeddings)
    ),
    qs AS (SELECT * FROM q WHERE vec_id < {sample}),
    seeds AS (SELECT DISTINCT vec_id FROM qs ORDER BY vec_id LIMIT {n_cells}),
    c0 AS (SELECT vec_id AS cluster, dim, {R} * qv AS m
           FROM qs WHERE vec_id IN (SELECT vec_id FROM seeds))"""
    body = ""
    for t in range(1, iters + 1):
        p = t - 1
        body += f""",
    a{t} AS (
      SELECT vec_id, cluster FROM (
        SELECT d.vec_id, d.cluster,
               row_number() OVER (PARTITION BY d.vec_id
                                  ORDER BY d.cost, d.cluster) AS rn
        FROM (
          SELECT qs.vec_id, c.cluster,
                 sum(({R} * qs.qv - c.m) * ({R} * qs.qv - c.m)) AS cost
          FROM qs JOIN c{p} c USING (dim) GROUP BY qs.vec_id, c.cluster
        ) d
      ) WHERE rn = 1
    ),
    c{t} AS (
      SELECT c.cluster, c.dim, coalesce(u.m, c.m) AS m
      FROM c{p} c LEFT JOIN (
        SELECT a.cluster, qs.dim,
               CASE WHEN sum(qs.qv) < 0
                    THEN -((2 * {R} * (-sum(qs.qv)) + count(*)) // (2 * count(*)))
                    ELSE (2 * {R} * sum(qs.qv) + count(*)) // (2 * count(*))
               END AS m
        FROM a{t} a JOIN qs ON qs.vec_id = a.vec_id
        GROUP BY a.cluster, qs.dim
      ) u USING (cluster, dim)
    )"""
    return head + body


def _kmeans_topk_sql(k: int = K, n_probe: int = 2,
                     iters: int = KMEANS_ITERS) -> str:
    return f"""
    WITH {_sampled_lloyd_cte(iters=iters)},
    cells AS (
      SELECT vec_id, cluster FROM (
        SELECT d.vec_id, d.cluster,
               row_number() OVER (PARTITION BY d.vec_id
                                  ORDER BY d.cost, d.cluster) AS rn
        FROM (
          SELECT q.vec_id, c.cluster,
                 sum(({R} * q.qv - c.m) * ({R} * q.qv - c.m)) AS cost
          FROM q JOIN c{iters} c USING (dim)
          WHERE q.vec_id >= {N_QUERIES}
          GROUP BY q.vec_id, c.cluster
        ) d
      ) WHERE rn = 1
    ),
    probes AS (
      SELECT vec_id AS query_id, cluster FROM (
        SELECT d.vec_id, d.cluster,
               row_number() OVER (PARTITION BY d.vec_id
                                  ORDER BY d.cost, d.cluster) AS rn
        FROM (
          SELECT q.vec_id, c.cluster,
                 sum(({R} * q.qv - c.m) * ({R} * q.qv - c.m)) AS cost
          FROM q JOIN c{iters} c USING (dim)
          WHERE q.vec_id < {N_QUERIES}
          GROUP BY q.vec_id, c.cluster
        ) d
      ) WHERE rn <= {n_probe}
    ),
    sims AS (
      SELECT p.query_id, cand.vec_id AS neighbor_id,
             round(list_cosine_similarity(CAST(qe.embedding AS DOUBLE[]),
                                          CAST(ce.embedding AS DOUBLE[])), 6) AS cos
      FROM probes p
      JOIN cells cand ON cand.cluster = p.cluster
      JOIN embeddings qe ON qe.vec_id = p.query_id
      JOIN embeddings ce ON ce.vec_id = cand.vec_id
    ),
    ranked AS (
      SELECT query_id, neighbor_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY cos DESC, neighbor_id ASC) AS rank
      FROM sims
    )
    SELECT query_id, rank, neighbor_id FROM ranked WHERE rank <= {k}
    """


def oracles():
    return {
        # the integer-exact sampled Lloyd fit, the probe set and the
        # per-cell cosine ranking are all SQL-derivable (r5) — see
        # _fit_centroids / _sampled_lloyd_cte
        "ann_kmeans_topk": _kmeans_topk_sql(),
        "label_centroids": """
        SELECT CAST(label AS BIGINT) AS label, i.i AS dim,
               count(*) AS n_vecs,
               round(CAST(sum(CAST(floor(CAST(embedding[i.i + 1] AS DOUBLE)
                                          * 1e6 + 0.5) AS BIGINT)) AS DOUBLE)
                     / 1e6 / count(*), 6) AS centroid
        FROM embeddings, (SELECT unnest(range(64)) AS i) i
        GROUP BY label, i.i
        """,
        "knn_label_vote": f"""
        WITH sims AS (
          SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id, c.label,
                 round(list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(c.embedding AS DOUBLE[])), 6) AS cos
          FROM embeddings q JOIN embeddings c ON c.vec_id >= {N_QUERIES}
          WHERE q.vec_id < {N_QUERIES}
        ),
        ranked AS (
          SELECT query_id, label,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY cos DESC, neighbor_id ASC) AS rank
          FROM sims
        ),
        votes AS (
          SELECT query_id, label, count(*) AS n FROM ranked
          WHERE rank <= {K} GROUP BY query_id, label
        ),
        best AS (
          SELECT query_id, label,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY n DESC, label ASC) AS rn
          FROM votes
        )
        SELECT query_id, CAST(label AS BIGINT) AS pred_label
        FROM best WHERE rn = 1
        """,
        "ann_topk": f"""
        WITH sims AS (
          SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id,
                 round(list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(c.embedding AS DOUBLE[])), 6) AS cos
          FROM embeddings q JOIN embeddings c ON c.vec_id >= {N_QUERIES}
          WHERE q.vec_id < {N_QUERIES}
        ),
        ranked AS (
          SELECT query_id, neighbor_id,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY cos DESC, neighbor_id ASC) AS rank
          FROM sims
        )
        SELECT query_id, rank, neighbor_id FROM ranked WHERE rank <= {K}
        """,
        # the sign-bit key and the hamming-<=2 multi-probe ball are pure
        # SQL over the raw components, so the approximate method's OWN
        # candidate set (not the exact search) is recomputed here —
        # upgrading this query from rows-only to a value-hash check (r5)
        "ann_lsh_topk": f"""
        WITH keys AS (
          SELECT vec_id,
                 CAST({" + ".join(
                     f"(CASE WHEN CAST(embedding[{i + 1}] AS DOUBLE) > 0"
                     f" THEN {1 << i} ELSE 0 END)"
                     for i in range(N_PLANES))} AS BIGINT) AS key,
                 embedding
          FROM embeddings
        ),
        sims AS (
          SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id,
                 round(list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                              CAST(c.embedding AS DOUBLE[])), 6) AS cos
          FROM keys q JOIN keys c
            ON c.vec_id >= {N_QUERIES}
           AND bit_count(xor(q.key, c.key)) <= 2
          WHERE q.vec_id < {N_QUERIES}
        ),
        ranked AS (
          SELECT query_id, neighbor_id,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY cos DESC, neighbor_id ASC) AS rank
          FROM sims
        )
        SELECT query_id, rank, neighbor_id FROM ranked WHERE rank <= {K}
        """,
        "ann_ivf_topk": f"""
        WITH sims AS (
          SELECT q.vec_id AS query_id, c.vec_id AS neighbor_id,
                 round(list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), CAST(c.embedding AS DOUBLE[])), 6) AS cos
          FROM embeddings q JOIN embeddings c
            ON c.label = q.label AND c.vec_id >= {N_QUERIES}
          WHERE q.vec_id < {N_QUERIES}
        ),
        ranked AS (
          SELECT query_id, neighbor_id,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY cos DESC, neighbor_id ASC) AS rank
          FROM sims
        )
        SELECT query_id, rank, neighbor_id FROM ranked WHERE rank <= 3
        """,
    }


def knn_label_vote(sf_dir: str, k: int = K):
    """(query_id, pred_label) — majority label of the k nearest neighbors
    (tie → smallest label).  The distributed part is the top-k search; the
    neighbor labels ride along with each partial hit (``carry``), so the
    vote runs on the merged k-rows-per-query block in-cluster — no
    driver-side read of the full label table, no driver merge."""
    if _emb_row_count(sf_dir) == 0:
        # np.stack([]) in the query-matrix builder, like the other ann_*
        # guards (this one was missed in the r4 wave-5 sweep)
        import pyarrow as pa

        return ray.data.from_arrow(pa.schema(
            [("query_id", pa.int64()),
             ("pred_label", pa.int64())]).empty_table())
    top = _merge_topk(_topk_partials(sf_dir, k, carry=("label",)), k)

    def vote(df: pd.DataFrame) -> pd.DataFrame:
        counts = (
            df.groupby(["query_id", "label"], as_index=False)
            .size()
            .sort_values(
                ["query_id", "size", "label"], ascending=[True, False, True]
            )
        )
        best = counts.groupby("query_id", as_index=False).head(1)
        return (
            best[["query_id", "label"]]
            .rename(columns={"label": "pred_label"})
            .astype({"query_id": "int64", "pred_label": "int64"})
            .reset_index(drop=True)
        )

    return top.map_batches(vote, batch_format="pandas", batch_size=None)


# ---------------------------------------------------------------------------
# sign-bit (coordinate-hyperplane) LSH — the model-free scale path: no
# precomputed labels.  The hash family is the AXIS-ALIGNED member of the
# random-hyperplane (SimHash) family: bit i = sign of raw component i.
# Chosen over gaussian planes deliberately (r5): the key is a pure
# per-component predicate, so the WHOLE bucketing — key, multi-probe
# hamming ball, candidate set — is re-derivable in ANSI SQL
# (bit_count(xor(q.key, c.key)) <= r), upgrading ann_lsh_topk from
# rows-only to a full DuckDB value-hash oracle while keeping identical
# collision semantics (P[bit collision] grows with cosine for centered
# data, same as any fixed hyperplane set).

N_PLANES = 6  # 2^6 buckets; sized so buckets hold O(10) points at test scale


def _lsh_key(vecs: np.ndarray) -> np.ndarray:
    """bit i = component i > 0, evaluated on RAW or normalized vectors
    interchangeably: normalization by a positive norm preserves sign, a
    zero/NaN row yields all-False bits either way (strict > 0)."""
    bits = vecs[:, :N_PLANES] > 0
    return (bits @ (1 << np.arange(N_PLANES))).astype(np.int64)


def ann_lsh_topk(sf_dir: str, k: int = K, n_probe_bits: int = 2):
    """(query_id, rank, neighbor_id) — approximate top-k via sign-bit
    (coordinate-hyperplane) LSH: candidates are hashed to sign-bit buckets
    with ONE streaming pass (no shuffle — the probe table broadcasts);
    each query probes its own bucket plus all buckets within
    ``n_probe_bits`` hamming (multi-probe).  Approximation quality
    (recall vs the exact ``ann_topk``) is measured in
    tests/test_functions.py; the EXACT candidate set + ranking is
    DuckDB-oracled (the hamming ball is SQL-derivable — see oracles())."""
    if _emb_row_count(sf_dir) == 0:
        return _empty_topk()
    qids, Q = _query_matrix(sf_dir)
    q_keys = _lsh_key(Q)
    # multi-probe: the query set's probed buckets (own + hamming ≤ n bits).
    # All C(N_PLANES, r) bit-flip combinations for every r ≤ n_probe_bits —
    # the earlier hand-rolled r=1/r=2 branches silently capped the contract
    # at hamming-2 for larger n_probe_bits (review r4)
    from itertools import combinations

    probe: dict[int, list[int]] = {}
    for qi, key in enumerate(q_keys):
        keys = {int(key)}
        for r in range(1, min(n_probe_bits, N_PLANES) + 1):
            for bits in combinations(range(N_PLANES), r):
                flipped = int(key)
                for b in bits:
                    flipped ^= 1 << b
                keys.add(flipped)
        for kk in keys:
            probe.setdefault(kk, []).append(qi)
    probe_ref = ray.put((qids, Q, probe))

    def bucket_and_score(df: pd.DataFrame) -> pd.DataFrame:
        qids_, Q_, probe_ = ray.get(probe_ref)
        df = df[df["vec_id"] >= N_QUERIES]
        empty = pd.DataFrame(
            {
                "query_id": pd.Series([], dtype="int64"),
                "neighbor_id": pd.Series([], dtype="int64"),
                "cos": pd.Series([], dtype="float64"),
            }
        )
        if df.empty:
            return empty
        ids = df["vec_id"].to_numpy()
        C = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        keys = _lsh_key(C)
        out_q, out_n, out_s = [], [], []
        for key in np.unique(keys):
            quers = probe_.get(int(key))
            if not quers:
                continue
            sel = keys == key
            cids, CC = ids[sel], C[sel]
            S = np.round(Q_[quers] @ CC.T, 6)
            for r, qi in enumerate(quers):
                order = np.lexsort((cids, -S[r]))[: min(k, len(cids))]
                out_q.extend([qids_[qi]] * len(order))
                out_n.extend(cids[order])
                out_s.extend(S[r][order])
        if not out_q:
            return empty
        return pd.DataFrame(
            {
                "query_id": pd.array(out_q, dtype="int64"),
                "neighbor_id": pd.array(out_n, dtype="int64"),
                "cos": pd.array(out_s, dtype="float64"),
            }
        )

    partials = _read_emb(sf_dir, columns=("vec_id", "embedding")).map_batches(
        bucket_and_score, batch_format="pandas"
    )
    # a candidate can reach the same query through several probed buckets
    # split across blocks → dedup inside the in-cluster merge
    return _finish_ranks(_merge_topk(partials, k, dedup=True))


# ---------------------------------------------------------------------------
# kmeans IVF (self-computed coarse quantizer — no precomputed label column;
# constants N_CELLS / KMEANS_ITERS / KMEANS_SAMPLE live at module top)


def _fit_centroids(sf_dir: str, n_cells: int = N_CELLS,
                   iters: int = KMEANS_ITERS,
                   sample: int = KMEANS_SAMPLE) -> np.ndarray:
    """Integer-exact Lloyd fit on a BOUNDED deterministic corpus sample
    (``vec_id < sample`` — an id-range predicate pushed to the parquet
    read, so the driver never materializes more than the sample no matter
    the corpus size).  Uses the module's fixed-point kernel
    (quantize → int64 cost argmin → rational centroid on a 1/R grid), so
    the WHOLE fit — sample, seeds (the ``n_cells`` smallest sample ids),
    every round, tie-breaks, empty-cluster carry — is re-derivable in
    ANSI SQL (see ``_sampled_lloyd_cte``), which is what upgrades
    ann_kmeans_topk from a rows-only to a full value-hash oracle (r5;
    the previous float/rng fit was unverifiable by design).
    Returns (M, seed_vids): the fixed-point centroid matrix (k, DIM) of
    int64 m-values plus the seed vec_ids — the PUBLIC cell labels
    (oracle parity: ``vec_id AS cluster``).
    Empty sample → ((0, DIM), (0,))."""
    import pyarrow.dataset as pads

    t = (
        pads.dataset(f"{sf_dir}/embeddings.parquet")
        .to_table(columns=["vec_id", "embedding"],
                  filter=pads.field("vec_id") < sample)
        .drop_null()  # the read-boundary null contract (drop_null_rows)
        .sort_by("vec_id")
    )
    if t.num_rows == 0:
        return np.zeros((0, DIM), dtype=np.int64), np.zeros(0, dtype=np.int64)
    X = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    q = np.floor(X * QUANT + 0.5).astype(np.int64)
    _check_bounds(q)
    k = min(n_cells, len(q))
    # seeds: the k smallest vec_ids in the sample (rows are id-sorted);
    # positional cell index == ascending seed-id order, so np.argmin's
    # first-hit tie-break equals the oracle's ORDER BY cost, cluster
    seed_vids = t.column("vec_id").to_numpy()[:k].astype(np.int64)
    M = R * q[:k].copy()
    for _ in range(iters):
        a = _assign(q, M)
        for c in range(k):
            m = a == c
            if m.any():  # empty cell keeps its previous centroid
                M[c] = _rounded_div(q[m].sum(axis=0), np.int64(m.sum()))
    return M, seed_vids


def _cell_costs(q: np.ndarray, M: np.ndarray) -> np.ndarray:
    """FULL fixed-point cost matrix Σ(R·q − m)² per (row, cell) — unlike
    _assign (which drops the per-row R²·q2 term because argmin
    ignores it), probing ranks cells per row, where the dropped term is
    still constant per row, so ranking by this partial cost equals the
    oracle's ORDER BY sum((R*q - m)^2)."""
    return (M * M).sum(axis=1)[None, :] - 2 * R * (q @ M.T)


def ann_kmeans_topk(sf_dir: str, k: int = K, n_probe: int = 2):
    """(query_id, rank, neighbor_id) — IVF with a kmeans coarse quantizer:
    integer-exact centroids fit once on a bounded deterministic sample
    (``_fit_centroids``) and BROADCAST (ray.put); every block assigns its
    vectors to cells with the fixed-point cost argmin and computes partial
    top-k (true cosine) only for queries probing that cell (each query
    probes its ``n_probe`` lowest-cost cells).  One streaming pass, no
    shuffle; recall vs the exact search is pytest-gated AND the method's
    own output is DuckDB value-hash-oracled (the fit, the probe set and
    the per-cell ranking are all SQL-derivable — see oracles())."""
    if _emb_row_count(sf_dir) == 0:
        return _empty_topk()
    qids, Q, Qraw = _query_matrix(sf_dir, raw=True)
    M, _seed_vids = _fit_centroids(sf_dir)
    qq = np.floor(Qraw * QUANT + 0.5).astype(np.int64)
    _check_bounds(qq)
    costs = _cell_costs(qq, M)  # (nq, k_cells)
    probe: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        # n_probe lowest-cost cells, ties to the smaller cell index
        # (== smaller seed vec_id; mirrors ORDER BY cost, cluster)
        order = np.lexsort((np.arange(M.shape[0]), costs[qi]))[:n_probe]
        for cell in order:
            probe.setdefault(int(cell), []).append(qi)
    ref = ray.put((qids, Q, M, probe))

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        qids_, Q_, M_, probe_ = ray.get(ref)
        df = df[df["vec_id"] >= N_QUERIES]
        empty = pd.DataFrame(
            {
                "query_id": pd.Series([], dtype="int64"),
                "neighbor_id": pd.Series([], dtype="int64"),
                "cos": pd.Series([], dtype="float64"),
            }
        )
        if df.empty:
            return empty
        ids = df["vec_id"].to_numpy()
        raw = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        X = _normalize(raw)
        bq = np.floor(raw * QUANT + 0.5).astype(np.int64)
        _check_bounds(bq)
        cells = _assign(bq, M_)
        out_q, out_n, out_s = [], [], []
        for cell in np.unique(cells):
            quers = probe_.get(int(cell))
            if not quers:
                continue
            sel = cells == cell
            cids, CC = ids[sel], X[sel]
            S = np.round(Q_[quers] @ CC.T, 6)
            for r, qi in enumerate(quers):
                order = np.lexsort((cids, -S[r]))[: min(k, len(cids))]
                out_q.extend([qids_[qi]] * len(order))
                out_n.extend(cids[order])
                out_s.extend(S[r][order])
        if not out_q:
            return empty
        return pd.DataFrame(
            {
                "query_id": pd.array(out_q, dtype="int64"),
                "neighbor_id": pd.array(out_n, dtype="int64"),
                "cos": pd.array(out_s, dtype="float64"),
            }
        )

    partials = _read_emb(sf_dir, columns=("vec_id", "embedding")).map_batches(
        per_block, batch_format="pandas"
    )
    return _finish_ranks(_merge_topk(partials, k, dedup=True))
