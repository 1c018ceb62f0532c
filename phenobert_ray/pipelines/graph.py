"""Graph operators over the phenotype co-occurrence edge list
(``pipelines.triples.cooccurrence_edges``: canonical ``hpo_a < hpo_b``
rows): triangle enumeration, fixed-iteration PageRank and fixed-round
k-core peeling.  Each runs in the cluster on Ray Data exchanges and is
reproducible in SQL, so every result is hash-checkable against a DuckDB
oracle.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray

from ..stages.shuffle import from_pandas_clean, two_phase_groupby


def _symmetric_expand(src_col: str, dst_col: str, out_src: str, out_dst: str):
    """Batch fn: canonical (a<b) edge list → both-direction adjacency rows
    (shared by pagerank and k-core)."""

    def f(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        out = pd.concat(
            [
                df.rename(columns={src_col: out_src, dst_col: out_dst})[[out_src, out_dst]],
                df.rename(columns={dst_col: out_src, src_col: out_dst})[[out_src, out_dst]],
            ],
            ignore_index=True,
        )
        return from_pandas_clean(out)

    return f


def triangles(edges_ds, num_partitions: int | None = None):
    """(hpo_a, hpo_b, hpo_c), a < b < c — distributed triangle enumeration
    over a canonical (a < b) undirected edge list, via two hash joins:

      wedges    = E(a, b) ⋈ E(a, c) on a, keeping b < c  (each wedge is
                  anchored at its minimum node, so it is built exactly once)
      triangles = wedges ⋈ E on (b, c)                   (closing edge)

    Both joins are native ``Dataset.join`` hash exchanges partitioned on
    the join key; nothing is broadcast and no adjacency list is ever
    assembled in one place.  Skew note: a hub node of degree d contributes
    C(d, 2) wedges — the classic bound; cap or sample hub wedges upstream
    if a corpus has degree hot-spots (the co-occurrence graph here is
    phenotype-vocabulary-sized, so d is small)."""
    from ..stages.shuffle import join_num_partitions

    parts = num_partitions or join_num_partitions()
    wedge_schema = pa.schema([("hpo_a", pa.string()), ("hpo_b", pa.string()),
                              ("hpo_c", pa.string())])
    # an empty edge list feeds column-less blocks into the FIRST join's
    # aggregator.  Pinning the edge list is fine
    # here: both joins exchange it in full anyway, and triangle inputs
    # are graph-edge-sized, not corpus-sized.
    edges_ds = edges_ds.materialize()
    if edges_ds.count() == 0:
        return ray.data.from_arrow(wedge_schema.empty_table())

    def rename(cols):
        def f(b: pa.Table) -> pa.Table:
            return b.select(["hpo_a", "hpo_b"]).rename_columns(cols)

        return f

    e = edges_ds.map_batches(rename(["hpo_a", "hpo_b"]), batch_format="pyarrow")
    e2 = edges_ds.map_batches(rename(["wa", "hpo_c"]), batch_format="pyarrow")
    wedges = e.join(e2, "inner", parts, on=("hpo_a",), right_on=("wa",))

    def keep_ordered(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.filter(pc.less(b.column("hpo_b"), b.column("hpo_c")))
        return b.select(["hpo_a", "hpo_b", "hpo_c"])

    wedges = wedges.map_batches(keep_ordered, batch_format="pyarrow")
    # wedge-free graphs (paths, stars filtered by b<c, empty edge lists)
    # leave every wedge partition empty; the second join's aggregator
    # rejects the column-less blocks (the documented footgun) — a
    # two-part guard: a materialize+count short-circuit for the
    # fully-empty side (the fixer never sees empty blocks, so
    # normalization alone cannot type an all-empty dataset) plus
    # normalize_empty_blocks for the empty-PARTITION case inside a
    # non-empty set
    from ..stages.shuffle import normalize_empty_blocks

    wedges = wedges.materialize()
    if wedges.count() == 0:
        return ray.data.from_arrow(wedge_schema.empty_table())
    wedges = normalize_empty_blocks(wedges, wedge_schema, parts)
    closing = edges_ds.map_batches(rename(["ca", "cb"]), batch_format="pyarrow")
    tri = wedges.join(
        closing, "inner", parts, on=("hpo_b", "hpo_c"), right_on=("ca", "cb")
    )
    tri = tri.map_batches(
        lambda b: b.select(["hpo_a", "hpo_b", "hpo_c"]), batch_format="pyarrow"
    )
    return normalize_empty_blocks(tri, wedge_schema, parts)


def pagerank(edges_ds, iters: int = 3, damping: float = 0.85,
             num_buckets: int | None = None):
    """(hpo_id, rank) — PageRank on the undirected graph (each canonical
    a<b edge walked in both directions), a FIXED number of synchronous
    iterations from the uniform start, ranks rounded to 6 dp — exactly
    reproducible in SQL, so the iterative path is hash-checkable (unlike
    convergence-loop formulations).

    Execution shape: per iteration ONE tagged-union bucketed hash join
    (adjacency rows ⋈ rank/deg rows per bucket, with an in-bucket
    per-destination partial sum as combiner) plus ONE node-keyed two-phase
    exchange that sums contributions and re-attaches degrees.  No
    native-join aggregator actors are spawned — an iterative algorithm
    pays actor/bucket startup EVERY round.  Nothing node- or edge-sized
    reaches the driver (N comes from one scalar count); dangling nodes
    don't occur, since every node in an edge list has degree ≥ 1."""
    import numpy as np
    import ray as _ray

    both_dirs = _symmetric_expand("hpo_a", "hpo_b", "src", "dst")

    adj = edges_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    n_adj = adj.count()
    if n_adj == 0:
        return _ray.data.from_arrow(
            pa.table(
                {
                    "hpo_id": pa.array([], pa.string()),
                    "rank": pa.array([], pa.float64()),
                }
            )
        )
    cpus = int(_ray.cluster_resources().get("CPU", 8))
    P = num_buckets or min(cpus, max(4, n_adj // 1_000))

    deg = two_phase_groupby(
        adj, keys=["src"], aggs={"deg": (None, "size", "sum")}, num_buckets=P
    ).materialize()
    n_nodes = deg.count()
    base = (1.0 - damping) / n_nodes

    def _bucket_of(s: pd.Series) -> pd.Series:
        return (pd.util.hash_pandas_object(s, index=False).to_numpy() % P).astype(
            "int64"
        )

    def tag_adj(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        out = pd.DataFrame(
            {
                "key": df["src"].astype(str),
                "dst": df["dst"].astype(str),
                "c": np.nan,
                "side": np.int64(0),
            }
        )
        out["bucket"] = _bucket_of(out["key"])
        return from_pandas_clean(out)

    adj_tagged = adj.map_batches(tag_adj, batch_format="pyarrow").materialize()

    def init_ranks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": df["src"].astype(str),
                "deg": df["deg"].astype("int64"),
                "rank": np.full(len(df), 1.0 / n_nodes),
            }
        )

    rankdeg = deg.map_batches(init_ranks, batch_format="pandas").materialize()

    def tag_rank(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "key": df["src"].astype(str),
                "dst": "",
                "c": (df["rank"] / df["deg"]).astype("float64"),
                "side": np.int64(1),
            }
        )
        out["bucket"] = _bucket_of(out["key"])
        return from_pandas_clean(out)

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["side"] == 0]
        right = df[df["side"] == 1]
        j = left[["key", "dst"]].merge(right[["key", "c"]], on="key")
        # combiner: collapse the edge-sized join output to ≤ unique-dst
        # rows before the node-keyed exchange
        out = j.groupby("dst", as_index=False, sort=False)["c"].sum()
        out = out.rename(columns={"dst": "node"})
        out["deg"] = np.nan
        return from_pandas_clean(out[["node", "c", "deg"]])

    def deg_rows(df: pd.DataFrame):
        return from_pandas_clean(
            pd.DataFrame(
                {
                    "node": df["src"].astype(str),
                    "c": 0.0,
                    "deg": df["deg"].astype("float64"),
                }
            )
        )

    for _ in range(iters):
        tagged = adj_tagged.union(
            rankdeg.map_batches(tag_rank, batch_format="pandas")
        )
        contrib = tagged.groupby("bucket").map_groups(
            join_bucket, batch_format="pandas"
        )
        merged = two_phase_groupby(
            contrib.union(deg.map_batches(deg_rows, batch_format="pandas")),
            keys=["node"],
            aggs={"c": ("c", "sum", "sum"), "deg": ("deg", "max", "max")},
            num_buckets=P,
        )

        def next_ranks(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "src": df["node"].astype(str),
                    "deg": df["deg"].astype("int64"),
                    "rank": base + damping * df["c"].astype("float64"),
                }
            )

        rankdeg = merged.map_batches(next_ranks, batch_format="pandas").materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"hpo_id": df["src"], "rank": df["rank"].round(6)}
        )

    return rankdeg.map_batches(finish, batch_format="pandas")


def kcore_nodes(edges_ds, k: int = 2, rounds: int = 3):
    """(hpo_id, degree) — nodes surviving ``rounds`` fixed peeling rounds
    of k-core decomposition (drop nodes with alive-degree < k each round),
    with their final degree within the surviving subgraph.  The
    graph-densification operator of KG curation: the k-core is the
    noise-robust backbone of the co-mention graph.

    Fixed-round semantics (like :func:`pagerank`) so the whole run is
    SQL-expressible as chained CTEs; full peeling converges when a round
    removes nothing — callers can raise ``rounds`` until stable.

    Scale shape: edges are the corpus-sized side and stay in the cluster —
    each round is ONE two-phase degree exchange over the (alive-filtered)
    edge projection, materialized once.  The alive set is a subset of the
    NODE universe, which for a phenotype KG is the ontology (bounded,
    ~16k), so the per-round driver state and the broadcast filter are
    O(ontology), never O(corpus)."""
    import ray as _ray

    both_dirs = _symmetric_expand("hpo_a", "hpo_b", "src", "dst")

    adj = edges_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()

    empty = pa.table(
        {"hpo_id": pa.array([], pa.string()),
         "degree": pa.array([], pa.int64())}
    )
    if adj.count() == 0:
        return _ray.data.from_arrow(empty)

    def degrees(alive_ref):
        def flt(b: pa.Table) -> pa.Table:
            alive = _ray.get(alive_ref)
            df = b.to_pandas()
            if alive is not None:
                df = df[df["src"].isin(alive) & df["dst"].isin(alive)]
            return from_pandas_clean(df[["src"]])

        deg = two_phase_groupby(
            adj.map_batches(flt, batch_format="pyarrow"),
            keys=["src"],
            aggs={"deg": (None, "size", "sum")},
        ).to_pandas()  # O(node universe) = O(ontology) — bounded
        if "src" not in deg.columns:  # zero alive-alive edges → no schema
            deg = pd.DataFrame(
                {"src": pd.Series([], dtype=str),
                 "deg": pd.Series([], dtype="int64")}
            )
        return deg

    alive = None  # None = every node
    for _ in range(rounds):
        deg = degrees(_ray.put(alive))
        alive = set(deg.loc[deg["deg"] >= k, "src"])
        if not alive:
            return _ray.data.from_arrow(empty)

    final = degrees(_ray.put(alive))
    final = final.set_index("src")["deg"]
    out = pd.DataFrame(
        {
            "hpo_id": sorted(alive),
            "degree": [int(final.get(h, 0)) for h in sorted(alive)],
        }
    )
    return _ray.data.from_pandas(out)
