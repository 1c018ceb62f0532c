"""Distributed connected components over an edge Dataset — the final step
of the near-dup dedup story (pair verification → duplicate CLUSTERS), and
the engine's iterative-graph-algorithm / partitioned-hash-join
demonstration.

Algorithm: min-label propagation WITH pointer jumping.  labels start as
node ids; each round every node takes the min label among itself and its
neighbors (one adjacency-sized exchange), then labels chase their own
pointers (``label ← label[label]``, one label-table-sized exchange) —
path compression doubles the propagation distance per round, so
convergence needs O(log diameter) rounds instead of O(diameter)
(template-heavy corpora form giant sparse components where the
difference is 10× wall-clock).  The propagation exchange:

  messages = adjacency ⋈ labels on neighbor   (hash join: both sides
             bucketed on the join key, joined per bucket with pandas)
  labels'  = min by node over (labels ∪ messages)

Convergence is detected with a driver-side scalar (Σ labels strictly
decreases until fixpoint) — no full materialization.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..pipelines.graph import _symmetric_expand
from ..stages.shuffle import from_pandas_clean, two_phase_groupby


def connected_components(pairs_ds, max_rounds: int = 20,
                         num_buckets: int | None = None,
                         pointer_jumping: bool | None = None,
                         small_graph_edges: int = 100_000):
    """pairs (doc_a, doc_b) → Dataset[(doc_id, cluster_id)] where
    cluster_id = min node id of the component.

    pointer_jumping: None (default) = adaptive — the compression pass
    stays off for the first 4 rounds (small-diameter graphs converge
    before it could help; the extra per-round exchange is pure overhead
    there — measured 3× on a 203-node run) and switches on from round 5,
    where an unconverged graph has a large diameter and pointer jumping
    is what makes convergence O(log d) (it cut a 100k-node template graph
    from un-finishable to ~3 min).

    The bucket count is sized to the EDGE count, not the cluster: an
    iterative algorithm pays per-bucket task overhead every round, so a
    small graph on many buckets is dominated by scheduling (measured
    ~6 s/round for 1.6k edges at P=32).

    small_graph_edges: below this bound the whole edge set runs
    union-find in ONE remote task (a map_groups on a constant key — in
    the cluster, not the driver; 100k int64 pairs ≈ 3 MB, trivially one
    worker's heap) instead of paying per-round exchange overhead that
    dominates small graphs.  The distributed rounds engage beyond the
    bound — the 1M- and 10M-edge bench regressions pin that path.  Pass
    0 to force the distributed path (tests do)."""
    P = num_buckets

    # symmetric adjacency (node, nbr)
    to_adj = _symmetric_expand("doc_a", "doc_b", "node", "nbr")

    adjacency = pairs_ds.map_batches(to_adj, batch_format="pyarrow").materialize()
    n_adj = adjacency.count()
    if not P:
        # n_adj is the SYMMETRIC adjacency (2× edges).  An iterative
        # algorithm pays per-bucket scheduling EVERY round, so cap P at the
        # core count (A/B at 1M edges / 32 cpus: P=128 → 380 s, P=64 →
        # 203 s, P=8..32 → 80-145 s) — until per-bucket adjacency
        # (~4M rows ≈ 64 MB) forces more buckets at real scale
        import ray as _ray

        cpus = int(_ray.cluster_resources().get("CPU", 8))
        P = max(
            min(cpus, max(4, (n_adj // 2) // 1_000)),
            n_adj // 4_000_000,
        )

    # empty edge set (corpus with zero near-dup pairs): Ray's aggregate
    # returns None on an empty dataset, so short-circuit with an empty,
    # correctly-typed result instead of crashing in label_sum
    if n_adj == 0:
        import ray as _ray

        return _ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "cluster_id": pa.array([], pa.int64()),
                }
            )
        )

    # coalesce a fragmented edge set BEFORE the iterative rounds: upstream
    # producers (e.g. the minhash verify join) can emit thousands of tiny
    # blocks, and every round's map stage schedules one task per block —
    # measured at 400k edges / 2000 blocks the rounds go from 11 s to
    # un-finishable (>10 min).  One cheap coalescing pass over int64 pairs
    # bounds per-round task count at P regardless of producer shape.
    if adjacency.num_blocks() > 2 * P:
        adjacency = adjacency.repartition(P).materialize()

    if n_adj <= 2 * small_graph_edges:
        import numpy as _np

        def uf(df: pd.DataFrame) -> pd.DataFrame:
            parent: dict = {}

            def find(x):
                r = x
                while parent[r] != r:
                    r = parent[r]
                while parent[x] != r:
                    parent[x], x = r, parent[x]
                return r

            for a, b in zip(df["node"], df["nbr"]):
                if a not in parent:
                    parent[a] = a
                if b not in parent:
                    parent[b] = b
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
            comp: dict = {}
            for v in parent:
                comp.setdefault(find(v), []).append(v)
            rows_n, rows_c = [], []
            for members in comp.values():
                m = min(members)
                rows_n.extend(members)
                rows_c.extend([m] * len(members))
            return from_pandas_clean(
                pd.DataFrame({"doc_id": rows_n, "cluster_id": rows_c})
            )

        tagged = adjacency.map_batches(
            lambda b: b.append_column(
                "g", pa.array(_np.zeros(b.num_rows, dtype=_np.int64))
            ),
            batch_format="pyarrow",
        )
        return tagged.groupby("g").map_groups(uf, batch_format="pandas")

    # labels: every node starts as its own cluster
    labels = two_phase_groupby(
        adjacency.map_batches(
            lambda b: b.select(["node"]).append_column(
                "label", b.column("node")
            ),
            batch_format="pyarrow",
        ),
        keys=["node"],
        aggs={"label": ("label", "min", "min")},
        num_buckets=P,
    ).materialize()

    def label_sum(lds) -> int:
        """Σ labels as an exact PYTHON int: per-block int64 partial sums
        computed IN-CLUSTER (safe — block_rows × max_id ≪ 2^63) added
        driver-side with arbitrary precision, so the convergence sentinel
        cannot wrap at 10^12-node scale the way a single int64 all-to-all
        Sum could.  Only one scalar per block crosses to the driver — the
        label table itself never does."""
        import pyarrow.compute as pc

        def part(b: pa.Table) -> pa.Table:
            s = pc.sum(b.column("label")).as_py() if b.num_rows else 0
            return pa.table({"s": pa.array([s or 0], pa.int64())})

        total = 0
        for b in lds.map_batches(part, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            if b.num_rows:
                total += int(pc.sum(b.column("s")).as_py())
        return total

    # unified (bucket, side, key, val) rows for the per-bucket hash join —
    # ONE tagger so the bucketing scheme can never diverge between the
    # propagation and compression joins:
    #   side 0 (probe side): key = join key, val = payload
    #   side 1 (labels):     key = node,     val = label
    def _tag_rows(key_col: str, val_col: str, side: int):
        def tag(b: pa.Table) -> pa.Table:
            df = b.to_pandas()
            out = pd.DataFrame(
                {"key": df[key_col].astype("int64"),
                 "val": df[val_col].astype("int64")}
            )
            out["side"] = side
            out["bucket"] = (
                pd.util.hash_pandas_object(out["key"], index=False).to_numpy() % P
            ).astype("int64")
            return from_pandas_clean(out)

        return tag

    adj_rows = _tag_rows("nbr", "node", 0)
    lab_rows = _tag_rows("node", "label", 1)

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["side"] == 0]
        right = df[df["side"] == 1]
        j = left.merge(right, on="key")
        out = pd.DataFrame(
            {"node": j["val_x"].astype("int64"), "label": j["val_y"].astype("int64")}
        )
        # combiner: the downstream merge min-reduces per node anyway, so
        # collapse the edge-sized join output to ≤ unique-nodes rows
        # BEFORE it re-enters the node-keyed exchange
        return out.groupby("node", as_index=False, sort=False)["label"].min()

    def compress(lds):
        """labels ← labels[labels]: rows (key=label, node) ⋈ (key=node,
        label) per bucket — the pointer-jumping step over the SMALL label
        table (label_of_label ≤ label by the min-propagation invariant,
        so the chase only ever improves)."""

        ptr_rows = _tag_rows("label", "node", 0)
        tagged = lds.map_batches(ptr_rows, batch_format="pyarrow").union(
            lds.map_batches(lab_rows, batch_format="pyarrow")
        )
        chased = tagged.groupby("bucket").map_groups(
            join_bucket, batch_format="pandas"
        )
        # roots (label == node) produce their own chase row, so every node
        # keeps a label; min-merge with the previous labels for safety.
        return coalesce(
            two_phase_groupby(
                lds.union(chased),
                keys=["node"],
                aggs={"label": ("label", "min", "min")},
                num_buckets=P,
            )
        )

    def coalesce(lds):
        """materialize, and repartition only when the union+sort lineage
        has actually ballooned the block count (it multiplies ~6× per
        round; unchecked, per-block overhead dominates by round 3 — but a
        repartition every round is itself a whole extra exchange, ~2s of
        pure overhead on small graphs)."""
        m = lds.materialize()
        if m.num_blocks() > 16:
            m = m.repartition(P).materialize()
        return m

    prev = label_sum(labels)
    converged = False
    for rd in range(max_rounds):
        jump = pointer_jumping if pointer_jumping is not None else rd >= 4
        tagged = adjacency.map_batches(adj_rows, batch_format="pyarrow").union(
            labels.map_batches(lab_rows, batch_format="pyarrow")
        )
        messages = tagged.groupby("bucket").map_groups(
            join_bucket, batch_format="pandas"
        )
        labels = coalesce(
            two_phase_groupby(
                labels.union(messages),
                keys=["node"],
                aggs={"label": ("label", "min", "min")},
                num_buckets=P,
            )
        )
        cur = label_sum(labels)
        if cur == prev:
            # propagation-stable ⇒ label[n] ≤ label[nbr] on every edge in
            # both directions ⇒ labels constant per component = minima;
            # skipping compress here saves a whole label-table exchange on
            # the (always-reached) final round
            converged = True
            break
        prev = cur
        if jump:
            labels = compress(labels)
            prev = label_sum(labels)

    if not converged:
        # a component needing more rounds would get WRONG cluster ids;
        # fail loudly rather than return silently-truncated propagation
        raise RuntimeError(
            f"connected_components: did not converge within "
            f"max_rounds={max_rounds}; with pointer jumping rounds needed "
            f"≈ log2(largest component diameter) — raise max_rounds"
        )

    return labels.map_batches(
        lambda b: b.rename_columns(["doc_id", "cluster_id"]), batch_format="pyarrow"
    )

