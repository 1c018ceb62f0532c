"""Evaluation aggregates A1-A4 (SURVEY.md §2.6) as Ray Data operations.

Re-creates the reference scorer semantics (eval_all.py:60-126,260-321):
- A1: per-doc/conv HPO *set* semantics (dedup groupby)
- A2: micro P/R/F1  — global Σ|T∩P| / Σ|P|, Σ|T|
- A3: macro P/R/F1 — per-conv P/R averaged
- A4: ontology-similarity score — set-vs-set LCS-based similarity, averaged

The pred/gold intersection is computed WITHOUT a join: both sides are tagged
and union'd, then one (conv_id, hpo_id) groupby yields per-key membership
flags — a single shuffle, no broadcast of either side.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray

from ..assets.hpo_dag import HpoDag


def _tag(ds, col: str):
    def f(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.Table.from_arrays(
            [
                b.column("conv_id"),
                b.column("hpo_id"),
                pa.array([1 if col == "p" else 0] * n, pa.int64()),
                pa.array([1 if col == "g" else 0] * n, pa.int64()),
            ],
            names=["conv_id", "hpo_id", "p", "g"],
        )

    return ds.map_batches(f, batch_format="pyarrow")


def membership_from_tagged(tagged_ds):
    """(conv_id, hpo_id, in_pred, in_gold) — one row per key (A1 dedup)
    from an already-tagged (conv_id, hpo_id, p, g) stream; one two-phase
    bucketed exchange (see stages/shuffle.py)."""
    from ..stages.shuffle import two_phase_groupby

    return two_phase_groupby(
        tagged_ds,
        keys=["conv_id", "hpo_id"],
        aggs={"in_pred": ("p", "max", "max"), "in_gold": ("g", "max", "max")},
    )


def membership(pred_ds, gold_ds):
    """Two-stream membership: tag each side, union, dedupe.  When pred and
    gold both derive from ONE upstream pass (the annotate pipeline), prefer
    emitting (conv_id, hpo_id, p, g) rows directly in that pass and calling
    ``membership_from_tagged`` — it halves the tagged-row volume and drops
    the union + per-side tag stages (and the upstream materialize the
    two-reader pattern forces)."""
    return membership_from_tagged(_tag(pred_ds, "p").union(_tag(gold_ds, "g")))


def micro_prf(pred_ds, gold_ds) -> dict:
    """A2 — returns {'precision','recall','f1'} floats."""
    return micro_prf_membership(membership(pred_ds, gold_ds))


def micro_prf_tagged(tagged_ds) -> dict:
    """A2 over a pre-tagged (conv_id, hpo_id, p, g) stream (one upstream
    pass, no union)."""
    return micro_prf_membership(membership_from_tagged(tagged_ds))


def micro_prf_membership(m) -> dict:
    def counts(b: pa.Table) -> pa.Table:
        p = b.column("in_pred").to_numpy()
        g = b.column("in_gold").to_numpy()
        return pa.Table.from_pydict(
            {"tp": [int((p & g).sum())], "np_": [int(p.sum())], "ng": [int(g.sum())]}
        )

    # per-block partials are ONE row each — summing them on the driver is
    # bounded by block count; the native aggregate would spend a whole
    # all-to-all operator on it
    import pyarrow.compute as pc

    tp = np_ = ng = 0
    for b in m.map_batches(counts, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if b.num_rows:
            tp += pc.sum(b.column("tp")).as_py() or 0
            np_ += pc.sum(b.column("np_")).as_py() or 0
            ng += pc.sum(b.column("ng")).as_py() or 0
    p = tp / np_ if np_ else 0.0
    r = tp / ng if ng else 0.0
    f1 = 2 * p * r / (p + r) if (p + r) else 0.0
    return {"precision": p, "recall": r, "f1": f1}


def macro_prf(pred_ds, gold_ds, n_all_convs: int | None = None) -> dict:
    """A3 — per-conv P/R averaged over convs that have gold or pred.

    ``n_all_convs``: total docs in the corpus.  The reference averages
    over ALL files and scores a doc with neither gold nor predicted HPOs
    as P=R=1 (eval_all.py:64-67, averaged :284-285); such docs never
    appear in the membership stream, so pass the corpus size to include
    them.  The `queries()` entry keeps the stream-only
    semantics (None) — its synthetic corpus has no empty docs."""
    return macro_prf_membership(membership(pred_ds, gold_ds), n_all_convs)


def macro_prf_tagged(tagged_ds, n_all_convs: int | None = None) -> dict:
    """A3 over a pre-tagged (conv_id, hpo_id, p, g) stream."""
    return macro_prf_membership(membership_from_tagged(tagged_ds), n_all_convs)


def macro_prf_membership(m, n_all_convs: int | None = None) -> dict:
    from ..stages.shuffle import two_phase_groupby

    merged = two_phase_groupby(
        m,
        keys=["conv_id"],
        aggs={
            "sum(tp)": ("tp", "sum", "sum"),
            "sum(np_)": ("in_pred", "sum", "sum"),
            "sum(ng)": ("in_gold", "sum", "sum"),
        },
        pre_filter=lambda df: df.assign(tp=df["in_pred"] * df["in_gold"]),
    )

    def prf(b: pa.Table) -> pa.Table:
        import numpy as np

        df = b.to_pandas()
        tp = df["sum(tp)"].to_numpy(dtype=float)
        np_ = df["sum(np_)"].to_numpy(dtype=float)
        ng = df["sum(ng)"].to_numpy(dtype=float)
        p = np.where(np_ > 0, tp / np.maximum(np_, 1), 0.0)
        r = np.where(ng > 0, tp / np.maximum(ng, 1), 0.0)
        return pa.Table.from_pydict({"conv_id": df["conv_id"], "p": p, "r": r})

    # per-block PARTIALS (one row each) then a driver sum bounded by block
    # count — the per-conv rows themselves never reach the driver
    perconv_prf = merged.map_batches(prf, batch_format="pyarrow")

    def partials(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "sp": [pc.sum(b.column("p")).as_py() or 0.0],
                "sr": [pc.sum(b.column("r")).as_py() or 0.0],
                "n": [b.num_rows],
            }
        )

    sp = sr = 0.0
    n = 0
    for b in perconv_prf.map_batches(partials, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        import pyarrow.compute as pc

        if b.num_rows:
            sp += pc.sum(b.column("sp")).as_py() or 0.0
            sr += pc.sum(b.column("sr")).as_py() or 0.0
            n += pc.sum(b.column("n")).as_py() or 0
    if n_all_convs is not None and n_all_convs > n:
        # docs with neither gold nor pred: P=R=1 each (eval_all.py:64-67)
        sp += n_all_convs - n
        sr += n_all_convs - n
        n = n_all_convs
    if n == 0:
        return {"macro_precision": 0.0, "macro_recall": 0.0}
    return {"macro_precision": sp / n, "macro_recall": sr / n}


def ontology_similarity(pred_ds, gold_ds, dag: HpoDag,
                        n_all_convs: int | None = None) -> float:
    """A4 — mean over convs of set-vs-set LCS similarity (util.py:504-537).
    The DAG is broadcast to the map_groups workers via ray.put.
    ``n_all_convs``: see macro_prf — empty-vs-empty docs score 1.0
    (util.py:511-512) and the reference averages over all files."""
    return ontology_similarity_membership(membership(pred_ds, gold_ds), dag,
                                          n_all_convs)


def ontology_similarity_tagged(tagged_ds, dag: HpoDag,
                               n_all_convs: int | None = None) -> float:
    """A4 over a pre-tagged (conv_id, hpo_id, p, g) stream."""
    return ontology_similarity_membership(
        membership_from_tagged(tagged_ds), dag, n_all_convs
    )


def ontology_similarity_membership(m, dag: HpoDag,
                                   n_all_convs: int | None = None) -> float:
    from ..stages.shuffle import default_num_buckets

    dag_ref = ray.put(dag)
    P = default_num_buckets()

    def bucketize(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["bucket"] = (
            pd.util.hash_pandas_object(df["conv_id"], index=False).to_numpy() % P
        ).astype("int64")
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # many convs per call (per-conv map_groups costs ~ms of overhead
        # per group); the LCS similarity itself is per-conv python
        d = ray.get(dag_ref)
        rows = []
        for conv, g in df.groupby("conv_id", sort=False):
            pred = set(g.loc[g.in_pred == 1, "hpo_id"])
            gold = set(g.loc[g.in_gold == 1, "hpo_id"])
            rows.append((conv, d.set_sim(pred, gold)))
        return pd.DataFrame(rows, columns=["conv_id", "sim"])

    sims = (
        m.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    def sim_partials(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"s": [float(df["sim"].sum())], "n": [len(df)]})

    import pyarrow.compute as pc

    total = 0.0
    n = 0
    for b in sims.map_batches(sim_partials, batch_format="pandas").iter_batches(
        batch_format="pyarrow"
    ):
        if b.num_rows:
            total += pc.sum(b.column("s")).as_py() or 0.0
            n += pc.sum(b.column("n")).as_py() or 0
    if n_all_convs is not None and n_all_convs > n:
        # empty-vs-empty docs: similarity 1.0 each (util.py:511-512)
        total += n_all_convs - n
        n = n_all_convs
    return total / n if n else 0.0
