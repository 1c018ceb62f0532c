"""Evaluation aggregates A1-A4 (SURVEY.md §2.6) as Ray Data operations.

Re-creates the reference scorer semantics (eval_all.py:60-126,260-321):
- A1: per-doc/conv HPO *set* semantics (dedup groupby)
- A2: micro P/R/F1  — global Σ|T∩P| / Σ|P|, Σ|T|
- A3: macro P/R/F1 — per-conv P/R averaged
- A4: ontology-similarity score — set-vs-set LCS-based similarity, averaged

The pred/gold intersection is computed WITHOUT a join or an exchange: both
sides are tagged and union'd, a per-block Arrow ``group_by`` combiner fused
into the tagging map keeps max(p) / max(g) per (conv_id, hpo_id), the
one-block gather (``stages.shuffle.in_one_block``) collects the partials
and one merge task applies the same ``group_by`` — the plan shape of
``pipelines.triples.dedup_conv_hpo``.
The membership table is that one block, so every conversation's rows sit
together, and each metric is one pass over it as it streams to the driver.
Memory contract: the distinct (conv_id, hpo_id) keys of pred ∪ gold fit in
one block.
"""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..assets.hpo_dag import HpoDag

TAGGED_SCHEMA = pa.schema([("conv_id", pa.string()), ("hpo_id", pa.string()),
                           ("p", pa.int64()), ("g", pa.int64())])
MEMBERSHIP_SCHEMA = pa.schema([("conv_id", pa.string()), ("hpo_id", pa.string()),
                               ("in_pred", pa.int64()), ("in_gold", pa.int64())])


def collapse_tagged(b: pa.Table) -> pa.Table:
    """max(p), max(g) per (conv_id, hpo_id) of a tagged block — the
    membership combiner.  Producers of a tagged stream call it in the map
    that tags, so it runs fused there and the gather moves one row per key
    per block.  (A separate map after a union would skip the union's
    empty blocks and emit column-less ones.)"""
    agg = b.group_by(["conv_id", "hpo_id"], use_threads=False).aggregate(
        [("p", "max"), ("g", "max")])
    return pa.Table.from_arrays(
        [agg["conv_id"], agg["hpo_id"], agg["p_max"], agg["g_max"]],
        names=TAGGED_SCHEMA.names).cast(TAGGED_SCHEMA)


def _tag(ds, col: str):
    def f(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return collapse_tagged(pa.Table.from_arrays(
            [
                b.column("conv_id"),
                b.column("hpo_id"),
                pa.array([1 if col == "p" else 0] * n, pa.int64()),
                pa.array([1 if col == "g" else 0] * n, pa.int64()),
            ],
            names=TAGGED_SCHEMA.names,
        ))

    return ds.map_batches(f, batch_format="pyarrow")


def _membership(b: pa.Table) -> pa.Table:
    return collapse_tagged(b).rename_columns(MEMBERSHIP_SCHEMA.names)


def membership_from_tagged(tagged_ds):
    """(conv_id, hpo_id, in_pred, in_gold) — one row per key (A1 dedup)
    from a tagged (conv_id, hpo_id, p, g) stream, merged in one block (see
    the module docstring).  The stream's blocks should already be
    collapsed by :func:`collapse_tagged`; the gather moves what they
    hold."""
    from ..stages.shuffle import in_one_block

    return in_one_block(tagged_ds, TAGGED_SCHEMA, _membership, MEMBERSHIP_SCHEMA)


def membership(pred_ds, gold_ds):
    """Two-stream membership: tag each side, union, dedupe.  When pred and
    gold both derive from ONE upstream pass (the annotate pipeline), prefer
    emitting (conv_id, hpo_id, p, g) rows directly in that pass and calling
    ``membership_from_tagged`` — it halves the tagged-row volume and drops
    the union + per-side tag stages (and the upstream materialize the
    two-reader pattern forces)."""
    return membership_from_tagged(_tag(pred_ds, "p").union(_tag(gold_ds, "g")))


def _block_sums(m, fn, **kwargs) -> dict:
    """Sums of ``fn``'s per-block partials (a dict of numbers) as the
    membership blocks stream to the driver.  Whole blocks: a
    conversation's rows never straddle two.  The partials run on the
    driver rather than in a ``map_batches``: a map over a zero-row
    membership block emits a column-less one."""
    tot: dict = {}
    for b in m.iter_batches(batch_format="pyarrow", batch_size=None):
        if b.num_rows:
            for k, v in fn(b, **kwargs).items():
                tot[k] = tot.get(k, 0) + v
    return tot


def micro_prf(pred_ds, gold_ds) -> dict:
    """A2 — returns {'precision','recall','f1'} floats."""
    return micro_prf_membership(membership(pred_ds, gold_ds))


def micro_prf_tagged(tagged_ds) -> dict:
    """A2 over a pre-tagged (conv_id, hpo_id, p, g) stream (one upstream
    pass, no union)."""
    return micro_prf_membership(membership_from_tagged(tagged_ds))


def _micro_counts(b: pa.Table) -> dict:
    p = b["in_pred"].to_numpy()
    g = b["in_gold"].to_numpy()
    return {"tp": int((p & g).sum()), "np_": int(p.sum()), "ng": int(g.sum())}


def micro_prf_membership(m) -> dict:
    s = _block_sums(m, _micro_counts)
    tp, np_, ng = s.get("tp", 0), s.get("np_", 0), s.get("ng", 0)
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


def _macro_sums(b: pa.Table) -> dict:
    b = b.append_column("tp", pc.multiply(b["in_pred"], b["in_gold"]))
    g = b.group_by("conv_id", use_threads=False).aggregate(
        [("tp", "sum"), ("in_pred", "sum"), ("in_gold", "sum")])
    tp = g["tp_sum"].to_numpy().astype(float)
    np_ = g["in_pred_sum"].to_numpy().astype(float)
    ng = g["in_gold_sum"].to_numpy().astype(float)
    p = np.where(np_ > 0, tp / np.maximum(np_, 1), 0.0)
    r = np.where(ng > 0, tp / np.maximum(ng, 1), 0.0)
    return {"sp": float(p.sum()), "sr": float(r.sum()), "n": g.num_rows}


def _average(s: dict, keys: tuple[str, ...], n_all_convs: int | None) -> list:
    """Per-conv sums / conv count; convs outside the membership stream
    (neither gold nor pred) score 1.0 each when ``n_all_convs`` counts
    them (eval_all.py:64-67, util.py:511-512)."""
    n = s.get("n", 0)
    tot = [s.get(k, 0.0) for k in keys]
    if n_all_convs is not None and n_all_convs > n:
        tot = [t + n_all_convs - n for t in tot]
        n = n_all_convs
    return [t / n if n else 0.0 for t in tot]


def macro_prf_membership(m, n_all_convs: int | None = None) -> dict:
    p, r = _average(_block_sums(m, _macro_sums), ("sp", "sr"), n_all_convs)
    return {"macro_precision": p, "macro_recall": r}


def ontology_similarity(pred_ds, gold_ds, dag: HpoDag,
                        n_all_convs: int | None = None) -> float:
    """A4 — mean over convs of set-vs-set LCS similarity (util.py:504-537).
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


def _sim_sums(b: pa.Table, dag: HpoDag) -> dict:
    # the LCS similarity itself is per-conv python
    b = b.sort_by("conv_id")
    rows = zip(b["conv_id"].to_pylist(), b["hpo_id"].to_pylist(),
               b["in_pred"].to_pylist(), b["in_gold"].to_pylist())
    total, n = 0.0, 0
    for _, conv in itertools.groupby(rows, key=lambda r: r[0]):
        conv = list(conv)
        total += dag.set_sim({h for _, h, p, _ in conv if p},
                             {h for _, h, _, g in conv if g})
        n += 1
    return {"s": total, "n": n}


def ontology_similarity_membership(m, dag: HpoDag,
                                   n_all_convs: int | None = None) -> float:
    (s,) = _average(_block_sums(m, _sim_sums, dag=dag), ("s",), n_all_convs)
    return s
