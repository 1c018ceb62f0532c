"""Inverted index hpo_id → conversation postings (S7/A5, SURVEY.md §2.1/§2.6).

Re-creates the GeneReviews search engine semantics
(/root/reference/phenobert/utils/gene_reviews_search_engine.py:8-43): build
``hpo → set(doc)`` postings from annotations, then probe with AND/OR set
semantics.

Every operator here is one task over the pair table
(``pipelines.triples.on_pair_table``): the distinct (conv_id, hpo_id) rows
of the annotations, gathered into one Arrow block.  Postings and scalars
are an Arrow ``group_by`` on it; the AND/OR probes count each
conversation's ``is_in`` hits with a ``group_by`` on ``conv_id``.  Memory contract: the distinct pairs
of the input fit in one block.  Posting rows stay split by
``hash(conv) % NUM_POSTING_SHARDS``, so no list cell holds more than ~1/S
of a hot phenotype's conversations.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..pipelines.triples import on_pair_table

NUM_POSTING_SHARDS = 16

POSTINGS_SCHEMA = pa.schema([("hpo_id", pa.string()), ("shard", pa.int64()),
                             ("n_convs", pa.int64()),
                             ("convs", pa.list_(pa.string()))])
SCALARS_SCHEMA = pa.schema([("hpo_id", pa.string()), ("n_convs", pa.int64()),
                            ("first_conv", pa.string()),
                            ("last_conv", pa.string())])
CONVS_SCHEMA = pa.schema([("conv_id", pa.string())])


def _postings(pairs: pa.Table) -> pa.Table:
    shard = pd.util.hash_pandas_object(
        pairs["conv_id"].to_pandas(), index=False).to_numpy() % NUM_POSTING_SHARDS
    # pairs arrive sorted by conv_id and a single-threaded group_by keeps
    # row order, so every list comes out sorted
    g = pairs.append_column("shard", pa.array(shard.astype("int64"))).group_by(
        ["hpo_id", "shard"], use_threads=False).aggregate(
        [([], "count_all"), ("conv_id", "list")])
    return pa.Table.from_arrays(
        [g["hpo_id"], g["shard"], g["count_all"], g["conv_id_list"]],
        schema=POSTINGS_SCHEMA)


def build_inverted_index(annotations_ds, include_negated: bool = False):
    """annotations → Dataset[(hpo_id, shard, n_convs, convs:list<string>)].

    One row per (hpo_id, shard); a conv always lands in the same shard, so
    per-row conv lists are exact-deduped and sorted, and the union over a
    hpo's shard rows is its full posting set.  ``include_negated`` keeps
    negated mentions in the pair table."""
    return on_pair_table(annotations_ds, _postings, POSTINGS_SCHEMA,
                         drop_negated=not include_negated)


def _scalars(pairs: pa.Table) -> pa.Table:
    g = pairs.group_by("hpo_id", use_threads=False).aggregate(
        [([], "count_all"), ("conv_id", "min"), ("conv_id", "max")])
    return pa.Table.from_arrays(
        [g["hpo_id"], g["count_all"], g["conv_id_min"], g["conv_id_max"]],
        schema=SCALARS_SCHEMA)


def index_scalars(annotations_ds, include_negated: bool = False):
    """(hpo_id, n_convs, first_conv, last_conv): one ``group_by`` over the
    pair table, so no posting list is built."""
    return on_pair_table(annotations_ds, _scalars, SCALARS_SCHEMA,
                         drop_negated=not include_negated)


def search(index_df: pd.DataFrame, terms: list[str], mode: str = "and") -> list[str]:
    """Driver-side probe with AND/OR semantics over the (small) collected
    index (gene_reviews_search_engine.py:31-43).  Accepts the sharded rows:
    a hpo's postings are the union of its shard rows.  An empty AND is
    every indexed conversation (⋂ over ∅), an empty OR none — the
    semantics of :func:`search_convs_with_all` / :func:`search_convs_with_any`."""
    lut: dict[str, set] = {}
    for h, convs in zip(index_df["hpo_id"], index_df["convs"]):
        lut.setdefault(h, set()).update(convs)
    if mode == "and":
        acc = set().union(*lut.values())
        for t in terms:
            acc &= lut.get(t, set())
    else:
        acc = set().union(*(lut.get(t, set()) for t in terms))
    return sorted(acc)


def _convs_with(pairs: pa.Table, wanted: list[str], need: int) -> pa.Table:
    """Conversations with at least ``need`` of the distinct ``wanted`` ids
    (pairs are distinct, so a conv holds each id at most once)."""
    hit = pc.cast(pc.is_in(pairs["hpo_id"],
                           value_set=pa.array(wanted, pa.string())), pa.int64())
    g = pairs.append_column("hit", hit).group_by(
        "conv_id", use_threads=False).aggregate([("hit", "sum")])
    return g.filter(pc.greater_equal(g["hit_sum"], need)).select(["conv_id"])


def search_convs_with_all(annotations_ds, hpo_ids: list[str]):
    """Distributed AND-probe (gene_reviews_search_engine.py:31-39 semantics
    without collecting the index): conversations containing EVERY id in
    ``hpo_ids``, by a per-conv count of the distinct wanted ids in the pair
    table.  Vacuous AND: ``[]`` matches every conversation with a
    non-negated mention."""
    wanted = sorted(set(hpo_ids))
    return on_pair_table(annotations_ds, _convs_with, CONVS_SCHEMA,
                         wanted=wanted, need=len(wanted))


def search_convs_with_any(annotations_ds, hpo_ids: list[str]):
    """Distributed OR-probe (gene_reviews_search_engine.py:40-43's union
    branch, without collecting the index): conversations containing AT
    LEAST ONE id in ``hpo_ids``.  ``[]`` matches none (⋃ over ∅)."""
    return on_pair_table(annotations_ds, _convs_with, CONVS_SCHEMA,
                         wanted=sorted(set(hpo_ids)), need=1)
