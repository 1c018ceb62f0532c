"""Inverted index hpo_id → conversation postings (S7/A5, SURVEY.md §2.1/§2.6).

Re-creates the GeneReviews search engine semantics
(/root/reference/phenobert/utils/gene_reviews_search_engine.py:8-43): build
``hpo → set(doc)`` postings from annotations, then probe with AND/OR set
semantics.

Scale notes: postings are SHARDED — the index rows are
``(hpo_id, shard=hash(conv) % S, convs)``, so a hot phenotype that appears
in most of 10^12 turns spreads its conv list over S rows/workers instead of
concentrating it in one list cell.  Scalar index stats (counts, first/last)
come from a two-phase exchange over the shard rows and never concatenate a
full posting list anywhere; block-level partials dedupe (hpo, conv) before
the shuffle so the exchange carries at most one row per (hpo, conv) pair.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..stages.shuffle import from_pandas_clean

NUM_POSTING_SHARDS = 16


def _shard_of(conv_ids: pd.Series, num_shards: int) -> pd.Series:
    return (
        pd.util.hash_pandas_object(conv_ids, index=False) % num_shards
    ).astype("int64")


def build_inverted_index(annotations_ds, include_negated: bool = False,
                         num_shards: int = NUM_POSTING_SHARDS):
    """annotations → Dataset[(hpo_id, shard, n_convs, convs:list<string>)].

    One row per (hpo_id, shard); a conv always lands in the same shard, so
    per-row conv lists are exact-deduped and the union over a hpo's shard
    rows is its full posting set.  No row ever holds more than ~1/S of a
    hot phenotype's postings.
    """

    partial_schema = pa.schema([("hpo_id", pa.string()),
                                ("shard", pa.int64()),
                                ("convs", pa.list_(pa.string()))])

    def partial(b: pa.Table) -> pa.Table:
        df = b.select(["hpo_id", "conv_id", "negated"]).to_pandas()
        if not include_negated:
            df = df[~df.negated]
        if not len(df):
            # empty pandas → null-typed arrow columns → mixed block
            # schemas downstream; emit the typed empty
            return partial_schema.empty_table()
        df = df.drop_duplicates(["hpo_id", "conv_id"])
        df["shard"] = _shard_of(df["conv_id"], num_shards)
        g = (
            df.groupby(["hpo_id", "shard"])["conv_id"]
            .agg(lambda s: sorted(set(s)))
            .reset_index()
            .rename(columns={"conv_id": "convs"})
        )
        return from_pandas_clean(g).cast(partial_schema)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        convs = sorted({c for lst in df["convs"] for c in lst})
        return pd.DataFrame(
            {
                "hpo_id": [df.hpo_id.iloc[0]],
                "shard": [int(df.shard.iloc[0])],
                "n_convs": [len(convs)],
                "convs": [convs],
            }
        )

    return (
        annotations_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["hpo_id", "shard"])
        .map_groups(merge, batch_format="pandas")
    )


def index_scalars(annotations_ds, include_negated: bool = False,
                  num_shards: int = NUM_POSTING_SHARDS):
    """(hpo_id, n_convs, first_conv, last_conv) via two-phase aggregation
    over the sharded postings — the full conv list of a phenotype is never
    concatenated in one task."""
    from ..stages.shuffle import two_phase_groupby

    sharded = build_inverted_index(
        annotations_ds, include_negated=include_negated, num_shards=num_shards
    )

    def shard_stats(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "hpo_id": df["hpo_id"],
                "n": df["n_convs"].astype("int64"),
                "mn": df["convs"].str[0],
                "mx": df["convs"].str[-1],
            }
        )

    return two_phase_groupby(
        sharded.map_batches(shard_stats, batch_format="pandas"),
        keys=["hpo_id"],
        aggs={
            "n_convs": ("n", "sum", "sum"),
            "first_conv": ("mn", "min", "min"),
            "last_conv": ("mx", "max", "max"),
        },
    )


def search(index_df: pd.DataFrame, terms: list[str], mode: str = "and") -> list[str]:
    """Driver-side probe with AND/OR semantics over the (small) collected
    index (gene_reviews_search_engine.py:31-43).  Accepts the sharded rows:
    a hpo's postings are the union of its shard rows."""
    lut: dict[str, set] = {}
    for h, convs in zip(index_df["hpo_id"], index_df["convs"]):
        lut.setdefault(h, set()).update(convs)
    postings = [lut.get(t, set()) for t in terms]
    if not postings:
        return []
    acc = postings[0]
    for s in postings[1:]:
        acc = acc & s if mode == "and" else acc | s
    return sorted(acc)


def search_convs_with_all(annotations_ds, hpo_ids: list[str]):
    """Distributed AND-probe (gene_reviews_search_engine.py:31-39 semantics
    without collecting the index): conversations containing EVERY id in
    ``hpo_ids`` — per-conv flag aggregation via the bucketed exchange."""
    import pyarrow.compute as pc

    from ..stages.shuffle import two_phase_groupby

    wanted = list(hpo_ids)

    if not wanted:
        # vacuous AND: every indexed conversation matches all zero ids
        # (⋂ over ∅ = the universe of convs with any non-negated mention);
        # aggs={} crashed the exchange's pandas agg()
        import pyarrow.compute as _pc

        from ..stages.shuffle import two_phase_groupby as _tpg

        def conv_only(b: pa.Table) -> pa.Table:
            b = b.filter(_pc.invert(b.column("negated")))
            return b.select(["conv_id"])

        return _tpg(
            annotations_ds.map_batches(conv_only, batch_format="pyarrow"),
            keys=["conv_id"],
            aggs={"n": (None, "size", "sum")},
        ).map_batches(lambda t: t.select(["conv_id"]), batch_format="pyarrow")

    flags_schema = pa.schema([("conv_id", pa.string())] +
                             [(f"f{i}", pa.int64())
                              for i in range(len(wanted))])

    def flags(b: pa.Table) -> pa.Table:
        b = b.filter(pc.invert(b.column("negated")))
        df = b.select(["conv_id", "hpo_id"]).to_pandas()
        if not len(df):  # all-negated block: keep the schema typed
            return flags_schema.empty_table()
        for i, h in enumerate(wanted):
            df[f"f{i}"] = (df["hpo_id"] == h).astype("int64")
        return from_pandas_clean(df.drop(columns=["hpo_id"])).cast(flags_schema)

    aggs = {f"f{i}": (f"f{i}", "max", "max") for i in range(len(wanted))}
    per_conv = two_phase_groupby(
        annotations_ds.map_batches(flags, batch_format="pyarrow"),
        keys=["conv_id"],
        aggs=aggs,
    )

    out_schema = pa.schema([("conv_id", pa.string())])

    def keep_all(df: pd.DataFrame) -> pa.Table:
        mask = pd.Series(True, index=df.index)
        for i in range(len(wanted)):
            mask &= df[f"f{i}"] == 1
        kept = df.loc[mask, ["conv_id"]]
        if not len(kept):
            # an all-filtered bucket must stay TYPED (the documented
            # empty-block footgun this file already guards twice)
            return out_schema.empty_table()
        return from_pandas_clean(kept).cast(out_schema)

    return per_conv.map_batches(keep_all, batch_format="pandas")


def search_convs_with_any(annotations_ds, hpo_ids: list[str]):
    """Distributed OR-probe (gene_reviews_search_engine.py:40-43's union
    branch, without collecting the index): conversations containing AT
    LEAST ONE id in ``hpo_ids`` — a dedup exchange over the pre-filtered
    mention stream (no per-conv flag columns needed: membership in the
    wanted set is the filter itself)."""
    import pyarrow.compute as pc

    from ..stages.shuffle import two_phase_groupby

    out_schema = pa.schema([("conv_id", pa.string())])
    wanted = list(hpo_ids)
    if not wanted:
        # vacuous OR: ⋃ over ∅ = no conversation matches
        import ray as _ray

        return _ray.data.from_arrow(out_schema.empty_table())

    def hits(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(
            pc.invert(b.column("negated")),
            pc.is_in(b.column("hpo_id"), value_set=pa.array(wanted)),
        ))
        return b.select(["conv_id"])

    return two_phase_groupby(
        annotations_ds.map_batches(hits, batch_format="pyarrow"),
        keys=["conv_id"],
        aggs={"n": (None, "size", "sum")},
    ).map_batches(lambda t: t.select(["conv_id"]), batch_format="pyarrow")
