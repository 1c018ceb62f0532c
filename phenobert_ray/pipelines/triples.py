"""Graph materialize: annotations → (subj, pred, obj) triples.

Two triple families (SURVEY.md §1.2, FIXTURES.md §4):
- ``has_phenotype``: one triple per distinct ``(conv_id, hpo_id)`` —
  the per-conversation dedup of the north rule (set semantics of the
  reference's per-doc HPO sets, eval_all.py:90-118).
- ``is_a``: the ontology's direct child→parent edges (broadcast-side, tiny).

Scale notes: the ``(conv_id, hpo_id)`` dedup is exchange-free.  A per-block
distinct set is a mergeable summary, so an Arrow ``group_by`` combiner
fused into the annotate operator collapses each block (a hot term in most
turns of a conversation becomes one row per block), and one Arrow
``group_by`` over a single ``repartition(1)`` block merges the partials.
The KG job (``pipelines.annotate.run_kg_job``) keys the combiner on the
input fragment too (a ``path`` column), keeps one merged partial per
fragment, and merges those once on the driver, so the job's distinct
pairs — ~11.5k rows per 20k-turn kg_chat job — are what the driver holds.
The co-occurrence and IC operators below still use the bucketed
``two_phase_groupby`` exchange.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..assets.hpo_dag import HpoDag
from ..config import PipelineConfig

_NANO = 1_000_000_000

# per-worker memo: integer k -> floor(ln(k)*1e9 + 0.5); a corpus has few
# DISTINCT count values, so this stays tiny
_LN_NANO: dict[int, int] = {}


def _ln_nano_arr(ks: np.ndarray) -> np.ndarray:
    """ln in nanounits for an int array, one math.log per DISTINCT value.

    Every argument is an exact integer and each term is quantized to
    floor(ln(k)·1e9 + 0.5) — DuckDB's round() for positives — so int64
    sums of these terms are hash-identical to the SQL oracles regardless
    of summation order."""
    uniq, inv = np.unique(ks, return_inverse=True)
    vals = np.empty(len(uniq), dtype=np.int64)
    for j, k in enumerate(uniq):
        k = int(k)
        v = _LN_NANO.get(k)
        if v is None:
            v = math.floor(math.log(k) * _NANO + 0.5)
            if len(_LN_NANO) < 1_000_000:
                _LN_NANO[k] = v
        vals[j] = v
    return vals[inv]

TRIPLES_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("score", pa.float32()),
        ("n_mentions", pa.int64()),
    ]
)

_PAIR = ["conv_id", "hpo_id"]

# one row per (conv_id, hpo_id): the per-block partials, the per-fragment
# partials and the merged pairs share it (rows read with include_paths
# carry a trailing ``path`` key column until the KG job splits them)
DEDUP_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("hpo_id", pa.string()),
        ("first_turn", pa.int32()),
        ("max_score", pa.float32()),
        ("n_mentions", pa.int64()),
    ]
)


def _pair_table(g: pa.Table, first: str, top: str, count: str) -> pa.Table:
    """An Arrow ``group_by`` result under DEDUP_SCHEMA's names, plus the
    ``path`` key when the rows carry one."""
    t = pa.Table.from_arrays(
        [g[c] for c in (*_PAIR, first, top, count)], schema=DEDUP_SCHEMA)
    return t.append_column("path", g["path"]) if "path" in g.column_names else t


def _keys(batch: pa.Table) -> list[str]:
    # rows read with include_paths=True are deduped per input fragment
    return ["path", *_PAIR] if "path" in batch.column_names else _PAIR


def _conv_hpo_partial(batch: pa.Table, drop_negated: bool = True) -> pa.Table:
    """Per-block combiner: ≤ one row per (conv_id, hpo_id) of the block —
    per (path, conv_id, hpo_id) when the block carries a ``path`` column.
    Single-threaded ``group_by`` keeps first-seen key order, so a block's
    output does not depend on Arrow's thread pool."""
    if drop_negated:
        batch = batch.filter(pc.invert(batch["negated"]))
    g = batch.group_by(_keys(batch), use_threads=False).aggregate(
        [("turn_idx", "min"), ("score", "max"), ([], "count_all")])
    return _pair_table(g, "turn_idx_min", "score_max", "count_all")


def _conv_hpo_merge(batch: pa.Table) -> pa.Table:
    """Merge of the partials: min of mins, max of maxes, sum of counts
    (per ``path`` too, when the partials carry one)."""
    g = batch.group_by(_keys(batch), use_threads=False).aggregate(
        [("first_turn", "min"), ("max_score", "max"), ("n_mentions", "sum")])
    return _pair_table(g, "first_turn_min", "max_score_max", "n_mentions_sum")


def gather_partials(annotations_ds, drop_negated: bool):
    """The per-block partials of ``annotations_ds``, gathered into one block.

    The combiner is a ``map_batches`` with default remote args, so Ray
    fuses it into the annotate operator and each block leaves that task
    already collapsed; ``repartition(1)`` then moves only partials.  The
    gather also keeps the annotate operator under Ray Data's per-operator
    CPU reservation (without it, the dictionary path spreads over every
    CPU at +25% peak RSS)."""
    return annotations_ds.map_batches(
        _conv_hpo_partial, batch_format="pyarrow",
        fn_kwargs={"drop_negated": drop_negated},
    ).repartition(1)


def dedup_conv_hpo(annotations_ds, drop_negated: bool = True):
    """annotations → one row per (conv_id, hpo_id): min turn_idx, max score,
    total mention count (DEDUP_SCHEMA), lazily.

    Exchange-free: a per-block Arrow ``group_by`` combiner fused into the
    annotate operator, then one Arrow ``group_by`` over the gathered
    partials — no bucketed shuffle, no pandas.

    Memory contract: the merge holds the distinct pairs of the whole input
    in one block (~11.5k rows per 20k kg_chat turns).
    A zero-row input yields a typed zero-row result."""
    from ..stages.shuffle import typed_result

    merged = gather_partials(annotations_ds, drop_negated).map_batches(
        _conv_hpo_merge, batch_format="pyarrow", batch_size=None)
    return typed_result(merged, DEDUP_SCHEMA)


def _to_triples(b: pa.Table) -> pa.Table:
    """Deduped pairs → TRIPLES_SCHEMA rows; ``subj`` is
    ``conv_id:first_turn``."""
    subj = pc.binary_join_element_wise(
        b["conv_id"], pc.cast(b["first_turn"], pa.string()), ":")
    return pa.Table.from_arrays(
        [subj, pa.repeat("has_phenotype", b.num_rows), b["hpo_id"],
         b["max_score"], b["n_mentions"]],
        schema=TRIPLES_SCHEMA,
    )


def _merge_to_triples(b: pa.Table) -> pa.Table:
    return _to_triples(_conv_hpo_merge(b))


def has_phenotype_triples(annotations_ds, cfg: PipelineConfig | None = None):
    """annotations → ``has_phenotype`` triples (TRIPLES_SCHEMA), one per
    distinct (conv_id, hpo_id), lazily: the :func:`dedup_conv_hpo` plan
    with the triple build in the merge task.  Same memory contract;
    ``cfg.triples_drop_negated`` keeps negated mentions out.

    Unlike :func:`dedup_conv_hpo`, no typed empty block is appended: a
    zero-row result comes back column-less (Ray skips ``map_batches`` on
    empty blocks); the append would cost an extra union operator (35-100
    ms measured per execution)."""
    cfg = cfg or PipelineConfig()
    return gather_partials(annotations_ds, cfg.triples_drop_negated).map_batches(
        _merge_to_triples, batch_format="pyarrow", batch_size=None)


def _distinct_conv_hpo_per_block(b: pa.Table) -> pa.Table:
    """Per-block distinct non-negated (conv_id, hpo_id) combiner — runs
    BEFORE the conv exchange so a hot conversation's million mentions
    move as ≤ |phenotype vocab| rows per block.  Shared by
    cooccurrence_edges and cooccurrence_pmi (a fix here must reach
    both)."""
    df = b.to_pandas()
    df = df[~df["negated"]][["conv_id", "hpo_id"]].drop_duplicates()
    if not len(df):
        # all-negated block: an empty pandas frame would infer Arrow
        # null columns — the documented mixed-schema footgun
        return pa.schema([("conv_id", pa.string()),
                          ("hpo_id", pa.string())]).empty_table()
    return pa.Table.from_pandas(
        df, preserve_index=False).replace_schema_metadata(None)


def _conv_bucketizer(n_buckets: int):
    """hash(conv_id) % n_buckets tagger.  The modulus MUST be snapshotted
    once on the driver and captured here: computing it from
    ray.cluster_resources() inside the worker would let batches observe
    different CPU counts mid-job (autoscaling / node loss), splitting one
    conversation across buckets — cross-bucket pairs silently lost."""
    def conv_bucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["bucket"] = (
            pd.util.hash_pandas_object(df["conv_id"], index=False).to_numpy()
            % n_buckets
        ).astype("int64")
        return pa.Table.from_pandas(
            df, preserve_index=False).replace_schema_metadata(None)
    return conv_bucket


def _expand_conv_pairs(df: pd.DataFrame) -> tuple[list, list]:
    """Per-conv unordered pair expansion over an already-deduped,
    (conv_id, hpo_id)-sorted frame: C(k, 2) rows for a k-phenotype
    conversation, bounded by the per-conv vocabulary.  The inner loop is
    per CONV, not per Ray group task (the map_groups-per-key trap
    measured in --events-scale)."""
    out_a: list = []
    out_b: list = []
    for _, hs in df.groupby("conv_id", sort=False)["hpo_id"]:
        v = hs.to_numpy()
        k = len(v)
        for i in range(k - 1):
            out_a.extend([v[i]] * (k - 1 - i))
            out_b.extend(v[i + 1:])
    return out_a, out_b


def cooccurrence_edges(annotations_ds, cfg: PipelineConfig | None = None):
    """(hpo_a, hpo_b, n_convs) — the co-mention graph: an undirected edge
    per unordered pair of distinct phenotypes observed together in at least
    one conversation (non-negated), weighted by how many conversations
    co-mention them.  The KG-enrichment operator behind comorbidity-style
    edges.

    Two exchanges: (1) a per-block distinct-(conv, hpo) combiner collapses
    repeated mentions BEFORE the groupby(conv_id) exchange, so a hot
    conversation's million mentions move as ≤ |phenotype vocab| rows per
    block; (2) per-conv pair expansion emits C(k, 2) rows for a k-phenotype
    conversation — bounded by the per-conv vocabulary, never corpus size —
    into a two-phase pair-count exchange (its own combiner collapses
    repeated pairs per block)."""
    from ..stages.shuffle import default_num_buckets, two_phase_groupby

    n_buckets = default_num_buckets()

    def pairs(df: pd.DataFrame) -> pa.Table:
        # ONE call per BUCKET of conversations; dedup once, then expand
        # each conv's sorted phenotype list (shared kernel)
        df = (df[["conv_id", "hpo_id"]].drop_duplicates()
              .sort_values(["conv_id", "hpo_id"]))
        out_a, out_b = _expand_conv_pairs(df)
        # explicit Arrow schema: single-phenotype convs emit 0 rows and an
        # empty pandas frame would lose the column types
        return pa.table(
            {
                "hpo_a": pa.array(out_a, pa.string()),
                "hpo_b": pa.array(out_b, pa.string()),
            }
        )

    per_conv = (
        annotations_ds
        .map_batches(_distinct_conv_hpo_per_block, batch_format="pyarrow")
        .map_batches(_conv_bucketizer(n_buckets), batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
    )
    return two_phase_groupby(
        per_conv,
        keys=["hpo_a", "hpo_b"],
        aggs={"n_convs": (None, "size", "sum")},
    )


def cooccurrence_pmi(annotations_ds, cfg: PipelineConfig | None = None):
    """(hpo_a, hpo_b, n_convs, pmi_nano) — PMI-weighted co-occurrence
    edges, the standard KG edge-quality score:

        pmi = ln( P(a,b) / (P(a)·P(b)) )
            = ln n_ab + ln N − ln n_a − ln n_b

    over conversation-level phenotype sets (N = conversations with ≥1
    non-negated mention).  Every ln argument is an EXACT integer, so the
    nanounit convention of :func:`_ln_nano_arr` makes the score
    hash-identical to SQL: each term is floor(ln(k)·1e9 + 0.5) computed
    per distinct count, summed as int64.

    Scale shape: ONE annotate pass feeds one hash(conv) exchange whose
    per-bucket fold emits a tagged union — pair partials (kind 0),
    per-phenotype conv-count partials (kind 1) and a distinct-conv count
    partial (kind 2); conv-hash bucketing makes every partial exact under
    summation.  Node counts and N are bounded by the ONTOLOGY (≈16k HPO
    terms), so they reduce in-cluster and broadcast back to the edge
    stream — never a join.

    The tagged stream is materialized (three consumers, annotate runs
    once) — safe at ANY corpus size because the per-bucket fold has
    already aggregated: ≤ |vocab|² pair rows + |vocab| node rows + 1
    conv-count row per bucket, i.e. vocabulary-bounded, never
    row-proportional."""
    from ..stages.shuffle import default_num_buckets, two_phase_groupby

    n_buckets = default_num_buckets()
    mid_schema = pa.schema([
        ("hpo_a", pa.string()), ("hpo_b", pa.string()),
        ("n", pa.int64()), ("kind", pa.int64()),
    ])

    def fold(df: pd.DataFrame) -> pa.Table:
        if df.empty or "conv_id" not in df.columns:
            return mid_schema.empty_table()
        df = (df[["conv_id", "hpo_id"]].drop_duplicates()
              .sort_values(["conv_id", "hpo_id"]))
        out_a, out_b = _expand_conv_pairs(df)
        pairs = pd.DataFrame({"hpo_a": out_a, "hpo_b": out_b})
        pairs = pairs.groupby(["hpo_a", "hpo_b"], as_index=False).size()
        node = df.groupby("hpo_id", as_index=False).size()
        parts = [
            pd.DataFrame({"hpo_a": pairs["hpo_a"], "hpo_b": pairs["hpo_b"],
                          "n": pairs["size"].astype("int64"),
                          "kind": np.int64(0)}),
            pd.DataFrame({"hpo_a": node["hpo_id"], "hpo_b": "",
                          "n": node["size"].astype("int64"),
                          "kind": np.int64(1)}),
            pd.DataFrame({"hpo_a": [""], "hpo_b": [""],
                          "n": np.asarray([df["conv_id"].nunique()],
                                          dtype=np.int64),
                          "kind": np.int64(2)}),
        ]
        from ..stages.shuffle import from_pandas_clean

        return from_pandas_clean(
            pd.concat(parts, ignore_index=True)).cast(mid_schema)

    mid = (
        annotations_ds
        .map_batches(_distinct_conv_hpo_per_block, batch_format="pyarrow")
        .map_batches(_conv_bucketizer(n_buckets), batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fold, batch_format="pandas")
    ).materialize()  # consumed three ways below; annotate runs ONCE

    def by_kind(k: int):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("kind"), k))
        return f

    # node counts + N: bounded by the ontology (≤ ~16k rows) — the
    # documented O(bounded) driver fetch, like the scatter matrices
    nodes = two_phase_groupby(
        mid.map_batches(by_kind(1), batch_format="pyarrow"),
        keys=["hpo_a"], aggs={"n": ("n", "sum", "sum")},
    ).take_all()
    node_n = {r["hpo_a"]: int(r["n"]) for r in nodes}
    total_n = sum(
        int(r["n"])
        for r in mid.map_batches(by_kind(2), batch_format="pyarrow")
        .select_columns(["n"]).take_all()
    )
    node_ref = ray.put(node_n)

    edges = two_phase_groupby(
        mid.map_batches(by_kind(0), batch_format="pyarrow"),
        keys=["hpo_a", "hpo_b"],
        aggs={"n_convs": ("n", "sum", "sum")},
    )

    out_schema = pa.schema([
        ("hpo_a", pa.string()), ("hpo_b", pa.string()),
        ("n_convs", pa.int64()), ("pmi_nano", pa.int64()),
    ])

    def score(b: pa.Table) -> pa.Table:
        nn = ray.get(node_ref)
        df = b.to_pandas()
        n_ab = df["n_convs"].to_numpy(dtype=np.int64)
        n_a = df["hpo_a"].map(nn).to_numpy(dtype=np.int64)
        n_b = df["hpo_b"].map(nn).to_numpy(dtype=np.int64)
        ln_n = _ln_nano_arr(np.asarray([max(total_n, 1)], dtype=np.int64))[0]
        df["pmi_nano"] = (_ln_nano_arr(n_ab) + ln_n
                          - _ln_nano_arr(n_a) - _ln_nano_arr(n_b))
        from ..stages.shuffle import from_pandas_clean

        return from_pandas_clean(
            df[["hpo_a", "hpo_b", "n_convs", "pmi_nano"]]).cast(out_schema)

    from ..stages.shuffle import typed_result

    return typed_result(
        edges.map_batches(score, batch_format="pyarrow"), out_schema)


def hpo_information_content(annotations_ds, dag: HpoDag,
                            cfg: PipelineConfig | None = None):
    """(hpo_id, n_convs, ic_nano) — corpus information content per
    ontology node: ic = ln N − ln n_convs(h), where n_convs(h) is the
    DAG-rollup conversation count (self or any descendant mentioned) and
    N is the corpus conversation total.  IC is the Resnik similarity /
    IC-weighting building block every phenotype KG ranks with.

    N is taken as max(n_convs) over the rollup — identically in SQL —
    which equals the distinct-conversation total because every
    conversation's mentions roll up into the abnormality root.  Both
    engines quantize each ln term to integer nanos (:func:`_ln_nano_arr`)
    so the score is summation- and platform-order-proof.

    Scale shape: ancestor_rollup's two bounded exchanges run ONCE
    (materialized — output ≤ |ontology| rows), the max is an in-cluster
    aggregate, and scoring is a pure map with one broadcast scalar."""
    from ..stages.shuffle import from_pandas_clean, typed_result

    out_schema = pa.schema([
        ("hpo_id", pa.string()), ("n_convs", pa.int64()),
        ("ic_nano", pa.int64()),
    ])
    rollup = ancestor_rollup(annotations_ds, dag, cfg).materialize()
    if rollup.count() == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    n_tot = int(rollup.max("n_convs"))

    def score(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        n = df["n_convs"].to_numpy(dtype=np.int64)
        ln_tot = _ln_nano_arr(np.asarray([n_tot], dtype=np.int64))[0]
        df["ic_nano"] = ln_tot - _ln_nano_arr(n)
        return from_pandas_clean(
            df[["hpo_id", "n_convs", "ic_nano"]]).cast(out_schema)

    return typed_result(
        rollup.map_batches(score, batch_format="pyarrow"), out_schema)


def ancestor_rollup(annotations_ds, dag: HpoDag, cfg: PipelineConfig | None = None):
    """(hpo_id, n_convs) for EVERY ontology node: how many conversations
    mention the phenotype or any of its descendants — the DAG rollup every
    phenotype KG needs (term frequencies at internal nodes, IC weighting,
    per-subtree corpus stats).

    Scale shape: the ancestor closure is a property of the ONTOLOGY
    (bounded, ~16k HPO nodes × mean depth ≲ 10), broadcast once via
    ``ray.put`` — never a join against a closure table.  Per block:
    distinct-(conv, hpo) combiner → vectorized ``explode`` to
    (conv, ancestor) — fan-out bounded by ontology depth, collapsed by a
    second per-block dedup — then two bucketed exchanges (distinct pairs,
    then per-node conv counts).  A hot phenotype's rollup row is a count
    accumulated combiner-first; no node ever needs its conv list in one
    place."""
    from ..stages.shuffle import from_pandas_clean, two_phase_groupby

    anc_map = {
        h: sorted((dag.ancestors.get(h, set()) & dag.abnormality) | {h})
        for h in dag.abnormality
    }
    ref = ray.put(anc_map)

    def expand(b: pa.Table) -> pa.Table:
        amap = ray.get(ref)
        df = b.to_pandas()
        df = df[~df["negated"]][["conv_id", "hpo_id"]].drop_duplicates()
        out = (
            df.assign(anc=df["hpo_id"].map(lambda h: amap.get(h, [h])))
            .explode("anc")[["conv_id", "anc"]]
            .drop_duplicates()
            .rename(columns={"anc": "hpo_id"})
        )
        if out.empty:
            return pa.table(
                {"conv_id": pa.array([], pa.string()),
                 "hpo_id": pa.array([], pa.string())}
            )
        return from_pandas_clean(out)

    pairs = annotations_ds.map_batches(expand, batch_format="pyarrow")
    distinct = two_phase_groupby(
        pairs, keys=["conv_id", "hpo_id"], aggs={"n": (None, "size", "sum")}
    )
    return two_phase_groupby(
        distinct, keys=["hpo_id"], aggs={"n_convs": (None, "size", "sum")}
    ).map_batches(
        lambda t: t.select(["hpo_id", "n_convs"]), batch_format="pyarrow"
    )


def is_a_table(dag: HpoDag) -> pa.Table:
    """Ontology edges as a ``TRIPLES_SCHEMA`` table, built driver-side."""
    edges = dag.is_a_edges()
    return pa.Table.from_arrays(
        [
            pa.array([c for c, _ in edges], pa.string()),
            pa.array(["is_a"] * len(edges), pa.string()),
            pa.array([p for _, p in edges], pa.string()),
            pa.array([1.0] * len(edges), pa.float32()),
            pa.array([1] * len(edges), pa.int64()),
        ],
        schema=TRIPLES_SCHEMA,
    )


def is_a_triples(dag: HpoDag):
    """Ontology edges as a Dataset (for ``union`` with has_phenotype)."""
    return ray.data.from_arrow(is_a_table(dag))


def write_is_a(dag: HpoDag, out_dir: str) -> None:
    """Write the is_a table as one parquet file under ``out_dir`` with a
    single pyarrow write: the table is already on the driver, so a Ray
    Data write would only add a full execution around the same bytes."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(is_a_table(dag), os.path.join(out_dir, "is_a.parquet"))


def materialize_triples(annotations_ds, dag: HpoDag, cfg: PipelineConfig | None = None):
    """Full KG: has_phenotype ∪ is_a, as one Dataset.

    NOTE: ``union`` breaks streaming execution in Ray Data (the big side
    gets materialized / re-executed) — use this only where a single Dataset
    result is required (driver correctness queries).  The KG writer
    (``pipelines.annotate.run_kg_job``) writes the two families separately
    instead."""
    return has_phenotype_triples(annotations_ds, cfg).union(is_a_triples(dag))
