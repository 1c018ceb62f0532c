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
``group_by`` merges the partials in the one block that
``stages.shuffle.in_one_block`` gathers them into.
The KG job (``pipelines.annotate.run_kg_job``) keys the combiner on the
input fragment too (a ``path`` column) and has no gather: it streams the
fused operator's partial blocks (one per annotate slot) to the driver,
keeps one merged partial per fragment, and merges those once there, so
the job's distinct pairs — ~11.5k rows per 20k-turn kg_chat job — are
what the driver holds.

The phenotype analytics below (co-occurrence, PMI, DAG rollup, IC; and
``sources.inverted_index``) run on the pair table of
:func:`on_pair_table`: the same combiner → one-block gather → merge
plan, keyed on (conv_id, hpo_id) only, with the analytic computed by Arrow
``group_by`` / ``take`` / ``list_flatten`` and numpy in the merge task.
One memory contract covers them all: the distinct pairs of the input fit
in one block.
"""

from __future__ import annotations

import math

import numpy as np
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


def conv_hpo_partials(annotations_ds, drop_negated: bool):
    """The per-block partials of ``annotations_ds`` (DEDUP_SCHEMA, plus
    ``path`` when the rows carry it), one per block, lazily.

    The combiner is a ``map_batches`` with default remote args, so Ray
    fuses it into the read+annotate operator and each block leaves that
    task already collapsed.  ``run_kg_job`` streams these blocks straight
    into its driver-side merge."""
    return annotations_ds.map_batches(
        _conv_hpo_partial, batch_format="pyarrow",
        fn_kwargs={"drop_negated": drop_negated})


def dedup_conv_hpo(annotations_ds, drop_negated: bool = True):
    """annotations → one row per (conv_id, hpo_id): min turn_idx, max score,
    total mention count (DEDUP_SCHEMA), lazily.

    Exchange-free: a per-block Arrow ``group_by`` combiner fused into the
    annotate operator, then one Arrow ``group_by`` over the gathered
    partials — no bucketed shuffle, no pandas.

    Memory contract: the merge holds the distinct pairs of the whole input
    in one block (~11.5k rows per 20k kg_chat turns).
    The result is one block, typed even with zero rows."""
    from ..stages.shuffle import in_one_block

    return in_one_block(conv_hpo_partials(annotations_ds, drop_negated),
                        DEDUP_SCHEMA, _conv_hpo_merge, DEDUP_SCHEMA)


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
    with the triple build in the merge task.  Same memory contract, and
    the same one typed block, even with zero rows;
    ``cfg.triples_drop_negated`` keeps negated mentions out."""
    from ..stages.shuffle import in_one_block

    cfg = cfg or PipelineConfig()
    return in_one_block(conv_hpo_partials(annotations_ds, cfg.triples_drop_negated),
                        DEDUP_SCHEMA, _merge_to_triples, TRIPLES_SCHEMA)


PAIR_SCHEMA = pa.schema([("conv_id", pa.string()), ("hpo_id", pa.string())])


def _distinct_pairs(batch: pa.Table, drop_negated: bool = True) -> pa.Table:
    """Pair-table combiner: the distinct (conv_id, hpo_id) of a block,
    non-negated mentions only when ``drop_negated``.  It reads only
    ``conv_id``, ``hpo_id`` and ``negated``, so a bare three-column
    annotation table qualifies."""
    if drop_negated:
        batch = batch.filter(pc.invert(batch["negated"]))
    return batch.group_by(_PAIR, use_threads=False).aggregate([]).cast(
        PAIR_SCHEMA)


def _sorted_pairs_then(batch: pa.Table, fn, **kwargs) -> pa.Table:
    pairs = _distinct_pairs(batch, drop_negated=False)
    return fn(pairs.sort_by([("conv_id", "ascending"), ("hpo_id", "ascending")]),
              **kwargs)


def on_pair_table(annotations_ds, fn, schema: pa.Schema,
                  drop_negated: bool = True, **kwargs):
    """``fn(pairs, **kwargs)`` over the pair table of ``annotations_ds``:
    its distinct (conv_id, hpo_id) rows (non-negated ones when
    ``drop_negated``) as one Arrow table sorted by (conv_id, hpo_id), the
    key set of :func:`dedup_conv_hpo`.  Same plan shape as that dedup: a
    per-block distinct combiner fused into the upstream operator, the
    one-block gather, one merge task that also runs ``fn``; no shuffle,
    no pandas.  The result is cast to ``schema`` and typed when empty.

    Memory contract (the one :func:`dedup_conv_hpo` states): the distinct
    pairs of the input fit in one block."""
    from ..stages.shuffle import in_one_block

    partials = annotations_ds.map_batches(
        _distinct_pairs, batch_format="pyarrow",
        fn_kwargs={"drop_negated": drop_negated})
    return in_one_block(partials, PAIR_SCHEMA, _sorted_pairs_then, schema,
                        fn=fn, **kwargs)


def _as_is(pairs: pa.Table) -> pa.Table:
    return pairs


def conv_hpo_pairs(annotations_ds, drop_negated: bool = True):
    """The pair table itself (PAIR_SCHEMA), lazily: see
    :func:`on_pair_table`."""
    return on_pair_table(annotations_ds, _as_is, PAIR_SCHEMA, drop_negated)


def run_starts(v: np.ndarray) -> np.ndarray:
    """True where a run of equal values of a sorted array starts."""
    starts = np.ones(len(v), dtype=bool)
    starts[1:] = v[1:] != v[:-1]
    return starts


def run_pairs(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index pairs (i, j), i < j, inside every run of a sorted array
    whose runs begin where ``starts`` is True: C(k, 2) pairs for a run of
    k rows, built without a Python loop."""
    n = len(starts)
    pos = np.arange(n)
    run_id = np.cumsum(starts) - 1
    run_end = (np.flatnonzero(starts) + np.bincount(run_id))[run_id]
    fan = run_end - pos - 1                  # partners after row i in its run
    left = np.repeat(pos, fan)
    first = np.cumsum(fan) - fan             # where row i's partners begin
    right = left + 1 + (np.arange(len(left)) - np.repeat(first, fan))
    return left, right


def vocab_codes(*cols) -> tuple[pa.Array, list[np.ndarray]]:
    """Sorted distinct values of ``cols`` and each column's codes into
    them; code order is value order."""
    vocab = pc.unique(pa.chunked_array(
        [c for col in cols for c in col.chunks], type=pa.string()))
    vocab = vocab.take(pc.sort_indices(vocab))
    return vocab, [pc.index_in(c, value_set=vocab).to_numpy().astype(np.int64)
                   for c in cols]


def _pair_counts(pairs: pa.Table):
    """(vocab, a, b, n_ab, n_node, n_convs): every unordered pair of
    distinct phenotypes co-mentioned in a conversation, as codes a < b
    into ``vocab`` with its conversation count, plus each phenotype's
    conversation count and the conversation total.  The pairs are the
    C(k, 2) self-expansion of each conversation's sorted run."""
    vocab, (code,) = vocab_codes(pairs["hpo_id"])
    starts = run_starts(pairs["conv_id"].to_numpy())
    i, j = run_pairs(starts)
    width = len(vocab)
    key, n_ab = np.unique(code[i] * width + code[j], return_counts=True)
    n_node = np.bincount(code, minlength=len(vocab))
    return vocab, key // width, key % width, n_ab, n_node, int(starts.sum())


EDGE_SCHEMA = pa.schema([("hpo_a", pa.string()), ("hpo_b", pa.string()),
                         ("n_convs", pa.int64())])
PMI_SCHEMA = EDGE_SCHEMA.append(pa.field("pmi_nano", pa.int64()))


def _edges(pairs: pa.Table) -> pa.Table:
    vocab, a, b, n_ab, _, _ = _pair_counts(pairs)
    return pa.Table.from_arrays(
        [vocab.take(a), vocab.take(b), pa.array(n_ab, pa.int64())],
        schema=EDGE_SCHEMA)


def _pmi(pairs: pa.Table) -> pa.Table:
    vocab, a, b, n_ab, n_node, n_convs = _pair_counts(pairs)
    ln_n = _ln_nano_arr(np.asarray([max(n_convs, 1)], dtype=np.int64))[0]
    pmi = (_ln_nano_arr(n_ab) + ln_n
           - _ln_nano_arr(n_node[a]) - _ln_nano_arr(n_node[b]))
    return pa.Table.from_arrays(
        [vocab.take(a), vocab.take(b), pa.array(n_ab, pa.int64()),
         pa.array(pmi, pa.int64())], schema=PMI_SCHEMA)


def cooccurrence_edges(annotations_ds, cfg: PipelineConfig | None = None):
    """(hpo_a, hpo_b, n_convs) — the co-mention graph: an undirected edge
    per unordered pair of distinct phenotypes observed together in at least
    one conversation (non-negated), weighted by how many conversations
    co-mention them.  The KG-enrichment operator behind comorbidity-style
    edges.

    One task over the pair table (:func:`on_pair_table`): each
    conversation's sorted phenotype run expands to its C(k, 2) pairs as
    index arithmetic, and one ``np.unique`` counts them.  Same memory
    contract: the distinct pairs fit in one block."""
    return on_pair_table(annotations_ds, _edges, EDGE_SCHEMA)


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

    The pair counts, the per-phenotype counts and N all come from the one
    pair table in the one task of :func:`cooccurrence_edges`; same memory
    contract."""
    return on_pair_table(annotations_ds, _pmi, PMI_SCHEMA)


ROLLUP_SCHEMA = pa.schema([("hpo_id", pa.string()), ("n_convs", pa.int64())])
IC_SCHEMA = ROLLUP_SCHEMA.append(pa.field("ic_nano", pa.int64()))


def _rollup(pairs: pa.Table, anc_map: dict) -> pa.Table:
    """Per node, the conversations that mention it or a descendant: each
    pair's ancestor list (``take`` by phenotype), flattened to
    (conv_id, ancestor) rows, made distinct, counted per node."""
    vocab = pc.unique(pairs["hpo_id"])
    lists = pa.array([anc_map.get(h, [h]) for h in vocab.to_pylist()],
                     pa.list_(pa.string()))
    per_row = lists.take(pc.index_in(pairs["hpo_id"], value_set=vocab))
    hits = pa.table({
        "conv_id": pairs["conv_id"].take(pc.list_parent_indices(per_row)),
        "hpo_id": pc.list_flatten(per_row),
    }).group_by(_PAIR, use_threads=False).aggregate([])
    g = hits.group_by("hpo_id", use_threads=False).aggregate(
        [([], "count_all")])
    return pa.Table.from_arrays([g["hpo_id"], g["count_all"]],
                                schema=ROLLUP_SCHEMA)


def _ic(pairs: pa.Table, anc_map: dict) -> pa.Table:
    roll = _rollup(pairs, anc_map)
    n = roll["n_convs"].to_numpy()
    ln_tot = _ln_nano_arr(n.max(keepdims=True))[0]
    return roll.append_column(
        "ic_nano", pa.array(ln_tot - _ln_nano_arr(n), pa.int64()))


def _ancestor_map(dag: HpoDag) -> dict[str, list[str]]:
    """Each abnormality node → itself and its abnormality ancestors; a
    phenotype outside the abnormality subtree rolls up to itself only."""
    return {h: sorted((dag.ancestors.get(h, set()) & dag.abnormality) | {h})
            for h in dag.abnormality}


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

    The :func:`ancestor_rollup` kernel and the scoring run in the same
    one task over the pair table; same memory contract."""
    return on_pair_table(annotations_ds, _ic, IC_SCHEMA,
                         anc_map=_ancestor_map(dag))


def ancestor_rollup(annotations_ds, dag: HpoDag, cfg: PipelineConfig | None = None):
    """(hpo_id, n_convs) for EVERY ontology node: how many conversations
    mention the phenotype or any of its descendants — the DAG rollup every
    phenotype KG needs (term frequencies at internal nodes, IC weighting,
    per-subtree corpus stats).

    The ancestor closure is a property of the ontology (~16k HPO nodes ×
    mean depth ≲ 10), built on the driver and shipped with the one task
    over the pair table (:func:`on_pair_table`): an ancestor-list
    ``take`` → ``list_flatten`` → distinct → ``group_by``.  Same memory
    contract: the distinct pairs, and their ancestor fan-out, fit in one
    block."""
    return on_pair_table(annotations_ds, _rollup, ROLLUP_SCHEMA,
                         anc_map=_ancestor_map(dag))


def is_a_table(dag: HpoDag) -> pa.Table:
    """Ontology edges as a ``TRIPLES_SCHEMA`` table, built driver-side once
    per ontology and cached on the dag keyed by its content fingerprint,
    like ``linker._kernel_index`` (a mutated dag must call
    ``refresh_fingerprint()`` to rebuild it)."""
    cached = getattr(dag, "_is_a", None)
    if cached is not None and cached[0] == dag.fingerprint:
        return cached[1]
    edges = dag.is_a_edges()
    table = pa.Table.from_arrays(
        [
            pa.array([c for c, _ in edges], pa.string()),
            pa.array(["is_a"] * len(edges), pa.string()),
            pa.array([p for _, p in edges], pa.string()),
            pa.array([1.0] * len(edges), pa.float32()),
            pa.array([1] * len(edges), pa.int64()),
        ],
        schema=TRIPLES_SCHEMA,
    )
    dag._is_a = (dag.fingerprint, table)
    return table


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
