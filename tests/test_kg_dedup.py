"""The exchange-free ``(conv_id, hpo_id)`` dedup of the KG path: an Arrow
``group_by`` combiner fused into the annotate operator, one Arrow
``group_by`` merge per fragment and one over the job.  Checked against a
plain-Python reference, across block layouts and annotate batch sizes, on
empty and all-negated input, and through ``run_kg_job``'s written shards."""

import logging
import os
from collections import defaultdict

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from phenobert_ray.config import PipelineConfig
from phenobert_ray.pipelines.annotate import run_kg_job
from phenobert_ray.pipelines.triples import (
    DEDUP_SCHEMA,
    TRIPLES_SCHEMA,
    _conv_hpo_partial,
    dedup_conv_hpo,
    has_phenotype_triples,
)
from phenobert_ray.stages.annotate import ANNOTATIONS_SCHEMA, annotate_turns
from phenobert_ray.state.manifest import read_manifests, read_partial_manifests
from phenobert_ray.state.sharded import shard_content_hash

TERMS = ["seizure", "scoliosis", "obesity", "nystagmus", "hypertelorism",
         "microcephaly"]


def _turns(n_hot: int = 240, n_convs: int = 40) -> pa.Table:
    """One hot conversation whose mentions repeat in most turns (every
    fifth turn negates its term), plus short conversations mixing plain
    and negated mentions of different terms."""
    conv, tidx, text = [], [], []
    for t in range(n_hot):
        term = TERMS[(t // 7) % len(TERMS)]
        conv.append("conv-hot")
        tidx.append(t)
        text.append(f"no {term} today." if t % 5 == 4
                    else f"patient shows {term} and seizure today.")
    for c in range(n_convs):
        for t in range(3):
            a, b = TERMS[(c + t) % len(TERMS)], TERMS[(2 * c + 1) % len(TERMS)]
            conv.append(f"conv-{c}")
            tidx.append(t)
            text.append(f"patient shows {a}. denies {b}.")
    return pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(tidx, pa.int32()),
        "text": pa.array(text, pa.string()),
    })


def _reference(rows: list[dict], drop_negated: bool) -> list[tuple]:
    """Plain-Python dedup: per (conv_id, hpo_id) the min turn_idx, the max
    score and the number of mentions."""
    acc: dict = defaultdict(lambda: [None, None, 0])
    for r in rows:
        if drop_negated and r["negated"]:
            continue
        a = acc[(r["conv_id"], r["hpo_id"])]
        a[0] = r["turn_idx"] if a[0] is None else min(a[0], r["turn_idx"])
        a[1] = r["score"] if a[1] is None else max(a[1], r["score"])
        a[2] += 1
    return sorted((c, h, t, s, n) for (c, h), (t, s, n) in acc.items())


def _rows(ds) -> list[tuple]:
    t = pa.concat_tables(ray.get(ds.to_arrow_refs()) or [DEDUP_SCHEMA.empty_table()])
    return sorted(zip(*(t.column(c).to_pylist() for c in DEDUP_SCHEMA.names)))


@pytest.fixture(scope="module")
def hot_turns():
    # the hot conversation's rows span many blocks, as in test_skew
    return ray.data.from_arrow(_turns()).repartition(16)


@pytest.mark.parametrize("drop_negated", [True, False])
def test_dedup_matches_reference_across_blocks(mini, hot_turns, drop_negated):
    ann = annotate_turns(hot_turns, mini).materialize()
    rows = ann.take_all()
    assert any(r["negated"] for r in rows) and not all(r["negated"] for r in rows)
    want = _reference(rows, drop_negated)
    got = dedup_conv_hpo(ann, drop_negated=drop_negated)
    assert got.schema().base_schema == DEDUP_SCHEMA
    assert _rows(got) == want
    hot = [r for r in want if r[0] == "conv-hot"]
    assert len(hot) == len(TERMS) and sum(r[4] for r in hot) > 240


@pytest.mark.parametrize("drop_negated", [True, False])
def test_dedup_identical_across_batch_sizes(mini, drop_negated):
    turns = ray.data.from_arrow(_turns(n_hot=60, n_convs=12)).repartition(4)
    outs = []
    for bs in (1, 32, 997):
        ann = annotate_turns(turns, mini, PipelineConfig(annotate_batch_size=bs))
        outs.append(_rows(dedup_conv_hpo(ann, drop_negated=drop_negated)))
    ref = _reference(annotate_turns(turns, mini).take_all(), drop_negated)
    assert outs[0] == outs[1] == outs[2] == ref


def _ann_table(rows: list[tuple]) -> pa.Table:
    cols = list(zip(*rows)) if rows else [[] for _ in ANNOTATIONS_SCHEMA]
    return pa.Table.from_arrays(
        [pa.array(c, f.type) for c, f in zip(cols, ANNOTATIONS_SCHEMA)],
        schema=ANNOTATIONS_SCHEMA)


def test_all_negated_block(mini):
    """A block whose every mention is negated combines to a typed empty
    partial, and the merge still sees the other blocks' rows."""
    neg = _ann_table([("c1", t, 0, 4, "x", "HP:0001250", 1.0, True)
                      for t in range(5)])
    part = _conv_hpo_partial(neg, drop_negated=True)
    assert part.num_rows == 0 and part.schema == DEDUP_SCHEMA
    pos = _ann_table([("c1", 3, 0, 4, "x", "HP:0001250", 0.5, False),
                      ("c2", 1, 0, 4, "x", "HP:0001250", 1.0, False)])
    ds = ray.data.from_arrow([neg, pos])
    rows = neg.to_pylist() + pos.to_pylist()
    for drop in (True, False):
        assert _rows(dedup_conv_hpo(ds, drop_negated=drop)) == _reference(rows, drop)
    only_neg = dedup_conv_hpo(ray.data.from_arrow(neg), drop_negated=True)
    assert only_neg.count() == 0
    assert only_neg.schema().base_schema == DEDUP_SCHEMA


def test_zero_rows_stay_typed(mini, tmp_path):
    """A zero-row input yields a typed zero-row dedup: Ray skips
    ``map_batches`` on empty blocks and would otherwise return a
    column-less dataset.  The sink writes a mention-free shard as an empty
    shard with a zero manifest."""
    empty = ray.data.from_arrow(ANNOTATIONS_SCHEMA.empty_table())
    d = dedup_conv_hpo(empty)
    assert d.count() == 0 and d.schema().base_schema == DEDUP_SCHEMA
    d = dedup_conv_hpo(annotate_turns(
        ray.data.from_arrow(_turns().slice(0, 0)), mini))
    assert d.count() == 0 and d.schema().base_schema == DEDUP_SCHEMA

    src = tmp_path / "quiet"
    src.mkdir()
    pq.write_table(pa.table({
        "conv_id": pa.array(["c0", "c0"], pa.string()),
        "turn_idx": pa.array([0, 1], pa.int32()),
        "text": pa.array(["hello there.", "nothing to report."], pa.string()),
    }), src / "part-0.parquet")
    out = str(tmp_path / "kg")
    stats = run_kg_job(str(src), out, mini, num_shards=1)
    assert stats["shards_run"] == 1 and stats["rows"] == 0
    assert [(m["row_count"], m["content_hash"]) for m in read_manifests(out)] \
        == [(0, "0" * 16)]


def test_triples_subj_and_types(mini, hot_turns):
    ann = annotate_turns(hot_turns, mini).materialize()
    pairs = {(c, h): (t, s, n) for c, h, t, s, n in _reference(ann.take_all(), True)}
    tri = pa.concat_tables(ray.get(has_phenotype_triples(ann).to_arrow_refs()))
    assert tri.schema == TRIPLES_SCHEMA and tri.num_rows == len(pairs)
    for r in tri.to_pylist():
        conv, turn = r["subj"].rsplit(":", 1)
        t, s, n = pairs[(conv, r["obj"])]
        assert (r["pred"], int(turn), r["score"], r["n_mentions"]) == (
            "has_phenotype", t, s, n)


# ------------------------------------------------------------- the KG sink


def _turns_dir(tmp_path, files: int = 5, n_convs: int = 30) -> str:
    """A fixed multi-fragment transcript parquet; conversations straddle
    fragments."""
    d = tmp_path / "turns"
    d.mkdir()
    t = _turns(n_hot=120, n_convs=n_convs)
    for k in range(files):
        pq.write_table(t.take(list(range(k, t.num_rows, files))),
                       d / f"part-{k}.parquet")
    return str(d)


# (row_count, content_hash) per shard manifest, then the same pair over all
# five triple columns, for num_shards 1 and 2.  The one-shard literal
# predates the per-fragment merge; the two-shard split by conversation hash
# is a partition of its rows (test_two_shard_pins_partition_one_shard).
SINK_PINS = {
    1: [((111, "0bfbee4d961f09cc"), (111, "158f5a886f62e06a"))],
    2: [((49, "163801e057fd8e1b"), (49, "5fe556311a74cfa2")),
        ((62, "f5c3ec6d3e217bb1"), (62, "b5aa045754ee10c8"))],
}


def _hash_sum(pins) -> tuple[int, str]:
    """Row counts and content hashes of shards, summed (mod 2^64)."""
    return (sum(n for n, _ in pins),
            f"{sum(int(h, 16) for _, h in pins) % (1 << 64):016x}")


def test_two_shard_pins_partition_one_shard():
    """The content hash is a sum of per-row hashes, so the shards of one
    job add up to the one-shard literal: same rows, no duplicates."""
    (one,) = SINK_PINS[1]
    for col in (0, 1):
        assert _hash_sum([p[col] for p in SINK_PINS[2]]) == one[col]


@pytest.mark.parametrize("num_shards", [1, 2])
def test_kg_job_output_pinned(mini, tmp_path, num_shards):
    """The rows run_kg_job writes, pinned as literals: the manifest's
    (row_count, content_hash) over (subj, pred, obj) and the same hash over
    every triple column, so score and n_mentions cannot drift either."""
    out = str(tmp_path / "kg")
    run_kg_job(_turns_dir(tmp_path), out, mini, num_shards=num_shards)
    got = [((m["row_count"], m["content_hash"]),
            shard_content_hash(os.path.join(out, f"shard={k}"),
                               TRIPLES_SCHEMA.names))
           for k, m in enumerate(read_manifests(out))]
    assert got == SINK_PINS[num_shards]


def test_uneven_read_groups_keep_the_pin(mini, tmp_path):
    """The dictionary path reads 3 fragments, and 1 fragment, as its 2
    annotate slots' even row ranges (a range may hold parts of several
    fragments, or half of one); both write the one-shard pinned triples."""
    got = []
    for files in (3, 1):
        src = tmp_path / f"in{files}"
        src.mkdir()
        out = str(tmp_path / f"kg{files}")
        stats = run_kg_job(_turns_dir(src, files=files), out, mini, num_shards=1)
        assert stats["annotate_tasks"] == 2 and stats["fragments_run"] == files
        got.append([((m["row_count"], m["content_hash"]),
                     shard_content_hash(os.path.join(out, "shard=0"), TRIPLES_SCHEMA.names))
                    for m in read_manifests(out)])
    assert got == [SINK_PINS[1], SINK_PINS[1]]


def test_mentions_reconcile_with_fragment_manifests(mini, tmp_path):
    """Each fragment manifest records its partial's rows and mention
    total; the written triples' ``n_mentions`` add up to the manifests'
    total, and no fragment's rows exceed the output's."""
    out = str(tmp_path / "kg")
    stats = run_kg_job(_turns_dir(tmp_path), out, mini, num_shards=2)
    frags = read_partial_manifests(out)
    assert len(frags) == stats["fragments_run"] == 5
    written = pa.concat_tables(
        pq.read_table(os.path.join(out, f"shard={k}")) for k in range(2))
    assert sum(written["n_mentions"].to_pylist()) == sum(
        f["n_mentions"] for f in frags) > written.num_rows
    assert max(f["row_count"] for f in frags) <= written.num_rows == stats["rows"]


def test_one_ray_data_execution_per_job(mini, tmp_path):
    """A job over 8 fragments with num_shards=4 runs one Ray Data plan:
    exactly one "Starting execution" per job, and none for a re-run that
    skips every fragment."""
    import ray.data  # noqa: F401  (configures the logger this test hooks)

    d = tmp_path / "turns8"
    d.mkdir()
    t = _turns(n_hot=160, n_convs=40)
    for k in range(8):
        pq.write_table(t.take(list(range(k, t.num_rows, 8))),
                       d / f"part-{k}.parquet")
    starts = []

    class Count(logging.Handler):
        def emit(self, record):
            if record.getMessage().startswith("Starting execution"):
                starts.append(record)

    ray_data = logging.getLogger("ray.data")
    handler = Count(logging.INFO)
    ray_data.addHandler(handler)
    old = ray_data.level
    ray_data.setLevel(logging.INFO)
    try:
        counts = []
        for _ in range(2):
            stats = run_kg_job(str(d), str(tmp_path / "kg"), mini, num_shards=4)
            counts.append((len(starts), stats["fragments_run"], stats["shards_run"]))
    finally:
        ray_data.removeHandler(handler)
        ray_data.setLevel(old)
    assert counts == [(1, 8, 4), (1, 0, 0)]


def test_kg_job_logs_no_schema_mismatch(mini, tmp_path, caplog):
    """Every block of a KG job carries one schema, so Ray Data logs no
    'different schema' warning (a bucketed exchange's empty sort
    partitions logged it on some runs of this input)."""
    import ray.data  # noqa: F401  (configures the logger this test hooks)

    turns = _turns_dir(tmp_path, files=4, n_convs=1000)
    ray_data = logging.getLogger("ray.data")  # does not propagate to root
    ray_data.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING, logger="ray.data"):
            for shards in (1, 2):
                stats = run_kg_job(turns, str(tmp_path / f"kg{shards}"),
                                   mini, num_shards=shards)
                assert stats["shards_run"] == shards and stats["rows"] > 0
    finally:
        ray_data.removeHandler(caplog.handler)
    assert not [r for r in caplog.records if "different schema" in r.getMessage()]


def test_zero_pair_analytics_log_no_schema_mismatch(mini, caplog):
    """The triples, pair-table analytics, graph operators and probes
    return one typed block, with no 'different schema' warning, when the
    input has no pair (every mention negated) or no co-occurring pair (one
    mention per conversation): their one-block task always runs, so Ray
    never emits a column-less block beside a typed one."""
    import ray.data  # noqa: F401  (configures the logger this test hooks)

    from phenobert_ray.eval import metrics
    from phenobert_ray.pipelines import graph, triples
    from phenobert_ray.sources import inverted_index as index

    a, b = sorted(mini.abnormality_nt)[:2]
    ops = {
        "dedup": (dedup_conv_hpo, DEDUP_SCHEMA),
        "triples": (has_phenotype_triples, TRIPLES_SCHEMA),
        "pairs": (triples.conv_hpo_pairs, triples.PAIR_SCHEMA),
        "edges": (triples.cooccurrence_edges, triples.EDGE_SCHEMA),
        "pmi": (triples.cooccurrence_pmi, triples.PMI_SCHEMA),
        "ic": (lambda d: triples.hpo_information_content(d, mini), triples.IC_SCHEMA),
        "rollup": (lambda d: triples.ancestor_rollup(d, mini), triples.ROLLUP_SCHEMA),
        "index": (index.build_inverted_index, index.POSTINGS_SCHEMA),
        "scalars": (index.index_scalars, index.SCALARS_SCHEMA),
        "all": (lambda d: index.search_convs_with_all(d, [a, b]), index.CONVS_SCHEMA),
        "any": (lambda d: index.search_convs_with_any(d, [a, b]), index.CONVS_SCHEMA),
        "triangles": (lambda d: graph.triangles(triples.cooccurrence_edges(d)),
                      graph.TRIANGLE_SCHEMA),
        "pagerank": (lambda d: graph.pagerank(triples.cooccurrence_edges(d)),
                     graph.RANK_SCHEMA),
        "kcore": (lambda d: graph.kcore_nodes(triples.cooccurrence_edges(d), k=1),
                  graph.KCORE_SCHEMA),
        "membership": (lambda d: metrics.membership(d, d), metrics.MEMBERSHIP_SCHEMA),
    }
    inputs = {
        "all_negated": _ann_table([("c1", 0, 0, 4, "x", a, 1.0, True),
                                   ("c2", 0, 0, 4, "x", b, 1.0, True)]),
        "single_mention": _ann_table([("c1", 0, 0, 4, "x", a, 1.0, False),
                                      ("c2", 0, 0, 4, "x", b, 1.0, False)]),
    }
    rows = {}
    ray_data = logging.getLogger("ray.data")  # does not propagate to root
    ray_data.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING, logger="ray.data"):
            for name, table in inputs.items():
                for op, (fn, schema) in ops.items():
                    refs = fn(ray.data.from_arrow(table)).to_arrow_refs()
                    (block,) = ray.get(refs)
                    assert block.schema == schema, (name, op)
                    rows[name, op] = block.num_rows
    finally:
        ray_data.removeHandler(caplog.handler)
    assert not [r for r in caplog.records if "different schema" in r.getMessage()]

    assert {op for (name, op), n in rows.items()
            if name == "all_negated" and n} == {"membership"}
    assert {op for (name, op), n in rows.items()
            if name == "single_mention" and not n} == {
        "edges", "pmi", "all", "triangles", "pagerank", "kcore"}
    assert rows["single_mention", "dedup"] == rows["single_mention", "any"] == 2
