"""E2E Ray pipeline tests at sf0.001 (SURVEY.md §5 items 3-4)."""

import pandas as pd
import pytest
import ray

from phenobert_ray.pipelines.annotate import kg_from_turns
from phenobert_ray.pipelines.triples import dedup_conv_hpo
from phenobert_ray.stages.annotate import annotate_turns
from phenobert_ray.transcripts import read_turns

# the pair-table analytics gather their input into one block: each is
# checked on annotations cut to one block and to several
BLOCKS = (1, 7)


@pytest.fixture(scope="module")
def annotations(mini, sf_small):
    return annotate_turns(read_turns(sf_small), mini).to_pandas()


def test_turns_schema(sf_small):
    t = read_turns(sf_small)
    names = [f.name for f in t.schema().base_schema]
    assert names == ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def test_every_turn_annotated(annotations, sf_small):
    # every doc gets ≥1 injected phrase → every (conv, turn) has ≥1 mention
    turns = read_turns(sf_small).to_pandas()
    got = set(zip(annotations.conv_id, annotations.turn_idx))
    want = set(zip(turns.conv_id, turns.turn_idx))
    assert got == want


def test_negation_rate(annotations):
    # doc_id % 7 == 3 → negated injection; negated mentions must exist and
    # carry the flag
    assert annotations.negated.sum() > 0
    assert annotations.loc[annotations.negated, "score"].eq(1.0).all()


def test_offsets_valid(annotations, sf_small):
    turns = read_turns(sf_small).to_pandas().set_index(["conv_id", "turn_idx"])
    sample = annotations.sample(50, random_state=0)
    for r in sample.itertuples():
        text = turns.loc[(r.conv_id, r.turn_idx), "text"]
        assert text[r.start:r.end] == r.mention


def test_dedup_set_semantics(mini, sf_small):
    anns = annotate_turns(read_turns(sf_small), mini)
    d = dedup_conv_hpo(anns).to_pandas()
    assert not d.duplicated(["conv_id", "hpo_id"]).any()
    assert (d.n_mentions >= 1).all()


def test_kg_triples_shape(mini, sf_small):
    trip = kg_from_turns(read_turns(sf_small), mini).to_pandas()
    assert set(trip.pred) == {"has_phenotype", "is_a"}
    hp = trip[trip.pred == "has_phenotype"]
    assert hp.obj.str.startswith("HP:").all()
    assert hp.subj.str.contains(":").all()
    # negated-only (conv, hpo) pairs are excluded from the KG
    anns = annotate_turns(read_turns(sf_small), mini).to_pandas()
    allneg = anns.groupby(["conv_id", "hpo_id"])["negated"].all()
    hp_keys = set(zip(hp.subj.str.rsplit(":", n=1).str[0], hp.obj))
    for (conv, hpo), is_neg in allneg.items():
        if is_neg:
            assert (conv, hpo) not in hp_keys


def test_determinism_across_parallelism(mini, sf_small):
    """North-rule invariant: N vs 4N parallelism produces identical triples
    (here: different batch sizes and per-task CPU reservations inside one
    session, so the task pool packs a different number of tasks per CPU)."""
    from phenobert_ray.config import PipelineConfig

    a = kg_from_turns(
        read_turns(sf_small), mini, PipelineConfig(annotate_batch_size=32)
    ).to_pandas()
    b = kg_from_turns(
        read_turns(sf_small), mini,
        PipelineConfig(annotate_batch_size=997, annotate_num_cpus=0.5)
    ).to_pandas()
    key = ["subj", "pred", "obj"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )


@pytest.mark.parametrize("model", [False, True], ids=["dict", "model"])
def test_annotate_plan_is_one_cpu_task_pool(mini, sf_small, model):
    """The default annotate plan is one task-pool map_batches that reserves
    CPUs only and hands each block to its own task on both paths
    (batch_size=None, so Ray can fuse it into the read; annotate_batch_size
    slices the block per kernel call inside the task).  The plan is built,
    never executed."""
    from phenobert_ray.config import PipelineConfig

    cfg = PipelineConfig(use_model_standins=model)
    op = annotate_turns(read_turns(sf_small), mini, cfg)._logical_plan.dag
    assert op._fn.__name__ == "_annotate_task"
    assert type(op._compute).__name__ == "TaskPoolStrategy"
    assert op._ray_remote_args == {"num_cpus": cfg.annotate_num_cpus}
    assert op._batch_size is None


def test_streaming_no_materialize(mini, sf_small):
    """The pipeline stays lazy: building it executes nothing."""
    ds = kg_from_turns(read_turns(sf_small), mini)
    # Dataset plan exists but no rows computed yet: take(1) triggers
    # execution of only what's needed.
    assert ds.take(1)


def test_kg_job_sink_matches_union(mini, sf_small, tmp_path):
    """The KG writer (run_kg_job: has_phenotype under shard=*/, is_a under
    ontology/) holds the same triple set as the single-Dataset union path."""
    import glob

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from phenobert_ray.pipelines.annotate import run_kg_job

    src = tmp_path / "turns"
    src.mkdir()
    turns = pa.concat_tables(ray.get(read_turns(sf_small).to_arrow_refs()))
    for k in range(2):
        pq.write_table(turns.slice(k * 250, 250), src / f"part-{k}.parquet")
    out = str(tmp_path / "kg")
    run_kg_job(str(src), out, mini, num_shards=1)
    files = glob.glob(out + "/shard=*/*.parquet") + glob.glob(out + "/ontology/*.parquet")
    key = ["subj", "pred", "obj"]
    written = pads.dataset(files).to_table(columns=key).to_pandas()
    union = kg_from_turns(read_turns(sf_small), mini).to_pandas()[key]
    pd.testing.assert_frame_equal(
        written.sort_values(key).reset_index(drop=True),
        union.sort_values(key).reset_index(drop=True),
    )


def test_turns_read_projects_turn_columns(mini, tmp_path):
    """Parquet turns are read column-pruned to conv_id / turn_idx / text,
    so a NULL role, tool or ts never drops a turn (a NULL text does), and
    run_kg_job writes the triples of every kept turn."""
    import datetime
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from phenobert_ray.linker import annotate_text
    from phenobert_ray.pipelines.annotate import TURN_COLS, read_turns_input, run_kg_job

    ts = datetime.datetime(2024, 1, 1)
    texts = ["patient shows seizure.", "obesity noted.", "scoliosis present.",
             "microcephaly seen.", None]
    src = tmp_path / "turns"
    src.mkdir()
    pq.write_table(pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(5)], pa.string()),
        "turn_idx": pa.array([0] * 5, pa.int32()),
        "role": pa.array([None, "user", "user", "user", "user"], pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(["t", None, "t", "t", "t"], pa.string()),
        "ts": pa.array([ts, ts, None, ts, ts], pa.timestamp("us")),
    }), src / "part-0.parquet")

    kept = read_turns_input(str(src)).to_pandas()
    assert list(kept.columns) == TURN_COLS
    assert sorted(kept.conv_id) == ["c0", "c1", "c2", "c3"]

    out = str(tmp_path / "kg")
    run_kg_job(str(src), out, mini, num_shards=1)
    got = {(s.rsplit(":", 1)[0], o) for f in glob.glob(out + "/shard=*/*.parquet")
           for s, o in zip(*pq.read_table(f, columns=["subj", "obj"]).to_pydict().values())}
    want = {(f"c{i}", a.hpo_id) for i, text in enumerate(texts[:4])
            for a in annotate_text(text, mini) if not a.negated}
    assert got == want and {c for c, _ in want} == {"c0", "c1", "c2", "c3"}


def test_cooccurrence_edges_bruteforce(mini, sf_small):
    """Co-mention graph: pairs + counts must equal a serial set build."""
    from itertools import combinations

    from phenobert_ray.pipelines.triples import cooccurrence_edges
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    ann = annotate_turns(read_turns(sf_small), mini)
    rows = ann.select_columns(["conv_id", "hpo_id", "negated"]).to_pandas()
    sets = (
        rows[~rows["negated"]]
        .groupby("conv_id")["hpo_id"]
        .agg(lambda s: sorted(set(s)))
    )
    want: dict[tuple, int] = {}
    for hs in sets:
        for a, b in combinations(hs, 2):
            want[(a, b)] = want.get((a, b), 0) + 1

    for blocks in BLOCKS:
        got = cooccurrence_edges(
            annotate_turns(read_turns(sf_small), mini).repartition(blocks)
        ).to_pandas()
        got_d = {(a, b): int(n) for a, b, n in
                 zip(got["hpo_a"], got["hpo_b"], got["n_convs"])}
        assert got_d == want, blocks
        assert all(a < b for a, b in got_d)  # canonical undirected order


def test_triangles_bruteforce(mini, sf_small):
    from itertools import combinations

    from phenobert_ray.pipelines.graph import triangles
    from phenobert_ray.pipelines.triples import cooccurrence_edges
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    edges_ds = cooccurrence_edges(annotate_turns(read_turns(sf_small), mini))
    edf = edges_ds.to_pandas()
    eset = set(zip(edf["hpo_a"], edf["hpo_b"]))
    nodes = sorted({n for e in eset for n in e})
    want = {
        (a, b, c)
        for a, b, c in combinations(nodes, 3)
        if (a, b) in eset and (a, c) in eset and (b, c) in eset
    }
    for blocks in BLOCKS:
        got = triangles(cooccurrence_edges(
            annotate_turns(read_turns(sf_small), mini).repartition(blocks)
        )).to_pandas()
        got_set = set(zip(got["hpo_a"], got["hpo_b"], got["hpo_c"]))
        assert got_set == want, blocks
        assert len(got) == len(got_set)  # no duplicate triangle rows
        assert all(a < b < c for a, b, c in got_set)


def test_pagerank_bruteforce(mini, sf_small):
    import numpy as np

    from phenobert_ray.pipelines.graph import pagerank
    from phenobert_ray.pipelines.triples import cooccurrence_edges
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    edges = cooccurrence_edges(
        annotate_turns(read_turns(sf_small), mini)
    ).to_pandas()
    nodes = sorted(set(edges["hpo_a"]) | set(edges["hpo_b"]))
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    nbrs = [[] for _ in range(n)]
    for a, b in zip(edges["hpo_a"], edges["hpo_b"]):
        nbrs[idx[a]].append(idx[b])
        nbrs[idx[b]].append(idx[a])
    deg = np.array([len(x) for x in nbrs], dtype=float)
    r = np.full(n, 1.0 / n)
    for _ in range(3):
        contrib = r / deg
        r = 0.15 / n + 0.85 * np.array(
            [sum(contrib[u] for u in nbrs[v]) for v in range(n)]
        )
    for blocks in BLOCKS:
        got = (
            pagerank(cooccurrence_edges(
                annotate_turns(read_turns(sf_small), mini).repartition(blocks)))
            .to_pandas()
            .set_index("hpo_id")["rank"]
        )
        assert len(got) == n
        for name, i in idx.items():
            assert got[name] == round(r[i], 6), (blocks, name)
        # ranks remain a probability-mass-like vector (no dangling nodes)
        assert abs(got.sum() - 1.0) < 1e-4


def test_annotate_task_default_cfg(mini):
    """_annotate_task's cfg default must behave as PipelineConfig(), not
    crash (review r4 w8: the advertised None default was unconditionally
    dereferenced)."""
    import pyarrow as pa

    from phenobert_ray.stages.annotate import _annotate_task

    batch = pa.table({
        "conv_id": pa.array(["c"], pa.string()),
        "turn_idx": pa.array([0], pa.int32()),
        "text": pa.array(["patient shows seizure today"], pa.string()),
    })
    out = _annotate_task(batch, dag_ref=mini)
    assert out.num_rows >= 1
    assert out.column("hpo_id").to_pylist()[0].startswith("HP:")


def test_memo_skips_long_turns(mini):
    """The per-worker memo admits only short texts: unique long turns must
    not accumulate (review r4 w8 memory bound)."""
    import pyarrow as pa

    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.stages.annotate import (
        _MEMO_MAX_TEXT_LEN,
        _annotate_batch,
    )

    memo = {}
    long_text = "patient shows seizure today. " * 200  # ≫ cap
    short_text = "patient shows seizure today"
    assert len(long_text) > _MEMO_MAX_TEXT_LEN >= len(short_text)
    batch = pa.table({
        "conv_id": pa.array(["a", "b"], pa.string()),
        "turn_idx": pa.array([0, 0], pa.int32()),
        "text": pa.array([long_text, short_text], pa.string()),
    })
    _annotate_batch(batch, mini, None, PipelineConfig(), memo=memo)
    assert short_text in memo and long_text not in memo


def test_memo_lives_for_one_block(mini):
    """A worker's memo holds only the block it is annotating: texts of
    earlier blocks (other jobs) are not kept."""
    import pyarrow as pa

    from phenobert_ray.stages.annotate import AnnotateTurns

    def block(texts):
        return pa.table({
            "conv_id": pa.array(["c"] * len(texts), pa.string()),
            "turn_idx": pa.array(range(len(texts)), pa.int32()),
            "text": pa.array(texts, pa.string()),
        })

    stage = AnnotateTurns(mini)
    first = stage(block(["seizure", "ptosis"]))
    assert set(stage.memo) == {"seizure", "ptosis"}
    stage(block(["hearing impairment", "seizure"]))
    assert set(stage.memo) == {"hearing impairment", "seizure"}
    assert stage(block(["seizure", "ptosis"])).equals(first)


def test_cooccurrence_pmi_matches_serial(sf_small, mini_session_dag):
    """PMI edges must equal the serial computation over conversation
    phenotype sets, with every ln term quantized identically."""
    import math

    from phenobert_ray.pipelines.triples import cooccurrence_pmi
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    ann = annotate_turns(read_turns(sf_small), mini_session_dag)
    gots = [cooccurrence_pmi(ann.repartition(b)).to_pandas() for b in BLOCKS]

    ann2 = annotate_turns(read_turns(sf_small), mini_session_dag).to_pandas()
    pred = (ann2[~ann2["negated"]][["conv_id", "hpo_id"]]
            .drop_duplicates())
    node = pred.groupby("hpo_id").size().to_dict()
    total = pred["conv_id"].nunique()

    def ln9(k):
        return math.floor(math.log(k) * 1e9 + 0.5)

    want = {}
    for cid, g in pred.groupby("conv_id"):
        hs = sorted(g["hpo_id"])
        for i in range(len(hs) - 1):
            for b in hs[i + 1:]:
                want[(hs[i], b)] = want.get((hs[i], b), 0) + 1
    want_full = {
        k: (n, ln9(n) + ln9(total) - ln9(node[k[0]]) - ln9(node[k[1]]))
        for k, n in want.items()
    }
    for got in gots:
        got_map = {(a, b): (int(n), int(p)) for a, b, n, p in zip(
            got["hpo_a"], got["hpo_b"], got["n_convs"], got["pmi_nano"])}
        assert got_map == want_full


def test_hpo_information_content_matches_serial(sf_small, mini_session_dag):
    """ic_nano must equal ln_nano(max rollup count) − ln_nano(n_convs)
    row-by-row against the serial rollup."""
    import math

    from phenobert_ray.pipelines.triples import (
        ancestor_rollup,
        hpo_information_content,
    )
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    ann = annotate_turns(read_turns(sf_small), mini_session_dag)
    gots = [hpo_information_content(ann.repartition(b), mini_session_dag)
            .to_pandas() for b in BLOCKS]
    ann2 = annotate_turns(read_turns(sf_small), mini_session_dag)
    roll = ancestor_rollup(ann2, mini_session_dag).to_pandas()
    n_tot = int(roll["n_convs"].max())

    def ln9(k):
        return math.floor(math.log(k) * 1e9 + 0.5)

    want = {h: (int(n), ln9(n_tot) - ln9(int(n)))
            for h, n in zip(roll["hpo_id"], roll["n_convs"])}
    for got in gots:
        got_map = {h: (int(n), int(ic)) for h, n, ic in zip(
            got["hpo_id"], got["n_convs"], got["ic_nano"])}
        assert got_map == want
        # the root (max-count node) has IC exactly 0
        assert 0 in {ic for _, ic in got_map.values()}
