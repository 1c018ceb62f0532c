"""Fixed per-job costs of a KG job: the stage state (the ontology, plus the
built scorer and NER tagger on a model path) is broadcast once per Ray
session (``stages.annotate._broadcast``), and the ``ontology/`` is_a table
is written with one pyarrow write."""

import copy
import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from phenobert_ray.assets.hpo_dag import HpoDag
from phenobert_ray.config import PipelineConfig
from phenobert_ray.pipelines.annotate import run_kg_job
from phenobert_ray.state.manifest import read_manifests

NOVEL = "zorblax syndrome"  # no mini-ontology phrase shares a token with it


def _turns(dag: HpoDag, n: int = 48) -> pa.Table:
    names = [dag.name_of[h] for h in sorted(dag.abnormality_nt)][:10]
    return pa.table({
        "conv_id": pa.array([f"c{i % 7}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(range(n), pa.int32()),
        "text": pa.array(
            [f"Exam showed {names[i % len(names)].lower()}. There is no "
             f"{names[(3 * i) % len(names)].lower()}. Also {NOVEL}."
             for i in range(n)], pa.string()),
    })


def _turns_dir(tmp_path, dag: HpoDag, files: int = 4) -> str:
    d = tmp_path / "turns"
    d.mkdir()
    t = _turns(dag)
    step = -(-t.num_rows // files)
    for k in range(files):
        pq.write_table(t.slice(k * step, step), d / f"part-{k}.parquet")
    return str(d)


def _count_dag_puts(monkeypatch):
    import phenobert_ray.stages.annotate as stage

    monkeypatch.setattr(stage, "_STATE_REFS", {})
    puts = []
    real_put = ray.put

    def put(obj, **kw):
        if isinstance(obj, HpoDag):
            puts.append(obj)
        return real_put(obj, **kw)

    monkeypatch.setattr(ray, "put", put)
    return puts


def _hpos(ds) -> set:
    return set(ds.to_pandas()["hpo_id"])


def test_one_put_per_ontology_per_session(mini, monkeypatch):
    """Two annotate_turns calls on the same dag ship it once; a dag mutated
    and re-fingerprinted ships afresh and its new phrase is used."""
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.textops import bag_key, process_str

    puts = _count_dag_puts(monkeypatch)
    turns = ray.data.from_arrow(_turns(mini))
    first = _hpos(annotate_turns(turns, mini))
    second = _hpos(annotate_turns(turns, mini))
    assert len(puts) == 1
    assert first == second and first

    dag2 = copy.deepcopy(mini)
    novel_hpo = sorted(mini.abnormality_nt - first)[0]
    dag2.phrase2hpo[bag_key(process_str(NOVEL))] = novel_hpo
    dag2.refresh_fingerprint()
    got = _hpos(annotate_turns(turns, dag2))
    assert len(puts) == 2 and puts[1] is dag2
    assert novel_hpo in got and novel_hpo not in first


def test_kg_job_after_session_restart(mini, tmp_path):
    """The cached ref belongs to the session that put it: after
    ray.shutdown() + ray.init() (the job id restarts) a KG job re-broadcasts
    instead of passing a dead ref, and writes hash-identical shards."""
    import phenobert_ray.stages.annotate as stage

    turns = _turns_dir(tmp_path, mini)
    run_kg_job(turns, str(tmp_path / "a"), mini, num_shards=2)
    (before,) = stage._STATE_REFS.values()
    ray.shutdown()
    try:
        ray.init(address="local", num_cpus=4, include_dashboard=False)
        stats = run_kg_job(turns, str(tmp_path / "b"), mini, num_shards=2)
    finally:
        if not ray.is_initialized():
            ray.init(address="local", num_cpus=4, include_dashboard=False)
    (after,) = stage._STATE_REFS.values()
    assert after != before
    assert stats["shards_run"] == 2 and stats["rows"] > 0

    def manifests(out):
        return [(m["row_count"], m["content_hash"])
                for m in read_manifests(str(tmp_path / out))]

    assert manifests("a") == manifests("b")


def test_ontology_table_is_the_is_a_triples(mini, tmp_path):
    """run_kg_job's ontology/ parquet holds exactly TRIPLES_SCHEMA and the
    rows of is_a_triples(dag), next to its fingerprint marker."""
    from phenobert_ray.pipelines.triples import TRIPLES_SCHEMA, is_a_triples

    out = str(tmp_path / "kg")
    run_kg_job(_turns_dir(tmp_path, mini), out, mini, num_shards=2)
    files = glob.glob(os.path.join(out, "ontology", "*.parquet"))
    assert files
    written = pa.concat_tables(pq.read_table(f) for f in files)
    assert written.schema.equals(TRIPLES_SCHEMA)

    def rows(t: pa.Table) -> list:
        return sorted(zip(*(t.column(c).to_pylist() for c in TRIPLES_SCHEMA.names)))

    expected = pa.concat_tables(ray.get(is_a_triples(mini).to_arrow_refs()))
    assert rows(written) == rows(expected) and len(rows(written)) == len(
        mini.is_a_edges())
    with open(os.path.join(out, "ontology.fingerprint")) as f:
        assert f.read().strip() == mini.fingerprint


def test_is_a_table_cached_per_fingerprint(tmp_path):
    """is_a_table builds once per ontology: the cached table writes the
    same is_a.parquet bytes as a fresh build, stays out of the dag's
    pickle, and a mutated dag rebuilds it after refresh_fingerprint()."""
    import pickle

    from phenobert_ray.assets.mini_hpo import mini_dag
    from phenobert_ray.pipelines.triples import is_a_table, write_is_a

    dag = mini_dag()
    write_is_a(dag, str(tmp_path / "cold"))
    table = is_a_table(dag)
    assert is_a_table(dag) is table
    write_is_a(dag, str(tmp_path / "warm"))
    assert ((tmp_path / "cold" / "is_a.parquet").read_bytes()
            == (tmp_path / "warm" / "is_a.parquet").read_bytes())
    assert not hasattr(pickle.loads(pickle.dumps(dag)), "_is_a")

    child = next(h for h in sorted(dag.abnormality_nt)
                 if dag.layer1[0] not in dag.parents[h])
    dag.parents[child].add(dag.layer1[0])
    dag.refresh_fingerprint()
    rebuilt = is_a_table(dag)
    assert rebuilt is not table
    assert rebuilt.num_rows == table.num_rows + 1
    assert (child, dag.layer1[0]) in zip(rebuilt["subj"].to_pylist(),
                                         rebuilt["obj"].to_pylist())


# ------------------------------------------------------------ model path
STANDIN = PipelineConfig(use_model_standins=True)


def _count_state_puts(monkeypatch):
    """ray.put calls that ship a built (dag, scorer, ner) stage state."""
    import phenobert_ray.stages.annotate as stage

    monkeypatch.setattr(stage, "_STATE_REFS", {})
    puts = []
    real_put = ray.put

    def put(obj, **kw):
        if isinstance(obj, tuple) and obj and isinstance(obj[0], HpoDag):
            puts.append(obj)
        return real_put(obj, **kw)

    monkeypatch.setattr(ray, "put", put)
    return puts


def _embedding_dir(path) -> str:
    """A model dir holding only embedding.pt + vocab.txt (the loaded
    stand-in scorer)."""
    import numpy as np

    from phenobert_ray.standins import DIM
    from phenobert_ray.state.torch_ckpt import write_state_dict

    vocab = ["seizure", "febrile", "obesity"]
    mat = np.random.default_rng(2).standard_normal((len(vocab), DIM))
    path.mkdir()
    write_state_dict(str(path / "embedding.pt"),
                     {"embedding.weight": mat.astype(np.float32)})
    (path / "vocab.txt").write_text("\n".join(vocab))
    return str(path)


def test_one_put_per_model_state_per_session(mini, monkeypatch, tmp_path):
    """A model path ships the driver-built (dag, scorer, ner) once per
    state key: the same config reuses it; a changed param1 or model_dir
    builds and ships afresh."""
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.standins import StandInScorer

    puts = _count_state_puts(monkeypatch)
    turns = ray.data.from_arrow(_turns(mini))
    first = _hpos(annotate_turns(turns, mini, STANDIN))
    second = _hpos(annotate_turns(turns, mini, STANDIN))
    assert len(puts) == 1 and first == second and first
    dag, scorer, ner = puts[0]
    assert dag is mini and isinstance(scorer, StandInScorer) and ner is None

    annotate_turns(turns, mini, PipelineConfig(use_model_standins=True, param1=0.7))
    assert len(puts) == 2 and puts[1][1].cfg.param1 == 0.7
    cfg = PipelineConfig(use_model_standins=True,
                         model_dir=_embedding_dir(tmp_path / "emb"))
    assert _hpos(annotate_turns(turns, mini, cfg))
    assert len(puts) == 3 and puts[2][1].emb is not scorer.emb


def test_model_kg_job_after_session_restart(mini, tmp_path):
    """A model-path KG job re-broadcasts its built state after
    ray.shutdown() + ray.init() and writes hash-identical shards."""
    import phenobert_ray.stages.annotate as stage

    turns = _turns_dir(tmp_path, mini)
    run_kg_job(turns, str(tmp_path / "a"), mini, STANDIN, num_shards=2)
    (before,) = stage._STATE_REFS.values()
    ray.shutdown()
    try:
        ray.init(address="local", num_cpus=4, include_dashboard=False)
        stats = run_kg_job(turns, str(tmp_path / "b"), mini, STANDIN, num_shards=2)
    finally:
        if not ray.is_initialized():
            ray.init(address="local", num_cpus=4, include_dashboard=False)
    (after,) = stage._STATE_REFS.values()
    assert after != before
    assert stats["shards_run"] == 2 and stats["rows"] > 0

    def manifests(out):
        return [(m["row_count"], m["content_hash"])
                for m in read_manifests(str(tmp_path / out))]

    assert manifests("a") == manifests("b")


def _spy_jobs(monkeypatch) -> list:
    """Every (annotations, partials) pair ``run_kg_job`` builds: the
    partials dataset is the job's own plan, and its ``stats()`` is the
    executed plan after the job.  Also fails the job if it builds a Ray
    ``ParquetDatasource``, whose planning resolves paths, prefetches
    metadata and runs ``_sample_fragment`` tasks."""
    import phenobert_ray.pipelines.annotate as pipeline
    from ray.data._internal.datasource import parquet_datasource

    def no_parquet_planning(self, *a, **k):
        raise AssertionError("the KG job built a ParquetDatasource")

    monkeypatch.setattr(parquet_datasource.ParquetDatasource, "__init__",
                        no_parquet_planning)
    seen = []
    real = pipeline.conv_hpo_partials

    def spy(ann, drop_negated):
        seen.append((ann, real(ann, drop_negated)))
        return seen[-1][1]

    monkeypatch.setattr(pipeline, "conv_hpo_partials", spy)
    return seen


def _executed_ops(partials) -> dict[str, int]:
    """Executed operator name → tasks, from a finished job's plan."""
    import re

    return {op: int(n) for op, n in re.findall(
        r"^Operator \d+ (\S+): (\d+) tasks executed", partials.stats(), re.M)}


# annotate slots at the session's 4 CPUs (conftest): every CPU on a model
# path, half of them on the dictionary path
SLOTS = {"dictionary": 2, "standin": 4}
CFGS = {"dictionary": PipelineConfig(), "standin": STANDIN}
FUSED = "ReadParquetTurns->MapBatches(_annotate_task)->MapBatches(_conv_hpo_partial)"


def _assert_one_fused_operator(partials, fused: str, tasks: int) -> None:
    """The job's whole executed plan is one fused read+annotate+combiner
    operator of ``tasks`` tasks: no ``SplitBlocks``, no ``Repartition``
    (a text dir's input is its ``from_arrow`` slices)."""
    ops = _executed_ops(partials)
    ops.pop("FromArrow", None)
    assert ops == {fused: tasks}


def test_kg_job_lifts_reservation_for_its_job_only(mini, monkeypatch, tmp_path):
    """Every KG job's own datasets run without Ray Data's per-operator
    reservation, on both paths; the global DataContext and a caller's
    input dataset keep it.  The job's read is sized to its annotate
    slots, which cap the tasks instead."""
    from phenobert_ray.stages.annotate import annotate_turns

    seen = _spy_jobs(monkeypatch)
    turns = _turns_dir(tmp_path, mini, files=4)
    model = run_kg_job(turns, str(tmp_path / "model"), mini, STANDIN, num_shards=1)
    dictionary = run_kg_job(turns, str(tmp_path / "dict"), mini, num_shards=1)

    (model_ann, model_out), (dict_ann, dict_out) = seen
    assert model_ann.context.op_resource_reservation_enabled is False
    assert dict_ann.context.op_resource_reservation_enabled is False
    assert model["annotate_tasks"] == _executed_ops(model_out)[FUSED] == 4
    assert dictionary["annotate_tasks"] == _executed_ops(dict_out)[FUSED] == 2
    assert ray.data.DataContext.get_current().op_resource_reservation_enabled

    monkeypatch.undo()
    caller = ray.data.read_parquet(turns)
    annotate_turns(caller, mini, STANDIN).materialize()
    assert caller.context.op_resource_reservation_enabled


@pytest.mark.parametrize("files", [3, 4, 5, 8])
@pytest.mark.parametrize("path", ["dictionary", "standin"])
def test_kg_job_runs_one_fused_task_per_slot(mini, monkeypatch, tmp_path, path, files):
    """At 4 CPUs a KG job reads its fragments as one even row range per
    annotate slot, whatever their count: its executed plan is one fused
    read+annotate+combiner operator (no ``SplitBlocks``, no
    ``Repartition``, no parquet planning tasks) of 2 tasks on the
    dictionary path and 4 on a model path, 3 fragments included."""
    assert ray.cluster_resources()["CPU"] == 4
    seen = _spy_jobs(monkeypatch)
    stats = run_kg_job(_turns_dir(tmp_path, mini, files=files), str(tmp_path / "kg"),
                       mini, CFGS[path], num_shards=1)
    assert stats["fragments_run"] == files and stats["rows"] > 0

    ((ann, partials),) = seen
    _assert_one_fused_operator(partials, FUSED, stats["annotate_tasks"])
    assert stats["annotate_tasks"] == SLOTS[path]
    assert ann.context.op_resource_reservation_enabled is False
    assert ray.data.DataContext.get_current().op_resource_reservation_enabled


@pytest.mark.parametrize("path", ["dictionary", "standin"])
def test_one_fragment_job_runs_a_task_per_slot(mini, monkeypatch, tmp_path, path):
    """A one-fragment input is read as one row range per annotate slot,
    each fused with its annotate task: no ``SplitBlocks`` operator."""
    seen = _spy_jobs(monkeypatch)
    stats = run_kg_job(_turns_dir(tmp_path, mini, files=1), str(tmp_path / "kg"),
                       mini, CFGS[path], num_shards=1)
    _assert_one_fused_operator(seen[0][1], FUSED, SLOTS[path])
    assert stats["annotate_tasks"] == SLOTS[path]


def test_textdir_job_runs_a_task_per_slot(mini, monkeypatch, tmp_path):
    """A text-dir input reaches Ray as one row slice per annotate slot
    (``from_arrow``: the read is the slices, not an operator), so its job
    runs 2 fused annotate+combiner tasks at 4 CPUs instead of one, with no
    ``Repartition``, and writes the same triples as the same dir read as
    one block."""
    import phenobert_ray.pipelines.annotate as pipeline

    d = tmp_path / "docs"
    d.mkdir()
    texts = _turns(mini)["text"].to_pylist()
    for k in range(12):
        (d / f"doc-{k:02d}.txt").write_text(" ".join(texts[k::12]))
    seen = _spy_jobs(monkeypatch)
    sliced = run_kg_job(str(d), str(tmp_path / "sliced"), mini, num_shards=1,
                        input_format="textdir")
    monkeypatch.setattr(pipeline, "annotate_slots", lambda cfg: 1)
    whole = run_kg_job(str(d), str(tmp_path / "whole"), mini, num_shards=1,
                       input_format="textdir")

    annotate = FUSED.removeprefix("ReadParquetTurns->")
    (ann, sliced_out), (_, whole_out) = seen
    _assert_one_fused_operator(sliced_out, annotate, sliced["annotate_tasks"])
    _assert_one_fused_operator(whole_out, annotate, whole["annotate_tasks"])
    assert (sliced["annotate_tasks"], whole["annotate_tasks"]) == (2, 1)
    assert ann.context.op_resource_reservation_enabled is False
    assert ray.data.DataContext.get_current().op_resource_reservation_enabled

    def triples(out):
        return pq.read_table(os.path.join(tmp_path, out, "shard=0"))

    assert sliced["rows"] > 0 and triples("sliced").equals(triples("whole"))
    assert ([m["content_hash"] for m in read_manifests(str(tmp_path / "sliced"))]
            == [m["content_hash"] for m in read_manifests(str(tmp_path / "whole"))])


def test_ner_kg_job_uses_driver_built_tagger(mini, tmp_path):
    """An NER-only KG job ships the driver-loaded tagger to its workers and
    writes exactly the pairs an in-process annotate_text recomputes."""
    from phenobert_ray.assets.loader import trained_model_dir
    from phenobert_ray.linker import annotate_text
    from phenobert_ray.ner_np import NerTagger

    d = trained_model_dir()
    if d is None or not os.path.exists(os.path.join(d, "ner.pt")):
        pytest.skip("no packaged ner tagger")
    cfg = PipelineConfig(ner_path=os.path.join(d, "ner.pt"))
    out = str(tmp_path / "kg")
    run_kg_job(_turns_dir(tmp_path, mini), out, mini, cfg, num_shards=2)
    files = glob.glob(os.path.join(out, "shard=*", "*.parquet"))
    got = {(s.rsplit(":", 1)[0], o) for f in files
           for s, o in zip(*pq.read_table(f, columns=["subj", "obj"]).to_pydict().values())}

    ner = NerTagger.load(cfg.ner_path)
    t = _turns(mini)
    want = {(c, a.hpo_id) for c, text in zip(t["conv_id"].to_pylist(), t["text"].to_pylist())
            for a in annotate_text(text, mini, ner=ner) if not a.negated}
    assert got == want and want
