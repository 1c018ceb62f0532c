"""Fixed per-job costs of a KG job: the ontology is broadcast once per Ray
session (``stages.annotate._broadcast``), and the ``ontology/`` is_a table
is written with one pyarrow write."""

import copy
import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from phenobert_ray.assets.hpo_dag import HpoDag
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

    monkeypatch.setattr(stage, "_DAG_REFS", {})
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
    (before,) = stage._DAG_REFS.values()
    ray.shutdown()
    try:
        ray.init(address="local", num_cpus=4, include_dashboard=False)
        stats = run_kg_job(turns, str(tmp_path / "b"), mini, num_shards=2)
    finally:
        if not ray.is_initialized():
            ray.init(address="local", num_cpus=4, include_dashboard=False)
    (after,) = stage._DAG_REFS.values()
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
