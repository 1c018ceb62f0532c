"""Checkpoint/resume invariant: a killed run resumed from manifests
produces identical triples (north rule; BASELINE.md targets)."""

import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from phenobert_ray.pipelines.annotate import run_kg_job
from phenobert_ray.state.manifest import read_manifests


def _turns_table(sf_small) -> pa.Table:
    from phenobert_ray.transcripts import read_turns

    t = pa.concat_tables(ray.get(read_turns(sf_small).to_arrow_refs()))
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def _write_files(t: pa.Table, d, files: int) -> str:
    """``t`` as ``files`` contiguous parquet files, so the shard count of a
    run over ``d`` is fixed by ``num_shards`` alone."""
    os.makedirs(d)
    step = -(-t.num_rows // files)
    for k in range(files):
        pq.write_table(t.slice(k * step, step), os.path.join(d, f"part-{k}.parquet"))
    return str(d)


def _turns_dir(sf_small, tmp_path, files: int = 4) -> str:
    return _write_files(_turns_table(sf_small), tmp_path / "turns", files)


def _triples(out_dir):
    import glob

    files = sorted(
        glob.glob(os.path.join(out_dir, "shard=*", "*.parquet"))
        + glob.glob(os.path.join(out_dir, "ontology", "*.parquet"))
    )
    t = pads.dataset(files).to_table(columns=["subj", "pred", "obj"])
    return (
        t.to_pandas().sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    )


def test_resume_identical(mini, sf_small, tmp_path):
    src = _turns_dir(sf_small, tmp_path)
    full = str(tmp_path / "full")
    run_kg_job(src, full, mini, num_shards=2)
    assert len(read_manifests(full)) == 2
    ref = _triples(full)

    # simulate a crash: run shard 0 only (kill before shard 1), then resume
    partial = str(tmp_path / "partial")
    run_kg_job(src, partial, mini, num_shards=2)
    # drop shard 1's output + manifest → the "crash"
    shutil.rmtree(os.path.join(partial, "shard=1"))
    os.remove(os.path.join(partial, "_MANIFEST", "shard-1.json"))
    stats = run_kg_job(src, partial, mini, num_shards=2)
    assert stats["shards_skipped"] == 1 and stats["shards_run"] == 1

    pd.testing.assert_frame_equal(ref, _triples(partial))


def test_manifest_contents(mini, sf_small, tmp_path):
    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "m")
    run_kg_job(src, out, mini, num_shards=1)
    (m,) = read_manifests(out)
    assert m["row_count"] > 0
    assert m["input_fingerprint"]
    assert m["content_hash"]
    # second run is a full skip
    stats = run_kg_job(src, out, mini, num_shards=1)
    assert stats == {
        "shards_run": 0, "shards_skipped": 1, "rows": 0, "shards_pruned": 0
    }


def test_resume_cleans_partial_shard(mini, sf_small, tmp_path):
    """A mid-shard kill leaves output files WITHOUT a manifest; the re-run
    must clear them (not append next to them) or the shard doubles up."""
    src = _turns_dir(sf_small, tmp_path)
    full = str(tmp_path / "full")
    run_kg_job(src, full, mini, num_shards=2)
    ref = _triples(full)

    crashed = str(tmp_path / "crashed")
    run_kg_job(src, crashed, mini, num_shards=2)
    # simulate: shard 1 was mid-write when killed — manifest missing, a
    # stale (complete-looking) parquet file still present
    os.remove(os.path.join(crashed, "_MANIFEST", "shard-1.json"))
    stats = run_kg_job(src, crashed, mini, num_shards=2)
    assert stats["shards_run"] == 1 and stats["shards_skipped"] == 1
    pd.testing.assert_frame_equal(ref, _triples(crashed))


def test_rerun_with_fewer_shards_prunes_stale(mini, sf_small, tmp_path):
    """Re-running with a smaller --shards must remove the previous run's
    higher-indexed shard dirs + manifests, or readers of out_dir see the
    same triples twice (stale shard=K next to the fresh layout)."""
    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "shrink")
    run_kg_job(src, out, mini, num_shards=4)
    ref4 = _triples(out)
    stats = run_kg_job(src, out, mini, num_shards=2)
    assert stats["shards_pruned"] == 2
    assert not os.path.isdir(os.path.join(out, "shard=2"))
    assert not os.path.exists(os.path.join(out, "_MANIFEST", "shard-3.json"))
    assert len(read_manifests(out)) == 2
    # triples identical regardless of shard count
    pd.testing.assert_frame_equal(ref4, _triples(out))


def test_modified_input_same_size_invalidates(mini, sf_small, tmp_path):
    """An input file rewritten in place with the SAME byte length must not
    be silently skipped on resume (fingerprint folds in mtime_ns)."""
    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "out")
    run_kg_job(src, out, mini, num_shards=2)
    # shard 1 holds part-1 and part-3 (round-robin over sorted fragments)
    part = os.path.join(src, "part-3.parquet")
    os.utime(part, ns=(os.stat(part).st_atime_ns,
                       os.stat(part).st_mtime_ns + 1_000_000))
    stats = run_kg_job(src, out, mini, num_shards=2)
    assert stats["shards_run"] == 1 and stats["shards_skipped"] == 1


def test_generic_sharded_write_resumable(sf_small, tmp_path):
    """run_sharded works for NON-KG operator output too: a dedup result
    written in doc_id-range shards resumes identically after a crash."""
    import pyarrow.dataset as pads

    from phenobert_ray.state.sharded import run_sharded

    def specs():
        out = []
        for k, (a, b) in enumerate([(0, 250), (250, 10_000)]):
            expr = (pads.field("doc_id") >= a) & (pads.field("doc_id") < b)
            out.append(([f"{sf_small}/documents.parquet"], f"r:{a}:{b}", expr))
        return out

    def build(paths, expr):
        import hashlib

        import pandas as pd_
        import ray as _ray

        ds = _ray.data.read_parquet(paths, filter=expr,
                                    columns=["doc_id", "text"])

        def f(df: pd_.DataFrame) -> pd_.DataFrame:
            return pd_.DataFrame(
                {"doc_id": df["doc_id"].astype("int64"),
                 "text_md5": df["text"].map(
                     lambda t: hashlib.md5(t.encode()).hexdigest())}
            )

        return ds.map_batches(f, batch_format="pandas")

    out = str(tmp_path / "dedup_shards")
    stats = run_sharded(specs(), build, out, content_cols=["doc_id", "text_md5"])
    assert stats["shards_run"] == 2 and stats["rows"] == 500
    def read_all(base):
        import pyarrow as pa_

        tables = [pads.dataset(os.path.join(base, d)).to_table()
                  for d in sorted(os.listdir(base)) if d.startswith("shard=")]
        return (pa_.concat_tables(tables).to_pandas()
                .sort_values("doc_id").reset_index(drop=True))

    ref = read_all(out)

    # crash shard 1 (manifest gone, stale files present) and resume
    os.remove(os.path.join(out, "_MANIFEST", "shard-1.json"))
    stats = run_sharded(specs(), build, out, content_cols=["doc_id", "text_md5"])
    assert stats == {"shards_run": 1, "shards_skipped": 1, "rows": 250,
                     "shards_pruned": 0}
    pd.testing.assert_frame_equal(ref, read_all(out))


def test_zero_row_shard_does_not_crash(mini, sf_small, tmp_path):
    """A zero-row input fragment that is a shard on its own writes zero
    rows: it must yield a manifest (rows=0) instead of FileNotFoundError
    in the content hash, and resume must skip it (review r4)."""
    t = _turns_table(sf_small)
    d = _write_files(t, tmp_path / "sparse", 3)
    pq.write_table(t.slice(0, 0), os.path.join(d, "part-3.parquet"))

    out = str(tmp_path / "out")
    stats = run_kg_job(d, out, mini, num_shards=4)
    assert stats["shards_run"] == 4
    ms = read_manifests(out)
    assert [m["row_count"] == 0 for m in ms] == [False, False, False, True]
    assert ms[3]["content_hash"] == "0" * 16
    stats2 = run_kg_job(d, out, mini, num_shards=4)
    assert stats2["shards_run"] == 0 and stats2["shards_skipped"] == 4


def test_lost_data_dir_triggers_rebuild(mini, sf_small, tmp_path):
    """A manifest whose shard data directory is gone must NOT be skipped —
    that would silently drop the partition's rows (review r4)."""
    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "o")
    run_kg_job(src, out, mini, num_shards=2)
    ref = _triples(out)
    shutil.rmtree(os.path.join(out, "shard=1"))  # manifest survives
    stats = run_kg_job(src, out, mini, num_shards=2)
    assert stats["shards_run"] == 1 and stats["shards_skipped"] == 1
    pd.testing.assert_frame_equal(ref, _triples(out))


def test_changed_ontology_invalidates_all_shards(mini, sf_small, tmp_path):
    """Re-running with a different ontology on a reused out_dir must
    re-run every shard AND rewrite the is_a edges (review r4)."""
    import copy

    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "o")
    run_kg_job(src, out, mini, num_shards=2)

    dag2 = copy.deepcopy(mini)
    # a new synonym changes dictionary content -> different fingerprint
    key = next(iter(dag2.phrase2hpo))
    dag2.phrase2hpo["made up synonym xyz"] = dag2.phrase2hpo[key]
    dag2.refresh_fingerprint()
    assert dag2.fingerprint != mini.fingerprint

    stats = run_kg_job(src, out, mini, num_shards=2)
    assert stats["shards_run"] == 0  # same dag -> full skip
    stats2 = run_kg_job(src, out, dag2, num_shards=2)
    assert stats2["shards_run"] == 2 and stats2["shards_skipped"] == 0
    with open(os.path.join(out, "ontology.fingerprint")) as f:
        assert f.read().strip() == dag2.fingerprint


def test_content_hash_multiset_and_column_boundaries(tmp_path):
    """SUM-mod-2^64 content hash: even-multiplicity rows must not cancel
    ({R,R,S} != {S}) and column boundaries must be unambiguous
    (('a|b','c') != ('a','b|c')) (review r4)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from phenobert_ray.state.sharded import shard_content_hash

    def write(rows, name):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(pa.table({"subj": [r[0] for r in rows],
                                 "pred": [r[1] for r in rows]}),
                       d / "part.parquet")
        return str(d)

    cols = ["subj", "pred"]
    r_rrs = shard_content_hash(write([("r", "x"), ("r", "x"), ("s", "y")],
                                     "rrs"), cols)
    r_s = shard_content_hash(write([("s", "y")], "s"), cols)
    assert r_rrs[1] != r_s[1]
    a = shard_content_hash(write([("a|b", "c")], "ab_c"), cols)
    b = shard_content_hash(write([("a", "b|c")], "a_bc"), cols)
    assert a[1] != b[1]
    # missing dir == empty shard, not a crash
    assert shard_content_hash(str(tmp_path / "nope"), cols) == (0, "0" * 16)


def test_content_hash_pinned(tmp_path):
    """The manifest hash definition — per-row hash_pandas_object over the
    columns, summed mod 2^64 — pinned as a literal over a fixed multi-file
    shard, so no reader change can drift it; the 64-bit wrap is silent."""
    import warnings

    import pyarrow as pa
    import pyarrow.parquet as pq

    from phenobert_ray.state.sharded import shard_content_hash

    parts = [  # three files, one of them empty
        [(f"c{i}:{i % 3}", "has_phenotype", f"HP:{1000 + 7 * i:07d}")
         for i in range(40)],
        [("c1:0", "has_phenotype", "HP:0001250"),
         ("c1:0", "has_phenotype", "HP:0001250"),  # repeated row counts twice
         ("a|b", "is_a", "c"), ("a", "is_a", "b|c")],
        [],
    ]
    shard = tmp_path / "fixed"
    shard.mkdir()
    for k, rows in enumerate(parts):
        pq.write_table(pa.table({
            "subj": pa.array([r[0] for r in rows], pa.string()),
            "pred": pa.array([r[1] for r in rows], pa.string()),
            "obj": pa.array([r[2] for r in rows], pa.string()),
            "score": pa.array([0.5] * len(rows), pa.float32()),
        }), shard / f"part-{k}.parquet")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = shard_content_hash(str(shard), ["subj", "pred", "obj"])
    assert got == (44, "4a545c6161fcb224")


def test_empty_documents_input(mini, sf_small, tmp_path):
    """A zero-row turns input (one empty parquet file) runs as one empty
    shard with a row_count 0 manifest, and a re-run skips it (review r4)."""
    d = tmp_path / "empty"
    d.mkdir()
    pq.write_table(_turns_table(sf_small).slice(0, 0), d / "part-0.parquet")
    out = str(tmp_path / "out")
    stats = run_kg_job(str(d), out, mini, num_shards=4)
    assert stats["shards_run"] == 1 and stats["rows"] == 0
    (m,) = read_manifests(out)
    assert m["row_count"] == 0
    stats2 = run_kg_job(str(d), out, mini, num_shards=4)
    assert stats2["shards_run"] == 0 and stats2["shards_skipped"] == 1


def test_kill_during_shard_pipeline_resumes_identical(mini, sf_small, tmp_path):
    """SIGKILL the driver WHILE a shard's annotate→dedup-shuffle pipeline is
    executing (not between shards): the partial shard dir has no manifest,
    so resume clears and re-runs exactly that shard and the triples match a
    never-killed run (the between-stage kills above
    simulate the crash by file surgery; this one is a real mid-execution
    process kill in a child Ray session).

    Kill timing is DETERMINISTIC, not sleep-tuned: the child wraps its
    shard pipeline with a stage whose tasks touch a sentinel file and
    dawdle per batch; the parent deletes the sentinel once shard 0's
    manifest lands (all shard-0 tasks are finished by then), waits for a
    shard-1 task to re-touch it — proof the kill lands while shard 1's
    pipeline is mid-execution — and SIGKILLs the child's process group."""
    import signal
    import subprocess
    import sys
    import time as _time

    import pyarrow.compute as pc

    base = _turns_table(sf_small)
    tiles = [base.set_column(0, "conv_id", pc.binary_join_element_wise(
                 f"t{i}", base.column("conv_id"), "-"))
             for i in range(30)]
    in_dir = _write_files(pa.concat_tables(tiles), tmp_path / "in", 8)

    ref_dir = str(tmp_path / "ref")
    run_kg_job(in_dir, ref_dir, mini, num_shards=2)
    ref = _triples(ref_dir)

    out = str(tmp_path / "killed")
    sentinel = str(tmp_path / "IN_SHARD")
    child_src = (
        "import ray\n"
        "ray.init(address='local', num_cpus=4, include_dashboard=False,\n"
        "         logging_level='ERROR')\n"
        "import phenobert_ray.pipelines.annotate as A\n"
        "from phenobert_ray.assets.mini_hpo import mini_dag\n"
        "_orig = A.has_phenotype_triples\n"
        "def _slowed(ds, cfg=None):\n"
        "    def mark(b):\n"
        "        import pathlib, time\n"
        f"        pathlib.Path({sentinel!r}).touch()\n"
        "        time.sleep(0.3)\n"
        "        return b\n"
        "    return _orig(ds.map_batches(mark, batch_format='pyarrow',\n"
        "                                batch_size=256), cfg)\n"
        "A.has_phenotype_triples = _slowed\n"
        f"A.run_kg_job({in_dir!r}, {out!r}, mini_dag(), num_shards=2)\n"
    )
    # new session => new process group: SIGKILL takes the child's private
    # raylet tree down with it, not the test session's
    proc = subprocess.Popen(
        [sys.executable, "-c", child_src],
        cwd="/root/repo", start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "RAY_ADDRESS": "local"},
    )
    m0 = os.path.join(out, "_MANIFEST", "shard-0.json")
    deadline = _time.time() + 300
    try:
        while not os.path.isfile(m0):
            assert proc.poll() is None, "child exited before finishing shard 0"
            assert _time.time() < deadline, "timed out waiting for shard 0"
            _time.sleep(0.05)
        # shard 0 fully done (manifest is written after its pipeline) —
        # any later sentinel touch comes from a shard-1 task in flight
        if os.path.exists(sentinel):
            os.remove(sentinel)
        while not os.path.exists(sentinel):
            assert proc.poll() is None, "child finished before the kill landed"
            assert _time.time() < deadline, "timed out waiting for shard 1"
            _time.sleep(0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    assert os.path.isfile(m0), "shard 0 manifest must survive the kill"
    assert not os.path.isfile(os.path.join(out, "_MANIFEST", "shard-1.json")), (
        "kill was meant to land before shard 1 completed"
    )

    stats = run_kg_job(in_dir, out, mini, num_shards=2)
    assert stats["shards_skipped"] == 1 and stats["shards_run"] == 1
    pd.testing.assert_frame_equal(ref, _triples(out))


def _earlier_spec(dag, cfg) -> str:
    """A parquet shard's manifest spec, spelled out field by field as
    existing out dirs carry it: the job identity must keep this exact
    string, field order included, or those dirs stop skipping."""
    sem = (dag.fingerprint, cfg.param1, cfg.param2, cfg.param3,
           cfg.use_longest, cfg.use_step_3, cfg.use_model_standins,
           cfg.model_dir, cfg.ner_path, cfg.triples_drop_negated)
    return "|job:" + "|".join(str(x) for x in sem)


def test_rerun_over_earlier_manifests_skips_every_shard(mini, sf_small, tmp_path):
    """An out dir whose manifests carry the field-by-field job identity
    re-runs as a full skip."""
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.state.manifest import write_manifest

    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "o")
    cfg = PipelineConfig(param3=0.85, use_longest=False)
    run_kg_job(src, out, mini, cfg, num_shards=2)
    before = read_manifests(out)
    for m in before:
        write_manifest(out, m["shard"], m["input_paths"], m["row_count"],
                       m["content_hash"], spec=_earlier_spec(mini, cfg),
                       metrics=m["metrics"])
    assert read_manifests(out) == before
    stats = run_kg_job(src, out, mini, cfg, num_shards=2)
    assert stats["shards_run"] == 0 and stats["shards_skipped"] == 2


def test_every_output_field_changes_the_job_identity(mini):
    """Flipping any one output field changes both the KG job identity and
    the worker state key; the sizing fields change neither."""
    import dataclasses

    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.pipelines.annotate import _job_identity
    from phenobert_ray.stages.annotate import _state_key

    sizing = {"annotate_batch_size": 7, "annotate_num_cpus": 0.25}
    flips = {"param1": 0.5, "param2": 0.5, "param3": 0.5, "use_longest": False,
             "use_step_3": False, "use_model_standins": True,
             "model_dir": "/m", "ner_path": "/m/ner.pt",
             "triples_drop_negated": False}
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert set(PipelineConfig.OUTPUT_FIELDS) == set(flips) == fields - set(sizing)
    base = PipelineConfig()
    for name, value in flips.items():
        cfg = dataclasses.replace(base, **{name: value})
        assert _job_identity(mini, cfg) != _job_identity(mini, base), name
        assert (_state_key(mini.fingerprint, cfg)
                != _state_key(mini.fingerprint, base)), name
    sized = dataclasses.replace(base, **sizing)
    assert _job_identity(mini, sized) == _job_identity(mini, base)
    assert _state_key(mini.fingerprint, sized) == _state_key(mini.fingerprint, base)
