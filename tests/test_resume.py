"""Checkpoint/resume invariant: a killed run resumed from manifests
produces identical triples (north rule; BASELINE.md targets)."""

import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

from phenobert_ray.pipelines.annotate import run_kg_job
from phenobert_ray.state.manifest import (
    partial_path,
    read_manifests,
    read_partial_manifests,
)


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
    """Surgery on one output shard (dir and manifest gone) re-writes just
    that shard from the kept fragment partials: nothing is re-annotated."""
    src = _turns_dir(sf_small, tmp_path)
    full = str(tmp_path / "full")
    run_kg_job(src, full, mini, num_shards=2)
    assert len(read_manifests(full)) == 2
    ref = _triples(full)

    partial = str(tmp_path / "partial")
    run_kg_job(src, partial, mini, num_shards=2)
    # drop shard 1's output + manifest → the "crash"
    shutil.rmtree(os.path.join(partial, "shard=1"))
    os.remove(os.path.join(partial, "_MANIFEST", "shard-1.json"))
    stats = run_kg_job(src, partial, mini, num_shards=2)
    assert stats["shards_skipped"] == 1 and stats["shards_run"] == 1
    assert stats["fragments_run"] == 0 and stats["fragments_skipped"] == 4

    pd.testing.assert_frame_equal(ref, _triples(partial))


def test_manifest_contents(mini, sf_small, tmp_path):
    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "m")
    run_kg_job(src, out, mini, num_shards=1)
    (m,) = read_manifests(out)
    assert m["row_count"] > 0
    assert m["input_fingerprint"]
    assert m["content_hash"]
    assert m["input_paths"] == sorted(
        os.path.join(src, f"part-{k}.parquet") for k in range(4))
    # one manifest per input fragment, beside its partial, outside _MANIFEST
    frags = read_partial_manifests(out)
    assert sorted(p for f in frags for p in f["input_paths"]) == m["input_paths"]
    for f in frags:
        part = pq.read_table(partial_path(out, f["unit"]))
        assert f["row_count"] == part.num_rows
        assert f["n_mentions"] == sum(part["n_mentions"].to_pylist())
    assert sum(f["row_count"] for f in frags) >= m["row_count"]
    # second run is a full skip
    stats = run_kg_job(src, out, mini, num_shards=1)
    assert stats == {
        "shards_run": 0, "shards_skipped": 1, "rows": 0, "shards_pruned": 0,
        "fragments_run": 0, "fragments_skipped": 4, "annotate_tasks": 0,
    }


def test_resume_cleans_partial_shard(mini, sf_small, tmp_path):
    """A kill mid-merge leaves a shard's files WITHOUT a manifest; the
    re-run must replace them (not append next to them) or the shard
    doubles up — and it re-annotates nothing."""
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
    assert stats["fragments_run"] == 0
    pd.testing.assert_frame_equal(ref, _triples(crashed))


def test_rerun_with_fewer_shards_prunes_stale(mini, sf_small, tmp_path):
    """Re-running with a smaller --shards must remove the previous run's
    higher-indexed shard dirs + manifests, or readers of out_dir see the
    same triples twice (stale shard=K next to the fresh layout).  The new
    split reuses every fragment partial."""
    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "shrink")
    run_kg_job(src, out, mini, num_shards=4)
    ref4 = _triples(out)
    stats = run_kg_job(src, out, mini, num_shards=2)
    assert stats["shards_pruned"] == 2
    assert stats["fragments_run"] == 0 and stats["shards_run"] == 2
    assert not os.path.isdir(os.path.join(out, "shard=2"))
    assert not os.path.exists(os.path.join(out, "_MANIFEST", "shard-3.json"))
    assert len(read_manifests(out)) == 2
    # triples identical regardless of shard count
    pd.testing.assert_frame_equal(ref4, _triples(out))


def test_modified_input_same_size_invalidates(mini, sf_small, tmp_path):
    """An input file rewritten in place with the SAME byte length must not
    be silently skipped on resume (fingerprint folds in mtime_ns): that
    one fragment is re-annotated, and the output equals a fresh run."""
    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "out")
    run_kg_job(src, out, mini, num_shards=2)
    part = os.path.join(src, "part-3.parquet")
    os.utime(part, ns=(os.stat(part).st_atime_ns,
                       os.stat(part).st_mtime_ns + 1_000_000))
    stats = run_kg_job(src, out, mini, num_shards=2)
    assert stats["fragments_run"] == 1 and stats["fragments_skipped"] == 3
    assert stats["shards_run"] == 2
    fresh = str(tmp_path / "fresh")
    run_kg_job(src, fresh, mini, num_shards=2)
    pd.testing.assert_frame_equal(_triples(fresh), _triples(out))


@pytest.mark.parametrize("name", ["part-9.parquet", "part-0.parquet"])
def test_added_fragment_annotates_only_itself(mini, sf_small, tmp_path, name):
    """A fragment appended after (part-9) or inserted before (part-0) the
    others is the only one annotated on the re-run; the kept partials are
    not rewritten, and the output equals a fresh run over all fragments.
    The new fragment's conversations straddle the old ones."""
    t = _turns_table(sf_small)
    step = -(-t.num_rows // 5)
    d = tmp_path / "turns"
    os.makedirs(d)
    for k in range(1, 5):
        pq.write_table(t.slice(k * step, step), d / f"part-{k}.parquet")
    out = str(tmp_path / "out")
    run_kg_job(str(d), out, mini, num_shards=2)
    kept = {m["unit"]: os.stat(partial_path(out, m["unit"])).st_mtime_ns
            for m in read_partial_manifests(out)}

    pq.write_table(t.slice(0, step), d / name)
    stats = run_kg_job(str(d), out, mini, num_shards=2)
    assert stats["fragments_run"] == 1 and stats["fragments_skipped"] == 4
    assert {u: os.stat(partial_path(out, u)).st_mtime_ns for u in kept} == kept
    (new,) = [m for m in read_partial_manifests(out) if m["unit"] not in kept]
    assert new["input_paths"] == [str(d / name)]
    fresh = str(tmp_path / "fresh")
    run_kg_job(str(d), fresh, mini, num_shards=2)
    pd.testing.assert_frame_equal(_triples(fresh), _triples(out))


def test_zero_row_shard_does_not_crash(mini, sf_small, tmp_path):
    """A zero-row input fragment yields a zero-row partial with a manifest
    (rows=0) instead of a crash, the output still has its four shards, and
    resume skips every fragment and shard."""
    t = _turns_table(sf_small)
    d = _write_files(t, tmp_path / "sparse", 3)
    pq.write_table(t.slice(0, 0), os.path.join(d, "part-3.parquet"))

    out = str(tmp_path / "out")
    stats = run_kg_job(d, out, mini, num_shards=4)
    assert stats["shards_run"] == 4 and stats["fragments_run"] == 4
    frags = {m["input_paths"][0]: m for m in read_partial_manifests(out)}
    assert [frags[os.path.join(d, f"part-{k}.parquet")]["row_count"] == 0
            for k in range(4)] == [False, False, False, True]
    assert sum(m["row_count"] for m in read_manifests(out)) == stats["rows"] > 0
    stats2 = run_kg_job(d, out, mini, num_shards=4)
    assert stats2["shards_run"] == 0 and stats2["shards_skipped"] == 4
    assert stats2["fragments_run"] == 0 and stats2["fragments_skipped"] == 4


def test_lost_data_dir_triggers_rebuild(mini, sf_small, tmp_path):
    """A manifest whose shard data directory is gone must NOT be skipped —
    that would silently drop the partition's rows (review r4).  The shard
    is rebuilt from the kept partials."""
    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "o")
    run_kg_job(src, out, mini, num_shards=2)
    ref = _triples(out)
    shutil.rmtree(os.path.join(out, "shard=1"))  # manifest survives
    stats = run_kg_job(src, out, mini, num_shards=2)
    assert stats["shards_run"] == 1 and stats["shards_skipped"] == 1
    assert stats["fragments_run"] == 0
    pd.testing.assert_frame_equal(ref, _triples(out))


def test_changed_ontology_invalidates_all_shards(mini, sf_small, tmp_path):
    """Re-running with a different ontology on a reused out_dir must
    re-annotate every fragment, re-run every shard AND rewrite the is_a
    edges (review r4)."""
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
    assert stats["shards_run"] == 0 and stats["fragments_run"] == 0
    stats2 = run_kg_job(src, out, dag2, num_shards=2)
    assert stats2["shards_run"] == 2 and stats2["shards_skipped"] == 0
    assert stats2["fragments_run"] == 4 and stats2["fragments_skipped"] == 0
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
    (f,) = read_partial_manifests(out)
    assert (f["row_count"], f["n_mentions"]) == (0, 0)
    stats2 = run_kg_job(str(d), out, mini, num_shards=4)
    assert stats2["shards_run"] == 0 and stats2["shards_skipped"] == 1
    assert stats2["fragments_run"] == 0


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiled_input(sf_small, tmp_path) -> str:
    """30 renamed copies of the small corpus in 8 fragments: enough
    batches that a kill reliably lands inside the job."""
    import pyarrow.compute as pc

    base = _turns_table(sf_small)
    tiles = [base.set_column(0, "conv_id", pc.binary_join_element_wise(
                 f"t{i}", base.column("conv_id"), "-"))
             for i in range(30)]
    return _write_files(pa.concat_tables(tiles), tmp_path / "in", 8)


def _kill_when(hook: str, in_dir: str, out: str, sentinel: str) -> None:
    """Run ``run_kg_job(in_dir, out, mini_dag(), num_shards=2)`` in a child
    process whose module source is patched by ``hook`` (it touches
    ``sentinel`` from inside the job), and SIGKILL the child's process
    group once the sentinel appears.  The kill timing is deterministic,
    not sleep-tuned: the hook marks a point the job is known to be in."""
    import signal
    import subprocess
    import sys
    import time as _time

    child_src = (
        "import ray\n"
        "ray.init(address='local', num_cpus=4, include_dashboard=False,\n"
        "         logging_level='ERROR')\n"
        "import pathlib, time\n"
        "import phenobert_ray.pipelines.annotate as A\n"
        "from phenobert_ray.assets.mini_hpo import mini_dag\n"
        f"SENTINEL = {sentinel!r}\n"
        + hook +
        f"A.run_kg_job({in_dir!r}, {out!r}, mini_dag(), num_shards=2)\n"
    )
    # new session => new process group: SIGKILL takes the child's private
    # raylet tree down with it, not the test session's
    proc = subprocess.Popen(
        [sys.executable, "-c", child_src],
        cwd=_REPO, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "RAY_ADDRESS": "local"},
    )
    deadline = _time.time() + 300
    try:
        while not os.path.exists(sentinel):
            assert proc.poll() is None, "child exited before the hook ran"
            assert _time.time() < deadline, "timed out waiting for the hook"
            _time.sleep(0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_kill_mid_annotate_resumes_identical(mini, sf_small, tmp_path):
    """SIGKILL the driver while the job's one Ray Data plan is annotating:
    the child wraps ``annotate_turns`` (the call ``run_kg_job`` makes)
    with a stage whose tasks touch a sentinel and dawdle per batch.  No
    fragment partial has a manifest yet, so the resume annotates every
    fragment, and the triples match a never-killed run."""
    in_dir = _tiled_input(sf_small, tmp_path)
    ref_dir = str(tmp_path / "ref")
    run_kg_job(in_dir, ref_dir, mini, num_shards=2)
    ref = _triples(ref_dir)

    out = str(tmp_path / "killed")
    hook = (
        "_orig = A.annotate_turns\n"
        "def _slowed(ds, dag, cfg=None):\n"
        "    def mark(b):\n"
        "        import pathlib, time\n"
        "        pathlib.Path(SENTINEL).touch()\n"
        "        time.sleep(0.3)\n"
        "        return b\n"
        "    return _orig(ds.map_batches(mark, batch_format='pyarrow',\n"
        "                                batch_size=256), dag, cfg)\n"
        "A.annotate_turns = _slowed\n"
    )
    _kill_when(hook, in_dir, out, str(tmp_path / "IN_ANNOTATE"))
    assert read_partial_manifests(out) == []
    assert read_manifests(out) == []

    stats = run_kg_job(in_dir, out, mini, num_shards=2)
    assert stats["fragments_run"] == 8 and stats["fragments_skipped"] == 0
    assert stats["shards_run"] == 2
    pd.testing.assert_frame_equal(ref, _triples(out))


def test_kill_mid_merge_resumes_identical(mini, sf_small, tmp_path):
    """SIGKILL the driver while the merge writes its output: the child
    wraps ``write_shard`` to stall after shard 1's files land, before its
    manifest.  Every fragment partial is done, so the resume annotates
    nothing, keeps shard 0, replaces shard 1's orphaned files, and the
    triples match a never-killed run."""
    in_dir = _tiled_input(sf_small, tmp_path)
    ref_dir = str(tmp_path / "ref")
    run_kg_job(in_dir, ref_dir, mini, num_shards=2)
    ref = _triples(ref_dir)

    out = str(tmp_path / "killed")
    hook = (
        "_orig = A.write_shard\n"
        "def _stalled(out_dir, k, table):\n"
        "    _orig(out_dir, k, table)\n"
        "    if k == 1:\n"
        "        pathlib.Path(SENTINEL).touch()\n"
        "        time.sleep(600)\n"
        "A.write_shard = _stalled\n"
    )
    _kill_when(hook, in_dir, out, str(tmp_path / "IN_MERGE"))
    assert len(read_partial_manifests(out)) == 8
    assert [m["shard"] for m in read_manifests(out)] == [0]
    assert os.listdir(os.path.join(out, "shard=1"))

    stats = run_kg_job(in_dir, out, mini, num_shards=2)
    assert stats["fragments_run"] == 0 and stats["fragments_skipped"] == 8
    assert stats["shards_run"] == 1 and stats["shards_skipped"] == 1
    pd.testing.assert_frame_equal(ref, _triples(out))


def _earlier_spec(dag, cfg) -> str:
    """A parquet fragment's manifest spec, spelled out field by field as
    existing out dirs carry it: the job identity must keep this exact
    string, field order included, or those dirs stop skipping."""
    sem = (dag.fingerprint, cfg.param1, cfg.param2, cfg.param3,
           cfg.use_longest, cfg.use_step_3, cfg.use_model_standins,
           cfg.model_dir, cfg.ner_path, cfg.triples_drop_negated)
    return "|job:" + "|".join(str(x) for x in sem)


def test_rerun_over_earlier_manifests_skips_every_shard(mini, sf_small, tmp_path):
    """An out dir whose fragment manifests carry the field-by-field job
    identity re-runs as a full skip: no fragment, no shard."""
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.state.manifest import partial_key, write_partial_manifest

    src = _turns_dir(sf_small, tmp_path)
    out = str(tmp_path / "o")
    cfg = PipelineConfig(param3=0.85, use_longest=False)
    run_kg_job(src, out, mini, cfg, num_shards=2)
    before = read_partial_manifests(out)
    assert len(before) == 4
    spec = _earlier_spec(mini, cfg)
    for m in before:
        write_partial_manifest(out, m["unit"], m["input_paths"], spec,
                               partial_key(m["input_paths"], spec),
                               m["row_count"], m["n_mentions"])
    assert read_partial_manifests(out) == before
    stats = run_kg_job(src, out, mini, cfg, num_shards=2)
    assert stats["fragments_run"] == 0 and stats["fragments_skipped"] == 4
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
