"""Model-path KG output (``-m builtin`` over the shipped ontology) is pinned:
the same ``_MANIFEST`` rows and content hash for every annotate batch size
and shard count, equal to a literal recorded before the annotate operator
ran its model path on every CPU.  Triples are also identical across
fragment count, batch size and shard count on both the dictionary and the
``-m builtin`` path."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from phenobert_ray.assets.loader import trained_model_dir
from phenobert_ray.config import PipelineConfig
from phenobert_ray.pipelines.annotate import run_kg_job
from phenobert_ray.state.manifest import read_manifests

pytestmark = pytest.mark.skipif(trained_model_dir() is None,
                                reason="no packaged trained weights")

FRAGMENTS = 8
# _MANIFEST (row_count, content_hash) per shard.  The one-shard literal was
# recorded while the annotate stage still bundled a shard's turns into one
# batch on one CPU.  Two shards split the job's one distinct set by
# conversation hash, so their rows and hashes add up to it
# (test_two_shard_pins_partition_one_shard).
PINNED = {1: [(76, "bf3dcee00be0508c")],
          2: [(52, "216ab0406f652c95"), (24, "9dd31e9f9c7b23f7")]}


@pytest.fixture(scope="module")
def shipped():
    from phenobert_ray.assets.hpo_dag import HpoDag

    with open(os.path.join(trained_model_dir(), "DAG.json"),
              encoding="utf-8") as f:
        return HpoDag(json.load(f))


def _builtin_cfg(**kw) -> PipelineConfig:
    """The CLI's ``-m builtin`` configuration."""
    return PipelineConfig(param1=0.95, param2=0.9, use_model_standins=True,
                          model_dir=trained_model_dir(), **kw)


def _turns(dag, n: int = 96) -> pa.Table:
    """Note-like turns: exact names, names with a word dropped or swapped
    (only the scorer can place those), negations and filler.  Twelve
    conversations, each straddling fragments."""
    names = sorted(dag.name_of[h] for h in dag.abnormality_nt)[::97][:64]
    texts = []
    for i in range(n):
        a = names[i % len(names)].lower()
        b = names[(7 * i + 3) % len(names)].lower().split()
        c = names[(5 * i + 1) % len(names)].lower()
        near = " ".join(b[1:] if len(b) > 2 else b[::-1])
        texts.append(f"On exam the patient had {a}. Family notes {near} "
                     f"since birth. There is no {c}. Follow up in {i % 9 + 1} "
                     "weeks.")
    return pa.table({
        "conv_id": pa.array([f"note-{i % 12}" for i in range(n)], pa.string()),
        "turn_idx": pa.array([i // 12 for i in range(n)], pa.int32()),
        "text": pa.array(texts, pa.string()),
    })


@pytest.fixture(scope="module")
def turns_dir(shipped, tmp_path_factory):
    d = tmp_path_factory.mktemp("model_turns")
    t = _turns(shipped)
    step = -(-t.num_rows // FRAGMENTS)
    for k in range(FRAGMENTS):
        pq.write_table(t.slice(k * step, step), d / f"part-{k}.parquet")
    return str(d)


def test_two_shard_pins_partition_one_shard():
    (rows, digest), = PINNED[1]
    assert sum(n for n, _ in PINNED[2]) == rows
    assert sum(int(h, 16) for _, h in PINNED[2]) % (1 << 64) == int(digest, 16)


def _manifests(out: str) -> list[tuple[int, str]]:
    return [(m["row_count"], m["content_hash"]) for m in read_manifests(out)]


def test_model_kg_pinned_across_batch_size_and_shards(shipped, turns_dir, tmp_path):
    for shards, bs in [(1, 256), (1, 96), (1, 1), (2, 256), (2, 1)]:
        out = str(tmp_path / f"s{shards}-bs{bs}")
        stats = run_kg_job(turns_dir, out, shipped,
                           _builtin_cfg(annotate_batch_size=bs), num_shards=shards)
        assert stats["shards_run"] == shards
        assert _manifests(out) == PINNED[shards], (shards, bs)


# (fragments, annotate_batch_size, num_shards): every pair of values of
# two axes appears in some run
LAYOUTS = [(1, 256, 1), (1, 1, 2), (1, 256, 4),
           (4, 1, 1), (4, 256, 2), (4, 1, 4),
           (8, 256, 1), (8, 1, 2), (8, 256, 4)]


@pytest.mark.parametrize("path", ["dictionary", "builtin"])
def test_triples_identical_across_layouts(shipped, tmp_path, path):
    """The same turns in 1, 4 or 8 fragments, annotated 1 or 256 turns per
    call and written to 1, 2 or 4 shards, give identical triples with no
    ``(conv_id, hpo_id)`` twice."""
    import glob

    t = _turns(shipped)
    ref = None
    for frags, bs, shards in LAYOUTS:
        d = tmp_path / f"in-{frags}-{bs}-{shards}"
        d.mkdir()
        step = -(-t.num_rows // frags)
        for k in range(frags):
            pq.write_table(t.slice(k * step, step), d / f"part-{k}.parquet")
        cfg = (_builtin_cfg(annotate_batch_size=bs) if path == "builtin"
               else PipelineConfig(annotate_batch_size=bs))
        out = str(tmp_path / f"out-{frags}-{bs}-{shards}")
        stats = run_kg_job(str(d), out, shipped, cfg, num_shards=shards)
        assert stats["fragments_run"] == frags
        assert stats["shards_run"] == len(read_manifests(out)) == min(frags, shards)
        written = pa.concat_tables(
            pq.read_table(f) for f in glob.glob(os.path.join(out, "shard=*", "*.parquet")))
        rows = sorted(zip(*(written[c].to_pylist() for c in written.column_names)))
        pairs = [(s.rsplit(":", 1)[0], o) for s, _, o, _, _ in rows]
        assert len(set(pairs)) == len(pairs) > 0, (frags, bs, shards)
        if ref is None:
            ref = rows
        assert rows == ref, (frags, bs, shards)
