"""Model-path KG output (``-m builtin`` over the shipped ontology) is pinned:
the same ``_MANIFEST`` rows and content hash for every annotate batch size
and shard count, equal to a literal recorded before the annotate operator
ran its model path on every CPU."""

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
# _MANIFEST (row_count, content_hash) per shard, recorded while the
# annotate stage still bundled a shard's turns into one batch on one CPU.
# Two shards dedup per shard, so conversations straddling them add rows.
PINNED = {1: [(76, "bf3dcee00be0508c")],
          2: [(38, "1f0f908be39f3611"), (41, "a1506afb45901a13")]}


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


def _manifests(out: str) -> list[tuple[int, str]]:
    return [(m["row_count"], m["content_hash"]) for m in read_manifests(out)]


def test_model_kg_pinned_across_batch_size_and_shards(shipped, turns_dir, tmp_path):
    for shards, bs in [(1, 256), (1, 96), (1, 1), (2, 256), (2, 1)]:
        out = str(tmp_path / f"s{shards}-bs{bs}")
        stats = run_kg_job(turns_dir, out, shipped,
                           _builtin_cfg(annotate_batch_size=bs), num_shards=shards)
        assert stats["shards_run"] == shards
        assert _manifests(out) == PINNED[shards], (shards, bs)
