"""Flagship pipeline: transcript turns → annotations → KG triples.

Lifecycle (SURVEY.md §3, re-expressed Ray-Data-first):
  driver builds/broadcasts the ontology asset →
  ``read_parquet`` (column-pruned) → fused annotate operator
  (``map_batches``) with the Arrow (conv_id, hpo_id) combiner in the same
  task → one Arrow merge per shard (``repartition(1)``, no exchange) →
  triples ∪ is_a edges → partitioned parquet + lineage manifests.

Everything is lazy/streaming until a sink consumes it.  ``run_kg_job`` is
the one KG writer, for every input format.
"""

from __future__ import annotations

import os

import ray

from ..assets.hpo_dag import HpoDag
from ..config import PipelineConfig
from ..stages.annotate import annotate_turns, carries_model
from ..state.sharded import run_sharded
from .triples import has_phenotype_triples, materialize_triples, write_is_a


def kg_from_turns(turns_ds, dag: HpoDag, cfg: PipelineConfig | None = None):
    return materialize_triples(annotate_turns(turns_ds, dag, cfg), dag, cfg)


def read_turns_input(src, input_format: str = "parquet"):
    """Turns Dataset from ``src``: a parquet file/dir (or fragment list), a
    jsonl file/dir (or file list), or a directory of text files.  Parquet
    and jsonl apply the read-boundary null contract: only the load-bearing
    turn columns may drop a row (a NULL text otherwise crashes the annotate
    kernel on one bad row)."""
    from ..stages.shuffle import drop_null_rows

    if input_format == "textdir":
        from ..sources.loaders import read_text_dir_as_turns

        return ray.data.from_arrow(read_text_dir_as_turns(src))
    if input_format == "jsonl":
        from ..sources.loaders import read_turns_jsonl

        ds = read_turns_jsonl(src)
    else:
        ds = ray.data.read_parquet(src)
    return drop_null_rows(ds, columns=["conv_id", "turn_idx", "text"])


def _input_files(path: str, input_format: str) -> list[str]:
    """The files a textdir/jsonl input is read from: every entry of a text
    directory (as ``read_text_dir_as_turns`` lists it), or the visible
    files under a jsonl directory (Ray's reader skips ``.``/``_`` names)."""
    if os.path.isfile(path):
        return [path]
    if input_format == "textdir":
        return [os.path.join(path, n) for n in sorted(os.listdir(path))]
    return sorted(os.path.join(d, n) for d, _, names in os.walk(path)
                  for n in names if not n.startswith((".", "_")))


def _job_identity(dag: HpoDag, cfg: PipelineConfig) -> str:
    """Semantic identity of a KG run beyond its input bytes: the ontology
    content and every config field that changes the OUTPUT (not sizing).
    Folded into each shard's manifest spec so a re-run with a new ontology
    release or different thresholds on a reused out_dir invalidates every
    shard instead of silently skipping them."""
    return "|".join(str(x) for x in (dag.fingerprint, *cfg.output_identity()))


def shard_fragments(frags: list[str], num_shards: int):
    """Group input fragments round-robin into shard specs."""
    groups: list[list[str]] = [[] for _ in range(num_shards)]
    for i, p in enumerate(sorted(frags)):
        groups[i % num_shards].append(p)
    return [(g, "", None) for g in groups if g]


def run_kg_job(
    turns_path: str,
    out_dir: str,
    dag: HpoDag,
    cfg: PipelineConfig | None = None,
    num_shards: int = 4,
    input_format: str = "parquet",
) -> dict:
    """Resumable KG build: ``out_dir/shard=K/`` has_phenotype triples with
    ``_MANIFEST/shard-K.json`` lineage per shard (state/sharded.run_sharded),
    and the is_a edges in ``ontology/`` + ``ontology.fingerprint``.

    Parquet input (input_hint schema) shards by fragment, so a single-file
    input runs as one shard.  ``textdir`` and ``jsonl`` input run as one
    shard whose input paths are the files the loader reads, so an edited
    file re-runs it."""
    cfg = cfg or PipelineConfig()
    if input_format == "parquet":
        import pyarrow.dataset as pads

        frags = [f.path for f in pads.dataset(turns_path).get_fragments()]
        specs = shard_fragments(frags, min(num_shards, len(frags)))
    else:
        specs = [(_input_files(turns_path, input_format), input_format, None)]

    isa_dir = os.path.join(out_dir, "ontology")
    # marker lives BESIDE the parquet dir (directory readers must see only
    # parquet inside), and is written only after the rename lands — a kill
    # between the two leaves a missing/stale marker and forces a rewrite
    isa_marker = isa_dir + ".fingerprint"
    fresh = (os.path.isdir(isa_dir) and os.path.isfile(isa_marker)
             and open(isa_marker).read().strip() == dag.fingerprint)
    if not fresh:
        import shutil

        tmp_dir = isa_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        write_is_a(dag, tmp_dir)
        if os.path.isfile(isa_marker):
            os.remove(isa_marker)
        shutil.rmtree(isa_dir, ignore_errors=True)
        os.rename(tmp_dir, isa_dir)
        with open(isa_marker + ".tmp", "w") as f:
            f.write(dag.fingerprint)
        os.replace(isa_marker + ".tmp", isa_marker)

    def build(paths, expr):
        # the text-dir loader lists its directory itself
        src = turns_path if input_format == "textdir" else paths
        turns = read_turns_input(src, input_format)
        if carries_model(cfg):
            # Ray Data reserves each operator its own CPU share, which
            # keeps the annotate operator on one CPU.  Ray gives every read
            # a copy of the global DataContext, so lifting the reservation
            # here touches only this shard's lineage.
            turns.context.op_resource_reservation_enabled = False
        return has_phenotype_triples(annotate_turns(turns, dag, cfg), cfg)

    job_id = _job_identity(dag, cfg)
    specs = [(paths, f"{spec}|job:{job_id}", expr) for paths, spec, expr in specs]
    return run_sharded(specs, build, out_dir, content_cols=["subj", "pred", "obj"])
