"""Flagship pipeline: transcript turns → annotations → KG triples.

Lifecycle (SURVEY.md §3, re-expressed Ray-Data-first):
  driver builds/broadcasts the ontology asset →
  ``read_parquet`` (column-pruned) → fused annotate operator
  (``map_batches``) with the Arrow (conv_id, hpo_id) combiner in the same
  task → one Arrow merge per shard (``repartition(1)``, no exchange) →
  triples ∪ is_a edges → partitioned parquet + lineage manifests.

Everything is lazy/streaming until a sink consumes it.
"""

from __future__ import annotations

import os

import ray

from ..assets.hpo_dag import HpoDag
from ..config import PipelineConfig
from ..stages.annotate import annotate_turns
from ..state.sharded import run_sharded, shard_content_hash
from ..transcripts import synthesize_turns_batch
from .triples import has_phenotype_triples, materialize_triples, write_is_a


def annotations_from_turns(turns_ds, dag: HpoDag, cfg: PipelineConfig | None = None):
    return annotate_turns(turns_ds, dag, cfg)


def kg_from_turns(turns_ds, dag: HpoDag, cfg: PipelineConfig | None = None):
    return materialize_triples(annotate_turns(turns_ds, dag, cfg), dag, cfg)


def _job_identity(dag: HpoDag, cfg: PipelineConfig) -> str:
    """Semantic identity of a KG run beyond its input bytes: the ontology
    content and every config field that changes the OUTPUT (not sizing).
    Folded into each shard's manifest spec so a re-run with a new ontology
    release or different thresholds on a reused out_dir invalidates every
    shard instead of silently skipping them."""
    sem = (dag.fingerprint, cfg.param1, cfg.param2, cfg.param3,
           cfg.use_longest, cfg.use_step_3, cfg.use_model_standins,
           cfg.model_dir, cfg.ner_path, cfg.triples_drop_negated)
    return "|".join(str(x) for x in sem)


def _run_shards(shard_specs, make_turns, out_dir, dag, cfg) -> dict:
    """KG-specific wrapper over the generic resumable sharded writer
    (state/sharded.run_sharded): adds the write-then-rename ontology dir."""
    job_id = _job_identity(dag, cfg)
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
        return has_phenotype_triples(annotate_turns(make_turns(paths, expr), dag, cfg), cfg)

    specs = [(paths, f"{spec}|job:{job_id}", expr)
             for paths, spec, expr in shard_specs]
    return run_sharded(specs, build, out_dir,
                       content_cols=["subj", "pred", "obj"])


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
) -> dict:
    """Resumable KG build over an arbitrary turns parquet file/dir
    (input_hint schema).  Shards by parquet fragment; a single-file input
    runs as one shard."""
    cfg = cfg or PipelineConfig()
    import pyarrow.dataset as pads

    frags = [f.path for f in pads.dataset(turns_path).get_fragments()]
    specs = shard_fragments(frags, min(num_shards, len(frags)))

    def make_turns(paths, expr):
        from ..stages.shuffle import drop_null_rows

        # null contract: only the load-bearing turn columns may drop a row
        return drop_null_rows(ray.data.read_parquet(paths),
                              columns=["conv_id", "turn_idx", "text"])

    return _run_shards(specs, make_turns, out_dir, dag, cfg)


def _doc_id_bounds(frags: list[str]) -> tuple[int, int]:
    """min/max doc_id from parquet ROW-GROUP STATISTICS (footer metadata
    only — never scans the column; the stats exist because parquet writers
    emit them by default).  Falls back to a real column scan only for files
    whose footer lacks min/max."""
    import pyarrow.parquet as pq

    mn = mx = None
    for p in frags:
        md = pq.ParquetFile(p).metadata
        names = [md.schema.column(i).name for i in range(md.num_columns)]
        ci = names.index("doc_id")
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ci).statistics
            if st is None or not st.has_min_max:
                # statistics-less footer: ONE full-column scan covers the
                # whole file, so stop iterating its row groups
                import pyarrow.dataset as pads
                import pyarrow.compute as pc_

                col = pads.dataset(p).to_table(columns=["doc_id"]).column("doc_id")
                lo, hi = pc_.min(col).as_py(), pc_.max(col).as_py()
                if lo is None:  # zero-row / all-null file
                    break
            else:
                lo, hi = st.min, st.max
            mn = lo if mn is None else min(mn, lo)
            mx = hi if mx is None else max(mx, hi)
            if st is None or not st.has_min_max:
                break
    return mn, mx


def run_job(
    sf_dir: str,
    out_dir: str,
    dag: HpoDag,
    cfg: PipelineConfig | None = None,
    num_shards: int = 4,
) -> dict:
    """Resumable KG build over ``{sf_dir}/documents.parquet``-derived turns.

    Input fragments are hashed into ``num_shards`` groups; each group runs as
    its own streaming pipeline writing ``out_dir/shard=K/`` + a lineage
    manifest.  A killed run resumes by skipping completed shards
    (deterministic stages ⇒ identical triples; see tests/test_resume.py).
    """
    cfg = cfg or PipelineConfig()
    import pyarrow.dataset as pads

    src = pads.dataset(os.path.join(sf_dir, "documents.parquet"))
    frags = sorted(f.path for f in src.get_fragments())

    def make_turns(paths, expr):
        from ..stages.shuffle import drop_null_rows

        read_kwargs = {"columns": ["doc_id", "text"]}
        if expr is not None:
            read_kwargs["filter"] = expr
        return drop_null_rows(
            ray.data.read_parquet(paths, **read_kwargs)
        ).map_batches(synthesize_turns_batch, batch_format="pyarrow")

    # shard spec: groups of fragments when there are enough files (the 100 TB
    # layout), else contiguous doc_id ranges within the single file (pushed
    # down as a parquet read filter).
    shard_specs: list[tuple[list[str], str, object]] = []
    if len(frags) >= num_shards:
        shard_specs = shard_fragments(frags, num_shards)
    else:
        mn, mx = _doc_id_bounds(frags)
        if mn is None:  # zero-row input: one empty shard, not a TypeError
            shard_specs = [(frags, "range:empty", None)]
        else:
            step = (mx - mn + num_shards) // num_shards
            for k in range(num_shards):
                a, b = mn + k * step, mn + (k + 1) * step
                expr = (pads.field("doc_id") >= a) & (pads.field("doc_id") < b)
                shard_specs.append((frags, f"range:{a}:{b}", expr))

    return _run_shards(shard_specs, make_turns, out_dir, dag, cfg)
