"""Flagship pipeline: transcript turns → annotations → KG triples.

Lifecycle (SURVEY.md §3, re-expressed Ray-Data-first):
  driver builds/broadcasts the ontology asset → ``ParquetTurnsDatasource``
  (planned from the parquet footers on the driver: column-pruned, one
  even row range per annotate slot) → one fused operator per slot's
  task: read → annotate (``map_batches``) → Arrow (conv_id, hpo_id)
  combiner → its partial block streams to the driver (no gather, no
  exchange), which merges per input fragment, keeps each fragment's
  partial, merges every partial once → has_phenotype triples split by
  conversation hash ∪ is_a edges → parquet + lineage manifests.

Everything is lazy/streaming until a sink consumes it.  ``run_kg_job`` is
the one KG writer, for every input format, and runs one Ray Data
execution per job.
"""

from __future__ import annotations

import bisect
import itertools
import os
from typing import NamedTuple

import pyarrow as pa
import ray
from ray.data import Datasource, ReadTask
from ray.data.block import BlockMetadata

from ..assets.hpo_dag import HpoDag
from ..config import PipelineConfig
from ..stages.annotate import annotate_turns, carries_model
from ..state import manifest as mf
from ..state.sharded import table_content_hash, write_partial, write_shard
from .triples import (
    DEDUP_SCHEMA,
    _conv_hpo_merge,
    _to_triples,
    conv_hpo_partials,
    has_phenotype_triples,
    is_a_triples,
    write_is_a,
)

# the turn columns the KG path reads: the only ones that may drop a row
TURN_COLS = ["conv_id", "turn_idx", "text"]


def kg_from_turns(turns_ds, dag: HpoDag, cfg: PipelineConfig | None = None):
    """Full KG as one lazy Dataset: has_phenotype ∪ is_a.  ``union`` breaks
    streaming, so this serves callers that need one Dataset result (the
    driver queries); ``run_kg_job`` writes the two families separately."""
    ann = annotate_turns(turns_ds, dag, cfg)
    return has_phenotype_triples(ann, cfg).union(is_a_triples(dag))


def read_turns_input(src, input_format: str = "parquet", include_paths: bool = False,
                     num_blocks: int | None = None):
    """Turns Dataset from ``src``: a parquet file/dir (or fragment list), a
    jsonl file/dir (or file list), or a directory of text files.  Parquet
    is read by :class:`ParquetTurnsDatasource`, column-pruned to
    ``TURN_COLS`` (plus each row's fragment as ``path`` with
    ``include_paths``).  Parquet and jsonl apply the read-boundary null
    contract: only the load-bearing turn columns may drop a row (a NULL
    text otherwise crashes the annotate kernel on one bad row).
    ``num_blocks`` sets the read's block count: that many even row ranges
    of a parquet input and row slices of a text dir (never more than
    either has rows), Ray's ``override_num_blocks`` for jsonl; None lets
    Ray choose."""
    from ..stages.shuffle import drop_null_rows

    if input_format == "textdir":
        from ..sources.loaders import read_text_dir_as_turns

        return ray.data.from_arrow(_row_slices(read_text_dir_as_turns(src), num_blocks or 1))
    if input_format == "jsonl":
        from ..sources.loaders import read_turns_jsonl

        return drop_null_rows(read_turns_jsonl(src, num_blocks), columns=TURN_COLS)
    return ParquetTurnsDatasource(src, include_paths).read(num_blocks)


class ParquetTurnsDatasource(Datasource):
    """Turns parquet fragments as ``TURN_COLS`` blocks (plus ``path``, the
    fragment each row came from, with ``include_paths``), one block per
    read task, with the read-boundary null contract applied in the task.

    The read is planned on the driver from the fragments' parquet footers
    and runs no Ray task of its own: ``n`` read tasks take even,
    contiguous row ranges of the fragments' rows in path order, so a job
    fills ``n`` slots whatever its fragment count (a fragment may be split
    between two tasks), and a task reads only the row groups its range
    covers.  A fragment without a turn column fails here, before any
    task runs."""

    def __init__(self, src, include_paths: bool = False):
        import pyarrow.parquet as pq

        if isinstance(src, list):
            paths = [os.path.abspath(p) for p in src]
        else:
            import pyarrow.dataset as pads

            paths = [os.path.abspath(f.path) for f in pads.dataset(src).get_fragments()]
        if not paths:
            raise FileNotFoundError(f"no parquet fragments in {src}")
        self._frags = []  # (path, rows per row group)
        self._size = 0
        schema = None
        for p in paths:
            meta = pq.read_metadata(p)
            schema = schema or meta.schema.to_arrow_schema()
            missing = [c for c in TURN_COLS if c not in meta.schema.names]
            if missing:
                raise ValueError(f"{p}: no turn column {', '.join(missing)}")
            groups = [meta.row_group(k) for k in range(meta.num_row_groups)]
            self._frags.append((p, [g.num_rows for g in groups]))
            self._size += sum(g.total_byte_size for g in groups)
        # every block takes the first fragment's types, as read_parquet did
        fields = [schema.field(c).remove_metadata() for c in TURN_COLS]
        if include_paths:
            fields.append(pa.field("path", pa.string()))
        self._schema = pa.schema(fields)
        self.rows = sum(sum(g) for _, g in self._frags)

    def read_tasks(self, parallelism: int) -> int:
        """The read tasks ``parallelism`` plans: one per row, at most."""
        return max(1, min(parallelism, self.rows))

    def read(self, num_blocks: int | None = None):
        """The Dataset of ``read_tasks(num_blocks)`` blocks (None: Ray
        chooses the parallelism)."""
        return ray.data.read_datasource(
            self, override_num_blocks=num_blocks and self.read_tasks(num_blocks))

    def estimate_inmemory_data_size(self) -> int:
        return self._size

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        n = self.read_tasks(parallelism)
        cuts = [k * self.rows // n for k in range(n + 1)]
        return [self._task(a, b) for a, b in zip(cuts, cuts[1:])]

    def _task(self, a: int, b: int) -> ReadTask:
        """The read task of rows ``[a, b)`` of the fragments in path order:
        per fragment it touches, the row groups and the slice of them."""
        pieces, off = [], 0
        for path, groups in self._frags:
            rows = sum(groups)
            lo, hi = max(a, off) - off, min(b, off + rows) - off
            off += rows
            if lo >= hi:
                continue
            ends = list(itertools.accumulate(groups))
            first = bisect.bisect_right(ends, lo)
            last = bisect.bisect_left(ends, hi)
            pieces.append((path, list(range(first, last + 1)),
                           lo - (ends[first] - groups[first]), hi - lo))
        size = self._size * (b - a) // max(1, self.rows)
        meta = BlockMetadata(num_rows=b - a, size_bytes=size, exec_stats=None,
                             input_files=[p[0] for p in pieces])
        schema = self._schema
        return ReadTask(lambda: [_read_turn_pieces(pieces, schema)], meta, schema)


def _read_turn_pieces(pieces: list, schema: pa.Schema) -> pa.Table:
    """One read task's block: each ``(path, row_groups, skip, rows)``
    piece read column-pruned, sliced, tagged with its ``path`` when the
    schema has one, then the rows with a NULL turn column dropped."""
    import pyarrow.parquet as pq

    from ..stages.shuffle import valid_rows

    parts = []
    for path, row_groups, skip, rows in pieces:
        t = pq.ParquetFile(path).read_row_groups(row_groups, columns=TURN_COLS)
        t = t.select(TURN_COLS).slice(skip, rows)
        if "path" in schema.names:
            t = t.append_column("path", pa.array([path] * t.num_rows, pa.string()))
        parts.append(t.cast(schema))
    return valid_rows(pa.concat_tables(parts) if parts else schema.empty_table(), TURN_COLS)


def _row_slices(t: pa.Table, n: int) -> list[pa.Table]:
    """``t`` as ``n`` contiguous slices of near-equal rows, fewer when it
    has fewer rows (one slice when it has none)."""
    n = max(1, min(n, t.num_rows))
    step, extra = divmod(t.num_rows, n)
    starts = [k * step + min(k, extra) for k in range(n + 1)]
    return [t.slice(a, b - a) for a, b in zip(starts, starts[1:])]


def annotate_slots(cfg: PipelineConfig) -> int:
    """W, the annotate tasks a KG job runs at once: the cluster's CPUs
    over ``annotate_num_cpus`` on a model path, half that (at least one)
    on the dictionary path, where each extra busy worker holds ~180 MB
    (a Ray worker, the ontology and its memo): every CPU measured +26%
    peak RSS on kgperf's kg_chat."""
    if not ray.is_initialized():
        ray.init()
    cpus = ray.cluster_resources().get("CPU", 1)
    slots = int(cpus // cfg.annotate_num_cpus) if cfg.annotate_num_cpus > 0 else int(cpus)
    return max(1, slots if carries_model(cfg) else slots // 2)


def _jsonl_blocks(slots: int, files: int) -> int:
    """Blocks to read a jsonl unit's ``files`` as, one annotate task each:
    ``slots`` when there are at least that many files (Ray packs them into
    ``slots`` fused read tasks), else the largest multiple of ``files``
    not above ``slots`` (Ray's reader splits a file's output only evenly).
    Never more than ``slots``, so the job runs in one wave."""
    return files * (slots // files) if 0 < files < slots else slots


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
    Folded into each fragment's manifest spec so a re-run with a new
    ontology release or different thresholds on a reused out_dir
    re-annotates every fragment instead of silently skipping them."""
    return "|".join(str(x) for x in (dag.fingerprint, *cfg.output_identity()))


def shard_fragments(frags: list[str], num_shards: int):
    """Group input fragments round-robin into ``(paths, spec, expr)`` specs,
    for callers that stage a job's fragments by hand (kgperf's traced
    run).  ``run_kg_job`` resumes per fragment and does not use it."""
    groups: list[list[str]] = [[] for _ in range(num_shards)]
    for i, p in enumerate(sorted(frags)):
        groups[i % num_shards].append(p)
    return [(g, "", None) for g in groups if g]


class _Unit(NamedTuple):
    """A resume unit: one parquet fragment, or a whole textdir/jsonl input."""

    name: str          # file stem of its partial and manifest
    paths: list[str]   # the input files it is read from
    key: str           # input fingerprint folded with the job spec


def _write_ontology(out_dir: str, dag: HpoDag) -> None:
    """``ontology/`` (is_a edges) + ``ontology.fingerprint``, rewritten
    only when the ontology changed."""
    isa_dir = os.path.join(out_dir, "ontology")
    # marker lives BESIDE the parquet dir (directory readers must see only
    # parquet inside), and is written only after the rename lands — a kill
    # between the two leaves a missing/stale marker and forces a rewrite
    isa_marker = isa_dir + ".fingerprint"
    if (os.path.isdir(isa_dir) and os.path.isfile(isa_marker)
            and open(isa_marker).read().strip() == dag.fingerprint):
        return
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


def _annotate_pending(turns_path: str, pending: list[_Unit], dag: HpoDag,
                      cfg: PipelineConfig, input_format: str) -> tuple[dict[str, pa.Table], int]:
    """Each pending unit's distinct ``(conv_id, hpo_id)`` partial
    (DEDUP_SCHEMA), from the job's one Ray Data execution: one fused
    read → annotate → combiner (keyed on the fragment) task per block,
    whose partial blocks stream to the driver and are merged there per
    fragment.  Also returns the annotate tasks the read was sized to: at
    most one per slot (``annotate_slots``)."""
    import pyarrow.compute as pc

    slots = annotate_slots(cfg)
    if input_format == "textdir":
        # the text-dir loader lists its directory itself
        turns = read_turns_input(turns_path, input_format, num_blocks=slots)
        tasks = turns.num_blocks()
    elif input_format == "parquet":
        source = ParquetTurnsDatasource([u.paths[0] for u in pending], include_paths=True)
        turns, tasks = source.read(slots), source.read_tasks(slots)
    else:
        files = [p for u in pending for p in u.paths]
        tasks = _jsonl_blocks(slots, len(files))
        turns = read_turns_input(files, input_format, num_blocks=tasks)
    # Ray Data reserves each operator its own CPU share, which would cap
    # the fused read+annotate operator below ``slots``; the job's own
    # block count caps it instead.  Ray gives every dataset a copy of the
    # global DataContext, so this touches only this job's lineage.
    turns.context.op_resource_reservation_enabled = False
    partials = conv_hpo_partials(annotate_turns(turns, dag, cfg), cfg.triples_drop_negated)
    blocks = [b for b in partials.iter_batches(batch_size=None, batch_format="pyarrow")
              if b.num_rows]
    out = {u.name: DEDUP_SCHEMA.empty_table() for u in pending}
    if not blocks:
        return out, tasks
    merged = _conv_hpo_merge(pa.concat_tables(blocks))
    if "path" not in merged.column_names:  # one textdir/jsonl unit
        return {pending[0].name: _sorted(merged)}, tasks
    # sorted by fragment, each fragment's rows are one slice
    merged = merged.sort_by([("path", "ascending"), ("conv_id", "ascending"),
                             ("hpo_id", "ascending")])
    by_path = {u.paths[0]: u.name for u in pending}
    start = 0
    for run in pc.value_counts(merged["path"]).to_pylist():
        if run["values"] not in by_path:
            # a row no unit claims would silently leave the output
            raise RuntimeError(f"annotated rows from an unread fragment: {run['values']}")
        out[by_path[run["values"]]] = merged.slice(start, run["counts"]).drop_columns(["path"])
        start += run["counts"]
    return out, tasks


def _sorted(pairs: pa.Table) -> pa.Table:
    # a fixed row order makes every written file a function of its rows
    return pairs.sort_by([("conv_id", "ascending"), ("hpo_id", "ascending")])


def _conv_shard(conv_id: pa.ChunkedArray, n: int):
    """Output shard of each row: a process-stable hash of ``conv_id`` (not
    Python's salted ``hash()``) mod ``n``."""
    import pandas as pd

    return pd.util.hash_pandas_object(conv_id.to_pandas(), index=False).to_numpy() % n


def _write_shards(out_dir: str, units: list[_Unit], fresh: dict[str, pa.Table],
                  n: int) -> dict:
    """The merge: every unit's partial (``fresh`` in memory, the rest from
    ``_partials/``) → one distinct set → has_phenotype triples split into
    ``n`` shards by conversation hash.  A shard whose manifest matches the
    partial keys and ``n`` is skipped; when all match, nothing is read."""
    import hashlib

    import pyarrow.parquet as pq

    paths = [p for u in units for p in u.paths]
    keys = ",".join(u.key for u in units)
    spec = f"shards:{n}|partials:{hashlib.sha256(keys.encode()).hexdigest()[:16]}"
    stats = {"shards_run": 0, "shards_skipped": 0, "rows": 0,
             "shards_pruned": mf.prune_stale_shards(out_dir, n)}
    todo = [k for k in range(n) if not mf.shard_done(out_dir, k, paths, spec)]
    stats["shards_skipped"] = n - len(todo)
    if not todo:
        return stats
    parts = [fresh[u.name] if u.name in fresh
             else pq.read_table(mf.partial_path(out_dir, u.name)).cast(DEDUP_SCHEMA)
             for u in units]
    pairs = _sorted(_conv_hpo_merge(pa.concat_tables(parts)))
    triples, shard_of = _to_triples(pairs), _conv_shard(pairs["conv_id"], n)
    for k in todo:
        t = triples.filter(pa.array(shard_of == k))
        write_shard(out_dir, k, t)
        rows, digest = table_content_hash(t, ["subj", "pred", "obj"])
        mf.write_manifest(out_dir, k, paths, rows, digest, spec)
        stats["shards_run"] += 1
        stats["rows"] += rows
    return stats


def run_kg_job(
    turns_path: str,
    out_dir: str,
    dag: HpoDag,
    cfg: PipelineConfig | None = None,
    num_shards: int = 4,
    input_format: str = "parquet",
) -> dict:
    """Resumable KG build, one Ray Data execution per job.

    The resume unit is the input fragment: each parquet fragment (a
    ``textdir`` or ``jsonl`` input is one unit of the files its loader
    reads) keeps its distinct ``(conv_id, hpo_id)`` partial under
    ``_partials/`` with a manifest keyed on its fingerprint and the job
    identity.  Pending units go through one plan; one driver-side merge
    over every partial writes the has_phenotype triples, one per distinct
    ``(conv_id, hpo_id)`` of the whole input, as ``out_dir/shard=K/``
    + ``_MANIFEST/shard-K.json`` for ``K < min(num_shards, units)`` (at
    least one), split by conversation hash.  The is_a edges go to ``ontology/`` +
    ``ontology.fingerprint``.

    The pending units are read as at most one block per annotate slot
    (``annotate_slots``; a parquet input is split into that many row
    ranges whatever its fragment count), so each slot runs one fused
    read+annotate+combiner task, the job runs in one wave, and the
    tasks' partial blocks go straight to the driver's merge.

    Stats: ``shards_run`` / ``shards_skipped`` / ``shards_pruned`` and
    ``rows`` (written this run) for the output shards, ``fragments_run`` /
    ``fragments_skipped`` for the units, ``annotate_tasks`` for the
    blocks the read was sized to (0 when every unit was skipped)."""
    cfg = cfg or PipelineConfig()
    spec = f"{'' if input_format == 'parquet' else input_format}|job:{_job_identity(dag, cfg)}"
    if input_format == "parquet":
        import pyarrow.dataset as pads

        groups = [[os.path.abspath(f.path)]
                  for f in pads.dataset(turns_path).get_fragments()]
    else:
        groups = [_input_files(turns_path, input_format)]
    units = sorted((_Unit(mf.unit_name(g), g, mf.partial_key(g, spec)) for g in groups),
                   key=lambda u: u.paths)

    os.makedirs(out_dir, exist_ok=True)
    _write_ontology(out_dir, dag)
    mf.prune_stale_partials(out_dir, {u.name for u in units})
    pending = [u for u in units if not mf.partial_done(out_dir, u.name, u.key)]
    fresh, tasks = (_annotate_pending(turns_path, pending, dag, cfg, input_format)
                    if pending else ({}, 0))
    for u in pending:
        t = fresh[u.name]
        write_partial(out_dir, u.name, t)
        mf.write_partial_manifest(out_dir, u.name, u.paths, spec, u.key,
                                  t.num_rows, sum(t["n_mentions"].to_pylist()))
    stats = _write_shards(out_dir, units, fresh, min(max(num_shards, 1), len(units)))
    stats.update(fragments_run=len(pending), fragments_skipped=len(units) - len(pending),
                 annotate_tasks=tasks)
    return stats
