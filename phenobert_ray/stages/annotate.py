"""Ray Data stage: turns → annotations (the fused per-turn recognizer).

The stage has one form of execution: a task-pool ``map_batches`` over
``_annotate_task``.  Each task runs the whole per-turn chain (candidate
generation C1-C4 → dict link L1/L2 → optional scorers L4-L6 → finalize
L2/L7/L8) because every one of those operators needs *turn locality*
(subsumption/overlap work on all of a turn's candidates, SURVEY.md §7
hard-part (b)).  Fusing them means zero shuffles before the triple
materialize step, and turn-level rows keep blocks balanced.

The stage state is broadcast once per Ray session (``_broadcast``) and
deserialized once per worker process — never re-shipped per batch
(SURVEY.md §2.5).  On the dictionary path it is the ontology (the shipped
DAG pickles to ~4.6 MB); on a model path it is ``(dag, scorer, ner)``,
built once on the driver (~36 MB for ``-m builtin``), so no worker loads
checkpoints.  Every path maps each block whole (``batch_size=None``),
so Ray fuses the stage into the parquet read that feeds it: one
``ReadParquet->...->MapBatches(_annotate_task)`` task per read task, each
block sliced into ``annotate_batch_size`` turns per kernel call.
``run_kg_job`` sizes the read to one task per annotate slot, so each slot
runs one such task per job (a task may stream several fragments).
The scorers are numpy (``models_np``, ``bert_np``, ``ner_np``), so the
stage reserves CPUs only.
``AnnotateTurns`` is the same stage run in-process, one batch per call.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from ..assets.hpo_dag import HpoDag
from ..config import PipelineConfig
from ..linker import annotate_text
from ..standins import build_models

ANNOTATIONS_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("mention", pa.string()),
        ("hpo_id", pa.string()),
        ("score", pa.float32()),
        ("negated", pa.bool_()),
    ]
)


# Per-worker-process state cache: Ray reuses worker processes across
# tasks, so each worker deserializes the stage state from the object store
# exactly once (actor-like state residency without actor-pool sizing —
# a fixed pool the size of the cluster starves upstream operators, and an
# autoscaling pool ramps slower than short jobs run).
_STATE_CACHE: dict = {}


def _state_key(fingerprint, cfg: PipelineConfig) -> tuple:
    # every output-changing field is in this key, or a reused worker
    # silently serves state (and memoized rows) built under other thresholds
    return (fingerprint, *cfg.output_identity())


def carries_model(cfg: PipelineConfig) -> bool:
    """True when the stage runs a scorer or an NER tagger (a model path)."""
    return bool(cfg.model_dir or cfg.use_model_standins or cfg.ner_path)


def _load_state(src, cfg: PipelineConfig, fingerprint: str | None = None):
    """This worker's ``(dag, scorer, memo, ner)``.  ``src`` is the session's
    broadcast ref (``_broadcast``) or a plain dag.  A ref resolves to the
    driver-built ``(dag, scorer, ner)`` or, on the dictionary path, to the
    dag; a dag has its models (if any) built in-process.  Keyed on the
    ontology's content fingerprint (passed driver-side), so the same dag
    under a new ObjectRef reuses the worker-local copy."""
    key = _state_key(
        fingerprint or (src.hex() if isinstance(src, ray.ObjectRef) else id(src)),
        cfg)
    state = _STATE_CACHE.get(key)
    if state is None:
        obj = ray.get(src) if isinstance(src, ray.ObjectRef) else src
        dag, scorer, ner = obj if isinstance(obj, tuple) else (obj, *build_models(obj, cfg))
        # memo: turn text → annotation rows.  Web-scale transcripts repeat
        # short turns constantly ("ok", tool boilerplate); identical text ⇒
        # identical annotations, so this is pure dedup of CPU work.
        state = (dag, scorer, {}, ner)
        _STATE_CACHE.clear()  # hold at most one ontology per worker
        _STATE_CACHE[key] = state
    return state


# Only short turns are memoized: the memo targets verbatim-repeated turns
# ("ok", tool boilerplate), which are short; admitting arbitrary-length
# texts let a corpus of unique 50 KB turns grow the memo to ~10 GB per
# worker.  The memo lives for one block (``_annotate_block``), so its keys
# are bounded by one block's short turns.
_MEMO_MAX_TEXT_LEN = 1024


def _annotate_batch(batch: pa.Table, dag: HpoDag, scorer, cfg: PipelineConfig,
                    memo: dict | None = None, ner=None) -> pa.Table:
    """One annotation row per mention (ANNOTATIONS_SCHEMA).  A batch read
    with ``include_paths=True`` keeps its ``path`` column on each row, so
    the KG job can dedup per input fragment."""
    conv = batch.column("conv_id").to_pylist()
    tidx = batch.column("turn_idx").to_pylist()
    texts = batch.column("text").to_pylist()
    src = [] if "path" in batch.column_names else None

    out_conv, out_tidx = [], []
    starts, ends, mentions, hpos, scores, negs = [], [], [], [], [], []
    for i, (c, t, text) in enumerate(zip(conv, tidx, texts)):
        rows = memo.get(text) if memo is not None else None
        if rows is None:
            rows = [
                (a.start, a.end, a.mention, a.hpo_id, a.score, a.negated)
                for a in annotate_text(
                    text, dag, scorer=scorer, use_longest=cfg.use_longest,
                    ner=ner,
                )
            ]
            if memo is not None and len(text) <= _MEMO_MAX_TEXT_LEN:
                memo[text] = rows
        if src is not None and rows:
            src.extend([i] * len(rows))
        for st, en, m, h, sc, ng in rows:
            out_conv.append(c)
            out_tidx.append(t)
            starts.append(st)
            ends.append(en)
            mentions.append(m)
            hpos.append(h)
            scores.append(sc)
            negs.append(ng)

    out = pa.Table.from_arrays(
        [
            pa.array(out_conv, pa.string()),
            pa.array(out_tidx, pa.int32()),
            pa.array(starts, pa.int32()),
            pa.array(ends, pa.int32()),
            pa.array(mentions, pa.string()),
            pa.array(hpos, pa.string()),
            pa.array(scores, pa.float32()),
            pa.array(negs, pa.bool_()),
        ],
        schema=ANNOTATIONS_SCHEMA,
    )
    if src is None:
        return out
    return out.append_column(
        "path", batch.column("path").take(pa.array(src, pa.int64())))


def _annotate_block(block: pa.Table, state, cfg: PipelineConfig) -> pa.Table:
    """Annotate ``block`` ``cfg.annotate_batch_size`` turns per kernel call
    (each task gets a whole block), which bounds the memory of one call.
    The memo is cleared first, so it lives for one block: a text repeated
    in a later block, of the same job or another, is annotated again.
    Jobs rarely repeat each other's texts, so entries kept across blocks
    mostly held memory."""
    dag, scorer, memo, ner = state
    memo.clear()
    step = max(1, cfg.annotate_batch_size)
    return pa.concat_tables([
        _annotate_batch(block.slice(i, step), dag, scorer, cfg, memo, ner)
        for i in range(0, max(1, block.num_rows), step)])


class AnnotateTurns:
    """The stage in-process, without Ray Data: ``__init__`` loads the
    state a worker would hold (``dag_ref`` is a broadcast ref or a plain
    dag), and each ``__call__`` annotates one batch as ``_annotate_task``
    does.  Profilers replay batches through it, reading ``.memo``,
    ``.scorer`` and ``.ner``."""

    def __init__(self, dag_ref, cfg: PipelineConfig | None = None,
                 fingerprint: str | None = None):
        self.cfg = cfg or PipelineConfig()
        self.state = _load_state(dag_ref, self.cfg, fingerprint)
        self.dag, self.scorer, self.memo, self.ner = self.state

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _annotate_block(batch, self.state, self.cfg)


def _annotate_task(batch: pa.Table, dag_ref=None, cfg: PipelineConfig | None = None,
                   fingerprint: str | None = None) -> pa.Table:
    # the advertised default was a guaranteed AttributeError: _load_state
    # and _annotate_batch both dereference cfg fields
    cfg = cfg or PipelineConfig()
    return _annotate_block(batch, _load_state(dag_ref, cfg, fingerprint), cfg)


# Driver-side broadcast cache: (state key, job id, node id) → the stage
# state's ObjectRef.  The job id alone is not a session identity: it
# restarts at 01000000 after ray.shutdown() + ray.init(), while the local
# node id does not repeat, and a ref from an ended session is dead.  Holds
# at most one state, like the worker-side _STATE_CACHE.
_STATE_REFS: dict = {}


def _broadcast(dag: HpoDag, cfg: PipelineConfig):
    """The session's ObjectRef for the stage state of ``dag`` under ``cfg``:
    one ``ray.put`` per state key per Ray session, not one per call.  The
    dictionary path ships the dag; a model path builds ``(dag, scorer,
    ner)`` here once and ships that.  A dag mutated after construction
    must call ``refresh_fingerprint()`` (as the worker cache already
    requires) to be re-broadcast."""
    def key():
        ctx = ray.get_runtime_context()
        return _state_key(dag.fingerprint, cfg), ctx.get_job_id(), ctx.get_node_id()

    ref = _STATE_REFS.get(key()) if ray.is_initialized() else None
    if ref is None:
        state = (dag, *build_models(dag, cfg)) if carries_model(cfg) else dag
        ref = ray.put(state)  # initializes Ray if nothing has yet
        _STATE_REFS.clear()
        _STATE_REFS[key()] = ref
    return ref


def annotate_turns(turns_ds, dag: HpoDag, cfg: PipelineConfig | None = None):
    """turns Dataset → annotations Dataset (lazy, streaming).

    One task-pool ``map_batches``: the stage state is broadcast once per
    Ray session (``_broadcast``) and cached per worker process.  Each block
    is mapped whole (``batch_size=None``), so Ray fuses the map into the
    read that feeds it and the read's task count is the annotate task
    count; ``annotate_batch_size`` sets the turns per kernel call inside
    the task, never the output."""
    cfg = cfg or PipelineConfig()
    return turns_ds.map_batches(
        _annotate_task,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs={"dag_ref": _broadcast(dag, cfg), "cfg": cfg,
                   "fingerprint": getattr(dag, "fingerprint", None)},
        num_cpus=cfg.annotate_num_cpus,
    )
