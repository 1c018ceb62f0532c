"""Ray Data stage: turns → annotations (the fused per-turn recognizer).

The stage has one form of execution: a task-pool ``map_batches`` over
``_annotate_task``.  Each task runs the whole per-turn chain (candidate
generation C1-C4 → dict link L1/L2 → optional scorers L4-L6 → finalize
L2/L7/L8) because every one of those operators needs *turn locality*
(subsumption/overlap work on all of a turn's candidates, SURVEY.md §7
hard-part (b)).  Fusing them means zero shuffles before the triple
materialize step, and turn-level rows keep blocks balanced.

The stage state is broadcast once per Ray session (``_broadcast``) and
deserialized once per worker process — never re-shipped per block
(SURVEY.md §2.5).  On the dictionary path it is the ontology (the shipped
DAG pickles to ~4.6 MB); on a model path it is ``(dag, scorer, ner)``,
built once on the driver (~36 MB for ``-m builtin``), so no worker loads
checkpoints.  Every path maps each block whole (``batch_size=None``),
so Ray fuses the stage into the read that feeds it: one
``ReadParquetTurns->MapBatches(_annotate_task)`` task per read task, which
annotates each distinct text of its block once (``_annotate_block``).
``run_kg_job`` plans its read as one row range per annotate slot, so each
slot runs one such task per job (a range may span several fragments or
part of one).
The scorers are numpy (``models_np``, ``bert_np``, ``ner_np``), so the
stage reserves CPUs only.
``AnnotateTurns`` is the same stage run in-process, one block per call.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .. import linker  # looked up per call, so a test can spy on annotate_texts
from ..assets.hpo_dag import HpoDag
from ..config import PipelineConfig
from ..linker import annotate_text  # noqa: F401  kgperf's replay wraps this name
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
    # silently serves state built under other thresholds
    return (fingerprint, *cfg.output_identity())


def carries_model(cfg: PipelineConfig) -> bool:
    """True when the stage runs a scorer or an NER tagger (a model path)."""
    return bool(cfg.model_dir or cfg.use_model_standins or cfg.ner_path)


def _load_state(src, cfg: PipelineConfig, fingerprint: str | None = None):
    """This worker's ``(dag, scorer, ner)``.  ``src`` is the session's
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
        state = obj if isinstance(obj, tuple) else (obj, *build_models(obj, cfg))
        _STATE_CACHE.clear()  # hold at most one ontology per worker
        _STATE_CACHE[key] = state
    return state


def _annotate_block(block: pa.Table, state, cfg: PipelineConfig) -> pa.Table:
    """One annotation row per mention (ANNOTATIONS_SCHEMA), in turn order.
    Each distinct text of ``block`` goes to the kernel once,
    ``cfg.annotate_batch_size`` at a time (bounding one call's memory);
    the rows are expanded to the turns by ``take``.  A ``path`` column
    (``include_paths=True``) is kept on each row, for per-fragment dedup."""
    dag, scorer, ner = state
    enc = block.column("text").combine_chunks().dictionary_encode()
    step = max(1, cfg.annotate_batch_size)
    parts = []
    for i in range(0, max(1, len(enc.dictionary)), step):
        texts = enc.dictionary.slice(i, step).to_numpy(zero_copy_only=False).tolist()
        part = linker.annotate_texts(texts, dag, scorer, cfg.use_longest, ner)
        parts.append(part.set_column(0, "text_idx", pa.array(part.column(0).to_numpy() + i)))
    ann = pa.concat_tables(parts)

    # output row r is row r - (first output row of its turn) of its text's
    # rows, which start at row text_first of the annotations
    tid = enc.indices.to_numpy()
    n_rows = np.bincount(ann.column("text_idx").to_numpy(), minlength=len(enc.dictionary))
    per_turn = n_rows[tid]
    turn = np.repeat(np.arange(len(tid)), per_turn)
    text_first = (np.cumsum(n_rows) - n_rows)[tid]
    at = np.arange(len(turn)) + np.repeat(text_first - np.cumsum(per_turn) + per_turn, per_turn)
    out = pa.Table.from_arrays(
        [block.column("conv_id").take(turn), block.column("turn_idx").take(turn)]
        + ann.drop_columns("text_idx").take(at).columns,
        names=ANNOTATIONS_SCHEMA.names,
    ).cast(ANNOTATIONS_SCHEMA)
    if "path" not in block.column_names:
        return out
    return out.append_column("path", block.column("path").take(turn))


class AnnotateTurns:
    """The stage in-process, without Ray Data: ``__init__`` loads the
    state a worker would hold (``dag_ref`` is a broadcast ref or a plain
    dag), and each ``__call__`` annotates one block as ``_annotate_task``
    does.  Profilers replay blocks through it, reading ``.scorer`` and
    ``.ner``."""

    memo: dict = {}  # always empty (no memo); kgperf's replay still clears it

    def __init__(self, dag_ref, cfg: PipelineConfig | None = None,
                 fingerprint: str | None = None):
        self.cfg = cfg or PipelineConfig()
        self.state = _load_state(dag_ref, self.cfg, fingerprint)
        self.dag, self.scorer, self.ner = self.state

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _annotate_block(batch, self.state, self.cfg)


def _annotate_task(batch: pa.Table, dag_ref=None, cfg: PipelineConfig | None = None,
                   fingerprint: str | None = None) -> pa.Table:
    # defaulted here: _load_state and _annotate_block both read cfg fields
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
    count; ``annotate_batch_size`` sets the distinct texts per kernel call
    inside the task, never the output."""
    cfg = cfg or PipelineConfig()
    return turns_ds.map_batches(
        _annotate_task,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs={"dag_ref": _broadcast(dag, cfg), "cfg": cfg,
                   "fingerprint": getattr(dag, "fingerprint", None)},
        num_cpus=cfg.annotate_num_cpus,
    )
