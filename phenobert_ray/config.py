"""Pipeline configuration (SURVEY.md §2.10 — the reference's CLI knobs
``-p1/-p2/-p3``, ``-al``, ``-nb`` at annotate.py:15-26, plus Ray sizing)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    # model thresholds (reference defaults, annotate.py:18-20)
    param1: float = 0.8   # CNN L1 router acceptance
    param2: float = 0.6   # subtree scorer acceptance
    param3: float = 0.9   # BERT matcher acceptance
    use_longest: bool = True      # -al inverts (annotate.py:21)
    use_step_3: bool = True       # -nb disables (annotate.py:22)
    use_model_standins: bool = False  # deterministic stand-in scorers (no torch here)
    model_dir: str | None = None  # reference-format checkpoints (l1.pt /
    # sub_*.pt / bert.pt / embedding.pt) -> numpy inference path; implies
    # model stages active
    ner_path: str | None = None   # C1 seeder checkpoint (ner.pt from
    # tools/train_ner.py); None -> pseudo-seeding (every sentence seeded,
    # the documented recall-superset default, candidates.py:6-14)

    # Ray sizing (never changes output).  The annotate stage is one
    # task-pool ``map_batches`` that hands each block to its own task on
    # both paths, fused into the read; ``annotate_batch_size`` sets the
    # distinct texts of a block per kernel call inside a task.
    # ``run_kg_job`` reads a job's input as one block per annotate slot
    # (``annotate_slots``): the cluster's CPUs over ``annotate_num_cpus``
    # on a model path (model_dir, use_model_standins or ner_path), half
    # that on the dictionary path; it lifts Ray Data's per-operator CPU reservation
    # on the job's own lineage, so the slot count is the cap.
    annotate_batch_size: int = 256           # distinct texts per kernel call
    annotate_num_cpus: float = 1.0           # CPUs reserved per task

    # keep negated mentions out of has_phenotype triples (annotations keep
    # them with the Neg flag, like the reference TSV output util.py:1199-1209)
    triples_drop_negated: bool = True

    # Every field that changes annotation or triple output, in the order
    # ``pipelines.annotate._job_identity`` folds them into each fragment
    # manifest (reordering it invalidates every finished fragment).
    OUTPUT_FIELDS = ("param1", "param2", "param3", "use_longest", "use_step_3",
                     "use_model_standins", "model_dir", "ner_path",
                     "triples_drop_negated")

    def output_identity(self) -> tuple:
        """The values of ``OUTPUT_FIELDS``: the worker state cache key and
        the KG job identity are built from this one list."""
        return tuple(getattr(self, f) for f in self.OUTPUT_FIELDS)
