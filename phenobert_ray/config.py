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

    # Ray sizing.  The task pool fills the cluster's CPUs; a model path
    # (model_dir, use_model_standins or ner_path) runs one task per block.
    annotate_concurrency: int | None = None  # None → task pool autoscale
    annotate_batch_size: int = 256           # turns per kernel call
    annotate_num_cpus: float = 1.0
    annotate_num_gpus: float = 0.0  # >0 reserves GPU per scorer actor and
    # forces the actor-pool path (SURVEY §4: reference auto-selects cuda,
    # util.py:24, model.py:7; CPU fallback util.py:626-629).  Fractional
    # values pack several scorer actors per device.  Untestable in this
    # CPU-only sandbox; covered by a resource-spec unit test.
    annotate_gpu_wait: bool = False  # skip the 0-GPU fail-fast: on an
    # AUTOSCALING cluster whose GPU node group is currently scaled to zero,
    # cluster_resources() reports no GPUs even though submitting the actor
    # pool would provision them — set True there; on a
    # fixed-size GPU-less cluster leave False so an infeasible num_gpus
    # fails loudly instead of parking the pipeline forever.

    # keep negated mentions out of has_phenotype triples (annotations keep
    # them with the Neg flag, like the reference TSV output util.py:1199-1209)
    triples_drop_negated: bool = True
