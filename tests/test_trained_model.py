"""Gate on the packaged hermetically-trained CNN weights.

The reference's own trained weights are external downloads
(README.md:70-83), so the engine ships checkpoints fit by
``train_np.train_all`` over the reference's SHIPPED training files
(models/train.txt + train_source shards) with the hashing token embedding.
This gate pins the headline claim: on GSC+ expert gold, the model path
must deliver micro-recall measurably ABOVE the dictionary-only bound
(0.397 in BASELINE.md) — i.e. Step-2 generalizes past exact lookup — at
the documented (p1, p2) = (0.95, 0.9) operating point.
"""

import os

import pytest
import ray

REF = "/root/reference/phenobert"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(REF), reason="reference corpora not present"
)


@pytest.fixture(scope="module")
def trained_dir():
    from phenobert_ray.assets.loader import trained_model_dir

    d = trained_model_dir()
    if d is None:
        pytest.skip("no packaged trained weights")
    return d


def _gsc_sets(cfg, dag):
    from phenobert_ray.sources.loaders import read_text_dir_as_turns
    from phenobert_ray.stages.annotate import annotate_turns

    turns = ray.data.from_arrow(
        read_text_dir_as_turns(f"{REF}/data/GSC+/corpus")
    )
    anns = annotate_turns(turns, dag, cfg).to_pandas()
    return set(zip(anns.conv_id, anns.hpo_id))


def test_trained_weights_beat_dictionary_recall(trained_dir):
    from phenobert_ray.assets.loader import load_ontology
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.sources.loaders import read_gold_gsc

    dag = load_ontology(f"{REF}/models/train.txt")
    gold_t = read_gold_gsc(f"{REF}/data/GSC+/ann").to_pandas()
    gold = set(zip(gold_t.doc_id, gold_t.hpo_id))

    dict_set = _gsc_sets(PipelineConfig(), dag)
    # use_step_3=False pins the -nb branch: with bert.pt packaged, the
    # default would route through the Step-3 precision filter instead
    model_set = _gsc_sets(
        PipelineConfig(model_dir=trained_dir, use_model_standins=True,
                       param1=0.95, param2=0.9, use_step_3=False),
        dag,
    )
    dict_r = len(dict_set & gold) / len(gold)
    model_tp = len(model_set & gold)
    model_r = model_tp / len(gold)
    model_p = model_tp / len(model_set)
    print(f"\nGSC+ dict R={dict_r:.4f} | trained R={model_r:.4f} "
          f"P={model_p:.4f}")
    # measured: dict R=0.4111 raw pairs, trained R=0.4228 P=0.626 with the
    # learned-embedding stack (f16-identical); BASELINE.md quotes 0.397
    # dict recall after dedup+canonical
    assert model_r > dict_r, "trained weights must add recall"
    assert model_r >= 0.42
    assert model_p >= 0.60


def test_builtin_step3_matcher_trades_recall_for_precision(trained_dir):
    """The packaged BERT matcher (Step 3) filters Step-2 candidates: on
    GSC+ it must keep recall above the 0.397 dictionary bound while
    clearing the -nb branch's precision (measured: P=0.710 R=0.409 at
    p3=0.9 vs -nb P=0.626 R=0.423, learned-embedding stack)."""
    import pytest

    if not os.path.exists(os.path.join(trained_dir, "bert.pt")):
        pytest.skip("no packaged bert matcher")
    from phenobert_ray.assets.loader import load_ontology
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.sources.loaders import read_gold_gsc

    dag = load_ontology(f"{REF}/models/train.txt")
    gold_t = read_gold_gsc(f"{REF}/data/GSC+/ann").to_pandas()
    gold = set(zip(gold_t.doc_id, gold_t.hpo_id))
    s = _gsc_sets(
        PipelineConfig(model_dir=trained_dir, use_model_standins=True,
                       param1=0.95, param2=0.9, param3=0.9, use_step_3=True),
        dag,
    )
    tp = len(s & gold)
    r, p = tp / len(gold), tp / len(s)
    print(f"\nGSC+ step3 R={r:.4f} P={p:.4f}")
    assert r >= 0.397, "step-3 must not fall below the dictionary bound"
    assert p >= 0.68, "step-3 exists to buy precision"


def test_builtin_checkpoints_load_and_are_f16(trained_dir):
    from phenobert_ray.state.torch_ckpt import read_state_dict

    st = read_state_dict(os.path.join(trained_dir, "l1.pt"))
    import numpy as np

    assert st["linear.weight"].dtype == np.float16
    assert {"Encoder.conv.weight", "Encoder.linear.weight",
            "linear.weight", "linear.bias"} <= set(st)
    # DAG.json pins the train-time ontology (H0 rows are positional)
    assert os.path.exists(os.path.join(trained_dir, "DAG.json"))
