"""Weight-format loading path: a tiny random state dict
written in the torch.save zip layout must load through load_torch_scorer
(torch-free reader) and drive one annotate_turns batch end-to-end."""

import numpy as np
import pandas as pd
import pytest
import ray


def test_ckpt_roundtrip(tmp_path):
    from phenobert_ray.state.torch_ckpt import read_state_dict, write_state_dict

    rng = np.random.default_rng(3)
    state = {
        "embedding.weight": rng.standard_normal((7, 256)).astype(np.float32),
        "fc.bias": rng.standard_normal(5).astype(np.float64),
        "steps": np.array(12345, dtype=np.int64),
    }
    p = str(tmp_path / "m.pt")
    write_state_dict(p, state)
    back = read_state_dict(p)
    assert set(back) == set(state)
    for k in state:
        np.testing.assert_array_equal(np.asarray(back[k]), state[k])
        assert np.asarray(back[k]).dtype == state[k].dtype


def test_ckpt_refuses_malicious_globals(tmp_path):
    """The restricted unpickler must refuse non-tensor globals."""
    import io
    import pickle
    import zipfile

    from phenobert_ray.state.torch_ckpt import read_state_dict

    evil = pickle.dumps(print)  # GLOBAL builtins.print
    p = str(tmp_path / "evil.pt")
    with zipfile.ZipFile(p, "w") as zf:
        zf.writestr("archive/data.pkl", evil)
    with pytest.raises(pickle.UnpicklingError, match="refusing"):
        read_state_dict(p)


def test_loaded_weights_drive_annotate_block(mini, tmp_path):
    """load_torch_scorer on a reference-layout fixture, end-to-end through
    one annotate stage block with the model stages active."""
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.stages.annotate import _annotate_block
    from phenobert_ray.standins import DIM, LoadedEmbeddingCache, load_torch_scorer
    from phenobert_ray.state.torch_ckpt import write_state_dict

    vocab = ["seizure", "febrile", "obesity", "blindness", "impairment"]
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((len(vocab), DIM)).astype(np.float32)
    write_state_dict(str(tmp_path / "embedding.pt"), {"embedding.weight": mat})
    (tmp_path / "vocab.txt").write_text("\n".join(vocab))

    cfg = PipelineConfig(use_model_standins=True)
    scorer = load_torch_scorer(str(tmp_path), mini, cfg)
    assert isinstance(scorer.emb, LoadedEmbeddingCache)
    # in-vocab token uses the loaded row
    v = scorer.emb.phrase(["seizure"])
    np.testing.assert_allclose(v, mat[0] / np.linalg.norm(mat[0]), rtol=1e-6)

    import pyarrow as pa

    batch = pa.table(
        {
            "conv_id": ["c-1", "c-1", "c-2"],
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "text": [
                "patient reports a febrile seizure today",
                "no signs of obesity",
                "total blindness in the left eye",
            ],
        }
    )
    out = _annotate_block(batch, (mini, scorer, None), cfg)
    assert out.num_rows >= 1
    assert set(out.column("hpo_id").to_pylist()) <= set(
        h for h in mini.abnormality
    ) | {"HP:0000001"}


def test_missing_weights_raise(mini, tmp_path):
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.standins import load_torch_scorer

    with pytest.raises(NotImplementedError, match="weight files"):
        load_torch_scorer(str(tmp_path), mini, PipelineConfig())


def _l1_fixture(rng, E=32, C=16, D=16, n_class=4):
    return {
        "Encoder.conv.weight": rng.standard_normal((C, E, 1)).astype(np.float32),
        "Encoder.conv.bias": rng.standard_normal(C).astype(np.float32),
        "Encoder.linear.weight": rng.standard_normal((D, C)).astype(np.float32),
        "Encoder.linear.bias": rng.standard_normal(D).astype(np.float32),
        "linear.weight": rng.standard_normal((n_class + 1, D)).astype(np.float32),
        "linear.bias": rng.standard_normal(n_class + 1).astype(np.float32),
    }


def test_cnn_encoder_matches_loop_reference():
    """Vectorized CNNEncoder forward vs a direct per-element transcription
    of model.py:158-165 (conv k=1 -> relu -> maxpool -> linear -> relu ->
    l2 norm)."""
    from phenobert_ray.models_np import CnnEncoderNP

    rng = np.random.default_rng(5)
    w = _l1_fixture(rng)
    enc = CnnEncoderNP(w)
    x = rng.standard_normal((3, 7, 32)).astype(np.float32)
    got = enc(x)

    cw = w["Encoder.conv.weight"][:, :, 0]
    for b in range(3):
        h = np.zeros((7, 16), dtype=np.float64)
        for s in range(7):
            for c in range(16):
                h[s, c] = max(0.0, float(cw[c] @ x[b, s]) + w["Encoder.conv.bias"][c])
        pooled = h.max(axis=0)
        lin = np.maximum(
            w["Encoder.linear.weight"] @ pooled + w["Encoder.linear.bias"], 0.0
        )
        expect = lin / np.linalg.norm(lin)
        np.testing.assert_allclose(got[b], expect, rtol=1e-4)


def test_ancestor_matrix_tree_semantics(mini):
    """On a tree (single parents) every ancestor weight is exactly 1
    (util.py:566-575: parent contributions divide by parent count)."""
    from phenobert_ray.models_np import ancestor_matrix

    l1 = mini.layer1[0]
    members = sorted({l1} | (mini.descendants.get(l1, set()) & mini.abnormality))
    W = ancestor_matrix(mini, members)
    idx = {h: i for i, h in enumerate(members)}
    for h in members:
        assert W[idx[h], idx[h]] == 1.0
        for a in mini.ancestors.get(h, set()) & set(members):
            # mini ontology is a tree within each L1 subtree
            assert W[idx[h], idx[a]] == 1.0
        for other in members:
            if other not in (mini.ancestors.get(h, set()) | {h}):
                assert W[idx[h], idx[other]] == 0.0


def test_numpy_model_scorer_end_to_end(mini, tmp_path):
    """Reference-layout CNN checkpoints (l1.pt + sub_*.pt, random weights)
    loaded through load_torch_scorer drive annotate_text's model stages."""
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.linker import annotate_text
    from phenobert_ray.models_np import NumpyModelScorer
    from phenobert_ray.standins import load_torch_scorer
    from phenobert_ray.state.torch_ckpt import write_state_dict

    rng = np.random.default_rng(23)
    E, C, D = 32, 16, 16
    n_class = len(mini.layer1)
    write_state_dict(str(tmp_path / "l1.pt"), _l1_fixture(rng, E, C, D, n_class))
    for h in mini.layer1:
        members = sorted({h} | (mini.descendants.get(h, set()) & mini.abnormality))
        sub = {
            "Encoder.conv.weight": rng.standard_normal((C, E, 1)).astype(np.float32),
            "Encoder.conv.bias": rng.standard_normal(C).astype(np.float32),
            "Encoder.linear.weight": rng.standard_normal((D, C)).astype(np.float32),
            "Encoder.linear.bias": rng.standard_normal(D).astype(np.float32),
            "H0": rng.standard_normal((len(members) + 1, D)).astype(np.float32),
            "GCNNet.gcn1.bias": rng.standard_normal(D).astype(np.float32),
        }
        write_state_dict(str(tmp_path / f"sub_{h.replace(':', '_')}.pt"), sub)

    cfg = PipelineConfig(use_model_standins=True, param1=0.0, param2=0.0)
    scorer = load_torch_scorer(str(tmp_path), mini, cfg)
    assert isinstance(scorer, NumpyModelScorer)
    assert len(scorer.subs) == n_class
    # NOTE: at p1=0 the L1 None gate (sigmoid >= 0 always includes the None
    # slot) drops every model candidate — reference-faithful (util.py:1096).
    # The hits below are the dictionary fast path; this test checks the
    # loaded-checkpoint scorer drives annotate_text without error and is
    # deterministic, not that Step-2 emits (test_scorer_parity covers that).
    anns = annotate_text(
        "unmatched mystery words beside a febrile seizure", mini, scorer=scorer
    )
    assert anns  # dict hit for "febrile seizure" at minimum
    # deterministic: same input, same loaded weights, same output
    anns2 = annotate_text(
        "unmatched mystery words beside a febrile seizure", mini, scorer=scorer
    )
    assert [a.__dict__ for a in anns] == [a.__dict__ for a in anns2]


def _bert_fixture(rng, V=40, H=16, L=2, I=32, n_labels=3, max_pos=64):
    st = {
        "bert.embeddings.word_embeddings.weight": rng.standard_normal((V, H)),
        "bert.embeddings.position_embeddings.weight": rng.standard_normal((max_pos, H)),
        "bert.embeddings.token_type_embeddings.weight": rng.standard_normal((2, H)),
        "bert.embeddings.LayerNorm.weight": np.ones(H),
        "bert.embeddings.LayerNorm.bias": np.zeros(H),
        "classifier.weight": rng.standard_normal((n_labels, H)),
        "classifier.bias": np.zeros(n_labels),
    }
    for i in range(L):
        for name, shape in [
            ("attention.self.query", (H, H)), ("attention.self.key", (H, H)),
            ("attention.self.value", (H, H)), ("attention.output.dense", (H, H)),
            ("intermediate.dense", (I, H)), ("output.dense", (H, I)),
        ]:
            st[f"bert.encoder.layer.{i}.{name}.weight"] = rng.standard_normal(shape) * 0.2
            st[f"bert.encoder.layer.{i}.{name}.bias"] = np.zeros(shape[0])
        for name in ("attention.output.LayerNorm", "output.LayerNorm"):
            st[f"bert.encoder.layer.{i}.{name}.weight"] = np.ones(H)
            st[f"bert.encoder.layer.{i}.{name}.bias"] = np.zeros(H)
    return {k: np.asarray(v, np.float32) for k, v in st.items()}


_BERT_VOCAB = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "seiz", "##ure", "febrile",
               "short", "stat", "##ure2", "ab", "##norm", "##al", "obesity"]


def test_wordpiece_greedy_longest_match():
    from phenobert_ray.bert_np import WordPieceTokenizer

    tok = WordPieceTokenizer({w: i for i, w in enumerate(_BERT_VOCAB)})
    assert tok.tokenize_word("seizure") == ["seiz", "##ure"]
    assert tok.tokenize_word("febrile") == ["febrile"]
    assert tok.tokenize_word("abnormal") == ["ab", "##norm", "##al"]
    assert tok.tokenize_word("xyzzy") == ["[UNK]"]


def test_bert_forward_properties(tmp_path):
    """Numpy BERT forward: shape, padding invariance (mask works), softmax
    head sums to 1, deterministic."""
    from phenobert_ray.bert_np import BertNP

    rng = np.random.default_rng(9)
    st = _bert_fixture(rng)
    bert = BertNP(st, prefix="bert.", num_heads=2)
    ids = np.array([[2, 4, 5, 3, 6, 3], [2, 13, 3, 0, 0, 0]], dtype=np.int64)
    types = np.array([[0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0]], dtype=np.int64)
    mask = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 0, 0]], dtype=np.float32)
    p = bert.classify(ids, types, mask)
    assert p.shape == (2, 3)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-5)
    # masked-row invariance: changing PAD ids must not change the output
    ids2 = ids.copy()
    ids2[1, 3:] = 7
    p2 = bert.classify(ids2, types, mask)
    np.testing.assert_allclose(p[1], p2[1], atol=1e-5)
    np.testing.assert_allclose(p, bert.classify(ids, types, mask))


def test_bert_matcher_end_to_end(mini, tmp_path):
    """bert.pt + bert_vocab.txt load through load_bert_matcher; best_match
    applies the reference grade-2-then-grade-1 accept logic."""
    from phenobert_ray.bert_np import load_bert_matcher
    from phenobert_ray.state.torch_ckpt import write_state_dict

    rng = np.random.default_rng(31)
    write_state_dict(str(tmp_path / "bert.pt"), _bert_fixture(rng))
    (tmp_path / "bert_vocab.txt").write_text("\n".join(_BERT_VOCAB))
    m = load_bert_matcher(str(tmp_path), num_heads=2)
    cands = [("HP:0001250", ["seizure"]), ("HP:0001513", ["obesity"])]
    # threshold 0 -> always accepts the argmax of class 2
    got = m.best_match(["febrile", "seizure"], cands, threshold=0.0)
    assert got is not None and got[0] in {"HP:0001250", "HP:0001513"}
    assert got[2] == 2
    # threshold 1.0 -> nothing passes
    assert m.best_match(["febrile", "seizure"], cands, threshold=1.01) is None


def test_full_model_stack_with_bert_step3(mini, tmp_path):
    """l1.pt + sub_*.pt + bert.pt: load_torch_scorer builds the CNN+BERT
    stack and annotate_text runs Step 1-3 end-to-end."""
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.linker import annotate_text
    from phenobert_ray.standins import load_torch_scorer
    from phenobert_ray.state.torch_ckpt import write_state_dict

    rng = np.random.default_rng(7)
    E, C, D = 32, 16, 16
    n_class = len(mini.layer1)
    write_state_dict(str(tmp_path / "l1.pt"), _l1_fixture(rng, E, C, D, n_class))
    for h in mini.layer1:
        members = sorted({h} | (mini.descendants.get(h, set()) & mini.abnormality))
        sub = {
            "Encoder.conv.weight": rng.standard_normal((C, E, 1)).astype(np.float32),
            "Encoder.conv.bias": rng.standard_normal(C).astype(np.float32),
            "Encoder.linear.weight": rng.standard_normal((D, C)).astype(np.float32),
            "Encoder.linear.bias": rng.standard_normal(D).astype(np.float32),
            "H0": rng.standard_normal((len(members) + 1, D)).astype(np.float32),
            "GCNNet.gcn1.bias": rng.standard_normal(D).astype(np.float32),
        }
        write_state_dict(str(tmp_path / f"sub_{h.replace(':', '_')}.pt"), sub)
    write_state_dict(str(tmp_path / "bert.pt"), _bert_fixture(rng))
    (tmp_path / "bert_vocab.txt").write_text("\n".join(_BERT_VOCAB))

    cfg = PipelineConfig(use_model_standins=True, param1=0.0, param2=0.0,
                         param3=0.0)
    scorer = load_torch_scorer(str(tmp_path), mini, cfg)
    assert scorer.bert is not None
    anns = annotate_text(
        "unmatched mystery words beside a febrile seizure", mini, scorer=scorer
    )
    assert anns
    anns2 = annotate_text(
        "unmatched mystery words beside a febrile seizure", mini, scorer=scorer
    )
    assert [a.__dict__ for a in anns] == [a.__dict__ for a in anns2]


@pytest.mark.parametrize("dtype", ["float32", "float64", "float16", "int64",
                                   "int32", "uint8", "bool"])
def test_ckpt_roundtrip_dtypes(tmp_path, dtype):
    """Every storage dtype the torch format uses round-trips exactly."""
    from phenobert_ray.state.torch_ckpt import read_state_dict, write_state_dict

    rng = np.random.default_rng(1)
    if dtype == "bool":
        arr = rng.random((5, 3)) > 0.5
    elif dtype.startswith(("int", "uint")):
        arr = rng.integers(0, 100, size=(5, 3)).astype(dtype)
    else:
        arr = rng.standard_normal((5, 3)).astype(dtype)
    p = str(tmp_path / f"{dtype}.pt")
    write_state_dict(p, {"w": arr})
    back = np.asarray(read_state_dict(p)["w"])
    np.testing.assert_array_equal(back, arr)
    assert back.dtype == arr.dtype


def test_routed_candidate_clearing_no_threshold_is_dropped(mini, tmp_path):
    """Regression: a candidate the L1 router passes but whose every Step-2
    softmax prob falls below p2 must be silently dropped, not crash the
    -nb branch (max() over an empty ranking)."""
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.linker import annotate_text
    from phenobert_ray.standins import load_torch_scorer
    from phenobert_ray.state.torch_ckpt import write_state_dict

    rng = np.random.default_rng(7)
    E, C, D = 32, 16, 16
    n_class = len(mini.layer1)
    l1 = _l1_fixture(rng, E, C, D, n_class)
    # route EVERY subtree, never None (verify-skill fixture recipe)
    l1["linear.bias"] = np.array([5.0] * n_class + [-5.0], np.float32)
    write_state_dict(str(tmp_path / "l1.pt"), l1)
    for h in mini.layer1:
        members = sorted({h} | (mini.descendants.get(h, set()) & mini.abnormality))
        sub = {
            "Encoder.conv.weight": rng.standard_normal((C, E, 1)).astype(np.float32),
            "Encoder.conv.bias": rng.standard_normal(C).astype(np.float32),
            "Encoder.linear.weight": rng.standard_normal((D, C)).astype(np.float32),
            "Encoder.linear.bias": rng.standard_normal(D).astype(np.float32),
            # all-zero H0 -> flat logits -> uniform softmax, so nothing can
            # reach p2=0.99 in any subtree with >1 member
            "H0": np.zeros((len(members) + 1, D), np.float32),
            "GCNNet.gcn1.bias": np.zeros(D, np.float32),
        }
        write_state_dict(str(tmp_path / f"sub_{h.replace(':', '_')}.pt"), sub)

    cfg = PipelineConfig(use_model_standins=True, param1=0.5, param2=0.99)
    scorer = load_torch_scorer(str(tmp_path), mini, cfg)
    anns = annotate_text(
        "unmatched mystery words beside a febrile seizure", mini, scorer=scorer
    )
    # the dictionary hit survives; the routed-but-unscored junk is dropped
    assert {a.hpo_id for a in anns} == {"HP:0002373"}


def _shipped():
    import json
    import os

    from phenobert_ray.assets.hpo_dag import HpoDag
    from phenobert_ray.assets.loader import trained_model_dir
    from phenobert_ray.config import PipelineConfig

    d = trained_model_dir()
    with open(os.path.join(d, "DAG.json"), encoding="utf-8") as f:
        dag = HpoDag(json.load(f))
    # the CLI's -m builtin operating point
    cfg = PipelineConfig(param1=0.95, param2=0.9, use_model_standins=True,
                         model_dir=d)
    return d, dag, cfg


def _shipped_turns(dag) -> list[str]:
    """Fixed turns over DAG.json names and synonyms, verbatim and perturbed
    (dropped word, swapped words) so the CNN/BERT stack scores some."""
    ids = sorted(dag.abnormality_nt)[::401]
    out = []
    for i, h in enumerate(ids):
        node = dag.nodes[h]
        name = dag.name_of[h]
        syn = (node.get("synonym") or [name])[0]
        words = name.split()
        pert = " ".join(words[1:] if len(words) > 2 else words[::-1])
        out.append(f"Patient {i} presented with {name.lower()}. "
                   f"Mother reports {syn.lower()}; exam shows {pert.lower()}.")
    return out


def test_builtin_scorer_reuses_pipeline_ontology():
    """-m builtin over the shipped ontology: DAG.json holds the pipeline's
    own node table, so the scorer keeps the pipeline's dag object."""
    from phenobert_ray.standins import load_torch_scorer

    d, dag, cfg = _shipped()
    assert load_torch_scorer(d, dag, cfg).dag is dag


def test_builtin_scorer_with_other_ontology_builds_its_own(mini):
    """With another dag (mini) the scorer still builds DAG.json's ontology
    (l1.pt's class order is positional), and annotate_text gives identical
    output with the reused dag and with that freshly built one."""
    from phenobert_ray.linker import annotate_text
    from phenobert_ray.standins import load_torch_scorer
    from phenobert_ray.textops import bag_key, process_str

    d, dag, cfg = _shipped()
    fresh = load_torch_scorer(d, mini, cfg)
    assert fresh.dag is not mini and fresh.dag is not dag
    assert fresh.dag.layer1 == dag.layer1 and fresh.dag.layer1 != mini.layer1
    reused = load_torch_scorer(d, dag, cfg)
    assert reused.dag is dag

    turns = _shipped_turns(dag)
    got = [annotate_text(t, dag, scorer=reused) for t in turns]
    assert got == [annotate_text(t, dag, scorer=fresh) for t in turns]
    model_spans = [a for anns in got for a in anns
                   if bag_key(process_str(a.mention)) not in dag.phrase2hpo]
    assert sum(map(len, got)) > len(turns) and model_spans


def _dense_graph(dag, sub, state):
    """The subtree graph through the dense (n+1)² ancestor matrix."""
    from phenobert_ray.models_np import ancestor_matrix

    L = ancestor_matrix(dag, sub.members)
    return (L @ np.asarray(state["H0"], np.float32)
            + np.asarray(state["GCNNet.gcn1.bias"], np.float32)).T


def test_ancestor_free_graph_bit_identical_on_shipped_weights():
    """Every shipped subtree model's graph equals the dense-matrix one
    exactly."""
    import os

    from phenobert_ray.assets.loader import trained_model_dir
    from phenobert_ray.models_np import SubtreeModelNP
    from phenobert_ray.state.torch_ckpt import read_state_dict

    if trained_model_dir() is None:
        pytest.skip("no packaged trained weights")
    d, dag, _ = _shipped()
    n = 0
    for h in dag.layer1:
        p = os.path.join(d, f"sub_{h.replace(':', '_')}.pt")
        if os.path.exists(p):
            state = read_state_dict(p)
            sub = SubtreeModelNP(state, dag, h)
            assert np.array_equal(sub.graph, _dense_graph(dag, sub, state)), h
            n += 1
    assert n == len(dag.layer1)


def _diamond(dag):
    """``dag`` plus a second in-subtree parent for one node per L1
    subtree that has a grandchild, so some ancestor weights are 1/2."""
    import copy

    from phenobert_ray.assets.hpo_dag import HpoDag

    nodes = copy.deepcopy(dag.nodes)
    for l1 in dag.layer1:
        kids = sorted(dag.children[l1])
        grand = [g for k in kids for g in sorted(dag.children[k])]
        other = [k for k in kids if not grand or k not in dag.parents[grand[0]]]
        if grand and other:
            nodes[grand[0]]["is_a"] = sorted(set(nodes[grand[0]]["is_a"]) | {other[0]})
    return HpoDag(nodes)


def test_ancestor_free_graph_matches_dense_on_random_weights(mini, tmp_path):
    """Random H0 over mini_dag (and a multi-parent variant): the graph
    matches the dense-matrix one to float32 rounding, and a scorer with
    the dense graphs annotates identically."""
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.linker import annotate_text
    from phenobert_ray.models_np import SubtreeModelNP, ancestor_matrix
    from phenobert_ray.standins import load_torch_scorer
    from phenobert_ray.state.torch_ckpt import read_state_dict, write_state_dict

    rng = np.random.default_rng(31)
    E, C, D = 32, 16, 16
    n_class = len(mini.layer1)
    l1 = _l1_fixture(rng, E, C, D, n_class)
    l1["linear.bias"] = np.array([5.0] * n_class + [-5.0], np.float32)  # route all
    write_state_dict(str(tmp_path / "l1.pt"), l1)
    for h in mini.layer1:
        members = sorted({h} | (mini.descendants.get(h, set()) & mini.abnormality))
        H0 = rng.standard_normal((len(members) + 1, D)).astype(np.float32)
        H0[-1] = -10.0  # None never wins Step-2
        write_state_dict(str(tmp_path / f"sub_{h.replace(':', '_')}.pt"), {
            "Encoder.conv.weight": rng.standard_normal((C, E, 1)).astype(np.float32),
            "Encoder.conv.bias": rng.standard_normal(C).astype(np.float32),
            "Encoder.linear.weight": rng.standard_normal((D, C)).astype(np.float32),
            "Encoder.linear.bias": rng.standard_normal(D).astype(np.float32),
            "H0": H0,
            "GCNNet.gcn1.bias": rng.standard_normal(D).astype(np.float32),
        })

    diamond = _diamond(mini)
    halves = 0
    for dag in (mini, diamond):
        for h in mini.layer1:
            state = read_state_dict(str(tmp_path / f"sub_{h.replace(':', '_')}.pt"))
            sub = SubtreeModelNP(state, dag, h)
            np.testing.assert_allclose(sub.graph, _dense_graph(dag, sub, state),
                                       rtol=1e-6, atol=1e-6)
            halves += int((ancestor_matrix(dag, sub.members) == 0.5).any())
    assert halves  # the variant exercises the mean over several parents

    cfg = PipelineConfig(use_model_standins=True, param1=0.5, param2=0.0,
                         use_step_3=False)
    scorer = load_torch_scorer(str(tmp_path), mini, cfg)
    dense = load_torch_scorer(str(tmp_path), mini, cfg)
    for h, sub in dense.subs.items():
        state = read_state_dict(str(tmp_path / f"sub_{h.replace(':', '_')}.pt"))
        sub.graph = _dense_graph(mini, sub, state)
    texts = ["unmatched mystery words beside a febrile seizure",
             "the patient reports frequent headaches and blurry vision",
             "no obesity; mild cognitive slowing noted"]
    got = [annotate_text(t, mini, scorer=scorer) for t in texts]
    assert got == [annotate_text(t, mini, scorer=dense) for t in texts]
    # the model path emits spans the dictionary alone does not
    assert sum(map(len, got)) > sum(len(annotate_text(t, mini)) for t in texts)


def test_builtin_scorer_load_memory_bound():
    """Loading the -m builtin scorer stack allocates under 100 MB at peak:
    no dense (n+1)² ancestor matrix per subtree."""
    import tracemalloc

    from phenobert_ray.assets.loader import trained_model_dir
    from phenobert_ray.standins import load_torch_scorer

    if trained_model_dir() is None:
        pytest.skip("no packaged trained weights")
    d, dag, cfg = _shipped()
    tracemalloc.start()
    try:
        load_torch_scorer(d, dag, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, peak / 2**20
