"""Factored CNN inference (``CnnEncoderNP.encode_keys``) and the keyed
scorer: the per-token projection + pooled forward equals the dense padded
forward bit for bit on the shipped weights, a candidate's result does not
depend on the other candidates of the call, the masked top-k keeps the
full-sort order, and the token-embedding memo stays bounded."""

import copy

import numpy as np
import pytest

from phenobert_ray.assets.loader import trained_model_dir
from phenobert_ray.models_np import MAX_SEQ_LEN, NumpyModelScorer, key_matrix

shipped_only = pytest.mark.skipif(trained_model_dir() is None,
                                  reason="no packaged trained weights")


@pytest.fixture(scope="module")
def builtin():
    """``(dag, scorer)`` at the CLI's ``-m builtin`` operating point."""
    import json
    import os

    from phenobert_ray.assets.hpo_dag import HpoDag
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.standins import load_torch_scorer

    d = trained_model_dir()
    with open(os.path.join(d, "DAG.json"), encoding="utf-8") as f:
        dag = HpoDag(json.load(f))
    cfg = PipelineConfig(param1=0.95, param2=0.9, use_model_standins=True,
                         model_dir=d)
    return dag, load_torch_scorer(d, dag, cfg)


def _padded(vecs, keys):
    """The dense encoder's input: keys as zero-padded (B, S, E) rows with
    S = min(MAX_SEQ_LEN, longest + 1), so every key shorter than
    ``MAX_SEQ_LEN`` has a pad column and a longer one is cut."""
    S = min(MAX_SEQ_LEN, max(map(len, keys)) + 1)
    x = np.zeros((len(keys), S, vecs.shape[1]), np.float32)
    for i, k in enumerate(keys):
        for j, t in enumerate(k[:S]):
            x[i, j] = vecs[t]
    return x


def _key_mix(vocab_size):
    """Keys of 1-10 tokens (some with a token twice), a key equal to
    another, and one key of MAX_SEQ_LEN + 3 tokens; longest first."""
    rng = np.random.default_rng(4)
    keys = [tuple(int(t) for t in rng.integers(0, vocab_size, n))
            for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] * 4]
    keys += [(3, 3), (5, 9, 5, 9), (7, 7, 7), keys[4]]
    keys.append(tuple(int(t) for t in rng.integers(0, vocab_size, MAX_SEQ_LEN + 3)))
    return sorted(keys, key=len, reverse=True)


@shipped_only
def test_factored_encoder_equals_dense_on_shipped_weights(builtin):
    """Router and one subtree, keys of 1-10 tokens with repeats and one of
    more than MAX_SEQ_LEN tokens (cut, no pad term).  BLAS may round a
    product of a few rows differently from a larger one, so both sides
    get one call of many keys, as the scorer's per-call batches are."""
    dag, scorer = builtin
    words = sorted({t for k in dag.phrase2hpo for t in k.split()})[::50][:60]
    vecs = np.array([scorer.token_vec(w) for w in words], np.float32)
    keys = _key_mix(len(vecs))
    idx = key_matrix(keys, len(vecs))
    assert idx.shape[1] == MAX_SEQ_LEN and (idx[0] < len(vecs)).all()
    x = _padded(vecs, keys)

    enc = scorer.l1.encoder
    assert np.array_equal(enc.encode_keys(vecs, idx), enc(x))
    assert np.array_equal(scorer.l1.forward_keys(vecs, idx), scorer.l1(x))

    sub = scorer.subs[dag.layer1[0]]
    assert np.array_equal(sub.forward_keys(vecs, idx),
                          sub.encoder(x) @ sub.graph)

    # without the long key every row keeps a pad column
    short = keys[1:]
    assert np.array_equal(enc.encode_keys(vecs, key_matrix(short, len(vecs))),
                          enc(_padded(vecs, short)))


def _note_texts(dag, n=8):
    """Note-like turns: filler around names with a word dropped, swapped
    or hyphenated, pluralized, or negated, as kgperf's note workload
    writes them."""
    names = sorted(dag.name_of[h] for h in dag.abnormality_nt)[::211][:4 * n]
    filler = ["reviewed", "today", "stable", "mother", "reports", "clinic",
              "history", "noted", "recent", "visit"]
    texts = []
    for i in range(n):
        parts = []
        for k, name in enumerate(names[4 * i:4 * i + 4]):
            w = name.lower().split()
            pert = [" ".join(w[1:] if len(w) > 2 else w[::-1]),
                    "-".join(w), name.lower() + "s", "no " + name.lower()][k]
            parts.append(f"{filler[(i + k) % 10]} {filler[(i + 3 * k) % 10]} "
                         f"{pert} {filler[(2 * i + k) % 10]}")
        texts.append("Note. " + ". ".join(parts) + ".")
    return texts


def _survivors(dag, texts):
    from phenobert_ray.linker import (canonicalize_for_segmentation,
                                      dict_link, generate_candidates)

    out = []
    for t in texts:
        out += dict_link(generate_candidates(canonicalize_for_segmentation(t)),
                         dag)[1]
    return out


@shipped_only
@pytest.mark.parametrize("branch", ["bert", "nb"])
def test_candidate_result_independent_of_call(builtin, branch):
    """Every survivor of note-like turns scored alone gives what it gets
    in one call with all the others, on the Step-3 (BERT) branch and the
    ``-nb`` branch."""
    dag, scorer = builtin
    if branch == "nb":
        scorer = copy.copy(scorer)
        scorer.bert = None
    cands = _survivors(dag, _note_texts(dag))
    assert len(cands) > 500
    together = scorer(cands)
    alone = [r for c in cands for r in scorer([c])]
    assert together  # the scorer accepts some of them
    assert [(id(c), h, p) for c, h, p in alone] == \
        [(id(c), h, p) for c, h, p in together]


# ------------------------------------------------------------ masked top-k


class _Cand:
    def __init__(self, tokens):
        self.tokens = tokens


class _RouteAll:
    def forward_keys(self, vecs, idx):
        y = np.zeros((len(idx), 2), np.float32)
        y[:, 0] = 1.0
        return y


class _TableSub:
    """Logits row per key, chosen by its first token's vector."""

    def __init__(self, members, table):
        self.members = members
        self.table = np.asarray(table, np.float32)

    def forward_keys(self, vecs, idx):
        return self.table[vecs[idx[:, 0], 0].astype(int)]

    def hpo_of(self, idx):
        return self.members[idx] if idx < len(self.members) else "None"


class _Dag:
    layer1 = ["HP:L1"]
    name_of: dict = {}


def _full_sort_nb(table, members, p2, topk=5):
    """Today's ``-nb`` selection: argsort of every row, top-k ≥ p2, then
    the first maximum."""
    e = np.exp(table - table.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    top = np.argsort(-probs, axis=1)[:, :min(topk, probs.shape[1])]
    out = []
    for r in range(len(table)):
        ranked = [(members[t] if t < len(members) else "None", float(probs[r, t]))
                  for t in top[r] if probs[r, t] >= p2]
        if ranked:
            h, p = max(ranked, key=lambda hp: hp[1])
            out.append(None if h == "None" else (h, round(p, 4)))
        else:
            out.append(None)
    return out


@pytest.mark.parametrize("p2", [0.0, 0.05, 0.08])
def test_masked_topk_keeps_full_sort_order(p2):
    """Rows of tied integer logits over 12 concepts + None: at p2 ≤ 0.05
    more entries than top-k qualify on most rows, at 0.08 uniform rows
    (1/13 each) have none, and first-max tie-breaks follow the order of a
    full sort of every row."""
    rng = np.random.default_rng(12)
    members = [f"HP:{i:07d}" for i in range(12)]
    table = rng.integers(0, 3, (300, 13)).astype(np.float32)
    table[::7] = 1.0  # uniform rows
    e = np.exp(table - table.max(axis=1, keepdims=True))
    qualify = (e / e.sum(axis=1, keepdims=True) >= p2).sum(axis=1)
    if p2 <= 0.05:
        assert (qualify > 5).sum() > 200
    else:
        assert (qualify == 0).sum() > 40
    scorer = NumpyModelScorer(
        _Dag(), _RouteAll(), {"HP:L1": _TableSub(members, table)},
        token_vec=lambda t: np.array([float(t)], np.float32),
        param1=0.5, param2=p2)
    cands = [_Cand([str(r)]) for r in range(len(table))]
    got = {id(c): (h, p) for c, h, p in scorer(cands)}
    want = _full_sort_nb(table, members, p2)
    assert [got.get(id(c)) for c in cands] == want
    assert sum(w is not None for w in want) > 100


# ------------------------------------------------------------ token memo


@shipped_only
def test_vec_cache_bounded(builtin):
    """The token-embedding memo stops growing at its cap; calls past the
    cap score as an unbounded memo does."""
    dag, scorer = builtin
    cands = _survivors(dag, _note_texts(dag, 3))
    want = [(id(c), h, p) for c, h, p in scorer(cands)]
    capped = copy.copy(scorer)
    capped._vec_cache = {}
    capped.VEC_CACHE_MAX = 25
    for _ in range(2):
        assert [(id(c), h, p) for c, h, p in capped(cands)] == want
        assert len(capped._vec_cache) == 25
