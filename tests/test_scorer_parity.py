"""Branch-logic parity of NumpyModelScorer vs util.py:1098-1146.

Pins the Step-2/Step-3 branch fixes with stub models (no weights needed):
- -nb branch keeps "None" in the Step-2 ranking and DROPS the phrase when
  it wins (util.py:1106-1110) instead of emitting the runner-up;
- Step-3 branch takes top-10 per subtree (top-all when ≤10), collects a
  set, and drops the phrase when "None" qualifies anywhere in it
  (util.py:1120-1146);
- BERT input prep is addWords (lowercase + all-punctuation→space), applied
  to both pair sides (my_bert_match.py:50-68).
"""

import numpy as np
import pytest

from phenobert_ray.models_np import NumpyModelScorer
from phenobert_ray.textops import addwords_tokens


class _Cand:
    def __init__(self, tokens):
        self.tokens = tokens


class _StubEncoder:
    embedding_dim = 4


class _StubL1:
    """Routes every candidate to subtree 0 with score 1.0."""

    encoder = _StubEncoder()

    def __init__(self, n_class=1):
        self.n_class = n_class

    def forward_keys(self, vecs, idx):
        y = np.zeros((len(idx), self.n_class + 1), np.float32)
        y[:, 0] = 1.0
        return y


class _StubSub:
    """Fixed logits; members list ends implicitly with the None slot."""

    def __init__(self, members, logits):
        self.members = members
        self.logits = np.asarray(logits, np.float32)

    def forward_keys(self, vecs, idx):
        return np.tile(self.logits, (len(idx), 1))

    def hpo_of(self, idx):
        return self.members[idx] if idx < len(self.members) else "None"


class _Dag:
    layer1 = ["HP:L1"]

    def __init__(self, names):
        self.name_of = names


def _scorer(sub, bert=None, p2=0.0):
    return NumpyModelScorer(
        _Dag({f"HP:{i:07d}": f"name {i}" for i in range(20)}),
        _StubL1(), {"HP:L1": sub},
        token_vec=lambda t: np.zeros(4, np.float32),
        param1=0.5, param2=p2, bert=bert, param3=0.5)


def test_nb_branch_drops_phrase_when_none_wins():
    # None slot (last logit) dominates -> reference drops the phrase
    members = [f"HP:{i:07d}" for i in range(3)]
    sub = _StubSub(members, [1.0, 2.0, 0.5, 9.0])  # None wins
    out = _scorer(sub)([_Cand(["abc"])])
    assert out == []
    # concept wins -> emitted with its softmax prob
    sub2 = _StubSub(members, [1.0, 9.0, 0.5, 2.0])
    out2 = _scorer(sub2)([_Cand(["abc"])])
    assert len(out2) == 1 and out2[0][1] == "HP:0000001"


def test_step3_uses_top10_and_drops_on_none_in_set():
    captured = {}

    class _Bert:
        def best_match(self, phrase, named, thr):
            captured["phrase"] = phrase
            captured["named"] = named
            return (named[0][0], 0.9, 2)

    # 12 concepts + None: concept 11 has the 10th-highest logit -> must be
    # in the candidate set under top-10 (was silently cut at top-5)
    members = [f"HP:{i:07d}" for i in range(12)]
    logits = [12, 11, 10, 9, 8, 7, 6, 5, 4, 0.5, 0.2, 3.5, -99]  # None last
    out = _scorer(_StubSub(members, logits), bert=_Bert())([_Cand(["Ab-c", "def"])])
    assert len(out) == 1
    hpos = {h for h, _name in captured["named"]}
    assert "HP:0000011" in hpos          # rank 10 survives
    assert "HP:0000009" not in hpos      # rank 11 cut
    assert len(hpos) == 10
    # both pair sides went through addWords prep
    assert captured["phrase"] == ["ab", "c", "def"]
    assert all(n == addwords_tokens(f"name {int(h[3:]):d}")
               for h, n in captured["named"])

    # a qualifying None anywhere in the set drops the phrase entirely
    logits_none_high = [12, 11, 10, 9, 8, 7, 6, 5, 4, 0.5, 0.2, 3.5, 10.5]
    out2 = _scorer(_StubSub(members, logits_none_high), bert=_Bert())(
        [_Cand(["abc"])])
    assert out2 == []


def test_step3_top_all_when_small_subtree():
    captured = {}

    class _Bert:
        def best_match(self, phrase, named, thr):
            captured["named"] = named
            return None

    members = [f"HP:{i:07d}" for i in range(3)]
    # p2=0.01 keeps all 3 concepts but excludes the ~0-prob None slot
    out = _scorer(_StubSub(members, [3.0, 2.0, 1.0, -99]), bert=_Bert(),
                  p2=0.01)([_Cand(["abc"])])
    assert out == []  # best_match returned None
    assert {h for h, _ in captured["named"]} == set(members)


@pytest.mark.parametrize("s,want", [
    ("Short stature, severe", ["short", "stature", "severe"]),
    ("Ab-c (def)", ["ab", "c", "def"]),
    ("café", ["café"]),  # NO accent strip in addWords
])
def test_addwords_tokens(s, want):
    assert addwords_tokens(s) == want
