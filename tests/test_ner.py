"""C1 clinical-NER span seeding (ner_np): hermetic averaged-perceptron
tagger trained on dictionary-projected silver labels (ref annotate.py:47,
util.py:891-943 — the Stanza PROBLEM seeder)."""

import os

import numpy as np
import pytest

TRAINED = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "phenobert_ray", "assets", "trained")
REF = "/root/reference/phenobert"


def _toy_sentences():
    """Deterministic silver corpus: 'PROBLEM' tokens end in -osis and are
    preceded by 'has'; plenty of O noise."""
    rng = np.random.default_rng(3)
    noise = ["walk", "table", "green", "later", "house", "run", "cloud",
             "paper", "street", "apple"]
    probs = ["fibrosis", "stenosis", "cyanosis", "ptosis", "kyphosis"]
    sents = []
    for d in range(40):
        for _ in range(6):
            words, labels = [], []
            for _ in range(int(rng.integers(3, 7))):
                words.append(noise[int(rng.integers(len(noise)))])
                labels.append(False)
            if rng.random() < 0.7:
                words.append("has")
                labels.append(False)
                words.append(probs[int(rng.integers(len(probs)))])
                labels.append(True)
            # token_spans emits sentence-final "." as its own token at
            # decode time — the toy corpus must match that shape, like
            # silver_sentences (same tokenizer) does in production
            words.append(".")
            labels.append(False)
            sents.append({"doc_id": f"d{d}", "words": words,
                          "labels": labels})
    return sents


@pytest.fixture(scope="module")
def toy_tagger():
    from phenobert_ray.ner_np import train_tagger

    tagger, metrics = train_tagger(
        _toy_sentences(), frozenset(), epochs=6, seed=0,
        target_recall=0.98, log=lambda *a: None)
    return tagger, metrics


def test_toy_tagger_learns_pattern(toy_tagger):
    tagger, metrics = toy_tagger
    assert metrics["dev_token_recall"] >= 0.95
    assert metrics["dev_token_precision"] >= 0.6
    # generalization: unseen -osis word in the learned context
    sc = tagger.scores(["walk", "has", "neurosis", "."])
    assert sc[2] > tagger.threshold
    assert sc[0] <= sc[2]


def test_predict_segments_decodes_runs(toy_tagger):
    """Contiguous accepted tokens collapse to one span; boundaries are
    char offsets into the canonical text (the ner_segments contract)."""
    tagger, _ = toy_tagger
    canon = "walk has fibrosis. green table."
    spans = tagger.predict_segments(canon)
    # fibrosis must be inside some span; the second sentence may or may
    # not seed, but any span must align to token boundaries
    covered = [canon[a:b] for a, b in spans]
    assert any("fibrosis" in c for c in covered), covered
    for a, b in spans:
        assert 0 <= a < b <= len(canon)
        assert canon[a] != " " and canon[b - 1] != " "


def test_save_load_roundtrip(toy_tagger, tmp_path):
    from phenobert_ray.ner_np import NerTagger

    tagger, _ = toy_tagger
    p = str(tmp_path / "ner.pt")
    tagger.save(p)
    back = NerTagger.load(p)
    words = ["walk", "has", "fibrosis", "apple"]
    np.testing.assert_allclose(back.scores(words), tagger.scores(words),
                               rtol=1e-6)
    assert back.threshold == pytest.approx(tagger.threshold)


def test_silver_projection_labels_dict_matches(mini):
    """Tokens inside a Step-1 dictionary match are silver-PROBLEM; prose
    tokens are O."""
    from phenobert_ray.ner_np import silver_sentences

    texts = {"a": "Patient shows atrial septal defect. The weather is "
                  "nice today."}
    sents = silver_sentences(texts, mini)
    assert len(sents) == 2
    lab = dict(zip(sents[0]["words"], sents[0]["labels"]))
    assert lab["atrial"] and lab["septal"] and lab["defect"]
    assert not lab["patient"]
    assert not any(sents[1]["labels"])


@pytest.mark.skipif(not os.path.exists(os.path.join(TRAINED, "ner.pt")),
                    reason="packaged tagger absent")
def test_packaged_tagger_keeps_dictionary_recall(mini):
    """Seeding must not break the dictionary path: annotating the mini-dag
    fixture sentences with the packaged tagger keeps every dictionary
    match whose tokens the tagger accepts — and on dictionary-phrase
    sentences (clinical register by construction) that is all of them."""
    from phenobert_ray.linker import annotate_text
    from phenobert_ray.ner_np import NerTagger

    ner = NerTagger.load(os.path.join(TRAINED, "ner.pt"))
    texts = [
        "Patient presents with atrial septal defect and seizure.",
        "No evidence of hearing impairment.",
    ]
    for t in texts:
        base = {(a.start, a.hpo_id) for a in annotate_text(t, mini)}
        seeded = {(a.start, a.hpo_id)
                  for a in annotate_text(t, mini, ner=ner)}
        assert seeded == base, (t, base, seeded)


@pytest.mark.skipif(not os.path.exists(os.path.join(TRAINED, "ner.pt"))
                    or not os.path.isdir(f"{REF}/data/GSC+/corpus"),
                    reason="packaged tagger or reference corpus absent")
def test_packaged_tagger_prunes_prose():
    """The C1 contract: non-clinical prose sentences produce no seeds
    (pseudo-seeding would fan every one of them into the scorers)."""
    from phenobert_ray.ner_np import NerTagger
    from phenobert_ray.textops import canonicalize_for_segmentation

    ner = NerTagger.load(os.path.join(TRAINED, "ner.pt"))
    prose = ("we thank the reviewers for their helpful comments. "
             "the study was funded by a university grant. "
             "all authors approved the final draft.")
    spans = ner.predict_segments(canonicalize_for_segmentation(prose))
    covered = sum(b - a for a, b in spans)
    assert covered < len(prose) * 0.3, spans
    clinical = canonicalize_for_segmentation(
        "the patient showed hypertelorism, seizures and renal failure.")
    spans_c = ner.predict_segments(clinical)
    assert sum(b - a for a, b in spans_c) > 0


def test_train_tagger_never_trains_on_empty_split():
    """The crc dev split must never claim every doc: an empty train set
    would yield a zero-weight tagger whose calibrated threshold accepts
    everything while reporting dev recall 1.0 (review r4)."""
    import pytest

    from phenobert_ray.ner_np import train_tagger

    def sent(doc, words, labels):
        return {"doc_id": doc, "words": words, "labels": labels}

    # two docs whose ids both land under crc%1000 < 150 would previously
    # empty the train set; the cap keeps >= half the docs in train
    base = [sent(f"d{i}", ["pain", "in", "arm"], [1, 0, 0])
            for i in range(2)]
    tagger, metrics = train_tagger(base, frozenset({"pain"}),
                                   epochs=1, log=lambda *a: None)
    assert metrics["n_dev_docs"] <= 1  # half of 2 docs
    assert metrics["n_dev_docs"] >= 1

    with pytest.raises(ValueError):
        train_tagger([sent("only", ["a"], [0])], frozenset(),
                     log=lambda *a: None)


def _scan_seeds(sents, ner_segments):
    """Reference for ``candidates._ner_seeds``: every span tested against
    every sentence, and every token of the sentence against every span
    that intersects it."""
    from phenobert_ray.textops import SPAN_PUNCT

    out = []
    for s, e, toks in sents:
        runs = []
        for ns, ne in ner_segments:
            if ne <= s or ns >= e:
                continue
            run = []
            for t in toks:
                if not (ns <= t.start < ne):
                    continue
                if t.text in SPAN_PUNCT:
                    if run:
                        runs.append(run)
                    run = []
                else:
                    run.append(t)
            if run:
                runs.append(run)
        out.append(runs)
    return out


def test_ner_seeding_sweep_matches_scan(monkeypatch):
    """The span sweep seeds, and ``generate_segments`` emits, exactly what
    the per-sentence scan did, segment for segment and in the same order,
    on random texts with unsorted, overlapping, empty, out-of-range and
    sentence-crossing span lists."""
    import random

    from phenobert_ray import candidates
    from phenobert_ray.textops import canonicalize_for_segmentation

    words = ["cleft", "lip", "palate", "no", "seizure", "and", "or", "/",
             ",", ";", "(", ")", ":", "with", "the", "2", "renal", "failure",
             ".", "!", "?", "\n", "+"]

    def segs(canon, spans):
        return [([(t.text, t.start, t.end) for t in g.items], g.negated,
                 g.seeded, [(t.text, t.start) for t in g.simple])
                for g in candidates.generate_segments(canon, spans)]

    rng = random.Random(11)
    cases = []
    for _ in range(300):
        canon = canonicalize_for_segmentation(
            " ".join(rng.choice(words) for _ in range(rng.randint(0, 60))))
        n = len(canon)
        spans = []
        for _ in range(rng.randint(0, 12)):
            a = rng.randint(-3, n + 3)
            spans.append((a, a + rng.randint(-4, max(1, n // 2))))
        cases.append((canon, spans))
        cases.append((canon, sorted(spans)))
    # a sentence no span touches is skipped (util.py:920-922): only the
    # first sentence below is seeded, and the second yields no segment
    two = canonicalize_for_segmentation("cleft lip. renal failure.")
    assert [t for _, _, _, simple in segs(two, [(0, 4), (20, 11)])
            for t in simple] == [("cleft", 0)]
    got = []
    for canon, spans in cases:
        sents = candidates._sentence_tokens(canon)
        assert candidates._ner_seeds(sents, spans) == _scan_seeds(sents, spans)
        got.append(segs(canon, spans))
    monkeypatch.setattr(candidates, "_ner_seeds", _scan_seeds)
    want = [segs(canon, spans) for canon, spans in cases]
    assert got == want
    assert sum(len(g) for g in got) > 1000  # the cases produce segments
