"""Hermetic distributional token vectors (sgns_np): the fastText-style
subword SGNS trained from the reference's SHIPPED synonym supervision
(train.txt / train_source phrase→concept pairs — the hermetic substitute
for the external fasttext_pubmed.bin, ref annotate.py:44-45)."""

import numpy as np
import pytest


def _cos(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


@pytest.fixture(scope="module")
def toy_model(tmp_path_factory):
    """A small trained model for mechanical checks (roundtrip parity,
    composition).  NOTE vector GEOMETRY is deliberately not asserted at
    toy scale: SGNS needs the full shipped supervision before the bridge
    signal separates from the anisotropy baseline (measured: at ≤1.5k
    words every pairing collapses toward cosine ≈ 0.99; at the full 17k
    words renal~kidney = 0.86 vs heart~toe = 0.31 over a 0.68 random
    mean) — the geometry evidence lives in BASELINE.md, produced by
    tools/train_assets.py."""
    import string

    from phenobert_ray.sgns_np import SubwordSGNS, make_pairs

    r0 = np.random.default_rng(7)

    def tok():
        return "".join(r0.choice(list(string.ascii_lowercase), size=7))

    toks = list(dict.fromkeys(tok() for _ in range(250)))[:140]
    concepts, ti = {}, 0
    for c in range(30):
        concepts[f"HP:{c}"] = [[toks[ti], toks[ti + 1]],
                               [toks[ti + 2], toks[ti + 3]]]
        ti += 4
    nones = [[toks[120 + i], toks[121 + i]] for i in range(18)]
    words = ["</s>"] + sorted({t for phs in list(concepts.values()) + [nones]
                               for tl in phs for t in tl})
    model = SubwordSGNS(words, dim=32, bucket=2048, seed=0)

    def pairs_fn(_ep, rng):
        return make_pairs(concepts, nones, model.vocab, rng,
                          max_cross_per_concept=40)

    model.train(pairs_fn, epochs=4, lr=0.05, seed=0, log=lambda *a: None)
    return model, concepts


def test_make_pairs_bridges_only_cross_form():
    """Cross-concept pairs must never be generated; bridge pairs must
    link tokens of DIFFERENT surface forms of the same concept; within-
    phrase pairs cover every ordered in-phrase combination."""
    from phenobert_ray.sgns_np import make_pairs

    concepts = {"HP:1": [["aa", "bb"], ["cc", "dd"]],
                "HP:2": [["ee", "ff"]]}
    nones = [["gg", "hh"]]
    vocab = {t: i for i, t in enumerate(
        ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"])}
    inv = {i: t for t, i in vocab.items()}
    pairs = make_pairs(concepts, nones, vocab,
                       np.random.default_rng(0), max_cross_per_concept=50)
    got = {(inv[a], inv[b]) for a, b in pairs}
    # within-phrase pairs all present
    for a, b in [("aa", "bb"), ("bb", "aa"), ("cc", "dd"), ("ee", "ff"),
                 ("gg", "hh")]:
        assert (a, b) in got
    # bridge pairs only between different forms of HP:1
    hp1, hp2 = {"aa", "bb", "cc", "dd"}, {"ee", "ff"}
    for a, b in got:
        assert not (a in hp1 and b in hp2), (a, b)
        assert not (a in hp2 and b in hp1), (a, b)
        assert not ((a in {"gg", "hh"}) ^ (b in {"gg", "hh"})), (a, b)
    assert ("aa", "cc") in got or ("aa", "dd") in got  # bridges exist


def test_training_moves_weights_and_stays_finite(toy_model):
    model, _ = toy_model
    assert np.isfinite(model.input).all()
    assert np.isfinite(model.output).all()
    # output rows actually trained (started at zero)
    assert float(np.abs(model.output).sum()) > 0


def test_bin_roundtrip_composition_parity(toy_model, tmp_path):
    """save() emits a standard fastText .bin; both loaders (the training
    twin FastTextEmbedder and the inference FastTextBin used by
    standins.load_torch_scorer) must reproduce the trainer's composition
    bit-for-bit — one vector space, three code paths."""
    from phenobert_ray.sgns_np import FastTextEmbedder
    from phenobert_ray.state.fasttext_bin import FastTextBin

    model, _ = toy_model
    path = str(tmp_path / "toy.bin")
    model.save(path)
    emb = FastTextEmbedder.from_bin(path)
    ft = FastTextBin(path)
    in_vocab = [w for w in model.words if w != "</s>"][:4]
    for w in in_vocab + ["unseen-token"]:
        got_e = emb(w)
        got_b = ft.get_word_vector(w).astype(np.float32)
        np.testing.assert_array_equal(got_e, got_b)
        if w in model.vocab:
            np.testing.assert_allclose(
                got_e, model.word_vector(model.vocab[w]), rtol=1e-6)
    # OOV tokens still get subword vectors (fastText's whole point)
    assert np.linalg.norm(emb("unseen-token")) > 0


def test_load_concept_phrases_reads_shipped_supervision(tmp_path):
    """Supervision in the reference's layout (train.txt plus
    train_source/train_*.txt, ``phrase<TAB>HP:… | None``) built from
    names and synonyms of the shipped DAG.json: phrases group by concept
    (deduplicated across files), None rows become negatives, malformed
    lines are skipped, and a dir without train.txt is an error."""
    import json
    from importlib.resources import files

    from phenobert_ray.sgns_np import load_concept_phrases
    from phenobert_ray.train_np import simplified_tokens

    dag = json.loads(
        files("phenobert_ray.assets").joinpath("trained/DAG.json").read_text())
    picked = [h for h, v in dag.items() if v["synonym"]][:6]
    picked += [h for h, v in dag.items() if not v["synonym"]][:2]
    nones = ["the weather today", "a long walk home", "coffee and tea"]

    src = tmp_path / "train_source"
    src.mkdir()
    with open(tmp_path / "train.txt", "w", encoding="utf-8") as f:
        for h in picked:
            f.write(f"{dag[h]['name'][0]}\t{h}\n")
        f.write(f"{nones[0]}\tNone\n")
        f.write("malformed line without a tab\n")
    with open(src / "train_0.txt", "w", encoding="utf-8") as f:
        for h in picked:
            # the name again (dedup across files) plus every synonym
            for p in [dag[h]["name"][0], *dag[h]["synonym"]]:
                f.write(f"{p}\t{h}\n")
        for p in nones:
            f.write(f"{p}\tNone\n")

    concepts, got_nones = load_concept_phrases(str(tmp_path), simplified_tokens)
    assert set(concepts) == set(picked)
    for h in picked:
        phrases = sorted({dag[h]["name"][0], *dag[h]["synonym"]})
        want = [t for t in map(simplified_tokens, phrases) if t]
        assert concepts[h] == want, h
    assert got_nones == [simplified_tokens(p) for p in sorted(nones)]
    # multi-surface-form concepts (the bridge signal) survive grouping
    multi = {h for h in picked if len(concepts[h]) > 1}
    assert multi and multi <= {h for h in picked if dag[h]["synonym"]}

    with pytest.raises(FileNotFoundError):
        load_concept_phrases(str(tmp_path / "missing"), simplified_tokens)


def test_router_accepts_frozen_embedder():
    """train_l1_router(embedder=...) must fit against externally-supplied
    frozen vectors (the SGNS / imported-fastText path) — gradient flow
    through the embedder is neither needed nor attempted."""
    from phenobert_ray.sgns_np import SubwordSGNS
    from phenobert_ray.train_np import train_l1_router

    words = ["</s>", "aa", "bb", "cc", "dd"]
    m = SubwordSGNS(words, dim=8, bucket=64, seed=1)

    class Emb:
        dim = 8

        def __call__(self, tok):
            i = m.vocab.get(tok, 0)
            return m.word_vector(i)

    samples = [(["aa", "bb"], [0]), (["cc"], [1]), (["dd"], [2]),
               (["aa"], [0]), (["bb", "cc"], [1]), (["dd", "aa"], [2])] * 6
    state = train_l1_router(samples, 2, dims=(8, 16, 8), epochs=3,
                            embedder=Emb(), log=lambda *a: None)
    assert "linear.weight" in state


def test_long_word_trains_full_subword_composition(tmp_path):
    """Train/serve parity for LONG tokens: the composition table must hold
    every n-gram id (no truncation) because the serving side
    (FastTextBin.get_word_vector) composes over ALL n-grams — a capped
    table would ship vectors whose tail n-gram rows never saw a gradient
    (review r4 finding)."""
    from phenobert_ray.sgns_np import FastTextEmbedder, SubwordSGNS
    from phenobert_ray.state.fasttext_bin import FastTextBin, compute_subwords

    long_word = "pseudohypoparathyroidism-like-presentation"  # 42 chars
    words = ["</s>", "short", long_word]
    m = SubwordSGNS(words, dim=8, bucket=256, seed=0)
    i = m.vocab[long_word]
    n_grams = len(compute_subwords(long_word, m.minn, m.maxn))
    assert int(m.comp_n[i]) == 1 + n_grams  # word row + every n-gram row

    path = str(tmp_path / "long.bin")
    m.save(path)
    emb = FastTextEmbedder.from_bin(path)
    ft = FastTextBin(path)
    np.testing.assert_array_equal(emb(long_word),
                                  ft.get_word_vector(long_word).astype(np.float32))
    np.testing.assert_allclose(emb(long_word), m.word_vector(i), rtol=1e-6)
