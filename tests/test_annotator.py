"""Operator conformance: candidate generation + linking on fixture text vs
hand-computed expected spans (SURVEY.md §5 item 2)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenobert_ray import linker
from phenobert_ray.candidates import Candidate, generate_candidates
from phenobert_ray.linker import annotate_text, annotate_texts, dict_link, resolve_overlaps
from phenobert_ray.textops import (
    _SENT_RE,
    _TOKEN_RE,
    NEGATION_WORDS,
    NUM2WORD,
    canonicalize_for_segmentation,
)


def _cands(text):
    return generate_candidates(canonicalize_for_segmentation(text))


def test_kmer_enumeration():
    cands = _cands("febrile seizure observed")
    texts = {c.text() for c in cands}
    assert "febrile seizure" in texts
    assert "febrile" in texts
    assert "seizure" in texts
    assert "febrile seizure observed" in texts


def test_stopwords_dropped_from_candidates():
    cands = _cands("abnormality of the hand")
    texts = {c.text() for c in cands}
    assert "abnormality hand" in texts  # "of the" dropped by simplify
    assert all("of" not in t.split() for t in texts)


def test_segment_split_on_spliters():
    # ',' splits segments: no candidate crosses it
    cands = _cands("seizure, hypotonia")
    assert all(not {"seizure", "hypotonia"} <= set(c.tokens) for c in cands)


def test_number_substitution():
    cands = _cands("3 toes")
    assert any(c.tokens == ["three", "toes"] for c in cands)
    # the raw digit never survives into candidates (NUM substitution);
    # the word singleton "three" IS kept — reference util.py:1009-1011 only
    # drops stopword/number singletons and "three" is neither.
    assert all("3" not in c.tokens for c in cands)


def test_negation_flag_scoped_to_segment():
    cands = _cands("no seizure today. normal gait noted")
    seiz = [c for c in cands if c.tokens == ["seizure"]]
    assert seiz and all(c.negated for c in seiz)
    gait = [c for c in cands if c.tokens == ["gait"]]
    assert gait and all(c.negated for c in gait)  # "normal" is a cue
    cands2 = _cands("no seizure. clear gait")
    gait2 = [c for c in cands2 if c.tokens == ["gait"]]
    assert gait2 and not any(c.negated for c in gait2)


def test_conjunction_ellipsis_recovery():
    cands = _cands("broad thumbs and toes")
    texts = {c.text() for c in cands}
    assert "broad thumbs" in texts
    assert "toes" in texts
    assert "broad toes" in texts  # A+B variant


def test_dict_link_and_subtree_filter(mini):
    # "dominant inheritance" matches the dict but is outside HP:0000118
    anns = annotate_text("dominant inheritance seen. febrile seizure seen.", mini)
    assert [a.hpo_id for a in anns] == ["HP:0002373"]


def test_overlap_keeps_longest(mini):
    anns = annotate_text("patient shows grand mal seizure today.", mini)
    assert len(anns) == 1
    assert anns[0].mention == "grand mal seizure"
    assert anns[0].hpo_id == "HP:0002069"


def test_use_longest_false_keeps_both(mini):
    anns = annotate_text("patient shows grand mal seizure today.", mini, use_longest=False)
    ids = {a.hpo_id for a in anns}
    assert ids == {"HP:0002069", "HP:0001250"}


def _resolve_overlaps_all_pairs(results, use_longest=True):
    """The reference's all-pairs L7 loop (util.py:1171-1192), kept as the
    oracle for ``resolve_overlaps``, which compares fewer pairs."""
    removed = set()
    for i in range(len(results)):
        if i in removed:
            continue
        ci = results[i][0]
        for j in range(i + 1, len(results)):
            if j in removed:
                continue
            cj = results[j][0]
            if ci.locs <= cj.locs or ci.locs >= cj.locs:
                if use_longest:
                    removed.add(j if len(ci.tokens) > len(cj.tokens) else i)
                elif results[i][1] == results[j][1]:
                    removed.add(i if len(ci.tokens) > len(cj.tokens) else j)
    return sorted((r for k, r in enumerate(results) if k not in removed),
                  key=lambda r: r[0].start)


# a result: token starts drawn from a small range (so spans share starts
# and nest often, empty sets included), its token count, its HPO id
SPANS = st.lists(st.tuples(st.frozensets(st.integers(0, 12), max_size=5),
                           st.integers(1, 5), st.sampled_from("ABC")),
                 max_size=40)


@pytest.mark.parametrize("use_longest", [True, False])
@given(spans=SPANS)
@settings(max_examples=300, deadline=None)
def test_resolve_overlaps_matches_all_pairs(spans, use_longest):
    """On random span sets, ``resolve_overlaps`` keeps exactly the results
    the all-pairs loop keeps, in the same order."""
    results = [(Candidate(tokens=["t"] * n, starts=sorted(locs),
                          start=min(locs, default=0), end=0), hpo, float(k))
               for k, (locs, n, hpo) in enumerate(spans)]
    want = [r[2] for r in _resolve_overlaps_all_pairs(results, use_longest)]
    assert [r[2] for r in resolve_overlaps(results, use_longest)] == want


def _survivors_all_matched(cands, results):
    """The reference's L2 skip (util.py:1054-1061): the unmatched
    candidates outside every span matched before them, checked against
    each of those spans."""
    hits = {id(c) for c, _, _ in results}
    matched, out = [], []
    for c in cands:
        if id(c) in hits:
            matched.append(c.locs)
        elif not any(c.locs <= m for m in matched):
            out.append(c)
    return out


# words of the mini ontology's phrases (so spans match and nest) and filler
WORDS = st.lists(st.sampled_from(
    "febrile seizure grand mal broad thumbs toes hearing loss scoliosis "
    "obesity hypotonia the of no and patient shows today . ,".split()),
    max_size=60)


@given(words=WORDS)
@settings(max_examples=200, deadline=None)
def test_dict_link_subsumption_matches_all_matched(mini_session_dag, words):
    """``dict_link`` keeps exactly the unmatched candidates the check
    against every earlier matched span keeps, in order."""
    cands = _cands(" ".join(words))
    results, survivors = dict_link(cands, mini_session_dag)
    assert survivors == _survivors_all_matched(cands, results)


def test_offsets_slice_original_text(mini):
    text = "Noted: Febrile-Seizure today."
    anns = annotate_text(text, mini)
    assert len(anns) == 1
    a = anns[0]
    assert text[a.start:a.end] == "Febrile-Seizure"
    assert a.mention == "Febrile-Seizure"


def test_sorted_by_start(mini):
    anns = annotate_text("scoliosis seen. obesity seen. nystagmus seen.", mini)
    assert [a.hpo_id for a in anns] == ["HP:0002650", "HP:0001513", "HP:0000639"]
    assert anns[0].start < anns[1].start < anns[2].start


def test_alt_id_canonicalized(mini):
    # dict stores primary ids; canonical() is idempotent on output
    anns = annotate_text("seizure noted.", mini)
    assert anns[0].hpo_id == "HP:0001250"


def test_ner_seeding_restricts_sentences(mini):
    text = "febrile seizure here. scoliosis there."
    # seed only the first sentence's span region
    anns = annotate_text(text, mini, ner_segments=[(0, 15)])
    assert {a.hpo_id for a in anns} == {"HP:0002373"}


_PHRASES: dict = {}


def _phrases(dag) -> list[str]:
    if id(dag) not in _PHRASES:
        _PHRASES[id(dag)] = sorted({p for n in dag.nodes.values()
                                    for p in n.get("name", []) + n.get("synonym", [])})
    return _PHRASES[id(dag)]


def _kernel_texts(draw, dag) -> str:
    """Text made of pieces that exercise each rule of the dictionary
    kernel: dictionary phrases (also with one word made plural, which
    can reorder the lemma key), filler, digits and number words,
    conjunctions with one-token sides, phrases split around a conjunction
    so that only the C3 ellipsis rebuilds them, negation cues, spliter
    punctuation, sentence terminators, ``...`` runs at the start and
    after a newline, ASCII chars the tokenizer treats specially, and
    non-ASCII letters."""
    phrases = st.sampled_from(_phrases(dag))
    word = st.sampled_from(["patient", "shows", "today", "the", "of", "with",
                            "x", "+", "%", "a1", "nan", "1_0"])
    one = word | st.sampled_from(sorted(NUM2WORD)) | st.integers(0, 120).map(str)
    plural = st.tuples(phrases.map(str.split), st.integers(0, 20)).map(
        lambda t: " ".join(w + "s" * (i == t[1] % len(t[0])) for i, w in enumerate(t[0])))
    split = phrases.filter(lambda p: " " in p).map(str.split).flatmap(lambda w: st.sampled_from([
        ", " + " ".join(w[:-1]) + " today and " + w[-1] + " ,",
        ", " + w[0] + " or today " + " ".join(w[1:]) + " ,"]))
    piece = st.one_of(
        phrases, plural, split, one,
        st.tuples(one | phrases, st.sampled_from(["and", "or", "/"]), phrases
                  ).map(" ".join),
        st.tuples(phrases, st.sampled_from(["and", "or", "/"]), one).map(" ".join),
        st.sampled_from(sorted(NEGATION_WORDS)),
        st.sampled_from(list(",.;:()[]!?") + ["...", "\n", "\n...", "\n\n..!",
                                              "_", "\r", "\t", "\x1c", "\x1d",
                                              "\x1e", "\x1f", "\x7f"]),
        st.sampled_from(["é", "Ölfleck", "ß", "İ", "ñandú", "‘quoted’"]),
    )
    pieces = draw(st.lists(st.tuples(piece, st.sampled_from([" ", " ", ""])),
                           max_size=20))
    return "".join(p + sep for p, sep in pieces)


_EXAMPLES = [
    "the fast key table scan. patient shows no grand mal seizure today.",
    "patient shows broad thumbs and toes today. exam reveals hearing loss.",
    "Noted: Febrile-Seizure today. dominant inheritance. 3 toes",
    "seizure, hypotonia and obesity. normal gait",
    "",
    "....",
    # lemma keys in surface order, out of lemma order (util.py:414-415)
    "Absent kidney ons one side",
    "Abnormality of hard tissues ofs teeth",
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_path_equivalence(shipped_dag, data):
    """The batch dictionary kernel gives exactly the reference-shaped slow
    path's annotations (generate_candidates + dict_link, which a scorer
    forces) on the shipped ontology, unseeded and NER-seeded."""
    for txt in _EXAMPLES + [data.draw(st.composite(_kernel_texts)(shipped_dag))]:
        assert annotate_text(txt, shipped_dag) == annotate_text(
            txt, shipped_dag, scorer=lambda c: []), txt
    bound = st.integers(0, len(txt))
    seeds = data.draw(st.lists(st.tuples(bound, bound).map(sorted).map(tuple), max_size=4))
    assert annotate_text(txt, shipped_dag, ner_segments=seeds) == annotate_text(
        txt, shipped_dag, scorer=lambda c: [], ner_segments=seeds), (txt, seeds)


@pytest.fixture(scope="module")
def standin(shipped_dag):
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.standins import StandInScorer

    # loose thresholds, so the scorer's spans meet the dictionary's in L7
    return StandInScorer(shipped_dag, PipelineConfig(param1=0.5, param2=0.0, param3=0.0))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_is_batch_invariant(shipped_dag, standin, data):
    """One ``annotate_texts`` call over many texts has the rows of one
    ``annotate_text`` call per text, with or without a scorer, whatever
    the order, duplicates, empty texts or texts that end mid-sentence: no
    segment or window crosses a text boundary."""
    import pyarrow as pa

    texts = data.draw(st.lists(st.composite(_kernel_texts)(shipped_dag)
                               | st.sampled_from(["", "febrile", "seizure"]),
                               max_size=8))
    texts = data.draw(st.permutations(texts + texts[:data.draw(st.integers(0, 3))]))
    for scorer in (None, lambda c: [], standin):
        got = annotate_texts(texts, shipped_dag, scorer=scorer)
        rows = [dict(zip(linker.COLUMNS, (i, a.start, a.end, a.mention, a.hpo_id, a.score,
                                          a.negated)))
                for i, t in enumerate(texts) for a in annotate_text(t, shipped_dag, scorer=scorer)]
        assert got.column_names == list(linker.COLUMNS)
        assert got.equals(pa.Table.from_pylist(rows, got.schema)), (scorer, texts)


def test_class_table_matches_the_regexes():
    assert all(
        ((_TOKEN_RE.findall(ch * 2) == [ch * 2]) == bool(cls & linker._WORD))
        and ((_TOKEN_RE.findall(ch * 2) == [ch, ch]) == bool(cls & linker._PUNCT))
        and ((_SENT_RE.findall(f"a{ch}a") == [f"a{ch}", "a"]) == bool(cls & linker._TERM))
        and ((_SENT_RE.findall(f"a{ch}a") == ["a", "\n", "a"]) == bool(cls & linker._NL))
        for ch, cls in zip(map(chr, range(128)), linker._CLASSES.tolist()))


def test_one_char_key_matches_only_inside_a_longer_part(mini):
    """A part of one one-char token yields no window, as in the slow path;
    inside a longer part the same token matches."""
    dag = copy.deepcopy(mini)
    dag.phrase2hpo["x"] = "HP:0001250"
    dag.refresh_fingerprint()
    for txt in ["x", "x seizure", "patient x", "x. x, x and seizure"]:
        assert annotate_text(txt, dag) == annotate_text(txt, dag, scorer=lambda c: []), txt
    assert [a.mention for a in annotate_text("patient x", dag)] == ["x"]


def test_kernel_index_stays_out_of_the_broadcast():
    """The dictionary kernel's index (and its token memo) is built on a
    process's first probe; pickling the dag after that ships none of it."""
    import pickle

    from phenobert_ray.assets.mini_hpo import mini_dag

    dag = mini_dag()
    size = len(pickle.dumps(dag))
    assert annotate_text("febrile seizure and hypotonia today.", dag)
    assert hasattr(dag, "_kernel_idx")
    assert len(pickle.dumps(dag)) == size


def test_c3_ellipsis_only_on_seeded_spans():
    """Reference parity: the A+B ellipsis recovery runs only on
    NER-seeded spans — C2 spliter-pass segments are already split at
    and/or/'/' and never reach C3 intact (util.py:930,957-967)."""
    from phenobert_ray.candidates import generate_segments

    text = "febrile and atonic seizure"
    # pseudo-seeded (no NER): conjunction survives C2, C3 splits + recovers
    # the A+B ellipsis form (a=[febrile], b=[atonic, seizure] -> a + b[1:])
    segs = generate_segments(text, None)
    texts = {" ".join(t.text for t in s.items) for s in segs}
    assert "febrile seizure" in texts  # A+B recovery fired

    # seed covering only the leading token: the conjunction text is NON-
    # seeded leftover in the same sentence -> split at "and" in C2, NO
    # recovery
    shifted = "x, " + text
    seeded = generate_segments(shifted, [(0, 1)])
    texts_ns = {" ".join(t.text for t in s.items) for s in seeded}
    assert "febrile seizure" not in texts_ns
    assert "febrile" in texts_ns and "atonic seizure" in texts_ns

    # seed covering the conjunction span: recovery fires
    seeded2 = generate_segments(shifted, [(3, len(shifted))])
    texts_s = {" ".join(t.text for t in s.items) for s in seeded2}
    assert "febrile seizure" in texts_s


def test_ner_seeded_spans_split_at_span_punct():
    """The reference breaks a PROBLEM span at {, . : ; ( ) [ ]}
    (util.py:903): one NER span over 'cleft lip , cleft palate' must
    yield TWO seeded phrases, never one with a ',' token (review r4)."""
    from phenobert_ray.candidates import generate_segments
    from phenobert_ray.textops import canonicalize_for_segmentation

    text = "cleft lip , cleft palate today."
    canon = canonicalize_for_segmentation(text)
    segs = [s for s in generate_segments(canon, ner_segments=[(0, 24)])
            if s.seeded]
    texts = [" ".join(t.text for t in s.items) for s in segs]
    assert "cleft lip" in texts and "cleft palate" in texts
    assert all("," not in t for t in texts)


def test_c2_keeps_plus_inside_phrase():
    """C2 splits ONLY on the reference spliter set (util.py:930-938):
    'spasticity + hyperreflexia' stays one phrase whose windows span the
    '+' (an extra any-non-alnum split rule shrank them, review r4)."""
    from phenobert_ray.candidates import generate_segments

    segs = generate_segments("spasticity + hyperreflexia today.")
    joined = [" ".join(t.text for t in s.items) for s in segs]
    assert any("spasticity" in j and "hyperreflexia" in j for j in joined)
