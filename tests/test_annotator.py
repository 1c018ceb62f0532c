"""Operator conformance: candidate generation + linking on fixture text vs
hand-computed expected spans (SURVEY.md §5 item 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenobert_ray.candidates import Candidate, generate_candidates
from phenobert_ray.linker import annotate_text, dict_link, resolve_overlaps
from phenobert_ray.textops import canonicalize_for_segmentation


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


def test_fast_path_equivalence(mini):
    """The dict-only fast probe (vocab-pruned, length-capped) is output-
    equivalent to the full candidate-generation + dict_link path."""
    samples = [
        "the fast key table scan. patient shows no grand mal seizure today.",
        "patient shows broad thumbs and toes today. exam reveals hearing loss.",
        "Noted: Febrile-Seizure today. dominant inheritance. 3 toes",
        "seizure, hypotonia and obesity. normal gait",
        "",
        "....",
    ]
    for txt in samples:
        fast = [
            (a.start, a.end, a.hpo_id, a.negated, a.score)
            for a in annotate_text(txt, mini)
        ]
        slow = [
            (a.start, a.end, a.hpo_id, a.negated, a.score)
            for a in annotate_text(txt, mini, scorer=lambda c: [])
        ]
        assert fast == slow, txt


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
