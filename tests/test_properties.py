"""Property-based invariants (hypothesis) for the text chain and linker.

These guard the SURVEY.md §7 "hard parts": offset validity under the
length-preserving canonicalization, determinism, and overlap-resolution
sanity — for arbitrary text, not just fixtures."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from phenobert_ray.linker import annotate_text
from phenobert_ray.textops import (
    canonicalize_for_segmentation,
    normalize_type_notation,
    process_str,
    sentence_spans,
    token_spans,
)

# printable-ish text incl. accents, punctuation, newlines
TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + " .,;:()[]/-_'\"\n\téàüñ‘’",
    max_size=400,
)


@given(TEXT)
@settings(max_examples=200, deadline=None)
def test_canonicalization_length_preserving(s):
    assert len(canonicalize_for_segmentation(s)) == len(s)


@given(TEXT)
@settings(max_examples=200, deadline=None)
def test_spans_are_valid_slices(s):
    canon = canonicalize_for_segmentation(s)
    for a, b in sentence_spans(canon):
        assert 0 <= a < b <= len(canon)
        assert canon[a:b].strip()
    for a, b in token_spans(canon):
        assert 0 <= a < b <= len(canon)


@given(TEXT)
@settings(max_examples=100, deadline=None)
def test_process_str_stable_and_lower(s):
    toks = process_str(s)
    assert toks == process_str(s)
    assert all(t == t.lower() for t in toks)
    assert all(" " not in t and "\t" not in t for t in toks)


@given(s=TEXT)
@settings(max_examples=100, deadline=None)
def test_annotate_offsets_and_determinism(mini_session_dag, s):
    anns1 = annotate_text(s, mini_session_dag)
    anns2 = annotate_text(s, mini_session_dag)
    assert [a.__dict__ for a in anns1] == [a.__dict__ for a in anns2]
    starts = [a.start for a in anns1]
    assert starts == sorted(starts)  # L8 ordering
    for a in anns1:
        assert 0 <= a.start < a.end <= len(s)
        assert s[a.start:a.end] == a.mention
        assert a.hpo_id.startswith("HP:")


@given(s=st.text(alphabet="abcdefg .", max_size=120))
@settings(max_examples=100, deadline=None)
def test_no_annotations_without_dict_vocab(mini_session_dag, s):
    # text over a vocabulary disjoint from the mini ontology can never match
    assert annotate_text(s, mini_session_dag) == []
