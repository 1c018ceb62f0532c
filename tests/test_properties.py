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


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(0, 100),
                  st.floats(0, 1, allow_nan=False)),
        min_size=0, max_size=200,
    )
)
@settings(max_examples=25, deadline=None)
def test_two_phase_groupby_matches_pandas(rows):
    """The bucketed exchange must agree with a plain pandas groupby for any
    key distribution (including empty / all-hot-key inputs)."""
    import pandas as pd
    import ray as _ray

    from phenobert_ray.stages.shuffle import two_phase_groupby

    df = pd.DataFrame(rows, columns=["k1", "k2", "v", "w"])
    ds = _ray.data.from_pandas(df) if len(df) else _ray.data.from_pandas(
        pd.DataFrame({"k1": pd.Series([], dtype="int64"),
                      "k2": pd.Series([], dtype="int64"),
                      "v": pd.Series([], dtype="int64"),
                      "w": pd.Series([], dtype="float64")})
    )
    got = two_phase_groupby(
        ds,
        keys=["k1", "k2"],
        aggs={"mn": ("v", "min", "min"), "mx": ("v", "max", "max"),
              "sw": ("w", "sum", "sum"), "n": (None, "size", "sum")},
        num_buckets=4,
    ).to_pandas()
    if df.empty:
        assert len(got) == 0
        return
    got = got.sort_values(["k1", "k2"]).reset_index(drop=True)
    exp = (
        df.groupby(["k1", "k2"], as_index=False)
        .agg(mn=("v", "min"), mx=("v", "max"), sw=("w", "sum"), n=("v", "size"))
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["k1", "k2", "mn", "mx", "sw", "n"]], exp, check_dtype=False
    )
