"""Unit tests for the normalizer chain (SURVEY.md §5 item 1) — byte-level
fidelity to the reference formulas (util.py:698-718, 886-889, annotate.py:64)."""

from phenobert_ray import textops as T


def test_type_notation():
    assert T.normalize_type_notation("HP-3 and A-1 but a-3 and 3-4") == "HP3 and A1 but a-3 and 3-4"


def test_strip_accents():
    assert T.strip_accents("café naïve") == "cafe naive"


def test_process_str():
    # punctuation [-_"'\t\r\n‘’] → space; lowercase; accent-strip; split
    assert T.process_str("Short-stature_test") == ["short", "stature", "test"]
    assert T.process_str("it's  a\ttest") == ["it", "s", "a", "test"]
    # period/comma are NOT stripped by process_str (reference util.py:715)
    assert T.process_str("a.b, c") == ["a.b,", "c"]


def test_canonicalize_is_length_preserving():
    for s in [
        "Broad-thumbs and 'toes'",
        "Café\tnaïve X\ny",
        "line one\nline two",
        "weird — dash…",
    ]:
        assert len(T.canonicalize_for_segmentation(s)) == len(s)


def test_canonicalize_newline_to_period():
    assert T.canonicalize_for_segmentation("word\nnext") == "word.next"
    # newline not after word char stays (reference regex lookbehind)
    assert T.canonicalize_for_segmentation(" \nnext") == " \nnext"


def test_sentence_and_token_spans():
    text = "one two. three four! five"
    sents = T.sentence_spans(text)
    assert [text[a:b] for a, b in sents] == ["one two.", " three four!", " five"]
    toks = T.token_spans("ab, cd.")
    assert [("ab"), (","), ("cd"), (".")] == ["ab", ",", "cd", "."]
    assert [a for a, _ in toks] == [0, 2, 4, 6]


def test_num_predicates():
    assert T.is_num("3.5") and T.is_num("7") and not T.is_num("3a")


def test_lemmatize():
    assert T.lemmatize("seizures") == "seizure"
    assert T.lemmatize("anomalies") == "anomaly"
    assert T.lemmatize("feet") == "foot"
    assert T.lemmatize("glass") == "glass"
    assert T.lemmatize("mucus") == "mucus"
    assert T.lemmatize("matches") == "match"
    # Greek/Latin clinical plurals the suffix rules mangled (review r4 w8):
    # these must hit the dictionary keys the reference's WordNet lemmatizer
    # hits ('stenoses' → the 'stenosis' entry, not 'stenose')
    assert T.lemmatize("stenoses") == "stenosis"
    assert T.lemmatize("metastases") == "metastasis"
    assert T.lemmatize("viruses") == "virus"
    assert T.lemmatize("lenses") == "lens"
    assert T.lemmatize("fungi") == "fungus"
    assert T.lemmatize("calculi") == "calculus"
    assert T.lemmatize("petechiae") == "petechia"
    assert T.lemmatize("phalanges") == "phalanx"
    assert T.lemmatize("ascites") == "ascites"
    # ...without breaking regular '-ses'/'-uses' words
    assert T.lemmatize("cases") == "case"
    assert T.lemmatize("causes") == "cause"
    assert T.lemmatize("diseases") == "disease"


def test_bag_keys():
    assert T.bag_key(["b", "a"]) == "a b"
    assert T.lemma_bag_key(["thumbs", "broad"]) == "broad thumb"


def test_canonicalize_length_preserving_turkish_dotted_i():
    """str.lower() maps U+0130 to TWO chars; the canonicalizer must stay
    length-exact or every downstream span offset shifts (review r4)."""
    from phenobert_ray.textops import canonicalize_for_segmentation as c

    for t in ["İstanbul fever", "ẞ and ǅ start", "café ÀÉÎ"]:
        assert len(c(t)) == len(t), t
    assert c("İstanbul") == "istanbul"
