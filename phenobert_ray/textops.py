"""Pure-Python text normalization primitives (operators M1-M10 of SURVEY.md §2.2).

These re-create, from public knowledge only, the normalization chain of the
reference recognizer (see /root/reference/phenobert/utils/util.py:698-770 and
:886-889 for the semantics being matched).  They are deliberately dependency
free (no NLTK / Stanza): the stopword list is the public NLTK English list
embedded inline, the lemmatizer is a small deterministic noun-plural
de-pluralizer, and sentence/token spans come from compiled regexes.

Critical invariant: `canonicalize_for_segmentation` is LENGTH-PRESERVING so
that char offsets computed on the canonical text are valid offsets into the
raw turn text (reference: util.py:886-889 uses the same len-preserving
substitutions).
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache

# --------------------------------------------------------------------------
# M1: type-notation normalizer ("HP-3" -> "HP3"); reference annotate.py:64.
# NOTE: this removes one char.  The reference applies it to the raw document
# (its offsets index the rewritten text); this engine deliberately does NOT
# wire it into annotate_text — the deletion would shift every downstream
# span offset (see linker.py's annotate_text docstring).  Kept for API /
# semantics parity; exercised by tests only.
_TYPE_NOTATION_RE = re.compile(r"(?<=[A-Z])-(?=\d)")


def normalize_type_notation(text: str) -> str:
    return _TYPE_NOTATION_RE.sub("", text)


# --------------------------------------------------------------------------
# M2: accent stripping (reference util.py:698-705).
def strip_accents(s: str) -> str:
    return "".join(
        c for c in unicodedata.normalize("NFD", s) if unicodedata.category(c) != "Mn"
    )


# --------------------------------------------------------------------------
# M3: processStr — lowercase + accent strip + punctuation->space + split.
# Reference util.py:708-718.  Byte-identical semantics (the dictionary key is
# built from this, so fidelity matters).
_PUNCT_RE = re.compile("[-_\"'\\\\\t\r\n‘’]")


def process_str(string: str) -> list[str]:
    string = _TYPE_NOTATION_RE.sub("", string)
    string = strip_accents(string.lower())
    string = _PUNCT_RE.sub(" ", string)
    return string.strip().split()


# --------------------------------------------------------------------------
# Step-3 BERT input prep — my_bert_match.addWords (my_bert_match.py:50-68):
# lowercase, then EVERY ``string.punctuation`` char -> space (note: wider
# than processStr's set; NO accent strip, NO type-notation removal), split.
# The reference applies this per side of the "phrase::name" pair before
# WordPiece; processing the two sides separately is equivalent except when a
# side itself contains "::" (then the reference truncates at the first
# occurrence — concept names and simplified phrases never do).
_ADDWORDS_TABLE = str.maketrans({c: " " for c in
                                 "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"})


def addwords_tokens(s: str) -> list[str]:
    return s.lower().translate(_ADDWORDS_TABLE).split()


# --------------------------------------------------------------------------
# M4: canonicalizer for segmentation — LENGTH-PRESERVING (util.py:886-889).
# lowercase, strip accents*, [-_"'\\\t‘’] -> space, \r\n after a word char
# -> ".".
# (*) NFD can change string length for some characters; to keep the
# length-preserving invariant exact we strip accents per-character and keep
# any char whose decomposition is not 1 base + marks unchanged.
_SEG_PUNCT_RE = re.compile("[-_\"'\\\\\t‘’]")
_NEWLINE_RE = re.compile(r"(?<=[\w])[\r\n]")


@lru_cache(maxsize=4096)
def _fold_char(c: str) -> str:
    d = unicodedata.normalize("NFD", c)
    base = "".join(x for x in d if unicodedata.category(x) != "Mn")
    return base if len(base) == 1 else c


@lru_cache(maxsize=4096)
def _lower_char(c: str) -> str:
    # str.lower() is NOT length-preserving for every char ('İ' U+0130 →
    # 'i' + combining dot, 2 chars) — a whole-string .lower() shifted every
    # downstream span offset after such a char.  Take the
    # first char of a multi-char lowering (the base letter) to stay both
    # lowercased and length-exact.
    lc = c.lower()
    return lc if len(lc) == 1 else lc[0]


def canonicalize_for_segmentation(text: str) -> str:
    if text.isascii():
        text = text.lower()  # ASCII lowering is always 1:1
    else:
        text = "".join(
            _fold_char(_lower_char(c)) if ord(c) > 127 else c.lower()
            for c in text
        )
    text = _SEG_PUNCT_RE.sub(" ", text)
    text = _NEWLINE_RE.sub(".", text)
    return text


# --------------------------------------------------------------------------
# M5: sentence + token span tokenizer.  The reference uses Punkt sentences +
# Treebank tokens with absolute char spans (util.py:578-595).  We use a
# deterministic regex equivalent: sentences split on [.?!] runs + newlines
# (NOT ';' — Punkt keeps semicolon clauses in one sentence),
# tokens are word-char runs or single punctuation marks, all with absolute
# character spans into the input string.
_SENT_RE = re.compile(r"[^.!?\n]+[.!?]*|\n")
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Absolute (start, end) char spans of sentences."""
    return [(m.start(), m.end()) for m in _SENT_RE.finditer(text) if m.group().strip()]


def token_spans(text: str) -> list[tuple[int, int]]:
    """Absolute (start, end) char spans of tokens within text."""
    return [(m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


# --------------------------------------------------------------------------
# M6: numeric predicates (util.py:721-743).
# fast path: float() raises for ~every ordinary word and Python exceptions
# are expensive — pre-screen for digit-less strings (only textual float
# spellings like "nan"/"inf"/"e" forms survive the screen)
_NUMERIC_WORDS = frozenset({"nan", "inf", "infinity"})
_DIGIT_RE = re.compile(r"\d")


@lru_cache(maxsize=65536)
def is_num(s: str) -> bool:
    # C-level digit scan: the per-char Python genexpr was the hottest line
    # of the whole annotate kernel (it runs per token per turn); cached
    # because corpus tokens repeat heavily (same rationale as lemmatize)
    if _DIGIT_RE.search(s) is None:
        if s.lower().lstrip("+-") not in _NUMERIC_WORDS:
            return False
    try:
        float(s)
        return True
    except ValueError:
        return False


# --------------------------------------------------------------------------
# M7: number -> word substitution (reference data/NUM.txt, util.py:215-221).
NUM2WORD: dict[str, str] = {
    "1": "one", "2": "two", "3": "three", "4": "four", "5": "five",
    "6": "six", "7": "seven", "8": "eight", "9": "nine", "10": "ten",
    "11": "eleven", "12": "twelve", "13": "thirteen", "14": "fourteen",
    "15": "fifteen", "16": "sixteen", "17": "seventeen", "18": "eighteen",
    "19": "nineteen", "20": "twenty", "30": "thirty", "40": "forty",
    "50": "fifty", "60": "sixty", "70": "seventy", "80": "eighty",
    "90": "ninety", "100": "hundred", "1st": "first", "2nd": "second",
    "3rd": "third", "4th": "fourth", "5th": "fifth", "6th": "sixth",
    "7th": "seventh", "8th": "eighth", "9th": "ninth", "10th": "tenth",
}

# --------------------------------------------------------------------------
# M8: stopwords.  Public NLTK English stopword list (the reference loads the
# same list via nltk / data/stopwords.txt, util.py:229,746-755).
STOPWORDS: frozenset[str] = frozenset("""
i me my myself we our ours ourselves you you're you've you'll you'd your
yours yourself yourselves he him his himself she she's her hers herself it
it's its itself they them their theirs themselves what which who whom this
that that'll these those am is are was were be been being have has had having
do does did doing a an the and but if or because as until while of at by for
with about against between into through during before after above below to
from up down in out on off over under again further then once here there when
where why how all any both each few more most other some such no nor not only
own same so than too very s t can will just don don't should should've now d
ll m o re ve y ain aren aren't couldn couldn't didn didn't doesn doesn't
hadn hadn't hasn hasn't haven haven't isn isn't ma mightn mightn't mustn
mustn't needn needn't shan shan't shouldn shouldn't wasn wasn't weren weren't
won won't wouldn wouldn't
""".split())


@lru_cache(maxsize=65536)
def simplify_token(tok: str) -> str | None:
    """PhraseItem.simplify for one token (util.py:241-252): a NUM2WORD
    token ("3", "3rd") becomes its word, a stopword or any other number is
    dropped (None), every other token is kept.  The one rule both sides of
    the Step-1 lookup share: candidates (``_Segment.simplify``, the
    dictionary kernel) and the dictionary's simplified keys.  Cached like
    ``lemmatize``: it runs per token per turn, and tokens repeat."""
    word = NUM2WORD.get(tok)
    if word is not None:
        return word
    if tok in STOPWORDS or is_num(tok):
        return None
    return tok


def simplify(tokens: list[str]) -> list[str]:
    """:func:`simplify_token` over a token list, dropped tokens left out."""
    return [s for s in map(simplify_token, tokens) if s is not None]


# --------------------------------------------------------------------------
# Spliter words (reference util.py:758-764: stopwords POS-tagged CC/WP/TO/WDT
# plus punctuation).  Without NLTK's tagger we embed the fixed result of that
# expression over the public stopword list.
SPLITERS: frozenset[str] = frozenset(
    ["and", "but", "or", "nor", "who", "whom", "what", "which", "that", "to"]
    + [",", ".", ":", ";", "(", ")", "[", "]", "/"]
)

# Punctuation tokens never kept inside a candidate span (util.py:903).
SPAN_PUNCT: frozenset[str] = frozenset({",", ".", ":", ";", "(", ")", "[", "]"})

# --------------------------------------------------------------------------
# M10: negation cue words (util.py:946-954, 767-770).
NEGATION_WORDS: frozenset[str] = frozenset(
    {"no", "not", "none", "negative", "non", "never", "few", "lower",
     "fewer", "less", "normal"}
)


# --------------------------------------------------------------------------
# M9: deterministic lemmatizer.  The reference memoizes WordNet noun
# lemmatization in a process-global dict (util.py:25,927-929) which is
# order-dependent; we replace it with a pure rule-based noun de-pluralizer
# so results are deterministic and batch-order independent.
_IRREGULAR = {
    "feet": "foot", "teeth": "tooth", "men": "man", "women": "woman",
    "children": "child", "mice": "mouse", "people": "person",
    "vertebrae": "vertebra", "criteria": "criterion", "phenomena": "phenomenon",
    "nuclei": "nucleus", "ganglia": "ganglion", "foci": "focus",
    "testes": "testis", "diagnoses": "diagnosis", "analyses": "analysis",
    # Greek/Latin clinical plurals WordNet resolves via its exception list
    # (the suffix rules mangled these — 'stenoses'→'stenose'
    # missed 'stenosis' dictionary keys the reference's lemmatizer hits).
    # '-ses'→'-sis' cannot be a rule ('cases', 'diseases'), nor '-uses'→
    # '-us' ('causes'), nor '-i'→'-us' ('ski') — enumerate instead.
    "stenoses": "stenosis", "metastases": "metastasis",
    "prostheses": "prosthesis", "psychoses": "psychosis",
    "neuroses": "neurosis", "fibroses": "fibrosis",
    "scolioses": "scoliosis", "kyphoses": "kyphosis", "lordoses": "lordosis",
    "ptoses": "ptosis", "thromboses": "thrombosis", "necroses": "necrosis",
    "mycoses": "mycosis", "keratoses": "keratosis", "exostoses": "exostosis",
    "synostoses": "synostosis", "stases": "stasis", "ascites": "ascites",
    "epiphyses": "epiphysis", "metaphyses": "metaphysis",
    "diaphyses": "diaphysis", "apophyses": "apophysis",
    "symphyses": "symphysis", "anastomoses": "anastomosis",
    "ecchymoses": "ecchymosis", "telangiectases": "telangiectasia",
    "petechiae": "petechia", "bullae": "bulla", "maculae": "macula",
    "fistulae": "fistula", "scapulae": "scapula", "fibulae": "fibula",
    "ulnae": "ulna", "aortae": "aorta", "conjunctivae": "conjunctiva",
    "corneae": "cornea", "retinae": "retina", "sequelae": "sequela",
    "areolae": "areola", "patellae": "patella", "maxillae": "maxilla",
    "fungi": "fungus", "calculi": "calculus", "uteri": "uterus",
    "radii": "radius", "humeri": "humerus", "femora": "femur",
    "crania": "cranium", "atria": "atrium", "septa": "septum",
    "ostia": "ostium", "ova": "ovum", "bacteria": "bacterium",
    "cilia": "cilium", "villi": "villus", "alveoli": "alveolus",
    "bronchi": "bronchus", "thrombi": "thrombus", "emboli": "embolus",
    "nevi": "nevus", "naevi": "naevus", "gyri": "gyrus", "sulci": "sulcus",
    "menisci": "meniscus", "glomeruli": "glomerulus",
    "diverticula": "diverticulum", "labia": "labium", "ilia": "ilium",
    "phalanges": "phalanx", "larynges": "larynx", "pharynges": "pharynx",
    "epididymides": "epididymis", "irides": "iris", "halluces": "hallux",
    "matrices": "matrix", "appendices": "appendix", "cervices": "cervix",
    "varices": "varix", "indices": "index", "cortices": "cortex",
    "vertices": "vertex", "apices": "apex", "helices": "helix",
    "viruses": "virus", "sinuses": "sinus", "fetuses": "fetus",
    "foetuses": "foetus", "anuses": "anus", "lenses": "lens",
    "plexuses": "plexus", "meatuses": "meatus",
}
_KEEP_S = ("ss", "us", "is", "ous")


@lru_cache(maxsize=65536)
def lemmatize(word: str) -> str:
    # cached: tokens repeat heavily across turns and the suffix checks are
    # pure string work (M9 lemma cache, mirroring WordItem.lemma_dict)
    w = word.lower()
    if w in _IRREGULAR:
        return _IRREGULAR[w]
    if len(w) > 3 and w.endswith("ies"):
        return w[:-3] + "y"
    if len(w) > 3 and (w.endswith("ches") or w.endswith("shes")
                       or w.endswith("xes") or w.endswith("zes")
                       or w.endswith("sses")):
        return w[:-2]
    if len(w) > 2 and w.endswith("s") and not w.endswith(_KEEP_S):
        return w[:-1]
    return w


def bag_key(tokens: list[str]) -> str:
    """Sorted-token-bag dictionary key (reference util.py:324-327,414)."""
    return " ".join(sorted(tokens))


def lemma_bag_key(tokens: list[str]) -> str:
    """Lemmatized variant of the bag key (reference util.py:415)."""
    return " ".join(lemmatize(t) for t in sorted(tokens))
