"""Candidate span generation (operators C1-C4, SURVEY.md §2.3).

Re-creates the semantics of the reference's ``process_text2phrases``
(/root/reference/phenobert/utils/util.py:875-1018) without its Stanza
dependency:

- C1 (clinical-NER span seeding) is pluggable: pass ``ner_segments`` to seed
  spans from a model; the default (no model in this environment) treats every
  sentence as eligible — a recall superset whose extra candidates are
  filtered by the linker stages.
- C2 splits sentence tokens on spliter words (util.py:919-943).  ``and``,
  ``or`` and ``/`` are *not* segment spliters here so that the conjunction
  pass (C3) sees them, matching the reference's behavior on NER-seeded spans.
- C3 conjunction split + "A+B" ellipsis recovery (util.py:957-995).
- C4 k-mer enumeration over simplified tokens, max 10, dropping pure-number
  and stopword singletons (util.py:999-1014).

All offsets are char offsets into the canonical (length-preserving
normalized) text and therefore valid into the type-normalized raw text.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .textops import (
    NEGATION_WORDS,
    SPAN_PUNCT,
    SPLITERS,
    STOPWORDS,
    is_num,
    sentence_spans,
    simplify_token,
)

MAX_KMER = 10  # util.py:1006

# segment spliters: SPLITERS minus the conjunction tokens handled by C3
_SEGMENT_SPLITERS = frozenset(SPLITERS - {"and", "or", "/"})
_CONJUNCTIONS = frozenset({"and", "or", "/"})


@dataclass(slots=True)
class Token:
    text: str
    start: int
    end: int


@dataclass
class Candidate:
    """A candidate span = the reference's k-mer PhraseItem (util.py:223-275).

    ``tokens`` are the simplified tokens (stopwords dropped, digits →
    number words); ``starts`` is the locs_set used for overlap tests.
    """

    tokens: list[str]
    starts: list[int]
    start: int
    end: int
    negated: bool = False

    @property
    def locs(self) -> frozenset:
        return frozenset(self.starts)

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class _Segment:
    items: list[Token]
    negated: bool = False
    simple: list[Token] = field(default_factory=list)
    # True for NER-seeded spans (and for whole sentences in the no-NER
    # pseudo-seeded mode); only seeded segments get the C3 conjunction
    # split + A+B ellipsis recovery — in the reference, C2 spliter-pass
    # segments are already split at and/or/'/' (they are in getSpliters)
    # and their contiguous spans can never contain a conjunction when the
    # ellipsis pass re-tokenizes them (util.py:930,957-967)
    seeded: bool = True

    def simplify(self) -> None:
        # PhraseItem.simplify (util.py:239-252), one token at a time
        out = []
        for t in self.items:
            s = simplify_token(t.text)
            if s is not None:
                out.append(t if s is t.text else Token(s, t.start, t.end))
        self.simple = out


def _sentence_tokens(canon: str) -> list[tuple[int, int, list[Token]]]:
    """One tokenizer pass over the WHOLE canonical text, bucketed into
    sentence spans by position.  Equivalent to re-tokenizing each sentence
    slice (token regex never crosses a sentence boundary: the boundary
    chars . ! ? are single-char tokens themselves and \\n is whitespace)
    but skips the per-sentence string slice + regex restart — measured
    ~25% of the annotate kernel at sf0.1."""
    from .textops import _TOKEN_RE

    toks = [Token(m.group(), m.start(), m.end())
            for m in _TOKEN_RE.finditer(canon)]
    out: list[tuple[int, int, list[Token]]] = []
    i, n = 0, len(toks)
    for s, e in sentence_spans(canon):
        while i < n and toks[i].start < s:
            i += 1
        j = i
        while j < n and toks[j].start < e:
            j += 1
        out.append((s, e, toks[i:j]))
        i = j
    return out


def _ner_seeds(
    sents: list[tuple[int, int, list[Token]]],
    ner_segments: list[tuple[int, int]],
) -> list[list[list[Token]]]:
    """C1 seeds per sentence of ``sents``: for every NER span that
    intersects the sentence, in ``ner_segments`` order, the sentence's
    tokens starting inside the span, cut into runs at SPAN_PUNCT — the
    reference BREAKS a PROBLEM span at {, . : ; ( ) [ ]} (util.py:903), so
    a tagger that scores punctuation above threshold must not produce
    'cleft lip , cleft palate' as one phrase.

    One walk over the spans, linear in the spans and the tokens they
    cover: sentences are disjoint and in text order, so the sentences a
    span intersects are a contiguous range and its tokens a contiguous
    slice of each, both found by bisection.  Spans may be unsorted,
    overlapping or cross sentence boundaries."""
    starts = [s for s, _, _ in sents]
    ends = [e for _, e, _ in sents]
    tok_starts = [[t.start for t in toks] for _, _, toks in sents]
    seeds: list[list[list[Token]]] = [[] for _ in sents]
    for ns, ne in ner_segments:
        for k in range(bisect_right(ends, ns), bisect_left(starts, ne)):
            ts = tok_starts[k]
            run: list[Token] = []
            for t in sents[k][2][bisect_left(ts, ns):bisect_left(ts, ne)]:
                if t.text in SPAN_PUNCT:
                    if run:
                        seeds[k].append(run)
                    run = []
                else:
                    run.append(t)
            if run:
                seeds[k].append(run)
    return seeds


def generate_segments(
    canon: str,
    ner_segments: list[tuple[int, int]] | None = None,
) -> list[_Segment]:
    """C1-C3 + negation: canonical text → final simplified segments.

    canon: canonical text from textops.canonicalize_for_segmentation.
    """
    segments: list[_Segment] = []
    sents = _sentence_tokens(canon)
    pseudo_seeded = ner_segments is None
    seeds = None if pseudo_seeded else _ner_seeds(sents, ner_segments)

    for k, (_, _, toks) in enumerate(sents):
        if not toks:
            continue
        seeded_locs: set[int] = set()
        if seeds is not None:
            # C1: NER-seeded spans take priority; sentence skipped entirely
            # when the NER found nothing in it (util.py:920-922).
            if not seeds[k]:
                continue
            for run in seeds[k]:
                segments.append(_Segment(run, seeded=True))
                seeded_locs.update(t.start for t in run)
        # C2: spliter-based segmentation of remaining tokens; only segments
        # not overlapping NER spans are added (util.py:924-943).  With a
        # real NER the leftover segments split on the FULL spliter set
        # (including and/or/'/' — they are in getSpliters) and skip C3; in
        # the no-NER pseudo-seeded mode whole sentences get the seeded
        # treatment (conjunctions left for C3), the documented
        # recall-superset stand-in for Stanza.
        spliters = _SEGMENT_SPLITERS if pseudo_seeded else SPLITERS
        cur: list[Token] = []
        for t in toks:
            # split on the spliter set ONLY — the reference's loop
            # (util.py:930-938) keeps other symbols ('+', '%', '=') inside
            # phrases; an extra any-non-alnum split rule silently shrank
            # the candidate windows spanning them
            if t.text in spliters:
                if cur:
                    if not seeded_locs.intersection(t2.start for t2 in cur):
                        segments.append(_Segment(cur, seeded=pseudo_seeded))
                    cur = []
            else:
                cur.append(t)
        if cur and not seeded_locs.intersection(t2.start for t2 in cur):
            segments.append(_Segment(cur, seeded=pseudo_seeded))

    # M10: negation flag per segment (util.py:946-954)
    for seg in segments:
        if any(t.text in NEGATION_WORDS for t in seg.items):
            seg.negated = True

    # C3: conjunction split + A+B ellipsis recovery (util.py:957-995) —
    # seeded segments only (non-seeded ones were already split at
    # conjunctions in C2 and get no ellipsis recovery, matching the
    # reference's effective behaviour)
    final_segments: list[_Segment] = []
    for seg in segments:
        if not seg.seeded:
            final_segments.append(seg)
            continue
        parts: list[list[Token]] = []
        cur = []
        for t in seg.items:
            if t.text in _CONJUNCTIONS:
                if cur:
                    parts.append(cur)
                cur = []
            else:
                cur.append(t)
        if cur:
            parts.append(cur)
        for p in parts:
            final_segments.append(_Segment(p, seg.negated, seeded=seg.seeded))
        if len(parts) == 2:
            a, b = parts
            if len(a) >= 1 and len(b) == 1:
                final_segments.append(
                    _Segment(a[:-1] + b, seg.negated, seeded=seg.seeded)
                )
            elif len(a) == 1 and len(b) >= 1:
                final_segments.append(
                    _Segment(a + b[1:], seg.negated, seeded=seg.seeded)
                )

    for seg in final_segments:
        seg.simplify()
    return final_segments


def generate_candidates(
    canon: str,
    ner_segments: list[tuple[int, int]] | None = None,
) -> list[Candidate]:
    """C1-C4: canonical text → k-mer candidate spans."""
    # C4: k-mer enumeration over simplified tokens (util.py:999-1014)
    out: list[Candidate] = []
    for seg in generate_segments(canon, ner_segments):
        n = len(seg.simple)
        if n == 0:
            continue
        joined = " ".join(t.text for t in seg.simple)
        if is_num(joined) or len(joined) <= 1:
            continue
        for i in range(n):
            for j in range(min(MAX_KMER, n - i)):
                win = seg.simple[i:i + j + 1]
                # parity: unreachable in practice (simplify() already drops
                # stopword/numeric tokens) — kept because the reference has
                # the same guard (util.py:1008-1012) and a future simplify
                # change must not silently re-admit singletons
                if len(win) == 1 and (win[0].text in STOPWORDS or is_num(win[0].text)):
                    continue
                out.append(
                    Candidate(
                        tokens=[t.text for t in win],
                        starts=[t.start for t in win],
                        start=win[0].start,
                        end=win[-1].end,
                        negated=seg.negated,
                    )
                )
    return out
