"""Entity linking + per-turn finalization (operators L1-L2, L7-L9, M11).

Mirrors the control flow of the reference's ``annotate_phrases``
(/root/reference/phenobert/utils/util.py:1020-1213):

  Step 1  exact dictionary match on the sorted-token-bag key, accepted only
          inside the phenotypic-abnormality subtree, score 1.0
          (util.py:1045-1052)
  L2      subsumption skip: candidates strictly inside an already-matched
          span never reach the model stages (util.py:1054-1061)
  Step 2/3 (model scoring) is pluggable — see standins.py; the scorer
          receives the surviving candidates and returns (candidate, hpo,
          score) results
  L7      overlap resolution: keep-longest (default) or keep-all-unless-same
          -HPO-then-shortest (util.py:1171-1194)
  L8      sort by span start (util.py:1193-1194)
  L9      alt-ID canonicalization (util.py:308,319-323)

``annotate_texts`` annotates N texts into columns.  With a scorer, each
text runs that chain as written.  Without one only Step 1 can emit, and it
runs as one columnar kernel over all the texts: a byte-class table cuts
the joined ASCII texts into tokens and sentences, Arrow hands Python each
distinct token once, C2/C3 segments and negation are cumsums over token
flags, and every 1..maxk-token window is a multiset hash looked up by
``searchsorted``; Python checks only the hash hits, exactly.  NER-seeded
and non-ASCII texts are cut by ``candidates.generate_segments`` and enter
the same probe.  Both paths end in ``_finalize`` (L7-L9, column lists).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from . import candidates  # generate_segments is looked up per call: kgperf wraps it
from .assets.hpo_dag import HpoDag
from .candidates import (
    _CONJUNCTIONS,
    _SEGMENT_SPLITERS,
    MAX_KMER,
    Candidate,
    generate_candidates,
)
from .textops import (
    _SENT_RE,
    NEGATION_WORDS,
    canonicalize_for_segmentation,
    is_num,
    lemma_bag_key,
    lemmatize,
    bag_key,
    simplify_token,
)


@dataclass
class Annotation:
    start: int
    end: int
    mention: str
    hpo_id: str
    score: float
    negated: bool


def tsv_line(start, end, mention, hpo_id, score, negated) -> str:
    """One annotation as the reference's TSV line
    ``start\\tend\\tmention\\thpo\\tscore[\\tNeg]\\n``, score to two places
    (util.py:1199-1209): the CLI's tsv files, ``api.annotate_text(as_tsv=
    True)`` and serve's ``?format=tsv`` all write it."""
    neg = "\tNeg" if negated else ""
    return f"{start}\t{end}\t{mention}\t{hpo_id}\t{score:.2f}{neg}\n"


# scorer: candidates -> [(candidate, hpo_id, score)]
Scorer = Callable[[Sequence[Candidate]], list[tuple[Candidate, str, float]]]


def dict_link(
    candidates: Sequence[Candidate],
    dag: HpoDag,
) -> tuple[list[tuple[Candidate, str, float]], list[Candidate]]:
    """Step 1 + L2.  Returns (matched results, survivors for model stages).

    Candidate tokens are already normalized (simplified lowercase), so the
    dictionary key is just the sorted bag + lemma fallback — no re-running
    of process_str per probe (vectorization-friendly).
    """
    results: list[tuple[Candidate, str, float]] = []
    # L2 index: token start -> locs of the matched spans holding it.  A
    # non-empty locs lies inside a matched span only if that span holds its
    # first start, so a candidate is checked against those spans alone,
    # not every span matched so far (quadratic in a long text's matches).
    covering: dict[int, list[frozenset]] = {}
    survivors: list[Candidate] = []
    p2h = dag.phrase2hpo
    vocab = dag.phrase_vocab
    for cand in candidates:
        # vocab prune: a bag can only match if every token (or its lemma)
        # appears in some dictionary key — skips key construction for most
        # prose windows (the batch kernel's bad-id counts prune the same way)
        if all(t in vocab or lemmatize(t) in vocab for t in cand.tokens):
            hit = p2h.get(bag_key(cand.tokens), "")
            if not hit:
                hit = p2h.get(lemma_bag_key(cand.tokens), "")
        else:
            hit = ""
        if hit and dag.in_abnormality(hit):
            results.append((cand, hit, 1.0))
            locs = cand.locs
            for st in locs:
                covering.setdefault(st, []).append(locs)
        else:
            locs = cand.locs
            if locs:
                inside = any(locs <= m for m in covering.get(cand.starts[0], ()))
            else:  # an empty locs lies inside any matched span
                inside = bool(results)
            if not inside:
                survivors.append(cand)
    return results, survivors


def resolve_overlaps(
    results: list[tuple[Candidate, str, float]],
    use_longest: bool = True,
) -> list[tuple[Candidate, str, float]]:
    """L7 pairwise overlap dedup on locs-subset relations (util.py:1171-1194).

    The reference compares every pair ``i < j``; a pair is related only
    when one locs set holds the other, so two results with no token start
    in common are never related (an empty locs set is related to every
    result).  Each ``i`` visits only the ``j > i`` it shares a token start
    with, in increasing ``j``: the related pairs the reference meets, in
    its order, near-linear in the results of a text instead of quadratic.
    """
    # Loop structure replicated from util.py:1171-1192, including the
    # quirk that a span removed mid-inner-loop keeps participating in later
    # comparisons within the same pass.
    removed: set[int] = set()
    n = len(results)
    # hoist the locs frozensets: the property rebuilds one per access
    locs = [r[0].locs for r in results]
    holders: dict[int, list[int]] = {}  # token start -> results holding it
    empty = []
    for k, lk in enumerate(locs):
        if not lk:
            empty.append(k)
        for st in lk:
            holders.setdefault(st, []).append(k)
    for i in range(n):
        if i in removed:
            continue
        if locs[i]:
            partners = sorted({j for st in locs[i] for j in holders[st] if j > i}
                              .union(j for j in empty if j > i))
        else:
            partners = range(i + 1, n)
        ci = results[i][0]
        for j in partners:
            if j in removed:
                continue
            cj = results[j][0]
            if locs[i] <= locs[j] or locs[i] >= locs[j]:
                if use_longest:
                    if len(ci.tokens) > len(cj.tokens):
                        removed.add(j)
                    else:
                        removed.add(i)
                else:
                    if results[i][1] == results[j][1]:
                        if len(ci.tokens) > len(cj.tokens):
                            removed.add(i)
                        else:
                            removed.add(j)
    return sorted(
        (r for k, r in enumerate(results) if k not in removed),
        key=lambda r: r[0].start,
    )


# Byte classes of the batch tokenizer, one per ASCII code point, read off
# the regexes it stands in for: _TOKEN_RE's \w and \s, and _SENT_RE's
# terminators [.!?] and its one-char "\n" sentence.
_WORD, _PUNCT, _TERM, _NL = 1, 2, 4, 8


def _byte_class(ch: str) -> int:
    sent = _SENT_RE.match(ch + "a")
    return ((_WORD if re.fullmatch(r"\w", ch) else 0 if re.fullmatch(r"\s", ch) else _PUNCT)
            | (_TERM if sent is None else _NL if sent.end() == 1 else 0))


_CLASSES = np.array([_byte_class(chr(c)) for c in range(128)], np.uint8)
# canonicalize_for_segmentation of ASCII as byte maps: of each code point
# alone, and whether it turns into "." after a word char (\r, \n)
_CANON = np.frombuffer("".join(map(canonicalize_for_segmentation, map(chr, range(128))))
                       .encode(), np.uint8)
_TO_DOT = np.array([canonicalize_for_segmentation("a" + chr(c)) == "a." for c in range(128)])

# per-token flags (``_resolve``)
_SPLIT, _CONJ, _NEG, _KEEP, _SHORT = 1, 2, 4, 8, 16


def _resolve(tok: str, tok2id: dict) -> int:
    """A token's flags and ids, packed as ``flags | (surface id + 1) << 8 |
    (lemma id + 1) << 36``.  Flags: C2 spliter, C3 conjunction, negation
    cue, kept by ``simplify_token`` and, as a part by itself, too short
    to probe.  The ids are of its simplified text, -1 outside the index."""
    simp = simplify_token(tok)
    flags = ((_SPLIT if tok in _SEGMENT_SPLITERS else 0) | (_CONJ if tok in _CONJUNCTIONS else 0)
             | (_NEG if tok in NEGATION_WORDS else 0) | (_KEEP if simp is not None else 0))
    simp = tok if simp is None else simp
    flags |= _SHORT if len(simp) <= 1 or is_num(simp) else 0
    return flags | (tok2id.get(simp, -1) + 1) << 8 | (tok2id.get(lemmatize(simp), -1) + 1) << 36


def _kernel_index(dag: HpoDag) -> tuple:
    """``(fingerprint, tok2id, keyseq2hpo, tok_hash, key_hash, memo)``,
    built on a process's first dictionary probe, cached on the dag by its
    fingerprint and left out of its pickle (``HpoDag.__getstate__``).  Ids
    follow the sorted vocabulary of the keys (``phrase_vocab`` may be
    stale), so a bag key's id tuple is sorted.  ``tok_hash`` is a random
    64-bit value per id (0 for id -1), ``key_hash`` the keys' multiset
    hashes, sorted, plus a 0 so it is never empty."""
    idx = getattr(dag, "_kernel_idx", None)
    if idx is None or idx[0] != getattr(dag, "fingerprint", None):
        vocab = sorted({t for k in dag.phrase2hpo for t in k.split()})
        tok2id = {t: i for i, t in enumerate(vocab)}
        keyseq2hpo = {tuple(tok2id[t] for t in k.split()): v for k, v in dag.phrase2hpo.items()}
        rng = np.random.default_rng(0)
        tok_hash = np.frombuffer(rng.bytes(8 * len(vocab)) + bytes(8), np.uint64)  # id -1: 0
        lens = np.array([len(k) for k in keyseq2hpo], np.int64)
        cum = np.cumsum(np.append(np.uint64(0), tok_hash[list(chain.from_iterable(keyseq2hpo))]))
        ends = np.cumsum(lens)
        key_hash = np.sort(np.append(cum[ends] - cum[ends - lens], np.uint64(0)))
        idx = dag._kernel_idx = (getattr(dag, "fingerprint", None), tok2id, keyseq2hpo,
                                 tok_hash, key_hash, {})
    return idx


def _tokenize(texts: list[str]):
    """Canonicalize and tokenize ASCII texts at once: the canonical bytes
    of the texts joined by ``"\\n"``, then each token's start, end (into
    the bytes), sentence id and text index, and each text's offset.
    Tokens outside every sentence are dropped: ``_SENT_RE`` leaves out a
    [.!?] run at a text's start or right after ``"\\n"``."""
    raw = np.frombuffer("\n".join(texts).encode("ascii"), np.uint8)
    base = np.cumsum([0] + [len(t) + 1 for t in texts[:-1]])
    b = _CANON[raw]
    dot = _TO_DOT[raw] & np.append(False, (_CLASSES[b[:-1]] & _WORD) != 0)
    dot[base[1:] - 1] = False  # the separators stay
    b[dot] = ord(".")
    c = _CLASSES[b]
    word, punct, term = (c & _WORD) != 0, (c & _PUNCT) != 0, (c & _TERM) != 0
    st = np.flatnonzero(punct | (word & ~np.append(False, word[:-1])))
    en = np.flatnonzero(punct | (word & ~np.append(word[1:], False))) + 1
    brk = term | ((c & _NL) != 0)
    sent = np.cumsum(~brk & np.append(True, brk[:-1]))[st]
    # a [.!?] run is in a sentence when the last non-terminator before it
    # is a sentence body, not a newline or the start
    body = np.maximum.accumulate(np.where(term, -1, np.arange(len(c))))[st]
    keep = ~term[st] | ((body >= 0) & ~brk[np.maximum(body, 0)])
    st, en, sent = st[keep], en[keep], sent[keep]
    return b, st, en, sent, np.searchsorted(base, st, "right") - 1, base


def _columnar_parts(flags, sent, tix):
    """C2 segments, negation and C3 parts of tokens in text order, as
    cumsums over their flags; a segment never crosses a sentence.  Returns
    the positions of the parts' tokens, part by part in
    ``generate_segments`` order (a segment's parts, then its A+B ellipsis
    part), the part of each position, and each part's text and negation."""
    cut = np.append(True, sent[1:] != sent[:-1]) | ((flags & _SPLIT) != 0)
    seg = np.cumsum(cut)
    part = np.cumsum(cut | ((flags & _CONJ) != 0))
    seg_neg = np.zeros(len(seg) + 1, bool)
    seg_neg[seg[(flags & _NEG) != 0]] = True
    item = np.flatnonzero((flags & (_SPLIT | _CONJ)) == 0)
    first = np.flatnonzero(np.diff(part[item], prepend=-1))
    plen = np.diff(np.append(first, len(item)))
    pseg = seg[item[first]]
    p_text, p_neg = tix[item[first]], seg_neg[pseg]
    pid = np.repeat(np.arange(len(first)), plen)
    # C3 ellipsis: a segment of exactly two parts a, b with |a| == 1 or
    # |b| == 1 also yields a[:-1] + b (when |b| == 1) or a + b[1:]
    pair = np.flatnonzero((pseg[:-1] == pseg[1:]) & (np.bincount(pseg)[pseg[:-1]] == 2))
    la, lb = plen[pair], plen[pair + 1]
    pair, la, lb = (x[(la == 1) | (lb == 1)] for x in (pair, la, lb))
    size = la + lb
    at = np.repeat(first[pair] - np.cumsum(size) + size, size) + np.arange(size.sum())
    at = at[at != np.repeat(np.where(lb == 1, first[pair] + la - 1, first[pair + 1]), size)]
    # part k sorts as 2k, the ellipsis of parts (k, k + 1) as 2k + 3
    porder = np.argsort(np.concatenate((2 * np.arange(len(first)), 2 * pair + 3)))
    rank = np.argsort(porder)
    dense = rank[np.concatenate((pid, np.repeat(np.arange(len(first), len(porder)), size - 1)))]
    order = np.argsort(dense, kind="stable")
    return (np.concatenate((item, item[at]))[order], dense[order],
            np.concatenate((p_text, p_text[pair]))[porder],
            np.concatenate((p_neg, p_neg[pair]))[porder])


def _finalize(texts: Sequence[str], results: list[list], dag: HpoDag,
              use_longest: bool) -> tuple[list, ...]:
    """L7-L9 of each text's ``(candidate, hpo, score)`` results, as column
    lists: text index, start, end, mention, hpo_id (alt ids canonical),
    score (2 decimals) and negated, texts in order, then by start."""
    results = [resolve_overlaps(r, use_longest=use_longest) if len(r) > 1 else r
               for r in results]
    idx = [i for i, r in enumerate(results) for _ in r]
    hits = list(chain.from_iterable(results))
    cands = [c for c, _, _ in hits]
    return (idx, [c.start for c in cands], [c.end for c in cands],
            [texts[i][c.start:c.end] for i, c in zip(idx, cands)],
            [dag.canonical(h) for _, h, _ in hits], [round(s, 2) for _, _, s in hits],
            [c.negated for c in cands])


def _dict_results(texts: Sequence[str], dag: HpoDag, ner_segments) -> list[list]:
    """Step 1 of every text as one columnar kernel (module docstring).

    A window's surface key is its ids, sorted; its lemma key is the lemma
    ids of its tokens in their text-sorted order (the reference sorts by
    surface before lemmatizing, util.py:414-415).  A window holding an id
    of -1 is not probed for that key: no key holds such a token."""
    import pyarrow as pa
    import pyarrow.compute as pc

    # unseeded ASCII texts go to the byte tokenizer as they are
    canon = [t if s is None and t.isascii() else canonicalize_for_segmentation(t)
             for t, s in zip(texts, ner_segments)]
    col = [i for i, (c, s) in enumerate(zip(canon, ner_segments)) if s is None and c.isascii()]
    data, st, en, sent, tix, base = _tokenize([canon[i] for i in col])
    n = len(st)
    off = np.r_[0, np.column_stack((st, en)).ravel(), len(data)]  # gap, token, ..., token, gap
    tokens = pa.LargeStringArray.from_buffers(2 * n + 1, pa.py_buffer(off), pa.py_buffer(data))
    # the other texts' parts, as generate_segments cuts them
    segs = [(i, s) for i in sorted(set(range(len(texts))) - set(col))
            for s in candidates.generate_segments(canon[i], ner_segments[i]) if s.simple]
    fb = [(t.text, t.start, t.end, p) for p, (_, s) in enumerate(segs) for t in s.simple]
    enc = pc.dictionary_encode(pa.concat_arrays([
        tokens.take(pa.array(np.arange(1, 2 * n, 2))),
        pa.array([t for t, _, _, _ in fb], pa.large_string())]))
    distinct = enc.dictionary.to_numpy(zero_copy_only=False).tolist()  # to_pylist: ~20x slower
    code = enc.indices.to_numpy()
    _, tok2id, k2h, tok_hash, key_hash, memo = _kernel_index(dag)
    packed = np.fromiter(map(memo.get, distinct, repeat(-1)), np.int64, len(distinct))
    for j in np.flatnonzero(packed < 0).tolist():
        packed[j] = p = _resolve(distinct[j], tok2id)
        if len(memo) < 500_000:  # bound per-worker memory
            memo[distinct[j]] = p
    flags, sid, lid = packed & 0xFF, (packed >> 8 & 0xFFFFFFF) - 1, (packed >> 36) - 1

    pos, part, p_text, p_neg = _columnar_parts(flags[code[:n]], sent, tix)
    fb = np.array([x for _, *x in fb], np.int64).reshape(-1, 3)
    code = np.concatenate((code[pos], code[n:]))
    start = np.concatenate(((st - base[tix])[pos], fb[:, 0]))
    end = np.concatenate(((en - base[tix])[pos], fb[:, 1]))
    part = np.concatenate((part, len(p_text) + fb[:, 2]))
    p_text = np.array(col, np.int64)[p_text].tolist() + [i for i, _ in segs]
    p_neg = p_neg.tolist() + [s.negated for _, s in segs]
    # C4 over simplified tokens: stopwords and numbers leave each part
    kept = (flags[code] & _KEEP) != 0
    code, start, end, part = code[kept], start[kept], end[kept], part[kept]
    first = np.flatnonzero(np.diff(part, prepend=-1))
    size = np.diff(np.append(first, len(code)))
    part_end = np.repeat(first + size, size)
    # a part of one token that is one char or a number yields no window
    alive = np.ones(len(code), bool)
    alive[first[(size == 1) & ((flags[code[first]] & _SHORT) != 0)]] = False

    sid, lid = sid[code], lid[code]
    hs = np.cumsum(np.append(np.uint64(0), tok_hash[sid]))
    hl = np.cumsum(np.append(np.uint64(0), tok_hash[lid]))
    bs, bl = np.cumsum(np.append(0, sid < 0)), np.cumsum(np.append(0, lid < 0))
    last = len(key_hash) - 1
    found = []
    act = np.flatnonzero(alive)
    for k in range(1, min(MAX_KMER, dag.max_phrase_tokens or MAX_KMER) + 1):
        act = act[act + k <= part_end[act]]
        e = act + k
        ok_s, ok_l = bs[e] == bs[act], bl[e] == bl[act]
        live = ok_s | ok_l  # with bad ids of both kinds, no longer window
        act, e, ok_s, ok_l = act[live], e[live], ok_s[live], ok_l[live]
        if not len(act):    # from the same start can match either
            break
        h = hs[e] - hs[act]
        ms = ok_s & (key_hash[np.minimum(np.searchsorted(key_hash, h), last)] == h)
        h = hl[e] - hl[act]
        ml = ok_l & (key_hash[np.minimum(np.searchsorted(key_hash, h), last)] == h)
        h = np.flatnonzero(ms | ml)
        found += zip(act[h].tolist(), repeat(k), ms[h].tolist(), ml[h].tolist())

    # exact check of the hash hits, surface key before lemma key, and the
    # Candidates of the hits alone
    simp = [simplify_token(t) for t in distinct]  # None only where no window reaches
    code, sid, lid, start, end, part = (x.tolist() for x in (code, sid, lid, start, end, part))
    results: list[list] = [[] for _ in texts]
    for i, k, s_ok, l_ok in sorted(found):
        words = [simp[c] for c in code[i:i + k]]
        hit = k2h.get(tuple(sorted(sid[i:i + k])), "") if s_ok else ""
        if not hit and l_ok:
            hit = k2h.get(tuple(x for _, x in sorted(zip(words, lid[i:i + k]))), "")
        if hit and hit in dag.abnormality_nt:
            p = part[i]
            results[p_text[p]].append((Candidate(words, start[i:i + k], start[i],
                                                 end[i + k - 1], p_neg[p]), hit, 1.0))
    return results


def _annotate(texts, dag, scorer, use_longest, ner, ner_segments) -> tuple[list, ...]:
    """The column lists of ``annotate_texts``.  With a scorer, each text
    runs the reference chain: C1-C4 → Step 1 + L2 → the scorer on the
    survivors (one call per text).  The chain's functions are module
    globals, looked up per call: kgperf's replay wraps them."""
    if ner_segments is None:
        # C1 seeding (ref annotate.py:47, util.py:891-917): PROBLEM spans
        # from the tagger; sentences with no hit are skipped downstream
        ner_segments = [None if ner is None else
                        ner.predict_segments(canonicalize_for_segmentation(t)) for t in texts]
    if scorer is None:
        return _finalize(texts, _dict_results(texts, dag, ner_segments), dag, use_longest)
    results = []
    for text, segs in zip(texts, ner_segments):
        # Reference fidelity (util.py:885-889): the document gets ONLY
        # length-preserving transforms; the hyphen-deleting rewrite is for
        # dictionary keys alone (processStr, util.py:714) and, run on the
        # document, drifted every later span off the GSC+ gold offsets.
        canon = canonicalize_for_segmentation(text)
        hits, survivors = dict_link(generate_candidates(canon, segs), dag)
        if survivors:
            hits = hits + list(scorer(survivors))
        results.append(hits)
    return _finalize(texts, results, dag, use_longest)


# the columns of ``annotate_texts``, as ``_finalize`` writes them
COLUMNS = ("text_idx", "start", "end", "mention", "hpo_id", "score", "negated")


def annotate_texts(texts: Sequence[str], dag: HpoDag, scorer: Scorer | None = None,
                   use_longest: bool = True, ner=None,
                   ner_segments: Sequence[list[tuple[int, int]] | None] | None = None):
    """One ``pyarrow.Table`` row per annotation of ``texts`` (``COLUMNS``;
    ``text_idx`` is the text's position), in text order, then by start.
    ``ner_segments`` gives each text's C1 spans (None: unseeded) in place
    of ``ner``."""
    import pyarrow as pa

    # the types of stages.annotate.ANNOTATIONS_SCHEMA
    types = (pa.int32(),) * 3 + (pa.string(),) * 2 + (pa.float32(), pa.bool_())
    cols = _annotate(texts, dag, scorer, use_longest, ner, ner_segments)
    return pa.table(dict(zip(COLUMNS, map(pa.array, cols, types))))


def annotate_text(
    text: str,
    dag: HpoDag,
    scorer: Scorer | None = None,
    use_longest: bool = True,
    ner_segments: list[tuple[int, int]] | None = None,
    ner=None,
) -> list[Annotation]:
    """Full per-turn annotate: normalize → candidates → link → finalize.

    Equivalent of the reference's per-document
    ``process_text2phrases`` + ``annotate_phrases`` chain
    (annotate.py:61-67), returning structured rows instead of TSV lines.
    It is the one-text case of ``annotate_texts``, read off the same
    column lists without building Arrow arrays.
    """
    _, *cols = _annotate([text], dag, scorer, use_longest, ner,
                         None if ner_segments is None else [ner_segments])
    return list(map(Annotation, *cols))
