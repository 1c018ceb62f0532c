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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .assets.hpo_dag import HpoDag
from .candidates import Candidate, generate_candidates
from .textops import (
    canonicalize_for_segmentation,
    lemma_bag_key,
    bag_key,
)


@dataclass
class Annotation:
    start: int
    end: int
    mention: str
    hpo_id: str
    score: float
    negated: bool


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
    from .textops import lemmatize

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
        # prose windows (same pruning as the fast path)
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


def _probe_index(dag: HpoDag):
    """Integer-tuple probe index over ``phrase2hpo``, built lazily once per
    worker and cached on the dag keyed by its content fingerprint (the
    phrase dict is mutable post-construction; a refreshed fingerprint
    invalidates the cache).

    Token ids are assigned in SORTED-vocabulary order, so the monotone
    token↔id bijection makes "sort window tokens by text, join, hash the
    string" equivalent to "hash the tuple of ids in text-sorted order" —
    an int-tuple hash instead of building + hashing a joined string per
    window (the previous hottest line of the dict probe)."""
    fp = getattr(dag, "fingerprint", None)
    idx = getattr(dag, "_probe_idx", None)
    if idx is not None and idx[0] == fp:
        return idx[1], idx[2], idx[3]
    # vocabulary derived from the KEYS, not dag.phrase_vocab: the index
    # must stay self-consistent with phrase2hpo even if a caller mutated
    # the dict without refreshing the derived prune set
    tok2id = {
        t: i
        for i, t in enumerate(sorted({t for k in dag.phrase2hpo
                                      for t in k.split()}))
    }
    keyseq2hpo = {
        tuple(tok2id[t] for t in k.split()): v
        for k, v in dag.phrase2hpo.items()
    }
    # token → (surface_id, lemma_id) memo, filled during probing: corpus
    # tokens repeat heavily, and one dict hit replaces two tok2id lookups
    # plus a (cached) lemmatize call per token per segment
    id_memo: dict = {}
    dag._probe_idx = (fp, tok2id, keyseq2hpo, id_memo)
    return tok2id, keyseq2hpo, id_memo


def _dict_match_fast(canon: str, dag: HpoDag, ner_segments) -> list[tuple[Candidate, str, float]]:
    """Dictionary-only fast path: probe k-mer windows directly without
    materializing non-matching Candidate objects, and cap the window length
    at the dictionary's longest key (a longer window can never bag-match).

    Produces exactly the Step-1 results of the slow path; when no model
    scorer is configured the survivors are discarded anyway, so skipping
    them is output-equivalent (see test_fast_path_equivalence).

    Probing detail: a window's surface key is its tokens in text-sorted
    order; its lemma key is the LEMMAS of the tokens in the same
    text-sorted order (reference util.py:414-415 sorts by surface before
    lemmatizing).  Both are probed as id tuples via ``_probe_index`` —
    the insort-maintained window keeps (text, surface_id, lemma_id)
    entries text-sorted, so both keys fall out as tuple slices; a window
    holding any out-of-index id (-1) is skipped for that variant, which
    is output-equivalent because an index key only contains vocabulary
    tokens."""
    from bisect import insort

    from .candidates import MAX_KMER, generate_segments
    from .textops import STOPWORDS, is_num, lemmatize

    tok2id, keyseq2hpo, id_memo = _probe_index(dag)
    in_ab = dag.abnormality_nt
    maxk = min(MAX_KMER, dag.max_phrase_tokens or MAX_KMER)
    results: list[tuple[Candidate, str, float]] = []
    memo_get = id_memo.get
    for seg in generate_segments(canon, ner_segments):
        toks = seg.simple
        n = len(toks)
        if n == 0:
            continue
        joined = " ".join(t.text for t in toks)
        if is_num(joined) or len(joined) <= 1:
            continue
        texts = [t.text for t in toks]
        sids, lids = [], []
        for t in texts:
            pair = memo_get(t)
            if pair is None:
                pair = (tok2id.get(t, -1), tok2id.get(lemmatize(t), -1))
                if len(id_memo) < 500_000:  # bound per-worker memory
                    id_memo[t] = pair
            sids.append(pair[0])
            lids.append(pair[1])
        # a window matches only if every token is dictionary vocabulary
        # (by surface or lemma); precompute the in-vocab run length from
        # each position so out-of-vocab stretches (most prose) are skipped
        # wholesale
        run = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            run[i] = run[i + 1] + 1 if (sids[i] >= 0 or lids[i] >= 0) else 0
        for i in range(n):
            kmax = min(maxk, run[i])
            if kmax == 0:
                continue
            win: list[tuple[str, int, int]] = []
            bad_s = bad_l = 0
            for j in range(kmax):
                x = i + j
                insort(win, (texts[x], sids[x], lids[x]))
                if sids[x] < 0:
                    bad_s += 1
                if lids[x] < 0:
                    bad_l += 1
                if bad_s and bad_l:  # bad counts only grow with j: once
                    break            # both variants are dead, so is every
                                     # longer window from this start
                if j == 0 and (texts[i] in STOPWORDS or is_num(texts[i])):
                    continue
                hit = ""
                if not bad_s:
                    hit = keyseq2hpo.get(tuple(e[1] for e in win), "")
                if not hit and not bad_l:
                    hit = keyseq2hpo.get(tuple(e[2] for e in win), "")
                if hit and hit in in_ab:
                    results.append(
                        (
                            Candidate(
                                tokens=texts[i:x + 1],
                                starts=[t.start for t in toks[i:x + 1]],
                                start=toks[i].start,
                                end=toks[x].end,
                                negated=seg.negated,
                            ),
                            hit,
                            1.0,
                        )
                    )
    return results


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
    """
    # Reference fidelity (util.py:885-889): the offset-bearing document text
    # gets ONLY length-preserving transforms (lowercase + accent fold +
    # punct→space + newline→'.').  The hyphen-deleting type-notation rewrite
    # applies to DICTIONARY keys alone (processStr, util.py:714) — running it
    # on the document would shift every offset after the first deletion
    # (measured as a cumulative span drift vs GSC+ gold).
    canon = canonicalize_for_segmentation(text)
    if ner is not None and ner_segments is None:
        # C1 seeding (ref annotate.py:47, util.py:891-917): PROBLEM spans
        # from the tagger; sentences with no hit are skipped downstream
        ner_segments = ner.predict_segments(canon)
    if scorer is None:
        results = _dict_match_fast(canon, dag, ner_segments)
    else:
        cands = generate_candidates(canon, ner_segments)
        results, survivors = dict_link(cands, dag)
        if survivors:
            results = results + list(scorer(survivors))
    results = resolve_overlaps(results, use_longest=use_longest)
    return [
        Annotation(
            start=c.start,
            end=c.end,
            mention=text[c.start:c.end],
            hpo_id=dag.canonical(hpo),
            score=round(score, 2),
            negated=c.negated,
        )
        for c, hpo, score in results
    ]
