"""Hermetic clinical-NER span seeding (operator C1, SURVEY §2.3).

The reference seeds candidate spans from a Stanza ``en/mimic/i2b2``
clinical pipeline: contiguous tokens tagged PROBLEM become PhraseItems,
remaining tokens in NER-hit sentences get spliter segmentation, and
sentences with no NER hit are skipped entirely
(/root/reference/phenobert/utils/annotate.py:47, util.py:891-943).
That model is an external artifact (hundreds of MB, not shipped); the
engine's default is therefore the documented recall-superset
pseudo-seeding (every sentence seeded, candidates.py:6-14).

This module provides the hermetic middle ground: an
averaged-perceptron token tagger trained on SILVER labels projected by
the exact dictionary over the reference's shipped corpora — a span is
silver-PROBLEM iff it lies inside a dictionary match of the pipeline's
own Step-1 linker.  The tagger learns the lexical/contextual shape of
phenotype mentions (suffix/prefix morphology like -osis/-emia, clinical
context words) and generalizes past the exact dictionary while pruning
prose sentences that pseudo-seeding would fan out into the scorers.

Decoding is recall-biased by construction: the acceptance threshold is
calibrated on a held-out split so ≥ ``target_recall`` of silver-positive
tokens survive — dictionary matches must keep reaching Step 1, the
seeding exists to cut model-path false positives (the C1 contract).

Scale shape: the trained tagger is one hashed weight vector (2^18
float32 ≈ 1 MB) — broadcast once per worker with the ontology state; the
per-turn cost is a vectorized gather-sum over ~14 feature ids per token.
"""

from __future__ import annotations

import zlib

import numpy as np

N_FEAT = 1 << 18
_N_TOKEN_FEATS = 14


def _h(s: str) -> int:
    return zlib.crc32(s.encode("utf-8")) & (N_FEAT - 1)


def token_feature_ids(words: list[str], in_dict: list[bool]) -> np.ndarray:
    """(n_tokens, 14) int32 hashed feature ids for one sentence.

    ``in_dict`` marks tokens that occur in ANY dictionary synonym phrase
    (a strong prior the linker state already carries)."""
    n = len(words)
    out = np.empty((n, _N_TOKEN_FEATS), np.int32)
    for i, w in enumerate(words):
        prev = words[i - 1] if i else "<s>"
        prev2 = words[i - 2] if i > 1 else "<s>"
        nxt = words[i + 1] if i + 1 < n else "</s>"
        nxt2 = words[i + 2] if i + 2 < n else "</s>"
        feats = (
            "b",
            "w=" + w,
            "s3=" + w[-3:],
            "s2=" + w[-2:],
            "p3=" + w[:3],
            "p2=" + w[:2],
            "pw=" + prev,
            "pw2=" + prev2,
            "nw=" + nxt,
            "nw2=" + nxt2,
            "pw|w=" + prev + "|" + w,
            "w|nw=" + w + "|" + nxt,
            "len=%d" % min(len(w), 8),
            "dict=%d%d%d" % (in_dict[i],
                             in_dict[i - 1] if i else 0,
                             in_dict[i + 1] if i + 1 < n else 0),
        )
        for j, f in enumerate(feats):
            out[i, j] = _h(f)
    return out


class NerTagger:
    """Binary PROBLEM/O token tagger over hashed features."""

    def __init__(self, weights: np.ndarray, threshold: float,
                 dict_vocab: frozenset):
        self.w = np.asarray(weights, np.float32)
        self.threshold = float(threshold)
        self.dict_vocab = dict_vocab

    def scores(self, words: list[str]) -> np.ndarray:
        ids = token_feature_ids(
            words, [t in self.dict_vocab for t in words])
        return self.w[ids].sum(axis=1)

    def predict_segments(self, canon: str) -> list[tuple[int, int]]:
        """canon → PROBLEM spans (char offsets), the ``ner_segments``
        contract of candidates.generate_segments: one span per contiguous
        run of accepted tokens."""
        from .textops import sentence_spans, token_spans

        spans: list[tuple[int, int]] = []
        for s, e in sentence_spans(canon):
            toks = [(canon[s + a:s + b], s + a, s + b)
                    for a, b in token_spans(canon[s:e])]
            if not toks:
                continue
            keep = self.scores([t[0] for t in toks]) > self.threshold
            run_start = None
            for (w, a, b), k in zip(toks, keep):
                if k and run_start is None:
                    run_start = a
                elif not k and run_start is not None:
                    spans.append((run_start, prev_end))
                    run_start = None
                prev_end = b
            if run_start is not None:
                spans.append((run_start, toks[-1][2]))
        return spans

    def save(self, path: str) -> None:
        from .state.torch_ckpt import write_state_dict

        write_state_dict(path, {
            "weights": self.w.astype(np.float32),
            "threshold": np.asarray([self.threshold], np.float32),
        })
        with open(path + ".vocab", "w", encoding="utf-8") as f:
            f.write("\n".join(sorted(self.dict_vocab)) + "\n")

    @classmethod
    def load(cls, path: str) -> "NerTagger":
        from .state.torch_ckpt import read_state_dict

        st = read_state_dict(path)
        with open(path + ".vocab", encoding="utf-8") as f:
            vocab = frozenset(ln.strip() for ln in f if ln.strip())
        return cls(np.asarray(st["weights"], np.float32),
                   float(np.asarray(st["threshold"]).ravel()[0]), vocab)


# ---------------------------------------------------------------------------
# silver-label projection + training


def silver_sentences(texts: dict[str, str], dag) -> list[dict]:
    """Dictionary-projected silver labels: one record per sentence —
    {words, labels, doc_id}.  A token is PROBLEM iff it lies inside a
    Step-1 dictionary match of the engine's own linker (the silver
    supervision; gold annotations are never read here)."""
    from .linker import annotate_texts
    from .textops import canonicalize_for_segmentation, sentence_spans, \
        token_spans

    docs = sorted(texts.items())
    canons = [canonicalize_for_segmentation(text) for _, text in docs]
    # one kernel call over every document.  The linker canonicalizes
    # internally; the transform is idempotent and length-preserving, so
    # passing canon skips a second full pass over every document
    ann = annotate_texts(canons, dag).select(["text_idx", "start", "end"]).to_pydict()
    doc_spans: list[list] = [[] for _ in docs]
    for i, a, b in zip(*ann.values()):
        doc_spans[i].append((a, b))
    out = []
    for (doc_id, _), canon, spans in zip(docs, canons, doc_spans):
        for s, e in sentence_spans(canon):
            toks = [(canon[s + a:s + b], s + a, s + b)
                    for a, b in token_spans(canon[s:e])]
            if not toks:
                continue
            labels = [any(st <= a and b <= en for st, en in spans)
                      for _, a, b in toks]
            out.append({"doc_id": doc_id,
                        "words": [t[0] for t in toks],
                        "labels": labels})
    return out


def dict_token_vocab(dag) -> frozenset:
    """Every token occurring in any dictionary synonym phrase."""
    return frozenset(dag.phrase_vocab)


def train_tagger(sentences: list[dict], dict_vocab: frozenset,
                 epochs: int = 8, seed: int = 0,
                 target_recall: float = 0.98, dev_frac: float = 0.15,
                 log=print) -> tuple["NerTagger", dict]:
    """Averaged perceptron over hashed token features; the decode
    threshold is calibrated on the doc-held-out dev split to keep
    ≥ target_recall of silver-positive tokens (recall-biased seeding).

    Returns (tagger, metrics)."""
    rng = np.random.default_rng(seed)
    docs = sorted({s["doc_id"] for s in sentences})
    if len(docs) < 2:
        raise ValueError(
            f"train_tagger needs >= 2 documents for a doc-held-out dev "
            f"split, got {len(docs)}")
    n_dev = max(1, int(len(docs) * dev_frac))
    dev_docs = set(d for d in docs
                   if zlib.crc32(d.encode()) % 1000 < 1000 * dev_frac)
    if len(dev_docs) < n_dev:  # tiny corpora: top up deterministically
        for d in docs:
            if len(dev_docs) >= n_dev:
                break
            dev_docs.add(d)
    # the crc split must never claim every doc: an empty train set would
    # produce a zero-weight tagger whose calibrated threshold accepts all
    # tokens while reporting dev recall 1.0 — shrink dev deterministically
    # until train keeps at least half the docs
    max_dev = max(1, len(docs) // 2)
    for d in docs:
        if len(dev_docs) <= max_dev:
            break
        dev_docs.discard(d)
    train = [s for s in sentences if s["doc_id"] not in dev_docs]
    dev = [s for s in sentences if s["doc_id"] in dev_docs]

    for s in train + dev:
        s["ids"] = token_feature_ids(
            s["words"], [t in dict_vocab for t in s["words"]])
        s["y"] = np.asarray(s["labels"], bool)

    w = np.zeros(N_FEAT, np.float64)
    totals = np.zeros(N_FEAT, np.float64)
    stamps = np.zeros(N_FEAT, np.int64)
    t = 1
    order = np.arange(len(train))
    for ep in range(epochs):
        rng.shuffle(order)
        errs = 0
        for si in order:
            s = train[si]
            ids, y = s["ids"], s["y"]
            scores = w[ids].sum(axis=1)
            pred = scores > 0
            wrong = np.flatnonzero(pred != y)
            for i in wrong:
                delta = 1.0 if y[i] else -1.0
                rows = ids[i]
                # lazy averaging (classic averaged perceptron)
                totals[rows] += (t - stamps[rows]) * w[rows]
                stamps[rows] = t
                w[rows] += delta
                t += 1
            errs += len(wrong)
        log(f"ner epoch {ep + 1}/{epochs}: token errors {errs}")
    totals += (t - stamps) * w
    avg = (totals / t).astype(np.float32)

    # calibrate threshold on dev for the recall floor
    dev_scores, dev_y = [], []
    for s in dev:
        sc = avg[s["ids"]].sum(axis=1)
        dev_scores.append(sc)
        dev_y.append(s["y"])
    sc = np.concatenate(dev_scores)
    y = np.concatenate(dev_y)
    pos = np.sort(sc[y])
    if len(pos):
        k = int(np.floor((1.0 - target_recall) * len(pos)))
        thr = float(pos[max(0, min(k, len(pos) - 1))]) - 1e-6
    else:
        thr = 0.0
    pred = sc > thr
    tp = int((pred & y).sum())
    metrics = {
        "dev_token_precision": tp / max(int(pred.sum()), 1),
        "dev_token_recall": tp / max(int(y.sum()), 1),
        "threshold": thr,
        "n_train_sents": len(train),
        "n_dev_sents": len(dev),
        "n_dev_docs": len(dev_docs),
    }
    for s in train + dev:
        s.pop("ids", None)
        s.pop("y", None)
    return NerTagger(avg, thr, dict_vocab), metrics
