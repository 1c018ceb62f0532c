"""Hermetic distributional token vectors: fastText-style subword
skip-gram-with-negative-sampling (SGNS), pure numpy.

The reference's recall comes from fastText vectors
(``fasttext.load_model`` at annotate.py:45; queried per token in
util.py's PhraseDataSet classes): synonym surface forms land near each
other so the CNNs generalize past the exact dictionary.  Those vectors
are an external 1-GB Google-Drive artifact — this module trains a
substitute from the SHIPPED supervision alone:

- **synonym bridges**: every HPO concept ships several surface forms
  (train.txt / train_source, ~31.7k phrase-concept pairs) — tokens from
  different phrases of the same concept become (center, context) pairs,
  which is exactly the renal~kidney / impairment~loss signal exact
  matching lacks;
- **within-phrase windows**: ordinary co-occurrence across all phrases
  (including the "None" wiki negatives for general-English contrast).

The model is fastText's: a word's vector is the MEAN of its own input
row and its hashed character-n-gram rows (state/fasttext_bin semantics,
same FNV hash), trained with SGNS (word-id output rows, unigram^0.75
negatives).  ``save`` emits a standard .bin via ``write_fasttext_bin``,
so inference composes vectors through the SAME FastTextBin path used for
imported reference weights — one code path, two weight provenances.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from .state.fasttext_bin import _subword_hash, compute_subwords


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


def load_concept_phrases(models_dir: str, tokenize) -> tuple[
        dict[str, list[list[str]]], list[list[str]]]:
    """(concept → unique token-lists, None-phrase token-lists) from
    train.txt + train_source/*.txt (the reference's shipped supervision).

    Raises FileNotFoundError when ``models_dir`` has no train.txt: a
    missing supervision dir must not train on empty supervision."""
    import glob

    train = os.path.join(models_dir, "train.txt")
    if not os.path.exists(train):
        raise FileNotFoundError(f"no train.txt under {models_dir}")
    by_concept: dict[str, set[str]] = defaultdict(set)
    none_phrases: set[str] = set()
    paths = [train] + sorted(
        glob.glob(os.path.join(models_dir, "train_source", "train_*.txt")))
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for line in f:
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 2:
                    continue
                if parts[1] == "None":
                    none_phrases.add(parts[0])
                else:
                    by_concept[parts[1]].add(parts[0])
    concepts = {c: [t for t in (tokenize(p) for p in sorted(phs)) if t]
                for c, phs in by_concept.items()}
    nones = [t for t in (tokenize(p) for p in sorted(none_phrases)) if t]
    return concepts, nones


def make_pairs(concepts: dict[str, list[list[str]]],
               nones: list[list[str]], vocab: dict[str, int],
               rng: np.random.Generator,
               max_cross_per_concept: int = 60) -> np.ndarray:
    """(center_word_id, context_word_id) int32 pairs for one epoch:
    all within-phrase ordered pairs + up to ``max_cross_per_concept``
    sampled cross-phrase synonym bridges per concept (resampled each
    epoch; caps the head concepts with 30+ surface forms)."""
    centers: list[int] = []
    contexts: list[int] = []

    def within(toks: list[str]):
        ids = [vocab[t] for t in toks if t in vocab]
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                if i != j:
                    centers.append(a)
                    contexts.append(b)

    for phrases in concepts.values():
        for toks in phrases:
            within(toks)
        if len(phrases) > 1:
            flat = [(pi, vocab[t]) for pi, toks in enumerate(phrases)
                    for t in toks if t in vocab]
            n = len(flat)
            if n > 1:
                k = min(max_cross_per_concept, n * (n - 1))
                ai = rng.integers(0, n, size=2 * k)
                bi = rng.integers(0, n, size=2 * k)
                took = 0
                for x, y in zip(ai, bi):
                    pa, wa = flat[x]
                    pb, wb = flat[y]
                    if pa != pb:  # only BRIDGE pairs (different surface forms)
                        centers.append(wa)
                        contexts.append(wb)
                        took += 1
                        if took >= k:
                            break
    for toks in nones:
        within(toks)
    out = np.stack([np.asarray(centers, np.int32),
                    np.asarray(contexts, np.int32)], axis=1)
    rng.shuffle(out, axis=0)
    return out


class SubwordSGNS:
    """fastText model + SGNS trainer.  Input rows = nwords + bucket
    (word rows then hashed-n-gram rows); output rows = nwords."""

    def __init__(self, words: list[str], dim: int = 100, bucket: int = 30000,
                 minn: int = 3, maxn: int = 5, seed: int = 0):
        self.words = list(words)
        self.vocab = {w: i for i, w in enumerate(self.words)}
        self.dim, self.bucket, self.minn, self.maxn = dim, bucket, minn, maxn
        rng = np.random.default_rng(seed)
        n_in = len(self.words) + bucket
        self.input = ((rng.random((n_in, dim), dtype=np.float32) * 2 - 1)
                      / dim)
        self.output = np.zeros((len(self.words), dim), dtype=np.float32)
        # fixed-width composition table: row ids padded with a SINK row
        # (index n_in) whose gradient is discarded — keeps every gather/
        # scatter fully vectorized.  Width = the vocab's true max id count:
        # the serving side (FastTextBin.get_word_vector) composes over ALL
        # n-grams, so training must too or long words serve vectors whose
        # untrained n-gram rows never saw a gradient.
        comp_ids: list[list[int]] = []
        for w in self.words:
            i = self.vocab[w]
            ids = [i]
            if maxn > 0 and w != "</s>":
                ids += [len(self.words) + _subword_hash(g) % bucket
                        for g in compute_subwords(w, minn, maxn)]
            comp_ids.append(ids)
        W = max((len(ids) for ids in comp_ids), default=1)
        self.sink = n_in
        self.input = np.vstack([self.input, np.zeros((1, dim), np.float32)])
        self.comp = np.full((len(self.words), W), self.sink, np.int32)
        self.comp_n = np.zeros(len(self.words), np.int32)
        for i, ids in enumerate(comp_ids):
            self.comp[i, : len(ids)] = ids
            self.comp_n[i] = len(ids)

    def word_vector(self, i: int) -> np.ndarray:
        ids = self.comp[i, : self.comp_n[i]]
        return self.input[ids].mean(axis=0)

    def train(self, pairs_fn, epochs: int = 8, lr: float = 0.05,
              negatives: int = 5, batch: int = 4096, seed: int = 0,
              log=print) -> None:
        """pairs_fn(epoch, rng) → (N, 2) int32 (center, context) pairs."""
        rng = np.random.default_rng(seed)
        # unigram^0.75 negative table from the first epoch's contexts
        first = pairs_fn(0, np.random.default_rng(seed + 1))
        freq = np.bincount(first[:, 1], minlength=len(self.words)) + 1.0
        neg_p = freq**0.75
        neg_p /= neg_p.sum()
        for ep in range(epochs):
            pairs = first if ep == 0 else pairs_fn(
                ep, np.random.default_rng(seed + 1 + ep))
            alpha = lr * (1.0 - ep / epochs)
            loss = n_loss = 0.0
            negs_all = rng.choice(len(self.words),
                                  size=(len(pairs), negatives), p=neg_p)
            for s in range(0, len(pairs), batch):
                c = pairs[s:s + batch, 0]
                o = pairs[s:s + batch, 1]
                negs = negs_all[s:s + batch]
                B = len(c)
                rows = self.comp[c]                       # (B, W)
                cnt = self.comp_n[c].astype(np.float32)[:, None]
                v = self.input[rows].sum(axis=1) / cnt    # (B, dim)
                # positive + negative output rows: (B, 1+k)
                outs = np.concatenate([o[:, None], negs], axis=1)
                u = self.output[outs]                     # (B, 1+k, dim)
                score = _sigmoid(np.einsum("bkd,bd->bk", u, v))
                label = np.zeros_like(score)
                label[:, 0] = 1.0
                g = (label - score) * alpha               # (B, 1+k)
                # grads
                gv = np.einsum("bk,bkd->bd", g, u)        # (B, dim) to center
                gu = g[:, :, None] * v[:, None, :]        # to output rows
                np.add.at(self.output, outs.ravel(),
                          gu.reshape(-1, self.dim))
                gin = np.repeat((gv / cnt), rows.shape[1], axis=0)
                np.add.at(self.input, rows.ravel(), gin)
                self.input[self.sink] = 0.0               # discard pad grads
                with np.errstate(divide="ignore"):
                    loss += float(-np.log(np.clip(
                        np.abs(label - (1 - score)), 1e-9, None)).sum())
                n_loss += score.size
            log(f"sgns epoch {ep + 1}/{epochs}: pairs={len(pairs)} "
                f"loss={loss / max(n_loss, 1):.4f}")

    def save(self, path: str) -> None:
        """Standard fastText .bin (inference loads it via FastTextBin —
        identical subword composition by construction)."""
        from .state.fasttext_bin import write_fasttext_bin

        write_fasttext_bin(path, self.words,
                           self.input[: len(self.words) + self.bucket],
                           self.bucket, minn=self.minn, maxn=self.maxn)


def train_token_vectors(models_dir: str, out_bin: str, dim: int = 100,
                        bucket: int = 30000, epochs: int = 8,
                        max_cross_per_concept: int = 60,
                        seed: int = 0, log=print) -> SubwordSGNS:
    """End-to-end: shipped supervision → trained vectors → fastText .bin."""
    from .train_np import simplified_tokens

    concepts, nones = load_concept_phrases(models_dir, simplified_tokens)
    toks: dict[str, int] = {}
    for phrases in list(concepts.values()) + [nones]:
        for tl in phrases:
            for t in tl:
                toks.setdefault(t, len(toks))
    words = ["</s>"] + sorted(toks)
    model = SubwordSGNS(words, dim=dim, bucket=bucket, seed=seed)
    log(f"sgns: {len(words)} words, {len(concepts)} concepts, "
        f"comp width {model.comp.shape[1]}")

    def pairs_fn(_ep, rng):
        return make_pairs(concepts, nones, model.vocab, rng,
                          max_cross_per_concept=max_cross_per_concept)

    model.train(pairs_fn, epochs=epochs, seed=seed, log=log)
    model.save(out_bin)
    return model


class FastTextEmbedder:
    """token → composed vector over raw fastText arrays (training-side
    twin of the FastTextBin inference path — identical composition), with
    a per-process memo since training revisits the same tokens."""

    def __init__(self, words: list[str], matrix: np.ndarray, bucket: int,
                 minn: int, maxn: int):
        self.vocab = {w: i for i, w in enumerate(words)}
        self.nwords = len(words)
        self.matrix = np.asarray(matrix, np.float32)
        self.bucket, self.minn, self.maxn = bucket, minn, maxn
        self.dim = self.matrix.shape[1]
        self.cache: dict[str, np.ndarray] = {}

    @classmethod
    def from_bin(cls, path: str) -> "FastTextEmbedder":
        from .state.fasttext_bin import FastTextBin

        ft = FastTextBin(path)
        return cls(ft.words, ft.input, ft.bucket, ft.minn, ft.maxn)

    def arrays(self):
        """(words-ordered) raw pieces for ray.put shipping to tasks."""
        words = [None] * self.nwords
        for w, i in self.vocab.items():
            words[i] = w
        return words, self.matrix, self.bucket, self.minn, self.maxn

    def __call__(self, tok: str) -> np.ndarray:
        v = self.cache.get(tok)
        if v is None:
            ids = []
            wid = self.vocab.get(tok, -1)
            if wid >= 0:
                ids.append(wid)
            if self.maxn > 0 and self.bucket > 0 and tok != "</s>":
                ids += [self.nwords + _subword_hash(g) % self.bucket
                        for g in compute_subwords(tok, self.minn, self.maxn)]
            v = (self.matrix[ids].mean(axis=0) if ids
                 else np.zeros(self.dim, np.float32))
            if len(self.cache) < 1_000_000:
                self.cache[tok] = v
        return v
