"""Deterministic stand-in scorer stack for the model stages L3-L6.

The reference's trained weights are external downloads (README.md:70-83)
and torch/stanza/fasttext are not installable here, so the three model
stages are re-created with deterministic, dependency-free stand-ins that
preserve the *mechanics* the Ray pipeline must support — per-actor model
residency, batched scoring, the p1/p2/p3 threshold control flow, L1
routing, top-k subtree selection and the final pair-matching filter
(util.py:1087-1169) — while remaining hermetic for tests:

- L3 fastText embedding  → hashing-trick char-n-gram embedding (256-d)
- L4 CNN L1 router       → cosine vs per-L1-subtree prototype vectors
- L5 per-subtree scorer  → softmax over cosines to concept-name embeddings,
                           top-10, threshold p2 (util.py:1111-1150)
- L6 BERT matcher        → calibrated cosine of the span/name embeddings,
                           threshold p3 (util.py:773-833)

When real torch weights ARE present, ``load_torch_scorer`` (gated behind an
import-try) is the compatible loading path.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .assets.hpo_dag import ROOT, HpoDag
from .candidates import Candidate
from .config import PipelineConfig

DIM = 256


def _token_vec(token: str, dim: int = DIM) -> np.ndarray:
    """Deterministic char-3gram hashing embedding of one token (fastText
    subword stand-in, L3).  ``dim`` is overridable so loaded model weights
    with a different embedding width (the reference trains at fastText's
    100) get matching OOV vectors."""
    s = f"<{token}>"
    v = np.zeros(dim, dtype=np.float32)
    for i in range(len(s) - 2):
        g = s[i:i + 3]
        h = int.from_bytes(hashlib.blake2b(g.encode(), digest_size=8).digest(), "big")
        v[h % dim] += 1.0 if (h >> 8) % 2 == 0 else -1.0
    return v


class _EmbeddingCache:
    def __init__(self):
        self.cache: dict[str, np.ndarray] = {}

    def phrase(self, tokens: Sequence[str]) -> np.ndarray:
        acc = np.zeros(DIM, dtype=np.float32)
        for t in tokens:
            v = self.cache.get(t)
            if v is None:
                v = _token_vec(t)
                self.cache[t] = v
            acc += v
        n = np.linalg.norm(acc)
        return acc / n if n > 0 else acc


class StandInScorer:
    """Implements the Step-2/Step-3 control flow of annotate_phrases
    (util.py:1087-1169) over deterministic embeddings.

    Built once per actor / worker process (``__init__`` = model load):
    concept-name embedding matrices per L1 subtree + L1 prototype matrix.
    """

    def __init__(self, dag: HpoDag, cfg: PipelineConfig | None = None,
                 emb: "_EmbeddingCache | None" = None):
        from .textops import process_str

        self.dag = dag
        self.cfg = cfg or PipelineConfig()
        self.emb = emb or _EmbeddingCache()
        self._name_vecs: dict[str, np.ndarray] = {}

        # per-L1-subtree concept matrices (L5 state; ~24 submodels in the
        # reference, all resident in one worker — no routing shuffle)
        self.sub_ids: dict[str, list[str]] = {}
        self.sub_mat: dict[str, np.ndarray] = {}
        protos = []
        for l1 in dag.layer1:
            members = sorted({l1} | (dag.descendants.get(l1, set()) & dag.abnormality))
            vecs = [self.emb.phrase(process_str(dag.name_of[m])) for m in members]
            mat = np.stack(vecs) if vecs else np.zeros((0, DIM))
            self.sub_ids[l1] = members
            self.sub_mat[l1] = mat
            protos.append(mat.mean(axis=0) if len(vecs) else np.zeros(DIM))
        self.l1_protos = np.stack(protos) if protos else np.zeros((0, DIM))
        norms = np.linalg.norm(self.l1_protos, axis=1, keepdims=True)
        self.l1_protos = np.divide(
            self.l1_protos, norms, out=np.zeros_like(self.l1_protos), where=norms > 0
        )

    # ---- L4: router ------------------------------------------------------
    def route_l1(self, vec: np.ndarray) -> list[str]:
        """L1 subtrees whose router score ≥ p1 (util.py:1104-1108);
        score = calibrated cosine mapped through a sigmoid."""
        if not len(self.l1_protos):
            return []
        scores = 1.0 / (1.0 + np.exp(-6.0 * (self.l1_protos @ vec)))
        return [self.dag.layer1[i] for i in np.nonzero(scores >= self.cfg.param1)[0]]

    # ---- L5: subtree scorer ---------------------------------------------
    def subtree_candidates(self, vec: np.ndarray, l1: str) -> list[tuple[str, float]]:
        ids, mat = self.sub_ids[l1], self.sub_mat[l1]
        if not len(ids):
            return []
        sims = mat @ vec
        z = np.exp(sims * 8.0)
        probs = z / z.sum()
        k = min(10, len(ids))
        top = np.argsort(-probs)[:k]
        return [(ids[i], float(probs[i])) for i in top if probs[i] >= self.cfg.param2]

    # ---- L6: matcher -----------------------------------------------------
    def _name_vec(self, hpo: str) -> np.ndarray:
        from .textops import process_str

        vec = self._name_vecs.get(hpo)
        if vec is None:
            vec = self.emb.phrase(process_str(self.dag.name_of[hpo]))
            self._name_vecs[hpo] = vec
        return vec

    def match_score(self, span_vec: np.ndarray, hpo: str) -> float:
        return float(max(0.0, span_vec @ self._name_vec(hpo)))

    # ---- full Step-2/Step-3 chain ---------------------------------------
    def __call__(
        self, candidates: Sequence[Candidate]
    ) -> list[tuple[Candidate, str, float]]:
        """Batched over all candidates (the reference scores in batches of
        256, util.py:1066): one embedding matrix, one router matmul, then
        per-routed-subtree scoring."""
        if not candidates or not len(self.l1_protos):
            return []
        # vectorized phrase embeddings: one reduceat over cached token rows
        # instead of a python loop + norm per candidate
        cache = self.emb.cache
        tok_rows: dict[str, int] = {}
        mats: list[np.ndarray] = []
        flat: list[int] = []
        starts: list[int] = []
        for c in candidates:
            starts.append(len(flat))
            for t in c.tokens:
                r = tok_rows.get(t)
                if r is None:
                    v = cache.get(t)
                    if v is None:
                        v = _token_vec(t)
                        cache[t] = v
                    r = len(mats)
                    tok_rows[t] = r
                    mats.append(v)
                flat.append(r)
        T = np.stack(mats)
        V = np.add.reduceat(T[np.array(flat)], np.array(starts), axis=0)
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        V = np.divide(V, norms, out=np.zeros_like(V), where=norms > 0)  # (n, DIM)
        router = 1.0 / (1.0 + np.exp(-6.0 * (V @ self.l1_protos.T)))  # (n, L1)
        routed = router >= self.cfg.param1

        # L5 batched per subtree: one matmul for ALL candidates routed to a
        # given L1 (the reference equivalently batches 256 phrases through
        # each submodel, util.py:1066)
        pools: dict[int, dict[str, float]] = {}
        for j in range(routed.shape[1]):
            idx = np.nonzero(routed[:, j])[0]
            if not len(idx):
                continue
            l1 = self.dag.layer1[j]
            ids, mat = self.sub_ids[l1], self.sub_mat[l1]
            if not len(ids):
                continue
            S = V[idx] @ mat.T                     # (m, n_members)
            Z = np.exp(S * 8.0)
            probs = Z / Z.sum(axis=1, keepdims=True)
            k = min(10, probs.shape[1])
            top = np.argpartition(-probs, k - 1, axis=1)[:, :k]
            for r, ci in enumerate(idx):
                pool = pools.setdefault(int(ci), {})
                for c in top[r]:
                    p = float(probs[r, c])
                    if p >= self.cfg.param2:
                        hpo = ids[c]
                        if p > pool.get(hpo, 0.0):
                            pool[hpo] = p
        if not pools:
            return []

        out = []
        if self.cfg.use_step_3:
            # L6 batched: one dot per (candidate, pooled concept) pair via a
            # stacked name-vector matrix
            pair_ci, pair_hpo = [], []
            for ci, pool in pools.items():
                for hpo in pool:
                    pair_ci.append(ci)
                    pair_hpo.append(hpo)
            if not pair_ci:
                return []
            name_mat = np.stack([self._name_vec(h) for h in pair_hpo])
            scores = np.maximum(
                0.0, np.einsum("ij,ij->i", V[np.array(pair_ci)], name_mat)
            )
            best: dict[int, tuple[str, float]] = {}
            for ci, hpo, s in zip(pair_ci, pair_hpo, scores):
                if s > best.get(ci, ("", 0.0))[1]:
                    best[ci] = (hpo, float(s))
            for ci in sorted(best):
                hpo, s = best[ci]
                if s >= self.cfg.param3:
                    out.append((candidates[ci], hpo, round(s, 4)))
        else:
            for ci in sorted(pools):
                if not pools[ci]:
                    # routed candidate whose subtree pool emptied at the
                    # param2 gate — same guard as the use_step_3 branch's
                    # `if not pair_ci` (max() of an empty pool
                    # killed the whole batch under -nb)
                    continue
                hpo, p = max(pools[ci].items(), key=lambda kv: kv[1])
                out.append((candidates[ci], hpo, round(p, 4)))
        return out


class LoadedEmbeddingCache(_EmbeddingCache):
    """Embedding lookup backed by a LOADED weight matrix (vocab × DIM);
    out-of-vocabulary tokens fall back to the deterministic subword
    hashing vector, mirroring fastText's OOV behaviour."""

    def __init__(self, matrix: np.ndarray, vocab: dict[str, int]):
        super().__init__()
        if matrix.shape[1] != DIM:
            raise ValueError(
                f"loaded embedding dim {matrix.shape[1]} != engine DIM {DIM}"
            )
        self.matrix = matrix.astype(np.float32)
        self.vocab = vocab

    def phrase(self, tokens):
        acc = np.zeros(DIM, dtype=np.float32)
        for t in tokens:
            idx = self.vocab.get(t)
            if idx is not None:
                acc += self.matrix[idx]
            else:
                v = self.cache.get(t)
                if v is None:
                    v = _token_vec(t)
                    self.cache[t] = v
                acc += v
        n = np.linalg.norm(acc)
        return acc / n if n else acc


def load_torch_scorer(model_dir: str, dag: HpoDag, cfg: PipelineConfig):
    """Weight-loading path for reference-format trained models.

    The reference ships its models as ``torch.save`` state-dict files
    (ModelSaver, util.py:600-630).  With torch absent, the same checkpoint
    files are parsed by the torch-free zip/pickle reader
    (state/torch_ckpt.read_state_dict) and inference runs in numpy.

    Layouts recognized under ``model_dir``:

    - ``l1.pt`` (+ optional ``sub_HP_XXXXXXX.pt`` per L1 subtree):
      architecture-faithful CNN inference (models_np.NumpyModelScorer —
      the L4 router + L5 subtree scorers of model.py).  Token vectors come
      from ``embedding.pt``+``vocab.txt`` when present, else the
      deterministic subword hash at the models' embedding width.
    - ``embedding.pt`` + ``vocab.txt`` only: the loaded table drives the
      stand-in scorer's control flow (LoadedEmbeddingCache).

    A ``DAG.json`` beside ``l1.pt`` names the ontology the CNN/BERT
    checkpoints were fit against.  It is reused as ``dag`` itself when its
    node table equals ``dag.nodes`` (and ``dag`` is rooted at HP:0000118):
    the scorer reads only node-derived fields (``layer1``, ``descendants``,
    ``abnormality``, ``parents``, ``name_of``), so equal node tables give
    identical scorer state.  Otherwise a separate ``HpoDag`` is built from
    it for the scorer.
    """
    import os

    from .state.torch_ckpt import read_state_dict

    emb_ckpt = os.path.join(model_dir, "embedding.pt")
    vocab_path = os.path.join(model_dir, "vocab.txt")

    if os.path.exists(os.path.join(model_dir, "l1.pt")):
        from .models_np import load_numpy_model_scorer

        # a DAG.json written by train_np.train_all pins the exact ontology
        # the checkpoints were fit against (layer1 order and member sets
        # are POSITIONAL in l1.pt / H0); the surrounding pipeline's dag
        # keeps driving dictionary matching.  The scorer reads only
        # node-derived fields, so when DAG.json holds the pipeline's own
        # node table (``-m builtin`` over the shipped ontology) that dag
        # is reused instead of built a second time.
        dag_json = os.path.join(model_dir, "DAG.json")
        if os.path.exists(dag_json):
            import json

            with open(dag_json, encoding="utf-8") as f:
                nodes = json.load(f)
            if dag.root != ROOT or nodes != dag.nodes:
                dag = HpoDag(nodes)

        ft_path = os.path.join(model_dir, "fasttext.bin")
        if os.path.exists(ft_path):
            # the reference's token vectors: fastText get_word_vector per
            # token (annotate.py:45, util.py PhraseDataSet4predict) — real
            # subword vectors for OOV tokens, parsed torch/fasttext-free
            from .state.fasttext_bin import FastTextBin

            ft = FastTextBin(ft_path)

            def token_vec(tok, _ft=ft):
                # no memo here: the scorer's own token cache
                # (NumpyModelScorer._vec_cache) calls this only on a miss
                return _ft.get_word_vector(tok).astype(np.float32)
        elif os.path.exists(emb_ckpt) and os.path.exists(vocab_path):
            matrix = np.asarray(read_state_dict(emb_ckpt)["embedding.weight"],
                                np.float32)
            with open(vocab_path, encoding="utf-8") as f:
                vocab = {ln.strip(): i for i, ln in enumerate(f) if ln.strip()}

            def token_vec(tok, _m=matrix, _v=vocab):
                i = _v.get(tok)
                return _m[i] if i is not None else _token_vec(tok, _m.shape[1])
        else:
            token_vec = None  # resolved against the router's width below
        scorer = load_numpy_model_scorer(
            model_dir, dag,
            token_vec or (lambda tok: _token_vec(tok, 0)),  # placeholder
            param1=cfg.param1, param2=cfg.param2,
        )
        if token_vec is None:
            width = scorer.l1.encoder.embedding_dim
            scorer.token_vec = lambda tok, _w=width: _token_vec(tok, _w)
        if cfg.use_step_3 and os.path.exists(os.path.join(model_dir, "bert.pt")):
            from .bert_np import load_bert_matcher

            scorer.bert = load_bert_matcher(model_dir)
            scorer.p3 = cfg.param3
        return scorer

    if not (os.path.exists(emb_ckpt) and os.path.exists(vocab_path)):
        raise NotImplementedError(
            f"no weight files under {model_dir} (need l1.pt for the CNN "
            f"path or embedding.pt + vocab.txt); use StandInScorer "
            f"(deterministic) instead"
        )
    state = read_state_dict(emb_ckpt)
    matrix = state["embedding.weight"]
    with open(vocab_path, encoding="utf-8") as f:
        vocab = {line.strip(): i for i, line in enumerate(f) if line.strip()}
    emb = LoadedEmbeddingCache(matrix, vocab)
    return StandInScorer(dag, cfg, emb=emb)


def build_models(dag: HpoDag, cfg: PipelineConfig):
    """``(scorer, ner)`` for ``cfg`` — the one constructor of model state, for
    the annotate stage (``stages.annotate``) and the HTTP server
    (``serve.build_state``).  ``model_dir`` loads checkpoints through
    :func:`load_torch_scorer`, else ``use_model_standins`` builds the
    deterministic :class:`StandInScorer`; ``ner_path`` loads the C1
    tagger.  Each is None when ``cfg`` does not ask for it."""
    scorer = None
    if cfg.model_dir:
        scorer = load_torch_scorer(cfg.model_dir, dag, cfg)
    elif cfg.use_model_standins:
        scorer = StandInScorer(dag, cfg)
    ner = None
    if cfg.ner_path:
        from .ner_np import NerTagger

        ner = NerTagger.load(cfg.ner_path)
    return scorer, ner
