"""Architecture-faithful NUMPY inference for the reference's CNN models.

Re-implements, from the public reference source, the forward passes of:

- ``CNNEncoder``       (model.py:124-165): conv1d(k=1) → relu → global
                       max-pool over the padded sequence → linear → relu →
                       L2 normalize
- ``HPO_model_Layer1`` (model.py:410-432): CNNEncoder → linear(n_class+1)
                       → sigmoid   (the L1 router, L4)
- ``HPOModel``         (model.py:359-407): CNNEncoder → logits =
                       enc @ (L_anc @ H0 + bias).T  (the per-subtree
                       scorer, L5; the GraphConvolution at inference is a
                       single sparse matmul + bias, model.py:34-63)
- ancestor matrix      (util.py:540-575): w(c,c)=1, w(c,a) = Σ_parents
                       w(p,a)/|parents|, restricted to the L1 subtree;
                       inference applies it to H0 row by row
                       (``ancestor_graph``) instead of building it

Weights load from ``torch.save``-format checkpoints through the torch-free
reader (state/torch_ckpt.py) — with the reference's real trained files
downloaded into a model dir, this path reproduces its CNN scoring without
torch.  The sequence max-pool runs over ALL padded positions (the
reference's masked pooling is commented out, model.py:151-157 — we
replicate the shipped behaviour).

Inference is factored (``CnnEncoderNP.encode_keys``).  The conv has
kernel size 1, so a padded position holds ``relu(v·Wᵀ + b)`` for its own
token alone, and every pad position holds ``relu(b)``.  A candidate's
pooled vector is therefore the elementwise max of its tokens' projected
rows, with ``relu(b)`` when it is shorter than ``MAX_SEQ_LEN`` (a longer
key is truncated with no pad column, as the padded tensor does).  The
scorer never builds the padded ``(B, S, E)`` tensor: each encoder
projects each distinct token of a call once, pools per distinct token
tuple, and the dense ``__call__`` stays as the training and test oracle.
Both give the same bits when BLAS rounds their products alike.  BLAS may
round a product of a few rows in the last place differently from a
larger one, far below the 4-decimal scores the scorer emits
(tests/test_factored_scorer.py).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .assets.hpo_dag import HpoDag

MAX_SEQ_LEN = 30  # util.py:55


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def key_matrix(keys, pad: int) -> np.ndarray:
    """Token-index keys, longest first → the (B, S) matrix the factored
    encoders pool over: S = min(MAX_SEQ_LEN, longest + 1), so a key
    shorter than ``MAX_SEQ_LEN`` keeps a ``pad`` column and a longer one
    is cut, as the reference's padded tensor does."""
    S = min(MAX_SEQ_LEN, len(keys[0]) + 1)
    return np.array([list(k[:S]) + [pad] * (S - len(k)) for k in keys], np.intp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


class CnnEncoderNP:
    """CNNEncoder forward (model.py:124-165) over a weights dict with keys
    ``conv.weight (C,E,1)``, ``conv.bias (C)``, ``linear.weight (D,C)``,
    ``linear.bias (D)`` (torch layout)."""

    def __init__(self, w: dict[str, np.ndarray], prefix: str = "Encoder."):
        self.conv_w = np.asarray(w[f"{prefix}conv.weight"], np.float32)[:, :, 0]
        self.conv_b = np.asarray(w[f"{prefix}conv.bias"], np.float32)
        self.lin_w = np.asarray(w[f"{prefix}linear.weight"], np.float32)
        self.lin_b = np.asarray(w[f"{prefix}linear.bias"], np.float32)
        self.embedding_dim = self.conv_w.shape[1]
        self.pad = relu(self.conv_b)  # every zero-pad position's conv output

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """x: (B, S, E) padded token embeddings → (B, D) normalized."""
        B, S, E = x.shape
        # conv1d kernel_size=1 == per-position linear: (B·S,E)@(E,C) → B,S,C
        # (reshaped matmul hits BLAS; the einsum form was ~20× slower)
        h = relu((x.reshape(B * S, E) @ self.conv_w.T).reshape(B, S, -1)
                 + self.conv_b)
        return self._head(h.max(axis=1))  # global max-pool over the sequence

    def encode_keys(self, vecs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The forward without the padded tensor: ``idx`` is a
        :func:`key_matrix` of row indices into ``vecs`` (T, E), longest row
        first, padded with T → (B, D), equal to ``__call__`` on the rows
        zero-padded to S positions.

        Each token row is projected once.  Column j's tokens are a prefix
        of the rows, so the pool is one gather-max per column; a row
        shorter than ``MAX_SEQ_LEN`` also pools the pad value."""
        T = len(vecs)
        proj = relu(vecs @ self.conv_w.T + self.conv_b)  # (T, C)
        n = np.count_nonzero(idx < T, axis=0)  # rows with a token in column j
        h = np.empty((len(idx), proj.shape[1]), np.float32)
        h[:n[0]] = proj[idx[:n[0], 0]]
        h[n[0]:] = self.pad
        for j in range(1, len(n)):
            if not n[j]:
                break
            np.maximum(h[:n[j]], proj[idx[:n[j], j]], out=h[:n[j]])
        np.maximum(h[n[-1]:], self.pad, out=h[n[-1]:])
        return self._head(h)

    def _head(self, h: np.ndarray) -> np.ndarray:
        """Pooled (B, C) → linear → relu → L2 normalize."""
        h = relu(h @ self.lin_w.T + self.lin_b)
        n = np.linalg.norm(h, axis=1, keepdims=True)
        return h / np.where(n > 0, n, 1.0)


class L1RouterNP:
    """HPO_model_Layer1 forward (L4): sigmoid(linear(encode))."""

    def __init__(self, state: dict[str, np.ndarray]):
        self.encoder = CnnEncoderNP(state)
        self.out_w = np.asarray(state["linear.weight"], np.float32)
        self.out_b = np.asarray(state["linear.bias"], np.float32)
        self.n_class = self.out_w.shape[0] - 1  # last slot is "None"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(B, S, E) → (B, n_class+1) sigmoid scores."""
        return _sigmoid(self.encoder(x) @ self.out_w.T + self.out_b)

    def forward_keys(self, vecs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Key matrix (``CnnEncoderNP.encode_keys``) → sigmoid scores."""
        return _sigmoid(self.encoder.encode_keys(vecs, idx) @ self.out_w.T
                        + self.out_b)


def ancestor_matrix(dag: HpoDag, members: list[str]) -> np.ndarray:
    """Dense (n+1, n+1) ancestor-weight matrix over ``members`` + a final
    None row, replicating getAdjacentMatrixAncestors (util.py:540-575):
    w(c,c)=1 and each parent contributes its ancestor weights / n_parents.
    Training (``train_np``) multiplies by it; inference never builds it —
    :func:`ancestor_graph` computes ``W @ H0`` row by row instead (the
    largest shipped subtree's W is 53 MB)."""
    idx = {h: i for i, h in enumerate(members)}
    n = len(members)
    W = np.zeros((n + 1, n + 1), dtype=np.float32)
    done = [False] * (n + 1)

    def visit(i: int):
        if done[i]:
            return
        done[i] = True
        W[i, i] = 1.0
        h = members[i]
        fathers = [idx[p] for p in dag.parents.get(h, ()) if p in idx]
        for f in fathers:
            visit(f)
            W[i] += W[f] / len(fathers)
        W[i, i] = 1.0  # self weight stays exactly 1 (util.py:566)

    for i in range(n):
        visit(i)
    W[n, n] = 1.0  # the None slot
    return W


def ancestor_graph(dag: HpoDag, members: list[str], H0: np.ndarray) -> np.ndarray:
    """``ancestor_matrix(dag, members) @ H0`` without the (n+1)² matrix.

    Row i of W is e_i + mean over in-subtree parents f of W[f], so row i
    of W @ H0 is H0[i] + mean_f (W @ H0)[f]: one pass in parent order over
    (n+1, d) rows.  The None row is H0's last row."""
    idx = {h: i for i, h in enumerate(members)}
    LH = np.array(H0, dtype=np.float32)
    done = [False] * len(members)

    def visit(i: int):
        if done[i]:
            return
        done[i] = True
        fathers = [idx[p] for p in dag.parents.get(members[i], ()) if p in idx]
        for f in fathers:
            visit(f)
            LH[i] += LH[f] / len(fathers)

    for i in range(len(members)):
        visit(i)
    return LH


class SubtreeModelNP:
    """HPOModel forward (L5) for one L1 subtree: logits = enc @ G where
    G = (L_anc @ H0 + gcn_bias).T is precomputed once (H0 and the ancestor
    weights are constants at inference; :func:`ancestor_graph`)."""

    def __init__(self, state: dict[str, np.ndarray], dag: HpoDag, l1_root: str):
        self.encoder = CnnEncoderNP(state)
        members = sorted({l1_root} | (dag.descendants.get(l1_root, set())
                                      & dag.abnormality))
        self.members = members
        H0 = np.asarray(state["H0"], np.float32)          # (n+1, out2)
        bias = np.asarray(state["GCNNet.gcn1.bias"], np.float32)
        if H0.shape[0] != len(members) + 1:
            raise ValueError(
                f"H0 rows {H0.shape[0]} != subtree size {len(members)}+1 "
                f"for {l1_root}"
            )
        self.graph = (ancestor_graph(dag, members, H0) + bias).T  # (out2, n+1)

    def forward_keys(self, vecs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Key matrix (``CnnEncoderNP.encode_keys``) → (B, n+1) raw logits."""
        return self.encoder.encode_keys(vecs, idx) @ self.graph

    def hpo_of(self, idx: int) -> str:
        return self.members[idx] if idx < len(self.members) else "None"


class NumpyModelScorer:
    """Step-2 scorer (util.py:1087-1140, ``use_step_3=False`` branch = the
    reference's ``-nb`` mode) over numpy CNN models.

    Interface-compatible with StandInScorer: called with surviving
    candidates, returns [(candidate, hpo_id, score)].
    """

    # per-worker token memo bound, as the fastText memo in
    # standins.load_torch_scorer; tokens past it are looked up each call
    VEC_CACHE_MAX = 1_000_000

    def __init__(self, dag: HpoDag, l1_router: L1RouterNP,
                 sub_models: dict[str, SubtreeModelNP], token_vec,
                 param1: float = 0.8, param2: float = 0.6,
                 bert=None, param3: float = 0.9):
        self.dag = dag
        self.l1 = l1_router
        self.subs = sub_models
        self.token_vec = token_vec  # token -> (E,) embedding
        self.p1 = param1
        self.p2 = param2
        self.bert = bert  # optional BertMatcherNP → Step-3 branch
        self.p3 = param3
        self.layer1 = dag.layer1
        self._vec_cache: dict[str, np.ndarray] = {}  # token → embedding row

    def _keys(self, cands):
        """``(vecs, idx, key_of)``: the call's distinct tokens as (T, E)
        rows, its distinct token tuples, longest first, as a
        :func:`key_matrix` over them, and each candidate's row in it."""
        toks = [tuple(c.tokens) for c in cands]
        keys = sorted(dict.fromkeys(toks), key=len, reverse=True)
        key_row = {k: u for u, k in enumerate(keys)}
        tok_row = {t: i for i, t in enumerate(
            dict.fromkeys(chain.from_iterable(keys)))}
        cache = self._vec_cache
        vecs = []
        for tok in tok_row:
            v = cache.get(tok)
            if v is None:
                v = self.token_vec(tok)
                if len(cache) < self.VEC_CACHE_MAX:
                    cache[tok] = v
            vecs.append(v)
        vecs = np.array(vecs, np.float32)
        idx = key_matrix([[tok_row[t] for t in k] for k in keys], len(vecs))
        return vecs, idx, [key_row[k] for k in toks]

    def __call__(self, cands):
        """Batched per SUBTREE (the reference equivalently pushes batches of
        256 phrases through each submodel, util.py:1066): every distinct
        token tuple routed to a given L1 goes through that submodel in ONE
        forward, then the per-candidate Step-2/Step-3 branch logic
        (semantics identical to the reference's per-phrase loop, verified
        by the branch-parity tests) assembles results from the shared
        top-k tables."""
        if not cands:
            return []
        vecs, idx, key_of = self._keys(cands)
        y = self.l1.forward_keys(vecs, idx)  # (U, n_class+1)
        none_idx = y.shape[1] - 1
        routed = y >= self.p1  # (U, n_class+1)
        # reference gate (util.py:1104-1110): drop a phrase when nothing
        # routes or when the None slot itself clears p1
        alive = routed[:, :none_idx].any(axis=1) & ~routed[:, none_idx]
        if not alive.any():
            return []

        # one batched submodel forward per routed L1 subtree; per-key
        # (hpo, prob) rankings gathered from the shared top-k tables in
        # ascending-l1, descending-prob order — the exact iteration order of
        # the per-phrase reference loop, so first-max tie-breaks agree
        topk = 5 if self.bert is None else 10
        ranked: dict[int, list[tuple[str, float]]] = {}
        live = routed[:, :min(none_idx, len(self.layer1))] & alive[:, None]
        for j in np.flatnonzero(live.any(axis=0)):  # subtrees with a row
            sub = self.subs.get(self.layer1[j])
            if sub is None:
                continue
            rows = np.flatnonzero(live[:, j])
            # the subtree projects only its rows' tokens: renumber them
            # in order, so the pad index (the largest) stays the largest
            sub_idx = idx[rows]
            seen = np.zeros(len(vecs) + 1, bool)
            seen[sub_idx] = True
            logits = sub.forward_keys(vecs[np.flatnonzero(seen[:-1])],
                                      (np.cumsum(seen) - 1)[sub_idx])  # (m, n+1)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            # only a row with some prob ≥ p2 adds to the ranking, so only
            # those rows are sorted (a row's argsort does not depend on
            # the other rows); with p2 > 0.5 that is one entry per row
            hit = np.flatnonzero((probs >= self.p2).any(axis=1))
            if not len(hit):
                continue
            k = min(topk, probs.shape[1])
            top = np.argsort(-probs[hit], axis=1)[:, :k]
            for r, row in zip(hit, top):
                lst = ranked.setdefault(int(rows[r]), [])
                for t in row:
                    p = float(probs[r, t])
                    if p >= self.p2:
                        lst.append((sub.hpo_of(int(t)), p))

        out = []
        if self.bert is None:
            # -nb branch (util.py:1098-1110): routed subtrees → softmax
            # top-5 ≥ p2, "None" entries INCLUDED in the ranking; the
            # phrase is dropped outright when "None" outranks every
            # concept (Candidate_hpos_sub[0][0] != "None").
            for c, u in zip(cands, key_of):
                step2 = ranked.get(u)
                if not step2:  # nothing routed or cleared p2 → drop
                    continue
                h, p = max(step2, key=lambda hp: hp[1])
                if h == "None":
                    continue
                out.append((c, h, round(p, 4)))
            return out

        # Step-3 branch (util.py:1120-1146): per subtree top-10 (or all
        # when the subtree has ≤10 concepts) ≥ p2, collected as a SET; the
        # phrase is dropped entirely when "None" qualifies anywhere in
        # that set; survivors go to the BERT pair-classifier
        # (produceCandidateTriple, util.py:773-833).
        # BERT input prep = my_bert_match.addWords on both sides of
        # "phrase::name" (lowercase + all-punctuation→space) — NOT
        # processStr; phrase side is toString() = the simplified tokens.
        from .textops import addwords_tokens

        for c, u in zip(cands, key_of):
            cand_set = {h for h, _ in ranked.get(u, ())}
            if not cand_set or "None" in cand_set:
                continue
            named = [(h, addwords_tokens(self.dag.name_of[h]))
                     for h in sorted(cand_set)]
            m = self.bert.best_match(
                addwords_tokens(" ".join(c.tokens)), named, self.p3
            )
            if m is not None:
                out.append((c, m[0], round(m[1], 4)))
        return out


def load_numpy_model_scorer(model_dir: str, dag: HpoDag, token_vec,
                            param1: float = 0.8, param2: float = 0.6):
    """Build a NumpyModelScorer from reference-format checkpoints:
    ``{model_dir}/l1.pt`` (HPO_model_Layer1 state dict) and
    ``{model_dir}/sub_<L1-id-with-underscores>.pt`` per subtree."""
    import os

    from .state.torch_ckpt import read_state_dict

    l1 = L1RouterNP(read_state_dict(os.path.join(model_dir, "l1.pt")))
    subs = {}
    for h in dag.layer1:
        p = os.path.join(model_dir, f"sub_{h.replace(':', '_')}.pt")
        if os.path.exists(p):
            subs[h] = SubtreeModelNP(read_state_dict(p), dag, h)
    return NumpyModelScorer(dag, l1, subs, token_vec, param1, param2)
