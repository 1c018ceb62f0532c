"""Hermetic numpy trainer for the reference's CNN model stack.

Re-creates the reference's training recipes without torch/fasttext/GPU:

- L1 router  (train.py:19-118):   ``HPO_model_Layer1`` fit with multi-label
  BCE over the L1-ancestor target built by ``PhraseDataSet4trainCNN``
  (util.py:47-83) from ``models/train.txt`` — which ships WITH its 16.8k
  wiki-derived "None" negatives, so the None gate trains hermetically.
- subtree scorers (train_sub.py:12-90): one ``HPOModel`` per L1 subtree fit
  with softmax CE over ``models/train_source/train_{i}.txt`` (member
  phrases + cross-subtree "None" negatives, produce_trainSet_sub.py),
  through the SAME ancestor-matrix graph mixing the inference path uses
  (models_np.ancestor_matrix == util.py:540-575).

Token vectors are the engine's deterministic char-trigram hashing
embedding (standins._token_vec — the fastText stand-in; "septum"/"septal"
share trigram mass, which is where the generalization over exact
dictionary lookup comes from).  Phrases are reduced to the SAME simplified
token stream candidates carry at inference (process_str → num→word →
stopword/number drop, util.py:239-252) so train and test distributions
match.

Gradients are exact backprop through the ``models_np`` forward
(conv1d(k=1) → relu → global max-pool → linear → relu → L2-normalize →
head), optimized with Adam (the reference's optimizer, lr 2e-3) and early
stopping on a held-out split (util.py EarlyStopping).

Placement: training tables are ONTOLOGY-scale (48.6k + 25×~10k rows) —
broadcast-sized driver data, not corpus data — so each fit runs in one
process; the 25 independent subtree fits are the real parallel axis and
fan out as Ray tasks (``train_all``).  Corpus-scale pair production stays
in map_batches (assets/train_pairs.py).
"""

from __future__ import annotations

import numpy as np

MAX_SEQ_LEN = 30  # util.py:55


# --------------------------------------------------------------------------
# data prep

def simplified_tokens(phrase: str) -> list[str]:
    """process_str + PhraseItem.simplify (util.py:239-252): the exact token
    stream inference candidates carry."""
    from .textops import process_str, simplify

    return simplify(process_str(phrase))


class HashEmbedder:
    """Cached deterministic token embedding (standins._token_vec at an
    arbitrary width — the same vectors the loaded-checkpoint inference path
    uses for OOV/hash mode)."""

    def __init__(self, dim: int):
        from .standins import _token_vec

        self.dim = dim
        self._fn = _token_vec
        self.cache: dict[str, np.ndarray] = {}

    def __call__(self, tok: str) -> np.ndarray:
        v = self.cache.get(tok)
        if v is None:
            v = self._fn(tok, self.dim)
            self.cache[tok] = v
        return v


class TableEmbedder:
    """Lookup into a (learned) embedding matrix with the SAME hash-vector
    fallback for OOV tokens the inference loader uses
    (standins.load_torch_scorer: embedding.pt + vocab.txt)."""

    def __init__(self, matrix: np.ndarray, vocab: dict[str, int]):
        self.matrix = np.asarray(matrix, np.float32)
        self.vocab = vocab
        self.dim = self.matrix.shape[1]
        self._hash = HashEmbedder(self.dim)

    def __call__(self, tok: str) -> np.ndarray:
        i = self.vocab.get(tok)
        return self.matrix[i] if i is not None else self._hash(tok)


def hash_init_table(vocab: dict[str, int], dim: int) -> np.ndarray:
    """Embedding matrix initialized at each token's hash vector, so
    training only has to IMPROVE on the deterministic fallback (and OOV
    tokens at inference stay in-distribution)."""
    from .standins import _token_vec

    m = np.zeros((len(vocab), dim), np.float32)
    for tok, i in vocab.items():
        m[i] = _token_vec(tok, dim)
    return m


def build_token_vocab(samples) -> dict[str, int]:
    """token → row index over (tokens, label) sample lists."""
    seen: dict[str, int] = {}
    for toks, _ in samples:
        for t in toks:
            if t not in seen:
                seen[t] = len(seen)
    return seen


def batch_tensor(token_lists: list[list[str]], emb: HashEmbedder) -> np.ndarray:
    """(B, S, E) padded embedding tensor.  S = min(30, maxlen+1): keeping at
    least one zero-pad column makes the global max-pool IDENTICAL to the
    inference path's fixed 30-pad (all pad positions tie at relu(conv
    bias)), while shrinking the conv work ~5× on short phrases."""
    B = len(token_lists)
    maxlen = max((len(t) for t in token_lists), default=1)
    S = min(MAX_SEQ_LEN, max(1, maxlen) + 1)
    x = np.zeros((B, S, emb.dim), dtype=np.float32)
    for i, toks in enumerate(token_lists):
        for j, tok in enumerate(toks[:MAX_SEQ_LEN]):
            if j >= S:
                break
            x[i, j] = emb(tok)
    return x


# --------------------------------------------------------------------------
# encoder forward/backward (exact backprop of models_np.CnnEncoderNP)

def init_encoder(rng: np.random.Generator, E: int, C: int, D: int) -> dict:
    """torch-default init (uniform ±1/√fan_in) in the checkpoint layout."""
    def u(shape, fan_in):
        b = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-b, b, size=shape).astype(np.float32)

    return {
        "Encoder.conv.weight": u((C, E, 1), E),
        "Encoder.conv.bias": u((C,), E),
        "Encoder.linear.weight": u((D, C), C),
        "Encoder.linear.bias": u((D,), C),
    }


def encoder_forward(p: dict, x: np.ndarray):
    """x (B,S,E) → e (B,D) L2-normalized; returns (e, cache)."""
    B, S, E = x.shape
    Wc = p["Encoder.conv.weight"][:, :, 0]     # (C,E)
    a = x.reshape(B * S, E) @ Wc.T + p["Encoder.conv.bias"]
    z1 = np.maximum(a, 0.0).reshape(B, S, -1)  # (B,S,C)
    amax = z1.argmax(axis=1)                   # (B,C)
    m = np.take_along_axis(z1, amax[:, None, :], axis=1)[:, 0, :]  # (B,C)
    h = m @ p["Encoder.linear.weight"].T + p["Encoder.linear.bias"]
    z2 = np.maximum(h, 0.0)                    # (B,D)
    n = np.linalg.norm(z2, axis=1, keepdims=True)
    nz = np.where(n > 0, n, 1.0)
    e = z2 / nz
    return e, (x, z1, amax, m, z2, e, nz)


def encoder_backward(p: dict, cache, de: np.ndarray,
                     need_dx: bool = False):
    x, z1, amax, m, z2, e, nz = cache
    B, S, E = x.shape
    C = z1.shape[2]
    # L2-normalize: dz2 = (de - e·(de⋅e)) / n   (zero rows stay zero)
    dz2 = (de - e * (de * e).sum(axis=1, keepdims=True)) / nz
    dh = dz2 * (z2 > 0)
    dWl = dh.T @ m
    dbl = dh.sum(axis=0)
    dm = dh @ p["Encoder.linear.weight"]       # (B,C)
    # max-pool scatter
    dz1 = np.zeros_like(z1)
    np.put_along_axis(dz1, amax[:, None, :], dm[:, None, :], axis=1)
    da = (dz1 * (z1 > 0)).reshape(B * S, C)
    dWc = da.T @ x.reshape(B * S, E)
    dbc = da.sum(axis=0)
    grads = {
        "Encoder.conv.weight": dWc[:, :, None],
        "Encoder.conv.bias": dbc,
        "Encoder.linear.weight": dWl,
        "Encoder.linear.bias": dbl,
    }
    if need_dx:
        Wc = p["Encoder.conv.weight"][:, :, 0]
        return grads, (da @ Wc).reshape(B, S, E)
    return grads


class Adam:
    """Plain Adam (the reference's optimizer, train.py:57 lr=2e-3)."""

    def __init__(self, params: dict, lr: float = 2e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.p = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for k, g in grads.items():
            m = self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            v = self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            self.p[k] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _batches(n: int, batch: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for i in range(0, n, batch):
        yield order[i:i + batch]


# --------------------------------------------------------------------------
# L1 router fit

def _ids_tensor(token_lists: list[list[str]], vocab: dict[str, int],
                hash_rows: dict[str, np.ndarray]) -> np.ndarray:
    """(B, S) int ids; -1 = pad.  OOV tokens get appended hash rows via
    ``hash_rows`` (mutated) so every token has a trainable/fixed row id
    resolved by the caller."""
    B = len(token_lists)
    maxlen = max((len(t) for t in token_lists), default=1)
    S = min(MAX_SEQ_LEN, max(1, maxlen) + 1)
    ids = np.full((B, S), -1, dtype=np.int64)
    for i, toks in enumerate(token_lists):
        for j, tok in enumerate(toks[:S]):
            ids[i, j] = vocab[tok]
    return ids


def train_l1_router(
    samples: list[tuple[list[str], list[int]]],
    n_class: int,
    dims: tuple[int, int, int] = (100, 256, 128),
    epochs: int = 30,
    lr: float = 2e-3,
    batch: int = 256,
    seed: int = 0,
    val: list[tuple[list[str], list[int]]] | None = None,
    patience: int = 4,
    learn_embeddings: bool = False,
    embedder=None,
    log=None,
) -> dict:
    """samples: (tokens, l1_indices); ``l1_indices == [n_class]`` marks a
    "None" row.  Returns the l1.pt state dict (multi-label BCE fit,
    train.py:53-118).

    learn_embeddings=True additionally fits an ``embedding.weight`` table
    over the samples' token vocab (rows initialized at the hash vectors —
    the reference trains over FROZEN pretrained fastText; with no
    pretrained vectors available hermetically, learning the table is the
    substitute for that distributional signal).  The returned state then
    carries ``embedding.weight`` + a ``_vocab`` list; callers split them
    out into embedding.pt/vocab.txt (the standins loader's format)."""
    E, C, D = dims
    rng = np.random.default_rng(seed)
    p = init_encoder(rng, E, C, D)
    b = 1.0 / np.sqrt(D)
    p["linear.weight"] = rng.uniform(-b, b, (n_class + 1, D)).astype(np.float32)
    p["linear.bias"] = rng.uniform(-b, b, (n_class + 1,)).astype(np.float32)

    toks = [t for t, _ in samples]
    vt = [t for t, _ in val] if val else None
    vocab = None
    emb = embedder or HashEmbedder(E)
    if learn_embeddings:
        vocab = build_token_vocab(samples + (val or []))
        p["embedding.weight"] = hash_init_table(vocab, E)
    opt = Adam(p, lr=lr)

    def x_of(ts):
        if vocab is None:
            return batch_tensor(ts, emb), None
        ids = _ids_tensor(ts, vocab, {})
        x = p["embedding.weight"][ids]
        x[ids < 0] = 0.0
        return x, ids

    Y = np.zeros((len(samples), n_class + 1), dtype=np.float32)
    for i, (_, idxs) in enumerate(samples):
        Y[i, idxs] = 1.0

    def bce_loss(ts, ys):
        e, _ = encoder_forward(p, x_of(ts)[0])
        yp = _sigmoid(e @ p["linear.weight"].T + p["linear.bias"])
        yp = np.clip(yp, 1e-7, 1 - 1e-7)
        return float(-(ys * np.log(yp) + (1 - ys) * np.log(1 - yp)).mean())

    Yv = None
    if val:
        Yv = np.zeros((len(val), n_class + 1), dtype=np.float32)
        for i, (_, idxs) in enumerate(val):
            Yv[i, idxs] = 1.0

    best, best_state, bad = np.inf, None, 0
    for ep in range(epochs):
        for sel in _batches(len(samples), batch, rng):
            x, ids = x_of([toks[i] for i in sel])
            e, cache = encoder_forward(p, x)
            logits = e @ p["linear.weight"].T + p["linear.bias"]
            yp = _sigmoid(logits)
            t = Y[sel]
            dlogit = (yp - t) / (len(sel) * (n_class + 1))
            grads = {
                "linear.weight": dlogit.T @ e,
                "linear.bias": dlogit.sum(axis=0),
            }
            de = dlogit @ p["linear.weight"]
            if ids is None:
                grads.update(encoder_backward(p, cache, de))
            else:
                enc_g, dx = encoder_backward(p, cache, de, need_dx=True)
                grads.update(enc_g)
                gE = np.zeros_like(p["embedding.weight"])
                live = ids >= 0
                np.add.at(gE, ids[live], dx[live])
                grads["embedding.weight"] = gE
            opt.step(grads)
        cur = bce_loss(vt, Yv) if Yv is not None else bce_loss(
            toks[: min(2048, len(toks))], Y[: min(2048, len(toks))]
        )
        if log:
            log(f"l1 epoch {ep}: loss {cur:.5f}")
        if cur < best - 1e-5:
            best, bad = cur, 0
            best_state = {k: v.copy() for k, v in p.items()}
        else:
            bad += 1
            if bad >= patience:
                break
    state = best_state or p
    if vocab is not None:
        state["_vocab"] = sorted(vocab, key=vocab.get)
    return state


# --------------------------------------------------------------------------
# subtree fit

def train_subtree(
    samples: list[tuple[list[str], int]],
    n_members: int,
    L: np.ndarray,
    dims: tuple[int, int, int] = (100, 256, 128),
    epochs: int = 40,
    lr: float = 2e-3,
    batch: int = 256,
    seed: int = 0,
    patience: int = 4,
    val_frac: float = 0.05,
    embedder=None,
    log=None,
) -> dict:
    """samples: (tokens, member_index); index ``n_members`` = "None".
    L: (n+1, n+1) ancestor matrix (models_np.ancestor_matrix over the SAME
    dag the inference path will use).  Returns the sub_*.pt state dict
    (softmax CE fit, train_sub.py:35-90).

    ``embedder``: token → vector callable (default: hash vectors).  When
    the router learned an embedding table, pass a TableEmbedder so the
    subtree fits see the same vectors inference will (frozen here — the
    reference's submodels likewise share one frozen pretrained embedding)."""
    E, C, D = dims
    rng = np.random.default_rng(seed)
    emb = embedder or HashEmbedder(E)
    p = init_encoder(rng, E, C, D)
    p["H0"] = (rng.standard_normal((n_members + 1, D)) * 0.02).astype(np.float32)
    p["GCNNet.gcn1.bias"] = np.zeros(D, dtype=np.float32)
    opt = Adam(p, lr=lr)
    L = np.asarray(L, np.float32)

    toks = [t for t, _ in samples]
    labels = np.asarray([y for _, y in samples], np.int64)

    # Balanced held-out split: a uniform split of a ~99%-None shard would
    # carry ~no member rows, making early stopping blind to the signal that
    # matters — sample val from members and Nones separately.
    rng_split = np.random.default_rng(seed + 1)
    mem_all = rng_split.permutation(np.flatnonzero(labels < n_members))
    non_all = rng_split.permutation(np.flatnonzero(labels >= n_members))
    use_val = len(samples) > 40 and len(mem_all) >= 4
    n_vm = max(2, int(len(mem_all) * val_frac)) if use_val else 0
    n_vn = max(2, int(len(non_all) * val_frac)) if use_val and len(non_all) >= 4 else 0
    val_idx = np.concatenate([mem_all[:n_vm], non_all[:n_vn]])
    mem, non = mem_all[n_vm:], non_all[n_vn:]
    n_val = len(val_idx)

    # Class balance: the shards are ~99% "None" rows for small subtrees
    # (produce_trainSet_sub samples ≤200 concepts per OTHER subtree), under
    # which plain CE converges to the None-always predictor.  Oversample
    # member rows (with replacement) until they are ≥ 1/4 of the training
    # stream — inference needs a member to OUTRANK None at softmax ≥ p2,
    # which an imbalanced fit never delivers.
    if len(mem) and len(non) > 3 * len(mem):
        reps = int(np.ceil(len(non) / (3 * len(mem))))
        train_idx = np.concatenate([non] + [mem] * reps)
    else:
        train_idx = np.concatenate([non, mem])

    def forward(sel):
        x = batch_tensor([toks[i] for i in sel], emb)
        e, cache = encoder_forward(p, x)
        G = L @ p["H0"] + p["GCNNet.gcn1.bias"]   # (n+1, D)
        logits = e @ G.T
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = z / z.sum(axis=1, keepdims=True)
        return e, cache, G, probs

    def val_loss():
        sel = val_idx if n_val else train_idx[: min(2048, len(train_idx))]
        _, _, _, probs = forward(sel)
        t = labels[sel]
        losses = -np.log(np.clip(probs[np.arange(len(sel)), t], 1e-9, None))
        memmask = t < n_members
        if memmask.any() and (~memmask).any():
            # balanced: member CE and None CE weighted equally, matching
            # the oversampled training objective
            return float((losses[memmask].mean() + losses[~memmask].mean()) / 2)
        return float(losses.mean())

    best, best_state, bad = np.inf, None, 0
    for ep in range(epochs):
        for sel in _batches(len(train_idx), batch, rng):
            sel = train_idx[sel]
            e, cache, G, probs = forward(sel)
            t = labels[sel]
            dlogit = probs
            dlogit[np.arange(len(sel)), t] -= 1.0
            dlogit /= len(sel)
            dG = dlogit.T @ e                      # (n+1, D)
            grads = {
                "H0": L.T @ dG,
                "GCNNet.gcn1.bias": dG.sum(axis=0),
            }
            de = dlogit @ G
            grads.update(encoder_backward(p, cache, de))
            opt.step(grads)
        cur = val_loss()
        if log:
            log(f"sub epoch {ep}: loss {cur:.5f}")
        if cur < best - 1e-5:
            best, bad = cur, 0
            best_state = {k: v.copy() for k, v in p.items()}
        else:
            bad += 1
            if bad >= patience:
                break
    state = best_state or p

    # Temperature calibration, baked into the checkpoint (H0/bias scale):
    # the inference gate is a FIXED softmax threshold (p2=0.6,
    # util.py:1106), and a CE fit over thousands of classes leaves the
    # correct class under-confident (top-1 right, prob < 0.6).  Pick the
    # logit scale that maximizes the held-out DECISION accuracy — member
    # rows: correct class wins at ≥0.6; None rows: None wins at ≥0.6 —
    # mirroring exactly the Step-2 accept/drop rule the weights feed.
    sel = val_idx if n_val else np.concatenate([mem, non[: max(1, len(mem))]])
    if len(sel):
        x = batch_tensor([toks[i] for i in sel], emb)
        e, _ = encoder_forward(state, x)
        G = L @ state["H0"] + state["GCNNet.gcn1.bias"]
        logits = e @ G.T
        t = labels[sel]
        memmask = t < n_members
        best_alpha, best_score = 1.0, -1.0
        for alpha in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0):
            z = np.exp(alpha * logits - (alpha * logits).max(axis=1, keepdims=True))
            probs = z / z.sum(axis=1, keepdims=True)
            ok = (probs.argmax(axis=1) == t) & (
                probs[np.arange(len(sel)), t] >= 0.6
            )
            parts = []
            if memmask.any():
                parts.append(float(ok[memmask].mean()))
            if (~memmask).any():
                parts.append(float(ok[~memmask].mean()))
            score = sum(parts) / len(parts)
            if score > best_score + 1e-9:
                best_score, best_alpha = score, alpha
        if best_alpha != 1.0:
            state["H0"] = state["H0"] * best_alpha
            state["GCNNet.gcn1.bias"] = state["GCNNet.gcn1.bias"] * best_alpha
            if log:
                log(f"sub calibrated logit scale ×{best_alpha} "
                    f"(decision score {best_score:.3f})")
    return state


# --------------------------------------------------------------------------
# full fit over the reference's shipped training files

def load_l1_samples(train_txt: str, dag) -> list[tuple[list[str], list[int]]]:
    """train.txt rows → (simplified tokens, L1-ancestor indices); the "None"
    wiki negatives map to the None slot (PhraseDataSet4trainCNN,
    util.py:59-83)."""
    n_class = len(dag.layer1)
    out = []
    with open(train_txt, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                continue
            toks = simplified_tokens(parts[0])
            if not toks:
                continue
            if parts[1] == "None":
                out.append((toks, [n_class]))
            else:
                ancs = dag.ancestors.get(parts[1], set()) | {parts[1]}
                idxs = [dag.hpo2idx_l1[h] for h in ancs if h in dag.hpo2idx_l1]
                if idxs:
                    out.append((toks, sorted(idxs)))
    return out


def load_subtree_samples(path: str, members: list[str]) -> list[tuple[list[str], int]]:
    """train_source/train_{i}.txt rows → (simplified tokens, member index);
    "None" and out-of-subtree labels map to the None index
    (PhraseDataSet4trainCNN_sub, util.py:96-104)."""
    idx = {h: i for i, h in enumerate(members)}
    none = len(members)
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                continue
            toks = simplified_tokens(parts[0])
            if toks:
                out.append((toks, idx.get(parts[1], none)))
    return out


def train_all(
    models_dir: str,
    out_dir: str,
    dims: tuple[int, int, int] = (100, 256, 128),
    epochs: int = 30,
    sub_epochs: int = 40,
    seed: int = 0,
    num_cpus_per_task: int = 4,
    learn_embeddings: bool = False,
    fasttext_bin: str | None = None,
    log=print,
) -> dict:
    """Fit the router + every subtree from the reference's shipped training
    files and write reference-format checkpoints (l1.pt + sub_*.pt, plus
    embedding.pt + vocab.txt when learn_embeddings) that
    ``standins.load_torch_scorer`` loads directly.

    The 25 subtree fits are independent → one Ray task each (bounded
    ontology-scale inputs, results are state dicts).  With
    learn_embeddings the router fits FIRST (its learned table is the
    frozen embedding every subtree fit and inference pass shares);
    without, the subtree tasks launch first and the router fits on the
    driver meanwhile."""
    import os

    import ray

    from .assets.loader import dag_from_train_source
    from .models_np import ancestor_matrix
    from .sources.loaders import read_phrase_pairs
    from .state.torch_ckpt import write_state_dict

    if fasttext_bin and learn_embeddings:
        # checked before anything touches out_dir or models_dir
        raise ValueError("fasttext_bin and learn_embeddings are "
                         "mutually exclusive (both define token vectors)")
    os.makedirs(out_dir, exist_ok=True)
    dag = dag_from_train_source(models_dir)

    ft_emb = None
    if fasttext_bin:
        # frozen pre-trained distributional vectors (sgns_np, or an
        # imported reference fasttext.bin) — copied into the checkpoint
        # dir so standins.load_torch_scorer composes the SAME vectors
        import shutil

        from .sgns_np import FastTextEmbedder

        ft_emb = FastTextEmbedder.from_bin(fasttext_bin)
        dst = os.path.join(out_dir, "fasttext.bin")
        if os.path.abspath(fasttext_bin) != os.path.abspath(dst):
            shutil.copyfile(fasttext_bin, dst)

    def router_fit():
        l1_samples = load_l1_samples(os.path.join(models_dir, "train.txt"), dag)
        val = None
        val_path = os.path.join(models_dir, "val.txt")
        if os.path.exists(val_path):
            val = load_l1_samples(val_path, dag)
        log(f"router: {len(l1_samples)} samples, {len(dag.layer1)} classes")
        l1_state = train_l1_router(
            l1_samples, len(dag.layer1), dims=dims, epochs=epochs, seed=seed,
            val=val, learn_embeddings=learn_embeddings, embedder=ft_emb,
            log=log)
        emb_ref = None
        if learn_embeddings:
            vocab = l1_state.pop("_vocab")
            matrix = l1_state.pop("embedding.weight")
            write_state_dict(os.path.join(out_dir, "embedding.pt"),
                             {"embedding.weight": matrix})
            with open(os.path.join(out_dir, "vocab.txt"), "w",
                      encoding="utf-8") as f:
                f.write("\n".join(vocab) + "\n")
            emb_ref = ray.put(
                ("table", matrix, {t: i for i, t in enumerate(vocab)}))
        elif ft_emb is not None:
            emb_ref = ray.put(("ft",) + ft_emb.arrays())
        write_state_dict(os.path.join(out_dir, "l1.pt"), l1_state)
        return len(l1_samples), emb_ref

    @ray.remote(num_cpus=num_cpus_per_task)
    def fit_sub(path: str, members: list[str], L: np.ndarray, seed: int,
                emb_ref=None):
        samples = load_subtree_samples(path, members)
        embedder = None
        if emb_ref is not None:
            if emb_ref[0] == "ft":
                from .sgns_np import FastTextEmbedder

                embedder = FastTextEmbedder(*emb_ref[1:])
            else:
                _, matrix, vocab = emb_ref
                embedder = TableEmbedder(matrix, vocab)
        return train_subtree(samples, len(members), L, dims=dims,
                             epochs=sub_epochs, seed=seed, embedder=embedder)

    emb_ref = None
    n_l1 = None
    if learn_embeddings or ft_emb is not None:
        n_l1, emb_ref = router_fit()

    refs = {}
    file_of = getattr(dag, "l1_source_file", {})
    for i, l1 in enumerate(dag.layer1):
        members = sorted({l1} | (dag.descendants.get(l1, set()) & dag.abnormality))
        L = ancestor_matrix(dag, members)
        shard = file_of.get(l1, i)
        path = os.path.join(models_dir, "train_source", f"train_{shard}.txt")
        if not os.path.exists(path):
            log(f"skip subtree {l1}: no {path}")
            continue
        refs[l1] = (fit_sub.remote(path, members, L, seed + i + 1, emb_ref),
                    members)

    if n_l1 is None:
        # hash-embedding mode: router fits on the driver while subtree
        # tasks run
        n_l1, _ = router_fit()

    counts = {"l1_samples": n_l1, "subtrees": len(refs)}
    for l1, (ref, members) in refs.items():
        state = ray.get(ref)
        write_state_dict(
            os.path.join(out_dir, f"sub_{l1.replace(':', '_')}.pt"), state
        )
        log(f"subtree {l1}: {len(members)} members done")
    # the dag used at train time must be reused at inference (layer1 order,
    # member sets, ancestor matrix — H0 rows are positional in
    # sorted(members)); persist the full node table so the checkpoint dir
    # is self-contained (standins.load_torch_scorer rebuilds the scorer
    # dag from DAG.json, whatever dag the surrounding pipeline uses for
    # dictionary matching)
    import json

    with open(os.path.join(out_dir, "DAG.json"), "w") as f:
        json.dump(dag.nodes, f)
    counts["phrase_pairs"] = len(read_phrase_pairs(
        os.path.join(models_dir, "train.txt")))
    return counts


# --------------------------------------------------------------------------
# checkpoint shipping

def quantize_ckpt_dir(src_dir: str, dst_dir: str) -> None:
    """Copy a checkpoint directory with float32 tensors stored as float16
    (halves the packaged size; every model class re-casts to float32 on
    load, and the fitted weights are well inside half precision's range)."""
    import os
    import shutil

    from .state.torch_ckpt import read_state_dict, write_state_dict

    os.makedirs(dst_dir, exist_ok=True)
    for name in sorted(os.listdir(src_dir)):
        src = os.path.join(src_dir, name)
        if name.endswith(".pt"):
            state = read_state_dict(src)
            write_state_dict(
                os.path.join(dst_dir, name),
                {k: np.asarray(v).astype(np.float16)
                 if np.asarray(v).dtype == np.float32 else np.asarray(v)
                 for k, v in state.items()},
            )
        else:
            shutil.copy(src, os.path.join(dst_dir, name))
