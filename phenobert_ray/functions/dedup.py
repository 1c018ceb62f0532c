"""Deduplication family over the ``documents`` table (task brief):

- exact:       md5(text) hash-partition + per-group first (SQL oracle)
- MinHash+LSH: shingle → minhash → band → bucket groupby → verify (pytest
               oracle: brute-force Jaccard)
- SimHash:     64-bit token-hash majority signature + hamming buckets
- n-gram Jaccard: verification kernel reused by the MinHash path
- embedding near-dup: cosine within label buckets (SQL oracle via
               list_cosine_similarity)

Scale notes: every variant is shuffle-by-signature — the all-pairs work
happens only *inside* a bucket/group (never a global cross join), and
signatures are computed vectorized per block before the exchange.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..stages.shuffle import drop_null_rows, round6_away


def _read_docs(sf_dir: str):
    # null contract: incomplete rows dropped at the read (see drop_null_rows)
    return drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ))


# ---------------------------------------------------------------------------
# exact dedup


def exact_dedup(sf_dir: str):
    """(text_md5, n_dups, keep_doc_id) — content-hash dedup via the bucketed
    two-phase exchange (one group per distinct text: exactly the shape where
    Ray's native per-group aggregate is slowest)."""
    from ..stages.shuffle import two_phase_groupby

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "text_md5": df["text"].map(lambda t: hashlib.md5(t.encode()).hexdigest()),
                "doc_id": df["doc_id"],
            }
        )

    hashed = _read_docs(sf_dir).map_batches(f, batch_format="pandas")
    out = two_phase_groupby(
        hashed,
        keys=["text_md5"],
        aggs={"keep_doc_id": ("doc_id", "min", "min"), "n_dups": (None, "size", "sum")},
    )
    return out


def bag_dedup(sf_dir: str):
    """(bag_md5, keep_doc_id, n_dups) — word-order-insensitive exact
    dedup: documents whose SORTED token multiset is identical collapse to
    one group (catches shuffled/reordered boilerplate that byte-exact
    dedup misses — the "fuzzy exact" middle ground between exact_dedup
    and the near-dup families).  Same bucketed two-phase exchange as
    exact_dedup; the sort happens per doc inside the block."""
    from ..stages.shuffle import two_phase_groupby

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bag_md5": df["text"].map(
                lambda t: hashlib.md5(
                    " ".join(sorted(t.split(" "))).encode()).hexdigest()),
            "doc_id": df["doc_id"],
        })

    hashed = _read_docs(sf_dir).map_batches(f, batch_format="pandas")
    return two_phase_groupby(
        hashed,
        keys=["bag_md5"],
        aggs={"keep_doc_id": ("doc_id", "min", "min"),
              "n_dups": (None, "size", "sum")},
    )


# ---------------------------------------------------------------------------
# shingles + jaccard kernel


def shingles(text: str, k: int = 3) -> set:
    """k-token shingle set; EMPTY for docs with fewer than k tokens.

    Sub-k-token docs are out of near-dup scope (near-dup of a 2-token doc
    is exact-dup territory — ``exact_dedup`` covers it), and EVERY
    shingle-based SQL oracle derives shingles from ``range(1, len(t)-1)``
    which emits none for them; a whole-text fallback shingle here would
    diverge from the oracles on any corpus containing a short doc
    (review r4)."""
    toks = text.split(" ")
    if len(toks) < k:
        return set()
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


# ---------------------------------------------------------------------------
# MinHash + LSH

N_PERM = 64
N_BANDS = 16  # 4 rows per band
# per-perm XOR constants: min(xor(md5_64(shingle), c_p)) is the min-wise
# family — chosen over Carter-Wegman multiply so the DuckDB oracle can
# recompute IDENTICAL signatures (UBIGINT multiply overflows raise in SQL;
# xor doesn't).  Family quality is irrelevant here: banding only proposes
# candidates and every pair is exact-Jaccard-verified downstream.
_XOR_C = np.random.default_rng(1042).integers(0, 2 ** 64, size=N_PERM,
                                              dtype=np.uint64)

# md5-prefix shingle hash, memoized per worker (the simhash _th pattern):
# template corpora repeat shingles massively across docs and batches
_SHINGLE_H: dict[str, int] = {}


def _md5_64(s: str) -> int:
    h = _SHINGLE_H.get(s)
    if h is None:
        h = int(hashlib.md5(s.encode()).hexdigest()[:16], 16)
        if len(_SHINGLE_H) < 500_000:
            _SHINGLE_H[s] = h
    return h


def _minhash_block(texts, k: int = 3) -> np.ndarray:
    """(n_docs, N_PERM) uint64 signature matrix for a whole block at once.

    Each UNIQUE shingle in the block is md5-hashed once (memoized across
    batches), the 64 xor-perm minima come from one broadcast xor +
    ``np.minimum.reduceat`` over doc boundaries.  Signature definition =
    ``min over shingles of xor(uint64(md5(s)[:16]), c_p)`` — recomputable
    exactly by the DuckDB oracle (oracles()["minhash_lsh_pairs"])."""
    sh_lists = [list(shingles(t, k)) for t in texts]
    counts = np.array([len(x) for x in sh_lists], dtype=np.int64)
    flat = [s for lst in sh_lists for s in lst]
    if not flat:
        return np.zeros((len(texts), N_PERM), dtype=np.uint64)
    uidx: dict[str, int] = {}
    idx = np.empty(len(flat), dtype=np.int64)
    for i, s in enumerate(flat):
        j = uidx.get(s)
        if j is None:
            j = uidx[s] = len(uidx)
        idx[i] = j
    uh = np.fromiter((_md5_64(s) for s in uidx), dtype=np.uint64,
                     count=len(uidx))
    hv = uh[idx]
    offs = np.r_[0, np.cumsum(counts)[:-1]]
    out = np.empty((len(texts), N_PERM), dtype=np.uint64)
    # chunk the perm axis so the (perms × shingles) intermediate stays small
    STEP = 16
    for p0 in range(0, N_PERM, STEP):
        m = hv[None, :] ^ _XOR_C[p0:p0 + STEP, None]
        out[:, p0:p0 + STEP] = np.minimum.reduceat(m, offs, axis=1).T
    return out


def minhash_signatures(sf_dir: str, k: int = 3):
    """(doc_id, sig:list<uint64>) — docs with no k-shingles (fewer than k
    tokens) emit NO signature row: a zero-shingle doc has no meaningful
    minimum, and any placeholder signature would either pair short docs
    through banding (diverging from the oracle) or break the reduceat
    over doc boundaries."""

    def f(df: pd.DataFrame) -> pa.Table:
        keep = df[df["text"].map(lambda t: len(t.split(" ")) >= k)]
        sigs = _minhash_block(list(keep["text"]), k)
        return pa.table(
            {
                "doc_id": pa.array(keep["doc_id"], pa.int64()),
                "sig": pa.array([s.tolist() for s in sigs], pa.list_(pa.uint64())),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


MAX_LSH_BUCKET = 5_000  # band buckets beyond this (mass duplicates or a
# degenerate signature) fall back to STAR candidate pairs (a rotating
# anchor vs each other member): connectivity/dedup semantics survive at
# n-1 pairs instead of the C(n,2) blowup; the degradation is LOGGED, never
# silent.  NOTE the pair-level output above the cap is a
# connectivity-preserving SUBSET of the true pair set (cluster output is
# unaffected); the rotation (anchor index = bkey % n, different per band)
# widens pair coverage across the ≥1 bands such a bucket collides in.
# The SQL oracle emits ALL pairs — oracle comparisons run at scales far
# below the cap (driver sf ≤ 0.1 → bucket ≤ corpus ≪ 5k dups per band).


def minhash_lsh_pairs(sf_dir: str, k: int = 3, threshold: float = 0.5):
    """Near-dup pairs via banded LSH + exact Jaccard verification.

    Scale shape (nothing document-sized crosses the wire more than once):
      1. one pass over text → 64-perm signature per doc
      2. flat-map to 16 band rows of ``(bucket, bkey, doc_id)`` ONLY —
         no text and no signature rides the LSH exchange (16 × ~24 B/doc);
         bkey = vectorized FNV-1a fold of the band's 4 minima + band index
         (key equality ⇔ band-chunk equality modulo 64-bit collisions)
      3. per-bucket candidate pairs, deduped across bands with the
         two-phase exchange
      4. exact-Jaccard verification by joining the (tiny) candidate set
         back to ``documents`` twice (hash join on doc_id) — each text is
         re-read only for docs that are in ≥1 candidate pair

    Output (doc_a, doc_b, jac) with doc_a < doc_b.  SQL-oracled:
    ``oracles()["minhash_lsh_pairs"]`` recomputes the identical signatures
    (md5-prefix shingle hash + xor perms), band equality and verification.
    """
    rows_per_band = N_PERM // N_BANDS

    COARSE = 64  # pack raw (band, bkey) LSH buckets into few shuffle keys
    _FNV_OFF = np.uint64(0xCBF29CE484222325)
    _FNV_P = np.uint64(0x100000001B3)

    def to_bands(df: pd.DataFrame) -> pa.Table:
        # sub-k-token docs have no shingles and no meaningful minimum —
        # excluded from banding entirely (matches minhash_signatures and
        # every shingle oracle's range()-derived shingle set, review r4)
        df = df[df["text"].map(lambda t: len(t.split(" ")) >= k)]
        sigs = _minhash_block(list(df["text"]), k)  # (n_docs, N_PERM)
        n = len(df)
        doc_ids = np.repeat(df["doc_id"].to_numpy(dtype=np.int64), N_BANDS)
        chunks = sigs.reshape(n, N_BANDS, rows_per_band)
        # vectorized FNV-1a over the band minima, then the band index —
        # no per-(doc, band) Python loop, no blake2b calls
        h = np.full((n, N_BANDS), _FNV_OFF, dtype=np.uint64)
        for r in range(rows_per_band):
            h = (h ^ chunks[:, :, r]) * _FNV_P
        h = (h ^ np.arange(N_BANDS, dtype=np.uint64)[None, :]) * _FNV_P
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "bkey": pa.array(h.reshape(-1), pa.uint64()),
                "bucket": pa.array((h.reshape(-1) % np.uint64(COARSE)).astype(np.int64), pa.int64()),
            }
        )

    banded = _read_docs(sf_dir).map_batches(to_bands, batch_format="pandas")
    # (doc_id, bkey, bucket) rows are exactly N_BANDS × docs — known from
    # the parquet footer, free.  Coalesce the banding output before the
    # bucket exchange (no-op at scale; signature-compute parallelism is
    # unaffected — it happens upstream, over the read blocks).
    from ..stages.shuffle import coalesce_for_exchange, table_rows

    banded = coalesce_for_exchange(
        banded, N_BANDS * table_rows(sf_dir, "documents"))

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # one call handles many LSH buckets: segment on bkey
        out_a, out_b = [], []
        for bk, seg in df.groupby("bkey", sort=False):
            ids = np.unique(seg["doc_id"].to_numpy(dtype=np.int64))
            n = len(ids)
            if n < 2:
                continue
            if n > MAX_LSH_BUCKET:
                import logging

                logging.getLogger(__name__).warning(
                    "minhash_lsh_pairs: band bucket %s holds %d docs "
                    "(> MAX_LSH_BUCKET=%d) — emitting star pairs (rotating "
                    "anchor vs members, n-1 candidates) instead of all "
                    "C(n,2); pair output is a connectivity-preserving "
                    "subset above this cap",
                    bk, n, MAX_LSH_BUCKET,
                )
                a = int(bk) % n  # rotate the anchor per band bucket
                others = np.concatenate([ids[:a], ids[a + 1:]])
                out_a.append(np.minimum(ids[a], others))
                out_b.append(np.maximum(ids[a], others))
                continue
            ii, jj = np.triu_indices(n, 1)
            out_a.append(ids[ii])
            out_b.append(ids[jj])
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"), "doc_b": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
        )

    cand = banded.groupby("bucket").map_groups(bucket_pairs, batch_format="pandas")
    # NB: a pair found in multiple bands appears once PER BAND here — the
    # cross-band dedup happens inside the verification group (cheaper than
    # spending a whole extra exchange on it; duplicate pair rows are
    # bounded by N_BANDS × the true candidate count)
    from ..stages.shuffle import default_num_buckets

    # candidate-member id set (pair-sized, built from per-block uniques):
    # broadcast below the bound so the verification exchange ships ONLY
    # candidate texts — without this every corpus text crossed the wire
    # even when the candidate set was tiny (review r4).  Above the bound
    # (ids no longer driver-safe) fall back to the unfiltered exchange,
    # whose volume is then the same order as the candidate text volume
    # anyway.  cand is consumed twice (ids + pair rows) → materialize.
    cand = cand.materialize()
    MEMBER_ID_BOUND = 50_000_000  # int64 ids ≈ 400 MB broadcast ceiling

    def member_ids(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": pd.unique(np.concatenate(
            [df["doc_a"].to_numpy(np.int64), df["doc_b"].to_numpy(np.int64)]
        ))})

    id_chunks = [
        b["doc_id"].to_numpy(np.int64)
        for b in cand.map_batches(member_ids, batch_format="pandas")
        .iter_batches(batch_format="pandas")
    ]
    ids = np.unique(np.concatenate(id_chunks)) if id_chunks else np.array(
        [], dtype=np.int64)
    if len(ids) == 0:
        return ray.data.from_arrow(pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "jac": pa.array([], pa.float64()),
        }))
    ids_ref = ray.put(ids) if len(ids) <= MEMBER_ID_BOUND else None

    # exact verification WITHOUT hash-join actor pools: tag candidate-side
    # rows (2 per pair, keyed by each member doc) and document rows into one
    # unified schema, run ONE bucket exchange on hash(doc_id) to attach each
    # key doc's text, then ONE exchange on hash(pair) to co-locate the two
    # texts and compute exact Jaccard.  Text crosses the wire exactly once;
    # pair rows (tiny) cross twice.  This is the same exchange volume as a
    # hash join but uses the task-based sort exchange — no per-join
    # aggregator actor startup, and immune to the empty-partition
    # schema-loss that breaks chained Dataset.join calls.
    P = default_num_buckets()

    def pair_rows(df: pd.DataFrame) -> pd.DataFrame:
        a = pd.DataFrame(
            {"doc_id": df["doc_a"], "doc_a": df["doc_a"], "doc_b": df["doc_b"]}
        )
        b = pd.DataFrame(
            {"doc_id": df["doc_b"], "doc_a": df["doc_a"], "doc_b": df["doc_b"]}
        )
        out = pd.concat([a, b], ignore_index=True).astype("int64")
        out["text"] = ""
        out["side"] = 0
        out["bucket"] = (
            pd.util.hash_pandas_object(out["doc_id"], index=False).to_numpy() % P
        ).astype("int64")
        return out

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        if ids_ref is not None:
            idarr = ray.get(ids_ref)
            dv = df["doc_id"].to_numpy(np.int64)
            pos = np.minimum(np.searchsorted(idarr, dv), len(idarr) - 1)
            df = df[idarr[pos] == dv]
        if not len(df):  # fully-pruned block: keep the schema typed
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "text": pd.Series([], dtype="string"),
                "side": pd.Series([], dtype="int64"),
                "bucket": pd.Series([], dtype="int64"),
            })
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "doc_a": -1,
                "doc_b": -1,
                "text": df["text"],
            }
        )
        out["side"] = 1
        out["bucket"] = (
            pd.util.hash_pandas_object(out["doc_id"], index=False).to_numpy() % P
        ).astype("int64")
        return out

    tagged = cand.map_batches(pair_rows, batch_format="pandas").union(
        _read_docs(sf_dir).map_batches(doc_rows, batch_format="pandas")
    )
    if ids_ref is not None:
        # the exchange rows are bounded driver-side (2 rows per candidate
        # pair + one per member doc after the ids-broadcast prune), but
        # the union inherits one tiny block per upstream read task —
        # coalesce (see coalesce_for_exchange; no-op for big estimates)
        from ..stages.shuffle import coalesce_for_exchange

        tagged = coalesce_for_exchange(
            tagged, 2 * cand.count() + len(ids), rows_per_block=50_000)

    def attach_text(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["side"] == 0]
        right = df[df["side"] == 1]
        j = left[["doc_id", "doc_a", "doc_b"]].merge(
            right[["doc_id", "text"]], on="doc_id"
        )
        j["bucket"] = (
            pd.util.hash_pandas_object(j[["doc_a", "doc_b"]], index=False).to_numpy()
            % P
        ).astype("int64")
        return j[["doc_id", "doc_a", "doc_b", "text", "bucket"]]

    located = (
        tagged.groupby("bucket")
        .map_groups(attach_text, batch_format="pandas")
        .groupby("bucket")
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        # cross-band duplicate pair rows collapse here (one row per
        # (pair, member) after drop_duplicates), then each surviving group
        # must hold exactly the two member texts
        df = df.drop_duplicates(["doc_a", "doc_b", "doc_id"]).sort_values(
            ["doc_a", "doc_b", "doc_id"]
        )
        rows_a, rows_b, rows_j = [], [], []
        texts = df["text"].to_numpy()
        ids = df["doc_id"].to_numpy()
        da = df["doc_a"].to_numpy()
        db = df["doc_b"].to_numpy()
        bounds = np.flatnonzero((da[1:] != da[:-1]) | (db[1:] != db[:-1])) + 1
        for a, b in zip(np.r_[0, bounds], np.r_[bounds, len(da)]):
            if b - a != 2:  # a pair needs both member texts
                continue
            ta = texts[a] if ids[a] == da[a] else texts[a + 1]
            tb = texts[a + 1] if ids[a + 1] == db[a] else texts[a]
            # half-away bridge: Python round() is half-even, the oracle's
            # DuckDB round() half-away — c/(na+nb−c) ties at the 7th decimal
            jc = float(round6_away(jaccard(shingles(ta, k), shingles(tb, k))))
            if jc >= threshold:
                rows_a.append(da[a])
                rows_b.append(db[a])
                rows_j.append(jc)
        return pd.DataFrame(
            {
                "doc_a": pd.array(rows_a, dtype="int64"),
                "doc_b": pd.array(rows_b, dtype="int64"),
                "jac": pd.array(rows_j, dtype="float64"),
            }
        )

    from ..stages.shuffle import typed_result

    return typed_result(located.map_groups(verify, batch_format="pandas"),
                        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                                   ("jac", pa.float64())]))


# ---------------------------------------------------------------------------
# SimHash


def simhash_signatures(sf_dir: str):
    """(doc_id, simhash:uint64) — 64-bit majority-vote token signature.

    Token hash = first 64 bits of md5 via the module-level memoized
    ``_md5_64`` (a closure-scoped cache would pickle EMPTY into every
    map_batches task and never persist across batches on a worker; the
    module-level dict does — review r4), chosen so the DuckDB oracle can
    recompute the identical signature in SQL (md5 + hex-prefix cast); the
    hash choice is irrelevant to SimHash quality."""
    _th = _md5_64

    _POWERS = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    _SHIFTS = np.arange(64, dtype=np.uint64)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for text in df["text"]:
            toks = set(text.split(" "))
            H = np.fromiter((_th(t) for t in toks), dtype=np.uint64, count=len(toks))
            # (n_tok, 64) bit matrix in ONE vectorized op, then column votes
            bits = (H[:, None] >> _SHIFTS[None, :]) & np.uint64(1)
            votes = 2 * bits.astype(np.int64).sum(axis=0) - len(toks)
            out.append(int((votes > 0).astype(np.uint64) @ _POWERS))
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "simhash": pd.array(out, dtype="uint64")}
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pandas")


def simhash_dup_pairs(sf_dir: str, max_hamming: int = 3):
    """Near-dup pairs with hamming(simhash) ≤ max_hamming via the 4×16-bit
    chunk trick: a pair within distance d ≤ 3 must agree on ≥1 of the 4
    chunks (pigeonhole), so recall is exact for the default; for larger
    max_hamming the candidate set is only chunk-colliding pairs (standard
    SimHash LSH tradeoff)."""

    sigs = simhash_signatures(sf_dir)
    COARSE = 64  # ckey sub-buckets are packed into this many shuffle keys:
    # per-group map_groups overhead is ~ms, so thousands of raw LSH buckets
    # must not each become their own group

    def to_chunks(df: pd.DataFrame) -> pd.DataFrame:
        sig = df["simhash"].to_numpy(dtype=np.uint64)
        doc = df["doc_id"].to_numpy(dtype=np.int64)
        frames = []
        for c in range(4):
            ckey = ((sig >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": doc,
                        "chunk": c,
                        "ckey": ckey,
                        "simhash": sig,
                        "bucket": ((ckey * 4 + c) % COARSE).astype(np.int64),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    chunked = sigs.map_batches(to_chunks, batch_format="pandas")
    # 4 chunk rows per doc, footer-derivable; coalesce ahead of the bucket
    # exchange (no-op at scale)
    from ..stages.shuffle import coalesce_for_exchange, table_rows

    chunked = coalesce_for_exchange(
        chunked, 4 * table_rows(sf_dir, "documents"))

    _POP = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1)

    def _pairs_in_segment(ids: np.ndarray, sig: np.ndarray, out):
        """Vectorized popcount(xor) all-pairs within one LSH sub-bucket;
        row-chunked so memory ≤ 256×n×8 bytes."""
        n = len(ids)
        CH = 256
        for s in range(0, n, CH):
            rows = sig[s:s + CH, None] ^ sig[None, :]
            ham = _POP[rows.view(np.uint8).reshape(rows.shape[0], n, 8)].sum(-1)
            ii, jj = np.nonzero(ham <= max_hamming)
            glob_i = ii + s
            keep = glob_i < jj  # upper triangle only
            out[0].append(ids[glob_i[keep]])
            out[1].append(ids[jj[keep]])
            out[2].append(ham[ii[keep], jj[keep]])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        # one call handles MANY (chunk, ckey) sub-buckets: sort + segment
        df = df.sort_values(["chunk", "ckey", "doc_id"])
        ck = (df["ckey"].to_numpy(dtype=np.int64) * 4) + df["chunk"].to_numpy(dtype=np.int64)
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        sig = df["simhash"].to_numpy(dtype=np.uint64)
        out = ([], [], [])
        bounds = np.flatnonzero(np.diff(ck)) + 1
        for a, b in zip(np.r_[0, bounds], np.r_[bounds, len(ck)]):
            if b - a >= 2:
                seg_ids, idx = np.unique(ids[a:b], return_index=True)
                _pairs_in_segment(seg_ids, sig[a:b][idx], out)
        if not out[0]:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype="int64"),
                    "doc_b": pd.Series([], dtype="int64"),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(out[0]).astype(np.int64),
                "doc_b": np.concatenate(out[1]).astype(np.int64),
                "hamming": np.concatenate(out[2]).astype(np.int64),
            }
        )

    pairs = chunked.groupby("bucket").map_groups(bucket, batch_format="pandas")
    from ..stages.shuffle import two_phase_groupby

    from ..stages.shuffle import typed_result

    return typed_result(two_phase_groupby(
        pairs, keys=["doc_a", "doc_b"],
        aggs={"hamming": ("hamming", "min", "min")},
    ), pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                  ("hamming", pa.int64())]))


# ---------------------------------------------------------------------------
# embedding cosine near-dup (bucketed by label — the IVF-style scale path)

COSINE_THRESHOLD = 0.35


def embedding_dup_pairs(sf_dir: str, threshold: float = COSINE_THRESHOLD):
    """(vec_a, vec_b, cos) — pairs within the same label bucket with
    cosine ≥ threshold.  Per-group numpy matmul; the cross product never
    leaves a bucket."""
    ds = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    ))

    def per_label(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("vec_id")
        ids = df["vec_id"].to_numpy()
        E = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        S = En @ En.T
        iu, ju = np.triu_indices(len(ids), 1)
        sims = S[iu, ju]
        keep = np.round(sims, 6) >= threshold
        return pd.DataFrame(
            {
                "vec_a": ids[iu[keep]],
                "vec_b": ids[ju[keep]],
                "cos": np.round(sims[keep], 6),
            }
        )

    from ..stages.shuffle import typed_result

    return typed_result(ds.groupby("label").map_groups(per_label, batch_format="pandas"),
                        pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64()),
                                   ("cos", pa.float64())]))


def embedding_dup_clusters(sf_dir: str, threshold: float = COSINE_THRESHOLD):
    """(vec_id, cluster_id) — embedding-cosine near-duplicate CLUSTERS:
    the label-bucketed cosine pairs feed connected components, the fourth
    clusters variant (minhash/simhash/ngram above).  Recall inherits the
    bucketing trade (cross-label near-dups never pair — documented on
    embedding_dup_pairs); cluster_id = min vec_id of the component."""
    from .graph import connected_components

    pairs = embedding_dup_pairs(sf_dir, threshold).map_batches(
        lambda b: b.select(["vec_a", "vec_b"]).rename_columns(
            ["doc_a", "doc_b"]),
        batch_format="pyarrow",
    )
    return connected_components(pairs).map_batches(
        lambda b: b.rename_columns(["vec_id", "cluster_id"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# sorted-neighborhood dedup (SNM)

SNM_W = 3  # window width: compare each doc to the next w-1 in sort order
SNM_KEY_LEN = 12  # blocking key = first chars of text
SNM_CHUNK = 256  # ranks per exchange chunk


def snm_candidate_pairs(
    sf_dir: str, w: int = SNM_W, key_len: int = SNM_KEY_LEN, chunk: int = SNM_CHUNK
):
    """(doc_a, doc_b, gap, is_dup) — sorted-neighborhood-method dedup
    (Hernández & Stolfo 1995): sort the corpus by a blocking key (here the
    first ``key_len`` chars of text), then compare each record only to its
    ``w−1`` successors in sort order.  The SORT-based member of the dedup
    family — candidate count is exactly (w−1)·n no matter how skewed the
    key distribution, the property hash-blocking (LSH buckets, exact
    groups) cannot give on template-heavy corpora.

    Distributed shape — two ordered-prefix-sum passes, no sorted copy:
      1. global rank over (key, doc_id): order-preserving range bucket on
         the key's first 2 bytes, in-cluster bucket counts → exclusive
         offsets broadcast (O(buckets)), per-bucket local sort + offset.
         A corpus sharing one 2-byte prefix collapses into one bucket;
         at scale widen the band using sampled key quantiles (Ray
         sort's own strategy) — doc-id sub-splits canNOT be used here
         because within-prefix order depends on the rest of the key;
      2. rank-adjacency join as a CHUNKED exchange (the range-join trick):
         each rank goes to chunk r//C, and the first w−1 ranks of every
         chunk replicate to the previous chunk, so every length-w window
         is fully contained in one chunk; pairs are emitted only where
         the left element is chunk-primary (no duplicates).  Replication
         factor ≤ 2, rows are (rank, doc_id, md5) ints — text never
         crosses the wire after the key projection.

    ``is_dup`` verifies candidates by exact content hash (md5 equality);
    swap in a Jaccard verifier for fuzzy SNM.  String order is bytewise
    (code-point order == UTF-8 byte order; both engines compare identically —
    assumption shared with the DuckDB oracle's binary collation)."""
    from ..stages.shuffle import two_phase_groupby

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "key": df["text"].str.slice(0, key_len),
                "h": df["text"].map(
                    lambda t: hashlib.md5(t.encode()).hexdigest()
                ),
            }
        )

    # bucket id must be MONOTONE in lexicographic key order (the global
    # rank adds per-bucket offsets in bucket order).  The radix for the
    # second code point is 0x110000+1 (> any ord), with missing chars as
    # -1: a smaller multiplier (257) let a large second code point swamp
    # the first char on non-ASCII keys ('a🔥…' bucketed after 'b …'),
    # silently mis-ranking unicode corpora (adversarial-gate find, r4).
    # Python compares code points, DuckDB compares UTF-8 bytes — the two
    # orders coincide, so the oracle's ORDER BY matches.
    _RADIX = 0x110000 + 1

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        b = df["key"].str.slice(0, 2).map(
            lambda s: ((ord(s[0]) if len(s) > 0 else -1) + 1) * _RADIX
            + (ord(s[1]) if len(s) > 1 else -1) + 1
        )
        df["rbucket"] = b.astype("int64")
        return df

    # materialize AFTER bucketize: both downstream lineages (counts and
    # ranked) consume the bucketed projection, so materializing proj
    # instead re-ran the bucketize pass over the whole corpus twice
    # (review r4).  Coalesced first (footer estimate; no-op at scale) —
    # both downstream exchanges inherit the block count.
    from ..stages.shuffle import coalesce_for_exchange, table_rows

    bucketed = coalesce_for_exchange(
        _read_docs(sf_dir).map_batches(project, batch_format="pandas")
        .map_batches(bucketize, batch_format="pandas"),
        table_rows(sf_dir, "documents"),
    ).materialize()
    counts = two_phase_groupby(
        bucketed.map_batches(lambda df: df[["rbucket"]], batch_format="pandas"),
        keys=["rbucket"],
        aggs={"n": (None, "size", "sum")},
    ).to_pandas()  # O(distinct 2-byte prefixes) rows — bounded, never O(docs)
    if "rbucket" not in counts.columns:  # empty corpus drops the schema
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "gap": pa.array([], pa.int64()),
                    "is_dup": pa.array([], pa.bool_()),
                }
            )
        )
    counts = counts.sort_values("rbucket")
    offsets = dict(
        zip(
            counts["rbucket"].astype("int64"),
            np.concatenate(([0], counts["n"].to_numpy()[:-1].cumsum())).astype("int64"),
        )
    )
    off_ref = ray.put(offsets)

    def rank_group(df: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        df = df.sort_values(["key", "doc_id"])
        base = int(offs[int(df["rbucket"].iloc[0])])
        return pd.DataFrame(
            {
                "r": base + 1 + np.arange(len(df), dtype=np.int64),
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "h": df["h"].to_numpy(),
            }
        )

    ranked = bucketed.groupby("rbucket").map_groups(rank_group, batch_format="pandas")

    def to_chunks(df: pd.DataFrame) -> pd.DataFrame:
        r = df["r"].to_numpy(dtype=np.int64)
        primary = pd.DataFrame(
            {"ck": r // chunk, "r": r, "doc_id": df["doc_id"], "h": df["h"],
             "pri": np.ones(len(df), dtype=np.int64)}
        )
        head = (r % chunk) < (w - 1)
        rep = pd.DataFrame(
            {"ck": r[head] // chunk - 1, "r": r[head],
             "doc_id": df["doc_id"].to_numpy()[head], "h": df["h"].to_numpy()[head],
             "pri": np.zeros(int(head.sum()), dtype=np.int64)}
        )
        return pd.concat([primary, rep[rep["ck"] >= 0]], ignore_index=True)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("r")
        r = df["r"].to_numpy(dtype=np.int64)
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        hs = df["h"].to_numpy()
        pri = df["pri"].to_numpy(dtype=np.int64)
        out = {"doc_a": [], "doc_b": [], "gap": [], "is_dup": []}
        pos = {int(x): i for i, x in enumerate(r)}
        for i, x in enumerate(r):
            if not pri[i]:
                continue
            for d in range(1, w):
                j = pos.get(int(x) + d)
                if j is not None:
                    out["doc_a"].append(ids[i])
                    out["doc_b"].append(ids[j])
                    out["gap"].append(d)
                    out["is_dup"].append(hs[i] == hs[j])
        res = pd.DataFrame(out)
        return res.astype(
            {"doc_a": "int64", "doc_b": "int64", "gap": "int64", "is_dup": "bool"}
        )

    from ..stages.shuffle import typed_result

    return typed_result(ranked.map_batches(to_chunks, batch_format="pandas")
                        .groupby("ck")
                        .map_groups(pairs, batch_format="pandas"),
                        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                                   ("gap", pa.int64()), ("is_dup", pa.bool_())]))


def _snm_sql(w: int = SNM_W, key_len: int = SNM_KEY_LEN) -> str:
    return f"""
    WITH ranked AS (
      SELECT doc_id, md5(text) AS h,
             row_number() OVER (ORDER BY substr(text, 1, {key_len}), doc_id)
               AS r
      FROM documents
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(b.r - a.r AS BIGINT) AS gap, a.h = b.h AS is_dup
    FROM ranked a JOIN ranked b
      ON b.r > a.r AND b.r <= a.r + {w - 1}
    """


# ---------------------------------------------------------------------------
# Bloom-filter incremental dedup

BLOOM_M = 16384  # bits
BLOOM_K = 4  # hash functions


def bloom_incremental_dedup(sf_dir: str, m: int = BLOOM_M, k: int = BLOOM_K):
    """(doc_id, n_hit, maybe_dup) — the INCREMENTAL dedup shape: screen a
    new batch of documents against a Bloom filter built over the existing
    corpus (here: even doc_ids = yesterday's corpus, odd = today's batch).
    ``maybe_dup`` has the Bloom guarantee — NO false negatives (every true
    duplicate is flagged), bounded false positives (~(1-e^{-kn/m})^k).

    Scale shape: the filter is the broadcast artifact — m bits (2 KiB
    here; a production filter for 10^10 docs at 1% FPR is ~12 GiB, sharded
    by hash prefix but still O(filter), never O(corpus)).  Build = one
    distinct-positions exchange (per-block dedup first, then the bucketed
    merge; the driver collect is bounded by m, NOT by corpus size);
    screening = one streaming pass with a numpy bitset probe.  Hash
    positions are pure md5 functions of (hash-index, text), so the DuckDB
    oracle reproduces the filter bit-for-bit (same membership answers,
    including the false positives)."""
    from ..stages.shuffle import two_phase_groupby

    def base_positions(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["doc_id"] % 2 == 0]
        pos = {
            int(hashlib.md5(f"{j}|{t}".encode()).hexdigest()[:16], 16) % m
            for t in df["text"]
            for j in range(k)
        }
        return pd.DataFrame({"p": pd.Series(sorted(pos), dtype="int64")})

    merged = two_phase_groupby(
        _read_docs(sf_dir).map_batches(base_positions, batch_format="pandas"),
        keys=["p"],
        aggs={"n": (None, "size", "sum")},
    ).to_pandas()  # ≤ m rows — the filter itself, never the corpus
    bits = np.zeros(m, dtype=bool)
    if "p" in merged.columns:  # empty base corpus drops the schema
        bits[merged["p"].to_numpy(dtype=np.int64)] = True
    ref = ray.put(bits)

    def screen(df: pd.DataFrame) -> pd.DataFrame:
        bits_ = ray.get(ref)
        df = df[df["doc_id"] % 2 == 1]
        if df.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_hit": pd.Series([], dtype="int64"),
                    "maybe_dup": pd.Series([], dtype="bool"),
                }
            )
        pos = np.array(
            [
                [
                    int(hashlib.md5(f"{j}|{t}".encode()).hexdigest()[:16], 16) % m
                    for j in range(k)
                ]
                for t in df["text"]
            ],
            dtype=np.int64,
        )
        n_hit = bits_[pos].sum(axis=1).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_hit": n_hit,
                "maybe_dup": n_hit == k,
            }
        )

    return _read_docs(sf_dir).map_batches(screen, batch_format="pandas")


def _bloom_sql(m: int = BLOOM_M, k: int = BLOOM_K) -> str:
    pos = (
        f"CAST(('0x' || substr(md5(CAST(j AS VARCHAR) || '|' || text), 1, 16)) "
        f"AS UBIGINT) % {m}"
    )
    return f"""
    WITH base_pos AS (
      SELECT DISTINCT CAST({pos} AS BIGINT) AS p
      FROM documents, (SELECT unnest(range({k})) AS j)
      WHERE doc_id % 2 = 0
    ),
    inc AS (
      SELECT doc_id, CAST({pos} AS BIGINT) AS p
      FROM documents, (SELECT unnest(range({k})) AS j)
      WHERE doc_id % 2 = 1
    )
    SELECT doc_id,
           CAST(sum(CASE WHEN p IN (SELECT p FROM base_pos)
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_hit,
           CAST(sum(CASE WHEN p IN (SELECT p FROM base_pos)
                         THEN 1 ELSE 0 END) AS BIGINT) = {k} AS maybe_dup
    FROM inc GROUP BY doc_id
    """


# ---------------------------------------------------------------------------


def queries():
    return {
        "exact_dedup": exact_dedup,
        "minhash_lsh_pairs": minhash_lsh_pairs,
        "simhash_dup_pairs": simhash_dup_pairs,
        "ngram_jaccard_pairs": ngram_jaccard_pairs,
        "documents_deduped": documents_deduped,
        "ngram_dup_clusters": ngram_dup_clusters,
        "simhash_dup_clusters": simhash_dup_clusters,
        "embedding_dup_pairs": embedding_dup_pairs,
        "embedding_dup_clusters": embedding_dup_clusters,
        "duplicate_spans": duplicate_spans,
        "strip_duplicate_spans": strip_duplicate_spans,
        "bag_dedup": bag_dedup,
        "semdedup": semdedup,
        "dedup_keep_best": dedup_keep_best,
        "minhash_dup_clusters": minhash_dup_clusters,
        "leakage_safe_split": leakage_safe_split,
        "contrastive_pairs": contrastive_pairs,
        "bloom_incremental_dedup": bloom_incremental_dedup,
        "snm_candidate_pairs": snm_candidate_pairs,
    }


def oracles():
    perm_values = ", ".join(
        f"({p}, CAST({int(c)} AS UBIGINT))" for p, c in enumerate(_XOR_C)
    )
    L = DUP_SPAN_L
    return {
        # the filter is a pure md5 function of the base texts, so the oracle
        # rebuilds it bit-for-bit — including the false positives
        "bloom_incremental_dedup": _bloom_sql(),
        # code-point key order matches DuckDB's binary (UTF-8 byte) collation
        "snm_candidate_pairs": _snm_sql(),
        # the duplicate_spans island chain + token-level reconstruction:
        # kept positions re-joined in order, removed counted per doc
        "strip_duplicate_spans": f"""
        WITH toks AS (
          SELECT doc_id, string_split(text, ' ') AS ts FROM documents
        ),
        idx AS (
          SELECT doc_id, ts,
                 unnest(range(1, greatest(len(ts) - {DUP_SPAN_L - 1}, 0) + 1)) AS i
          FROM toks
        ),
        g AS (
          SELECT doc_id, i, array_to_string(ts[i:i+{DUP_SPAN_L - 1}], ' ') AS g
          FROM idx
        ),
        dupg AS (
          SELECT g FROM g GROUP BY g HAVING count(DISTINCT doc_id) >= 2
        ),
        marks AS (SELECT doc_id, i FROM g WHERE g IN (SELECT g FROM dupg)),
        brks AS (
          SELECT doc_id, i,
                 CASE WHEN i - lag(i) OVER (PARTITION BY doc_id ORDER BY i)
                        <= {DUP_SPAN_L} THEN 0 ELSE 1 END AS brk
          FROM marks
        ),
        isl AS (
          SELECT doc_id, i,
                 SUM(brk) OVER (PARTITION BY doc_id ORDER BY i) AS isl_id
          FROM brks
        ),
        spans AS (
          SELECT doc_id, min(i) - 1 AS s,
                 max(i) - 1 + {DUP_SPAN_L - 1} AS e
          FROM isl GROUP BY doc_id, isl_id
        ),
        pos AS (
          SELECT doc_id, ts, unnest(range(1, len(ts) + 1)) AS i FROM toks
          WHERE doc_id IN (SELECT DISTINCT doc_id FROM spans)
        ),
        rem AS (
          SELECT DISTINCT p.doc_id, p.i
          FROM pos p JOIN spans sp
            ON sp.doc_id = p.doc_id AND p.i - 1 BETWEEN sp.s AND sp.e
        ),
        kept AS (
          SELECT p.doc_id, p.i, p.ts[p.i] AS tok
          FROM pos p LEFT JOIN rem r ON r.doc_id = p.doc_id AND r.i = p.i
          WHERE r.i IS NULL
        ),
        nrem AS (SELECT doc_id, count(*) AS n FROM rem GROUP BY doc_id)
        SELECT d.doc_id,
               CAST(nrem.n AS BIGINT) AS n_removed_tokens,
               COALESCE(k.clean, '') AS clean_text
        FROM (SELECT DISTINCT doc_id FROM spans) d
        JOIN nrem USING (doc_id)
        LEFT JOIN (
          SELECT doc_id, string_agg(tok, ' ' ORDER BY i) AS clean
          FROM kept GROUP BY doc_id
        ) k USING (doc_id)
        """,
        # gram strings grouped directly (engine groups md5-64 of the gram —
        # same relation modulo 2⁻⁶⁴ collisions); islands merge marked starts
        # ≤ L apart; SQL list positions are 1-based, output is 0-based.
        "duplicate_spans": f"""
        WITH toks AS (
          SELECT doc_id, string_split(text, ' ') AS ts FROM documents
        ),
        idx AS (
          SELECT doc_id, ts,
                 unnest(range(1, greatest(len(ts) - {L - 1}, 0) + 1)) AS i
          FROM toks
        ),
        g AS (
          SELECT doc_id, i, array_to_string(ts[i:i+{L - 1}], ' ') AS g
          FROM idx
        ),
        dupg AS (
          SELECT g FROM g GROUP BY g HAVING count(DISTINCT doc_id) >= 2
        ),
        marks AS (SELECT doc_id, i FROM g WHERE g IN (SELECT g FROM dupg)),
        brks AS (
          SELECT doc_id, i,
                 CASE WHEN i - lag(i) OVER (PARTITION BY doc_id ORDER BY i)
                        <= {L} THEN 0 ELSE 1 END AS brk
          FROM marks
        ),
        isl AS (
          SELECT doc_id, i,
                 SUM(brk) OVER (PARTITION BY doc_id ORDER BY i) AS isl_id
          FROM brks
        )
        SELECT doc_id,
               CAST(min(i) - 1 AS BIGINT) AS span_start,
               CAST(max(i) - 1 + {L - 1} AS BIGINT) AS span_end,
               CAST(max(i) - min(i) + {L} AS BIGINT) AS n_tokens
        FROM isl GROUP BY doc_id, isl_id
        """,
        # recomputes the EXACT engine signatures: md5-prefix-64 per distinct
        # shingle, min(xor(h, c_p)) per perm, band = 4 consecutive perms;
        # candidate pairs share a full band vector, then exact-Jaccard ≥ 0.5.
        # (Engine-side band keys are FNV-folded for the exchange — equality
        # is the same relation modulo 64-bit fold collisions.)
        # the pair CTE chain verbatim + the same recursive min-label walk
        # as the other two *_clusters oracles
        "minhash_dup_clusters": f"""
        WITH RECURSIVE perms(p, c) AS (VALUES {perm_values}),
        toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
        idx AS (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i FROM toks),
        sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s FROM idx),
        hh AS (SELECT doc_id, CAST(('0x' || substr(md5(s), 1, 16)) AS UBIGINT) AS h FROM sh),
        mins AS (SELECT doc_id, p, min(xor(h, c)) AS m FROM hh, perms GROUP BY doc_id, p),
        bands AS (SELECT doc_id, p // 4 AS band,
                         string_agg(CAST(m AS VARCHAR), ',' ORDER BY p) AS bkey
                  FROM mins GROUP BY doc_id, p // 4),
        cand AS (SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
                 FROM bands a JOIN bands b
                   ON a.band = b.band AND a.bkey = b.bkey AND a.doc_id < b.doc_id),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (SELECT c.da, c.db, count(*) AS cnt
                  FROM cand c JOIN sh a ON a.doc_id = c.da
                              JOIN sh b ON b.doc_id = c.db AND b.s = a.s
                  GROUP BY 1, 2),
        pairs AS (
          SELECT da AS doc_a, db AS doc_b
          FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
          WHERE round(cnt / CAST(sa.n + sb.n - cnt AS DOUBLE), 6) >= 0.5
        ),
        edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
                  UNION ALL SELECT doc_b, doc_a FROM pairs),
        nodes AS (SELECT DISTINCT a AS n FROM edges),
        walk(n, lab) AS (
          SELECT n, n FROM nodes
          UNION
          SELECT e.a, w.lab FROM edges e JOIN walk w ON w.n = e.b
        )
        SELECT n AS doc_id, CAST(min(lab) AS BIGINT) AS cluster_id
        FROM walk GROUP BY n
        """,
        "minhash_lsh_pairs": f"""
        WITH perms(p, c) AS (VALUES {perm_values}),
        toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
        idx AS (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i FROM toks),
        sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s FROM idx),
        hh AS (SELECT doc_id, CAST(('0x' || substr(md5(s), 1, 16)) AS UBIGINT) AS h FROM sh),
        mins AS (SELECT doc_id, p, min(xor(h, c)) AS m FROM hh, perms GROUP BY doc_id, p),
        bands AS (SELECT doc_id, p // 4 AS band,
                         string_agg(CAST(m AS VARCHAR), ',' ORDER BY p) AS bkey
                  FROM mins GROUP BY doc_id, p // 4),
        cand AS (SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
                 FROM bands a JOIN bands b
                   ON a.band = b.band AND a.bkey = b.bkey AND a.doc_id < b.doc_id),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (SELECT c.da, c.db, count(*) AS cnt
                  FROM cand c JOIN sh a ON a.doc_id = c.da
                              JOIN sh b ON b.doc_id = c.db AND b.s = a.s
                  GROUP BY 1, 2)
        SELECT da AS doc_a, db AS doc_b,
               round(cnt / CAST(sa.n + sb.n - cnt AS DOUBLE), 6) AS jac
        FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
        WHERE round(cnt / CAST(sa.n + sb.n - cnt AS DOUBLE), 6) >= 0.5
        """,
        "simhash_dup_clusters": """
        WITH RECURSIVE toks AS (
          SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
        ),
        th AS (
          SELECT doc_id, CAST(('0x' || substr(md5(tok), 1, 16)) AS UBIGINT) AS h
          FROM toks
        ),
        votes AS (
          SELECT doc_id, b,
                 SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS vote
          FROM th, (SELECT unnest(range(64)) AS b) bs
          GROUP BY doc_id, b
        ),
        sigs AS (
          SELECT doc_id,
                 CAST(SUM(CASE WHEN vote > 0 THEN (1::HUGEINT << b) ELSE 0 END)
                      AS UBIGINT) AS sig
          FROM votes GROUP BY doc_id
        ),
        pairs AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
          FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
          WHERE bit_count(xor(a.sig, b.sig)) <= 3
        ),
        edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
                  UNION ALL SELECT doc_b, doc_a FROM pairs),
        nodes AS (SELECT DISTINCT a AS n FROM edges),
        walk(n, lab) AS (
          SELECT n, n FROM nodes
          UNION
          SELECT e.a, w.lab FROM edges e JOIN walk w ON w.n = e.b
        )
        SELECT n AS doc_id, CAST(min(lab) AS BIGINT) AS cluster_id
        FROM walk GROUP BY n
        """,
        "simhash_dup_pairs": """
        WITH toks AS (
          SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
        ),
        th AS (
          SELECT doc_id, CAST(('0x' || substr(md5(tok), 1, 16)) AS UBIGINT) AS h
          FROM toks
        ),
        votes AS (
          SELECT doc_id, b,
                 SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS vote
          FROM th, (SELECT unnest(range(64)) AS b) bs
          GROUP BY doc_id, b
        ),
        sigs AS (
          SELECT doc_id,
                 CAST(SUM(CASE WHEN vote > 0 THEN (1::HUGEINT << b) ELSE 0 END)
                      AS UBIGINT) AS sig
          FROM votes GROUP BY doc_id
        )
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
        FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.sig, b.sig)) <= 3
        """,
        "ngram_jaccard_pairs": """
        WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
        idx AS (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i FROM toks),
        sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s FROM idx),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS c
                  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2)
        SELECT da AS doc_a, db AS doc_b,
               round(c / CAST(sa.n + sb.n - c AS DOUBLE), 6) AS jac
        FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
        WHERE round(c / CAST(sa.n + sb.n - c AS DOUBLE), 6) >= 0.5
        """,
        "ngram_dup_clusters": """
        WITH RECURSIVE toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
        idx AS (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i FROM toks),
        sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s FROM idx),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS c
                  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2),
        pairs AS (
          SELECT da AS doc_a, db AS doc_b
          FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
          WHERE round(c / CAST(sa.n + sb.n - c AS DOUBLE), 6) >= 0.5
        ),
        edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
                  UNION ALL SELECT doc_b, doc_a FROM pairs),
        nodes AS (SELECT DISTINCT a AS n FROM edges),
        walk(n, lab) AS (
          SELECT n, n FROM nodes
          UNION
          SELECT e.a, w.lab FROM edges e JOIN walk w ON w.n = e.b
        )
        SELECT n AS doc_id, CAST(min(lab) AS BIGINT) AS cluster_id
        FROM walk GROUP BY n
        """,
        # packed argmax mirrored exactly: max(n_chars·2⁴¹ − doc_id) per
        # cluster, then the same ceil-div unpack as the engine
        "dedup_keep_best": f"""
        WITH RECURSIVE toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
        idx AS (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i FROM toks),
        sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s FROM idx),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS c
                  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2),
        pairs AS (
          SELECT da AS doc_a, db AS doc_b
          FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
          WHERE round(c / CAST(sa.n + sb.n - c AS DOUBLE), 6) >= 0.5
        ),
        edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
                  UNION ALL SELECT doc_b, doc_a FROM pairs),
        nodes AS (SELECT DISTINCT a AS n FROM edges),
        walk(n, lab) AS (
          SELECT n, n FROM nodes
          UNION
          SELECT e.a, w.lab FROM edges e JOIN walk w ON w.n = e.b
        ),
        cl AS (SELECT n AS doc_id, CAST(min(lab) AS BIGINT) AS cluster_id
               FROM walk GROUP BY n),
        agg AS (
          SELECT cluster_id,
                 max(d.n_chars * {_PACK} - d.doc_id) AS packed,
                 count(*) AS n_members
          FROM cl JOIN documents d USING (doc_id) GROUP BY 1
        )
        SELECT cluster_id,
               ((packed + {_PACK - 1}) // {_PACK}) * {_PACK} - packed
                 AS keep_doc_id,
               (packed + {_PACK - 1}) // {_PACK} AS best_n_chars,
               n_members
        FROM agg
        """,
        "contrastive_pairs": """
        WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
        idx AS (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i FROM toks),
        sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s FROM idx),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS c
                  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2),
        pairs AS (
          SELECT da AS a, db AS b
          FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
          WHERE round(c / CAST(sa.n + sb.n - c AS DOUBLE), 6) >= 0.5
        ),
        -- n >= 3: with only the pair members no valid negative exists
        -- (mirrors the engine's n_docs < 3 empty result)
        nn AS (SELECT count(*) AS n FROM documents HAVING count(*) >= 3),
        n0 AS (
          SELECT a, b,
                 CAST(CAST(('0x' || substr(md5(CAST(a AS VARCHAR) || ':' ||
                          CAST(b AS VARCHAR)), 1, 16)) AS UBIGINT)
                      % nn.n AS BIGINT) AS neg, nn.n AS n
          FROM pairs CROSS JOIN nn
        ),
        n1 AS (SELECT a, b, n,
                      CASE WHEN neg = a OR neg = b
                           THEN (neg + 1) % n ELSE neg END AS neg FROM n0),
        n2 AS (SELECT a, b,
                      CASE WHEN neg = a OR neg = b
                           THEN (neg + 1) % n ELSE neg END AS neg FROM n1)
        SELECT a AS anchor_id, b AS positive_id, neg AS negative_id FROM n2
        """,
        "leakage_safe_split": f"""
        WITH RECURSIVE toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
        idx AS (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i FROM toks),
        sh AS (SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS s FROM idx),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS c
                  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2),
        pairs AS (
          SELECT da AS doc_a, db AS doc_b
          FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
          WHERE round(c / CAST(sa.n + sb.n - c AS DOUBLE), 6) >= 0.5
        ),
        edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
                  UNION ALL SELECT doc_b, doc_a FROM pairs),
        nodes AS (SELECT DISTINCT a AS n FROM edges),
        walk(n, lab) AS (
          SELECT n, n FROM nodes
          UNION
          SELECT e.a, w.lab FROM edges e JOIN walk w ON w.n = e.b
        ),
        cl AS (SELECT n AS doc_id, CAST(min(lab) AS BIGINT) AS cluster_id
               FROM walk GROUP BY n)
        SELECT d.doc_id,
               COALESCE(cl.cluster_id, d.doc_id) AS group_key,
               CASE WHEN CAST(('0x' || substr(md5(CAST(
                        COALESCE(cl.cluster_id, d.doc_id) AS VARCHAR)), 32, 1))
                        AS INT) % {VAL_MOD} = 0
                    THEN 'val' ELSE 'train' END AS split
        FROM documents d LEFT JOIN cl USING (doc_id)
        """,
        "documents_deduped": """
        WITH w AS (SELECT md5(text) AS h, min(doc_id) AS keep FROM documents GROUP BY 1)
        SELECT d.doc_id, md5(d.text) AS text_md5
        FROM documents d JOIN w ON w.keep = d.doc_id
        """,
        "exact_dedup": """
        SELECT md5(text) AS text_md5, min(doc_id) AS keep_doc_id,
               count(*) AS n_dups
        FROM documents GROUP BY md5(text)
        """,
        "bag_dedup": """
        SELECT md5(array_to_string(list_sort(string_split(text, ' ')), ' '))
                 AS bag_md5,
               min(doc_id) AS keep_doc_id, count(*) AS n_dups
        FROM documents GROUP BY 1
        """,
        "embedding_dup_pairs": f"""
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])), 6) AS cos
        FROM embeddings a JOIN embeddings b
          ON a.label = b.label AND a.vec_id < b.vec_id
        WHERE round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])), 6) >= {COSINE_THRESHOLD}
        """,
        # the pair relation above + the same recursive min-label walk as
        # the other three *_clusters oracles
        "embedding_dup_clusters": f"""
        WITH RECURSIVE pairs AS (
          SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
          FROM embeddings a JOIN embeddings b
            ON a.label = b.label AND a.vec_id < b.vec_id
          WHERE round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                             CAST(b.embedding AS DOUBLE[])),
                      6) >= {COSINE_THRESHOLD}
        ),
        edges AS (SELECT vec_a AS a, vec_b AS b FROM pairs
                  UNION ALL SELECT vec_b, vec_a FROM pairs),
        nodes AS (SELECT DISTINCT a AS n FROM edges),
        walk(n, lab) AS (
          SELECT n, n FROM nodes
          UNION
          SELECT e.a, w.lab FROM edges e JOIN walk w ON w.n = e.b
        )
        SELECT n AS vec_id, CAST(min(lab) AS BIGINT) AS cluster_id
        FROM walk GROUP BY n
        """,
        "semdedup": _semdedup_sql(),
    }


def _semdedup_sql(threshold: float = COSINE_THRESHOLD) -> str:
    """DuckDB oracle for semdedup (r5): the sampled integer-exact Lloyd
    fit + assignment CTEs come from ann._sampled_lloyd_cte (the same
    chain ann_kmeans_topk's oracle uses); the per-cell min-label closure
    is a recursive CTE over the cosine-threshold edges (self-loops added
    explicitly — the engine forces the adjacency diagonal True, which
    also covers zero vectors whose self-cosine is NULL in SQL)."""
    from .ann import KMEANS_ITERS, R, _sampled_lloyd_cte

    iters = KMEANS_ITERS
    return f"""
    WITH RECURSIVE {_sampled_lloyd_cte(iters=iters)},
    cells AS (
      SELECT vec_id, cluster FROM (
        SELECT d.vec_id, d.cluster,
               row_number() OVER (PARTITION BY d.vec_id
                                  ORDER BY d.cost, d.cluster) AS rn
        FROM (
          SELECT q.vec_id, c.cluster,
                 sum(({R} * q.qv - c.m) * ({R} * q.qv - c.m)) AS cost
          FROM q JOIN c{iters} c USING (dim)
          GROUP BY q.vec_id, c.cluster
        ) d
      ) WHERE rn = 1
    ),
    edges AS (
      SELECT a.vec_id AS u, b.vec_id AS v
      FROM cells a JOIN cells b
        ON a.cluster = b.cluster AND a.vec_id <> b.vec_id
      JOIN embeddings ea ON ea.vec_id = a.vec_id
      JOIN embeddings eb ON eb.vec_id = b.vec_id
      WHERE round(list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]),
                                         CAST(eb.embedding AS DOUBLE[])), 6)
            >= {threshold}
      UNION ALL
      SELECT vec_id, vec_id FROM cells
    ),
    reach(u, v) AS (
      SELECT u, v FROM edges
      UNION
      SELECT r.u, e.v FROM reach r JOIN edges e ON e.u = r.v
    ),
    grp AS (SELECT u AS vec_id, min(v) AS group_id FROM reach GROUP BY u)
    SELECT c.vec_id, CAST(c.cluster AS BIGINT) AS cell, g.group_id,
           (g.group_id = c.vec_id) AS keep
    FROM cells c JOIN grp g USING (vec_id)
    """


# ---------------------------------------------------------------------------
# exact n-gram Jaccard via shingle posting lists (no LSH approximation)


def ngram_jaccard_pairs(sf_dir: str, k: int = 3, threshold: float = 0.5,
                        num_buckets: int | None = None,
                        max_shingle_df: int = 10_000):
    """(doc_a, doc_b, jac) — EXACT Jaccard ≥ threshold over k-gram shingle
    sets via a posting-list exchange: every posting row carries its doc's
    shingle-set SIZE (8 B — computed in the same pass that shingles), so
    the union size |A|+|B|-c is available right at the pair merge with NO
    size join and NO driver-side state.  Cost is Σ_shingle C(df, 2),
    quadratic in document frequency — so STOP-SHINGLES (df >
    ``max_shingle_df``) are dropped before pair generation, with a logged
    count, never silently.  A posting list lives entirely in its bucket
    segment, so df is just the segment length — the cap costs nothing.
    With the cap hit, jac becomes a lower bound for pairs sharing only
    stop-shingles (the standard near-dup trade-off); the default cap is
    far above any df in the test corpora, keeping the oracle exact."""
    from ..stages.shuffle import default_num_buckets, two_phase_groupby

    P = num_buckets or default_num_buckets()

    def to_shingles(df: pd.DataFrame) -> pa.Table:
        doc_ids, shs, sizes = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            sh = shingles(text, k)
            for s in sh:
                doc_ids.append(doc_id)
                shs.append(s)
                sizes.append(len(sh))
        sh_arr = pd.Series(shs)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "s": pa.array(shs, pa.string()),
                "n": pa.array(sizes, pa.int64()),
                "bucket": pa.array(
                    (pd.util.hash_pandas_object(sh_arr, index=False).to_numpy() % P)
                    .astype("int64")
                ),
            }
        )

    posted = _read_docs(sf_dir).map_batches(to_shingles, batch_format="pandas")
    # coalesce the posting rows before the bucket exchange (no-op at
    # scale).  Row estimate: shingle count ≈ token count ≤ chars/2; 256
    # per doc generously covers the synthetic corpora's ~150-token docs,
    # and an underestimate only costs marginally bigger blocks, never
    # correctness
    from ..stages.shuffle import coalesce_for_exchange, table_rows

    posted = coalesce_for_exchange(
        posted, 256 * table_rows(sf_dir, "documents"))

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_na, out_nb = [], [], [], []
        dropped = 0
        df = df.sort_values(["s", "doc_id"])
        svals = df["s"].to_numpy()
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        ns = df["n"].to_numpy(dtype=np.int64)
        bounds = np.flatnonzero(svals[1:] != svals[:-1]) + 1
        for a, b in zip(np.r_[0, bounds], np.r_[bounds, len(ids)]):
            n = b - a
            if n > max_shingle_df:
                dropped += 1
                continue
            if n >= 2:
                ii, jj = np.triu_indices(n, 1)
                out_a.append(ids[a:b][ii])
                out_b.append(ids[a:b][jj])
                out_na.append(ns[a:b][ii])
                out_nb.append(ns[a:b][jj])
        if dropped:
            import logging

            logging.getLogger(__name__).warning(
                "ngram_jaccard_pairs: dropped %d stop-shingles with df > %d "
                "(posting-list cap; pair Jaccard may be underestimated for "
                "pairs sharing only those shingles)", dropped, max_shingle_df
            )
        if not out_a:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype="int64"),
                    "doc_b": pd.Series([], dtype="int64"),
                    "na": pd.Series([], dtype="int64"),
                    "nb": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(out_a),
                "doc_b": np.concatenate(out_b),
                "na": np.concatenate(out_na),
                "nb": np.concatenate(out_nb),
            }
        )

    partial_pairs = posted.groupby("bucket").map_groups(
        pairs_in_bucket, batch_format="pandas"
    )
    inter = two_phase_groupby(
        partial_pairs,
        keys=["doc_a", "doc_b"],
        aggs={
            "c": (None, "size", "sum"),
            "na": ("na", "max", "max"),
            "nb": ("nb", "max", "max"),
        },
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        na = df["na"].to_numpy(dtype=np.float64)
        nb = df["nb"].to_numpy(dtype=np.float64)
        c = df["c"].to_numpy(dtype=np.float64)
        jac = round6_away(c / (na + nb - c))
        keep = jac >= threshold
        return pd.DataFrame(
            {
                "doc_a": df["doc_a"].to_numpy(dtype=np.int64)[keep],
                "doc_b": df["doc_b"].to_numpy(dtype=np.int64)[keep],
                "jac": jac[keep],
            }
        )

    from ..stages.shuffle import typed_result

    return typed_result(inter.map_batches(finish, batch_format="pandas"),
                        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                                   ("jac", pa.float64())]))


def documents_deduped(sf_dir: str):
    """(doc_id, text_md5) — the kept representative rows after exact dedup.

    Distributed SEMI-JOIN of documents against the per-hash winner set: the
    winner set is ~as large as the distinct-document count, so it is never
    collected driver-side — both sides hash-partition on doc_id and the
    probe happens inside the join workers."""
    import pyarrow.dataset as pads

    from ..stages.shuffle import (from_pandas_clean, join_num_partitions,
                                  normalize_empty_blocks)

    if pads.dataset(f"{sf_dir}/documents.parquet").count_rows() == 0:
        # a zero-row join side ships schema-less partitions the hash
        # aggregator cannot finalize (reproduced); footer-only probe
        return ray.data.from_arrow(pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "text_md5": pa.array([], pa.string())}))

    winners = (
        normalize_empty_blocks(
            exact_dedup(sf_dir),
            pa.schema([("text_md5", pa.string()), ("keep_doc_id", pa.int64()),
                       ("n_dups", pa.int64())]),
        )
        .select_columns(["keep_doc_id"])
        .rename_columns({"keep_doc_id": "doc_id"})
    )

    # metadata-free Arrow out: a pandas block carries the b'pandas' schema
    # blob into the semi-join's aggregator, which then fails to hash the
    # block schemas
    def f(df: pd.DataFrame) -> pa.Table:
        return from_pandas_clean(pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "text_md5": df["text"].map(lambda t: hashlib.md5(t.encode()).hexdigest()),
            }
        ))

    hashed = _read_docs(sf_dir).map_batches(f, batch_format="pandas")
    return hashed.join(winners, "left_semi", join_num_partitions(), on=("doc_id",))


_PACK = 1 << 41  # packed argmax radix: n_chars · 2⁴¹ − doc_id


def dedup_keep_best(sf_dir: str, k: int = 3, threshold: float = 0.5):
    """(cluster_id, keep_doc_id, best_n_chars, n_members) — quality-aware
    near-dup collapse: per ngram-Jaccard cluster keep the member with the
    LONGEST raw text (max n_chars, ties → min doc_id).  The "keep best,
    not first" curation rule (RefinedWeb/FineWeb keep the longest variant
    of a near-dup family rather than an arbitrary representative).

    Scale shape: cluster ids come from the distributed CC pass; n_chars
    joins in via the native hash join (both sides partition on doc_id —
    the cluster side is only the clustered docs, never the corpus), and
    the per-cluster argmax rides the bucketed exchange as ONE packed int64
    per row: packed = n_chars·2⁴¹ − doc_id, so max(packed) IS argmax by
    (n_chars desc, doc_id asc) and the group never materializes.
    Overflow contract (guarded loudly): doc_id < 2⁴¹, n_chars < 2²²
    (≈ 4 MB of text per doc)."""
    from ..stages.shuffle import (
        join_num_partitions,
        normalize_empty_blocks,
        two_phase_groupby,
    )
    from .graph import connected_components

    out_schema = pa.schema([
        ("cluster_id", pa.int64()), ("keep_doc_id", pa.int64()),
        ("best_n_chars", pa.int64()), ("n_members", pa.int64()),
    ])

    clusters = normalize_empty_blocks(
        connected_components(ngram_jaccard_pairs(sf_dir, k, threshold)),
        pa.schema([("doc_id", pa.int64()), ("cluster_id", pa.int64())]),
    ).materialize()
    if clusters.count() == 0:
        # a zero-row join side ships schema-less partitions the hash
        # aggregator cannot finalize (documents_deduped's documented
        # guard); the clustered-doc count is already in hand post-CC
        return ray.data.from_arrow(out_schema.empty_table())

    chars = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ))
    joined = clusters.join(chars, "inner", join_num_partitions(),
                           on=("doc_id",))

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        doc = df["doc_id"].to_numpy(dtype=np.int64)
        nc = df["n_chars"].to_numpy(dtype=np.int64)
        if len(doc) and (doc.max() >= _PACK or nc.max() >= (1 << 22)
                         or doc.min() < 0 or nc.min() < 0):
            raise OverflowError(
                "dedup_keep_best: doc_id/n_chars outside the packed-argmax "
                "contract (doc_id < 2^41, 0 <= n_chars < 2^22)")
        return pd.DataFrame({
            "cluster_id": df["cluster_id"].astype("int64"),
            "packed": nc * _PACK - doc,
        })

    agg = two_phase_groupby(
        joined.map_batches(pack, batch_format="pandas"),
        keys=["cluster_id"],
        aggs={"packed": ("packed", "max", "max"),
              "n_members": (None, "size", "sum")},
    )

    def unpack(df: pd.DataFrame) -> pd.DataFrame:
        packed = df["packed"].to_numpy(dtype=np.int64)
        best = (packed + _PACK - 1) // _PACK
        return pd.DataFrame({
            "cluster_id": df["cluster_id"].astype("int64"),
            "keep_doc_id": best * _PACK - packed,
            "best_n_chars": best,
            "n_members": df["n_members"].astype("int64"),
        })

    return agg.map_batches(unpack, batch_format="pandas")


def minhash_dup_clusters(sf_dir: str):
    """(doc_id, cluster_id) — MinHash-LSH near-duplicate CLUSTERS,
    completing the clusters trio (ngram/simhash variants below): the
    banded-LSH verified pair stream (exact-Jaccard ≥ threshold) feeds the
    log-round connected-components pass directly.  Recall is the banding
    family's (a ≥-threshold pair whose every band differs is missed —
    published trade); precision is exact via the verification."""
    from .graph import connected_components

    return connected_components(
        minhash_lsh_pairs(sf_dir).select_columns(["doc_a", "doc_b"])
    )


def simhash_dup_clusters(sf_dir: str, max_hamming: int = 3):
    """(doc_id, cluster_id) — SimHash near-duplicate CLUSTERS.  On
    template-heavy corpora the pairwise output is quadratic in family size
    (measured 19M pairs from 100k docs, BASELINE.md); the cluster ids are
    the scalable product — pairs stream straight into the log-round
    connected-components pass."""
    from .graph import connected_components

    return connected_components(simhash_dup_pairs(sf_dir, max_hamming))


def ngram_dup_clusters(sf_dir: str, k: int = 3, threshold: float = 0.5):
    """(doc_id, cluster_id) — near-duplicate CLUSTERS: exact n-gram-Jaccard
    pairs → distributed connected components (min-label propagation,
    functions/graph.py).  cluster_id = min doc_id of the component; only
    docs that participate in ≥1 near-dup pair appear."""
    from .graph import connected_components

    return connected_components(ngram_jaccard_pairs(sf_dir, k, threshold))


# ---------------------------------------------------------------------------
# contrastive training triplets: (anchor, positive, negative) pairs mined
# from the near-dup graph — the standard way LLM-era pipelines bootstrap
# embedding-model training data from dedup byproducts (SimCSE-style
# positives from near-dups, random negatives).


def contrastive_pairs(sf_dir: str, k: int = 3, threshold: float = 0.5):
    """(anchor_id, positive_id, negative_id) — one training triplet per
    exact-Jaccard near-dup pair: anchor/positive are the pair, negative is
    a deterministic pseudo-random OTHER doc, negative_id =
    md5_64('a:b') % N bumped (twice max) past collisions with the pair.

    Scale: only the scalar N (doc count; ids assumed dense 0..N−1, true
    for this table and documented) leaves the cluster — no id-list
    broadcast; the triplet pass is a pure map over the pair stream.  A
    random negative can still be an unrelated near-dup of the anchor —
    the usual random-negative noise, accepted as published."""
    n_docs = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )).count()
    if n_docs < 3:
        # with only the pair members in the corpus no valid negative
        # exists — two bumps cannot clear 2 forbidden values mod 2
        # (review r4); mirrored by the oracle's HAVING n >= 3
        return ray.data.from_arrow(pa.schema(
            [("anchor_id", pa.int64()), ("positive_id", pa.int64()),
             ("negative_id", pa.int64())]).empty_table())

    def to_triplets(df: pd.DataFrame) -> pd.DataFrame:
        a = df["doc_a"].to_numpy(dtype=np.int64)
        b = df["doc_b"].to_numpy(dtype=np.int64)
        neg = np.fromiter(
            (_md5_64(f"{x}:{y}") % n_docs for x, y in zip(a, b)),
            dtype=np.int64, count=len(a),
        )
        # two deterministic bumps clear the ≤2 forbidden values (mirrored
        # exactly by the oracle's CASE chain — no while loop either side)
        for _ in range(2):
            neg = np.where((neg == a) | (neg == b), (neg + 1) % n_docs, neg)
        return pd.DataFrame({
            "anchor_id": a,
            "positive_id": b,
            "negative_id": neg,
        })

    from ..stages.shuffle import typed_result

    return typed_result(ngram_jaccard_pairs(sf_dir, k, threshold).map_batches(
        to_triplets, batch_format="pandas",
    ), pa.schema([("anchor_id", pa.int64()), ("positive_id", pa.int64()),
                  ("negative_id", pa.int64())]))


# ---------------------------------------------------------------------------
# leakage-safe train/val split: near-duplicate CLUSTERS are the split
# unit, so a val doc can never have a near-copy in train (the standard
# contamination-by-duplication mitigation, cf. Lee et al. 2022 §6).

VAL_MOD = 8  # 1/8 of group keys → val


def leakage_safe_split(sf_dir: str, k: int = 3, threshold: float = 0.5):
    """(doc_id, group_key, split) — deterministic train/val assignment at
    near-dup-CLUSTER granularity: clustered docs inherit their cluster id
    as group_key, singletons use their own doc_id; split = 'val' iff the
    last md5 nibble of str(group_key) ≡ 0 (mod 8).  All members of a
    cluster land on the same side BY CONSTRUCTION.

    Shape: the cluster pass is ngram_dup_clusters (posting exchange + CC);
    attaching cluster ids to the full doc list is one tagged-union int-row
    exchange on hash(doc_id) — no driver-side cluster table, no join
    actors."""
    from ..stages.shuffle import default_num_buckets, from_pandas_clean

    P = default_num_buckets()

    def doc_rows(df: pd.DataFrame) -> pa.Table:
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        return from_pandas_clean(pd.DataFrame({
            "doc_id": ids,
            "cid": np.full(len(ids), -1, dtype=np.int64),
            "bucket": (ids % P).astype(np.int64),
        }))

    def cluster_rows(df: pd.DataFrame) -> pa.Table:
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        return from_pandas_clean(pd.DataFrame({
            "doc_id": ids,
            "cid": df["cluster_id"].to_numpy(dtype=np.int64),
            "bucket": (ids % P).astype(np.int64),
        }))

    docs = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )).map_batches(doc_rows, batch_format="pandas")
    clus = ngram_dup_clusters(sf_dir, k, threshold).map_batches(
        cluster_rows, batch_format="pandas"
    )

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "group_key": pd.Series([], dtype="int64"),
                "split": pd.Series([], dtype=str),
            })
        g = df.groupby("doc_id", as_index=False)["cid"].max()
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        cid = g["cid"].to_numpy(dtype=np.int64)
        gk = np.where(cid >= 0, cid, ids)
        uniq, inv = np.unique(gk, return_inverse=True)
        is_val_u = np.fromiter(
            (int(hashlib.md5(str(int(u)).encode()).hexdigest()[-1], 16)
             % VAL_MOD == 0 for u in uniq),
            dtype=bool, count=len(uniq),
        )
        return pd.DataFrame({
            "doc_id": ids,
            "group_key": gk,
            "split": np.where(is_val_u[inv], "val", "train"),
        })

    return docs.union(clus).groupby("bucket").map_groups(
        assign, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# SemDeDup (Abbas et al. 2023): kmeans-cluster the embedding space, then
# near-dup within each cluster only — the published recipe for semantic
# dedup at web scale (their 38% LAION prune).


def semdedup(sf_dir: str, threshold: float = COSINE_THRESHOLD,
             n_cells: int = 8):
    """(vec_id, cell, group_id, keep) — semantic dedup: every vector is
    assigned to its nearest kmeans cell (integer-exact centroids fit ONCE
    on a bounded deterministic sample, broadcast via ray.put —
    `ann._fit_centroids`; cell labels are the seed vec_ids, as in
    ann_kmeans_topk); within each cell, cosine-≥-threshold pairs
    form groups (min-label closure) and only the min-vec_id member of
    each group is kept.

    Approximate BY DESIGN exactly as published: near-dups that straddle a
    cell boundary are missed (the paper accepts this; EXACT duplicates
    always share a nearest cell, pytest-gated).  The method's OWN output
    is DuckDB value-hash-oracled (r5): the sampled Lloyd fit and the
    assignment are SQL CTEs (ann._sampled_lloyd_cte) and the per-cell
    closure is a recursive CTE over the cosine-threshold edges.  Scale:
    the within-cell pass is quadratic in CELL size — n_cells must grow
    with the corpus (the paper uses 50k cells for LAION); one
    groupby(cell) exchange, vectors cross the wire once."""
    from .ann import (QUANT, _assign, _check_bounds, _emb_row_count,
                      _fit_centroids, _normalize, _read_emb)

    if _emb_row_count(sf_dir) == 0:  # empty table: no centroids to fit
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "cell": pa.array([], pa.int64()),
            "group_id": pa.array([], pa.int64()),
            "keep": pa.array([], pa.bool_()),
        }))
    C_ref = ray.put(_fit_centroids(sf_dir, n_cells=n_cells))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        M, seed_vids = ray.get(C_ref)
        raw = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        q = np.floor(raw * QUANT + 0.5).astype(np.int64)
        _check_bounds(q)
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].to_numpy(dtype=np.int64),
                "cell": seed_vids[_assign(q, M)].astype(np.int64),
                "embedding": list(df["embedding"]),
            }
        )

    assigned = _read_emb(sf_dir, columns=("vec_id", "embedding")).map_batches(
        assign, batch_format="pandas"
    )

    def dedup_cell(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "vec_id": pd.Series([], dtype="int64"),
                    "cell": pd.Series([], dtype="int64"),
                    "group_id": pd.Series([], dtype="int64"),
                    "keep": pd.Series([], dtype="bool"),
                }
            )
        df = df.sort_values("vec_id")
        ids = df["vec_id"].to_numpy(dtype=np.int64)
        X = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
        adj = np.round(X @ X.T, 6) >= threshold
        np.fill_diagonal(adj, True)
        # min-label closure over the boolean adjacency (≤ diameter rounds;
        # cells are small by construction — n_cells scales with the corpus)
        lab = np.arange(len(ids))
        while True:
            new = np.array([lab[row].min() for row in adj])
            if (new == lab).all():
                break
            lab = new
        return pd.DataFrame(
            {
                "vec_id": ids,
                "cell": df["cell"].to_numpy(dtype=np.int64),
                "group_id": ids[lab],
                "keep": lab == np.arange(len(ids)),
            }
        )

    return assigned.groupby("cell").map_groups(dedup_cell, batch_format="pandas")


_GRAM_H: dict[str, int] = {}  # gram-hash memo (per worker)


def _gram_md5_64(g: str) -> int:
    h = _GRAM_H.get(g)
    if h is None:
        h = int(hashlib.md5(g.encode()).hexdigest()[:16], 16)
        if len(_GRAM_H) < 500_000:
            _GRAM_H[g] = h
    return h


def doc_gram_hashes(text: str, n: int) -> np.ndarray:
    """md5-64 hashes of the word n-grams of ``text`` (positions, not
    distinct) — the compact wire/broadcast representation of a gram."""
    toks = text.split(" ")
    m = len(toks) - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.uint64)
    return np.fromiter(
        (_gram_md5_64(" ".join(toks[i : i + n])) for i in range(m)),
        dtype=np.uint64,
        count=m,
    )


# ---------------------------------------------------------------------------
# exact duplicated-substring spans (Lee et al. 2022, "Deduplicating Training
# Data Makes Language Models Better" — the ExactSubstr operator), k-gram-
# anchored instead of suffix-array: a token is "covered" iff some word
# L-gram through it also occurs in ANOTHER document; output = the maximal
# contiguous covered runs per doc.  Two linear exchanges, no pair product.

DUP_SPAN_L = 8  # span anchor width in word tokens (Lee et al. use 50 BPE)


def duplicate_spans(sf_dir: str, L: int = DUP_SPAN_L,
                    num_buckets: int | None = None):
    """(doc_id, span_start, span_end, n_tokens) — maximal token spans (≥ L
    tokens, 0-based inclusive indices) whose every L-token window also
    appears in at least one OTHER document.

    Scale shape (vs the paper's monolithic suffix array, which needs the
    whole corpus in one address space):
      1. one tokenize pass → (gram-hash, doc_id, start) int posting rows
         (md5-64 per gram via doc_gram_hashes — positions, not
         distinct; the gram TEXT never leaves its block);
      2. hash-exchange on gram → per-bucket vectorized mark: a gram group
         with ≥ 2 DISTINCT docs marks all its (doc_id, start) rows.  Mark
         emission is LINEAR in df (unlike pair generation's C(df,2)) so
         stop-gram caps aren't needed;
      3. (doc_id, start) int rows re-exchange on doc → per-bucket
         gaps-and-islands (sorted diff > L breaks a run), fully
         vectorized, no per-doc loop.
    Covered-run semantics: runs merge when the next marked start is ≤ L
    after the previous (overlapping OR token-adjacent windows), so a span
    may splice windows matched by DIFFERENT partner docs — the paper's
    ExactSubstr has the same property.  Grams are compared by md5-64; a
    collision could mark a non-duplicated window (P ≈ n²/2⁶⁴ — negligible,
    and the DuckDB oracle compares gram STRINGS, so the driver hash check
    would catch one)."""
    from ..stages.shuffle import default_num_buckets, from_pandas_clean

    P = num_buckets or default_num_buckets()

    def to_postings(df: pd.DataFrame) -> pd.DataFrame:
        hs, ids, starts = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            h = doc_gram_hashes(text, L)
            if len(h):
                hs.append(h)
                ids.append(np.full(len(h), doc_id, dtype=np.int64))
                starts.append(np.arange(len(h), dtype=np.int64))
        if not hs:
            return pd.DataFrame({
                "h": pd.Series([], dtype="int64"),
                "doc_id": pd.Series([], dtype="int64"),
                "start": pd.Series([], dtype="int64"),
                "bucket": pd.Series([], dtype="int64"),
            })
        h = np.concatenate(hs)
        return pd.DataFrame({
            "h": h.view(np.int64),
            "doc_id": np.concatenate(ids),
            "start": np.concatenate(starts),
            "bucket": (h % np.uint64(P)).astype(np.int64),
        })

    posted = _read_docs(sf_dir).map_batches(to_postings, batch_format="pandas")
    # token-gram postings ≈ tokens per doc (same 256/doc bound the shingle
    # path documents); coalesce ahead of the posting exchange, no-op at
    # scale.  marked (the cross-doc survivors) inherits the block count.
    from ..stages.shuffle import coalesce_for_exchange, table_rows

    posted = coalesce_for_exchange(
        posted, 256 * table_rows(sf_dir, "documents"))

    def mark_cross_doc(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "start": pd.Series([], dtype="int64"),
                "dbucket": pd.Series([], dtype="int64"),
            })
        hs = df["h"].to_numpy(dtype=np.int64)
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        starts = df["start"].to_numpy(dtype=np.int64)
        order = np.lexsort((ids, hs))
        hs, ids, starts = hs[order], ids[order], starts[order]
        new_grp = np.r_[True, hs[1:] != hs[:-1]]
        gid = np.cumsum(new_grp) - 1
        doc_edge = (ids[1:] != ids[:-1]) | new_grp[1:]
        ndocs = np.bincount(gid[np.r_[True, doc_edge]], minlength=gid[-1] + 1)
        keep = ndocs[gid] >= 2
        return pd.DataFrame({
            "doc_id": ids[keep],
            "start": starts[keep],
            "dbucket": (ids[keep] % P).astype(np.int64),
        })

    marked = posted.groupby("bucket").map_groups(
        mark_cross_doc, batch_format="pandas"
    )

    def islands(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "span_start": pd.Series([], dtype="int64"),
                "span_end": pd.Series([], dtype="int64"),
                "n_tokens": pd.Series([], dtype="int64"),
            })
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        starts = df["start"].to_numpy(dtype=np.int64)
        order = np.lexsort((starts, ids))
        ids, starts = ids[order], starts[order]
        brk = np.r_[True, (ids[1:] != ids[:-1]) | (starts[1:] - starts[:-1] > L)]
        isl = np.cumsum(brk) - 1
        first = np.flatnonzero(brk)
        last = np.r_[first[1:] - 1, len(starts) - 1]
        return pd.DataFrame({
            "doc_id": ids[first],
            "span_start": starts[first],
            "span_end": starts[last] + (L - 1),
            "n_tokens": starts[last] - starts[first] + L,
        })

    from ..stages.shuffle import typed_result

    return typed_result(marked.groupby("dbucket").map_groups(islands, batch_format="pandas"),
                        pa.schema([("doc_id", pa.int64()), ("span_start", pa.int64()),
                                   ("span_end", pa.int64()), ("n_tokens", pa.int64())]))


def strip_duplicate_spans(sf_dir: str, L: int = DUP_SPAN_L,
                          num_buckets: int | None = None):
    """(doc_id, n_removed_tokens, clean_text) — the REWRITE half of
    ExactSubstr dedup (Lee et al. 2022 delete the duplicated substrings,
    not the documents): every token covered by a duplicate_spans island
    is cut, and only MODIFIED documents are emitted (untouched docs pass
    through a pipeline unchanged — emitting them would re-ship the whole
    corpus through this operator's exchange).

    Scale shape: the span table (bounded by marked windows, far smaller
    than the corpus) and the affected documents meet on ONE tagged-union
    exchange keyed by hash(doc_id); the rebuild is a vectorized
    explode → removed-position anti-join → ordered re-join per bucket —
    the only per-doc operation is the final ' '.join, which IS the
    output payload."""
    from ..stages.shuffle import (
        coalesce_for_exchange,
        default_num_buckets,
        from_pandas_clean,
        table_rows,
    )

    P = num_buckets or default_num_buckets()
    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_removed_tokens", pa.int64()),
        ("clean_text", pa.string()),
    ])

    def tag_spans(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        return from_pandas_clean(pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "kind": np.ones(len(df), dtype=np.int64),
            "a": df["span_start"].astype("int64"),
            "b": df["span_end"].astype("int64"),
            "text": [""] * len(df),
            "bucket": (df["doc_id"].to_numpy(dtype=np.int64) % P),
        }))

    def tag_docs(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        return from_pandas_clean(pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "kind": np.zeros(len(df), dtype=np.int64),
            "a": np.full(len(df), -1, dtype=np.int64),
            "b": np.full(len(df), -1, dtype=np.int64),
            "text": df["text"],
            "bucket": (df["doc_id"].to_numpy(dtype=np.int64) % P),
        }))

    spans = duplicate_spans(sf_dir, L, num_buckets).map_batches(
        tag_spans, batch_format="pyarrow")
    docs = _read_docs(sf_dir).map_batches(tag_docs, batch_format="pyarrow")
    tagged = coalesce_for_exchange(
        docs.union(spans), 2 * table_rows(sf_dir, "documents"))

    def rebuild(df: pd.DataFrame) -> pa.Table:
        sp = df[df["kind"] == 1]
        if sp.empty:
            return out_schema.empty_table()
        aff = df[(df["kind"] == 0)
                 & df["doc_id"].isin(sp["doc_id"].unique())]
        if aff.empty:  # spans exist but their docs hash elsewhere: never
            return out_schema.empty_table()  # happens (same bucket fn)
        toks = aff["text"].str.split(" ")
        n_tok = toks.str.len().to_numpy(dtype=np.int64)
        long = pd.DataFrame({
            "doc_id": np.repeat(aff["doc_id"].to_numpy(dtype=np.int64),
                                n_tok),
            "pos": np.concatenate([np.arange(n) for n in n_tok]),
            "tok": np.concatenate([np.asarray(t, dtype=object)
                                   for t in toks]),
        })
        widths = (sp["b"] - sp["a"] + 1).to_numpy(dtype=np.int64)
        removed = pd.DataFrame({
            "doc_id": np.repeat(sp["doc_id"].to_numpy(dtype=np.int64),
                                widths),
            "pos": np.concatenate(
                [np.arange(a, b + 1) for a, b in zip(sp["a"], sp["b"])]),
        })
        kept = long.merge(removed, on=["doc_id", "pos"], how="left",
                          indicator=True)
        kept = kept[kept["_merge"] == "left_only"]
        kept = kept.sort_values(["doc_id", "pos"])
        clean = kept.groupby("doc_id", sort=True)["tok"].agg(" ".join)
        n_rem = removed.groupby("doc_id").size()
        out = pd.DataFrame({
            "doc_id": clean.index.to_numpy(dtype=np.int64),
            "n_removed_tokens": n_rem.reindex(clean.index).fillna(0)
                                     .to_numpy(dtype=np.int64),
            "clean_text": clean.to_numpy(),
        })
        # a doc whose EVERY token is removed drops out of `clean` (no kept
        # rows); re-add it with an empty rewrite
        gone = n_rem.index.difference(clean.index)
        gone = gone.intersection(aff["doc_id"].astype("int64"))
        if len(gone):
            out = pd.concat([out, pd.DataFrame({
                "doc_id": gone.to_numpy(dtype=np.int64),
                "n_removed_tokens": n_rem.loc[gone].to_numpy(dtype=np.int64),
                "clean_text": [""] * len(gone),
            })], ignore_index=True)
        return from_pandas_clean(out).cast(out_schema)

    return tagged.groupby("bucket").map_groups(rebuild, batch_format="pandas")
