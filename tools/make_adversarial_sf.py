"""Synthesize a pathological scale-factor directory for the oracle gate.

The two tables the oracles read (documents, events), with the same
schemas as the testdata sf* directories (TESTDATA.md), but every value
distribution chosen to be hostile: unicode (CJK, emoji, RTL, combining
marks, special-casing), empty strings, whitespace runs, exact and near
duplicate texts, key skew (one hot source / user), singleton groups,
rounding-tie money values, boundary timestamps (exact window edges), ties
everywhere two rows can tie.

Usage:  python tools/make_adversarial_sf.py [out_dir]   (default /tmp/sfadv)

Then:   python tools/verify_local.py /tmp/sfadv

Everything is deterministic (fixed seed); doc_ids stay non-negative and
below 1e9 so the synthetic-turns timestamp arithmetic stays in pandas'
datetime64[ns] range (the documented contract of the turns synth).
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SEED = 20260819


def _rng():
    return np.random.default_rng(SEED)


# --- documents ---------------------------------------------------------

UNICODE_TEXTS = [
    "",  # empty
    " ",  # single space -> ['', '']
    "a",  # single ascii token
    "the the the the the",  # all stopwords, all dup tokens
    "naïve café résumé coöperate façade",  # latin accents
    "ß İ I ı SS ss",  # special-casing landmines (turkish I, sharp s)
    "患者 は 頭痛 と 発熱 を 訴える",  # CJK spaced
    "病人有头痛和发热症状没有分词",  # CJK unspaced (one huge token)
    "🔥 emoji 🚀 in 🧬 text 🤖",  # emoji tokens
    "مرحبا بالعالم هذا نص عربي",  # RTL arabic
    "Привет мир это русский текст",  # cyrillic
    "é combining acute vs é precomposed",  # combining marks
    "tab\tinside and\nnewline inside one token",  # control chars in tokens
    "it's quoted 'text' with \"double\" quotes; semicolons, commas",
    "a  b   c    d",  # multi-space runs -> empty tokens
    "word " * 200,  # trailing space -> empty final token
    "join window hash vector join window hash vector",  # repeated 4-token cycle
    "join join join join join join join join join join",  # tf skew
]


def make_documents(out: str) -> None:
    rng = _rng()
    doc_ids, texts, langs, sources = [], [], [], []

    def add(did, text, lang, source):
        doc_ids.append(did)
        texts.append(text)
        langs.append(lang)
        sources.append(source)

    nxt = 0
    # unicode block, hot source
    for t in UNICODE_TEXTS:
        add(nxt, t, "xx", "hot"); nxt += 1
    # exact duplicates (same text, many ids)
    for i in range(20):
        add(nxt, "exact duplicate corpus text for dedup checks", "en", "hot")
        nxt += 1
    # near duplicates: one token perturbed
    base = ("the quick brown fox jumps over the lazy dog while counting "
            "tokens and hashing shingles for the minhash band exchange")
    words = base.split(" ")
    for i in range(15):
        w = list(words)
        w[i % len(w)] = f"tok{i}"
        add(nxt, " ".join(w), "en", "hot"); nxt += 1
    # permutation near-dups (same bag of words, different order)
    for i in range(5):
        w = list(words)
        rng.shuffle(w)
        add(nxt, " ".join(w), "en", "hot"); nxt += 1
    # one long doc
    add(nxt, " ".join(f"w{j % 97}" for j in range(5000)), "en", "solo-long")
    nxt += 1
    # singleton sources + empty-string source name
    add(nxt, "lonely document in its own source", "en", "solo"); nxt += 1
    add(nxt, "document whose source is the empty string", "en", ""); nxt += 1
    # identical token-count groups (zscore zero-variance sources)
    for i in range(8):
        add(nxt, f"alpha beta gamma delta epsilon zeta{i}", "en", "constlen")
        nxt += 1
    # bulk: zipf-ish vocabulary, random lengths incl. len-1
    vocab = np.array([f"v{i}" for i in range(50)] + list("abcdefg"))
    for i in range(250):
        n = int(rng.integers(1, 60))
        idx = (rng.zipf(1.7, size=n) - 1) % len(vocab)
        add(nxt, " ".join(vocab[idx]), rng.choice(["en", "es", "zh", ""]),
            rng.choice(["hot", "s1", "s2"], p=[0.7, 0.2, 0.1]))
        nxt += 1
    # doc_id gaps + large ids (keep < 1e9 per the turns-ts contract),
    # appended at the end so ids stay unique
    for k, off in enumerate([10_000, 1_000_000, 500_000_000]):
        add(off + k, f"gap document number {k} with sparse id", "en", "s1")

    n_chars = [len(t) for t in texts]
    tbl = pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(sources, pa.string()),
        "n_chars": pa.array(n_chars, pa.int64()),
    })
    # shuffle row order in the file (nothing may assume sorted doc_id)
    perm = _rng().permutation(len(doc_ids))
    pq.write_table(tbl.take(pa.array(perm)), f"{out}/documents.parquet")


# --- events ------------------------------------------------------------

def make_events(out: str) -> None:
    rng = _rng()
    rows = []
    eid = 0
    base = np.datetime64("2024-01-01T00:00:00", "us")
    H = np.timedelta64(3600, "s")

    def add(ts, uid, etype, value, props):
        nonlocal eid
        rows.append((eid, ts, uid, etype, value, props)); eid += 1

    # hot user: 400 events, many identical timestamps (session/window ties)
    for i in range(400):
        ts = base + (i // 4) * np.timedelta64(601, "s")  # 4-way ts ties
        add(ts, 1, ["click", "view", "error", "signup"][i % 4],
            float(i % 7) * 10.0, '{"k": %d}' % (i % 5))
    # exact hour-boundary timestamps (window bucket edges)
    for i in range(24):
        add(base + i * H, 2, "click", 0.0, '{"k": 0}')
    # single-event users
    for u in range(100, 140):
        add(base + np.timedelta64(u, "s"), u, "view", -5.5, '{"k": 1}')
    # value extremes, ties in value, zero values
    for i in range(30):
        add(base + np.timedelta64(7200 + i, "s"), 3, "purchase",
            [0.0, 1e12, -1e12, 0.005, 99.995][i % 5], '{"k": %d}' % (10 ** (i % 4)))
    # digit-free / weird props (JSON-ish garbage) — semi-structured edge
    add(base, 4, "meta", 1.0, "{}")
    add(base + np.timedelta64(1, "s"), 4, "meta", 2.0, '{"k": null}')
    add(base + np.timedelta64(2, "s"), 4, "", 3.0, "not json at all")
    # out-of-order event ids vs ts (events later in file, earlier in time)
    for i in range(50):
        add(base - np.timedelta64(i, "s"), 5, "click", float(i), '{"k": 2}')

    rows_arr = list(zip(*rows))
    tbl = pa.table({
        "event_id": pa.array(rows_arr[0], pa.int64()),
        "ts": pa.array(np.array(rows_arr[1], dtype="datetime64[us]"),
                       pa.timestamp("us")),
        "user_id": pa.array(rows_arr[2], pa.int64()),
        "event_type": pa.array(rows_arr[3], pa.string()),
        "value": pa.array(rows_arr[4], pa.float64()),
        "props": pa.array(rows_arr[5], pa.string()),
    })
    perm = rng.permutation(len(rows))
    pq.write_table(tbl.take(pa.array(perm)), f"{out}/events.parquet")


def fragment(out: str, n_frags: int = 3) -> None:
    """Rewrite every table as a DIRECTORY of ``n_frags`` parquet fragments
    with rows dealt round-robin — the multi-file layout a real 100 TB
    corpus arrives in.  Round-robin dealing guarantees no fragment holds a
    contiguous or sorted slice, so any operator that silently assumes
    file-order == row-order or single-fragment input diverges from its
    oracle (DuckDB globs the directory)."""
    import glob as _glob

    for f in sorted(_glob.glob(f"{out}/*.parquet")):
        if os.path.isdir(f):
            continue
        t = pq.read_table(f)
        os.remove(f)
        os.makedirs(f, exist_ok=True)
        idx = np.arange(t.num_rows)
        for i in range(n_frags):
            part = t.take(pa.array(idx[idx % n_frags == i]))
            pq.write_table(part, f"{f}/frag-{i}.parquet")


def main(out: str = "/tmp/sfadv", fragments: bool = False) -> None:
    os.makedirs(out, exist_ok=True)
    make_documents(out)
    make_events(out)
    if fragments:
        fragment(out)
    print(f"wrote adversarial tables to {out}"
          + (" (fragmented)" if fragments else ""))


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    main(args[0] if args else "/tmp/sfadv",
         fragments="--fragments" in sys.argv)
