"""Synthesize a pathological scale-factor directory for the oracle gate.

The one table the oracles read (documents), with the same schema as the
testdata sf* directories (TESTDATA.md), but every value distribution
chosen to be hostile: unicode (CJK, emoji, RTL, combining marks,
special-casing), empty strings, whitespace runs, exact and near
duplicate texts, key skew (one hot source), singleton groups, doc_id
gaps, ties everywhere two rows can tie.

Usage:  python tools/make_adversarial_sf.py [out_dir] [--fragments]
        (default out_dir /tmp/sfadv; an unknown flag exits 2)

Then:   python tools/verify_local.py /tmp/sfadv

Everything is deterministic (fixed seed); doc_ids stay non-negative and
below 1e9 so the synthetic-turns timestamp arithmetic stays in pandas'
datetime64[ns] range (the documented contract of the turns synth).
"""

from __future__ import annotations

import argparse
import os

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
    if fragments:
        fragment(out)
    print(f"wrote adversarial tables to {out}"
          + (" (fragmented)" if fragments else ""))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(prog="make_adversarial_sf")
    ap.add_argument("out_dir", nargs="?", default="/tmp/sfadv")
    ap.add_argument("--fragments", action="store_true",
                    help="write each table as a directory of fragments")
    args = ap.parse_args()
    main(args.out_dir, fragments=args.fragments)
