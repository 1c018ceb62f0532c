"""Seeded transcript generators with gold known by construction.

Mentions are names and synonyms of the packaged ontology
(``assets/trained/DAG.json``).  Filler words are drawn Zipf-distributed from
``assets/trained/vocab.txt`` after removing every word that could take part
in a dictionary match (dictionary tokens and their lemmas), negation cues,
segment spliters, stopwords and number words.  A filler word therefore never creates, extends or negates
a mention, and the gold of a turn is exactly the set of mentions placed in it.

Every text of a job carries the job's tag, so jobs are disjoint from each
other and from warm-up: each timed job starts with a cold per-worker memo.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from phenobert_ray.assets.hpo_dag import HpoDag
from phenobert_ray.candidates import generate_candidates
from phenobert_ray.textops import (
    NEGATION_WORDS,
    NUM2WORD,
    SPLITERS,
    STOPWORDS,
    bag_key,
    canonicalize_for_segmentation,
    lemmatize,
    process_str,
)

ASSETS = os.path.join("phenobert_ray", "assets", "trained")
MEMO_MAX_TEXT_LEN = 1024  # stages.annotate memoizes only turns this short
# hot terms per chat job, together 30% of its mentions
HOT_TERMS = 24

TURNS_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])


_NUMBER_WORDS = frozenset(NUM2WORD.values())


class Lexicon:
    """Phrase pool and filler vocabulary derived from one ontology."""

    def __init__(self, dag: HpoDag, root: str):
        self.phrases: list[tuple[str, str]] = []
        for h in sorted(dag.abnormality_nt):
            node = dag.nodes[h]
            for p in sorted(set(node.get("name", []) + node.get("synonym", []))):
                # a phrase whose bag key the dictionary assigns to another
                # concept has no well-defined gold; keep only round-trips
                if dag.phrase2hpo.get(bag_key(process_str(p))) == h:
                    self.phrases.append((p, h))
        vocab = dag.phrase_vocab
        with open(os.path.join(root, ASSETS, "vocab.txt"), encoding="utf-8") as f:
            words = [w.strip() for w in f if w.strip()]
        self.filler = [
            w for w in words
            if w.isascii() and w.isalpha() and len(w) > 1
            and w not in vocab and lemmatize(w) not in vocab
            and w not in NEGATION_WORDS and w not in SPLITERS
            and w not in STOPWORDS and w not in _NUMBER_WORDS
        ]
        ranks = np.arange(1, len(self.filler) + 1, dtype=np.float64)
        cdf = np.cumsum(ranks ** -1.1)
        self.filler_cdf = cdf / cdf[-1]


@dataclass
class Turns:
    """One job's input: turn columns plus gold and workload properties."""

    conv_id: list[str]
    turn_idx: list[int]
    role: list[str]
    text: list
    turn_gold: list[set] = field(default_factory=list)
    turn_mentions: list[int] = field(default_factory=list)
    gold: dict[str, set] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.text)

    def add(self, conv: str, turn: int, role: str, text, gold: set,
            mentions: int) -> None:
        """Append one turn: ``gold`` holds its non-negated concepts,
        ``mentions`` counts every mention placed in it."""
        self.conv_id.append(conv)
        self.turn_idx.append(turn)
        self.role.append(role)
        self.text.append(text)
        self.turn_gold.append(gold)
        self.turn_mentions.append(mentions)
        self.gold.setdefault(conv, set()).update(gold)


class _Writer:
    def __init__(self, rng: np.random.Generator, lex: Lexicon):
        self.rng = rng
        self.lex = lex

    def filler(self, n: int) -> str:
        idx = np.searchsorted(self.lex.filler_cdf, self.rng.random(n))
        return " ".join(self.lex.filler[i] for i in idx)

    def phrase(self, hot: list[int], hot_share: float) -> tuple[str, str]:
        if hot and self.rng.random() < hot_share:
            i = hot[int(self.rng.integers(len(hot)))]
        else:
            i = int(self.rng.integers(len(self.lex.phrases)))
        return self.lex.phrases[i]


def _conv_lengths(rng, n_conv: int, mean: float, long_share: float,
                  long_factor: int) -> list[int]:
    lengths = [max(1, int(rng.poisson(mean))) for _ in range(n_conv)]
    for i in range(n_conv):
        if rng.random() < long_share:
            lengths[i] = int(mean * long_factor)
    return lengths


def chat_turns(seed: int, job: int, n_turns: int, lex: Lexicon) -> Turns:
    """Chat-shaped transcripts: short turns dense with mentions, ~30%
    verbatim boilerplate, a few hot terms and a few ~50x longer
    conversations."""
    rng = np.random.default_rng([seed, job, 1])
    w = _Writer(rng, lex)
    tag = f"j{job}"
    boiler = [f"ok {tag}", f"thanks {tag}", f"got it {tag}"] + [
        f"[tool] {w.filler(2)} status ok ref {tag}" for _ in range(9)]
    hot = [int(i) for i in rng.choice(len(lex.phrases), size=HOT_TERMS, replace=False)]
    out = Turns([], [], [], [])
    lengths = _conv_lengths(rng, max(1, n_turns // 8), 8.0, 0.02, 50)
    c = 0
    while len(out) < n_turns:
        conv = f"c{tag}-{c}"
        for t in range(lengths[c % len(lengths)]):
            if len(out) >= n_turns:
                break
            gold: set = set()
            placed = 0
            r = rng.random()
            if r < 0.002:
                text = None  # dropped at the read boundary by contract
            elif r < 0.3:
                text = boiler[int(rng.integers(len(boiler)))]
            else:
                parts = []
                for _ in range(1 + int(rng.random() < 0.4)):
                    phrase, hpo = w.phrase(hot, 0.3)
                    negated = rng.random() < 0.05
                    placed += 1
                    if not negated:
                        gold.add(hpo)
                    parts.append(f"{'no ' if negated else ''}{phrase.lower()} "
                                 f"{w.filler(int(rng.integers(1, 4)))}")
                text = (f"{w.filler(int(rng.integers(1, 3)))} "
                        + ". ".join(parts) + f" {tag}.")
            out.add(conv, t, ("user", "assistant", "tool")[t % 3], text, gold,
                    placed)
        c += 1
    return out


def _perturb(rng, phrase: str) -> str:
    kind = rng.integers(4)
    toks = phrase.split()
    if kind == 0:
        return phrase.upper() if rng.random() < 0.5 else phrase.title()
    if kind == 1:
        last = toks[-1]
        if last.isalpha() and lemmatize(last + "s") == last.lower():
            toks[-1] = last + "s"
        return " ".join(toks)
    if kind == 2 and len(toks) > 1:
        i = int(rng.integers(len(toks) - 1))
        toks[i:i + 2] = [f"{toks[i]}-{toks[i + 1]}"]
        return " ".join(toks)
    return phrase


def note_turns(seed: int, job: int, n_turns: int, lex: Lexicon) -> Turns:
    """Unique clinical-note turns of ~300-400 chars with 1-2 perturbed
    mentions each (case, plural, hyphen, negation)."""
    rng = np.random.default_rng([seed, job, 2])
    w = _Writer(rng, lex)
    tag = f"j{job}"
    out = Turns([], [], [], [])
    c = 0
    while len(out) < n_turns:
        conv = f"n{tag}-{c}"
        for t in range(int(rng.integers(3, 7))):
            if len(out) >= n_turns:
                break
            gold: set = set()
            sentences = [f"Note {tag} {w.filler(6)}"]
            placed = 1 + int(rng.random() < 0.5)
            for _ in range(placed):
                phrase, hpo = w.phrase([], 0.0)
                negated = rng.random() < 0.15
                if not negated:
                    gold.add(hpo)
                sentences.append(f"{w.filler(3)} {'no ' if negated else ''}"
                                 f"{_perturb(rng, phrase)} {w.filler(3)}")
            text = ". ".join(sentences)
            while len(text) < 300:
                text += f". {w.filler(8)}"
            out.add(conv, t, "note", text + ".", gold, placed)
        c += 1
    return out


def write_fragments(turns: Turns, out_dir: str, n_files: int) -> list[str]:
    """Write turns in conversation order as ``n_files`` size-capped parquet
    fragments, as a size-capped exporter would: a conversation that crosses
    a cap is split between consecutive fragments."""
    os.makedirs(out_dir, exist_ok=True)
    n = len(turns)
    ts0 = np.datetime64("2026-01-01T00:00:00", "us")
    table = pa.Table.from_arrays([
        pa.array(turns.conv_id, pa.string()),
        pa.array(turns.turn_idx, pa.int32()),
        pa.array(turns.role, pa.string()),
        pa.array(turns.text, pa.string()),
        pa.array([""] * n, pa.string()),
        pa.array(ts0 + np.arange(n).astype("timedelta64[s]"), pa.timestamp("us")),
    ], schema=TURNS_SCHEMA)
    cap = -(-n // n_files)
    paths = []
    for k in range(n_files):
        part = table.slice(k * cap, cap)
        if part.num_rows:
            p = os.path.join(out_dir, f"part-{k:05d}.parquet")
            pq.write_table(part, p)
            paths.append(p)
    return paths


def straddling(turns: Turns, n_files: int) -> set[str]:
    """Conversations split between two fragments by ``write_fragments``."""
    cap = -(-len(turns) // n_files)
    return {turns.conv_id[i] for i in range(cap, len(turns), cap)
            if turns.conv_id[i] == turns.conv_id[i - 1]}


def properties(turns: Turns, sample: int = 400) -> dict:
    """Work the inputs share, and their shape: memo-eligible repeated
    turns, repeated candidate token tuples (over the first ``sample``
    turns), mentions per turn and conversation-length skew."""
    seen: set[str] = set()
    dup = 0
    for t in turns.text:
        if t is None:
            continue
        if len(t) <= MEMO_MAX_TEXT_LEN and t in seen:
            dup += 1
        seen.add(t)
    kseen: set[tuple] = set()
    kdup = kall = 0
    for t in turns.text[:sample]:
        if t is None:
            continue
        for cand in generate_candidates(canonicalize_for_segmentation(t)):
            key = tuple(cand.tokens)
            kall += 1
            kdup += key in kseen
            kseen.add(key)
    lengths: dict[str, int] = {}
    for c in turns.conv_id:
        lengths[c] = lengths.get(c, 0) + 1
    lv = sorted(lengths.values())
    return {
        "turns": len(turns),
        "conversations": len(lv),
        "dup_turn_share": dup / max(1, len(turns)),
        "dup_kmer_share": kdup / max(1, kall),
        "mentions_per_turn": sum(turns.turn_mentions) / max(1, len(turns)),
        "conv_len_max_over_median": lv[-1] / lv[len(lv) // 2] if lv else 0.0,
    }
