#!/usr/bin/env python
"""Train the hermetic C1 NER seeder (ner_np) from dictionary-projected
silver labels over the reference's shipped corpora, report held-out
token metrics, and save ``ner.pt`` (+ ``.vocab``).

Silver supervision = the engine's OWN Step-1 dictionary matches; gold
annotation files are never read.  See phenobert_ray/ner_np.py.

Usage:
  python tools/train_ner.py --out /tmp/ner [--epochs 8]
      [--target-recall 0.98] [--corpora GSC+ ID-68 GeneReviews val]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

REF = "/root/reference/phenobert"


def load_texts(corpora: list[str]) -> dict[str, str]:
    texts = {}
    for c in corpora:
        d = os.path.join(REF, "data", c, "corpus")
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), encoding="utf-8",
                      errors="replace") as f:
                texts[f"{c}/{name}"] = f.read()
    return texts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="train_ner")
    ap.add_argument("--out", required=True, help="output dir for ner.pt")
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--target-recall", type=float, default=0.98)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--corpora", nargs="+",
                    default=["GSC+", "ID-68", "GeneReviews", "val"])
    args = ap.parse_args(argv)

    from phenobert_ray.assets.loader import load_ontology
    from phenobert_ray.ner_np import (
        dict_token_vocab,
        silver_sentences,
        train_tagger,
    )

    t0 = time.time()
    dag = load_ontology(f"{REF}/models/train.txt")
    texts = load_texts(args.corpora)
    print(f"{len(texts)} docs from {args.corpora}")
    sents = silver_sentences(texts, dag)
    n_pos = sum(sum(s["labels"]) for s in sents)
    n_tok = sum(len(s["labels"]) for s in sents)
    print(f"{len(sents)} sentences, {n_tok} tokens, {n_pos} silver-PROBLEM "
          f"({n_pos / n_tok:.3f}) in {time.time() - t0:.0f}s")

    tagger, metrics = train_tagger(
        sents, dict_token_vocab(dag), epochs=args.epochs, seed=args.seed,
        target_recall=args.target_recall)
    print("dev metrics:", {k: (round(v, 4) if isinstance(v, float) else v)
                           for k, v in metrics.items()})

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "ner.pt")
    tagger.save(path)
    print(f"saved {path} in {time.time() - t0:.0f}s total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
