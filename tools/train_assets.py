#!/usr/bin/env python
"""Rebuild the packaged hermetic weights (phenobert_ray/assets/trained):

  1. train distributional token vectors (sgns_np: fastText-style subword
     SGNS over the shipped concept synonym sets) -> fasttext.bin
  2. train the L1 router + 25 subtree CNNs on those FROZEN vectors
     (train_np.train_all), writing reference-format checkpoints
  3. float16-compress the .pt files (prediction-identical, ~half size)
  4. sweep (p1, p2) on GSC+ expert gold and print the P/R table so the
     'builtin' operating point can be pinned

Usage:
  python tools/train_assets.py --out /tmp/trained_sgns [--no-sgns]
      [--sgns-epochs 8] [--epochs 30] [--sub-epochs 40] [--sweep]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

REF = "/root/reference/phenobert"


def f16_compress(model_dir: str) -> None:
    import numpy as np

    from phenobert_ray.state.torch_ckpt import read_state_dict, write_state_dict

    for name in sorted(os.listdir(model_dir)):
        if not name.endswith(".pt"):
            continue
        p = os.path.join(model_dir, name)
        state = read_state_dict(p)
        write_state_dict(p, {
            k: (np.asarray(v).astype(np.float16)
                if np.asarray(v).dtype == np.float32 else np.asarray(v))
            for k, v in state.items()})


def sweep_gsc(model_dir: str, points, use_step_3: bool = False) -> list[dict]:
    import ray

    from phenobert_ray.assets.loader import load_ontology
    from phenobert_ray.config import PipelineConfig
    from phenobert_ray.sources.loaders import (
        read_gold_gsc, read_text_dir_as_turns)
    from phenobert_ray.stages.annotate import annotate_turns

    dag = load_ontology(f"{REF}/models/train.txt")
    gold_t = read_gold_gsc(f"{REF}/data/GSC+/ann").to_pandas()
    gold = set(zip(gold_t.doc_id, gold_t.hpo_id))
    turns = ray.data.from_arrow(
        read_text_dir_as_turns(f"{REF}/data/GSC+/corpus")).materialize()
    rows = []
    for p1, p2 in points:
        cfg = PipelineConfig(model_dir=model_dir, use_model_standins=True,
                             param1=p1, param2=p2, use_step_3=use_step_3)
        anns = annotate_turns(turns, dag, cfg).to_pandas()
        pred = set(zip(anns.conv_id, anns.hpo_id))
        tp = len(pred & gold)
        r = {"p1": p1, "p2": p2,
             "P": tp / max(len(pred), 1), "R": tp / len(gold),
             "n_pred": len(pred)}
        r["F1"] = (2 * r["P"] * r["R"] / (r["P"] + r["R"])
                   if r["P"] + r["R"] else 0.0)
        print(f"  p1={p1} p2={p2}: P={r['P']:.4f} R={r['R']:.4f} "
              f"F1={r['F1']:.4f} (n={r['n_pred']})")
        rows.append(r)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--models-dir", default=f"{REF}/models")
    ap.add_argument("--no-sgns", action="store_true",
                    help="hash-trigram embeddings")
    ap.add_argument("--sgns-epochs", type=int, default=8)
    ap.add_argument("--sgns-dim", type=int, default=100)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--sub-epochs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--no-f16", action="store_true")
    ap.add_argument("--sweep", action="store_true",
                    help="GSC+ (p1,p2) sweep after training")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)

    from phenobert_ray.train_np import train_all

    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    ft_bin = None
    if not args.no_sgns:
        ft_bin = os.path.join(args.out, "fasttext.bin")
        if os.path.exists(ft_bin):
            print(f"reusing existing {ft_bin}")
        else:
            from phenobert_ray.sgns_np import train_token_vectors

            train_token_vectors(args.models_dir, ft_bin, dim=args.sgns_dim,
                                epochs=args.sgns_epochs, seed=args.seed)
            print(f"sgns done in {time.time() - t0:.0f}s")

    counts = train_all(args.models_dir, args.out,
                       epochs=args.epochs, sub_epochs=args.sub_epochs,
                       seed=args.seed, fasttext_bin=ft_bin,
                       learn_embeddings=args.no_sgns)
    print(f"train_all: {counts} in {time.time() - t0:.0f}s")

    if not args.no_f16:
        f16_compress(args.out)
        print("f16-compressed")

    if args.sweep:
        pts = [(0.5, 0.5), (0.8, 0.6), (0.8, 0.8), (0.9, 0.8), (0.95, 0.9),
               (0.95, 0.95), (0.99, 0.95)]
        print("GSC+ sweep (Step-2, -nb branch):")
        sweep_gsc(args.out, pts)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
