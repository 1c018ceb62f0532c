"""Corpus evaluation CLI — the reference ``eval_all.py`` surface,
Ray-Data-native: annotate a corpus directory with the engine, compare
against expert gold annotations, print micro/macro P/R/F1 + the ontology
set-similarity score (A2/A3/A4, eval_all.py:60-126,260-321 semantics).

Usage:
    python tools/eval_corpus.py [corpus_dir] [ann_dir] [--format gsc|tsv]
        [--dict train.txt|hpo.json|.obo] [--model-dir DIR]

Defaults evaluate GSC+ with the reference's 48.6k-pair dictionary.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

REF = "/root/reference/phenobert"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="eval_corpus")
    ap.add_argument("corpus_dir", nargs="?", default=f"{REF}/data/GSC+/corpus")
    ap.add_argument("ann_dir", nargs="?", default=f"{REF}/data/GSC+/ann")
    ap.add_argument("--format", choices=["gsc", "tsv"], default="gsc")
    ap.add_argument("--dict", dest="dict_path",
                    default=f"{REF}/models/train.txt")
    ap.add_argument("--model-dir", default=None,
                    help="checkpoint dir, or 'builtin' for the packaged "
                         "trained weights (p1/p2 then default to 0.95/0.9; "
                         "an explicit -p1/-p2 wins)")
    ap.add_argument("-p1", type=float, default=None)
    ap.add_argument("-p2", type=float, default=None)
    ap.add_argument("-p3", type=float, default=0.9)
    ap.add_argument("--ner", dest="ner_path", default=None,
                    help="C1 seeder checkpoint, or 'builtin' for the "
                         "packaged tagger (default: pseudo-seeding)")
    ap.add_argument("--json", action="store_true",
                    help="emit one machine-readable JSON line last")
    args = ap.parse_args(argv)
    from phenobert_ray.assets.loader import resolve_entry

    try:
        dag, cfg = resolve_entry(args.dict_path, args.model_dir, args.ner_path,
                                 args.p1, args.p2, param3=args.p3)
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return 2

    import ray

    owns = not ray.is_initialized()
    if owns:
        ray.init(address="local", include_dashboard=False)

    from phenobert_ray.eval.metrics import (macro_prf_membership, membership,
                                            micro_prf_membership,
                                            ontology_similarity_membership)
    from phenobert_ray.pipelines.triples import dedup_conv_hpo
    from phenobert_ray.sources import loaders
    from phenobert_ray.stages.annotate import annotate_turns

    t0 = time.time()
    turns = ray.data.from_arrow(loaders.read_text_dir_as_turns(args.corpus_dir))
    pred = dedup_conv_hpo(annotate_turns(turns, dag, cfg)).select_columns(
        ["conv_id", "hpo_id"]
    ).materialize()

    reader = loaders.read_gold_gsc if args.format == "gsc" else loaders.read_gold_tsv
    gold_t = reader(args.ann_dir)
    gold = ray.data.from_arrow(gold_t).map_batches(
        lambda b: b.select(["doc_id", "hpo_id"]).rename_columns(
            ["conv_id", "hpo_id"]
        ),
        batch_format="pyarrow",
    )

    # one membership table (one block) feeds all three metrics (micro_prf
    # / macro_prf / ontology_similarity each rebuild it otherwise — a 3×
    # recompute of the tag+union+gather); averages run over
    # ALL corpus docs like the reference (docs with neither gold nor
    # predicted HPOs score P=R=1 / sim=1, eval_all.py:64-67)
    n_docs = len({f for f in os.listdir(args.corpus_dir)
                  if not f.startswith(".")})
    m = membership(pred, gold).materialize()
    micro = micro_prf_membership(m)
    macro = macro_prf_membership(m, n_all_convs=n_docs)
    sim = ontology_similarity_membership(m, dag, n_all_convs=n_docs)
    dt = time.time() - t0
    print(
        f"corpus={args.corpus_dir}\n"
        f"micro  P={micro['precision']:.4f} R={micro['recall']:.4f} "
        f"F1={micro['f1']:.4f}\n"
        f"macro  P={macro['macro_precision']:.4f} "
        f"R={macro['macro_recall']:.4f}\n"
        f"onto-similarity={sim:.4f}\n"
        f"({dt:.1f}s; dictionary-only recall is bounded without the trained "
        f"model weights)"
    )
    if args.json:
        import json

        print(json.dumps({
            "micro_p": micro["precision"], "micro_r": micro["recall"],
            "micro_f1": micro["f1"],
            "macro_p": macro["macro_precision"],
            "macro_r": macro["macro_recall"],
            "onto_similarity": sim, "sec": dt,
        }))
    if owns:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
