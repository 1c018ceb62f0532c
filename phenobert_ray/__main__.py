"""CLI entry point — the reference ``annotate.py`` surface, Ray-Data-native.

Mirrors the reference's flags (annotate.py:15-30): ``-i/-o`` input/output,
``-p1/-p2/-p3`` thresholds, ``-al`` keep-overlaps, ``-nb`` no-BERT — plus
engine flags for dictionary asset, sharded resumable runs and output format.
``--output-format kg`` (the default) runs ``pipelines.annotate.run_kg_job``
for every ``--input-format`` and writes one layout: ``shard=K/`` triples
split by conversation hash, ``_MANIFEST/shard-K.json`` lineage, per-fragment
partials in ``_partials/``, ``ontology/`` is_a edges; a re-run into the
same directory annotates only new or changed fragments.
Designed to run under ``ray job submit -- python -m phenobert_ray ...`` on a
cluster; locally it owns the Ray session (guarded init).

Examples:
    python -m phenobert_ray -i /path/turns_parquet_dir -o /tmp/kg
    python -m phenobert_ray -i corpus_dir --input-format textdir \\
        --dict /root/reference/phenobert/models/train.txt -o /tmp/out \\
        --output-format tsv
"""

from __future__ import annotations

import argparse
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="phenobert_ray")
    p.add_argument("-i", "--input", required=True,
                   help="turns parquet file/dir, or a directory of text files")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--input-format", choices=["parquet", "textdir", "jsonl"],
                   default="parquet")
    p.add_argument("--output-format", choices=["parquet", "tsv", "kg"], default="kg",
                   help="kg = resumable sharded triples; parquet/tsv = annotations")
    p.add_argument("-p1", type=float, default=None,
                   help="L1 router threshold (default 0.8; 0.95 with -m builtin)")
    p.add_argument("-p2", type=float, default=None,
                   help="subtree scorer threshold (default 0.6; 0.9 with -m builtin)")
    p.add_argument("-p3", type=float, default=0.9, help="matcher threshold")
    p.add_argument("-al", action="store_true",
                   help="keep overlapping spans (reference -al)")
    p.add_argument("-nb", action="store_true",
                   help="skip the matcher step (reference -nb)")
    p.add_argument("--use-standins", action="store_true",
                   help="enable the deterministic stand-in model stages")
    p.add_argument("-m", "--model-dir", default=None,
                   help="dir with reference-format checkpoints (l1.pt, "
                        "sub_*.pt, bert.pt, embedding.pt) for the numpy "
                        "inference path; the literal 'builtin' selects the "
                        "packaged hermetically-trained weights (-p1/-p2 "
                        "then default to 0.95/0.9)")
    p.add_argument("--ner", dest="ner_path", default=None,
                   help="C1 span-seeder checkpoint (ner.pt; the literal "
                        "'builtin' selects the packaged tagger); default "
                        "pseudo-seeding")
    p.add_argument("--dict", dest="dict_path", default=None,
                   help="ontology: a reference hpo.json, an engine node-table "
                        ".json (e.g. assets/trained/DAG.json), an .obo file, "
                        "or train.txt (phrase, HP id) pairs (default: built-in "
                        "mini ontology)")
    p.add_argument("--simplified-keys", action="store_true",
                   help="also index each name's and synonym's stopword-free "
                        "key (+recall), for every --dict format")
    p.add_argument("--shards", type=int, default=4,
                   help="kg output files, split by conversation hash "
                        "(at most one per input fragment)")
    p.add_argument("--batch-size", type=int, default=256,
                   help="distinct texts per kernel call inside an annotate "
                        "task, on the dictionary and model paths alike; "
                        "sizing only, never changes the output")
    p.add_argument("-t", "--threads", type=float, default=1.0,
                   help="CPUs reserved per annotate task (reference -t sets "
                        "torch intra-op threads, annotate.py:23; here the "
                        "numpy kernels are single-threaded so this is the "
                        "Ray num_cpus reservation per batch task)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .assets.loader import resolve_entry

    try:
        dag, cfg = resolve_entry(
            args.dict_path, args.model_dir, args.ner_path, args.p1, args.p2,
            simplified_keys=args.simplified_keys,
            use_model_standins=args.use_standins, param3=args.p3,
            use_longest=not args.al, use_step_3=not args.nb,
            annotate_batch_size=args.batch_size,
            annotate_num_cpus=args.threads)
    except (FileNotFoundError, ValueError) as e:  # before any output
        print(str(e), file=sys.stderr)
        return 2

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address="local", include_dashboard=False)
    t0 = time.time()

    if args.output_format == "kg":
        from .pipelines.annotate import run_kg_job

        stats = run_kg_job(args.input, args.output, dag, cfg,
                           num_shards=args.shards,
                           input_format=args.input_format)
    else:
        from .pipelines.annotate import read_turns_input
        from .stages.annotate import annotate_turns

        ann = annotate_turns(read_turns_input(args.input, args.input_format),
                             dag, cfg)
        if args.output_format == "parquet":
            from .sources.writers import write_annotations_parquet

            write_annotations_parquet(ann, args.output)
            stats = {"mode": "annotations parquet"}
        else:
            from .sources.writers import write_annotations_tsv

            stats = {"mode": "tsv", "files": write_annotations_tsv(ann, args.output)}

    print(f"done in {time.time() - t0:.1f}s: {stats} -> {args.output}")
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
