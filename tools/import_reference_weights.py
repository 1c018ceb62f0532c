#!/usr/bin/env python
"""Convert the reference's released trained models into this engine's
numpy model-dir layout — the bridge that lets the Ray pipeline run with
PhenoBERT's *actual* weights instead of the hermetic stand-ins.

Inputs (the files README.md:70-83 distributes via Google Drive, loaded by
the reference at annotate.py:42-49 / util.py:1079-1081):

  <models-dir>/HPOModel_H/model_layer1.pkl      torch.save(HPO_model_Layer1)
  <models-dir>/HPOModel_H/model_l1_<i>.pkl      torch.save(HPOModel), i =
                                                index of the L1 root in
                                                sorted(layer1)
  <models-dir>/bert_model_max_triple.pkl        torch.save(
                                                BertForSentenceMatching)
  fasttext_pubmed.bin                           fastText binary

All are WHOLE-model pickles (ModelSaver without params_only,
util.py:600-611) in either torch zip or legacy stream format; they are
parsed torch-free by state/torch_ckpt.read_module_tree and flattened to
state dicts.  Output layout (what standins.load_torch_scorer consumes):

  <out>/l1.pt  sub_HP_XXXXXXX.pt...  bert.pt  bert_vocab.txt
  <out>/fasttext.bin  DAG.json

Usage:
  python tools/import_reference_weights.py \
      --models-dir .../phenobert/models --fasttext .../fasttext_pubmed.bin \
      --hpo-json .../hpo.json --out /path/model_dir [--check]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

L1_KEYS = {"Encoder.conv.weight", "Encoder.conv.bias", "Encoder.linear.weight",
           "Encoder.linear.bias", "linear.weight", "linear.bias"}
SUB_KEYS = {"Encoder.conv.weight", "Encoder.conv.bias", "Encoder.linear.weight",
            "Encoder.linear.bias", "H0", "GCNNet.gcn1.bias"}


def convert_cnn(pkl_path: str, out_path: str, expect: set[str]) -> dict:
    from phenobert_ray.state.torch_ckpt import (
        flatten_module_state, read_module_tree, write_state_dict)

    state = flatten_module_state(read_module_tree(pkl_path))
    missing = expect - set(state)
    if missing:
        raise SystemExit(
            f"{pkl_path}: missing parameters {sorted(missing)} — present: "
            f"{sorted(state)}")
    write_state_dict(out_path, {k: state[k] for k in sorted(state)})
    return state


def convert_bert(pkl_path: str, out_dir: str) -> tuple[int, int]:
    """BertForSentenceMatching (Mybert.py:91-107: ``bert`` = BertEmbedding
    wrapping a standard BertModel at ``bert.model.encoder.*``, plus a top-
    level ``classifier``) → the standard-layout ``bert.pt`` bert_np loads,
    with the WordPiece vocab dug out of the pickled tokenizer."""
    from phenobert_ray.state.torch_ckpt import (
        find_attr, flatten_module_state, read_module_tree, write_state_dict)

    tree = read_module_tree(pkl_path)
    flat = flatten_module_state(tree)
    anchor = "embeddings.word_embeddings.weight"
    hits = [k for k in flat if k.endswith(anchor)]
    if not hits:
        raise SystemExit(f"{pkl_path}: no BERT embeddings found in {len(flat)} params")
    prefix = hits[0][: -len(anchor)]
    out: dict = {}
    for k, v in flat.items():
        if k.startswith(prefix):
            out[k[len(prefix):]] = v
        elif k.rsplit(".", 1)[-1] in ("weight", "bias") and "classifier" in k:
            out["classifier." + k.rsplit(".", 1)[-1]] = v
    if "classifier.weight" not in out:
        raise SystemExit(f"{pkl_path}: classifier head not found")
    write_state_dict(os.path.join(out_dir, "bert.pt"), out)

    tok = find_attr(tree, "tokenzier")  # the reference's attribute spelling
    vocab = find_attr(tok, "vocab") if tok is not None else None
    if not isinstance(vocab, dict) or "[CLS]" not in vocab:
        vocab = find_attr(tree, "vocab")
    if not isinstance(vocab, dict) or "[CLS]" not in vocab:
        raise SystemExit(
            f"{pkl_path}: WordPiece vocab not recoverable from the pickle — "
            f"pass the BioBERT vocab.txt as --bert-vocab")
    with open(os.path.join(out_dir, "bert_vocab.txt"), "w",
              encoding="utf-8") as f:
        for w, _ in sorted(vocab.items(), key=lambda kv: kv[1]):
            f.write(w + "\n")
    n_layers = len({k.split(".")[2] for k in out if k.startswith("encoder.layer.")})
    return n_layers, len(vocab)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--models-dir", required=True)
    ap.add_argument("--fasttext", default=None,
                    help="fasttext_pubmed.bin (token vectors; optional but "
                         "required to reproduce reference recall)")
    ap.add_argument("--hpo-json", default=None,
                    help="hpo.json matching the checkpoints' ontology "
                         "version (layer1 order / H0 rows are positional)")
    ap.add_argument("--bert-vocab", default=None,
                    help="BioBERT vocab.txt if the pickle lacks the tokenizer")
    ap.add_argument("--out", required=True)
    ap.add_argument("--check", action="store_true",
                    help="load the converted dir through load_torch_scorer "
                         "and smoke-score one phrase")
    args = ap.parse_args(argv)

    import json

    from phenobert_ray.assets.loader import load_ontology

    dag = load_ontology(args.hpo_json)
    os.makedirs(args.out, exist_ok=True)

    l1_pkl = os.path.join(args.models_dir, "HPOModel_H", "model_layer1.pkl")
    state = convert_cnn(l1_pkl, os.path.join(args.out, "l1.pt"), L1_KEYS)
    n_class = state["linear.weight"].shape[0] - 1
    if n_class != len(dag.layer1):
        print(f"WARNING: router has {n_class} classes but the ontology has "
              f"{len(dag.layer1)} layer-1 roots — pass the matching --hpo-json",
              file=sys.stderr)
    print(f"l1.pt: {len(state)} params, n_class={n_class}, "
          f"E={state['Encoder.conv.weight'].shape[1]}")

    n_sub = 0
    for i, l1 in enumerate(dag.layer1):
        pkl = os.path.join(args.models_dir, "HPOModel_H", f"model_l1_{i}.pkl")
        if not os.path.exists(pkl):
            print(f"  (no subtree model for {l1}: {pkl} absent)")
            continue
        out = os.path.join(args.out, f"sub_{l1.replace(':', '_')}.pt")
        sub = convert_cnn(pkl, out, SUB_KEYS)
        n_sub += 1
        print(f"  sub {l1}: H0 {sub['H0'].shape}")

    bert_pkl = os.path.join(args.models_dir, "bert_model_max_triple.pkl")
    if os.path.exists(bert_pkl):
        n_layers, n_vocab = convert_bert(bert_pkl, args.out)
        print(f"bert.pt: {n_layers} layers, vocab={n_vocab}")
    elif args.bert_vocab:
        shutil.copyfile(args.bert_vocab, os.path.join(args.out, "bert_vocab.txt"))

    if args.fasttext:
        from phenobert_ray.state.fasttext_bin import FastTextBin

        ft = FastTextBin(args.fasttext)  # validates format before copying
        shutil.copyfile(args.fasttext, os.path.join(args.out, "fasttext.bin"))
        print(f"fasttext.bin: dim={ft.dim}, {ft.nwords} words, "
              f"bucket={ft.bucket}, minn={ft.minn}, maxn={ft.maxn}")
        E = state["Encoder.conv.weight"].shape[1]
        if ft.dim != E:
            print(f"WARNING: fastText dim {ft.dim} != CNN in_channels {E}",
                  file=sys.stderr)

    with open(os.path.join(args.out, "DAG.json"), "w") as f:
        json.dump(dag.nodes, f)
    print(f"imported {n_sub} subtree models -> {args.out}")

    if args.check:
        from phenobert_ray.config import PipelineConfig
        from phenobert_ray.standins import load_torch_scorer

        scorer = load_torch_scorer(args.out, dag, PipelineConfig())
        from phenobert_ray.candidates import Candidate

        cand = Candidate(tokens=["seizure"], starts=[0], start=0, end=7)
        print("smoke score:", scorer([cand]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
