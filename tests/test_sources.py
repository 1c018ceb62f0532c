"""Source/sink operators: gold readers, obo/json loaders, TSV writer,
ordered output."""

import os

import pytest
import ray

from phenobert_ray.assets.loader import load_ontology
from phenobert_ray.sources.writers import ordered_annotations, write_annotations_tsv

REF = "/root/reference/phenobert"


def test_gold_readers():
    if not os.path.isdir(REF):
        pytest.skip("reference not present")
    from phenobert_ray.sources.loaders import read_gold_gsc, read_gold_tsv

    g = read_gold_gsc(f"{REF}/data/GSC+/ann").to_pandas()
    assert len(g) > 1000
    assert g.hpo_id.str.match(r"HP:\d{7}").all()
    assert (g.end > g.start).all()

    t = read_gold_tsv(f"{REF}/data/ID-68/ann").to_pandas()
    assert len(t) > 500
    assert t.hpo_id.str.startswith("HP:").all()


def test_text_dir_reader_roundtrip(tmp_path):
    from phenobert_ray.sources.loaders import read_text_dir_as_turns

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "doc1").write_text("one sentence. two sentence. three. four. five.")
    (d / "doc2").write_text("just one.")
    t = read_text_dir_as_turns(str(d), sentences_per_turn=2).to_pandas()
    assert list(t.columns) == ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    assert (t[t.conv_id == "doc1"].turn_idx.tolist()) == [0, 1, 2]
    # concatenating turns reproduces the document text
    assert "".join(t[t.conv_id == "doc1"].sort_values("turn_idx").text) == (
        "one sentence. two sentence. three. four. five."
    )


def test_hpo_json_loader(tmp_path):
    import json

    j = {
        "HP:0000118": {"Name": "Phenotypic abnormality", "Is_a": []},
        "HP:0000001": {"Name": "All"},
        "HP:0001250": {
            "Name": "Seizure",
            "Synonym": ['"Seizures" EXACT []', '"Epileptic seizure" EXACT []'],
            "Alt_id": ["HP:0010520"],
            "Is_a": ["HP:0000118 ! Phenotypic abnormality"],
        },
    }
    p = tmp_path / "hpo.json"
    p.write_text(json.dumps(j))
    dag = load_ontology(str(p))
    assert dag.match_phrase("epileptic seizure") == "HP:0001250"
    assert dag.canonical("HP:0010520") == "HP:0001250"
    assert dag.in_abnormality("HP:0001250")


def test_obo_loader(tmp_path):
    obo = """format-version: 1.2

[Term]
id: HP:0000118
name: Phenotypic abnormality

[Term]
id: HP:0001250
name: Seizure
alt_id: HP:0010520
synonym: "Seizures" EXACT []
is_a: HP:0000118 ! Phenotypic abnormality
"""
    p = tmp_path / "hp.obo"
    p.write_text(obo)
    dag = load_ontology(str(p))
    assert dag.match_phrase("seizures") == "HP:0001250"
    assert ("HP:0001250", "HP:0000118") in dag.is_a_edges()


def test_tsv_writer_and_order(mini, sf_small, tmp_path):
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    anns = annotate_turns(read_turns(sf_small), mini)
    n = write_annotations_tsv(anns, str(tmp_path / "tsv"))
    assert n > 100
    sample = sorted(os.listdir(tmp_path / "tsv"))[0]
    lines = (tmp_path / "tsv" / sample).read_text().strip().splitlines()
    parts = lines[0].split("\t")
    assert len(parts) in (5, 6)
    int(parts[0]), int(parts[1])
    assert parts[3].startswith("HP:")

    ordered = ordered_annotations(
        annotate_turns(read_turns(sf_small), mini)
    ).to_pandas()
    key = list(zip(ordered.conv_id, ordered.turn_idx, ordered.start))
    assert key == sorted(key)


def test_tsv_writer_hostile_conv_ids(mini, tmp_path):
    """conv_id is DATA: path separators / traversal / reserved names must
    stay inside out_dir, never crash, and never collide (writers.py review
    wave 8)."""
    import pandas as pd
    import ray

    from phenobert_ray.sources.writers import safe_filename

    hostile = ["../escape", "a/b", "a\\b", "", ".", "..", "ok-1", "ünïcode",
               "a%2Fb"]
    anns = ray.data.from_pandas(pd.DataFrame({
        "conv_id": hostile,
        "turn_idx": [0] * len(hostile),
        "start": [0] * len(hostile),
        "end": [3] * len(hostile),
        "mention": ["abc"] * len(hostile),
        "hpo_id": ["HP:0001250"] * len(hostile),
        "score": [1.0] * len(hostile),
        "negated": [False] * len(hostile),
    }))
    out = tmp_path / "tsv"
    n = write_annotations_tsv(anns, str(out))
    assert n == len(hostile)
    names = os.listdir(out)
    assert len(names) == len(set(names)) == len(hostile)
    # everything landed INSIDE out_dir (no traversal), one level deep
    for f in names:
        assert (out / f).is_file()
        assert os.path.realpath(out / f).startswith(os.path.realpath(out) + os.sep)
    assert not (tmp_path / "escape").exists()
    # clean ids keep their exact reference-format filename
    assert safe_filename("ok-1") == "ok-1"
    assert "ok-1" in names
    # sanitization is injective across look-alike ids
    assert safe_filename("a/b") != safe_filename("a%2Fb")


def test_train_pair_producers(mini, tmp_path):
    from phenobert_ray.assets.train_pairs import (
        produce_match_pairs,
        produce_phrase_pairs,
        write_train_files,
    )

    stats = write_train_files(mini, str(tmp_path), seed=7)
    assert stats["phrase_pairs"] > 40
    assert stats["match_pairs"] > 100

    # round trip: train.txt dump rebuilds a dictionary that matches
    dag2 = load_ontology(str(tmp_path / "train.txt"))
    assert dag2.match_phrase("febrile seizure") == "HP:0002373"

    # determinism + label semantics
    m1 = produce_match_pairs(mini, seed=7).to_pylist()
    m2 = produce_match_pairs(mini, seed=7).to_pylist()
    assert m1 == m2
    for r in m1:
        if r["label"] == 2:
            assert mini.match_phrase(r["phrase_a"]) == mini.match_phrase(r["phrase_b"])
        if r["label"] == 0:
            a = mini.match_phrase(r["phrase_a"])
            b = mini.match_phrase(r["phrase_b"])
            assert b not in mini.ancestors.get(a, set())

    # bert_pairs.tsv format 'a::b\tlabel'
    line = (tmp_path / "bert_pairs.tsv").read_text().splitlines()[0]
    ab, label = line.split("\t")
    assert "::" in ab and label in {"0", "1", "2"}


def test_turns_jsonl_roundtrip(tmp_path, sf_small):
    from phenobert_ray.sources.loaders import read_turns_jsonl, write_turns_jsonl
    from phenobert_ray.transcripts import TURNS_SCHEMA, read_turns

    orig = read_turns(sf_small)
    out = str(tmp_path / "jsonl")
    write_turns_jsonl(orig, out)
    back = read_turns_jsonl(out)
    assert back.schema().names == list(TURNS_SCHEMA.names)
    a = orig.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    b = back.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert a.equals(b)
