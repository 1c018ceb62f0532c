"""CLI parity tests (reference annotate.py flags, SURVEY.md §2.10)."""

import os

import pytest

from phenobert_ray.__main__ import main


def test_cli_textdir_to_tsv(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "docA").write_text("Patient shows febrile seizure today. No scoliosis.")
    out = tmp_path / "out"
    rc = main(["-i", str(corpus), "--input-format", "textdir",
               "-o", str(out), "--output-format", "tsv"])
    assert rc == 0
    lines = (out / "docA").read_text().strip().splitlines()
    assert lines[0].split("\t")[3] == "HP:0002373"
    assert lines[1].endswith("Neg")


def test_cli_kg_resume(tmp_path, sf_small):
    import ray

    from phenobert_ray.transcripts import read_turns

    turns_dir = str(tmp_path / "turns")
    read_turns(sf_small).write_parquet(turns_dir)
    out = str(tmp_path / "kg")
    assert main(["-i", turns_dir, "-o", out, "--output-format", "kg",
                 "--shards", "2"]) == 0
    assert os.path.isdir(os.path.join(out, "ontology"))
    assert os.path.isdir(os.path.join(out, "_MANIFEST"))
    # second run: full skip, Ray session (owned by pytest fixture) survives
    assert main(["-i", turns_dir, "-o", out, "--output-format", "kg",
                 "--shards", "2"]) == 0
    assert ray.is_initialized()


def test_cli_nb_al_flags(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "d") .write_text("patient shows grand mal seizure today.")
    out1 = tmp_path / "o1"
    main(["-i", str(corpus), "--input-format", "textdir", "-o", str(out1),
          "--output-format", "tsv", "-al"])
    lines = (out1 / "d").read_text().strip().splitlines()
    # -al keeps both the long span and the contained different-HPO span
    hpos = {ln.split("\t")[3] for ln in lines}
    assert hpos == {"HP:0002069", "HP:0001250"}


def test_cli_custom_dict_matches_library(tmp_path, mini):
    """CLI with --dict (train.txt format produced by our own producer)
    reproduces the library pipeline's per-doc HPO sets."""
    import glob

    import pyarrow.dataset as pads

    from phenobert_ray.assets.loader import load_ontology
    from phenobert_ray.assets.train_pairs import write_train_files
    from phenobert_ray.linker import annotate_text

    write_train_files(mini, str(tmp_path), seed=3)
    dict_path = str(tmp_path / "train.txt")

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1").write_text("patient shows febrile seizure today. obesity present.")
    (corpus / "d2").write_text("broad thumbs and toes. no scoliosis.")
    out = str(tmp_path / "kg")
    assert main(["-i", str(corpus), "--input-format", "textdir",
                 "-o", out, "--output-format", "kg", "--dict", dict_path]) == 0

    files = glob.glob(os.path.join(out, "shard=*", "*.parquet"))
    trip = pads.dataset(files).to_table().to_pandas()
    got = {
        (s.rsplit(":", 1)[0], o) for s, o in zip(trip.subj, trip.obj)
    }

    dag = load_ontology(dict_path)
    want = set()
    for name in ["d1", "d2"]:
        doc = (corpus / name).read_text()
        for a in annotate_text(doc, dag):
            if not a.negated:
                want.add((name, a.hpo_id))
    assert got == want


def test_cli_model_dir(tmp_path, monkeypatch):
    """--model-dir loads checkpoints into the annotate stage (end-to-end
    through the CLI parquet path with random reference-layout weights)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from phenobert_ray.assets.mini_hpo import mini_dag
    from phenobert_ray.state.torch_ckpt import write_state_dict
    from tests.test_weights import _l1_fixture

    mini = mini_dag()
    rng = np.random.default_rng(13)
    mdir = tmp_path / "weights"
    mdir.mkdir()
    write_state_dict(str(mdir / "l1.pt"), _l1_fixture(rng, 32, 16, 16,
                                                      len(mini.layer1)))
    turns = pa.table(
        {
            "conv_id": ["c-1"], "turn_idx": pa.array([0], pa.int32()),
            "role": ["user"], "text": ["patient has a febrile seizure"],
            "tool": [""],
            "ts": pa.array([0], pa.timestamp("us")),
        }
    )
    ip = tmp_path / "turns.parquet"
    pq.write_table(turns, str(ip))
    from phenobert_ray.__main__ import main

    rc = main(["-i", str(ip), "-o", str(tmp_path / "out"),
               "--output-format", "parquet", "-m", str(mdir)])
    assert rc == 0
    out = pq.read_table(str(tmp_path / "out"))
    assert out.num_rows >= 1


def test_eval_corpus_cli(tmp_path):
    """eval_all.py-equivalent CLI end-to-end on ID-68 (tsv gold)."""
    import os
    import sys

    REF = "/root/reference/phenobert"
    if not os.path.isdir(REF):
        import pytest as _pytest

        _pytest.skip("reference corpora absent")
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
    import io
    from contextlib import redirect_stdout

    from eval_corpus import main as eval_main

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = eval_main([f"{REF}/data/ID-68/corpus", f"{REF}/data/ID-68/ann",
                        "--format", "tsv"])
    assert rc == 0
    out = buf.getvalue()
    assert "micro" in out and "onto-similarity" in out
    # dictionary-only numbers on ID-68 are materially nonzero
    import re

    p = float(re.search(r"micro  P=([0-9.]+)", out).group(1))
    assert p > 0.3


def test_cli_parquet_tsv_survives_null_text(tmp_path, sf_small):
    """review r4 w9: the direct parquet→tsv/parquet CLI paths read turns
    WITHOUT the read-boundary null contract (run_kg_job applies it
    internally) — one NULL text crashed the annotate kernel.  A null in a
    load-bearing column must drop that row only; a null `tool` must not."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from phenobert_ray.transcripts import read_turns

    turns_dir = tmp_path / "turns"
    read_turns(sf_small).write_parquet(str(turns_dir))
    frag = turns_dir / sorted(os.listdir(turns_dir))[0]
    t = pq.read_table(str(frag))
    bad = pa.table(
        {
            "conv_id": pa.array(["conv-nulltext", "conv-nulltool"], pa.string()),
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": pa.array(["user", "user"], pa.string()),
            "text": pa.array([None, "patient shows seizure today."], pa.string()),
            "tool": pa.array(["", None], pa.string()),
            "ts": pa.array([0, 1], pa.timestamp("us")),
        }
    ).cast(t.schema)
    pq.write_table(pa.concat_tables([t, bad]), str(frag))
    out = tmp_path / "tsv"
    assert main(["-i", str(turns_dir), "-o", str(out),
                 "--output-format", "tsv", "-t", "1"]) == 0
    names = set(os.listdir(out))
    assert "conv-nulltext" not in names      # null text: row dropped
    assert "conv-nulltool" in names          # null tool: row survives


def test_cli_jsonl_input_matches_parquet(tmp_path, sf_small):
    """--input-format jsonl: the JSONL interchange path must produce the
    same TSVs as the parquet path over the same turns."""
    from phenobert_ray.sources.loaders import write_turns_jsonl
    from phenobert_ray.transcripts import read_turns

    turns = read_turns(sf_small)
    pq_dir, jl_dir = tmp_path / "turns_pq", tmp_path / "turns_jl"
    turns.write_parquet(str(pq_dir))
    write_turns_jsonl(read_turns(sf_small), str(jl_dir))
    out_pq, out_jl = tmp_path / "o_pq", tmp_path / "o_jl"
    assert main(["-i", str(pq_dir), "-o", str(out_pq),
                 "--output-format", "tsv"]) == 0
    assert main(["-i", str(jl_dir), "--input-format", "jsonl",
                 "-o", str(out_jl), "--output-format", "tsv"]) == 0
    assert sorted(os.listdir(out_pq)) == sorted(os.listdir(out_jl))
    for name in os.listdir(out_pq):
        assert (out_pq / name).read_text() == (out_jl / name).read_text()


def _kg_rows(out) -> int:
    import glob

    import pyarrow.dataset as pads

    return pads.dataset(glob.glob(os.path.join(out, "shard=*", "*.parquet"))
                        ).count_rows()


def _kg_input(tmp_path, sf_small, input_format: str) -> str:
    """The sf_small turns as a parquet dir, a jsonl dir, or (for textdir) a
    directory of four text files."""
    from phenobert_ray.sources.loaders import write_turns_jsonl
    from phenobert_ray.transcripts import read_turns

    d = tmp_path / f"in_{input_format}"
    if input_format == "parquet":
        read_turns(sf_small).write_parquet(str(d))
    elif input_format == "jsonl":
        write_turns_jsonl(read_turns(sf_small), str(d))
    else:
        d.mkdir()
        for name, text in [
                ("docA", "Patient shows febrile seizure today. No scoliosis."),
                ("docB", "Broad thumbs and toes. Obesity present."),
                ("docC", "Exam reveals scoliosis."),
                ("docD", "nothing to report.")]:
            (d / name).write_text(text)
    return str(d)


@pytest.mark.parametrize("input_format", ["parquet", "textdir", "jsonl"])
def test_cli_kg_layout_and_rerun_skip(tmp_path, sf_small, capsys, input_format):
    """--output-format kg writes one layout for every input format (shard
    dirs, manifests, ontology/), and a second run into the same directory
    is a full skip that leaves the rows unchanged (the textdir/jsonl sink
    used to append a second copy of every triple).  Both runs print the
    annotate tasks the read was sized to."""
    from phenobert_ray.state.manifest import read_manifests

    src = _kg_input(tmp_path, sf_small, input_format)
    out = str(tmp_path / "kg")
    argv = ["-i", src, "--input-format", input_format, "-o", out,
            "--output-format", "kg", "--shards", "1"]
    assert main(argv) == 0
    (m,) = read_manifests(out)
    rows = _kg_rows(out)
    assert rows == m["row_count"] > 0
    assert os.path.isdir(os.path.join(out, "ontology"))
    assert os.path.isfile(os.path.join(out, "ontology.fingerprint"))
    assert sorted(n for n in os.listdir(out) if n.startswith("shard=")) == ["shard=0"]
    # one annotate task per slot: half the session's 4 CPUs on this path
    assert "'annotate_tasks': 2}" in capsys.readouterr().out
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "'shards_run': 0, 'shards_skipped': 1" in printed
    assert "'annotate_tasks': 0}" in printed
    assert _kg_rows(out) == rows
    assert read_manifests(out) == [m]


def test_cli_kg_textdir_edit_reruns(tmp_path, sf_small):
    """A textdir shard is fingerprinted by the files the loader reads: an
    edited file re-runs the shard and its triples follow the edit."""
    import time

    from phenobert_ray.state.manifest import read_manifests

    src = _kg_input(tmp_path, sf_small, "textdir")
    out = str(tmp_path / "kg")
    argv = ["-i", src, "--input-format", "textdir", "-o", out]
    assert main(argv) == 0
    before = read_manifests(out)[0]["row_count"]
    time.sleep(0.01)
    with open(os.path.join(src, "docD"), "w") as f:
        f.write("Patient has obesity.")
    assert main(argv) == 0
    assert read_manifests(out)[0]["row_count"] == before + 1


def test_cli_kg_jsonl_matches_parquet(tmp_path, sf_small):
    """The same turns as jsonl and as parquet input with --shards 1 give
    the same manifest (row_count, content_hash)."""
    from phenobert_ray.state.manifest import read_manifests

    got = []
    for fmt in ("parquet", "jsonl"):
        out = str(tmp_path / f"kg_{fmt}")
        assert main(["-i", _kg_input(tmp_path, sf_small, fmt),
                     "--input-format", fmt, "-o", out, "--shards", "1"]) == 0
        got.append([(m["row_count"], m["content_hash"])
                    for m in read_manifests(out)])
    assert got[0] == got[1] and got[0][0][0] > 0


class _Resolved(Exception):
    """Stops an entry point right after its set-up."""


@pytest.mark.parametrize("thresholds", [[], ["-p1", "0.9"], ["-p2", "0.5"],
                                        ["-p1", "0.7", "-p2", "0.5"]],
                         ids=["neither", "p1", "p2", "both"])
def test_builtin_thresholds_same_on_cli_and_eval(tmp_path, monkeypatch, thresholds):
    """-m builtin defaults p1/p2 to 0.95/0.9 and an explicit flag always
    wins, one threshold at a time, with the same PipelineConfig from the
    CLI and tools/eval_corpus."""
    import phenobert_ray.assets.loader as loader

    if loader.trained_model_dir() is None:
        pytest.skip("no packaged trained weights")
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "tools"))
    from eval_corpus import main as eval_main

    real, got = loader.resolve_entry, []

    def resolve(*a, **kw):
        got.append(real(*a, **kw)[1])
        raise _Resolved

    monkeypatch.setattr(loader, "resolve_entry", resolve)
    dict_path = tmp_path / "train.txt"
    dict_path.write_text("febrile seizure\tHP:0002373\n")
    flags = ["--model-dir", "builtin", "--dict", str(dict_path), *thresholds]
    with pytest.raises(_Resolved):
        main(["-i", "in", "-o", "out", *flags])
    with pytest.raises(_Resolved):
        eval_main(["corpus", "ann", *flags])
    cli, ev = got
    assert cli == ev
    given = dict(zip(thresholds[::2], map(float, thresholds[1::2])))
    assert (cli.param1, cli.param2) == (given.get("-p1", 0.95),
                                        given.get("-p2", 0.9))
    assert cli.model_dir == loader.trained_model_dir() and cli.use_model_standins


@pytest.mark.parametrize("flag", [["-m", "/nonexistent"],
                                  ["--ner", "/missing.pt"]],
                         ids=["model_dir", "ner"])
def test_missing_weights_path_fails_before_output(tmp_path, capsys, flag):
    """An explicit weights path that does not exist is a one-line error
    (exit 2) raised before the ontology loads: no traceback and nothing
    written to -o."""
    turns = tmp_path / "turns"
    turns.mkdir()
    out = tmp_path / "kg"
    assert main(["-i", str(turns), "-o", str(out), *flag]) == 2
    err = capsys.readouterr().err.strip()
    assert err.endswith("not found: " + flag[1]) and "\n" not in err
    assert not os.path.exists(out / "ontology")


@pytest.mark.parametrize("body,name", [
    ('{"HP:0000118": {"Is_a": []}, "HP:0001250": {"Is_a": ["HP:0000118"]}}', "hpo.json"),
    ("seizure\tnone\n", "train.txt"),
], ids=["hpo_json_without_names", "pairs_without_hp_lines"])
def test_empty_dictionary_fails_before_output(tmp_path, capsys, body, name):
    """A --dict with no phrase to match is a one-line error (exit 2) that
    names the file, raised before anything is written to -o."""
    d = tmp_path / name
    d.write_text(body)
    turns = tmp_path / "turns"
    turns.mkdir()
    out = tmp_path / "kg"
    assert main(["-i", str(turns), "-o", str(out), "--dict", str(d)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(str(d)) and "no phrase" in err and "\n" not in err
    assert not os.path.exists(out)


def test_actor_pool_size_flag_is_a_usage_error(capsys):
    """The annotate stage has one execution path: the actor-pool size
    flag is gone and argparse rejects it (exit 2)."""
    with pytest.raises(SystemExit) as ei:
        main(["-i", "in", "-o", "out", "--concurrency", "2"])
    assert ei.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
