"""Sources S1/S3/S5 (SURVEY.md §2.1): corpus/gold/dictionary readers.

These read the reference's own test inputs (corpus + expert gold
annotations + the name/synonym dictionary dump) for the conformance
harness.  Formats per /root/reference/phenobert/utils/eval_all.py:89-108
and models/train.txt.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa

from ..textops import sentence_spans


def read_text_dir_as_turns(corpus_dir: str, sentences_per_turn: int = 3) -> pa.Table:
    """S1: directory-of-text-files → turns table (input_hint shape).

    Each document becomes one conversation; sentence groups become turns
    (split points are sentence boundaries, so no candidate segment ever
    crosses a turn — the distribution-invariance the E2E test checks).
    """
    convs, tidxs, roles, texts, tools, tss = [], [], [], [], [], []
    epoch = 1767225600000000  # 2026-01-01 in µs
    for i, name in enumerate(sorted(os.listdir(corpus_dir))):
        with open(os.path.join(corpus_dir, name), encoding="utf-8") as f:
            doc = f.read()
        spans = sentence_spans(doc)
        if not spans:
            continue
        groups = [
            spans[g:g + sentences_per_turn]
            for g in range(0, len(spans), sentences_per_turn)
        ]
        for t, grp in enumerate(groups):
            convs.append(name)
            tidxs.append(t)
            roles.append("user" if t % 2 == 0 else "assistant")
            texts.append(doc[grp[0][0]:grp[-1][1]])
            tools.append("")
            tss.append(epoch + i * 1_000_000 + t)
    return pa.table(
        {
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array(tidxs, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array(tools, pa.string()),
            "ts": pa.array(tss, pa.timestamp("us")),
        }
    )


_GSC_LINE = re.compile(r"\[(\d+)::(\d+)\]\t(HP_\d+) \| (.*)")


def read_gold_gsc(ann_dir: str) -> pa.Table:
    """S3a: GSC+ gold ``[s::e]\\tHP_x | text`` (eval_all.py:93-97)."""
    rows = []
    for name in sorted(os.listdir(ann_dir)):
        with open(os.path.join(ann_dir, name), encoding="utf-8") as f:
            for line in f:
                m = _GSC_LINE.match(line.strip())
                if m:
                    rows.append(
                        (name, int(m.group(1)), int(m.group(2)),
                         m.group(4), m.group(3).replace("HP_", "HP:"))
                    )
    return _gold_table(rows)


def read_gold_tsv(ann_dir: str) -> pa.Table:
    """S3b: ID-68/GeneReviews/val gold ``s\\te\\ttext\\tHP:x``
    (eval_all.py:98-100)."""
    rows = []
    for name in sorted(os.listdir(ann_dir)):
        with open(os.path.join(ann_dir, name), encoding="utf-8") as f:
            for line in f:
                parts = line.rstrip("\n").split("\t")
                if len(parts) >= 4 and parts[3].startswith("HP:"):
                    rows.append((name, int(parts[0]), int(parts[1]), parts[2], parts[3]))
    return _gold_table(rows)


def _gold_table(rows) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "start": pa.array([r[1] for r in rows], pa.int32()),
            "end": pa.array([r[2] for r in rows], pa.int32()),
            "mention": pa.array([r[3] for r in rows], pa.string()),
            "hpo_id": pa.array([r[4] for r in rows], pa.string()),
        }
    )


def read_phrase_pairs(path: str) -> list[tuple[str, str]]:
    """S5: ``phrase\\tHPO`` pairs (format of models/train.txt — the
    name+synonym dump the reference's dictionary is built from)."""
    pairs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 2 and parts[1].startswith("HP:"):
                pairs.append((parts[0], parts[1]))
    return pairs


def write_turns_jsonl(turns_ds, out_dir: str) -> None:
    """Turns → newline-delimited JSON shards (the interchange format
    agent-transcript dumps usually arrive in).  Streaming Ray sink —
    one shard per block, resumable like the parquet sinks."""
    import pyarrow as pa_

    def ts_to_us(b: pa_.Table) -> pa_.Table:
        import pyarrow.compute as pc

        # epoch microseconds: JSON has no timestamp type; lossless int
        return b.set_column(
            b.schema.get_field_index("ts"),
            "ts_us",
            pc.cast(b.column("ts"), pa_.int64()),
        )

    turns_ds.map_batches(ts_to_us, batch_format="pyarrow").write_json(out_dir)


def read_turns_jsonl(in_dir, num_blocks: int | None = None):
    """JSONL shards → turns Dataset with the exact input_hint schema
    (conv_id, turn_idx:int32, role, text, tool, ts:timestamp[us]) —
    column-typed on read, so downstream stages see the same Arrow schema
    as the parquet path (roundtrip pinned in tests).  ``num_blocks`` is
    Ray's ``override_num_blocks`` (None: Ray chooses)."""
    import pyarrow as pa_
    import ray as _ray

    ds = _ray.data.read_json(in_dir, override_num_blocks=num_blocks)

    def fix_types(b: pa_.Table) -> pa_.Table:
        import pyarrow.compute as pc

        out = pa_.table(
            {
                "conv_id": pc.cast(b.column("conv_id"), pa_.string()),
                "turn_idx": pc.cast(b.column("turn_idx"), pa_.int32()),
                "role": pc.cast(b.column("role"), pa_.string()),
                "text": pc.cast(b.column("text"), pa_.string()),
                "tool": pc.cast(
                    pc.fill_null(b.column("tool"), ""), pa_.string()
                ),
                "ts": pc.cast(
                    pc.cast(b.column("ts_us"), pa_.int64()),
                    pa_.timestamp("us"),
                ),
            }
        )
        return out

    return ds.map_batches(fix_types, batch_format="pyarrow")
