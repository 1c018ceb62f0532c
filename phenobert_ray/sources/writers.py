"""S2: sinks.

- ``write_annotations_parquet``: the production sink (partitioned, ordered).
- ``write_annotations_tsv``: conformance export in the reference's exact
  per-document TSV format ``start\\tend\\tmention\\thpo\\tscore[\\tNeg]``
  (util.py:1199-1213, one file per conv_id like the reference's one file
  per input doc) — used for diffing against reference outputs only.
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd

from ..linker import tsv_line


def safe_filename(conv_id: str) -> str:
    """Map an untrusted conv_id to a safe basename, deterministically.

    Transcript conv_ids are data, not trusted path components: ``a/b``
    crashes ``open()``, ``../x`` ESCAPES the output directory, and ``.``/
    ``..``/empty are not valid filenames.  Every byte outside
    ``[A-Za-z0-9._-]`` is percent-encoded (UTF-8); any id that needed
    encoding — or that sanitizes to a reserved/empty name — gets an
    8-hex blake2b suffix of the ORIGINAL id so two hostile ids can never
    collide after encoding."""
    s = str(conv_id)
    enc = "".join(
        c if c.isascii() and (c.isalnum() or c in "._-") else
        "".join(f"%{b:02X}" for b in c.encode("utf-8"))
        for c in s
    )
    if enc == s and enc not in ("", ".", ".."):
        return enc
    tag = hashlib.blake2b(s.encode("utf-8"), digest_size=4).hexdigest()
    return f"{enc}-{tag}" if enc not in ("", ".", "..") else f"conv-{tag}"


def ordered_annotations(annotations_ds):
    """L8 + north-rule ordering: global sort on (conv_id, turn_idx, start).
    Only for final materialization — sorting is an all-to-all."""
    return annotations_ds.sort(["conv_id", "turn_idx", "start"])


def write_annotations_parquet(annotations_ds, out_dir: str) -> None:
    ordered_annotations(annotations_ds).write_parquet(out_dir)


def write_annotations_tsv(annotations_ds, out_dir: str) -> int:
    """One TSV per conv_id; returns file count.  Streams via iter_batches —
    per-conv fan-in happens driver-side only because conformance corpora
    are small; not a production path."""
    os.makedirs(out_dir, exist_ok=True)
    frames = [
        b for b in ordered_annotations(annotations_ds).iter_batches(
            batch_format="pandas", batch_size=4096
        )
    ]
    if not frames:
        return 0
    df = pd.concat(frames)
    n = 0
    for conv_id, g in df.groupby("conv_id", sort=True):
        with open(os.path.join(out_dir, safe_filename(conv_id)), "w",
                  encoding="utf-8") as f:
            f.writelines(tsv_line(r.start, r.end, r.mention, r.hpo_id, r.score, r.negated)
                         for r in g.itertuples())
        n += 1
    return n
