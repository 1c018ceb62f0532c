"""Resumable KG output on disk: atomic table writes for the fragment
partials and the output shards, and the order-insensitive content hash
their manifests carry (``state/manifest``).  The KG job
(``pipelines.annotate.run_kg_job``) builds every table on the driver, so
each write is one ``pyarrow.parquet.write_table`` behind a tmp + rename.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa

from .manifest import PARTIALS_DIR, partial_path

_MASK64 = (1 << 64) - 1


def _content_hash(batches) -> tuple[int, str]:
    import numpy as np
    import pandas as pd

    rows, h = 0, 0
    for batch in batches:
        rows += batch.num_rows
        if batch.num_rows:
            hv = pd.util.hash_pandas_object(
                batch.to_pandas(), index=False).to_numpy(np.uint64)
            # array sums wrap silently; the running total is a Python int
            # masked to 64 bits, so it wraps too but without a warning
            h = (h + int(hv.sum(dtype=np.uint64))) & _MASK64
    return rows, f"{h:016x}"


def table_content_hash(table: pa.Table, cols: list[str]) -> tuple[int, str]:
    """:func:`shard_content_hash` of rows held in memory."""
    return _content_hash(table.select(cols).to_batches())


def shard_content_hash(shard_dir: str, cols: list[str]) -> tuple[int, str]:
    """(row_count, order-insensitive hash) over ``cols`` — SUM mod 2^64 of
    vectorized per-row hashes, so block order never matters.  Sum, not
    XOR: XOR cancels rows with even multiplicity ({R,R,S} ≡ {S}), and the
    per-row hash covers each column separately (hash_pandas_object over
    the frame) so no string-join ambiguity ('a|b','c' vs 'a','b|c').
    Because it is a sum, the hashes of a partition of the rows add up
    (mod 2^64) to the hash of the whole.

    The shard is read on the calling process with ``pyarrow.dataset``,
    one record batch at a time (memory stays bounded by a batch).  Hidden
    files (``.``/``_`` prefixes) are skipped, as Ray's reader skips them."""
    import pyarrow.dataset as pads

    if not os.path.isdir(shard_dir):
        return 0, f"{0:016x}"
    ds = pads.dataset(shard_dir, format="parquet")
    if not ds.files:
        return 0, f"{0:016x}"
    return _content_hash(ds.to_batches(columns=cols))


def write_shard(out_dir: str, shard: int, table: pa.Table) -> None:
    """``table`` as ``out_dir/shard=K/part-0.parquet``: written into a
    hidden tmp dir, then renamed over the old shard dir, so a reader never
    sees a half-written file."""
    import pyarrow.parquet as pq

    tmp = os.path.join(out_dir, f".shard={shard}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    pq.write_table(table, os.path.join(tmp, "part-0.parquet"))
    shard_dir = os.path.join(out_dir, f"shard={shard}")
    shutil.rmtree(shard_dir, ignore_errors=True)
    os.rename(tmp, shard_dir)


def write_partial(out_dir: str, unit: str, table: pa.Table) -> None:
    """A unit's partial as ``_partials/<unit>.parquet`` (tmp + rename)."""
    import pyarrow.parquet as pq

    os.makedirs(os.path.join(out_dir, PARTIALS_DIR), exist_ok=True)
    path = partial_path(out_dir, unit)
    # a fresh name, not a pre-created (mkstemp) file that write_table then
    # truncates and rewrites: with that, each later unlink of a partial
    # took ~45 ms on ext4 (measured; a freshly named file unlinks in ~0)
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
