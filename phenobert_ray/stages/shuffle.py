"""Exchange helpers: the read-boundary null contract
(:func:`drop_null_rows`, :func:`valid_rows`), the footer-only row count
the empty-input guards read (:func:`table_rows`), and the one-block gather
(:func:`in_one_block`) the phenotype analytics run on.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray


def drop_null_rows(ds, columns=None):
    """Null contract at the read boundary: a row with a NULL in any of the
    columns an operator projected is DROPPED before compute.

    Real transcript parquet carries nulls (missing text, absent conv
    id); without this every pandas `.str`/astype kernel downstream
    crashes the whole pipeline on one bad row.  Dropping the incomplete
    row is what production curation pipelines do, and because operators
    project ONLY the columns they need at the read, a null in an unused
    column never discards the row.  One vectorized Arrow kernel per block
    (`Table.drop_null`), zero-copy in, fused into the read.

    SQL oracles over documents assume null-free testdata; on
    null-bearing inputs the engine's contract is engine(T) == engine(T
    with incomplete rows removed) — pinned by
    tests/test_adversarial_regressions.py.

    ``columns``: restrict the null check to these columns (for readers
    that project more than the operator strictly requires — e.g. a jsonl
    turns read keeps every field, but only conv_id / turn_idx / text are
    load-bearing; a NULL ``tool`` must not drop a valid turn).

    Both branches also strip the schema metadata: pandas-written parquet
    carries a ``b'pandas'`` metadata dict that Ray's ``unify_schemas``
    cannot hash, so every downstream exchange logged "Failed to hash the
    schemas" once per read."""
    if columns is None:
        return ds.map_batches(
            lambda t: t.drop_null().replace_schema_metadata(None),
            batch_format="pyarrow")

    cols = list(columns)

    def f(t: pa.Table) -> pa.Table:
        return valid_rows(t, cols)

    return ds.map_batches(f, batch_format="pyarrow")


def valid_rows(t: pa.Table, columns) -> pa.Table:
    """The rows of ``t`` with no NULL in ``columns``, without schema
    metadata: :func:`drop_null_rows`' kernel, for readers that apply the
    contract inside their own read task."""
    import pyarrow.compute as pc

    keep = None
    for c in columns:
        v = pc.is_valid(t.column(c))
        keep = v if keep is None else pc.and_(keep, v)
    return t.filter(keep).replace_schema_metadata(None)


def table_rows(sf_dir: str, table: str) -> int:
    """Footer-only row count of ``{sf_dir}/{table}.parquet`` (file or
    fragment directory) — no column data is read.  Used by the
    empty-input guards: Ray cannot type a dataset whose every block is
    empty (``map_batches`` never runs on an empty block), so queries
    short-circuit zero-row inputs with an explicit typed empty result."""
    import glob
    import os

    import pyarrow.parquet as pq

    p = f"{sf_dir}/{table}.parquet"
    paths = [p] if os.path.isfile(p) else sorted(
        glob.glob(os.path.join(p, "*.parquet")))
    if not paths:
        # a typo'd sf_dir / missing table must be an ERROR, not a
        # well-typed empty query result via _guard_empty
        raise FileNotFoundError(
            f"table_rows: no parquet file or fragment at {p}")
    return sum(pq.ParquetFile(f).metadata.num_rows for f in paths)


def _marker(ds, in_schema: pa.Schema):
    """One all-null row in the schema and block format of ``ds``'s blocks:
    the plan's own when it knows them without running, else ``in_schema``
    (Ray cannot gather Arrow and pandas blocks into one)."""
    known = ds.schema(fetch_if_missing=False)
    base = in_schema if known is None else known.base_schema
    if isinstance(base, pa.Schema):
        return ray.data.from_arrow(pa.Table.from_arrays(
            [pa.nulls(1, f.type) for f in base], schema=base))
    return ray.data.from_pandas(pd.DataFrame({n: [None] for n in base.names}))


def _drop_null_row(b: pa.Table) -> pa.Table:
    """``b`` without one row whose every column is null: the gather's
    marker (any such row of the input is indistinguishable from it)."""
    import numpy as np
    import pyarrow.compute as pc

    valid = pc.is_valid(b.column(0))
    for c in b.columns[1:]:
        valid = pc.or_(valid, pc.is_valid(c))
    i = int(np.flatnonzero(~valid.to_numpy(zero_copy_only=False))[0])
    return pa.concat_tables([b.slice(0, i), b.slice(i + 1)])


def _apply_cast(b: pa.Table, fn, schema: pa.Schema, kwargs: dict) -> pa.Table:
    b = _drop_null_row(b)
    if not b.num_rows:
        return schema.empty_table()
    return fn(b, **kwargs).cast(schema)


def in_one_block(ds, in_schema: pa.Schema, fn, schema: pa.Schema, /, **kwargs):
    """``fn(table, **kwargs)`` over the whole of ``ds`` gathered into one
    Arrow block by ``repartition(1)``, run as one task, its result cast to
    ``schema``.  No shuffle: the gather moves every block once.

    The result is exactly one block, typed even with zero rows (``fn`` is
    then not called).  Ray skips a map over a zero-row block and emits a
    column-less one, so the gather always holds one all-null marker row
    (:func:`_marker`), which the task drops.  ``in_schema`` is the schema
    of ``ds``'s blocks; a marker of another schema works, but Ray logs the
    change.

    Memory contract: all of ``ds`` fits in one block, so feed it
    vocabulary-bounded tables (a distinct-pair table, an edge list), not
    raw rows."""
    return ds.union(_marker(ds, in_schema)).repartition(1).map_batches(
        _apply_cast, batch_format="pyarrow", batch_size=None,
        fn_kwargs={"fn": fn, "schema": schema, "kwargs": kwargs})
