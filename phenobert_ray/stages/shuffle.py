"""Exchange helpers: the read-boundary null contract, the one-block gather
(:func:`in_one_block`) the phenotype analytics run on, and the two-phase
bucketed group-merge that ``functions/events`` still uses.

Ray Data's built-in ``groupby().aggregate()`` reduces per *group* in Python,
which is slow when there are ~as many groups as rows (exactly the shape of
per-conversation dedup).  ``two_phase_groupby`` does the classic combiner
pattern instead:

  1. partial: per-block vectorized pandas groupby (collapses duplicates
     before anything moves) + a coarse ``bucket = hash(key) % P`` column
  2. exchange: ONE shuffle on the small-int bucket key (P distinct values)
  3. merge: per-bucket vectorized pandas groupby (each key's rows are all
     in its bucket, so the merge is globally correct)

P bounds both merge parallelism and per-worker memory: a bucket must fit in
a worker's heap.  Default P = cluster cores (the parallelism FLOOR — see
default_num_buckets); at 100 TB size P so that (total data / P) ≈
100-500 MB.  Hot keys are spread by hashing; a single
pathological key (one conversation with millions of mentions) is already
collapsed to ≤1 row per block by the partial phase — that is the salting
story of SURVEY.md §4.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray


def from_pandas_clean(df: pd.DataFrame) -> pa.Table:
    """pandas → Arrow without the pandas schema metadata blob (it defeats
    Ray's block-schema dedup and bloats every block header)."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


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

    SQL oracles over documents/events assume null-free
    testdata; on null-bearing inputs the engine's contract is engine(T)
    == engine(T with incomplete rows removed) — pinned by
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


# aggregation spec: out_col -> (src_col | None, partial_agg, merge_agg);
# src_col None means "count rows" (partial=size, merge must be "sum")
AggSpec = dict[str, tuple[str | None, str, str]]


def default_num_buckets() -> int:
    """P = cluster cores — the parallelism FLOOR, not a data-size cap.

    Every bucket is a map_groups task, so more buckets than cores only
    adds scheduling cost.  At real scale the events operators must RAISE
    num_buckets so (data / P) fits a worker's heap — the partial phase has
    already collapsed per-block duplicates, so bucket payload is bounded
    by distinct keys, not rows."""
    return max(8, int(ray.cluster_resources().get("CPU", 8)))


def coalesce_for_exchange(ds, est_rows: int, rows_per_block: int = 200_000):
    """Row-proportional block-count cap ahead of a sort-based exchange.

    The sort/groupby exchange's fixed cost scales with input block COUNT
    (measured ~4.3 s on 7.7 k rows spread over 128 read-task blocks at
    sf0.1), so SMALL datasets — bounded by a driver-known row estimate,
    e.g. a parquet footer count times a per-row fan-out — are coalesced
    to ~est_rows/rows_per_block blocks first.  Strictly a small-data
    optimization: when the estimate says the data deserves at least the
    CPU-based default block count this is a NO-OP, so a 100 TB input
    keeps its natural block layout (coalescing big data into few blocks
    would serialize the exchange and blow per-block memory)."""
    want = max(8, -(-int(est_rows) // rows_per_block))
    if want >= default_num_buckets():
        return ds
    return ds.repartition(want)


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


def two_phase_groupby(
    ds,
    keys: list[str],
    aggs: AggSpec,
    num_buckets: int | None = None,
    pre_filter=None,
):
    """Grouped aggregation over ``keys`` with one bucket exchange.

    pre_filter: optional vectorized fn(pandas.DataFrame) -> DataFrame applied
    before the partial groupby (e.g. drop negated rows).
    """
    P = num_buckets or default_num_buckets()
    partial_named = {
        out: (src, pagg) for out, (src, pagg, _) in aggs.items() if src is not None
    }
    count_cols = [out for out, (src, _, _) in aggs.items() if src is None]
    merge_named = {out: (out, magg) for out, (_, _, magg) in aggs.items()}

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if pre_filter is not None:
            df = pre_filter(df)
        if not len(df):
            # typed empty: an empty pandas frame converts object columns
            # to Arrow `null`, emitting mixed/schema-less blocks on
            # all-filtered blocks.  Types come from the incoming Arrow
            # batch; columns the pre_filter derived fall back to their
            # (empty) pandas dtype.
            def atype(col: str):
                if col in batch.schema.names:
                    t = batch.schema.field(col).type
                    return pa.string() if pa.types.is_null(t) else t
                d = df[col].dtype if col in df.columns else None
                if d is not None and d != object:
                    return pa.from_numpy_dtype(d)
                return pa.string()

            fields = [(k_, atype(k_)) for k_ in keys]
            fields += [(out, atype(src))
                       for out, (src, _) in partial_named.items()]
            fields += [(c, pa.int64()) for c in count_cols]
            fields += [("bucket", pa.int64())]
            return pa.schema(fields).empty_table()
        kwargs = dict(partial_named)
        for c in count_cols:
            kwargs[c] = (keys[0], "size")
        # dropna=False: SQL GROUP BY keeps a NULL group; pandas' default
        # silently drops those rows, diverging from the oracles
        g = df.groupby(keys, as_index=False, sort=False, dropna=False).agg(**kwargs)
        # hash the COMPOSITE key (hash_pandas_object over the key frame
        # combines columns per row): bucketing on keys[0] alone sent all
        # of a hot first-key's groups to one bucket even when the full
        # key was high-cardinality
        g["bucket"] = (
            pd.util.hash_pandas_object(g[keys], index=False).to_numpy() % P
        ).astype("int64")
        return from_pandas_clean(g)

    def merge(df: pd.DataFrame) -> pa.Table:
        # emit ARROW blocks: downstream zero-copy ops (Project/rename/join)
        # operate on Arrow and choke on pandas blocks
        out = df.groupby(keys, as_index=False, sort=False,
                         dropna=False).agg(**merge_named)
        return from_pandas_clean(out)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(merge, batch_format="pandas")
    )
