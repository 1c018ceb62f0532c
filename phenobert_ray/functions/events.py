"""Per-user sessionization of the ``events`` table: a windowed aggregate
expressed as map_batches plus bucketed ``groupby().map_groups`` exchanges
(Ray Data has no native window op).

Not a phenotype query: ``__ray_entry__.queries()`` does not register it
and no KG surface imports this package (tests/test_product_boundary.py).
:func:`queries` and :func:`oracles` pair it with its DuckDB oracle for
tests/test_events.py."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def _from_pandas_clean(df: pd.DataFrame) -> pa.Table:
    """pandas → Arrow without the pandas schema metadata blob (it defeats
    Ray's block-schema dedup and bloats every block header)."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def _default_num_buckets() -> int:
    """P = cluster cores: every bucket is a map_groups task, so more
    buckets than cores only adds scheduling cost."""
    return max(8, int(ray.cluster_resources().get("CPU", 8)))


def _read_events(sf_dir: str, columns=None):
    from ..stages.shuffle import drop_null_rows

    # null contract: incomplete rows dropped at the read (see drop_null_rows)
    return drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=columns or ["event_id", "ts", "user_id", "event_type", "value"],
    ))


def _cents(values) -> np.ndarray:
    """Exact integer cents, floor(x·100 + 0.5) — the tie-rule-proof money
    convention of the oracle.  Every ``value`` sum rides as int64 so distributed accumulation order can
    never perturb the result (a raw double sum diverged from the oracle
    on mixed-magnitude inputs: (1e12 + 0.005) − 1e12 ≠ 0.005).

    NaN (present-but-not-null) and |x| past int64-cent range fail LOUDLY:
    numpy's float→int64 cast silently wraps to INT64_MIN where SQL CAST
    raises, which would be an undetectable divergence."""
    v = np.asarray(values, dtype=np.float64)
    bad = ~np.isfinite(v) | (np.abs(v) > 9.0e16)
    if bad.any():
        raise ValueError(
            f"_cents: {int(bad.sum())} value(s) are NaN/inf or exceed the "
            "int64 cent range (|x| > 9e16); clean the value column upstream")
    return np.floor(v * 100 + 0.5).astype(np.int64)


def sessionize(
    sf_dir: str,
    gap_minutes: int = 30,
    num_buckets: int | None = None,
    split_hours: int | None = 24,
):
    """Per-user sessions with a ``gap_minutes`` inactivity break.

    (user_id, session_idx, n_events, start_ts, end_ts, sum_value_cents).

    Skew story: the exchange key is ``hash(user_id, time_chunk)`` — a
    pathological user with 10^6+ events is spread across time chunks of
    ``split_hours``, so no single bucket ever has to hold all of a hot
    user's raw events.  Local sessionization runs per (user, chunk); a
    second, tiny exchange (SESSION summaries, not events — sessions ≪
    events by construction) merges sessions that straddle chunk
    boundaries with the identical gap rule, which provably reproduces the
    single-pass result (within-chunk sessions are maximal, so only
    boundary gaps ≤ gap merge).  ``split_hours=None`` falls back to the
    one-exchange path (events of one user must then fit a bucket)."""
    P = num_buckets or _default_num_buckets()
    gap = np.timedelta64(gap_minutes * 60 * 1_000_000, "us")
    chunk_us = (split_hours or 1) * 3_600 * 1_000_000

    def bucketize(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["cents"] = _cents(df.pop("value"))
        if split_hours is None:
            key = df["user_id"]
        else:
            df["chunk"] = (df["ts"].astype("int64") // chunk_us).astype("int64")
            key = df[["user_id", "chunk"]]
        df["bucket"] = (
            pd.util.hash_pandas_object(key, index=False).to_numpy() % P
        ).astype("int64")
        return _from_pandas_clean(df)

    def local_sessions(df: pd.DataFrame) -> pd.DataFrame:
        seg_cols = ["user_id"] if split_hours is None else ["user_id", "chunk"]
        df = df.sort_values([*seg_cols, "ts", "event_id"])
        same_seg = (
            df[seg_cols].eq(df[seg_cols].shift()).all(axis=1)
            if len(seg_cols) > 1
            else df["user_id"].eq(df["user_id"].shift())
        )
        brk = (df["ts"].diff() > gap) & same_seg
        seg_keys = (
            [df["user_id"].values, df["chunk"].values]
            if split_hours is not None
            else [df["user_id"].values]
        )
        df["session_idx"] = brk.groupby(seg_keys).cumsum().astype("int64")
        g = df.groupby([*seg_cols, "session_idx"], as_index=False).agg(
            n_events=("event_id", "size"),
            start_ts=("ts", "min"),
            end_ts=("ts", "max"),
            sum_value_cents=("cents", "sum"),
        )
        return g

    local = (
        _read_events(sf_dir)
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(local_sessions, batch_format="pandas")
    )

    if split_hours is None:

        def finish(b: pa.Table) -> pa.Table:
            df = b.to_pandas()
            return _from_pandas_clean(
                df[["user_id", "session_idx", "n_events", "start_ts", "end_ts",
                    "sum_value_cents"]]
            )

        return local.map_batches(finish, batch_format="pyarrow")

    # phase 2: merge boundary-straddling sessions — exchange on user_id only,
    # but over per-session SUMMARY rows (bounded by session count, not events)
    def rebucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["bucket"] = (
            pd.util.hash_pandas_object(df["user_id"], index=False).to_numpy() % P
        ).astype("int64")
        return _from_pandas_clean(df)

    def merge_sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "start_ts", "end_ts"])
        same_user = df["user_id"].eq(df["user_id"].shift())
        prev_end = df["end_ts"].shift()
        brk = ~((df["start_ts"] - prev_end <= gap) & same_user)
        brk.iloc[:1] = True
        df["session_idx"] = (
            brk.groupby(df["user_id"].values).cumsum().astype("int64") - 1
        )
        g = df.groupby(["user_id", "session_idx"], as_index=False).agg(
            n_events=("n_events", "sum"),
            start_ts=("start_ts", "min"),
            end_ts=("end_ts", "max"),
            sum_value_cents=("sum_value_cents", "sum"),
        )
        return g

    return (
        local.map_batches(rebucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(merge_sessions, batch_format="pandas")
    )


def queries():
    return {"sessionize": sessionize}


def oracles():
    return {
        "sessionize": """
        WITH e AS (
          SELECT user_id, event_id, ts, value,
                 CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS brk
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), s AS (
          SELECT user_id, ts, value,
                 sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS session_idx
          FROM e
        )
        SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
               count(*) AS n_events, min(ts) AS start_ts, max(ts) AS end_ts,
               CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                 AS sum_value_cents
        FROM s GROUP BY user_id, session_idx
        """,
    }
