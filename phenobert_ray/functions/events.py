"""Event-stream operators over the ``events`` table: sessionization and
tumbling-window aggregation — the "windowed aggregate" custom-operator case
of the brief (Ray Data has no native window op; both are expressed as
composition of map_batches + one bucketed exchange, per SURVEY.md §2
"Custom operators" option (a)).

Partitioning assumption (documented per the brief): all events of one
``user_id`` fit in one bucket's worth of worker memory — true by
construction for session analytics; pathological single users would need a
secondary time-split."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..stages.shuffle import from_pandas_clean


def _read_events(sf_dir: str, columns=None):
    from ..stages.shuffle import drop_null_rows

    # null contract: incomplete rows dropped at the read (see drop_null_rows)
    return drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=columns or ["event_id", "ts", "user_id", "event_type", "value"],
    ))


def _cents(values) -> np.ndarray:
    """Exact integer cents, floor(x·100 + 0.5) — the repo-wide tie-rule-
    proof money convention (see running_user_spend).  Every ``value`` sum
    in this module rides as int64 so distributed accumulation order can
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
    from ..stages.shuffle import default_num_buckets

    P = num_buckets or default_num_buckets()
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
        return from_pandas_clean(df)

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
            return from_pandas_clean(
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
        return from_pandas_clean(df)

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


def window_agg(sf_dir: str):
    """Tumbling 1-hour windows per event_type:
    (window_start, event_type, n_events, sum_value_cents) — block-local
    partials then the bucketed merge (no raw event ever crosses the
    exchange); value sums ride as exact integer cents (``_cents``)."""
    from ..stages.shuffle import two_phase_groupby

    def add_window(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["window_start"] = df["ts"].dt.floor("h")
        df["cents"] = _cents(df["value"])
        return from_pandas_clean(df[["window_start", "event_type", "cents"]])

    return two_phase_groupby(
        _read_events(sf_dir, ["ts", "event_type", "value"]).map_batches(
            add_window, batch_format="pyarrow"
        ),
        keys=["window_start", "event_type"],
        aggs={
            "n_events": (None, "size", "sum"),
            "sum_value_cents": ("cents", "sum", "sum"),
        },
    )


def hopping_window_agg(sf_dir: str, width_hours: int = 2, hop_hours: int = 1):
    """Sliding/hopping windows (width 2h, hop 1h) per event_type:
    (window_start, event_type, n_events, sum_value_cents) — each event belongs to
    ``width/hop`` overlapping windows.  The replication happens BEFORE the
    block-local partial groupby (combiner), so the exchange still carries
    only per-(window, type) partial rows, never raw events × replicas."""
    from ..stages.shuffle import two_phase_groupby

    n_rep = width_hours // hop_hours

    def replicate(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        base = df["ts"].dt.floor(f"{hop_hours}h")
        cents = _cents(df["value"])
        parts = []
        for k in range(n_rep):
            p = pd.DataFrame(
                {
                    # keep [us]: a bare ns-resolution Timedelta would promote
                    # the column to datetime64[ns]
                    "window_start": (
                        base - pd.Timedelta(hours=hop_hours * k)
                    ).astype("datetime64[us]"),
                    "event_type": df["event_type"],
                    "cents": cents,
                }
            )
            parts.append(p)
        return from_pandas_clean(pd.concat(parts, ignore_index=True))

    return two_phase_groupby(
        _read_events(sf_dir, ["ts", "event_type", "value"]).map_batches(
            replicate, batch_format="pyarrow"
        ),
        keys=["window_start", "event_type"],
        aggs={
            "n_events": (None, "size", "sum"),
            "sum_value_cents": ("cents", "sum", "sum"),
        },
    )


RUN_CHUNK_US = 6 * 3600 * 1_000_000  # per-user time-chunk width


def running_user_spend(sf_dir: str, num_buckets: int | None = None):
    """(event_id, user_id, ts, cents, running_cents) — each user's
    cumulative spend in event order: the distributed per-key WINDOW
    function (``SUM() OVER (PARTITION BY user ORDER BY ts, event_id)``),
    the shape behind running totals, cumulative token budgets, and
    per-conversation position counters.

    The chunked prefix-sum pattern, applied PER KEY: a hot user's
    history never needs one task —
      1. per-(user, time-chunk) partial sums: one combiner exchange,
         ≤ one row per user-chunk;
      2. per-user exclusive chunk offsets: a groupby(user) over those
         partial rows (state bounded by a user's CHUNK count, not event
         count);
      3. one tagged-union bucketed exchange on (user, chunk) — data rows
         ∪ offset rows — each group sorts its chunk locally and adds its
         offset; all cumsums are vectorized pandas groupby-cumsum, no
         Python loop.
    Amounts ride as exact integer cents, so the result hash-matches the
    SQL window oracle."""
    from ..stages.shuffle import default_num_buckets, from_pandas_clean

    P = num_buckets or default_num_buckets()

    def proj(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        ts_us = df["ts"].astype("int64")
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "chunk": (ts_us // RUN_CHUNK_US).astype("int64"),
                "event_id": df["event_id"].astype("int64"),
                "ts_us": ts_us,
                # _cents: same floor(x*100 + 0.5) half-away convention as
                # sessionize/window_agg AND the NaN/overflow loud guard —
                # an inline floor would silently wrap NaN to INT64_MIN
                # while the oracle's CAST raises
                "v": _cents(df["value"]),
                "kind": np.zeros(len(df), dtype=np.int64),
            }
        )
        return from_pandas_clean(out)

    rows = _read_events(
        sf_dir, columns=["event_id", "ts", "user_id", "value"]
    ).map_batches(proj, batch_format="pyarrow").materialize()

    from ..stages.shuffle import (
        coalesce_for_exchange,
        table_rows,
        two_phase_groupby,
    )

    # all three exchanges below are bounded by the events footer count
    # (partial rows ≤ events; offset rows ≤ user-chunks ≤ events);
    # coalesce small inputs ahead of each — no-op at scale
    n_ev = table_rows(sf_dir, "events")

    sums = two_phase_groupby(
        coalesce_for_exchange(
            rows.map_batches(
                lambda b: b.select(["user_id", "chunk", "v"]),
                batch_format="pyarrow",
            ),
            n_ev,
        ),
        keys=["user_id", "chunk"],
        aggs={"s": ("v", "sum", "sum")},
    )

    def user_bucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["ubucket"] = (
            pd.util.hash_pandas_object(df["user_id"], index=False).to_numpy()
            % P
        ).astype("int64")
        return from_pandas_clean(df)

    def offsets(df: pd.DataFrame):
        # ONE vectorized call per BUCKET of users (grouped cumsum), not one
        # per user: groupby(user).map_groups here cost ~2.5ms of Python per
        # 3-row group — 157s of remote wall at 1M events (--events-scale
        # profile); the bucketed form is ~P calls total
        df = df.sort_values(["user_id", "chunk"])
        off = df.groupby("user_id", sort=False)["s"].cumsum() - df["s"]
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "chunk": df["chunk"].astype("int64"),
                "event_id": np.zeros(len(df), dtype=np.int64),
                "ts_us": np.zeros(len(df), dtype=np.int64),
                "v": off.astype("int64"),
                "kind": np.ones(len(df), dtype=np.int64),
            }
        )
        return from_pandas_clean(out)

    offs = (
        coalesce_for_exchange(
            sums.map_batches(user_bucket, batch_format="pyarrow"), n_ev)
        .groupby("ubucket")
        .map_groups(offsets, batch_format="pandas")
    )

    def bucketize(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        # hash the COMPOSITE (user, chunk) key frame — row-wise combined,
        # vectorized (the two_phase_groupby convention).  A previous
        # version built "user|chunk" STRINGS per row: ~half this stage's
        # wall-time at 1M+ events, measured by --events-scale.
        df["bucket"] = (
            pd.util.hash_pandas_object(
                df[["user_id", "chunk"]], index=False
            ).to_numpy()
            % P
        ).astype("int64")
        return from_pandas_clean(df)

    tagged = coalesce_for_exchange(
        rows.map_batches(bucketize, batch_format="pyarrow").union(
            offs.map_batches(bucketize, batch_format="pyarrow")
        ),
        2 * n_ev,
    )

    def apply(df: pd.DataFrame):
        d = df[df["kind"] == 0].sort_values(["user_id", "chunk", "ts_us", "event_id"])
        if d.empty:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "cents": pa.array([], pa.int64()),
                    "running_cents": pa.array([], pa.int64()),
                }
            )
        run = d.groupby(["user_id", "chunk"], sort=False)["v"].cumsum()
        # SQL RANGE-frame tie semantics: rows tied on the full ORDER BY key
        # (ts AND event_id — duplicate event ids happen in re-ingested
        # streams) are window PEERS and all see the sum THROUGH the last
        # peer; the plain row-cumsum gave each tied row a different
        # running total (engine vs oracle divergence, review r4 w9).
        # Within a tie group the cumsum is increasing, so peer-max = the
        # RANGE value; tie groups are singletons on healthy data.
        run = run.groupby(
            [d["user_id"].to_numpy(), d["chunk"].to_numpy(),
             d["ts_us"].to_numpy(), d["event_id"].to_numpy()], sort=False
        ).transform("max").to_numpy()
        # align chunk offsets onto the sorted data rows with a hash merge
        # (a MultiIndex reindex here was the other measured hot spot)
        om = df.loc[df["kind"] == 1, ["user_id", "chunk", "v"]].rename(
            columns={"v": "off"}
        )
        # nullable Int64 through the left merge — DEFENSIVE: the offsets
        # exchange emits a row for every data chunk, so the fillna path
        # never fires today, but one unmatched row would promote the whole
        # column to float64 and corrupt running totals above 2⁵³ cents by
        # ±1.
        # Exactness past 2⁵³ is pinned end-to-end by
        # test_running_user_spend_exact_beyond_float53.
        om["off"] = om["off"].astype("Int64")
        off = (
            d[["user_id", "chunk"]]
            .merge(om, on=["user_id", "chunk"], how="left")["off"]
            .fillna(0)
            .to_numpy(dtype=np.int64)
        )
        out = pd.DataFrame(
            {
                "event_id": d["event_id"].to_numpy(),
                "user_id": d["user_id"].to_numpy(),
                "ts": d["ts_us"].to_numpy().astype("datetime64[us]"),
                "cents": d["v"].to_numpy(),
                "running_cents": run + off,
            }
        )
        return from_pandas_clean(out)

    return tagged.groupby("bucket").map_groups(apply, batch_format="pandas")


def compact_latest_events(sf_dir: str, num_buckets: int | None = None):
    """(user_id, event_type, event_id, ts, value) — keep only the LATEST
    event per (user, type): the upsert/compaction operator of incremental
    ingestion (Hudi/Delta-style "merge latest version by key"), run as a
    batch job.  Ties on ts break to the larger event_id (deterministic,
    mirrored in SQL).

    Classic combiner exchange: each block keeps its best row per key
    BEFORE anything moves (a hot user's million stale versions collapse
    to ≤ |event types| rows per block), then one bucket exchange merges
    per-key winners.  Only winning rows ever cross the wire."""
    from ..stages.shuffle import default_num_buckets, from_pandas_clean

    P = num_buckets or default_num_buckets()

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_type", "ts", "event_id"])
        return df.groupby(["user_id", "event_type"], as_index=False).tail(1)

    def partial(df: pd.DataFrame):
        g = best(df).copy()
        g["bucket"] = (
            pd.util.hash_pandas_object(g["user_id"], index=False).to_numpy() % P
        ).astype("int64")
        return from_pandas_clean(g)

    def merge(df: pd.DataFrame):
        out = best(df)[["user_id", "event_type", "event_id", "ts", "value"]].copy()
        out["ts"] = out["ts"].astype("datetime64[us]")  # the [us] footgun
        return from_pandas_clean(out)

    return (
        _read_events(sf_dir)
        .map_batches(partial, batch_format="pandas")
        .groupby("bucket")
        .map_groups(merge, batch_format="pandas")
    )


def queries():
    return {"sessionize": sessionize, "window_agg": window_agg,
            "hopping_window_agg": hopping_window_agg,
            "props_stats": props_stats,
            "compact_latest_events": compact_latest_events,
            "running_user_spend": running_user_spend}


def oracles():
    return {
        "running_user_spend": """
        SELECT event_id, user_id, ts,
               CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
               CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                    OVER (PARTITION BY user_id ORDER BY ts, event_id)
                 AS BIGINT) AS running_cents
        FROM events
        """,
        "compact_latest_events": """
        SELECT user_id, event_type, event_id, ts, value FROM (
          SELECT user_id, event_type, event_id, ts, value,
                 row_number() OVER (PARTITION BY user_id, event_type
                                    ORDER BY ts DESC, event_id DESC) AS rn
          FROM events
        ) WHERE rn = 1
        """,
        "props_stats": """
        SELECT event_type, count(*) AS n,
               CAST(sum(CAST(regexp_extract(props, '[0-9]+') AS BIGINT)) AS BIGINT) AS sum_k,
               CAST(max(CAST(regexp_extract(props, '[0-9]+') AS BIGINT)) AS BIGINT) AS max_k
        FROM events
        WHERE regexp_matches(props, '[0-9]+')
        GROUP BY event_type
        """,
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
        "window_agg": """
        SELECT date_trunc('hour', ts) AS window_start, event_type,
               count(*) AS n_events,
               CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                 AS sum_value_cents
        FROM events GROUP BY 1, 2
        """,
        "hopping_window_agg": """
        SELECT date_trunc('hour', ts) - k.k * INTERVAL 1 HOUR AS window_start,
               event_type,
               count(*) AS n_events,
               CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
                 AS sum_value_cents
        FROM events, (VALUES (0), (1)) k(k)
        GROUP BY 1, 2
        """,
    }


def props_stats(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` column
    (``{"k": <int>}``) and aggregate per event_type —
    (event_type, n, sum_k, max_k).  Vectorized regex extraction per block +
    the bucketed merge."""
    from ..stages.shuffle import two_phase_groupby

    from ..stages.shuffle import drop_null_rows

    ds = drop_null_rows(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]))

    def extract(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        k = df["props"].str.extract(r"(\d+)", expand=False)
        # digit-free props ('{}', '{"k": null}', junk) extract to NaN:
        # unparsable rows are dropped from the aggregate entirely (the
        # oracle filters on regexp_matches identically) — astype on the
        # unfiltered column crashed the whole query on one bad row
        keep = k.notna()
        return pa.table(
            {
                "event_type": pa.array(
                    df.loc[keep, "event_type"], pa.string()
                ),
                "k": pa.array(
                    k[keep].astype("int64").to_numpy(), pa.int64()
                ),
            }
        )

    return two_phase_groupby(
        ds.map_batches(extract, batch_format="pyarrow"),
        keys=["event_type"],
        aggs={
            "n": (None, "size", "sum"),
            "sum_k": ("k", "sum", "sum"),
            "max_k": ("k", "max", "max"),
        },
    )
