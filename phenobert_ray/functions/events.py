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


def range_join(
    sf_dir: str,
    window_hours: int = 6,
    num_buckets: int | None = None,
):
    """Interval/range join (the brief's third custom-operator case beside
    as-of join and windowed aggregate — Ray Data has no non-equi join):
    every ``purchase`` opens an attribution window ``(ts, ts + W]``; count
    and value-sum the same user's ``view`` events inside it.

    Output: (event_id, user_id, ts, n_views, sum_view_cents) — one row per
    purchase, zero-match purchases included; view-value sums in exact
    integer cents (``_cents``).

    Scale shape: both sides exchange ONCE on ``hash(user_id, time_chunk)``
    with chunk length = W, so a purchase's window overlaps at most two
    chunks — the purchase row is replicated to exactly those two (≤2×
    replication, independent of data size), views are never replicated,
    and a hot user's events stay spread across time chunks (same skew
    story as sessionize).  Within a bucket the match is a vectorized
    searchsorted over (user, chunk)-grouped view timestamps with a cumsum
    for the value sums — never a cross product.  A second, tiny exchange
    (≤2 partial rows per purchase) merges the two replicas' partials."""
    from ..stages.shuffle import default_num_buckets, two_phase_groupby

    P = num_buckets or default_num_buckets()
    w_us = window_hours * 3_600 * 1_000_000

    def bucketize(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["event_type"].isin(["purchase", "view"])]
        ts_int = df["ts"].astype("int64")
        chunk = (ts_int // w_us).astype("int64")
        views = df[df["event_type"] == "view"]
        buys = df[df["event_type"] == "purchase"]
        parts = [
            pd.DataFrame(
                {
                    "event_id": views["event_id"].astype("int64"),
                    "user_id": views["user_id"].astype("int64"),
                    "ts": views["ts"],
                    "cents": _cents(views["value"]),
                    "tchunk": chunk[views.index],
                    "side": np.int64(1),
                }
            )
        ]
        # replicate each purchase into the two chunks its window can touch
        for off in (0, 1):
            parts.append(
                pd.DataFrame(
                    {
                        "event_id": buys["event_id"].astype("int64"),
                        "user_id": buys["user_id"].astype("int64"),
                        "ts": buys["ts"],
                        "cents": np.int64(0),
                        "tchunk": chunk[buys.index] + off,
                        "side": np.int64(0),
                    }
                )
            )
        out = pd.concat(parts, ignore_index=True)
        out["bucket"] = (
            pd.util.hash_pandas_object(
                out[["user_id", "tchunk"]], index=False
            ).to_numpy()
            % P
        ).astype("int64")
        return from_pandas_clean(out)

    def local_match(df: pd.DataFrame) -> pd.DataFrame:
        buys = df[df["side"] == 0]
        empty = pd.DataFrame(
            {
                "event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "ts": pd.Series([], dtype="datetime64[us]"),
                "n_views": pd.Series([], dtype="int64"),
                "sv": pd.Series([], dtype="int64"),
            }
        )
        if buys.empty:
            return empty
        views = df[df["side"] == 1]
        ts_all = df["ts"].astype("int64").to_numpy()
        tmin = int(ts_all.min())
        span = int(ts_all.max()) - tmin + w_us + 2
        # group id per (user, chunk): views carry their OWN chunk, purchase
        # replicas their TARGET chunk — hash collisions between different
        # (user, chunk) pairs in one bucket cannot cross-count
        keys = df[["user_id", "tchunk"]].to_numpy(dtype=np.int64)
        _, gid = np.unique(keys, axis=0, return_inverse=True)
        n_groups = int(gid.max()) + 1 if len(gid) else 0
        if n_groups * span >= 2 ** 63:
            # the composite searchsorted key gid*span + ts would wrap
            # int64 and silently cross-match other groups' windows
            # (review r4) — fail loudly; more buckets shrink both factors
            raise ValueError(
                f"range_join: composite key overflow ({n_groups} groups × "
                f"span {span} µs ≥ 2^63) — raise num_buckets so each "
                f"bucket holds fewer groups / a narrower time span")
        gid_b = gid[(df["side"] == 0).to_numpy()]
        gid_v = gid[(df["side"] == 1).to_numpy()]
        b_ts = buys["ts"].astype("int64").to_numpy() - tmin
        v_ts = views["ts"].astype("int64").to_numpy() - tmin
        order = np.lexsort((v_ts, gid_v))
        vkeys = gid_v[order] * span + v_ts[order]
        # int64 cents prefix sum: cs[hi]-cs[lo] is exact (a float cumsum
        # here lost sub-cent digits next to 1e12-scale view values)
        cs = np.concatenate(
            ([np.int64(0)],
             np.cumsum(views["cents"].to_numpy(dtype=np.int64)[order]))
        )
        lo = np.searchsorted(vkeys, gid_b * span + b_ts, side="right")
        hi = np.searchsorted(vkeys, gid_b * span + b_ts + w_us, side="right")
        return pd.DataFrame(
            {
                "event_id": buys["event_id"].to_numpy(),
                "user_id": buys["user_id"].to_numpy(),
                "ts": buys["ts"].to_numpy(),
                "n_views": (hi - lo).astype("int64"),
                "sv": (cs[hi] - cs[lo]).astype("int64"),
            }
        )

    partials = (
        _read_events(sf_dir)
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(local_match, batch_format="pandas")
    )

    merged = two_phase_groupby(
        partials,
        keys=["event_id"],
        aggs={
            "user_id": ("user_id", "max", "max"),
            "ts": ("ts", "max", "max"),
            "n_views": ("n_views", "sum", "sum"),
            "sv": ("sv", "sum", "sum"),
        },
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_view_cents"] = df["sv"].astype("int64")
        return df[["event_id", "user_id", "ts", "n_views", "sum_view_cents"]]

    from ..stages.shuffle import typed_result

    return typed_result(merged.map_batches(finish, batch_format="pandas"),
                        pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                                   ("ts", pa.timestamp("us")), ("n_views", pa.int64()),
                                   ("sum_view_cents", pa.int64())]))


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
                    # the column to datetime64[ns] (same footgun as asof)
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
         ∪ offset rows, the CC join shape — each group sorts its chunk
         locally and adds its offset; all cumsums are vectorized pandas
         groupby-cumsum, no Python loop.
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
            "asof_join": asof_join, "range_join": range_join,
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
        "asof_join": """
        WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
        v AS (SELECT event_id AS view_event_id, user_id, ts AS view_ts
              FROM events WHERE event_type = 'view'),
        j AS (
          SELECT p.event_id, p.user_id, p.ts, v.view_event_id, v.view_ts,
                 row_number() OVER (PARTITION BY p.event_id
                                    ORDER BY v.view_ts DESC, v.view_event_id DESC) AS rn
          FROM p JOIN v ON v.user_id = p.user_id AND v.view_ts < p.ts
        )
        SELECT p.event_id, p.user_id, p.ts,
               coalesce(j.view_event_id, -1) AS view_event_id, j.view_ts
        FROM p LEFT JOIN (SELECT * FROM j WHERE rn = 1) j USING (event_id, user_id, ts)
        """,
        "range_join": """
        SELECT p.event_id, p.user_id, p.ts,
               count(v.event_id) AS n_views,
               CAST(coalesce(sum(CAST(floor(v.value * 100 + 0.5) AS BIGINT)), 0)
                    AS BIGINT) AS sum_view_cents
        FROM events p
        LEFT JOIN events v
          ON v.user_id = p.user_id AND v.event_type = 'view'
         AND v.ts > p.ts AND v.ts <= p.ts + INTERVAL 6 HOUR
        WHERE p.event_type = 'purchase'
        GROUP BY p.event_id, p.user_id, p.ts
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


_ASOF_EMPTY = {
    "event_id": "int64",
    "user_id": "int64",
    "ts": "datetime64[us]",
    "view_event_id": "int64",
    "view_ts": "datetime64[us]",
}


def _asof_empty() -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in _ASOF_EMPTY.items()})


def asof_join(
    sf_dir: str,
    num_buckets: int | None = None,
    split_hours: int | None = 24,
):
    """As-of join (custom operator per the brief — Ray Data has none):
    for each ``purchase`` event, the latest strictly-prior ``view`` event of
    the same user.  Within a bucket the join is a vectorized sorted-merge
    (``pandas.merge_asof``) — never a cross product.  Output: (event_id,
    user_id, ts, view_event_id, view_ts); purchases with no prior view get
    the -1/null sentinel.

    Skew story (same as sessionize): the event exchange is keyed on
    ``hash(user_id, time_chunk)`` so a hot user's events never land in one
    bucket.  Phase 1 resolves purchases against views of the SAME chunk;
    the leftovers (no in-chunk prior view) are joined in phase 2 against
    per-(user, chunk) last-view SUMMARIES (one row per chunk with views —
    bounded by chunk count, not events).  A same-chunk view earlier than
    the purchase always beats any earlier-chunk view, so the two-phase
    result is identical to the single-pass join.  ``split_hours=None``
    falls back to the one-exchange path."""
    from ..stages.shuffle import default_num_buckets

    P = num_buckets or default_num_buckets()
    chunk_us = (split_hours or 1) * 3_600 * 1_000_000

    def bucketize(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["event_type"].isin(["purchase", "view"])].copy()
        if split_hours is None:
            df["chunk"] = 0
            key = df["user_id"]
        else:
            df["chunk"] = (df["ts"].astype("int64") // chunk_us).astype("int64")
            key = df[["user_id", "chunk"]]
        df["bucket"] = (
            pd.util.hash_pandas_object(key, index=False).to_numpy() % P
        ).astype("int64")
        return from_pandas_clean(
            df[["event_id", "ts", "user_id", "event_type", "chunk", "bucket"]]
        )

    def local_join(df: pd.DataFrame) -> pd.DataFrame:
        """Matched purchases (side 0) + unmatched purchases (side 1) +
        per-(user, chunk) last-view summaries (side 2)."""
        left = df[df.event_type == "purchase"].sort_values(["ts", "event_id"])
        right = (
            df[df.event_type == "view"]
            .sort_values(["ts", "event_id"])
            .rename(columns={"event_id": "view_event_id", "ts": "view_ts"})
        )
        parts = []
        if not left.empty:
            j = pd.merge_asof(
                left[["event_id", "user_id", "chunk", "ts"]],
                right[["view_event_id", "user_id", "chunk", "view_ts"]],
                left_on="ts",
                right_on="view_ts",
                by=["user_id", "chunk"],
                direction="backward",
                allow_exact_matches=False,
            )
            matched = j["view_ts"].notna()
            m = j[matched].copy()
            m["side"] = 0
            u = j[~matched].copy()
            u["view_event_id"] = -1
            u["side"] = 1
            parts += [m, u]
        if not right.empty:
            s = right.groupby(["user_id", "chunk"], as_index=False).tail(1).copy()
            s["event_id"] = -1
            # keep timestamp unit us: bare pd.NaT assignment would create an
            # [ns] column and poison the block schema on concat
            s["ts"] = pd.Series(pd.NaT, index=s.index, dtype="datetime64[us]")
            s["side"] = 2
            parts.append(s[["event_id", "user_id", "chunk", "ts",
                            "view_event_id", "view_ts", "side"]])
        if not parts:
            e = _asof_empty()
            e["chunk"] = pd.Series([], dtype="int64")
            e["side"] = pd.Series([], dtype="int64")
            return e
        out = pd.concat(parts, ignore_index=True)
        out["view_event_id"] = out["view_event_id"].astype("int64")
        return out[["event_id", "user_id", "chunk", "ts",
                    "view_event_id", "view_ts", "side"]]

    local = (
        _read_events(sf_dir, ["event_id", "ts", "user_id", "event_type"])
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(local_join, batch_format="pandas")
    )

    if split_hours is None:
        # true one-exchange path: chunk is constant 0, so phase 1 already
        # resolved every purchase against ALL of its user's views
        def finish(df: pd.DataFrame) -> pd.DataFrame:
            df = df[df["side"] != 2]
            if df.empty:
                return _asof_empty()
            out = df[["event_id", "user_id", "ts", "view_event_id", "view_ts"]].copy()
            out["view_event_id"] = out["view_event_id"].astype("int64")
            return out

        return local.map_batches(finish, batch_format="pandas")

    def rebucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        # Only side-1 (unmatched purchases) and side-2 (chunk summaries)
        # need user_id co-location for the phase-2 merge.  Side-0 rows
        # (purchases already resolved in-chunk — potentially the bulk of a
        # hot user's volume) are pure pass-through, so they spread by
        # event_id hash: the phase-2 exchange stays linear AND skew-free
        # even when one user dominates the corpus.  (Routing side-0 around
        # the exchange via union would re-execute the whole phase-1
        # pipeline a second time or force a mid-pipeline materialize;
        # spreading keeps a single streaming pass.)
        key = pd.util.hash_pandas_object(df["user_id"], index=False).to_numpy()
        passthrough = (df["side"] == 0).to_numpy()
        key[passthrough] = pd.util.hash_pandas_object(
            df["event_id"], index=False
        ).to_numpy()[passthrough]
        df["bucket"] = (key % P).astype("int64")
        return from_pandas_clean(df)

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        # a bucket holding only unmatched purchases has an all-null
        # view_ts, which arrives as object dtype and made merge_asof raise
        df["view_ts"] = df["view_ts"].astype("datetime64[us]")
        done = df[df["side"] == 0]
        pending = df[df["side"] == 1].sort_values(["ts", "event_id"])
        summaries = df[df["side"] == 2].sort_values(["view_ts", "view_event_id"])
        outs = [done[["event_id", "user_id", "ts", "view_event_id", "view_ts"]]]
        if not pending.empty:
            j = pd.merge_asof(
                pending[["event_id", "user_id", "chunk", "ts"]],
                summaries[["view_event_id", "user_id", "view_ts"]],
                left_on="ts",
                right_on="view_ts",
                by="user_id",
                direction="backward",
                allow_exact_matches=False,
            )
            j["view_event_id"] = j["view_event_id"].fillna(-1).astype("int64")
            outs.append(j[["event_id", "user_id", "ts", "view_event_id", "view_ts"]])
        out = pd.concat(outs, ignore_index=True)
        if out.empty:
            return _asof_empty()
        return out

    return (
        local.map_batches(rebucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(resolve, batch_format="pandas")
    )


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
