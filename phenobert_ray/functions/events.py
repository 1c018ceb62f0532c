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

    The chunked prefix-sum pattern, applied PER KEY (pack_sequences /
    global_sort_rank do it globally): a hot user's history never needs
    one task —
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
        # ±1 (the funnel-summary bug class, which DID fire there).
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


FUNNEL_STAGES = ("view", "click", "purchase")
_TS_ABSENT = np.int64(1) << 62


def funnel_stages(sf_dir: str, num_buckets: int | None = None):
    """(user_id, stage, ts, event_id) — ordered conversion funnel, one row
    per completed stage.  Definition (mirrored in SQL): v1 = the user's
    earliest view by (ts, event_id); c1 = earliest click with
    (ts, event_id) > v1; p1 = earliest purchase with (ts, event_id) > c1
    — the standard greedy funnel matching.

    Scale shape (the running_user_spend chunk pattern): funnel events
    exchange ONCE on hash(user, time-chunk); each user-chunk reduces to
    ONE summary row — a transition table of the stage chain completable
    within the chunk for every entry state k_in ∈ {0,1,2}.  That table is
    sufficient because chunks partition time: every event in a later
    chunk is strictly after any completion in an earlier one (same-ts
    events share a chunk by construction), so only the COUNT of
    previously completed stages matters at a chunk boundary, never their
    timestamps.  The per-user fold then runs over chunk summaries —
    state bounded by the user's CHUNK count, never its event count (a
    hot user's history still never needs one task)."""
    from ..stages.shuffle import (
        coalesce_for_exchange,
        default_num_buckets,
        from_pandas_clean,
        table_rows,
    )

    P = num_buckets or default_num_buckets()
    kind_of = {s: i for i, s in enumerate(FUNNEL_STAGES)}
    out_schema = pa.schema([
        ("user_id", pa.int64()), ("stage", pa.string()),
        ("ts", pa.timestamp("us")), ("event_id", pa.int64()),
    ])
    keys = ["user_id", "chunk"]
    scen = ["v0", "c0", "p0", "c1", "p1", "p2"]

    def proj(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["event_type"].isin(FUNNEL_STAGES)]
        ts_us = df["ts"].astype("int64")
        out = pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "chunk": (ts_us // RUN_CHUNK_US).astype("int64"),
            "ts_us": ts_us.astype("int64"),
            "event_id": df["event_id"].astype("int64"),
            "kind": df["event_type"].map(kind_of).astype("int64"),
            "bucket": (pd.util.hash_pandas_object(
                df[["user_id"]].assign(
                    chunk=(ts_us // RUN_CHUNK_US).astype("int64")),
                index=False).to_numpy() % P).astype("int64"),
        })
        return from_pandas_clean(out)

    def summarize(df: pd.DataFrame) -> pa.Table:
        """One bucket of (user, chunk) groups → one summary row each:
        (ts, event_id) of the chunk-local chain for every entry state —
        all six firsts computed with whole-bucket vectorized merges."""
        sum_schema = pa.schema(
            [("user_id", pa.int64()), ("chunk", pa.int64())]
            + [(f"{n}_{c}", pa.int64()) for n in scen for c in ("ts", "eid")]
        )
        df = df.sort_values(keys + ["ts_us", "event_id"])

        def first_of(kind: int) -> pd.DataFrame:
            sub = df[df["kind"] == kind]
            return sub.drop_duplicates(keys)[keys + ["ts_us", "event_id"]]

        def first_after(kind: int, thr: pd.DataFrame) -> pd.DataFrame:
            sub = df[df["kind"] == kind].merge(
                thr.rename(columns={"ts_us": "a_ts", "event_id": "a_eid"}),
                on=keys)
            sub = sub[(sub["ts_us"] > sub["a_ts"])
                      | ((sub["ts_us"] == sub["a_ts"])
                         & (sub["event_id"] > sub["a_eid"]))]
            sub = sub.sort_values(keys + ["ts_us", "event_id"])
            return sub.drop_duplicates(keys)[keys + ["ts_us", "event_id"]]

        v0 = first_of(0)
        c0 = first_after(1, v0)
        p0 = first_after(2, c0)
        c1 = first_of(1)
        p1 = first_after(2, c1)
        p2 = first_of(2)
        out = df[keys].drop_duplicates()
        for name, t in zip(scen, (v0, c0, p0, c1, p1, p2)):
            t = t.rename(columns={"ts_us": f"{name}_ts",
                                  "event_id": f"{name}_eid"})
            # NULLABLE Int64 through the left merge: plain int64 columns
            # get promoted to float64 when the merge introduces NaN,
            # silently corrupting µs timestamps (and ids) above 2⁵³ by
            # ±1 — caught by the --funnel-scale pin, whose synthetic far-
            # future timestamps cross 2⁵³ µs (year ~2255)
            t[f"{name}_ts"] = t[f"{name}_ts"].astype("Int64")
            t[f"{name}_eid"] = t[f"{name}_eid"].astype("Int64")
            out = out.merge(t, on=keys, how="left")
            out[f"{name}_ts"] = (
                out[f"{name}_ts"].fillna(_TS_ABSENT).astype("int64"))
            out[f"{name}_eid"] = out[f"{name}_eid"].fillna(-1).astype("int64")
        if not len(out):
            return sum_schema.empty_table()
        return from_pandas_clean(out).cast(sum_schema)

    n_ev = table_rows(sf_dir, "events")
    summaries = (
        coalesce_for_exchange(
            _read_events(sf_dir, columns=["event_id", "ts", "user_id",
                                          "event_type"])
            .map_batches(proj, batch_format="pyarrow"),
            n_ev,
        )
        .groupby("bucket")
        .map_groups(summarize, batch_format="pandas")
    )

    def fold(df: pd.DataFrame) -> pa.Table:
        """One user-bucket of summary rows → stage rows: greedy fold over
        chunks in time order, advancing the chunk-local chain that matches
        the entry state.  Loop length = the user's chunk count."""
        if df.empty or "user_id" not in df.columns:
            return out_schema.empty_table()
        df = df.sort_values(keys)
        rows_u, rows_s, rows_t, rows_e = [], [], [], []
        for uid, g in df.groupby("user_id", sort=False):
            k = 0
            for r in g.itertuples(index=False):
                if k == 0:
                    chain = (("view", r.v0_ts, r.v0_eid),
                             ("click", r.c0_ts, r.c0_eid),
                             ("purchase", r.p0_ts, r.p0_eid))
                elif k == 1:
                    chain = (("click", r.c1_ts, r.c1_eid),
                             ("purchase", r.p1_ts, r.p1_eid))
                elif k == 2:
                    chain = (("purchase", r.p2_ts, r.p2_eid),)
                else:
                    break
                for stage, ts, eid in chain:
                    if ts == _TS_ABSENT:
                        break
                    rows_u.append(uid)
                    rows_s.append(stage)
                    rows_t.append(ts)
                    rows_e.append(eid)
                    k += 1
        if not rows_u:
            return out_schema.empty_table()
        out = pd.DataFrame({
            "user_id": np.asarray(rows_u, dtype=np.int64),
            "stage": rows_s,
            "ts": np.asarray(rows_t, dtype=np.int64).astype("datetime64[us]"),
            "event_id": np.asarray(rows_e, dtype=np.int64),
        })
        return from_pandas_clean(out).cast(out_schema)

    def ubucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["ubucket"] = (
            pd.util.hash_pandas_object(df["user_id"], index=False).to_numpy()
            % P
        ).astype("int64")
        return from_pandas_clean(df)

    # summary rows ≤ one per user-chunk ≤ n_ev: small relative to events
    return (
        coalesce_for_exchange(
            summaries.map_batches(ubucket, batch_format="pyarrow"), n_ev)
        .groupby("ubucket")
        .map_groups(fold, batch_format="pandas")
    )


WEEK_US = 7 * 24 * 3600 * 1_000_000


def retention_cohorts(sf_dir: str, num_buckets: int | None = None):
    """(cohort_week, week_offset, n_users) — weekly retention matrix:
    cohort_week = epoch-week of a user's FIRST 'signup' event,
    week_offset = activity week − cohort week (≥ 0), n_users = distinct
    users of that cohort active (any event type) at that offset.  The
    product-analytics staple behind every retention curve.

    Scale shape: three bucketed exchanges, none corpus-wide —
      1. per-user first-signup (combiner min over a signup-ts projection
         with an absent-sentinel; non-signup users drop out);
      2. distinct (user, week) activity pairs (combiner distinct);
      3. cohorts ⋈ activity on ONE tagged-union hash(user) exchange
         (per-user group = that user's distinct weeks, bounded by the
         observation window, never event count), then a final
         (cohort, offset) count exchange whose cardinality is
         weeks² — a constant-size matrix."""
    from ..stages.shuffle import (
        coalesce_for_exchange,
        default_num_buckets,
        from_pandas_clean,
        table_rows,
        two_phase_groupby,
    )

    P = num_buckets or default_num_buckets()
    out_schema = pa.schema([
        ("cohort_week", pa.int64()), ("week_offset", pa.int64()),
        ("n_users", pa.int64()),
    ])
    _ABSENT = np.int64(1) << 62
    n_ev = table_rows(sf_dir, "events")

    def proj(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        ts_us = df["ts"].astype("int64")
        return from_pandas_clean(pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "week": (ts_us // WEEK_US).astype("int64"),
            "signup_ts": np.where(df["event_type"].to_numpy() == "signup",
                                  ts_us.to_numpy(), _ABSENT),
        }))

    rows = coalesce_for_exchange(
        _read_events(sf_dir, columns=["ts", "user_id", "event_type"])
        .map_batches(proj, batch_format="pyarrow"),
        n_ev,
    ).materialize()

    cohorts = two_phase_groupby(
        rows.map_batches(lambda b: b.select(["user_id", "signup_ts"]),
                         batch_format="pyarrow"),
        keys=["user_id"],
        aggs={"s0": ("signup_ts", "min", "min")},
    )

    def cohort_rows(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["s0"] != _ABSENT]
        return from_pandas_clean(pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "week": (df["s0"] // WEEK_US).astype("int64"),
            "kind": np.ones(len(df), dtype=np.int64),
            "bucket": (df["user_id"].to_numpy(dtype=np.int64) % P),
        }))

    activity = two_phase_groupby(
        rows.map_batches(lambda b: b.select(["user_id", "week"]),
                         batch_format="pyarrow"),
        keys=["user_id", "week"],
        aggs={"n": (None, "size", "sum")},
    )

    def activity_rows(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        return from_pandas_clean(pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "week": df["week"].astype("int64"),
            "kind": np.zeros(len(df), dtype=np.int64),
            "bucket": (df["user_id"].to_numpy(dtype=np.int64) % P),
        }))

    tagged = coalesce_for_exchange(
        cohorts.map_batches(cohort_rows, batch_format="pyarrow").union(
            activity.map_batches(activity_rows, batch_format="pyarrow")),
        2 * n_ev,
    )

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        cw = df.loc[df["kind"] == 1, ["user_id", "week"]].rename(
            columns={"week": "cohort_week"})
        act = df.loc[df["kind"] == 0, ["user_id", "week"]]
        m = act.merge(cw, on="user_id", sort=False)
        m = m[m["week"] >= m["cohort_week"]]
        if not len(m):
            return pd.DataFrame({
                "cohort_week": pd.Series([], dtype="int64"),
                "week_offset": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
            })
        out = pd.DataFrame({
            "cohort_week": m["cohort_week"].astype("int64"),
            "week_offset": (m["week"] - m["cohort_week"]).astype("int64"),
        })
        # distinct (user, week) upstream ⇒ one row per (user, offset):
        # the per-bucket partial count is exact
        return out.groupby(["cohort_week", "week_offset"],
                           as_index=False).size().rename(columns={"size": "n"})

    partial = tagged.groupby("bucket").map_groups(attach,
                                                  batch_format="pandas")
    agg = two_phase_groupby(
        partial, keys=["cohort_week", "week_offset"],
        aggs={"n_users": ("n", "sum", "sum")},
    )

    def finish(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        return from_pandas_clean(pd.DataFrame({
            "cohort_week": df["cohort_week"].astype("int64"),
            "week_offset": df["week_offset"].astype("int64"),
            "n_users": df["n_users"].astype("int64"),
        })).cast(out_schema)

    return agg.map_batches(finish, batch_format="pyarrow")


def _user_chunk_proj(chunk_us: int, P: int):
    """(user_id, chunk, ts_us, event_id, event_type, bucket) projection
    with hash(user_id, chunk) % P bucketing — the shared front half of
    the chunked per-user operators (event_transitions, session_paths).
    The older ops in this module (sessionize, running_user_spend,
    funnel_stages) predate the helper and keep their inline variants
    (different carried columns / chunk parameters); a future hashing or
    chunking fix must visit those three sites too (review wave 3)."""
    def proj(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        ts_us = df["ts"].astype("int64")
        out = pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "chunk": (ts_us // chunk_us).astype("int64"),
            "ts_us": ts_us.astype("int64"),
            "event_id": df["event_id"].astype("int64"),
            "event_type": df["event_type"],
        })
        out["bucket"] = (pd.util.hash_pandas_object(
            out[["user_id", "chunk"]], index=False).to_numpy() % P
        ).astype("int64")
        return from_pandas_clean(out)
    return proj


def event_transitions(sf_dir: str, num_buckets: int | None = None):
    """(type_from, type_to, n) — global Markov transition counts over each
    user's (ts, event_id)-ordered event stream: every consecutive event
    pair of one user contributes one (prev_type, next_type) count.  The
    clickstream/agent-trace staple behind behavior models and anomaly
    screens.

    Scale shape (the running_user_spend chunk pattern): events exchange
    ONCE on hash(user, time-chunk); each (user, chunk) group counts its
    within-chunk transitions locally and reduces to ONE summary row
    (first_type, last_type) — sufficient because chunks partition time,
    so the only transitions a chunk cannot see are (last event of a
    chunk → first event of the user's NEXT non-empty chunk), which is
    exactly adjacent pairs of the user's chunk-summary list.  The
    per-user fold therefore runs over chunk summaries (2 strings per
    chunk), never raw events — a hot user with 10^8 events costs its
    bucket only ~#chunks rows.  Final counts merge through one
    vocabulary-bounded two-phase groupby (≤ |event_type|² keys)."""
    from ..stages.shuffle import (
        coalesce_for_exchange,
        default_num_buckets,
        table_rows,
        two_phase_groupby,
        typed_result,
    )

    P = num_buckets or default_num_buckets()
    # tagged-union schema for the single phase-1 output stream:
    # kind=0 rows carry (type_from, type_to, n) partial counts;
    # kind=1 rows carry a (user, chunk) boundary summary in the SAME
    # columns (type_from=chunk's first type, type_to=last, n unused)
    mid_schema = pa.schema([
        ("user_id", pa.int64()), ("chunk", pa.int64()),
        ("type_from", pa.string()), ("type_to", pa.string()),
        ("n", pa.int64()), ("kind", pa.int64()),
    ])

    proj = _user_chunk_proj(RUN_CHUNK_US, P)

    def local(df: pd.DataFrame) -> pa.Table:
        if df.empty or "user_id" not in df.columns:
            return mid_schema.empty_table()
        keys = ["user_id", "chunk"]
        df = df.sort_values(keys + ["ts_us", "event_id"])
        same = df[keys].eq(df[keys].shift()).all(axis=1)
        prev = df["event_type"].shift()
        pairs = pd.DataFrame({
            "type_from": prev[same], "type_to": df["event_type"][same]})
        counts = pairs.groupby(["type_from", "type_to"],
                               as_index=False).size()
        counts = pd.DataFrame({
            "user_id": np.int64(-1), "chunk": np.int64(-1),
            "type_from": counts["type_from"],
            "type_to": counts["type_to"],
            "n": counts["size"].astype("int64"), "kind": np.int64(0)})
        # after the sort, first/last per group are positional
        g = df.groupby(keys, as_index=False, sort=False).agg(
            type_from=("event_type", "first"),
            type_to=("event_type", "last"))
        bounds = pd.DataFrame({
            "user_id": g["user_id"].astype("int64"),
            "chunk": g["chunk"].astype("int64"),
            "type_from": g["type_from"], "type_to": g["type_to"],
            "n": np.int64(0), "kind": np.int64(1)})
        return from_pandas_clean(
            pd.concat([counts, bounds], ignore_index=True)).cast(mid_schema)

    n_ev = table_rows(sf_dir, "events")
    # materialized: `mid` feeds BOTH the within-chunk and the boundary
    # branch — without it Ray re-executes the events read + exchange +
    # fold twice (no common-subexpression sharing; review wave 3).  Safe
    # at any corpus size: the fold has already aggregated to ≤ |types|²
    # count rows + one summary row per (user, chunk) — summary-sized,
    # never event-sized — and the object store spills if needed.
    mid = (
        coalesce_for_exchange(
            _read_events(sf_dir, columns=["event_id", "ts", "user_id",
                                          "event_type"])
            .map_batches(proj, batch_format="pyarrow"),
            n_ev,
        )
        .groupby("bucket")
        .map_groups(local, batch_format="pandas")
    ).materialize()

    def ubucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["kind"] == 1]
        df["ubucket"] = (pd.util.hash_pandas_object(
            df["user_id"], index=False).to_numpy() % P).astype("int64")
        return from_pandas_clean(df[["user_id", "chunk", "type_from",
                                     "type_to", "ubucket"]])

    def boundary_counts(df: pd.DataFrame) -> pa.Table:
        """Adjacent chunk-summary pairs within a user: the previous
        chunk's LAST type transitions into this chunk's FIRST type."""
        cnt_schema = pa.schema([("type_from", pa.string()),
                                ("type_to", pa.string()),
                                ("n", pa.int64())])
        if df.empty or "user_id" not in df.columns:
            return cnt_schema.empty_table()
        df = df.sort_values(["user_id", "chunk"])
        same = df["user_id"].eq(df["user_id"].shift())
        prev_last = df["type_to"].shift()
        pairs = pd.DataFrame({
            "type_from": prev_last[same], "type_to": df["type_from"][same]})
        if pairs.empty:
            return cnt_schema.empty_table()
        counts = pairs.groupby(["type_from", "type_to"],
                               as_index=False).size()
        return from_pandas_clean(pd.DataFrame({
            "type_from": counts["type_from"],
            "type_to": counts["type_to"],
            "n": counts["size"].astype("int64")})).cast(cnt_schema)

    cross = (
        mid.map_batches(ubucket, batch_format="pyarrow")
        .groupby("ubucket")
        .map_groups(boundary_counts, batch_format="pandas")
    )

    def within(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = b.filter(pc.equal(b.column("kind"), 0))
        return t.select(["type_from", "type_to", "n"])

    # typed_result: a corpus where every user has ONE event produces a
    # legitimately EMPTY result from a non-empty input (zero transitions)
    # — caught by the hypothesis property test; without the typed union
    # the all-empty dataset loses its schema and the gate's column
    # compare fails
    return typed_result(
        two_phase_groupby(
            mid.map_batches(within, batch_format="pyarrow").union(cross),
            keys=["type_from", "type_to"],
            aggs={"n": ("n", "sum", "sum")},
        ),
        pa.schema([("type_from", pa.string()), ("type_to", pa.string()),
                   ("n", pa.int64())]),
    )


def grouped_median(sf_dir: str, num_buckets: int | None = None):
    """(event_type, n_rows, median_x2_cents) — EXACT per-type median of
    ``value`` in integer cents, reported as the SUM of the lower and
    upper middle order statistics (×2 median) so odd and even counts are
    both pure integers — no float averaging, hash-identical to SQL.

    Scale shape: the classic exact distributed order statistic via a
    COUNTING exchange — each batch pre-aggregates (event_type, cents) →
    partial n, the two-phase groupby merges them, and a second exchange
    on event_type alone hands each type its full counting table, where
    one cumulative-sum scan picks the middle positions.  Nothing
    row-proportional ever crosses the wire: bucket payload is bounded by
    the DISTINCT cent values per type (documented partitioning
    assumption — true for money-like bounded-domain columns; a
    pathological unbounded-domain column needs a quantile sketch
    instead, see token_quantiles_by_source)."""
    from ..stages.shuffle import (
        default_num_buckets,
        two_phase_groupby,
        typed_result,
    )

    out_schema = pa.schema([
        ("event_type", pa.string()), ("n_rows", pa.int64()),
        ("median_x2_cents", pa.int64()),
    ])
    P = num_buckets or default_num_buckets()

    def proj(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        return from_pandas_clean(pd.DataFrame({
            "event_type": df["event_type"],
            "cents": _cents(df["value"]),
        }))

    counting = two_phase_groupby(
        _read_events(sf_dir, columns=["event_type", "value"])
        .map_batches(proj, batch_format="pyarrow"),
        keys=["event_type", "cents"],
        aggs={"n": (None, "size", "sum")},
        num_buckets=P,
    )

    def tbucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["tbucket"] = (pd.util.hash_pandas_object(
            df["event_type"], index=False).to_numpy() % P).astype("int64")
        return from_pandas_clean(df)

    def finish(df: pd.DataFrame) -> pa.Table:
        if df.empty or "event_type" not in df.columns:
            return out_schema.empty_table()
        rows = []
        for etype, g in df.groupby("event_type", sort=False):
            g = g.sort_values("cents")
            c = g["cents"].to_numpy()
            cum = g["n"].to_numpy().cumsum()
            total = int(cum[-1])
            lo = c[np.searchsorted(cum, (total + 1) // 2, side="left")]
            hi = c[np.searchsorted(cum, (total + 2) // 2, side="left")]
            rows.append((etype, total, int(lo) + int(hi)))
        return from_pandas_clean(pd.DataFrame({
            "event_type": [r[0] for r in rows],
            "n_rows": np.asarray([r[1] for r in rows], dtype=np.int64),
            "median_x2_cents": np.asarray([r[2] for r in rows],
                                          dtype=np.int64),
        })).cast(out_schema)

    # typed_result: a non-empty events table whose every row is dropped
    # by the read-boundary null contract yields a legitimately-empty
    # result from non-empty input (review wave 3)
    return typed_result(
        counting.map_batches(tbucket, batch_format="pyarrow")
        .groupby("tbucket")
        .map_groups(finish, batch_format="pandas"),
        out_schema,
    )


DAY_US = 24 * 3600 * 1_000_000
WAU_WINDOW_DAYS = 7


def weekly_active_users(sf_dir: str, num_buckets: int | None = None):
    """(day, n_active) — trailing-7-day distinct active users, reported
    for every day that has at least one event: the DAU/WAU staple.

    Scale shape — sliding-window DISTINCT via bounded replication: raw
    events first collapse to DISTINCT (user, day) pairs with one
    combiner exchange (payload bounded by users × active days, never
    events); each pair then replicates to the ≤7 window days it serves,
    restricted to the broadcast active-day set (days with events —
    O(active days), driver-held ints); a second distinct exchange on
    (user, target_day) removes multi-day double counts, and the final
    count is a two-phase groupby over ≤ active-days keys.  No window
    ever re-scans events, and a hot user costs exactly its active-day
    count × 7 replica rows."""
    from ..stages.shuffle import (
        coalesce_for_exchange,
        default_num_buckets,
        table_rows,
        two_phase_groupby,
    )

    P = num_buckets or default_num_buckets()
    W = WAU_WINDOW_DAYS
    n_ev = table_rows(sf_dir, "events")

    def proj(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        day = (df["ts"].astype("int64") // DAY_US).astype("int64")
        out = pd.DataFrame({
            "user_id": df["user_id"].astype("int64"), "day": day,
        }).drop_duplicates()
        out["bucket"] = (pd.util.hash_pandas_object(
            out[["user_id", "day"]], index=False).to_numpy() % P
        ).astype("int64")
        return from_pandas_clean(out)

    distinct_ud = (
        coalesce_for_exchange(
            _read_events(sf_dir, columns=["ts", "user_id"])
            .map_batches(proj, batch_format="pyarrow"),
            n_ev,
        )
        .groupby("bucket")
        .map_groups(
            lambda df: df[["user_id", "day"]].drop_duplicates(),
            batch_format="pandas")
    )

    # the active-day set: tiny (≤ days in the corpus), reduced in-cluster
    # by a dedicated single-column pass (per-block distinct-day combiner →
    # one bounded exchange) — cheaper than re-executing the distinct_ud
    # pipeline a second time just to enumerate its day values
    def day_proj(b: pa.Table) -> pa.Table:
        d = np.unique(b.column("ts").to_numpy().astype("int64") // DAY_US)
        return pa.table({"day": pa.array(d, pa.int64())})

    # the distinct-day stream is ≥100× sparser than events (rows per
    # block are capped by the corpus' day count); the estimate only
    # DECIDES whether to coalesce — when it is wrong at scale the call
    # no-ops and the natural block layout stays
    day_counts = two_phase_groupby(
        coalesce_for_exchange(
            _read_events(sf_dir, columns=["ts"])
            .map_batches(day_proj, batch_format="pyarrow"),
            max(n_ev // 100, 1),
        ),
        keys=["day"],
        aggs={"n": (None, "size", "sum")},
    )
    days_arr = np.asarray(
        sorted(r["day"] for r in day_counts.take_all()), dtype=np.int64)
    days_ref = ray.put(days_arr)

    def replicate(b: pa.Table) -> pa.Table:
        dv = ray.get(days_ref)
        df = b.to_pandas()
        if len(dv) == 0 or not len(df):
            return pa.schema([("user_id", pa.int64()),
                              ("target", pa.int64()),
                              ("bucket", pa.int64())]).empty_table()
        parts = []
        for k in range(W):
            t = pd.DataFrame({"user_id": df["user_id"],
                              "target": df["day"] + k})
            parts.append(t)
        rep = pd.concat(parts, ignore_index=True)
        # only targets that are themselves active days produce output rows
        idx = np.minimum(np.searchsorted(dv, rep["target"].to_numpy()),
                         len(dv) - 1)
        hit = dv[idx] == rep["target"].to_numpy()
        rep = rep[hit].drop_duplicates()
        rep["bucket"] = (pd.util.hash_pandas_object(
            rep[["user_id", "target"]], index=False).to_numpy() % P
        ).astype("int64")
        return from_pandas_clean(rep)

    distinct_ut = (
        coalesce_for_exchange(
            distinct_ud.map_batches(replicate, batch_format="pyarrow"),
            n_ev * W,
        )
        .groupby("bucket")
        .map_groups(
            lambda df: df[["user_id", "target"]].drop_duplicates(),
            batch_format="pandas")
    )

    def one(b: pa.Table) -> pa.Table:
        return pa.table({"day": b.column("target"),
                         "n": pa.array(np.ones(b.num_rows, dtype=np.int64),
                                       pa.int64())})

    # typed_result: all-rows-null-dropped inputs empty the stream before
    # any typed block exists (review wave 3)
    from ..stages.shuffle import typed_result

    return typed_result(
        two_phase_groupby(
            distinct_ut.map_batches(one, batch_format="pyarrow"),
            keys=["day"],
            aggs={"n_active": ("n", "sum", "sum")},
        ),
        pa.schema([("day", pa.int64()), ("n_active", pa.int64())]),
    )


def grouped_mode(sf_dir: str, num_buckets: int | None = None):
    """(event_type, n_rows, mode_cents, mode_count) — the most frequent
    ``value`` (in exact cents) per type, ties broken toward the SMALLEST
    cents so the answer is deterministic in both engines.

    Scale shape: grouped_median's counting-table exchange (per-batch
    (type, cents) combiner → merge), then a per-type argmax scan —
    nothing row-proportional crosses the wire; same documented
    bounded-value-domain assumption."""
    from ..stages.shuffle import (
        default_num_buckets,
        two_phase_groupby,
        typed_result,
    )

    out_schema = pa.schema([
        ("event_type", pa.string()), ("n_rows", pa.int64()),
        ("mode_cents", pa.int64()), ("mode_count", pa.int64()),
    ])
    P = num_buckets or default_num_buckets()

    def proj(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        return from_pandas_clean(pd.DataFrame({
            "event_type": df["event_type"],
            "cents": _cents(df["value"]),
        }))

    counting = two_phase_groupby(
        _read_events(sf_dir, columns=["event_type", "value"])
        .map_batches(proj, batch_format="pyarrow"),
        keys=["event_type", "cents"],
        aggs={"n": (None, "size", "sum")},
        num_buckets=P,
    )

    def tbucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["tbucket"] = (pd.util.hash_pandas_object(
            df["event_type"], index=False).to_numpy() % P).astype("int64")
        return from_pandas_clean(df)

    def finish(df: pd.DataFrame) -> pa.Table:
        if df.empty or "event_type" not in df.columns:
            return out_schema.empty_table()
        # sort (n desc, cents asc): first row per type IS the mode with
        # the deterministic tiebreak
        df = df.sort_values(["event_type", "n", "cents"],
                            ascending=[True, False, True])
        tot = df.groupby("event_type", sort=False)["n"].transform("sum")
        df = df.assign(n_rows=tot)
        top = df.groupby("event_type", sort=False).head(1)
        return from_pandas_clean(pd.DataFrame({
            "event_type": top["event_type"],
            "n_rows": top["n_rows"].astype("int64"),
            "mode_cents": top["cents"].astype("int64"),
            "mode_count": top["n"].astype("int64"),
        })).cast(out_schema)

    return typed_result(
        counting.map_batches(tbucket, batch_format="pyarrow")
        .groupby("tbucket")
        .map_groups(finish, batch_format="pandas"),
        out_schema,
    )


PATH_K = 3
PATH_TOPN = 20


def session_paths(sf_dir: str, gap_minutes: int = 30,
                  num_buckets: int | None = None,
                  split_hours: int = 24):
    """(path, n_sessions) — the ``PATH_TOPN`` most common session-opening
    event-type sequences: each session's first ``PATH_K`` event types (by
    ts, event_id) joined with '>', counted over all sessions (same
    30-minute gap rule as :func:`sessionize`), ties broken (n desc, path
    asc) so the top-N set is deterministic.  The product-analytics "top
    user journeys" query.

    Scale shape: phase 1 = sessionize's proven hash(user, time-chunk)
    exchange, but each chunk-local session reduces to a summary row that
    ALSO carries its first-K types (K string slots — constant width, so
    a hot user's summary stream stays ~#chunks rows); phase 2 re-merges
    boundary-straddling sessions with the identical gap rule and takes
    the first K slots across constituents in session order (vectorized
    melt→rank→head, no per-session Python); counts then merge through a
    two-phase groupby keyed on path (payload bounded by DISTINCT paths ≤
    |event_type|^K per block — the documented vocabulary bound) and the
    top-N is two-phase (per-bucket head, one ≤N×buckets global head)."""
    from ..stages.shuffle import (
        coalesce_for_exchange,
        default_num_buckets,
        table_rows,
        two_phase_groupby,
    )

    P = num_buckets or default_num_buckets()
    gap_us = gap_minutes * 60 * 1_000_000
    chunk_us = split_hours * 3_600 * 1_000_000
    K = PATH_K
    slots = [f"h{i}" for i in range(K)]
    out_schema = pa.schema([("path", pa.string()),
                            ("n_sessions", pa.int64())])
    sum_schema = pa.schema(
        [("user_id", pa.int64()), ("start_us", pa.int64()),
         ("end_us", pa.int64())] + [(s, pa.string()) for s in slots])

    proj = _user_chunk_proj(chunk_us, P)

    def heads_wide(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
        """First-K event types per group of the (already rank-ordered)
        long frame ``df`` with columns keys + [pos, event_type] → wide
        (keys, h0..h{K-1}) with absent slots None."""
        df = df.sort_values(keys + ["pos"])
        df = df.groupby(keys, sort=False).head(K).copy()
        df["slot"] = df.groupby(keys, sort=False).cumcount()
        w = df.pivot_table(index=keys, columns="slot",
                           values="event_type", aggfunc="first")
        w = w.reindex(columns=range(K))
        w.columns = slots[: len(w.columns)]
        return w.reset_index()

    def local_sessions(df: pd.DataFrame) -> pa.Table:
        if df.empty or "user_id" not in df.columns:
            return sum_schema.empty_table()
        keys = ["user_id", "chunk"]
        df = df.sort_values(keys + ["ts_us", "event_id"])
        same = df[keys].eq(df[keys].shift()).all(axis=1)
        brk = (df["ts_us"].diff() > gap_us) & same
        df["sid"] = brk.groupby(
            [df["user_id"].values, df["chunk"].values]).cumsum().astype(
            "int64")
        skeys = ["user_id", "chunk", "sid"]
        g = df.groupby(skeys, as_index=False, sort=False).agg(
            start_us=("ts_us", "min"), end_us=("ts_us", "max"))
        df["pos"] = df.groupby(skeys, sort=False).cumcount()
        w = heads_wide(df[skeys + ["pos", "event_type"]], skeys)
        g = g.merge(w, on=skeys)
        return from_pandas_clean(
            g[["user_id", "start_us", "end_us", *slots]]).cast(sum_schema)

    n_ev = table_rows(sf_dir, "events")
    local = (
        coalesce_for_exchange(
            _read_events(sf_dir, columns=["event_id", "ts", "user_id",
                                          "event_type"])
            .map_batches(proj, batch_format="pyarrow"),
            n_ev,
        )
        .groupby("bucket")
        .map_groups(local_sessions, batch_format="pandas")
    )

    def ubucket(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["ubucket"] = (pd.util.hash_pandas_object(
            df["user_id"], index=False).to_numpy() % P).astype("int64")
        return from_pandas_clean(df)

    def merge_paths(df: pd.DataFrame) -> pa.Table:
        """Boundary merge (sessionize's gap rule over SUMMARY rows) +
        first-K recombination + local path counts."""
        cnt_schema = pa.schema([("path", pa.string()), ("n", pa.int64())])
        if df.empty or "user_id" not in df.columns:
            return cnt_schema.empty_table()
        df = df.sort_values(["user_id", "start_us", "end_us"])
        same_user = df["user_id"].eq(df["user_id"].shift())
        brk = ~((df["start_us"] - df["end_us"].shift() <= gap_us)
                & same_user)
        df["sid"] = brk.groupby(df["user_id"].values).cumsum().astype(
            "int64")
        skeys = ["user_id", "sid"]
        df["rank"] = df.groupby(skeys, sort=False).cumcount()
        longs = []
        for i, s in enumerate(slots):
            part = df[skeys + ["rank", s]].rename(columns={s: "event_type"})
            part = part[part["event_type"].notna()]
            part["pos"] = part["rank"] * K + i
            longs.append(part[skeys + ["pos", "event_type"]])
        longd = pd.concat(longs, ignore_index=True)
        w = heads_wide(longd, skeys)
        # join non-null slots in order: slot 0 always exists (a session
        # has ≥1 event); later slots append '>' + type when present
        # heads_wide reindexes to ALL K slot columns, so each slot always
        # exists; absent values are the NaNs the mask handles
        path = w[slots[0]].astype(object).to_numpy()
        for s in slots[1:]:
            hasv = w[s].notna().to_numpy()
            # fillna first: np.where evaluates BOTH branches, and
            # str + NaN raises
            sv = w[s].fillna("").astype(object).to_numpy()
            path = np.where(hasv, path + ">" + sv, path)
        counts = pd.Series(path).groupby(pd.Series(path)).size()
        return from_pandas_clean(pd.DataFrame({
            "path": counts.index.astype(object),
            "n": counts.to_numpy().astype("int64")})).cast(cnt_schema)

    counts = two_phase_groupby(
        coalesce_for_exchange(
            local.map_batches(ubucket, batch_format="pyarrow"), n_ev)
        .groupby("ubucket")
        .map_groups(merge_paths, batch_format="pandas"),
        keys=["path"],
        aggs={"n_sessions": ("n", "sum", "sum")},
    )

    def bucket_head(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(
            ["n_sessions", "path"], ascending=[False, True]).head(PATH_TOPN)
        return from_pandas_clean(df[["path", "n_sessions"]])

    out = counts.map_batches(bucket_head, batch_format="pyarrow").to_pandas()
    if out.empty:
        return ray.data.from_arrow(out_schema.empty_table())
    out = (out.sort_values(["n_sessions", "path"], ascending=[False, True])
           .head(PATH_TOPN).reset_index(drop=True))
    return ray.data.from_pandas(out[["path", "n_sessions"]])


def queries():
    return {"sessionize": sessionize, "window_agg": window_agg,
            "hopping_window_agg": hopping_window_agg,
            "asof_join": asof_join, "range_join": range_join,
            "props_stats": props_stats,
            "compact_latest_events": compact_latest_events,
            "running_user_spend": running_user_spend,
            "funnel_stages": funnel_stages,
            "retention_cohorts": retention_cohorts,
            "event_transitions": event_transitions,
            "grouped_median": grouped_median,
            "session_paths": session_paths,
            "weekly_active_users": weekly_active_users,
            "grouped_mode": grouped_mode}


def oracles():
    return {
        # lag window mirrors the engine's (ts, event_id) per-user order
        "event_transitions": """
        WITH o AS (
          SELECT user_id, event_type,
                 lag(event_type) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
          FROM events
        )
        SELECT prev AS type_from, event_type AS type_to, count(*) AS n
        FROM o WHERE prev IS NOT NULL GROUP BY 1, 2
        """,
        # ×2 median = lower + upper middle order statistic, both engines
        # in exact integer cents (odd n: the two positions coincide)
        "grouped_median": """
        WITH c AS (
          SELECT event_type,
                 CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
          FROM events
        ), r AS (
          SELECT event_type, cents,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY cents) AS rn,
                 count(*) OVER (PARTITION BY event_type) AS n
          FROM c
        )
        SELECT event_type, CAST(max(n) AS BIGINT) AS n_rows,
               CAST(sum(CASE WHEN rn = (n + 1) // 2 THEN cents ELSE 0 END)
                  + sum(CASE WHEN rn = (n + 2) // 2 THEN cents ELSE 0 END)
                 AS BIGINT) AS median_x2_cents
        FROM r GROUP BY event_type
        """,
        # epoch-µs // DAY mirrors the engine's day bucketing; a day is
        # reported iff it has events; n_active = distinct users active in
        # the trailing 7-day window
        "weekly_active_users": f"""
        WITH ud AS (
          SELECT DISTINCT user_id,
                 CAST(epoch_us(ts) // {DAY_US} AS BIGINT) AS d
          FROM events
        ), days AS (SELECT DISTINCT d FROM ud)
        SELECT days.d AS day, count(DISTINCT ud.user_id) AS n_active
        FROM days JOIN ud
          ON ud.d BETWEEN days.d - {WAU_WINDOW_DAYS - 1} AND days.d
        GROUP BY days.d
        """,
        # (count desc, cents asc) row_number mirrors the engine's
        # deterministic smallest-cents tiebreak
        "grouped_mode": """
        WITH c AS (
          SELECT event_type,
                 CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
          FROM events
        ), g AS (
          SELECT event_type, cents, count(*) AS n FROM c GROUP BY 1, 2
        ), r AS (
          SELECT event_type, cents, n,
                 sum(n) OVER (PARTITION BY event_type) AS n_rows,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY n DESC, cents ASC) AS rn
          FROM g
        )
        SELECT event_type, CAST(n_rows AS BIGINT) AS n_rows,
               cents AS mode_cents, CAST(n AS BIGINT) AS mode_count
        FROM r WHERE rn = 1
        """,
        # identical gap rule to the sessionize oracle; first-K via rn;
        # total order (n desc, path asc) makes the top-N set exact
        "session_paths": f"""
        WITH e AS (
          SELECT user_id, ts, event_id, event_type,
                 CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS brk
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), s AS (
          SELECT user_id, ts, event_id, event_type,
                 sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS sid
          FROM e
        ), r AS (
          SELECT user_id, sid, event_type, ts, event_id,
                 row_number() OVER (PARTITION BY user_id, sid
                                    ORDER BY ts, event_id) AS rn
          FROM s
        ), p AS (
          SELECT user_id, sid,
                 string_agg(event_type, '>' ORDER BY rn) AS path
          FROM r WHERE rn <= {PATH_K} GROUP BY user_id, sid
        )
        SELECT path, count(*) AS n_sessions FROM p GROUP BY path
        ORDER BY n_sessions DESC, path ASC LIMIT {PATH_TOPN}
        """,
        # epoch-µs integer division mirrors the engine's week bucketing;
        # week(min signup ts) ≡ min signup week (floor is monotone)
        "retention_cohorts": f"""
        WITH su AS (
          SELECT user_id, min(ts) AS s0 FROM events
          WHERE event_type = 'signup' GROUP BY user_id
        ),
        cw AS (
          SELECT user_id,
                 CAST(epoch_us(s0) // {WEEK_US} AS BIGINT) AS cohort_week
          FROM su
        ),
        aw AS (
          SELECT DISTINCT user_id,
                 CAST(epoch_us(ts) // {WEEK_US} AS BIGINT) AS w
          FROM events
        )
        SELECT cw.cohort_week, aw.w - cw.cohort_week AS week_offset,
               count(DISTINCT aw.user_id) AS n_users
        FROM aw JOIN cw USING (user_id)
        WHERE aw.w >= cw.cohort_week
        GROUP BY 1, 2
        """,
        # row-value comparisons mirror the engine's (ts, event_id)
        # lexicographic "strictly after"
        "funnel_stages": """
        WITH f AS (
          SELECT user_id, ts, event_id, event_type FROM events
          WHERE event_type IN ('view', 'click', 'purchase')
        ),
        v AS (
          SELECT user_id, ts, event_id FROM (
            SELECT user_id, ts, event_id,
                   row_number() OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS rn
            FROM f WHERE event_type = 'view') WHERE rn = 1
        ),
        c AS (
          SELECT user_id, ts, event_id FROM (
            SELECT e.user_id, e.ts, e.event_id,
                   row_number() OVER (PARTITION BY e.user_id
                                      ORDER BY e.ts, e.event_id) AS rn
            FROM f e JOIN v ON v.user_id = e.user_id
            WHERE e.event_type = 'click'
              AND (e.ts, e.event_id) > (v.ts, v.event_id)) WHERE rn = 1
        ),
        p AS (
          SELECT user_id, ts, event_id FROM (
            SELECT e.user_id, e.ts, e.event_id,
                   row_number() OVER (PARTITION BY e.user_id
                                      ORDER BY e.ts, e.event_id) AS rn
            FROM f e JOIN c ON c.user_id = e.user_id
            WHERE e.event_type = 'purchase'
              AND (e.ts, e.event_id) > (c.ts, c.event_id)) WHERE rn = 1
        )
        SELECT user_id, 'view' AS stage, ts, event_id FROM v
        UNION ALL SELECT user_id, 'click', ts, event_id FROM c
        UNION ALL SELECT user_id, 'purchase', ts, event_id FROM p
        """,
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
