"""``functions/events.sessionize``: the query against its DuckDB oracle on
adversarial event streams, plus the edge semantics the oracle pins
(inclusive gaps, chunk straddles, exact integer cents)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from phenobert_ray.functions import events as ev
from tools.verify_local import canon, compare, to_df

BASE = np.datetime64("2024-03-01T00:00:00", "us")
MIN = np.timedelta64(60_000_000, "us")
HOUR = 60 * MIN


def _write_events(d, event_id, ts, user_id, event_type, value, props=None):
    n = len(event_id)
    pq.write_table(
        pa.table({
            "event_id": pa.array(event_id, pa.int64()),
            "ts": pa.array(np.asarray(ts, dtype="datetime64[us]"),
                           pa.timestamp("us")),
            "user_id": pa.array(user_id, pa.int64()),
            "event_type": pa.array(list(event_type), pa.string()),
            "value": pa.array(value, pa.float64()),
            "props": pa.array(['{"k": 1}'] * n if props is None
                              else list(props), pa.string()),
        }),
        f"{d}/events.parquet",
    )
    return str(d)


def _random_events(d, shape, seed=0):
    """``dense``: 6 users, timestamps on a 10-minute grid over 3 days —
    many (user, ts) ties, gaps straddling the 30-minute session break and
    events exactly on chunk boundaries.  ``sparse``: 300 users over 60
    days at second resolution — most (user, chunk) cells empty."""
    rng = np.random.default_rng(seed)
    n = 1500
    if shape == "dense":
        users = rng.integers(0, 6, size=n)
        ts = BASE + rng.integers(0, 3 * 24 * 6, size=n) * (10 * MIN)
    else:
        users = rng.integers(0, 300, size=n)
        ts = BASE + (rng.integers(0, 60 * 86_400, size=n)
                     * 1_000_000).astype("timedelta64[us]")
    k = rng.integers(0, 1000, size=n)
    props = np.array([f'{{"k": {x}}}' for x in k], dtype=object)
    junk = rng.random(n)
    props[junk < 0.1] = "{}"
    props[(junk >= 0.1) & (junk < 0.15)] = '{"k": null}'
    return _write_events(
        d,
        np.arange(n),
        ts,
        users,
        np.array(["view", "purchase", "click"], dtype=object)[
            rng.integers(0, 3, size=n)],
        np.round(rng.uniform(-50, 500, size=n), 3),
        props,
    )


def _cents(values):
    return np.floor(np.asarray(values) * 100 + 0.5).astype(np.int64)


def _sorted(df, keys):
    return df.sort_values(keys).reset_index(drop=True)


@pytest.fixture(scope="module")
def event_dirs(tmp_path_factory):
    return {s: _random_events(tmp_path_factory.mktemp(s), s, seed=i)
            for i, s in enumerate(["dense", "sparse"])}


@pytest.mark.parametrize("shape", ["dense", "sparse"])
@pytest.mark.parametrize("name", sorted(ev.queries()))
def test_query_matches_oracle_on_random_streams(event_dirs, name, shape):
    d = event_dirs[shape]
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{d}/events.parquet')")
    mine = canon(to_df(ev.queries()[name](d)))
    oracle = canon(con.execute(ev.oracles()[name]).df())
    assert len(mine) > 0
    assert compare(mine, oracle), (name, len(mine), len(oracle))


# ---------------------------------------------------------------------------
# sessionize


def _sessionize_ref(d, gap_minutes=30):
    df = pq.read_table(f"{d}/events.parquet").to_pandas()
    df = df.sort_values(["user_id", "ts", "event_id"])
    df["cents"] = _cents(df["value"])
    same = df["user_id"].eq(df["user_id"].shift())
    brk = (df["ts"].diff() > pd.Timedelta(minutes=gap_minutes)) & same
    df["session_idx"] = brk.groupby(df["user_id"].values).cumsum().astype("int64")
    g = df.groupby(["user_id", "session_idx"], as_index=False).agg(
        n_events=("event_id", "size"), start_ts=("ts", "min"),
        end_ts=("ts", "max"), sum_value_cents=("cents", "sum"))
    return _sorted(g, ["user_id", "session_idx"])


def _sessions(d, **kw):
    got = ev.sessionize(d, **kw).to_pandas()
    return _sorted(got, ["user_id", "session_idx"])[
        ["user_id", "session_idx", "n_events", "start_ts", "end_ts",
         "sum_value_cents"]]


def test_sessionize_gap_equal_to_threshold_does_not_break(tmp_path):
    """The break rule is ``gap > 30 min``: exactly 30 min continues the
    session, 30 min + 1 µs opens a new one."""
    ts = [BASE, BASE + 30 * MIN, BASE + 60 * MIN + np.timedelta64(1, "us")]
    d = _write_events(tmp_path, [0, 1, 2], ts, [7, 7, 7],
                      ["view"] * 3, [1.0, 2.0, 4.0])
    got = _sessions(d)
    assert got["n_events"].tolist() == [2, 1]
    assert got["sum_value_cents"].tolist() == [300, 400]


def test_sessionize_merges_session_across_chunk_boundary(tmp_path):
    """A session running 23:40 → 00:20 spans two 24 h chunks; phase 2
    must stitch the two local sessions back into one."""
    mid = BASE + 24 * HOUR
    ts = [mid - 20 * MIN, mid - 5 * MIN, mid + 10 * MIN, mid + 20 * MIN,
          mid + 3 * HOUR]
    d = _write_events(tmp_path, range(5), ts, [3] * 5, ["click"] * 5,
                      [0.01, 0.02, 0.03, 0.04, 1.0])
    got = _sessions(d, split_hours=24)
    assert got["n_events"].tolist() == [4, 1]
    assert got["start_ts"].iloc[0] == pd.Timestamp(mid - 20 * MIN)
    assert got["end_ts"].iloc[0] == pd.Timestamp(mid + 20 * MIN)
    assert got["sum_value_cents"].tolist() == [10, 100]


@pytest.mark.parametrize("split_hours", [None, 1, 6])
def test_sessionize_split_hours_invariance(event_dirs, split_hours):
    """Any chunk width, and the one-exchange path, give the single-pass
    sessions."""
    d = event_dirs["dense"]
    pd.testing.assert_frame_equal(
        _sessions(d, split_hours=split_hours), _sessionize_ref(d),
        check_like=True)


def test_sessionize_custom_gap(event_dirs):
    d = event_dirs["dense"]
    pd.testing.assert_frame_equal(
        _sessions(d, gap_minutes=10), _sessionize_ref(d, gap_minutes=10),
        check_like=True)


@pytest.mark.parametrize(
    "query,keys",
    # an explicit id keeps the numbering this case had while the removed
    # asof_join and compact_latest_events cases sat beside it
    [pytest.param("sessionize", ["user_id", "session_idx"],
                  id="sessionize-keys0")],
)
def test_bucket_count_invariance(event_dirs, query, keys):
    d = event_dirs["dense"]
    fn = ev.queries()[query]
    a = _sorted(fn(d, num_buckets=3).to_pandas(), keys)
    b = _sorted(fn(d, num_buckets=61).to_pandas(), keys)
    pd.testing.assert_frame_equal(a, b, check_like=True)
