"""The window/running-total queries of ``functions/events.py``: each query
against its DuckDB oracle on adversarial event streams, plus the edge
semantics the oracles pin (inclusive gaps, tie breaks, window
boundaries, chunk straddles, exact integer cents)."""

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


# ---------------------------------------------------------------------------
# running_user_spend, compact_latest_events


def test_running_user_spend_ts_ties_ordered_by_event_id(tmp_path):
    """Rows tied on ts (distinct event ids) are not window peers: the
    running total steps through them in event_id order."""
    d = _write_events(
        tmp_path,
        [3, 1, 2, 0],
        [BASE + MIN, BASE + MIN, BASE + MIN, BASE],
        [9, 9, 9, 9],
        ["view"] * 4,
        [3.0, 1.0, 2.0, 10.0],
    )
    got = _sorted(ev.running_user_spend(d).to_pandas(), "event_id")
    assert got["running_cents"].tolist() == [1000, 1100, 1300, 1600]


def test_compact_latest_events_ts_tie_breaks_to_larger_event_id(tmp_path):
    d = _write_events(
        tmp_path,
        [5, 8, 2, 1],
        [BASE + MIN, BASE + MIN, BASE, BASE],
        [1, 1, 1, 2],
        ["view", "view", "view", "view"],
        [1.5, 2.5, 9.0, 4.25],
    )
    got = _sorted(ev.compact_latest_events(d).to_pandas(), "user_id")
    assert got["event_id"].tolist() == [8, 1]
    assert got["value"].tolist() == [2.5, 4.25]


@pytest.mark.parametrize(
    "query,keys",
    # explicit ids keep the numbering these cases had while the removed
    # asof_join case sat between them
    [pytest.param("sessionize", ["user_id", "session_idx"],
                  id="sessionize-keys0"),
     pytest.param("compact_latest_events", ["user_id", "event_type"],
                  id="compact_latest_events-keys2")],
)
def test_bucket_count_invariance(event_dirs, query, keys):
    d = event_dirs["dense"]
    fn = ev.queries()[query]
    a = _sorted(fn(d, num_buckets=3).to_pandas(), keys)
    b = _sorted(fn(d, num_buckets=61).to_pandas(), keys)
    pd.testing.assert_frame_equal(a, b, check_like=True)


# ---------------------------------------------------------------------------
# window_agg, hopping_window_agg, props_stats


def test_window_agg_hour_boundary(tmp_path):
    """An event exactly at 01:00 opens the 01:00 window; one microsecond
    earlier still belongs to 00:00."""
    ts = [BASE + HOUR - np.timedelta64(1, "us"), BASE + HOUR]
    d = _write_events(tmp_path, [0, 1], ts, [1, 1], ["x", "x"], [1.0, 2.0])
    got = _sorted(ev.window_agg(d).to_pandas(), "window_start")
    assert got["window_start"].tolist() == [pd.Timestamp(BASE),
                                            pd.Timestamp(BASE + HOUR)]
    assert got["sum_value_cents"].tolist() == [100, 200]


@pytest.mark.parametrize("width,hop", [(2, 1), (3, 1), (4, 2)])
def test_hopping_window_agg_width_and_hop(event_dirs, width, hop):
    """Each event lands in exactly width/hop windows, starting at its
    hop-floored ts and stepping back by one hop each."""
    d = event_dirs["dense"]
    df = pq.read_table(f"{d}/events.parquet").to_pandas()
    base = df["ts"].dt.floor(f"{hop}h")
    parts = [pd.DataFrame({
        "window_start": (base - pd.Timedelta(hours=hop * k))
        .astype("datetime64[us]"),
        "event_type": df["event_type"],
        "cents": _cents(df["value"]),
    }) for k in range(width // hop)]
    want = (pd.concat(parts).groupby(["window_start", "event_type"],
                                     as_index=False)
            .agg(n_events=("cents", "size"), sum_value_cents=("cents", "sum")))
    got = ev.hopping_window_agg(d, width_hours=width, hop_hours=hop).to_pandas()
    keys = ["window_start", "event_type"]
    got = _sorted(got, keys)[list(want.columns)]
    assert int(got["n_events"].sum()) == len(df) * (width // hop)
    pd.testing.assert_frame_equal(got, _sorted(want, keys), check_dtype=False)


def test_props_stats_takes_first_integer(tmp_path):
    """Only the first digit run of ``props`` counts, as in the oracle's
    ``regexp_extract``."""
    d = _write_events(
        tmp_path, [0, 1, 2], [BASE] * 3, [1, 1, 1], ["a", "a", "b"],
        [0.0] * 3, ['{"k": 12, "j": 99}', '{"k": 5}', '{"x": "7z8"}'])
    got = ev.props_stats(d).to_pandas().set_index("event_type")
    assert got.loc["a", ["n", "sum_k", "max_k"]].tolist() == [2, 17, 12]
    assert got.loc["b", ["n", "sum_k", "max_k"]].tolist() == [1, 7, 7]
