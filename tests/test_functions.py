"""Brute-force pandas references for sessionize on a hot-user corpus and
on random event streams, and the k-core peel of the HPO co-occurrence
graph."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def skewed_events_dir(tmp_path_factory):
    """Synthetic events parquet with ONE pathological user holding 100k
    events packed into a few days (many sessions, many chunk boundaries)
    plus a handful of normal users."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    rng = np.random.default_rng(7)
    n_hot = 100_000
    base = np.datetime64("2024-01-01T00:00:00", "us")
    # hot user: bursts with gaps drawn to straddle the 30-min session gap
    # and the 24h chunk boundary
    gaps_s = rng.choice([5, 60, 2_400, 90_000], size=n_hot,
                        p=[0.6, 0.3, 0.08, 0.02]).cumsum()
    hot_ts = base + gaps_s.astype("timedelta64[s]").astype("timedelta64[us]")
    rows = {
        "event_id": np.arange(n_hot + 400, dtype=np.int64),
        "user_id": np.concatenate([np.zeros(n_hot, dtype=np.int64),
                                   1 + np.arange(400, dtype=np.int64) % 4]),
        "ts": np.concatenate([
            hot_ts,
            base + (rng.integers(0, 30 * 86_400, size=400) * 1_000_000)
                  .astype("timedelta64[us]"),
        ]),
        "event_type": np.array(
            ["view", "purchase", "click"], dtype=object
        )[rng.integers(0, 3, size=n_hot + 400)],
        "value": np.round(rng.random(n_hot + 400), 3),
    }
    d = tmp_path_factory.mktemp("skew")
    pq_.write_table(pa.table(rows), str(d / "events.parquet"))
    return str(d)


def _sessionize_pandas(dirpath, gap_minutes=30):
    import pyarrow.parquet as pq_

    df = pq_.read_table(f"{dirpath}/events.parquet").to_pandas()
    df = df.sort_values(["user_id", "ts", "event_id"])
    df["cents"] = np.floor(df["value"].to_numpy() * 100 + 0.5).astype("int64")
    same = df["user_id"].eq(df["user_id"].shift())
    brk = (df["ts"].diff() > pd.Timedelta(minutes=gap_minutes)) & same
    df["session_idx"] = brk.groupby(df["user_id"].values).cumsum().astype("int64")
    g = df.groupby(["user_id", "session_idx"], as_index=False).agg(
        n_events=("event_id", "size"), start_ts=("ts", "min"),
        end_ts=("ts", "max"), sum_value_cents=("cents", "sum"))
    return g.sort_values(["user_id", "session_idx"]).reset_index(drop=True)


def test_sessionize_hot_user_time_split(skewed_events_dir):
    """The (user, time-chunk) split path must reproduce the single-pass
    sessionization exactly on a corpus where one user holds 100k events."""
    from phenobert_ray.functions.events import sessionize

    got = (
        sessionize(skewed_events_dir, split_hours=24)
        .to_pandas()
        .sort_values(["user_id", "session_idx"])
        .reset_index(drop=True)[
            ["user_id", "session_idx", "n_events", "start_ts", "end_ts",
             "sum_value_cents"]
        ]
    )
    exp = _sessionize_pandas(skewed_events_dir)
    pd.testing.assert_frame_equal(got, exp, check_like=True)


def _random_events_dir(tmp_path_factory, seed):
    import pyarrow as pa
    import pyarrow.parquet as pq_

    rng = np.random.default_rng(seed)
    n = 3000
    base = np.datetime64("2024-03-01T00:00:00", "us")
    rows = {
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 12, size=n).astype(np.int64),
        # timestamps cluster tightly AND jump across the 24h chunk boundary
        "ts": base + (rng.integers(0, 5 * 86_400, size=n) * 1_000_000)
             .astype("timedelta64[us]"),
        "event_type": np.array(["view", "purchase", "click"], dtype=object)[
            rng.integers(0, 3, size=n)
        ],
        "value": np.round(rng.random(n), 3),
    }
    d = tmp_path_factory.mktemp(f"re{seed}")
    pq_.write_table(pa.table(rows), str(d / "events.parquet"))
    return str(d)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sessionize_randomized_equivalence(tmp_path_factory, seed):
    """Two-phase (user, chunk) sessionize ≡ single-pass pandas reference on
    random event streams (dense ties, chunk-boundary straddles)."""
    from phenobert_ray.functions.events import sessionize

    d = _random_events_dir(tmp_path_factory, seed)
    got = (
        sessionize(d, split_hours=24).to_pandas()
        .sort_values(["user_id", "session_idx"]).reset_index(drop=True)
        [["user_id", "session_idx", "n_events", "start_ts", "end_ts",
          "sum_value_cents"]]
    )
    exp = _sessionize_pandas(d)
    pd.testing.assert_frame_equal(got, exp, check_like=True)


def test_kcore_peels_low_degree_tail():
    import ray

    from phenobert_ray.pipelines.graph import kcore_nodes

    # triangle a-b-c (2-core) plus a pendant path c-d-e that must peel off
    edges = pa.table(
        {
            "hpo_a": ["a", "a", "b", "c", "d"],
            "hpo_b": ["b", "c", "c", "d", "e"],
        }
    )
    # the edge list in one block and split over several (one edge each)
    for blocks in (1, 7):
        got = kcore_nodes(ray.data.from_arrow(edges).repartition(blocks),
                          k=2, rounds=3).to_pandas()
        assert sorted(got["hpo_id"]) == ["a", "b", "c"], blocks
        assert (got.set_index("hpo_id")["degree"] == 2).all()


def test_kcore_fully_peeled_graph_is_empty():
    import ray

    from phenobert_ray.pipelines.graph import kcore_nodes

    # a path graph has no 2-core
    edges = pa.table({"hpo_a": ["a", "b", "c"], "hpo_b": ["b", "c", "d"]})
    got = kcore_nodes(ray.data.from_arrow(edges), k=2, rounds=4).to_pandas()
    assert len(got) == 0
