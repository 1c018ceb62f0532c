"""Training-data ops: pytest oracles for the rows-only queries (brute-force
reference implementations on the small table)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_ann_topk_bruteforce(sf_small):
    from phenobert_ray.functions.ann import N_QUERIES, ann_topk

    got = ann_topk(sf_small).to_pandas()
    t = pq.read_table(f"{sf_small}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.array(t.column("vec_id").to_pylist())
    E = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    for q in range(N_QUERIES):
        sims = np.round(En[ids == q][0] @ En[ids >= N_QUERIES].T, 6)
        cand = ids[ids >= N_QUERIES]
        order = np.lexsort((cand, -sims))[:5]
        expect = list(cand[order])
        mine = got[got.query_id == q].sort_values("rank").neighbor_id.tolist()
        assert mine == expect


def test_ann_lsh_recall(sf_small):
    """Hyperplane-LSH ANN: every returned neighbor is real (scored with
    true cosine) and recall@5 vs the exact search is reasonable for a
    12-bit multi-probe table on 64-dim data."""
    from phenobert_ray.functions.ann import ann_lsh_topk, ann_topk

    exact = ann_topk(sf_small).to_pandas()
    approx = ann_lsh_topk(sf_small).to_pandas()
    assert set(approx.columns) == {"query_id", "rank", "neighbor_id"}
    hits = 0
    total = 0
    for q in exact.query_id.unique():
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(approx[approx.query_id == q].neighbor_id)
        hits += len(e & a)
        total += len(e)
    assert total > 0
    assert hits / total >= 0.4  # approximate by design; exactness is ann_topk


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


def test_asof_join_hot_user_time_split(skewed_events_dir):
    """Two-phase as-of join ≡ single-pass merge_asof on the skewed corpus."""
    import pyarrow.parquet as pq_

    from phenobert_ray.functions.events import asof_join

    got = (
        asof_join(skewed_events_dir, split_hours=24)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    df = pq_.read_table(f"{skewed_events_dir}/events.parquet").to_pandas()
    left = df[df.event_type == "purchase"].sort_values(["ts", "event_id"])
    right = (df[df.event_type == "view"].sort_values(["ts", "event_id"])
             .rename(columns={"event_id": "view_event_id", "ts": "view_ts"}))
    exp = pd.merge_asof(
        left[["event_id", "user_id", "ts"]],
        right[["view_event_id", "user_id", "view_ts"]],
        left_on="ts", right_on="view_ts", by="user_id",
        direction="backward", allow_exact_matches=False)
    exp["view_event_id"] = exp["view_event_id"].fillna(-1).astype("int64")
    exp = exp.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["event_id", "user_id", "ts", "view_event_id", "view_ts"]], exp
    )
    # the documented one-exchange fallback produces the identical result
    got_none = (
        asof_join(skewed_events_dir, split_hours=None)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got_none[["event_id", "user_id", "ts", "view_event_id", "view_ts"]], exp
    )


def test_ann_kmeans_recall(sf_small):
    """kmeans-IVF ANN: every returned neighbor is real and recall@5 vs the
    exact search is reasonable at n_probe=2 of 8 cells."""
    from phenobert_ray.functions.ann import ann_kmeans_topk, ann_topk

    exact = ann_topk(sf_small).to_pandas()
    approx = ann_kmeans_topk(sf_small).to_pandas()
    assert list(approx.columns) == ["query_id", "rank", "neighbor_id"]
    hits = total = 0
    for q in exact.query_id.unique():
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(approx[approx.query_id == q].neighbor_id)
        hits += len(e & a)
        total += len(e)
    assert total > 0
    assert hits / total >= 0.4
    # determinism (seeded kmeans + deterministic sample)
    again = ann_kmeans_topk(sf_small).to_pandas()
    assert approx.equals(again)


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


@pytest.mark.parametrize("seed", [4, 5])
def test_asof_join_randomized_equivalence(tmp_path_factory, seed):
    """Two-phase as-of join ≡ single-pass merge_asof on random streams."""
    import pyarrow.parquet as pq_

    from phenobert_ray.functions.events import asof_join

    d = _random_events_dir(tmp_path_factory, seed)
    got = (
        asof_join(d, split_hours=24).to_pandas()
        .sort_values("event_id").reset_index(drop=True)
    )
    df = pq_.read_table(f"{d}/events.parquet").to_pandas()
    left = df[df.event_type == "purchase"].sort_values(["ts", "event_id"])
    right = (df[df.event_type == "view"].sort_values(["ts", "event_id"])
             .rename(columns={"event_id": "view_event_id", "ts": "view_ts"}))
    exp = pd.merge_asof(
        left[["event_id", "user_id", "ts"]],
        right[["view_event_id", "user_id", "view_ts"]],
        left_on="ts", right_on="view_ts", by="user_id",
        direction="backward", allow_exact_matches=False)
    exp["view_event_id"] = exp["view_event_id"].fillna(-1).astype("int64")
    exp = exp.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["event_id", "user_id", "ts", "view_event_id", "view_ts"]], exp
    )


def _brute_range_join(dirpath, window_hours=6):
    import pyarrow.parquet as pq_

    df = pq_.read_table(f"{dirpath}/events.parquet").to_pandas()
    buys = df[df.event_type == "purchase"]
    views = df[df.event_type == "view"]
    w = pd.Timedelta(hours=window_hours)
    out = []
    for _, p in buys.iterrows():
        m = views[
            (views.user_id == p.user_id)
            & (views.ts > p.ts)
            & (views.ts <= p.ts + w)
        ]
        out.append((p.event_id, p.user_id, p.ts, len(m),
                    int(np.floor(m.value.to_numpy() * 100 + 0.5)
                        .astype("int64").sum())))
    return (
        pd.DataFrame(out, columns=["event_id", "user_id", "ts",
                                   "n_views", "sum_view_cents"])
        .astype({"event_id": "int64", "user_id": "int64", "n_views": "int64",
                 "ts": "datetime64[us]"})
        .sort_values("event_id").reset_index(drop=True)
    )


@pytest.mark.parametrize("seed", [8, 9])
def test_range_join_randomized_equivalence(tmp_path_factory, seed):
    """Chunked interval join ≡ serial per-purchase scan on random streams
    whose windows straddle the chunk boundary."""
    from phenobert_ray.functions.events import range_join

    d = _random_events_dir(tmp_path_factory, seed)
    got = (
        range_join(d, window_hours=6).to_pandas()
        .sort_values("event_id").reset_index(drop=True)
    )
    exp = _brute_range_join(d, 6)
    pd.testing.assert_frame_equal(got, exp, check_like=True)


def test_range_join_boundary_exactness(tmp_path_factory):
    """Views exactly AT the window endpoints: ts == p.ts excluded,
    ts == p.ts + W included, one view exactly on the chunk boundary."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from phenobert_ray.functions.events import range_join

    base = np.datetime64("2024-05-01T00:00:00", "us")
    h = np.timedelta64(3_600_000_000, "us")
    rows = {
        "event_id": np.arange(6, dtype=np.int64),
        "user_id": np.zeros(6, dtype=np.int64),
        "ts": np.array([
            base + 2 * h,        # purchase at 02:00, window (02:00, 08:00]
            base + 2 * h,        # view at exactly purchase ts -> excluded
            base + 6 * h,        # view at chunk boundary 06:00 -> included
            base + 8 * h,        # view at exactly ts+W -> included
            base + 8 * h + np.timedelta64(1, "us"),  # just past -> excluded
            base + 5 * h,        # view inside -> included
        ]),
        "event_type": np.array(
            ["purchase", "view", "view", "view", "view", "view"], dtype=object
        ),
        "value": np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0]),
    }
    d = tmp_path_factory.mktemp("rjb")
    pq_.write_table(pa.table(rows), str(d / "events.parquet"))
    got = range_join(str(d), window_hours=6).to_pandas()
    assert len(got) == 1
    assert int(got.loc[0, "n_views"]) == 3
    assert int(got.loc[0, "sum_view_cents"]) == 2200


def test_range_join_bucket_count_invariance(tmp_path_factory):
    from phenobert_ray.functions.events import range_join

    d = _random_events_dir(tmp_path_factory, 11)
    a = (range_join(d, num_buckets=3).to_pandas()
         .sort_values("event_id").reset_index(drop=True))
    b = (range_join(d, num_buckets=64).to_pandas()
         .sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_range_join_hot_user(skewed_events_dir):
    """The (user, chunk) exchange must stay correct when one user holds
    100k events: spot-check totals against a vectorized global oracle."""
    import pyarrow.parquet as pq_

    from phenobert_ray.functions.events import range_join

    got = range_join(skewed_events_dir).to_pandas()
    df = pq_.read_table(f"{skewed_events_dir}/events.parquet").to_pandas()
    buys = df[df.event_type == "purchase"]
    views = df[df.event_type == "view"].sort_values(["user_id", "ts"])
    assert len(got) == len(buys)
    # vectorized oracle: per-user searchsorted, same as a serial scan
    w = pd.Timedelta(hours=6)
    got = got.set_index("event_id")
    for uid, g in views.groupby("user_id"):
        vts = g["ts"].to_numpy()
        cents = np.floor(g["value"].to_numpy() * 100 + 0.5).astype("int64")
        cs = np.concatenate(([np.int64(0)], np.cumsum(cents)))
        pb = buys[buys.user_id == uid]
        lo = np.searchsorted(vts, pb["ts"].to_numpy(), side="right")
        hi = np.searchsorted(vts, (pb["ts"] + w).to_numpy(), side="right")
        assert (got.loc[pb["event_id"], "n_views"].to_numpy()
                == (hi - lo)).all()
        assert (got.loc[pb["event_id"], "sum_view_cents"].to_numpy()
                == cs[hi] - cs[lo]).all()
    # purchases of users with no views at all still appear with zeros
    no_view_users = set(buys.user_id) - set(views.user_id)
    for uid in no_view_users:
        assert (got.loc[buys[buys.user_id == uid]["event_id"],
                        "n_views"] == 0).all()


# ---------------------------------------------------------------------------
# integer-exact k-means kernel (ann_kmeans_topk)


def test_rounded_div_matches_duckdb_semantics():
    import duckdb

    from phenobert_ray.functions import ann

    s = np.array([-7, -5, -1, 0, 1, 5, 7, -1000, 999], dtype=np.int64)
    n = np.array([3, 2, 4, 5, 4, 2, 3, 7, 11], dtype=np.int64)
    got = ann._rounded_div(s, n)
    for si, ni, gi in zip(s, n, got):
        (want,) = duckdb.sql(
            f"""SELECT CASE WHEN {si} < 0
                 THEN -((2 * {ann.R} * ({-si}) + {ni}) // (2 * {ni}))
                 ELSE (2 * {ann.R} * {si} + {ni}) // (2 * {ni}) END"""
        ).fetchone()
        assert gi == want, (si, ni, gi, want)


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


def test_running_user_spend_exact_beyond_float53(tmp_path):
    """Running totals above 2^53 cents must come back EXACT end to end
    (odd, not float64-representable): pins the all-integer partial-sum /
    offset path against any future float promotion."""
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from phenobert_ray.functions.events import RUN_CHUNK_US, running_user_spend

    import math

    # chunk 0: a huge (even, ~2^55-cent) event plus a 1-cent event make
    # the chunk-1 OFFSET odd and > 2^53 — not float64-representable, so
    # the old float-promoting merge corrupts it by ±1
    big = float(1 << 55) / 100.0
    c_big = math.floor(big * 100 + 0.5)
    assert c_big % 2 == 0 and c_big > (1 << 53)  # construction holds
    rows = [
        (1, 5, 1, big),
        (2, 9, 1, 0.01),
        (3, RUN_CHUNK_US + 5, 1, 1.0),
    ]
    t = _pa.table({
        "event_id": _pa.array([r[0] for r in rows], _pa.int64()),
        "ts": _pa.array([r[1] for r in rows], _pa.timestamp("us")),
        "user_id": _pa.array([r[2] for r in rows], _pa.int64()),
        "event_type": _pa.array(["click"] * len(rows)),
        "value": _pa.array([r[3] for r in rows]),
        "props": _pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, tmp_path / "events.parquet")
    got = (running_user_spend(str(tmp_path)).to_pandas()
           .sort_values("event_id"))
    assert got["running_cents"].tolist() == [c_big, c_big + 1, c_big + 101]

