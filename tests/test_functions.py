"""Training-data ops: pytest oracles for the rows-only queries (brute-force
reference implementations on the small table)."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from phenobert_ray.functions.dedup import (
    jaccard,
    minhash_lsh_pairs,
    shingles,
    simhash_signatures,
)


@pytest.fixture(scope="module")
def docs(sf_small):
    t = pq.read_table(f"{sf_small}/documents.parquet", columns=["doc_id", "text"])
    return dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))


def test_minhash_lsh_vs_bruteforce(sf_small, docs):
    """Every LSH pair must truly have jaccard ≥ threshold (precision = 1 by
    construction — pairs are verified); recall vs brute force must be high
    for clearly-similar pairs (jac ≥ 0.7 ⇒ band collision w.h.p.)."""
    got = minhash_lsh_pairs(sf_small, threshold=0.5).to_pandas()
    got_pairs = {(a, b): j for a, b, j in zip(got.doc_a, got.doc_b, got.jac)}
    sh = {d: shingles(t) for d, t in docs.items()}
    for (a, b), j in got_pairs.items():
        true_j = jaccard(sh[a], sh[b])
        assert abs(true_j - j) < 1e-6
        assert true_j >= 0.5
    # recall on strong pairs
    ids = sorted(sh)
    strong = [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
        if jaccard(sh[a], sh[b]) >= 0.7
    ]
    found = sum((a, b) in got_pairs for a, b in strong)
    assert not strong or found / len(strong) >= 0.9


def test_simhash_matches_local(sf_small, docs):
    got = simhash_signatures(sf_small).to_pandas().set_index("doc_id")["simhash"]

    def local(text):
        acc = np.zeros(64, dtype=np.int64)
        for tok in set(text.split(" ")):
            h = int(hashlib.md5(tok.encode()).hexdigest()[:16], 16)
            for i in range(64):
                acc[i] += 1 if (h >> i) & 1 else -1
        return sum(1 << i for i in range(64) if acc[i] > 0)

    for d in list(docs)[:20]:
        assert int(got.loc[d]) == local(docs[d])


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


def test_simhash_pairs_exact_for_small_hamming(sf_small, docs):
    """For max_hamming ≤ 3 the 4-chunk LSH has exact recall (pigeonhole):
    output == brute force."""
    import hashlib as hl

    from phenobert_ray.functions.dedup import simhash_dup_pairs

    got = simhash_dup_pairs(sf_small, max_hamming=3).to_pandas()
    got_pairs = {(a, b): h for a, b, h in zip(got.doc_a, got.doc_b, got.hamming)}

    def sim(text):
        acc = np.zeros(64, dtype=np.int64)
        for tok in set(text.split(" ")):
            h = int(hl.md5(tok.encode()).hexdigest()[:16], 16)
            for i in range(64):
                acc[i] += 1 if (h >> i) & 1 else -1
        return sum(1 << i for i in range(64) if acc[i] > 0)

    sigs = {d: sim(t) for d, t in docs.items()}
    ids = sorted(sigs)
    expect = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = bin(sigs[ids[i]] ^ sigs[ids[j]]).count("1")
            if d <= 3:
                expect[(ids[i], ids[j])] = d
    assert got_pairs == expect


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


def test_connected_components_random_graph():
    """Min-label propagation vs driver-side union-find on a random graph."""
    import random

    import ray as _ray

    from phenobert_ray.functions.graph import connected_components

    rng = random.Random(13)
    edges = [(rng.randrange(40), rng.randrange(40)) for _ in range(30)]
    edges = [(min(a, b), max(a, b)) for a, b in edges if a != b]
    import pandas as pd

    ds = _ray.data.from_pandas(pd.DataFrame(edges, columns=["doc_a", "doc_b"]))
    # force the DISTRIBUTED rounds (small_graph_edges=0); then check the
    # single-task fast path returns the identical labeling
    got = (
        connected_components(ds, num_buckets=4, small_graph_edges=0)
        .to_pandas()
        .set_index("doc_id")["cluster_id"]
        .to_dict()
    )
    fast = (
        connected_components(ds, num_buckets=4)
        .to_pandas()
        .set_index("doc_id")["cluster_id"]
        .to_dict()
    )
    assert fast == got

    # union-find reference
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expect = {}
    for a, b in edges:
        expect[a] = find(a)
        expect[b] = find(b)
    assert got == expect


def test_connected_components_empty_edges():
    """Zero near-dup pairs must yield an empty (doc_id, cluster_id) result,
    not a crash (Ray aggregate returns None on empty datasets)."""
    import pandas as pd
    import ray as _ray

    from phenobert_ray.functions.graph import connected_components

    empty = _ray.data.from_pandas(
        pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                      "doc_b": pd.Series([], dtype="int64")})
    )
    got = connected_components(empty, num_buckets=4)
    # NB: Dataset.to_pandas() drops columns entirely on 0-row datasets, so
    # assert on the Dataset schema (which is preserved)
    assert got.schema().names == ["doc_id", "cluster_id"]
    assert got.count() == 0


def test_connected_components_round_budget_exhaustion():
    """A path graph with diameter > max_rounds must raise loudly instead of
    returning silently-truncated (wrong) cluster ids."""
    import pandas as pd
    import pytest as _pytest
    import ray as _ray

    from phenobert_ray.functions.graph import connected_components

    # path 0-1-2-...-19: diameter 19 ≫ max_rounds=2
    edges = pd.DataFrame({"doc_a": range(19), "doc_b": range(1, 20)})
    with _pytest.raises(RuntimeError, match="did not converge"):
        connected_components(
            _ray.data.from_pandas(edges), max_rounds=2, num_buckets=4,
            small_graph_edges=0,
        ).to_pandas()


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


def test_ngram_stop_shingle_cap(tmp_path):
    """An adversarial duplicate-heavy corpus (200 near-identical docs) must
    not explode into C(200,2) work per shingle when the df cap is set; with
    the default (high) cap the exact result is unchanged."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from phenobert_ray.functions.dedup import ngram_jaccard_pairs

    texts = [f"the quick brown fox jumps over dog {i}" for i in range(200)]
    texts += ["totally different content here entirely unique", 
              "totally different content here entirely distinct"]
    d = tmp_path / "adv"
    d.mkdir()
    pq_.write_table(
        pa.table({"doc_id": list(range(len(texts))), "text": texts}),
        str(d / "documents.parquet"),
    )
    # cap below the hot df (200): the 200-dup block's shared shingles are
    # dropped; the pair among the 2 unique docs survives (their shingles
    # have df ≤ 2)
    capped = ngram_jaccard_pairs(str(d), threshold=0.5, max_shingle_df=100).to_pandas()
    assert {(200, 201)} <= set(zip(capped.doc_a, capped.doc_b))
    assert all(a >= 200 for a in capped.doc_a)
    # default cap: exact — the duplicate block produces its full pair set
    exact = ngram_jaccard_pairs(str(d), threshold=0.5).to_pandas()
    assert len(exact) > 190 * 199 / 2  # most of C(200,2) pairs pass 0.5


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


def test_connected_components_log_rounds_on_long_path():
    """Pointer jumping makes convergence O(log diameter): a 1000-node path
    (diameter 999) must converge within 15 rounds — plain min-label
    propagation would need ~999."""
    import ray as _ray

    from phenobert_ray.functions.graph import connected_components

    edges = pd.DataFrame({"doc_a": range(999), "doc_b": range(1, 1000)})
    got = (
        connected_components(_ray.data.from_pandas(edges), max_rounds=15,
                             num_buckets=8)
        .to_pandas()
    )
    assert len(got) == 1000
    assert set(got["cluster_id"]) == {0}


def test_simhash_dup_clusters_small(sf_small):
    """Cluster composition over simhash pairs: clusters match a union-find
    over the pair list."""
    from phenobert_ray.functions.dedup import simhash_dup_clusters, simhash_dup_pairs

    pairs = simhash_dup_pairs(sf_small).to_pandas()
    got = (
        simhash_dup_clusters(sf_small).to_pandas()
        .set_index("doc_id")["cluster_id"].to_dict()
    )
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs.doc_a, pairs.doc_b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expect = {}
    for a, b in zip(pairs.doc_a, pairs.doc_b):
        expect[a] = find(a)
        expect[b] = find(b)
    assert got == expect


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
# duplicate_spans (exact cross-doc duplicated-substring spans)


def _brute_spans(texts: dict[int, str], L: int = 8):
    """Serial reference: mark every L-gram start whose gram occurs in ≥ 2
    distinct docs, then merge marked starts ≤ L apart into maximal runs."""
    from collections import defaultdict

    owners: dict[str, set] = defaultdict(set)
    grams: dict[int, list] = {}
    for d, t in texts.items():
        toks = t.split(" ")
        gs = [" ".join(toks[i:i + L]) for i in range(len(toks) - L + 1)]
        grams[d] = gs
        for g in set(gs):
            owners[g].add(d)
    rows = []
    for d, gs in grams.items():
        marked = [i for i, g in enumerate(gs) if len(owners[g]) >= 2]
        run_start = None
        prev = None
        for i in marked + [None]:
            if i is not None and prev is not None and i - prev <= L:
                prev = i
                continue
            if prev is not None:
                rows.append((d, run_start, prev + L - 1, prev - run_start + L))
            run_start = prev = i
    return sorted(rows)


def _spans_rows(got: pd.DataFrame):
    return sorted(
        zip(got.doc_id, got.span_start, got.span_end, got.n_tokens)
    )


def test_duplicate_spans_vs_bruteforce(sf_small, docs):
    from phenobert_ray.functions.dedup import duplicate_spans

    got = duplicate_spans(sf_small).to_pandas()
    assert _spans_rows(got) == _brute_spans(docs)
    assert len(got) > 0  # the corpus has exact dups -> spans must exist


def test_duplicate_spans_mid_doc_islands(tmp_path):
    """The sf corpora only contain full-doc duplicates; pin the mid-doc
    case: a shared 12-token region inside otherwise-unique docs yields one
    span per doc covering exactly that region; a doc whose only repetition
    is INTERNAL (same doc twice) is not marked; two docs sharing different
    but ADJACENT regions of a third splice into one span there."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from phenobert_ray.functions.dedup import duplicate_spans

    u = lambda p, n: " ".join(f"{p}{i}" for i in range(n))
    s1 = " ".join(f"s{i}" for i in range(12))           # shared region 1
    s2 = " ".join(f"z{i}" for i in range(9))            # shared region 2
    texts = {
        0: f"{u('a', 5)} {s1} {u('b', 6)}",             # s1 at tokens 5..16
        1: f"{u('c', 9)} {s1} {u('d', 3)}",             # s1 at tokens 9..20
        2: f"{u('e', 4)} {s2}",                         # s2 at tokens 4..12
        3: f"{s1} {s2} {u('f', 5)}",                    # s1+s2 adjacent: 0..20
        4: u("g", 10) + " " + u("g", 10),               # internal repeat only
        5: u("h", 30),                                  # fully unique
    }
    d = tmp_path / "spans"
    d.mkdir()
    pq_.write_table(
        pa.table({"doc_id": list(texts), "text": list(texts.values())}),
        str(d / "documents.parquet"),
    )
    got = _spans_rows(duplicate_spans(str(d)).to_pandas())
    assert got == _brute_spans(texts)
    by_doc = {r[0]: r for r in got}
    assert by_doc[0] == (0, 5, 16, 12)
    assert by_doc[1] == (1, 9, 20, 12)
    # doc 3: s1 (0..11) and s2 (12..20) splice into one covered run
    assert by_doc[3] == (3, 0, 20, 21)
    assert 4 not in by_doc and 5 not in by_doc


def test_duplicate_spans_bucket_count_invariance(sf_small, docs):
    from phenobert_ray.functions.dedup import duplicate_spans

    a = _spans_rows(duplicate_spans(sf_small, num_buckets=3).to_pandas())
    b = _spans_rows(duplicate_spans(sf_small, num_buckets=17).to_pandas())
    assert a == b == _brute_spans(docs)


# ---------------------------------------------------------------------------
# integer-exact k-means kernel (ann_kmeans_topk, semdedup)


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


# ---------------------------------------------------------------------------
# semdedup (cluster-then-near-dup semantic dedup)


def test_semdedup_properties(sf_small):
    """Precision is 1 by construction: every dropped vector must have a
    same-cell kept partner with cosine ≥ threshold (transitively, its
    group_id's member chain); exact duplicates always share an argmax
    cell, so planted identical vectors MUST collapse."""
    import pyarrow.parquet as pq_

    from phenobert_ray.functions.ann import _normalize
    from phenobert_ray.functions.dedup import COSINE_THRESHOLD, semdedup

    got = semdedup(sf_small).to_pandas()
    t = pq_.read_table(f"{sf_small}/embeddings.parquet")
    assert len(got) == t.num_rows
    vecs = {
        v: e for v, e in zip(t.column("vec_id").to_pylist(),
                             t.column("embedding").to_pylist())
    }
    X = {v: _normalize(np.array([e], dtype=np.float64))[0]
         for v, e in vecs.items()}
    by_group = got.groupby("group_id")
    for gid, g in by_group:
        assert gid == g["vec_id"].min()          # rep = min id
        assert (g["keep"] == (g["vec_id"] == gid)).all()
        assert g["cell"].nunique() == 1          # groups never cross cells
        if len(g) > 1:
            # every member has SOME in-group partner ≥ threshold
            ids = g["vec_id"].to_numpy()
            M = np.stack([X[v] for v in ids])
            S = np.round(M @ M.T, 6)
            np.fill_diagonal(S, -1)
            assert (S.max(axis=1) >= COSINE_THRESHOLD).all()
    # determinism
    again = semdedup(sf_small).to_pandas()
    a = got.sort_values("vec_id").reset_index(drop=True)
    b = again.sort_values("vec_id").reset_index(drop=True)
    assert a.equals(b)


def test_semdedup_planted_duplicates(tmp_path):
    """Identical vectors land in the same argmax cell no matter the
    centroid fit — a planted group of 4 copies must collapse to 1 kept."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from phenobert_ray.functions.dedup import semdedup

    rng = np.random.default_rng(3)
    base = rng.normal(size=(20, 8)).astype(np.float32)
    dup = np.tile(base[0][None, :], (4, 1))
    X = np.vstack([dup, base[1:]])
    d = tmp_path / "sem"
    d.mkdir()
    pq_.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(X)), pa.int64()),
                "embedding": pa.array([list(map(float, r)) for r in X],
                                      pa.list_(pa.float32())),
                "label": pa.array([0] * len(X), pa.int32()),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    got = semdedup(str(d), n_cells=4).to_pandas().set_index("vec_id")
    assert (got.loc[[0, 1, 2, 3], "group_id"] == 0).all()
    assert got.loc[0, "keep"] and not got.loc[[1, 2, 3], "keep"].any()


# ---------------------------------------------------------------------------
# leakage_safe_split


def test_leakage_safe_split_no_cross_split_neardups(sf_small):
    """The whole point: every near-dup pair must land on the SAME side;
    rates are cluster-level md5, so val fraction ≈ 1/8."""
    from phenobert_ray.functions.dedup import (
        leakage_safe_split,
        ngram_jaccard_pairs,
    )

    got = leakage_safe_split(sf_small).to_pandas().set_index("doc_id")
    pairs = ngram_jaccard_pairs(sf_small).to_pandas()
    assert len(pairs) > 0
    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        assert got.loc[a, "split"] == got.loc[b, "split"]
        assert got.loc[a, "group_key"] == got.loc[b, "group_key"]
    frac = (got["split"] == "val").mean()
    assert 0.05 < frac < 0.22  # ≈ 1/8 with sampling noise
    # every doc appears exactly once
    assert got.index.is_unique and len(got) == 500


# ---------------------------------------------------------------------------
# contrastive_pairs


def test_contrastive_pairs_validity(sf_small, docs):
    """Every triplet: anchor/positive are a true near-dup pair (jac ≥ 0.5),
    negative is an existing doc distinct from both, and the whole mapping
    is deterministic."""
    from phenobert_ray.functions.dedup import (
        contrastive_pairs,
        jaccard,
        shingles,
    )

    got = contrastive_pairs(sf_small).to_pandas()
    assert len(got) > 0
    sh = {d: shingles(t) for d, t in docs.items()}
    for _, r in got.iterrows():
        assert jaccard(sh[r.anchor_id], sh[r.positive_id]) >= 0.5
        assert r.negative_id in docs
        assert r.negative_id not in (r.anchor_id, r.positive_id)
    again = contrastive_pairs(sf_small).to_pandas()
    key = ["anchor_id", "positive_id", "negative_id"]
    assert got[key].sort_values(key).reset_index(drop=True).equals(
        again[key].sort_values(key).reset_index(drop=True))


def test_bloom_incremental_no_false_negatives(tmp_path):
    import pyarrow as pa

    from phenobert_ray.functions.dedup import BLOOM_K, bloom_incremental_dedup

    # even doc_ids = base corpus, odd = incoming; every incoming copy of a
    # base text MUST be flagged (Bloom guarantee: no false negatives)
    base = [f"base document number {i} with some words" for i in range(50)]
    fresh = [f"genuinely new incoming text {i} nothing alike" for i in range(40)]
    docs, ids = [], []
    for i, t in enumerate(base):
        ids.append(2 * i)
        docs.append(t)
    dup_ids = []
    for i in range(50):
        ids.append(2 * i + 1)
        if i < 10:  # 10 incoming dups of base texts
            docs.append(base[i])
            dup_ids.append(2 * i + 1)
        else:
            docs.append(fresh[i - 10])
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": docs}),
        f"{tmp_path}/documents.parquet",
    )
    got = bloom_incremental_dedup(str(tmp_path)).to_pandas().set_index("doc_id")
    assert len(got) == 50  # odd ids only
    for d in dup_ids:
        assert bool(got.loc[d, "maybe_dup"]), d
        assert got.loc[d, "n_hit"] == BLOOM_K
    # false-positive rate on the genuinely-new texts stays far below 1
    fp = got.loc[[i for i in got.index if i not in dup_ids], "maybe_dup"].mean()
    assert fp < 0.5


def test_snm_pairs_complete_and_unique(tmp_path):
    import pyarrow as pa

    from phenobert_ray.functions.dedup import snm_candidate_pairs

    # keys straddle chunk boundaries: 600 docs, chunk=256 => 3 chunks;
    # texts sorted order is a permutation of doc order
    rng = np.random.default_rng(3)
    texts = [f"{rng.integers(0, 10 ** 9):09d} body {i}" for i in range(600)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(600), pa.int64()), "text": texts}),
        f"{tmp_path}/documents.parquet",
    )
    got = snm_candidate_pairs(str(tmp_path)).to_pandas()
    # serial reference
    order = sorted(range(600), key=lambda i: (texts[i][:12], i))
    want = set()
    for p in range(599):
        for d in (1, 2):
            if p + d < 600:
                want.add((order[p], order[p + d], d))
    gotset = set(zip(got["doc_a"], got["doc_b"], got["gap"]))
    assert gotset == want
    assert len(got) == len(gotset)  # no duplicate emissions
    assert not got["is_dup"].any()  # all texts distinct


def test_snm_flags_exact_dups_in_window(tmp_path):
    import pyarrow as pa

    from phenobert_ray.functions.dedup import snm_candidate_pairs

    texts = ["aaa same text", "aaa same text", "bbb other", "ccc third"]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(4), pa.int64()), "text": texts}),
        f"{tmp_path}/documents.parquet",
    )
    got = snm_candidate_pairs(str(tmp_path)).to_pandas()
    dup = got[got["is_dup"]]
    assert len(dup) == 1
    assert {int(dup["doc_a"].iloc[0]), int(dup["doc_b"].iloc[0])} == {0, 1}


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
    got = kcore_nodes(ray.data.from_arrow(edges), k=2, rounds=3).to_pandas()
    assert sorted(got["hpo_id"]) == ["a", "b", "c"]
    assert (got.set_index("hpo_id")["degree"] == 2).all()


def test_kcore_fully_peeled_graph_is_empty():
    import ray

    from phenobert_ray.pipelines.graph import kcore_nodes

    # a path graph has no 2-core
    edges = pa.table({"hpo_a": ["a", "b", "c"], "hpo_b": ["b", "c", "d"]})
    got = kcore_nodes(ray.data.from_arrow(edges), k=2, rounds=4).to_pandas()
    assert len(got) == 0


def test_dedup_keep_best_matches_serial(sf_small):
    """per near-dup cluster: keep max n_chars, ties -> min doc_id; packed
    argmax must agree with the obvious serial computation."""
    import pyarrow.parquet as _pq

    from phenobert_ray.functions.dedup import (
        dedup_keep_best,
        ngram_dup_clusters,
    )

    clusters = ngram_dup_clusters(sf_small).to_pandas()
    docs = _pq.read_table(
        f"{sf_small}/documents.parquet", columns=["doc_id", "n_chars"]
    ).to_pandas().set_index("doc_id")["n_chars"]
    want = {}
    for doc_id, cid in zip(clusters["doc_id"], clusters["cluster_id"]):
        nc = int(docs[doc_id])
        best = want.get(cid)
        if best is None:
            want[cid] = (doc_id, nc, 1)
        else:
            bd, bn, m = best
            if (nc, -doc_id) > (bn, -bd):
                bd, bn = doc_id, nc
            want[cid] = (bd, bn, m + 1)
    got = dedup_keep_best(sf_small).to_pandas()
    got_map = {c: (k, b, n) for c, k, b, n in zip(
        got["cluster_id"], got["keep_doc_id"], got["best_n_chars"],
        got["n_members"])}
    assert got_map == want
    assert len(want) > 0  # the corpus genuinely has near-dup clusters


def test_dedup_keep_best_overflow_guard(tmp_path):
    """n_chars >= 2^22 must fail loudly, not wrap silently (the _cents
    convention)."""
    import pyarrow as _pa
    import pyarrow.parquet as _pq
    import pytest as _pytest
    import ray as _ray

    # 20 DISTINCT shared tokens + one differing tail token → the shingle
    # sets share 18 of ~20 3-grams (jaccard ≈ 0.86 ≥ 0.5): a genuine
    # near-dup pair (repeated-token texts collapse to 2 distinct shingles
    # and never pair)
    base = " ".join(f"w{i}" for i in range(20)) + " "
    t = _pa.table({
        "doc_id": _pa.array([0, 1], _pa.int64()),
        "text": [base + "a", base + "b"],
        "n_chars": _pa.array([81, 1 << 22], _pa.int64()),
    })
    _pq.write_table(t, tmp_path / "documents.parquet")
    from phenobert_ray.functions.dedup import dedup_keep_best

    with _pytest.raises((OverflowError, _ray.exceptions.RayTaskError)):
        dedup_keep_best(str(tmp_path)).to_pandas()


def test_minhash_dup_clusters_matches_unionfind(sf_small):
    """Cluster composition over the verified MinHash pair stream: clusters
    match a union-find over the pair list (mirror of the simhash test)."""
    from phenobert_ray.functions.dedup import (
        minhash_dup_clusters,
        minhash_lsh_pairs,
    )

    pairs = minhash_lsh_pairs(sf_small).to_pandas()
    got = (
        minhash_dup_clusters(sf_small).to_pandas()
        .set_index("doc_id")["cluster_id"].to_dict()
    )
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs.doc_a, pairs.doc_b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expect = {}
    for a, b in zip(pairs.doc_a, pairs.doc_b):
        expect[a] = find(a)
        expect[b] = find(b)
    assert got == expect
    assert len(got) > 0  # sf0.001 genuinely has minhash near-dups


def test_embedding_dup_clusters_matches_unionfind(sf_small):
    """Fourth clusters variant: CC over label-bucketed cosine pairs must
    match a union-find over the pair list."""
    from phenobert_ray.functions.dedup import (
        embedding_dup_clusters,
        embedding_dup_pairs,
    )

    pairs = embedding_dup_pairs(sf_small).to_pandas()
    got = (
        embedding_dup_clusters(sf_small).to_pandas()
        .set_index("vec_id")["cluster_id"].to_dict()
    )
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs.vec_a, pairs.vec_b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expect = {}
    for a, b in zip(pairs.vec_a, pairs.vec_b):
        expect[a] = find(a)
        expect[b] = find(b)
    assert got == expect
    assert len(got) > 0


def test_strip_duplicate_spans_matches_manual(sf_small):
    """Every modified doc's rewrite equals manually cutting its
    duplicate_spans islands from the raw token list; untouched docs are
    not emitted."""
    from phenobert_ray.functions.dedup import (
        duplicate_spans,
        strip_duplicate_spans,
    )

    spans = duplicate_spans(sf_small).to_pandas()
    got = strip_duplicate_spans(sf_small).to_pandas().set_index("doc_id")
    docs = pq.read_table(f"{sf_small}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    text_of = dict(zip(docs["doc_id"], docs["text"]))
    assert set(got.index) == set(spans["doc_id"])
    for doc_id, g in spans.groupby("doc_id"):
        toks = text_of[doc_id].split(" ")
        cut = set()
        for _, r in g.iterrows():
            cut.update(range(int(r["span_start"]), int(r["span_end"]) + 1))
        want = " ".join(t for i, t in enumerate(toks) if i not in cut)
        assert got.loc[doc_id, "clean_text"] == want
        assert int(got.loc[doc_id, "n_removed_tokens"]) == len(cut)


def test_strip_duplicate_spans_full_removal(tmp_path):
    """A doc that is one duplicated run end-to-end rewrites to the empty
    string (and is still emitted with its removal count)."""
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from phenobert_ray.functions.dedup import strip_duplicate_spans

    shared = " ".join(f"w{i}" for i in range(30))
    t = _pa.table({
        "doc_id": _pa.array([0, 1], _pa.int64()),
        "text": [shared, "lead " + shared + " tail"],
    })
    _pq.write_table(t, tmp_path / "documents.parquet")
    got = (strip_duplicate_spans(str(tmp_path)).to_pandas()
           .set_index("doc_id"))
    assert got.loc[0, "clean_text"] == ""
    assert int(got.loc[0, "n_removed_tokens"]) == 30
    assert got.loc[1, "clean_text"] == "lead tail"
    assert int(got.loc[1, "n_removed_tokens"]) == 30


def test_bag_dedup_groups_reordered_docs(tmp_path):
    """Docs with identical token multisets collapse regardless of word
    order; multiset (not set) semantics keep repeat-count-different docs
    apart."""
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from phenobert_ray.functions.dedup import bag_dedup

    t = _pa.table({
        "doc_id": _pa.array([0, 1, 2, 3], _pa.int64()),
        "text": ["a b c", "c b a", "a b", "a a b"],
    })
    _pq.write_table(t, tmp_path / "documents.parquet")
    got = bag_dedup(str(tmp_path)).to_pandas()
    by_keep = {r["keep_doc_id"]: r["n_dups"] for _, r in got.iterrows()}
    assert by_keep == {0: 2, 2: 1, 3: 1}


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

