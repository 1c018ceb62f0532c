"""Skew fixtures (FIXTURES.md §1): a hot conversation with 100× turns and
one hot HPO term appearing in most turns — the dedup must stay correct
(the per-block combiner collapses the hot key before the single-block
merge sees it)."""

import numpy as np
import pandas as pd
import pytest
import ray

from phenobert_ray.pipelines.triples import dedup_conv_hpo
from phenobert_ray.stages.annotate import annotate_turns
from phenobert_ray.transcripts import TURNS_SCHEMA


@pytest.fixture(scope="module")
def skewed_turns():
    rows = []
    ep = np.datetime64("2026-01-01", "us")
    # hot conversation: 2,000 turns, every one mentioning the same hot term
    for t in range(2000):
        rows.append(("conv-hot", t, "user", "patient shows seizure today.", "", ep))
    # 200 normal conversations, 3 turns each, varied terms
    terms = ["scoliosis", "obesity", "nystagmus", "hypertelorism"]
    for c in range(200):
        for t in range(3):
            rows.append(
                (f"conv-{c}", t, "user",
                 f"patient shows {terms[(c + t) % 4]} today.", "", ep)
            )
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"])
    df["turn_idx"] = df["turn_idx"].astype("int32")
    import pyarrow as pa

    return ray.data.from_arrow(
        pa.Table.from_pandas(df, schema=TURNS_SCHEMA, preserve_index=False)
    ).repartition(16)


def test_hot_conv_dedup_correct(mini, skewed_turns):
    d = dedup_conv_hpo(annotate_turns(skewed_turns, mini)).to_pandas()
    hot = d[d.conv_id == "conv-hot"]
    # 2,000 mentions of one concept collapse to ONE row with the full count
    assert len(hot) == 1
    assert hot.iloc[0].hpo_id == "HP:0001250"
    assert hot.iloc[0].n_mentions == 2000
    assert hot.iloc[0].first_turn == 0
    # each normal conv mentions 3 distinct terms → 600 keys + the hot one
    assert len(d) == 1 + 600


def test_combiner_bounds_shuffle_rows(mini, skewed_turns):
    """The partial phase emits ≤ one row per key per block, so the merge
    never carries the hot conversation's 2,000 raw mention rows."""
    import pyarrow as pa

    from phenobert_ray.pipelines.triples import _conv_hpo_partial

    anns = annotate_turns(skewed_turns, mini)
    raw = anns.count()
    shuffled_rows = anns.map_batches(_conv_hpo_partial,
                                     batch_format="pyarrow").count()
    n_blocks = anns.map_batches(
        lambda b: pa.table({"one": [1]}), batch_format="pyarrow"
    ).count()
    assert raw >= 2000
    # bound: ≤ distinct keys (601) + one extra hot-key row per extra block —
    # crucially NOT the 2,600 raw mention rows
    assert shuffled_rows <= 601 + n_blocks
    assert shuffled_rows < raw


def test_compact_latest_hot_key(tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from phenobert_ray.functions.events import compact_latest_events

    # one hot user with 50k stale versions of one event type + a cold tail;
    # the combiner must collapse the hot key per block, and the winner is
    # the max-(ts, event_id) row
    n_hot = 50_000
    ts_hot = pd.Timestamp("2026-01-01").value // 1000 + np.arange(n_hot) % 997
    rows = pd.DataFrame(
        {
            "event_id": np.arange(n_hot + 10, dtype=np.int64),
            "ts": np.concatenate(
                [ts_hot, ts_hot.max() + 1 + np.arange(10)]
            ).astype("datetime64[us]"),
            "user_id": np.concatenate(
                [np.zeros(n_hot, dtype=np.int64), np.arange(1, 11)]
            ),
            "event_type": ["view"] * n_hot + ["view"] * 10,
            "value": np.ones(n_hot + 10),
        }
    )
    pq.write_table(
        pa.Table.from_pandas(rows, preserve_index=False),
        f"{tmp_path}/events.parquet",
    )
    got = compact_latest_events(str(tmp_path)).to_pandas()
    assert len(got) == 11  # one winner per (user, type)
    hot = got[got["user_id"] == 0]
    # winner: max ts (996 offset), tie-break max event_id among those
    want_ids = rows[rows["user_id"] == 0]
    mx = want_ids[want_ids["ts"] == want_ids["ts"].max()]["event_id"].max()
    assert int(hot["event_id"].iloc[0]) == int(mx)


def test_running_spend_hot_user_and_bucket_invariance(tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from phenobert_ray.functions.events import running_user_spend

    # one user with 30k events spanning many 6h chunks + small users;
    # cumulative sums must be exact in event order and invariant to the
    # bucket count (chunk offsets do the cross-chunk stitching)
    n_hot = 30_000
    base = pd.Timestamp("2026-01-01").value // 1000
    ts = base + np.arange(n_hot, dtype=np.int64) * 60_000_000  # 1/min
    rows = pd.DataFrame(
        {
            "event_id": np.arange(n_hot + 6, dtype=np.int64),
            "ts": np.concatenate([ts, ts[:6]]).astype("datetime64[us]"),
            "user_id": np.concatenate(
                [np.zeros(n_hot, dtype=np.int64), np.arange(1, 7)]
            ),
            "event_type": ["view"] * (n_hot + 6),
            "value": np.concatenate(
                [np.full(n_hot, 1.25), np.full(6, 2.5)]
            ),
            "props": ["{}"] * (n_hot + 6),
        }
    )
    pq.write_table(
        pa.Table.from_pandas(rows, preserve_index=False),
        f"{tmp_path}/events.parquet",
    )
    a = (
        running_user_spend(str(tmp_path), num_buckets=4)
        .to_pandas()
        .sort_values("event_id")
    )
    hot = a[a["user_id"] == 0].sort_values(["ts", "event_id"])
    want = np.cumsum(np.full(n_hot, 125, dtype=np.int64))
    assert hot["running_cents"].to_numpy().tolist() == want.tolist()
    b = (
        running_user_spend(str(tmp_path), num_buckets=17)
        .to_pandas()
        .sort_values("event_id")
    )
    assert a["running_cents"].tolist() == b["running_cents"].tolist()
