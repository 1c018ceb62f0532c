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
