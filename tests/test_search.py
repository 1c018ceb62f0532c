"""Serial brute-force oracles for assorted registry operators (label
centroids, hopping windows) over the real sf0.001 tables."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq


def test_label_centroids_matches_numpy(sf_small):
    from phenobert_ray.functions.ann import label_centroids

    got = label_centroids(sf_small).to_pandas()
    emb = pq.read_table(f"{sf_small}/embeddings.parquet").to_pandas()
    for lbl, g in emb.groupby("label"):
        M = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        want = np.round(M.mean(axis=0), 6)
        mine = (got[got["label"] == lbl].sort_values("dim")["centroid"]
                .to_numpy())
        # engine means are integer-micro-quantized (≤5e-7 off the float
        # mean) then 6-decimal rounded (≤5e-7): 2e-6 covers both
        assert np.allclose(mine, want, atol=2e-6)
        assert (got[got["label"] == lbl]["n_vecs"] == len(g)).all()


def test_hopping_window_agg_covers_tumbling(sf_small):
    """Every event is in exactly width/hop windows: total n_events is
    2x the tumbling count, and each hopping window equals the sum of the
    two tumbling windows it spans."""
    from phenobert_ray.functions.events import hopping_window_agg, window_agg

    hop = hopping_window_agg(sf_small).to_pandas()
    tum = window_agg(sf_small).to_pandas()
    assert hop["n_events"].sum() == 2 * tum["n_events"].sum()
    t = tum.set_index(["window_start", "event_type"])["n_events"]
    for _, r in hop.head(50).iterrows():
        a = t.get((r["window_start"], r["event_type"]), 0)
        b = t.get((r["window_start"] + pd.Timedelta(hours=1), r["event_type"]), 0)
        assert r["n_events"] == a + b

