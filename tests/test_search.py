"""Serial brute-force oracle for the hopping-window operator over the
real sf0.001 tables."""

import pandas as pd


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

