"""Degenerate-input robustness: wedge-free and star graphs, fully
filtered blocks, NULL group keys and fully-empty tables must flow
through every operator without crashing — tiny and empty groups/blocks
are where group-merge and exchange code breaks first at scale."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_review_repros_stay_fixed():
    """Crash class a code review confirmed (edge-topology path):
    star-graph kcore peeling."""
    import ray

    from phenobert_ray.pipelines.graph import kcore_nodes

    # hub whose neighbors are all degree-1: a round leaves alive nodes but
    # zero alive-alive edges
    edges = pa.table({"hpo_a": ["a", "a", "a"], "hpo_b": ["b", "c", "d"]})
    assert len(kcore_nodes(ray.data.from_arrow(edges), k=2).to_pandas()) == 0


def test_triangles_wedge_free_and_empty_graphs():
    """Path graphs and empty edge lists have no wedge to close: 0
    triangles, not a crash on empty or column-less blocks."""
    import pandas as pd
    import ray

    from phenobert_ray.pipelines.graph import triangles

    path = pd.DataFrame({"hpo_a": ["1", "2"], "hpo_b": ["2", "3"]})
    assert triangles(ray.data.from_pandas(path)).count() == 0
    empty = pd.DataFrame({"hpo_a": pd.Series([], dtype=str),
                          "hpo_b": pd.Series([], dtype=str)})
    assert triangles(ray.data.from_pandas(empty)).count() == 0
    tri = pd.DataFrame({"hpo_a": ["1", "1", "2"], "hpo_b": ["2", "3", "3"]})
    got = triangles(ray.data.from_pandas(tri)).to_pandas()
    assert got.values.tolist() == [["1", "2", "3"]]


def test_two_phase_groupby_all_filtered_blocks_stay_typed():
    """Blocks fully emptied by pre_filter must emit typed empty tables —
    the exchange's own partial() previously produced Arrow-null key
    columns (reproduced, review r4)."""
    import ray

    from phenobert_ray.stages.shuffle import two_phase_groupby

    df1 = pd.DataFrame({"conv_id": ["a", "b"], "hpo_id": ["H1", "H2"],
                        "negated": [True, True]})
    df2 = pd.DataFrame({"conv_id": ["c"], "hpo_id": ["H1"],
                        "negated": [False]})
    ds = ray.data.from_pandas([df1, df2])
    out = two_phase_groupby(
        ds, keys=["conv_id", "hpo_id"],
        aggs={"n": (None, "size", "sum")},
        pre_filter=lambda df: df[~df["negated"]],
    )
    got = out.to_pandas()
    assert got.values.tolist() == [["c", "H1", 1]]
    # fully-filtered dataset: typed empty, schema preserved
    ds_all = ray.data.from_pandas([df1])
    out_all = two_phase_groupby(
        ds_all, keys=["conv_id", "hpo_id"],
        aggs={"n": (None, "size", "sum")},
        pre_filter=lambda df: df[~df["negated"]],
    )
    assert out_all.count() == 0
    # NB: schema() is None here — groupby().map_groups emits no blocks at
    # all for a fully-empty input on Ray 2.49 (the boundary the query
    # surface's _guard_empty works around); the typed-empty partial
    # fixes the MIXED case (typed + filtered blocks in one dataset), which
    # is the crash class.


def test_two_phase_groupby_keeps_null_keys():
    """SQL GROUP BY emits a NULL-keyed group; pandas' groupby default
    silently dropped those rows from every aggregate (review r4)."""
    import ray

    from phenobert_ray.stages.shuffle import two_phase_groupby

    df = pd.DataFrame({"source": ["s1", None, None], "v": [1, 2, 3]})
    out = two_phase_groupby(
        ray.data.from_pandas(df), keys=["source"],
        aggs={"total": ("v", "sum", "sum"), "n": (None, "size", "sum")},
    ).to_pandas()
    assert len(out) == 2  # s1 plus the NULL group
    null_row = out[out["source"].isna()]
    assert int(null_row["total"].iloc[0]) == 5
    assert int(null_row["n"].iloc[0]) == 2


# --- review wave 9: the empty-corpus sweep (all queries × empty tables) ---


@pytest.fixture(scope="module")
def empty_sf_dir(tmp_path_factory):
    """Empty copies of every testdata table, schemas preserved."""
    import os

    src = "/root/testdata/sf0.001"
    d = tmp_path_factory.mktemp("emptysf")
    for f in os.listdir(src):
        t = pq.read_table(os.path.join(src, f))
        pq.write_table(t.schema.empty_table(), str(d / f))
    return str(d)


def test_coalesce_for_exchange_scale_guard():
    """The exchange coalescer is strictly a SMALL-data optimization: a big
    row estimate must leave the dataset's natural block layout untouched
    (coalescing 100 TB into few blocks would serialize the exchange),
    while a small estimate caps the block count row-proportionally."""
    import pyarrow as pa
    import ray

    import phenobert_ray.stages.shuffle as S

    ds = ray.data.from_arrow(
        pa.table({"x": pa.array(range(1000), pa.int64())})
    ).repartition(20).materialize()
    assert ds.num_blocks() == 20

    # big estimate -> the SAME dataset object back, zero added passes
    big = S.coalesce_for_exchange(ds, 10**12)
    assert big is ds

    # the 4-CPU test session's default (8) equals the coalesce floor, so
    # small inputs are already no-ops here; pin the small-data behavior
    # under a 32-CPU-shaped cap (the helper reads the cap at call time)
    orig = S.default_num_buckets
    S.default_num_buckets = lambda: 32
    try:
        small = S.coalesce_for_exchange(ds, 1000).materialize()
        assert small.num_blocks() == 8 and small.count() == 1000
        mid = S.coalesce_for_exchange(ds, 12 * 200_000).materialize()
        assert mid.num_blocks() == 12
        assert S.coalesce_for_exchange(ds, 32 * 200_000) is ds
    finally:
        S.default_num_buckets = orig


def test_empty_sf_registry_schemas_full_sweep(empty_sf_dir):
    """Every _EMPTY_RESULT_SCHEMAS entry stays consistent with its live
    query: on an all-empty sf the guard must return a typed 0-row result
    whose column names match the registry exactly (catches schema drift
    when a query's output columns change without the registry), and no
    registry entry may name a nonexistent query."""
    import __ray_entry__ as E

    qs = E.queries()
    assert set(E._EMPTY_RESULT_SCHEMAS) <= set(qs)
    for name, (tables, fields) in sorted(E._EMPTY_RESULT_SCHEMAS.items()):
        res = qs[name](empty_sf_dir)
        want = [c for c, _ in fields]
        got = [f.name for f in res.schema().base_schema]
        assert got == want, (name, got, want)
        assert res.count() == 0, name
