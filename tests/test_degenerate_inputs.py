"""Degenerate-input robustness: wedge-free, star and path graphs, a
pendant tail the k-core must peel, and fully-empty tables must flow
through every operator without crashing — tiny and empty groups/blocks
are where graph and exchange code breaks first at scale."""

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


def test_empty_sf_registry_schemas_full_sweep(empty_sf_dir):
    """Every _EMPTY_RESULT_SCHEMAS entry stays consistent with its live
    query: on an all-empty sf the guard must return a typed 0-row result
    whose column names match the registry exactly (catches schema drift
    when a query's output columns change without the registry), and no
    registry entry may name a nonexistent query."""
    import __ray_entry__ as E

    qs = E.queries()
    assert set(E._EMPTY_RESULT_SCHEMAS) <= set(qs)
    for name, fields in sorted(E._EMPTY_RESULT_SCHEMAS.items()):
        res = qs[name](empty_sf_dir)
        want = [c for c, _ in fields]
        got = [f.name for f in res.schema().base_schema]
        assert got == want, (name, got, want)
        assert res.count() == 0, name
