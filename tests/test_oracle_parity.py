"""Every phenotype query agrees with its DuckDB oracle at sf0.001 — the
``__ray_entry__`` correctness gate, run through the same comparison as
``tools/verify_local.py`` (row count, columns, order-insensitive value
hash)."""

import pytest

import __ray_entry__ as E
from tools.verify_local import canon, compare, connect, to_df

PHENOTYPE_QUERIES = [
    "turns_synth", "extract_mentions", "conv_hpo_sets", "kg_triples",
    "cooccurrence_edges", "cooccurrence_triangles", "cooccurrence_pagerank",
    "cooccurrence_kcore", "cooccurrence_pmi", "hpo_information_content",
    "hpo_ancestor_rollup", "isa_closure", "hpo_depth", "inverted_index",
    "index_search_and", "index_search_or", "sample_hash", "eval_micro",
    "eval_macro", "onto_similarity",
]


def test_every_query_has_an_oracle():
    # exact: the registry holds the phenotype queries and nothing else
    assert set(E.queries()) == set(E.oracle_sql()) == set(PHENOTYPE_QUERIES)


@pytest.fixture(scope="module")
def con(sf_small):
    return connect(sf_small)


@pytest.mark.parametrize("name", PHENOTYPE_QUERIES)
def test_query_matches_oracle(con, sf_small, name):
    mine = canon(to_df(E.queries()[name](sf_small)))
    oracle = canon(con.execute(E.oracle_sql()[name]).df())
    assert compare(mine, oracle), (name, len(mine), len(oracle),
                                   list(mine.columns), list(oracle.columns))


def test_phenotype_queries_run_without_exchange(sf_small, monkeypatch, caplog):
    """Every phenotype query runs on the pair table or a one-block gather:
    no Ray Data groupby or join, and no block with a schema other than its
    operator's ('different schema' warning — a bucketed exchange's empty
    sort partitions logged it)."""
    import logging

    import ray.data

    def refuse(name):
        def f(*a, **k):
            raise AssertionError(f"phenotype query used {name}")
        return f

    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse("Dataset.groupby"))
    monkeypatch.setattr(ray.data.Dataset, "join", refuse("Dataset.join"))
    ray_data = logging.getLogger("ray.data")  # does not propagate to root
    ray_data.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING, logger="ray.data"):
            for name in PHENOTYPE_QUERIES:
                to_df(E.queries()[name](sf_small))
    finally:
        ray_data.removeHandler(caplog.handler)
    assert not [r for r in caplog.records if "different schema" in r.getMessage()]
