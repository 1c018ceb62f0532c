"""Regressions pinned by the adversarial-input oracle gate.

Each test reproduces a failure `tools/make_adversarial_sf.py` +
`tools/verify_local.py` exposed: pathological-but-valid inputs where the
engine crashed or silently diverged from the DuckDB oracle.  The full
sweep is re-runnable any time with

    python tools/make_adversarial_sf.py /tmp/sfadv
    python tools/verify_local.py /tmp/sfadv
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


# ---------------------------------------------------------------------------
# the read-boundary null contract (stages/shuffle.py drop_null_rows):
# engine(T) == engine(T with rows null-in-projected-columns removed)

def _null_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("sfnull")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["hello world", None, "the fast scan", "x", None],
                         pa.string()),
        "lang": pa.array(["en", None, "en", "es", "zh"], pa.string()),
        "source": pa.array(["s1", "s1", None, "s2", None], pa.string()),
        "n_chars": pa.array([11, None, 13, 1, None], pa.int64()),
    }), str(d / "documents.parquet"))
    return d


@pytest.mark.parametrize("columns", [None, ["conv_id", "text"],
                                     pytest.param("turns", id="turns_reader")])
def test_read_boundary_strips_pandas_schema_metadata(tmp_path, columns):
    """pandas-written parquet carries a b'pandas' schema-metadata dict that
    Ray's unify_schemas cannot hash ("Failed to hash the schemas" on every
    exchange); the read boundary hands on metadata-free blocks, and so
    does the KG turns reader (``pipelines.annotate.read_turns_input``),
    which logs no such warning."""
    import logging

    import pandas as pd
    import ray
    import ray.data

    from phenobert_ray.pipelines.annotate import read_turns_input
    from phenobert_ray.stages.shuffle import drop_null_rows

    path = str(tmp_path / "turns.parquet")
    pd.DataFrame({
        "conv_id": ["c0", "c0", "c1", None],
        "turn_idx": np.array([0, 1, 0, 0], np.int32),
        "text": ["hello", None, "fever", "x"],
    }).to_parquet(path, index=False)
    assert b"pandas" in pq.read_schema(path).metadata  # the input shape

    if columns == "turns":
        ds = read_turns_input(path)
    else:
        ds = drop_null_rows(ray.data.read_parquet(path), columns=columns)
    blocks = ray.get(ds.to_arrow_refs())
    assert blocks and all(b.schema.metadata is None for b in blocks)
    assert sum(b.num_rows for b in blocks) == 2
    if columns == "turns":
        warnings = []

        class Hashes(logging.Handler):
            def emit(self, record):
                if "Failed to hash the schemas" in record.getMessage():
                    warnings.append(record)

        ray_data, hook = logging.getLogger("ray.data"), Hashes()
        ray_data.addHandler(hook)
        try:
            assert read_turns_input(path).schema().names == ["conv_id", "turn_idx", "text"]
        finally:
            ray_data.removeHandler(hook)
        assert not warnings


def _twin(src_dir, tmp_path_factory, table, cols):
    """Copy of src_dir with `table` pre-filtered to non-null `cols` —
    the contract's reference result."""
    import shutil

    d = tmp_path_factory.mktemp("sftwin")
    for f in src_dir.iterdir():
        shutil.copy(str(f), str(d / f.name))
    t = pq.read_table(str(src_dir / f"{table}.parquet"))
    keep = np.ones(t.num_rows, dtype=bool)
    for c in cols:
        keep &= t.column(c).is_valid().to_numpy(zero_copy_only=False)
    pq.write_table(t.filter(pa.array(keep)), str(d / f"{table}.parquet"))
    return str(d)


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("qname,table,cols", [
    # explicit ids keep the numbering these cases had while the removed
    # exact_dedup, doc_stats, kmeans_assign, ann_topk, label_centroids,
    # window_agg and props_stats cases sat among them
    pytest.param("kg_triples", "documents", ("doc_id", "text"),
                 id="kg_triples-documents-cols2"),
    pytest.param("extract_mentions", "documents", ("doc_id", "text"),
                 id="extract_mentions-documents-cols8"),
    pytest.param("inverted_index", "documents", ("doc_id", "text"),
                 id="inverted_index-documents-cols9"),
])
def test_null_rows_dropped_at_read(tmp_path_factory, qname, table, cols):
    """Null-bearing tables neither crash nor leak incomplete rows: the
    result equals running on a table pre-filtered to the operator's
    projected columns (and nulls in UNprojected columns never drop a
    row — the twin filters only `cols`)."""
    import __ray_entry__ as E

    src = _null_sf(tmp_path_factory)
    q = E.queries()[qname]
    got = q(str(src))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    want = q(_twin(src, tmp_path_factory, table, cols))
    want = want if isinstance(want, pd.DataFrame) else want.to_pandas()
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


def test_search_convs_with_all_empty_ids(mini, sf_small):
    """review r4 w8: hpo_ids=[] crashed the exchange (aggs={}); vacuous
    AND = every conv with a non-negated mention."""
    from phenobert_ray.sources.inverted_index import search_convs_with_all
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    anns = annotate_turns(read_turns(sf_small), mini)
    rows = anns.select_columns(["conv_id", "negated"]).to_pandas()
    want = sorted(set(rows.loc[~rows["negated"], "conv_id"]))
    got = sorted(search_convs_with_all(
        annotate_turns(read_turns(sf_small), mini), []
    ).to_pandas()["conv_id"])
    assert got == want


def test_all_empty_sf_returns_typed_results(tmp_path_factory, sf_small):
    """review r4 w9: over an ALL-EMPTY scale factor (a legitimate quiet
    time-slice partition) 48 queries returned schema-less empties (Ray
    can't type a dataset whose every block is empty).  The query surface
    now guards a zero-row documents table with its result-schema
    registry; spot-check two queries against the registry, and every
    phenotype query against its oracle (same columns, same row count)."""
    import __ray_entry__ as E
    from test_oracle_parity import PHENOTYPE_QUERIES
    from tools.verify_local import TABLES, canon, connect, to_df

    d = tmp_path_factory.mktemp("emptysf")
    for t in TABLES:
        tbl = pq.read_table(f"{sf_small}/{t}.parquet")
        pq.write_table(tbl.schema.empty_table(), str(d / f"{t}.parquet"))
    qs = E.queries()
    for name in ["extract_mentions", "inverted_index"]:
        res = qs[name](str(d))
        want = [c for c, _ in E._EMPTY_RESULT_SCHEMAS[name]]
        got = [f.name for f in res.schema().base_schema]
        assert got == want, (name, got, want)
        assert res.count() == 0, name

    con = connect(str(d))
    oracles = E.oracle_sql()
    for name in PHENOTYPE_QUERIES:
        got = canon(to_df(qs[name](str(d))))
        want = canon(con.execute(oracles[name]).df())
        assert list(got.columns) == list(want.columns), name
        assert len(got) == len(want), name


def test_search_convs_with_any_or_semantics(mini, sf_small):
    """OR-probe = union of the per-id conv sets; empty id list = empty
    result (⋃ over ∅), the dual of the AND probe's universe."""
    from phenobert_ray.sources.inverted_index import (
        search_convs_with_all,
        search_convs_with_any,
    )
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    ids = ["HP:0002373", "HP:0002069"]
    anns = annotate_turns(read_turns(sf_small), mini)
    rows = anns.select_columns(["conv_id", "hpo_id", "negated"]).to_pandas()
    rows = rows[~rows["negated"]]
    want = sorted(set(rows.loc[rows["hpo_id"].isin(ids), "conv_id"]))
    got = sorted(search_convs_with_any(
        annotate_turns(read_turns(sf_small), mini), ids
    ).to_pandas()["conv_id"])
    assert got == want
    # OR ⊇ AND on the same ids
    both = set(search_convs_with_all(
        annotate_turns(read_turns(sf_small), mini), ids
    ).to_pandas()["conv_id"])
    assert both <= set(got)
    # vacuous OR
    assert search_convs_with_any(
        annotate_turns(read_turns(sf_small), mini), []
    ).count() == 0


def test_make_adversarial_sf_refuses_unknown_flags(tmp_path):
    """A misspelled flag exits 2 and writes nothing, instead of silently
    writing unfragmented tables; ``--fragments`` still fragments."""
    import os
    import subprocess
    import sys

    tool = os.path.join(os.path.dirname(__file__), "..", "tools",
                        "make_adversarial_sf.py")
    bad = subprocess.run([sys.executable, tool, str(tmp_path / "bad"),
                          "--fragmnets"], capture_output=True, text=True)
    assert bad.returncode == 2 and "--fragmnets" in bad.stderr
    assert not (tmp_path / "bad").exists()
    ok = subprocess.run([sys.executable, tool, str(tmp_path / "ok"),
                         "--fragments"], capture_output=True, text=True)
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "ok" / "documents.parquet").is_dir()
