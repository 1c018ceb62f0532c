"""Driver contract: entry() smoke, queries() vs oracle_sql() correctness.

Ray is initialised by the driver BEFORE this module is imported — nothing
here (or in phenobert_ray) calls ray.init()/ray.shutdown().

The KG-pipeline queries run over a `turns` table synthesized
*deterministically and SQL-expressibly* from the driver's ``documents``
table (see phenobert_ray/transcripts.py): every injected phenotype mention
is a pure function of doc_id, which is what lets DuckDB compute the expected
output of the whole extract→link→dedupe→triple pipeline exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pandas as pd
import pyarrow as pa


# ---------------------------------------------------------------------------
# lazy singletons (module import must stay cheap; Ray is already up)

_DAG = None


def _dag():
    global _DAG
    if _DAG is None:
        from phenobert_ray.assets.mini_hpo import mini_dag

        _DAG = mini_dag()
    return _DAG


def _turns(sf_dir: str):
    from phenobert_ray.transcripts import read_turns

    return read_turns(sf_dir)


def _annotations(sf_dir: str):
    from phenobert_ray.stages.annotate import annotate_turns

    return annotate_turns(_turns(sf_dir), _dag())


def _tagged_membership_rows(sf_dir: str):
    """One (conv_id, hpo_id, p, g) stream for the metric queries — pred and
    gold flags computed side by side in a SINGLE pass over the annotate
    output (each row: p = not negated; g = p AND even mention length), so
    the annotate pipeline runs once, streaming, with no mid-pipeline
    materialize and no two-reader union of full-size tag streams.  Only the
    bounded phantom-gold rows ride in by union.

    Gold rule (mirrored in SQL): non-negated mentions with even mention
    length, plus a phantom HP:0000001 for convs whose number % 13 == 0."""
    import pyarrow.compute as pc

    from phenobert_ray.eval.metrics import collapse_tagged

    def tag(b: pa.Table) -> pa.Table:
        p = pc.invert(b.column("negated"))
        g = pc.and_(
            p,
            pc.equal(pc.bit_wise_and(pc.utf8_length(b.column("mention")), 1), 0),
        )
        # g implies p (g = p AND even-length), so "any flag set" == p:
        # the filter simply drops negated rows; the membership combiner
        # runs here, fused into the annotate operator
        return collapse_tagged(pa.table(
            {
                "conv_id": b.column("conv_id"),
                "hpo_id": b.column("hpo_id"),
                "p": pc.cast(p, pa.int64()),
                "g": pc.cast(g, pa.int64()),
            }
        ).filter(p))

    tagged = _annotations(sf_dir).map_batches(tag, batch_format="pyarrow")

    # phantoms need the full conv set; conv_id is a pure function of doc_id
    # (conv-{doc_id//4}, transcripts.py:12), so derive straight from the
    # documents read — re-synthesizing the whole turns text just to throw
    # it away was the membership pipeline's biggest re-executed stage
    def phantoms(b: pa.Table) -> pa.Table:
        import numpy as np

        conv_num = np.unique(
            b.column("doc_id").to_numpy(zero_copy_only=False) // 4
        )
        conv_num = conv_num[conv_num % 13 == 0]
        n = len(conv_num)
        return pa.table(
            {
                "conv_id": pa.array(
                    ["conv-" + str(x) for x in conv_num], pa.string()
                ),
                "hpo_id": pa.array(["HP:0000001"] * n, pa.string()),
                "p": pa.array([0] * n, pa.int64()),
                "g": pa.array([1] * n, pa.int64()),
            }
        )

    import ray as _ray

    from phenobert_ray.stages.shuffle import drop_null_rows

    ph = drop_null_rows(_ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )).map_batches(phantoms, batch_format="pyarrow")
    return tagged.union(ph)


# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship KG pipeline at sf0.001: turns → annotate → triples."""
    from phenobert_ray.pipelines.annotate import kg_from_turns

    return kg_from_turns(_turns("/root/testdata/sf0.001"), _dag())


def queries() -> dict[str, Callable[[str], Any]]:
    def turns_synth(sf):
        return _turns(sf)

    def extract_mentions(sf):
        return _annotations(sf).select_columns(
            ["conv_id", "turn_idx", "mention", "hpo_id", "score", "negated"]
        )

    def conv_hpo_sets(sf):
        from phenobert_ray.pipelines.triples import conv_hpo_pairs

        return conv_hpo_pairs(_annotations(sf))

    def kg_triples(sf):
        from phenobert_ray.pipelines.annotate import kg_from_turns

        return kg_from_turns(_turns(sf), _dag())

    def cooccurrence(sf):
        from phenobert_ray.pipelines.triples import cooccurrence_edges

        return cooccurrence_edges(_annotations(sf))

    def cooccurrence_triangles(sf):
        from phenobert_ray.pipelines.graph import triangles
        from phenobert_ray.pipelines.triples import cooccurrence_edges

        return triangles(cooccurrence_edges(_annotations(sf)))

    def cooccurrence_pagerank(sf):
        from phenobert_ray.pipelines.graph import pagerank
        from phenobert_ray.pipelines.triples import cooccurrence_edges

        return pagerank(cooccurrence_edges(_annotations(sf)))

    def cooccurrence_kcore(sf):
        from phenobert_ray.pipelines.graph import kcore_nodes
        from phenobert_ray.pipelines.triples import cooccurrence_edges

        return kcore_nodes(cooccurrence_edges(_annotations(sf)))

    def cooccurrence_pmi(sf):
        from phenobert_ray.pipelines.triples import cooccurrence_pmi as f

        return f(_annotations(sf))

    def hpo_information_content(sf):
        from phenobert_ray.pipelines.triples import (
            hpo_information_content as f,
        )

        return f(_annotations(sf), _dag())

    def hpo_ancestor_rollup(sf):
        from phenobert_ray.pipelines.triples import ancestor_rollup

        return ancestor_rollup(_annotations(sf), _dag())

    def isa_closure(sf):
        import ray

        d = _dag()
        rows = [
            (h, a)
            for h in sorted(d.abnormality)
            for a in sorted(d.ancestors[h] & d.abnormality)
        ]
        return ray.data.from_arrow(
            pa.table(
                {
                    "hpo_id": [r[0] for r in rows],
                    "ancestor_id": [r[1] for r in rows],
                }
            )
        )

    def hpo_depth(sf):
        import ray

        d = _dag()
        items = sorted((h, d.depth[h]) for h in d.abnormality)
        return ray.data.from_arrow(
            pa.table(
                {
                    "hpo_id": [h for h, _ in items],
                    "depth": pa.array([dep for _, dep in items], pa.int32()),
                }
            )
        )

    def index_search_and(sf):
        from phenobert_ray.sources.inverted_index import search_convs_with_all

        return search_convs_with_all(
            _annotations(sf), ["HP:0002373", "HP:0002069"]
        )

    def index_search_or(sf):
        from phenobert_ray.sources.inverted_index import search_convs_with_any

        return search_convs_with_any(
            _annotations(sf), ["HP:0002373", "HP:0002069"]
        )

    def sample_hash(sf):
        import pyarrow.compute as pc

        def f(b):
            keep = pc.equal(pc.bit_wise_and(b.column("turn_idx"), 3), 0)
            return b.filter(keep).select(["conv_id", "turn_idx", "role"])

        return _turns(sf).map_batches(f, batch_format="pyarrow")

    def inverted_index(sf):
        from phenobert_ray.sources.inverted_index import index_scalars

        return index_scalars(_annotations(sf))

    def _r6(x: float) -> float:
        # floor(x*1e6+0.5)/1e6: Python round() is half-to-even, DuckDB
        # round() half-away-from-zero — an exact dyadic tie at the 7th
        # decimal (k/2^m ratios of small-int tp/np/ng DO produce them)
        # would diverge; the floor bridge matches DuckDB for
        # non-negative x
        import math

        return math.floor(x * 1e6 + 0.5) / 1e6

    def eval_micro(sf):
        from phenobert_ray.eval.metrics import micro_prf_tagged

        m = micro_prf_tagged(_tagged_membership_rows(sf))
        return pd.DataFrame(
            {
                "precision": [_r6(m["precision"])],
                "recall": [_r6(m["recall"])],
                "f1": [_r6(m["f1"])],
            }
        )

    def eval_macro(sf):
        from phenobert_ray.eval.metrics import macro_prf_tagged

        m = macro_prf_tagged(_tagged_membership_rows(sf))
        return pd.DataFrame(
            {
                "macro_precision": [_r6(m["macro_precision"])],
                "macro_recall": [_r6(m["macro_recall"])],
            }
        )

    def onto_similarity(sf):
        from phenobert_ray.eval.metrics import ontology_similarity_tagged

        s = ontology_similarity_tagged(_tagged_membership_rows(sf), _dag())
        return pd.DataFrame({"similarity": [_r6(s)]})

    q = {
        "turns_synth": turns_synth,
        "extract_mentions": extract_mentions,
        "conv_hpo_sets": conv_hpo_sets,
        "kg_triples": kg_triples,
        "cooccurrence_edges": cooccurrence,
        "cooccurrence_triangles": cooccurrence_triangles,
        "cooccurrence_pagerank": cooccurrence_pagerank,
        "cooccurrence_kcore": cooccurrence_kcore,
        "cooccurrence_pmi": cooccurrence_pmi,
        "hpo_information_content": hpo_information_content,
        "hpo_ancestor_rollup": hpo_ancestor_rollup,
        "isa_closure": isa_closure,
        "hpo_depth": hpo_depth,
        "inverted_index": inverted_index,
        "index_search_and": index_search_and,
        "index_search_or": index_search_or,
        "sample_hash": sample_hash,
        "eval_micro": eval_micro,
        "eval_macro": eval_macro,
        "onto_similarity": onto_similarity,
    }
    return {k: _guard_empty(k, fn) for k, fn in q.items()}


def _guard_empty(name: str, fn):
    """Zero-row-input guard at the query surface: Ray cannot type a dataset
    whose every block is empty (map_batches never runs on an empty block),
    so a query over an empty primary table would return a SCHEMA-LESS
    empty result no in-cluster stage can fix.
    The registry below records each query's result schema (derived from
    its own sf0.001 output, NOT from the oracle — the oracle must stay an
    independent check); an empty ``documents`` table makes every listed
    result empty.  The guard reads only parquet footers, so every query
    passes its oracle on an ALL-EMPTY scale factor."""
    fields = _EMPTY_RESULT_SCHEMAS.get(name)
    if fields is None:
        return fn

    def g(sf_dir: str, *a, **kw):
        from phenobert_ray.stages.shuffle import table_rows

        if table_rows(sf_dir, "documents") == 0:
            import ray as _ray

            return _ray.data.from_arrow(pa.schema(fields).empty_table())
        return fn(sf_dir, *a, **kw)

    return g


_EMPTY_RESULT_SCHEMAS: dict = {
    "conv_hpo_sets": [("conv_id", pa.string()), ("hpo_id", pa.string())],
    "cooccurrence_edges": [("hpo_a", pa.string()), ("hpo_b", pa.string()), ("n_convs", pa.int64())],
    "cooccurrence_pmi": [("hpo_a", pa.string()), ("hpo_b", pa.string()), ("n_convs", pa.int64()), ("pmi_nano", pa.int64())],
    "hpo_information_content": [("hpo_id", pa.string()), ("n_convs", pa.int64()), ("ic_nano", pa.int64())],
    "extract_mentions": [("conv_id", pa.string()), ("turn_idx", pa.int32()), ("mention", pa.string()), ("hpo_id", pa.string()), ("score", pa.float32()), ("negated", pa.bool_())],
    "hpo_ancestor_rollup": [("hpo_id", pa.string()), ("n_convs", pa.int64())],
    "index_search_and": [("conv_id", pa.string())],
    "index_search_or": [("conv_id", pa.string())],
    "inverted_index": [("hpo_id", pa.string()), ("n_convs", pa.int64()), ("first_conv", pa.string()), ("last_conv", pa.string())],
    "sample_hash": [("conv_id", pa.string()), ("turn_idx", pa.int32()), ("role", pa.string())],
    "turns_synth": [("conv_id", pa.string()), ("turn_idx", pa.int32()), ("role", pa.string()), ("text", pa.string()), ("tool", pa.string()), ("ts", pa.timestamp("us"))],
}


# ---------------------------------------------------------------------------
# oracle SQL


def _with_turns(*extra: str) -> str:
    from phenobert_ray.transcripts import expected_mentions_sql, turns_sql

    parts = [turns_sql()]
    for e in extra:
        if e == "mentions":
            parts.append(expected_mentions_sql())
        else:
            parts.append(e)
    return "WITH " + ", ".join(parts)


def _edges_sql() -> str:
    d = _dag()
    vals = ",\n      ".join(f"('{c}', '{p}')" for c, p in d.is_a_edges())
    return f"isa_edges(child, parent) AS (VALUES\n      {vals})"


def _gold_sql() -> str:
    return """
    gold AS (
      SELECT DISTINCT conv_id, hpo_id FROM expected_mentions
      WHERE NOT negated AND length(mention) % 2 = 0
      UNION
      SELECT DISTINCT conv_id, 'HP:0000001' AS hpo_id FROM turns
      WHERE CAST(string_split(conv_id, '-')[2] AS INTEGER) % 13 = 0
    ),
    pred AS (
      SELECT DISTINCT conv_id, hpo_id FROM expected_mentions WHERE NOT negated
    ),
    counts AS (
      SELECT
        (SELECT count(*) FROM pred p JOIN gold g USING (conv_id, hpo_id)) AS tp,
        (SELECT count(*) FROM pred) AS np,
        (SELECT count(*) FROM gold) AS ng
    )"""


def _onto_similarity_sql() -> str:
    """A4 ontology-similarity oracle: reference getHPO_set_similarity_max
    (util.py:504-537) in SQL — node_sim = 2*depth(LCS)/(d(a)+d(b)) via
    recursive depth/closure CTEs over isa_edges; shared concepts skipped;
    per-conv score 1 - shortfall/|union|; averaged over convs."""
    from phenobert_ray.transcripts import expected_mentions_sql, turns_sql

    return (
        "WITH RECURSIVE "
        + turns_sql()
        + ",\n"
        + expected_mentions_sql()
        + ",\n"
        + _edges_sql()
        + ",\n"
        + _gold_sql().strip().lstrip()
        + """,
    subtree_nodes AS (
      SELECT child AS hpo_id FROM isa_edges UNION SELECT parent FROM isa_edges
    ),
    walk(hpo_id, d) AS (
      SELECT 'HP:0000118', 0
      UNION ALL
      SELECT e.child, w.d + 1 FROM walk w JOIN isa_edges e ON e.parent = w.hpo_id
    ),
    depth AS (SELECT hpo_id, MIN(d) AS depth FROM walk GROUP BY hpo_id),
    closure(hpo_id, ancestor_id) AS (
      SELECT child, parent FROM isa_edges
      UNION
      SELECT c.hpo_id, e.parent FROM closure c JOIN isa_edges e ON c.ancestor_id = e.child
    ),
    anc AS (
      SELECT hpo_id, ancestor_id FROM closure
      UNION SELECT hpo_id, hpo_id FROM subtree_nodes
    ),
    lcs AS (
      SELECT x.hpo_id AS a, y.hpo_id AS b, MAX(d.depth) AS d
      FROM anc x JOIN anc y ON x.ancestor_id = y.ancestor_id
      JOIN depth d ON d.hpo_id = x.ancestor_id
      GROUP BY 1, 2
    ),
    pairsims AS (
      SELECT p.conv_id, p.hpo_id AS a, g.hpo_id AS b,
             CASE WHEN p.hpo_id = g.hpo_id THEN 1.0
                  WHEN da.depth IS NULL OR db.depth IS NULL
                       OR (da.depth + db.depth) = 0 THEN 0.0
                  ELSE 2.0 * COALESCE(l.d, 0) / (da.depth + db.depth) END AS sim
      FROM pred p JOIN gold g USING (conv_id)
      LEFT JOIN depth da ON da.hpo_id = p.hpo_id
      LEFT JOIN depth db ON db.hpo_id = g.hpo_id
      LEFT JOIN lcs l ON l.a = p.hpo_id AND l.b = g.hpo_id
    ),
    shortfall_p AS (
      SELECT s.conv_id, s.a, 1.0 - MAX(s.sim) AS v
      FROM pairsims s
      WHERE NOT EXISTS (SELECT 1 FROM gold g
                        WHERE g.conv_id = s.conv_id AND g.hpo_id = s.a)
      GROUP BY s.conv_id, s.a
    ),
    shortfall_g AS (
      SELECT s.conv_id, s.b, 1.0 - MAX(s.sim) AS v
      FROM pairsims s
      WHERE NOT EXISTS (SELECT 1 FROM pred p
                        WHERE p.conv_id = s.conv_id AND p.hpo_id = s.b)
      GROUP BY s.conv_id, s.b
    ),
    union_n AS (
      SELECT conv_id, COUNT(*) AS n FROM (
        SELECT conv_id, hpo_id FROM pred UNION SELECT conv_id, hpo_id FROM gold
      ) GROUP BY conv_id
    ),
    np_ng AS (
      SELECT u.conv_id,
             (SELECT COUNT(*) FROM pred p WHERE p.conv_id = u.conv_id) AS np,
             (SELECT COUNT(*) FROM gold g WHERE g.conv_id = u.conv_id) AS ng
      FROM (SELECT DISTINCT conv_id FROM union_n) u
    ),
    per_conv AS (
      SELECT n.conv_id,
             CASE WHEN n.np = 0 OR n.ng = 0 THEN 0.0
                  ELSE 1.0 - (COALESCE(sp.v, 0) + COALESCE(sg.v, 0)) / un.n END AS sim
      FROM np_ng n
      JOIN union_n un ON un.conv_id = n.conv_id
      LEFT JOIN (SELECT conv_id, SUM(v) AS v FROM shortfall_p GROUP BY conv_id) sp
        ON sp.conv_id = n.conv_id
      LEFT JOIN (SELECT conv_id, SUM(v) AS v FROM shortfall_g GROUP BY conv_id) sg
        ON sg.conv_id = n.conv_id
    )
    SELECT round(COALESCE(AVG(sim), 0), 6) AS similarity FROM per_conv
    """
    )


def _pagerank_sql(iters: int = 3, damping: float = 0.85) -> str:
    """Fixed-iteration PageRank over the co-occurrence graph as chained
    CTEs — exactly the synchronous updates pipelines/graph.pagerank runs."""
    ctes = """
        , pred AS (
          SELECT DISTINCT conv_id, hpo_id FROM expected_mentions WHERE NOT negated
        ),
        e0 AS (
          SELECT DISTINCT a.hpo_id AS ha, b.hpo_id AS hb
          FROM pred a JOIN pred b ON a.conv_id = b.conv_id AND a.hpo_id < b.hpo_id
        ),
        ed AS (
          SELECT ha AS src, hb AS dst FROM e0
          UNION ALL SELECT hb, ha FROM e0
        ),
        deg AS (SELECT src, count(*) AS deg FROM ed GROUP BY src),
        nn AS (SELECT count(*) AS n FROM deg),
        r0 AS (SELECT src, 1.0 / (SELECT n FROM nn) AS rank FROM deg)"""
    for i in range(1, iters + 1):
        ctes += f""",
        r{i} AS (
          SELECT d.src,
                 (1.0 - {damping}) / (SELECT n FROM nn)
                   + {damping} * s.s AS rank
          FROM deg d JOIN (
            SELECT ed.dst AS src, SUM(r.rank / dg.deg) AS s
            FROM ed
            JOIN r{i - 1} r ON r.src = ed.src
            JOIN deg dg ON dg.src = ed.src
            GROUP BY ed.dst
          ) s ON s.src = d.src
        )"""
    return (
        _with_turns("mentions")
        + ctes
        + f"\n        SELECT src AS hpo_id, round(rank, 6) AS rank FROM r{iters}"
    )


def _kcore_sql(k: int = 2, rounds: int = 3) -> str:
    """Fixed-round k-core peeling as chained CTEs — mirrors
    pipelines/graph.kcore_nodes (final degree within the surviving set,
    0 if a survivor lost all alive-neighbors in the last round)."""
    ctes = """
        , pred AS (
          SELECT DISTINCT conv_id, hpo_id FROM expected_mentions WHERE NOT negated
        ),
        e0 AS (
          SELECT DISTINCT a.hpo_id AS ha, b.hpo_id AS hb
          FROM pred a JOIN pred b ON a.conv_id = b.conv_id AND a.hpo_id < b.hpo_id
        ),
        ed AS (
          SELECT ha AS src, hb AS dst FROM e0
          UNION ALL SELECT hb, ha FROM e0
        ),
        a0 AS (SELECT DISTINCT src FROM ed)"""
    for t in range(1, rounds + 1):
        p = t - 1
        ctes += f""",
        d{t} AS (
          SELECT ed.src, count(*) AS deg FROM ed
          JOIN a{p} x ON x.src = ed.src JOIN a{p} y ON y.src = ed.dst
          GROUP BY ed.src
        ),
        a{t} AS (SELECT src FROM d{t} WHERE deg >= {k})"""
    ctes += f""",
        dfin AS (
          SELECT ed.src, count(*) AS deg FROM ed
          JOIN a{rounds} x ON x.src = ed.src JOIN a{rounds} y ON y.src = ed.dst
          GROUP BY ed.src
        )"""
    return (
        _with_turns("mentions")
        + ctes
        + f"""
        SELECT a.src AS hpo_id,
               CAST(coalesce(d.deg, 0) AS BIGINT) AS degree
        FROM a{rounds} a LEFT JOIN dfin d ON d.src = a.src
        """
    )


_IC_FINAL = """
    , node AS (SELECT hpo_id, count(*) AS n_convs FROM hits GROUP BY hpo_id),
    tot AS (SELECT max(n_convs) AS nn FROM node)
    SELECT node.hpo_id, node.n_convs,
           CAST(CAST(round(ln(CAST(t.nn AS DOUBLE)) * 1e9) AS BIGINT)
              - CAST(round(ln(CAST(node.n_convs AS DOUBLE)) * 1e9) AS BIGINT)
             AS BIGINT) AS ic_nano
    FROM node CROSS JOIN tot t
    """


def _ancestor_rollup_sql(final: str | None = None) -> str:
    """DAG rollup oracle: recursive closure + self rows, distinct
    (conv, ancestor) hits, count per node — mirrors
    ``pipelines/triples.ancestor_rollup`` exactly.  ``final`` swaps the
    trailing SELECT (the IC oracle reuses the whole rollup body)."""
    from phenobert_ray.transcripts import expected_mentions_sql, turns_sql

    return (
        "WITH RECURSIVE "
        + turns_sql()
        + ",\n"
        + expected_mentions_sql()
        + ",\n"
        + _edges_sql()
        + """,
    closure(hpo_id, ancestor_id) AS (
      SELECT child, parent FROM isa_edges
      UNION
      SELECT c.hpo_id, e.parent FROM closure c
      JOIN isa_edges e ON c.ancestor_id = e.child
    ),
    pred AS (
      SELECT DISTINCT conv_id, hpo_id FROM expected_mentions WHERE NOT negated
    ),
    anc AS (
      SELECT hpo_id, ancestor_id FROM closure
      UNION SELECT DISTINCT hpo_id, hpo_id FROM pred
    ),
    hits AS (
      SELECT DISTINCT p.conv_id, a.ancestor_id AS hpo_id
      FROM pred p JOIN anc a ON a.hpo_id = p.hpo_id
    )
    """
        + (final if final is not None
           else "SELECT hpo_id, count(*) AS n_convs FROM hits "
                "GROUP BY hpo_id")
    )


def oracle_sql() -> dict[str, str]:
    return {
        "turns_synth": _with_turns() + " SELECT * FROM turns",
        "extract_mentions": _with_turns("mentions")
        + " SELECT conv_id, turn_idx, mention, hpo_id,"
          " CAST(1.0 AS REAL) AS score, negated FROM expected_mentions",
        "conv_hpo_sets": _with_turns("mentions")
        + " SELECT DISTINCT conv_id, hpo_id FROM expected_mentions WHERE NOT negated",
        "kg_triples": _with_turns("mentions", _edges_sql())
        + """
        SELECT conv_id || ':' || CAST(MIN(turn_idx) AS VARCHAR) AS subj,
               'has_phenotype' AS pred, hpo_id AS obj,
               CAST(1.0 AS REAL) AS score, COUNT(*) AS n_mentions
        FROM expected_mentions WHERE NOT negated
        GROUP BY conv_id, hpo_id
        UNION ALL
        SELECT child AS subj, 'is_a' AS pred, parent AS obj,
               CAST(1.0 AS REAL) AS score, CAST(1 AS BIGINT) AS n_mentions
        FROM isa_edges
        """,
        "cooccurrence_edges": _with_turns("mentions")
        + """
        , pred AS (
          SELECT DISTINCT conv_id, hpo_id FROM expected_mentions WHERE NOT negated
        )
        SELECT a.hpo_id AS hpo_a, b.hpo_id AS hpo_b, count(*) AS n_convs
        FROM pred a JOIN pred b ON a.conv_id = b.conv_id AND a.hpo_id < b.hpo_id
        GROUP BY 1, 2
        """,
        # pmi_nano: every ln argument is an exact integer, both engines
        # quantize the SAME libm double per term (round ≡ floor(+0.5) for
        # the nonnegative ln of counts ≥ 1), then sum int64 terms
        "cooccurrence_pmi": _with_turns("mentions")
        + """
        , pred AS (
          SELECT DISTINCT conv_id, hpo_id FROM expected_mentions WHERE NOT negated
        ),
        nodes AS (SELECT hpo_id, count(*) AS n FROM pred GROUP BY hpo_id),
        tot AS (SELECT count(DISTINCT conv_id) AS nn FROM pred),
        edges AS (
          SELECT a.hpo_id AS hpo_a, b.hpo_id AS hpo_b, count(*) AS n_convs
          FROM pred a JOIN pred b ON a.conv_id = b.conv_id AND a.hpo_id < b.hpo_id
          GROUP BY 1, 2
        )
        SELECT e.hpo_a, e.hpo_b, e.n_convs,
               CAST(CAST(round(ln(CAST(e.n_convs AS DOUBLE)) * 1e9) AS BIGINT)
                  + CAST(round(ln(CAST(t.nn AS DOUBLE)) * 1e9) AS BIGINT)
                  - CAST(round(ln(CAST(na.n AS DOUBLE)) * 1e9) AS BIGINT)
                  - CAST(round(ln(CAST(nb.n AS DOUBLE)) * 1e9) AS BIGINT)
                 AS BIGINT) AS pmi_nano
        FROM edges e
        JOIN nodes na ON na.hpo_id = e.hpo_a
        JOIN nodes nb ON nb.hpo_id = e.hpo_b
        CROSS JOIN tot t
        """,
        "cooccurrence_triangles": _with_turns("mentions")
        + """
        , pred AS (
          SELECT DISTINCT conv_id, hpo_id FROM expected_mentions WHERE NOT negated
        ),
        e AS (
          SELECT DISTINCT a.hpo_id AS ha, b.hpo_id AS hb
          FROM pred a JOIN pred b ON a.conv_id = b.conv_id AND a.hpo_id < b.hpo_id
        )
        SELECT e1.ha AS hpo_a, e1.hb AS hpo_b, e2.hb AS hpo_c
        FROM e e1
        JOIN e e2 ON e2.ha = e1.ha AND e2.hb > e1.hb
        JOIN e e3 ON e3.ha = e1.hb AND e3.hb = e2.hb
        """,
        "cooccurrence_pagerank": _pagerank_sql(),
        "cooccurrence_kcore": _kcore_sql(),
        "hpo_ancestor_rollup": _ancestor_rollup_sql(),
        "hpo_information_content": _ancestor_rollup_sql(final=_IC_FINAL),
        "isa_closure": "WITH RECURSIVE " + _edges_sql() + """,
        closure(hpo_id, ancestor_id) AS (
          SELECT child, parent FROM isa_edges
          UNION
          SELECT c.hpo_id, e.parent FROM closure c JOIN isa_edges e ON c.ancestor_id = e.child
        )
        SELECT DISTINCT hpo_id, ancestor_id FROM closure
        """,
        "hpo_depth": "WITH RECURSIVE " + _edges_sql() + """,
        walk(hpo_id, depth) AS (
          SELECT 'HP:0000118', 0
          UNION ALL
          SELECT e.child, w.depth + 1 FROM walk w JOIN isa_edges e ON e.parent = w.hpo_id
        )
        SELECT hpo_id, CAST(MIN(depth) AS INTEGER) AS depth FROM walk GROUP BY hpo_id
        """,
        "index_search_and": _with_turns("mentions")
        + """
        SELECT DISTINCT conv_id FROM expected_mentions
        WHERE NOT negated AND hpo_id = 'HP:0002373'
        INTERSECT
        SELECT DISTINCT conv_id FROM expected_mentions
        WHERE NOT negated AND hpo_id = 'HP:0002069'
        """,
        "index_search_or": _with_turns("mentions")
        + """
        SELECT DISTINCT conv_id FROM expected_mentions
        WHERE NOT negated AND hpo_id IN ('HP:0002373', 'HP:0002069')
        """,
        "sample_hash": _with_turns()
        + " SELECT conv_id, turn_idx, role FROM turns WHERE turn_idx % 4 = 0",
        "inverted_index": _with_turns("mentions")
        + """
        SELECT hpo_id, count(DISTINCT conv_id) AS n_convs,
               min(conv_id) AS first_conv, max(conv_id) AS last_conv
        FROM expected_mentions WHERE NOT negated GROUP BY hpo_id
        """,
        "eval_micro": _with_turns("mentions", _gold_sql())
        + """
        -- COALESCE + tp>0 guards: DuckDB division by zero yields NULL,
        -- the engine returns 0.0 on empty/zero-tp corpora
        SELECT round(COALESCE(tp / NULLIF(CAST(np AS DOUBLE), 0), 0), 6) AS precision,
               round(COALESCE(tp / NULLIF(CAST(ng AS DOUBLE), 0), 0), 6) AS recall,
               round(CASE WHEN tp > 0 THEN
                       2.0 * (tp/CAST(np AS DOUBLE)) * (tp/CAST(ng AS DOUBLE))
                       / ((tp/CAST(np AS DOUBLE)) + (tp/CAST(ng AS DOUBLE)))
                     ELSE 0 END, 6) AS f1
        FROM counts
        """,
        "eval_macro": _with_turns("mentions", _gold_sql())
        + """
        , per_conv AS (
          SELECT coalesce(p.conv_id, g.conv_id) AS conv_id,
                 count(CASE WHEN p.hpo_id IS NOT NULL AND g.hpo_id IS NOT NULL THEN 1 END) AS tp,
                 count(p.hpo_id) AS np, count(g.hpo_id) AS ng
          FROM pred p FULL OUTER JOIN gold g
            ON p.conv_id = g.conv_id AND p.hpo_id = g.hpo_id
          GROUP BY 1
        )
        SELECT round(COALESCE(avg(CASE WHEN np > 0 THEN tp / CAST(np AS DOUBLE) ELSE 0 END), 0), 6) AS macro_precision,
               round(COALESCE(avg(CASE WHEN ng > 0 THEN tp / CAST(ng AS DOUBLE) ELSE 0 END), 0), 6) AS macro_recall
        FROM per_conv
        """,
        "onto_similarity": _onto_similarity_sql(),
    }
