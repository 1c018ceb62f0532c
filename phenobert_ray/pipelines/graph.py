"""Graph operators over the phenotype co-occurrence edge list
(``pipelines.triples.cooccurrence_edges``: canonical ``hpo_a < hpo_b``
rows): triangle enumeration, fixed-iteration PageRank and fixed-round
k-core peeling.  Each gathers the edge list into one Arrow block
(``stages.shuffle.in_one_block``) and runs in numpy over integer node
codes, in one task; no exchange, no join.  The edge list is bounded by
the phenotype vocabulary (at most C(|vocab|, 2) rows), and it must fit in
one block.  Each result is reproducible in SQL, so it is hash-checkable
against a DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.shuffle import in_one_block
from .triples import EDGE_SCHEMA, run_pairs, run_starts, vocab_codes

TRIANGLE_SCHEMA = pa.schema([("hpo_a", pa.string()), ("hpo_b", pa.string()),
                             ("hpo_c", pa.string())])
RANK_SCHEMA = pa.schema([("hpo_id", pa.string()), ("rank", pa.float64())])
KCORE_SCHEMA = pa.schema([("hpo_id", pa.string()), ("degree", pa.int64())])


def _adjacency(edges: pa.Table):
    """(vocab, src, dst): node codes into the sorted node vocabulary, each
    edge walked in both directions."""
    vocab, (a, b) = vocab_codes(edges["hpo_a"], edges["hpo_b"])
    return vocab, np.concatenate([a, b]), np.concatenate([b, a])


def _triangles(edges: pa.Table) -> pa.Table:
    vocab, (a, b) = vocab_codes(edges["hpo_a"], edges["hpo_b"])
    width = len(vocab)
    key = np.unique(a * width + b)           # the edge set, sorted by (a, b)
    a, b = key // width, key % width
    # wedges anchored at their first node: every pair b < c of a's
    # successors (one run of the sorted edges), closed by the edge (b, c)
    i, j = run_pairs(run_starts(a))
    closed = np.isin(b[i] * width + b[j], key)
    i, j = i[closed], j[closed]
    return pa.Table.from_arrays(
        [vocab.take(a[i]), vocab.take(b[i]), vocab.take(b[j])],
        schema=TRIANGLE_SCHEMA)


def triangles(edges_ds):
    """(hpo_a, hpo_b, hpo_c), a < b < c — triangle enumeration over a
    canonical (a < b) undirected edge list, read as a set.  Each wedge is
    anchored at its minimum node, so it is built exactly once: the pairs
    of each node's sorted successor run (the C(k, 2) expansion
    ``cooccurrence_edges`` uses), kept when the closing edge exists.  A
    hub of degree d contributes C(d, 2) wedges — the classic bound; the
    co-occurrence graph is phenotype-vocabulary-sized, so d is small."""
    return in_one_block(edges_ds, EDGE_SCHEMA, _triangles, TRIANGLE_SCHEMA)


def _pagerank(edges: pa.Table, iters: int, damping: float) -> pa.Table:
    vocab, src, dst = _adjacency(edges)
    n = len(vocab)
    deg = np.bincount(src, minlength=n)
    rank = np.full(n, 1.0 / n)
    for _ in range(iters):
        rank = (1.0 - damping) / n + damping * np.bincount(
            dst, weights=(rank / deg)[src], minlength=n)
    return pa.Table.from_arrays([vocab, pa.array(np.round(rank, 6))],
                                schema=RANK_SCHEMA)


def pagerank(edges_ds, iters: int = 3, damping: float = 0.85):
    """(hpo_id, rank) — PageRank on the undirected graph (each canonical
    a<b edge walked in both directions), a FIXED number of synchronous
    iterations from the uniform start, ranks rounded to 6 dp — exactly
    reproducible in SQL, so the iterative path is hash-checkable (unlike
    convergence-loop formulations).  Each iteration is one
    ``np.bincount`` of rank/degree contributions over the adjacency, in
    the one task that holds the edge list.  Dangling nodes don't occur,
    since every node in an edge list has degree ≥ 1."""
    return in_one_block(edges_ds, EDGE_SCHEMA, _pagerank, RANK_SCHEMA,
                        iters=iters, damping=damping)


def _kcore(edges: pa.Table, k: int, rounds: int) -> pa.Table:
    vocab, src, dst = _adjacency(edges)

    def degrees(alive: np.ndarray) -> np.ndarray:
        live = alive[src] & alive[dst]
        return np.bincount(src[live], minlength=len(vocab))

    alive = np.ones(len(vocab), dtype=bool)
    for _ in range(rounds):
        deg = degrees(alive)
        alive = (deg >= k) & (deg > 0)
    deg = degrees(alive)
    return pa.Table.from_arrays(
        [vocab.filter(pa.array(alive)), pa.array(deg[alive], pa.int64())],
        schema=KCORE_SCHEMA)


def kcore_nodes(edges_ds, k: int = 2, rounds: int = 3):
    """(hpo_id, degree) — nodes surviving ``rounds`` fixed peeling rounds
    of k-core decomposition (drop nodes with alive-degree < k each round),
    with their final degree within the surviving subgraph.  The
    graph-densification operator of KG curation: the k-core is the
    noise-robust backbone of the co-mention graph.

    Fixed-round semantics (like :func:`pagerank`) so the whole run is
    SQL-expressible as chained CTEs; full peeling converges when a round
    removes nothing — callers can raise ``rounds`` until stable.  Each
    round is one ``np.bincount`` over the alive-alive adjacency, in the
    one task that holds the edge list."""
    return in_one_block(edges_ds, EDGE_SCHEMA, _kcore, KCORE_SCHEMA,
                        k=k, rounds=rounds)
