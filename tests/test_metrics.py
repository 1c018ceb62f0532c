"""A1-A4 metric aggregates vs hand-computed values (eval_all.py semantics)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from phenobert_ray.eval.metrics import macro_prf, micro_prf, ontology_similarity
from phenobert_ray.sources.inverted_index import (
    NUM_POSTING_SHARDS,
    build_inverted_index,
    search,
)


def _ds(rows):
    return ray.data.from_pandas(pd.DataFrame(rows, columns=["conv_id", "hpo_id"]))


def test_micro(mini):
    pred = _ds([("c1", "HP:0001250"), ("c1", "HP:0001252"), ("c2", "HP:0002650")])
    gold = _ds([("c1", "HP:0001250"), ("c2", "HP:0002650"), ("c2", "HP:0001513")])
    m = micro_prf(pred, gold)
    assert abs(m["precision"] - 2 / 3) < 1e-9
    assert abs(m["recall"] - 2 / 3) < 1e-9
    assert abs(m["f1"] - 2 / 3) < 1e-9


def test_macro(mini):
    pred = _ds([("c1", "HP:0001250"), ("c1", "HP:0001252"), ("c2", "HP:0002650")])
    gold = _ds([("c1", "HP:0001250"), ("c2", "HP:0002650"), ("c2", "HP:0001513")])
    m = macro_prf(pred, gold)
    # c1: P=1/2 R=1/1 ; c2: P=1/1 R=1/2
    assert abs(m["macro_precision"] - 0.75) < 1e-9
    assert abs(m["macro_recall"] - 0.75) < 1e-9


def test_ontology_similarity_identical_sets(mini):
    pred = _ds([("c1", "HP:0001250")])
    gold = _ds([("c1", "HP:0001250")])
    assert ontology_similarity(pred, gold, mini) == 1.0


def test_ontology_similarity_related(mini):
    # febrile seizure vs seizure: LCS = seizure → high-but-<1 similarity
    pred = _ds([("c1", "HP:0002373")])
    gold = _ds([("c1", "HP:0001250")])
    s = ontology_similarity(pred, gold, mini)
    assert 0.5 < s < 1.0
    # unrelated branches → low similarity
    pred2 = _ds([("c1", "HP:0001513")])
    s2 = ontology_similarity(pred2, gold, mini)
    assert s2 < s


def test_inverted_index_and_search(mini):
    anns = ray.data.from_pandas(
        pd.DataFrame(
            {
                "conv_id": ["c1", "c1", "c2", "c3", "c3"],
                "hpo_id": ["HP:1", "HP:2", "HP:1", "HP:2", "HP:1"],
                "negated": [False, False, False, False, True],
            }
        )
    )
    idx = build_inverted_index(anns).to_pandas()
    # sharded rows: a hpo's postings = union over its shard rows
    lut: dict[str, set] = {}
    for h, convs in zip(idx.hpo_id, idx.convs):
        lut.setdefault(h, set()).update(convs)
    assert sorted(lut["HP:1"]) == ["c1", "c2"]  # c3 negated → excluded
    assert sorted(lut["HP:2"]) == ["c1", "c3"]
    assert search(idx, ["HP:1", "HP:2"], "and") == ["c1"]
    assert search(idx, ["HP:1", "HP:2"], "or") == ["c1", "c2", "c3"]
    # vacuous AND: every conv with a non-negated mention, as the
    # distributed probe answers it
    from phenobert_ray.sources.inverted_index import search_convs_with_all

    def probe(ids):
        return sorted(search_convs_with_all(anns, ids).to_pandas()["conv_id"])

    assert search(idx, [], "and") == probe([]) == ["c1", "c2", "c3"]
    assert search(idx, [], "or") == []
    # a repeated id is the single id
    assert search(idx, ["HP:1", "HP:1"], "and") == ["c1", "c2"]
    assert probe(["HP:1", "HP:1"]) == probe(["HP:1"]) == ["c1", "c2"]


def _closed_form_annotations(n_convs: int, n_hpos: int):
    """Conv c mentions the 5 phenotypes (c + j) % H, j = 0..4, and (odd c)
    NEGATES (c + 7) % H, a distinct phenotype, so a broken negation filter
    inflates counts instead of hiding behind the (conv, hpo) dedup."""
    c = np.arange(n_convs)
    odd = c[c % 2 == 1]
    conv = np.concatenate([np.repeat(c, 5), odd])
    hpo = np.concatenate([(np.repeat(c, 5) + np.tile(np.arange(5), n_convs)),
                          odd + 7]) % n_hpos
    t = pa.table({
        "conv_id": np.char.add("conv-", conv.astype(str)),
        "hpo_id": [f"HP:{h:07d}" for h in hpo],
        "negated": np.arange(len(conv)) >= 5 * n_convs,
    })
    step = -(-t.num_rows // 4)
    return ray.data.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])


def _check_postings(idx: pd.DataFrame) -> None:
    """Every posting row holds sorted distinct convs, counts them, and
    holds only convs whose own hash picks its shard."""
    assert (idx["convs"].map(len) == idx["n_convs"]).all()
    assert idx["convs"].map(lambda cs: list(cs) == sorted(set(cs))).all()
    flat = idx.explode("convs")
    shard = pd.util.hash_pandas_object(flat["convs"], index=False) % NUM_POSTING_SHARDS
    assert (shard.to_numpy() == flat["shard"].to_numpy()).all()


def test_inverted_index_hot_key_sharding(mini):
    """A phenotype present in EVERY conv must spread over multiple shard
    rows, and the scalar path must still be exact.  Then a closed-form
    corpus of ~2k conversations: the postings, the scalars and the AND
    probe match their closed forms exactly."""
    from phenobert_ray.sources.inverted_index import index_scalars, search_convs_with_all

    convs = [f"c{i:04d}" for i in range(200)]
    anns = ray.data.from_pandas(
        pd.DataFrame(
            {
                "conv_id": convs,
                "hpo_id": ["HP:HOT"] * 200,
                "negated": [False] * 200,
            }
        )
    )
    idx = build_inverted_index(anns).to_pandas()
    hot = idx[idx.hpo_id == "HP:HOT"]
    assert len(hot) > 1  # sharded, not one giant row
    assert hot["convs"].map(len).max() < 200
    assert sorted(c for lst in hot["convs"] for c in lst) == convs

    sc = index_scalars(anns).to_pandas()
    row = sc[sc.hpo_id == "HP:HOT"].iloc[0]
    assert int(row.n_convs) == 200
    assert row.first_conv == "c0000" and row.last_conv == "c0199"
    _check_postings(idx)

    H, C = 100, 2_013
    anns = _closed_form_annotations(C, H)
    base, rem = divmod(C, H)

    def cnt(r):  # conversations c with c % H == r
        return base + (r < rem)

    idx = build_inverted_index(anns).to_pandas()
    _check_postings(idx)
    assert idx["n_convs"].sum() == 5 * C
    flat = idx.explode("convs")
    offset = (flat["hpo_id"].str[3:].astype(int)
              - flat["convs"].str[5:].astype(int)) % H
    assert (offset <= 4).all()

    sc = index_scalars(anns).to_pandas()
    h = sc["hpo_id"].str[3:].astype(int).to_numpy()
    assert len(sc) == H
    assert (sc["n_convs"].to_numpy()
            == sum(cnt((h - j) % H) for j in range(5))).all()

    got = search_convs_with_all(anns, ["HP:0000000", "HP:0000001"]).to_pandas()
    want = [c for c in range(C) if c % H in (0, H - 1, H - 2, H - 3)]
    assert sorted(got["conv_id"].str[5:].astype(int)) == want


def test_ancestor_rollup_invariants(mini, sf_small):
    from phenobert_ray.pipelines.triples import ancestor_rollup, dedup_conv_hpo
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.transcripts import read_turns

    ann = annotate_turns(read_turns(sf_small), mini)
    roll = ancestor_rollup(ann, mini).to_pandas().set_index("hpo_id")["n_convs"]
    leaf = (
        dedup_conv_hpo(ann, drop_negated=True)
        .to_pandas()
        .groupby("hpo_id")["conv_id"]
        .nunique()
    )
    # every directly-mentioned node appears and rolls up at least itself
    for h, n in leaf.items():
        assert roll.get(h, 0) >= n
    # monotone up the DAG: a parent counts >= each child it covers
    for h in roll.index:
        for a in mini.ancestors.get(h, set()) & mini.abnormality:
            assert roll[a] >= roll[h] or h == a
    # the abnormality root covers every conv that has any mention
    n_convs_any = (
        dedup_conv_hpo(ann, drop_negated=True).to_pandas()["conv_id"].nunique()
    )
    assert roll.get("HP:0000118", 0) == n_convs_any


def test_macro_and_similarity_count_empty_docs_like_reference(mini):
    """The reference scores a doc with neither gold nor predicted HPOs as
    P=R=1 / sim=1 and averages over ALL files (eval_all.py:64-67,284-285;
    util.py:511-512).  n_all_convs folds those docs in (review r4)."""
    pred = _ds([("c1", "HP:0001250"), ("c1", "HP:0001252"), ("c2", "HP:0002650")])
    gold = _ds([("c1", "HP:0001250"), ("c2", "HP:0002650"), ("c2", "HP:0001513")])
    # corpus of 4 docs: c1, c2 plus TWO annotation-free docs
    m = macro_prf(pred, gold, n_all_convs=4)
    # (0.5 + 1 + 1 + 1)/4 and (1 + 0.5 + 1 + 1)/4
    assert abs(m["macro_precision"] - 0.875) < 1e-9
    assert abs(m["macro_recall"] - 0.875) < 1e-9

    s_present = ontology_similarity(_ds([("c1", "HP:0001250")]),
                                    _ds([("c1", "HP:0001250")]), mini)
    s_all = ontology_similarity(_ds([("c1", "HP:0001250")]),
                                _ds([("c1", "HP:0001250")]), mini,
                                n_all_convs=2)
    assert s_present == 1.0 and s_all == 1.0  # empty-empty doc scores 1.0

    s_mixed = ontology_similarity(_ds([("c1", "HP:0001513")]),
                                  _ds([("c1", "HP:0001250")]), mini,
                                  n_all_convs=2)
    s_base = ontology_similarity(_ds([("c1", "HP:0001513")]),
                                 _ds([("c1", "HP:0001250")]), mini)
    assert abs(s_mixed - (s_base + 1.0) / 2) < 1e-9
