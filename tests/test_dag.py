"""DAG ops on the synthetic mini-ontology (SURVEY.md §5 item 1), and the
ontology loader over every format."""

import pytest

from phenobert_ray.assets.mini_hpo import ORACLE_PHRASES, mini_dag


def test_subtree_membership(mini):
    assert mini.in_abnormality("HP:0001250")
    assert not mini.in_abnormality("HP:0000006")  # mode-of-inheritance branch
    assert not mini.in_abnormality("HP:0000118")  # root excluded from NT set


def test_layer1(mini):
    assert "HP:0000707" in mini.layer1
    assert mini.hpo2idx_l1["HP:0000707"] >= 0


def test_depths(mini):
    assert mini.depth["HP:0000118"] == 0
    assert mini.depth["HP:0000707"] == 1
    assert mini.depth["HP:0001250"] == 3  # 118→707→12638→1250
    # multi-parent min depth: 648 via 478(d1) = 2, via 12638 = 3 → 2
    assert mini.depth["HP:0000648"] == 2


def test_ancestors_multi_parent(mini):
    anc = mini.ancestors["HP:0000648"]
    assert {"HP:0000478", "HP:0012638", "HP:0000707", "HP:0000118"} <= anc


def test_alt_id(mini):
    assert mini.canonical("HP:0010520") == "HP:0001250"
    assert mini.canonical("HP:0001250") == "HP:0001250"


def test_phrase_match(mini):
    assert mini.match_phrase("Febrile seizure") == "HP:0002373"
    assert mini.match_phrase("seizure febrile") == "HP:0002373"  # bag key
    assert mini.match_phrase("Broad-Thumb") == "HP:0011304"
    assert mini.match_phrase("nothing here") == ""


def test_lemma_fallback(mini):
    # "hypotonias" is not a synonym but lemmatizes to the name
    assert mini.match_phrase("hypotonias") == "HP:0001252"


def test_lcs_similarity(mini):
    # nystagmus / strabismus share HP:0000478 at depth 1
    assert mini.lcs_depth("HP:0000639", "HP:0000486") == 1
    assert mini.node_sim("HP:0000639", "HP:0000639") == 1.0
    s = mini.node_sim("HP:0000639", "HP:0000486")
    assert 0 < s < 1
    # blindness vs visual impairment: LCS = visual impairment (ancestor)
    assert mini.lcs_depth("HP:0000618", "HP:0000505") == mini.depth["HP:0000505"]


def test_set_sim_bounds(mini):
    a = {"HP:0000639"}
    assert mini.set_sim(a, a) == 1.0
    assert mini.set_sim(set(), set()) == 1.0
    assert mini.set_sim(a, set()) == 0.0


def test_is_a_edges(mini):
    edges = set(mini.is_a_edges())
    assert ("HP:0002373", "HP:0001250") in edges
    # edges crossing out of the abnormality subtree are excluded
    assert all(p != "HP:0000001" for _, p in edges)


def test_oracle_phrases_resolve(mini):
    for p, h in ORACLE_PHRASES:
        assert mini.match_phrase(p) == h, p
        assert mini.in_abnormality(h), h


def test_oracle_phrases_disjoint_from_base_vocab():
    base = {
        "a", "agg", "batch", "big", "column", "customer", "data", "dup",
        "fast", "filter", "group", "hash", "join", "key", "line", "merge",
        "order", "part", "query", "row", "scan", "slow", "small", "sort",
        "spark", "stream", "table", "the", "value", "vector", "window",
        "patient", "shows", "today", "exam", "reveals", "no",
    }
    for p, _ in ORACLE_PHRASES:
        assert not (set(p.split()) & base), p


def test_set_sim_reference_formula(mini):
    """Pins the getHPO_set_similarity_max semantics (util.py:504-537):
    shared concepts are SKIPPED and the score is 1 - shortfall/|union|.
    With pred={A,B}, gold={A} and sim(A,B)=0 the reference gives
    1 - (1-0)/2 = 0.5 (the old symmetrized-mean formula gave 0.75)."""
    a, b = "HP:0001250", "HP:0001513"  # seizure vs obesity: disjoint branches
    assert mini.node_sim(a, b) == 0.0
    assert mini.set_sim({a, b}, {a}) == 0.5
    # partial credit through the DAG: febrile seizure vs {seizure}
    fs = "HP:0002373"
    expect = 1 - (1 - mini.node_sim(fs, a)) / 2
    assert abs(mini.set_sim({fs, a}, {a}) - expect) < 1e-12


# ---- one loader for every ontology format ---------------------------------

def _write_format(fmt, nodes, d):
    """``nodes`` written as ontology format ``fmt`` under ``d``; its path
    (None for the built-in mini ontology)."""
    import json

    if fmt == "none":
        return None
    if fmt == "hpo_json":
        p = d / "hpo.json"
        p.write_text(json.dumps({h: {
            "Name": n["name"], "Synonym": [f'"{s}" EXACT []' for s in n["synonym"]],
            "Alt_id": n["alt_id"], "Is_a": [f"{x} ! parent" for x in n["is_a"]],
        } for h, n in nodes.items()}))
    elif fmt == "node_json":
        p = d / "DAG.json"
        p.write_text(json.dumps(nodes))
    elif fmt == "obo":
        p = d / "hp.obo"
        p.write_text("format-version: 1.2\n\n" + "".join(
            f"[Term]\nid: {h}\n" + "".join(f"name: {x}\n" for x in n["name"])
            + "".join(f'synonym: "{x}" EXACT []\n' for x in n["synonym"])
            + "".join(f"alt_id: {x}\n" for x in n["alt_id"])
            + "".join(f"is_a: {x} ! parent\n" for x in n["is_a"]) + "\n"
            for h, n in nodes.items()))
    else:
        p = d / "train.txt"
        p.write_text("".join(f"{x}\t{h}\n" for h, n in nodes.items()
                             for x in [*n["name"], *n["synonym"]]))
    return str(p)


def _simplified_oracle(nodes, reference):
    """The reference keys plus every name's and synonym's simplified bag
    (util.py:241-252, written out here on its own), nodes in order, names
    first, the first bag winning and no reference key replaced."""
    from phenobert_ray.textops import NUM2WORD, STOPWORDS, bag_key, is_num, process_str

    want = dict(reference)
    for h, n in nodes.items():
        for phrase in [*n.get("name", ()), *n.get("synonym", ())]:
            toks = [NUM2WORD.get(t, t) for t in process_str(phrase)
                    if t in NUM2WORD or not (t in STOPWORDS or is_num(t))]
            if toks:
                want.setdefault(bag_key(toks), h)
    return want


@pytest.mark.parametrize("simplified", [False, True], ids=["reference", "simplified"])
@pytest.mark.parametrize("fmt", ["none", "hpo_json", "node_json", "obo", "pairs"])
def test_load_ontology_reads_every_format(fmt, simplified, tmp_path, mini):
    from phenobert_ray.assets.loader import load_ontology
    from phenobert_ray.assets.mini_hpo import mini_nodes

    nodes = mini_nodes()
    dag = load_ontology(_write_format(fmt, nodes, tmp_path), simplified)
    if not simplified:
        assert dag.phrase2hpo == mini.phrase2hpo
        return
    assert dag.phrase2hpo == _simplified_oracle(nodes, mini.phrase2hpo)
    assert len(mini.phrase2hpo) == 81 and len(dag.phrase2hpo) == 93
    assert {k: dag.phrase2hpo[k] for k in mini.phrase2hpo} == mini.phrase2hpo


def test_load_ontology_reads_the_shipped_node_table(shipped_dag):
    from importlib.resources import files

    from phenobert_ray.assets.loader import load_ontology

    dag = load_ontology(str(files("phenobert_ray.assets").joinpath("trained/DAG.json")))
    assert len(dag.phrase2hpo) == 31_540
    assert dag.phrase2hpo == shipped_dag.phrase2hpo
    assert dag.fingerprint == shipped_dag.fingerprint == "09cf819b3bf844d0"


def test_simplified_keys_on_the_shipped_dag(shipped_dag):
    from phenobert_ray.assets.hpo_dag import HpoDag
    from phenobert_ray.textops import bag_key, process_str, simplify

    ref = shipped_dag.phrase2hpo
    dag = HpoDag(shipped_dag.nodes, simplified_keys=True)
    added = {k: h for k, h in dag.phrase2hpo.items() if k not in ref}
    assert len(dag.phrase2hpo) == 43_057 and len(added) == 11_517
    assert {k: dag.phrase2hpo[k] for k in ref} == ref
    for k, h in added.items():
        n = dag.nodes[h]
        assert k in {bag_key(simplify(process_str(p)))
                     for p in [*n.get("name", ()), *n.get("synonym", ())]}, k
    # the added keys reach the probe's prune set
    assert dag.fingerprint != shipped_dag.fingerprint
    assert dag.phrase_vocab >= {t for k in added for t in k.split()}


@pytest.mark.parametrize("body,name", [
    ('{"HP:0000118": {"Is_a": []}, "HP:0001250": {"Is_a": ["HP:0000118"]}}', "hpo.json"),
    ("seizure\tnone\n# a comment\n", "train.txt"),
], ids=["hpo_json_without_names", "pairs_without_hp_lines"])
def test_load_ontology_refuses_an_empty_dictionary(body, name, tmp_path):
    from phenobert_ray.assets.loader import load_ontology

    p = tmp_path / name
    p.write_text(body)
    with pytest.raises(ValueError, match="no phrase of a concept") as ei:
        load_ontology(str(p))
    assert str(p) in str(ei.value)


def test_load_ontology_refuses_json_of_neither_format(tmp_path):
    from phenobert_ray.assets.loader import load_ontology

    p = tmp_path / "other.json"
    p.write_text('{"HP:0001250": {"label": "Seizure"}}')
    with pytest.raises(ValueError, match="not an ontology") as ei:
        load_ontology(str(p))
    assert str(p) in str(ei.value)
