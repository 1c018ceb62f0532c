"""S4: ontology loaders.

:func:`load_ontology` reads every ontology format into the node table
HpoDag consumes: the reference's ``hpo.json`` (dict-of-dicts keyed by
``HP:...`` with ``Name/Alt_id/Synonym/Is_a`` fields, util.py:27-44), the
engine's own node table (lowercase ``name/synonym/alt_id/is_a``, the
``DAG.json`` that ``train_np`` and ``tools/import_reference_weights.py``
write), a minimal ``.obo`` parser and ``train.txt``-style phrase pairs.
Assets build once on the driver and broadcast (SURVEY.md §2.5).
``resolve_entry`` is the set-up every entry point runs: ontology loader,
``builtin`` asset paths and the threshold defaults.
"""

from __future__ import annotations

import json
import re

from .hpo_dag import ROOT, HpoDag

# hpo.json field → node-table field
_REF_FIELDS = {"Name": "name", "Synonym": "synonym", "Alt_id": "alt_id", "Is_a": "is_a"}


def _norm_strlist(v) -> list[str]:
    if v is None:
        return []
    if isinstance(v, str):
        return [v]
    return list(v)


def _nodes_from_json(path: str) -> dict[str, dict]:
    """The node table of a reference ``hpo.json`` (util.py:284-285) or of
    an engine node table, told apart by their field names; a file whose
    nodes carry neither set is refused."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    nodes = list(data.values()) if isinstance(data, dict) else []
    if any(isinstance(d, dict) and not _REF_FIELDS.keys().isdisjoint(d) for d in nodes):
        return {
            hpo: {
                "name": _norm_strlist(d.get("Name")),
                "synonym": [_extract_quoted(s) for s in _norm_strlist(d.get("Synonym"))],
                "alt_id": _norm_strlist(d.get("Alt_id")),
                "is_a": [s.split(" !")[0].strip() for s in _norm_strlist(d.get("Is_a"))],
            }
            for hpo, d in data.items()
        }
    if any(isinstance(d, dict) and not d.keys().isdisjoint(_REF_FIELDS.values()) for d in nodes):
        return data
    raise ValueError(f"{path}: not an ontology: no node carries the hpo.json fields "
                     f"({'/'.join(_REF_FIELDS)}) or the node-table fields "
                     f"({'/'.join(_REF_FIELDS.values())})")


_QUOTED = re.compile(r'"([^"]*)"')


def _extract_quoted(s: str) -> str:
    m = _QUOTED.search(s)
    return m.group(1) if m else s


def _nodes_from_phrase_pairs(pairs: list[tuple[str, str]]) -> dict[str, dict]:
    """The node table of (phrase, hpo_id) pairs — the shape of the
    reference's models/train.txt name+synonym dump (48,600 lines): a
    concept's first phrase is its name, the rest its synonyms.  No is_a
    structure is available from that file, so every term is attached
    directly under the root (flat DAG): dictionary linking works at full
    fidelity, subtree filtering degenerates to membership."""
    nodes: dict[str, dict] = {ROOT: {"name": ["Phenotypic abnormality"], "is_a": []}}
    for phrase, hpo in pairs:
        n = nodes.setdefault(hpo, {"name": [], "synonym": [], "is_a": [ROOT]})
        if not n["name"]:
            n["name"] = [phrase]
        else:
            n.setdefault("synonym", []).append(phrase)
    return nodes


def dag_from_train_source(models_dir: str) -> HpoDag:
    """Two-level ontology reconstructed from the reference's SHIPPED
    training files (models/train.txt + models/train_source/train_{i}.txt)
    — the hermetic substitute for data/hpo.json, which is an external
    download (README.md:70-83).

    Each train_source shard is one L1 subtree's member phrases
    (produce_trainSet_sub.py: ``getMaterial4L1`` members labelled with
    their HPO id, cross-subtree rows labelled "None"), so the shards give
    exact L1-subtree MEMBERSHIP — the only structure the router/subtree
    model stack needs.  Internal is_a edges are not recoverable from the
    dump, so each subtree is flat: members hang directly off a subtree
    root (the lexicographically smallest member — a stand-in id; the real
    L1 root is in the member set but not identifiable without hpo.json).
    Multi-L1 concepts keep their multi-parent structure (they appear in
    several shards).

    ``dag.l1_source_file[l1_id] = shard index`` records which train_{i}
    file belongs to each constructed layer1 node — HpoDag sorts layer1 by
    id, which need not match shard order.
    """
    import os

    nodes: dict[str, dict] = {
        "HP:0000118": {"name": ["Phenotypic abnormality"], "is_a": []}
    }
    phrases: dict[str, list[str]] = {}
    with open(os.path.join(models_dir, "train.txt"), encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 2 and parts[1].startswith("HP:"):
                phrases.setdefault(parts[1], []).append(parts[0])

    members_of: dict[int, set] = {}
    src = os.path.join(models_dir, "train_source")
    i = 0
    while os.path.exists(os.path.join(src, f"train_{i}.txt")):
        m = set()
        with open(os.path.join(src, f"train_{i}.txt"), encoding="utf-8") as f:
            for line in f:
                parts = line.rstrip("\n").split("\t")
                if len(parts) == 2 and parts[1].startswith("HP:"):
                    m.add(parts[1])
        m.discard("HP:0000118")  # the root is never a subtree member
        if m:
            members_of[i] = m
        i += 1
    if not members_of:
        raise FileNotFoundError(f"no train_source shards under {src}")

    # stand-in root per shard = smallest member not already claimed by an
    # earlier shard (multi-parent concepts appear in SEVERAL shards, so a
    # plain min() can collide — e.g. HP:0000023 is the min of two shards)
    roots: dict[int, str] = {}
    used: set[str] = set()
    for i in sorted(members_of):
        for h in sorted(members_of[i]):
            if h not in used:
                roots[i] = h
                used.add(h)
                break
        else:
            raise ValueError(f"shard {i}: every member already roots "
                             f"another shard")
    root_ids = set(roots.values())
    parent_sets: dict[str, set] = {}
    for i, m in members_of.items():
        root = roots[i]
        for h in m:
            # shard roots parent ONLY HP:0000118 — a root that is also a
            # member of another shard would otherwise create mutual
            # parent edges (a cycle the real ontology cannot have); its
            # phrases in that other shard train as "None" rows, which the
            # sample loader handles
            if h != root and h not in root_ids:
                parent_sets.setdefault(h, set()).add(root)
    for h, plist in phrases.items():
        if h == "HP:0000118":
            # the global root: keep its edge-free node (a generated
            # is_a ["HP:0000118"] would be a SELF-loop, putting the root
            # inside layer1 with the whole ontology as its "subtree");
            # just attach its train.txt phrases as dictionary entries
            nodes[h]["name"] = plist[:1] + nodes[h]["name"]
            nodes[h]["synonym"] = plist[1:]
            continue
        node = {
            "name": plist[:1],
            "synonym": plist[1:],
            # members hang off their shard root(s); shard roots and the
            # rare concept in no shard hang directly off HP:0000118 so
            # dictionary hits remain in-abnormality
            "is_a": sorted(parent_sets.get(h, set())) or ["HP:0000118"],
        }
        nodes[h] = node
    dag = HpoDag(nodes)
    dag.l1_source_file = {roots[i]: i for i in members_of}
    return dag


def _nodes_from_obo(path: str) -> dict[str, dict]:
    """Minimal .obo term parser (public OBO format)."""
    nodes: dict[str, dict] = {}
    cur: dict | None = None
    cur_id = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line == "[Term]":
                cur, cur_id = {"name": [], "synonym": [], "alt_id": [], "is_a": []}, None
            elif cur is not None:
                if line.startswith("id: "):
                    cur_id = line[4:]
                    nodes[cur_id] = cur
                elif line.startswith("name: "):
                    cur["name"].append(line[6:])
                elif line.startswith("synonym: "):
                    cur["synonym"].append(_extract_quoted(line[9:]))
                elif line.startswith("alt_id: "):
                    cur["alt_id"].append(line[8:])
                elif line.startswith("is_a: "):
                    cur["is_a"].append(line[6:].split(" !")[0].strip())
                elif not line:
                    cur = None
    return nodes


def trained_model_dir() -> str | None:
    """Path of the packaged trained-CNN checkpoint directory (fit
    hermetically by train_np.train_all over the reference's shipped
    training files, float16-quantized), or None when absent.

    The packaged weights use the engine's hashing token embedding, not the
    reference's external fastText .bin, so the reference's p1/p2 defaults
    (0.8/0.6) over-admit with them; (0.95, 0.9) is the measured sweet spot
    on GSC+ (see BASELINE.md §Trained-weights eval)."""
    import os

    d = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trained")
    return d if os.path.exists(os.path.join(d, "l1.pt")) else None


def resolve_builtin(model_dir: str | None = None,
                    ner_path: str | None = None) -> tuple[str | None, str | None]:
    """Resolve the ``"builtin"`` sentinels to packaged asset paths.

    Entry points reach it through :func:`resolve_entry`.  Raises
    FileNotFoundError when a requested packaged asset is absent, or when
    an explicit ``model_dir`` is not a directory or an explicit
    ``ner_path`` is not a file — callers must fail loudly before any
    output is written, never silently degrade to dictionary-only output."""
    import os

    if model_dir == "builtin":
        d = trained_model_dir()
        if d is None:
            raise FileNotFoundError(
                "no packaged trained weights found (--model-dir builtin)")
        model_dir = d
    elif model_dir and not os.path.isdir(model_dir):
        raise FileNotFoundError(f"model dir not found: {model_dir}")
    if ner_path == "builtin":
        d = trained_model_dir()
        p = os.path.join(d, "ner.pt") if d else None
        if p is None or not os.path.exists(p):
            raise FileNotFoundError(
                "no packaged ner tagger found (--ner builtin)")
        ner_path = p
    elif ner_path and not os.path.isfile(ner_path):
        raise FileNotFoundError(f"ner tagger not found: {ner_path}")
    return model_dir, ner_path


def load_ontology(dict_path: str | None = None,
                  simplified_keys: bool = False) -> HpoDag:
    """The ontology an entry point annotates with:
    ``HpoDag(nodes, simplified_keys=simplified_keys)`` over the node table
    of ``dict_path``.  No path gives the built-in mini ontology; a
    ``.json`` path is a reference ``hpo.json`` (capitalized
    ``Name``/``Synonym``/``Is_a``/``Alt_id``) or an engine node table
    (lowercase fields, like the shipped ``assets/trained/DAG.json``); an
    ``.obo`` path is an OBO dump; any other path holds ``train.txt``-style
    ``phrase\\tHP:...`` pairs.  Raises ValueError, naming the file, when
    a ``.json`` is neither node format or when no phrase names a concept
    under the root, so nothing could ever be annotated."""
    if not dict_path:
        from .mini_hpo import mini_nodes

        nodes = mini_nodes()
    elif dict_path.endswith(".json"):
        nodes = _nodes_from_json(dict_path)
    elif dict_path.endswith(".obo"):
        nodes = _nodes_from_obo(dict_path)
    else:
        from ..sources.loaders import read_phrase_pairs

        nodes = _nodes_from_phrase_pairs(read_phrase_pairs(dict_path))
    dag = HpoDag(nodes, simplified_keys=simplified_keys)
    if dag.abnormality_nt.isdisjoint(dag.phrase2hpo.values()):
        raise ValueError(f"{dict_path}: the ontology has no phrase of a concept "
                         f"under {ROOT} to match")
    return dag


def resolve_entry(dict_path: str | None = None, model_dir: str | None = None,
                  ner_path: str | None = None, p1: float | None = None,
                  p2: float | None = None, *, simplified_keys: bool = False,
                  use_model_standins: bool = False, **cfg_fields):
    """``(dag, PipelineConfig)`` from an entry point's flags: the one
    set-up shared by the CLI (``__main__``), the HTTP server (``serve``)
    and the eval harness (``tools/eval_corpus``).

    Resolves the ``"builtin"`` sentinels and checks explicit weight paths
    first (FileNotFoundError before any ontology loads), then loads the
    ontology (:func:`load_ontology`).
    Thresholds left ``None`` take the reference defaults (0.8/0.6), or
    0.95/0.9 with ``model_dir="builtin"``: the packaged weights use the
    hashing embedding, not the reference's fastText, and over-admit at
    0.8/0.6 (see :func:`trained_model_dir`).  An explicit threshold always
    wins.  A model dir turns the model stages on; ``cfg_fields`` pass
    through to ``PipelineConfig``."""
    from ..config import PipelineConfig

    builtin = model_dir == "builtin"
    model_dir, ner_path = resolve_builtin(model_dir, ner_path)
    d1, d2 = (0.95, 0.9) if builtin else (PipelineConfig.param1,
                                         PipelineConfig.param2)
    cfg = PipelineConfig(
        param1=d1 if p1 is None else p1, param2=d2 if p2 is None else p2,
        use_model_standins=use_model_standins or bool(model_dir),
        model_dir=model_dir, ner_path=ner_path, **cfg_fields)
    return load_ontology(dict_path, simplified_keys), cfg
