"""HPO ontology DAG asset (reference HPOTree, util.py:283-575).

Built once on the driver from a node table, pickled/``ray.put`` into the
object store, and loaded by every stateful actor in ``__init__`` — it is
broadcast state, never shuffled (SURVEY.md §2.5).

Node input format: ``{hpo_id: {"name": [..], "synonym": [..],
"alt_id": [..], "is_a": [..], "def": str}}`` — the same information content
as the reference's ``data/hpo.json`` (node schema at util.py:27-44).
``assets.loader.load_ontology`` turns every ontology format into it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from ..textops import bag_key, lemma_bag_key, process_str, simplify

ROOT = "HP:0000118"  # "Phenotypic abnormality" (util.py:296)


@dataclass
class HpoDag:
    """Immutable DAG view rooted at HP:0000118 + phrase dictionary.

    Mirrors the reference HPOTree surface (util.py:283-349):
    sorted concept list, hpo2idx, alt-ID map, sorted-token-bag phrase
    dictionary, L1 layer (direct sons of the root), BFS min-depth table,
    full ancestor/descendant closures.

    ``phrase2hpo`` holds the reference key (util.py:324-327) of every name
    and synonym.  ``simplified_keys=True`` then adds each one's simplified
    bag (``textops.simplify``: stopwords and numbers dropped, digits turned
    into number words — what a candidate's tokens go through), nodes in
    order, names before synonyms: the first such bag wins, and none
    replaces a reference key.  It reaches phrases whose reference key
    holds a stopword no candidate can carry; False keeps strict reference
    Step-1 parity.
    """

    nodes: dict[str, dict]
    root: str = ROOT
    simplified_keys: InitVar[bool] = False
    # derived:
    parents: dict[str, set] = field(default_factory=dict)
    children: dict[str, set] = field(default_factory=dict)
    ancestors: dict[str, set] = field(default_factory=dict)      # transitive, excl self
    descendants: dict[str, set] = field(default_factory=dict)    # transitive, excl self
    abnormality: set = field(default_factory=set)       # HP:0000118 subtree incl root
    abnormality_nt: set = field(default_factory=set)    # subtree excl root
    hpo_list: list = field(default_factory=list)
    hpo2idx: dict[str, int] = field(default_factory=dict)
    layer1: list = field(default_factory=list)
    hpo2idx_l1: dict[str, int] = field(default_factory=dict)
    alt_id: dict[str, str] = field(default_factory=dict)
    phrase2hpo: dict[str, str] = field(default_factory=dict)
    depth: dict[str, int] = field(default_factory=dict)
    name_of: dict[str, str] = field(default_factory=dict)

    def __post_init__(self, simplified_keys: bool) -> None:
        self.parents = {h: set(n.get("is_a", ())) for h, n in self.nodes.items()}
        self.children = {h: set() for h in self.nodes}
        for h, ps in self.parents.items():
            for p in ps:
                if p in self.children:
                    self.children[p].add(h)

        self.descendants = self._closure(self.children)
        self.ancestors = self._closure(self.parents)

        self.abnormality_nt = set(self.descendants.get(self.root, set()))
        self.abnormality = self.abnormality_nt | {self.root}
        self.hpo_list = sorted(self.abnormality)
        self.hpo2idx = {h: i for i, h in enumerate(self.hpo_list)}
        self.layer1 = sorted(self.children.get(self.root, set()))
        self.hpo2idx_l1 = {h: i for i, h in enumerate(self.layer1)}

        for h, n in self.nodes.items():
            for a in n.get("alt_id", ()):
                self.alt_id[a] = h
            names = n.get("name", [])
            self.name_of[h] = names[0] if names else h
            for phrase in set(list(names) + list(n.get("synonym", ()))):
                self.phrase2hpo[bag_key(process_str(phrase))] = h
        if simplified_keys:
            for h, n in self.nodes.items():
                for phrase in [*n.get("name", ()), *n.get("synonym", ())]:
                    simp = simplify(process_str(phrase))
                    if simp:
                        self.phrase2hpo.setdefault(bag_key(simp), h)

        # BFS min-depth from root (util.py:329-349); multi-parent nodes get
        # their minimum depth.
        self.depth = {}
        q, seen, d = {self.root}, {self.root}, 0
        while q:
            nxt = set()
            for node in q:
                self.depth[node] = d
                for c in self.children.get(node, ()):
                    if c not in seen:
                        seen.add(c)
                        nxt.add(c)
            q = nxt
            d += 1

        # cheap content fingerprint — used as the per-worker broadcast-cache
        # key so re-broadcasting the same ontology (new ObjectRef, e.g. one
        # per pipeline) does not force a re-deserialize per worker
        self.refresh_fingerprint()

    def __getstate__(self) -> dict:
        # the driver's is_a table (pipelines.triples.is_a_table, ~1 MB
        # pickled) and the dictionary kernel's index (linker._kernel_index,
        # built on a process's first probe) stay out of the broadcast: no
        # worker reads the first, and each builds the second itself
        state = self.__dict__.copy()
        state.pop("_is_a", None)
        state.pop("_kernel_idx", None)
        return state

    def refresh_fingerprint(self) -> None:
        """Recompute after any post-construction dictionary mutation.
        Full-content hash: the resume machinery
        (``pipelines.annotate._job_identity``) folds this into
        every fragment's identity, so two ontologies that differ in ANY
        phrase mapping or is_a edge must never collide (a changed ontology
        on a reused out_dir must invalidate every fragment).  Also refreshes the derived
        phrase-dict indexes (vocab prune set, max window length): a
        mutated dictionary with a stale vocab would silently never match
        the added phrases in the fast probe path."""
        self.max_phrase_tokens = max(
            (len(k.split()) for k in self.phrase2hpo), default=0
        )
        # token vocabulary across all dictionary keys: a window can only
        # bag-match if EVERY one of its tokens is in this set (pruning index
        # for the fast dict-probe path)
        self.phrase_vocab = {t for k in self.phrase2hpo for t in k.split()}
        import hashlib as _hl

        h = _hl.blake2b(digest_size=8)
        h.update(f"{len(self.nodes)}|{len(self.phrase2hpo)}|{self.max_phrase_tokens}".encode())
        for k in sorted(self.phrase2hpo):
            h.update(k.encode())
            v = self.phrase2hpo[k]
            h.update(str(sorted(v) if isinstance(v, (set, frozenset)) else v).encode())
        for n in sorted(self.parents):
            h.update(n.encode())
            h.update("|".join(sorted(self.parents[n])).encode())
        self.fingerprint = h.hexdigest()

    @staticmethod
    def _closure(edges: dict[str, set]) -> dict[str, set]:
        out: dict[str, set] = {}

        def visit(h: str) -> set:
            if h in out:
                return out[h]
            out[h] = set()  # cycle guard; real ontology is acyclic
            acc = set()
            for nb in edges.get(h, ()):
                acc.add(nb)
                acc |= visit(nb)
            out[h] = acc
            return acc

        for h in edges:
            visit(h)
        return out

    # ---- reference API parity --------------------------------------------
    def canonical(self, hpo: str) -> str:
        """alt-ID canonicalization, L9 (util.py:308,319-323)."""
        return self.alt_id.get(hpo, hpo)

    def match_phrase(self, phrase: str) -> str:
        """Exact dictionary match on the sorted-token-bag key, with a
        lemmatized fallback (reference matchPhrase2HPO, util.py:409-421)."""
        toks = process_str(phrase)
        hit = self.phrase2hpo.get(bag_key(toks), "")
        if hit:
            return hit
        return self.phrase2hpo.get(lemma_bag_key(toks), "")

    def in_abnormality(self, hpo: str) -> bool:
        return hpo in self.abnormality_nt

    def lcs_depth(self, a: str, b: str) -> int:
        """Depth of the deepest common subsumer (util.py:465-494)."""
        ca = self.ancestors.get(a, set()) | {a}
        cb = self.ancestors.get(b, set()) | {b}
        common = (ca & cb) & self.abnormality
        if not common:
            return 0
        return max(self.depth.get(h, 0) for h in common)

    def node_sim(self, a: str, b: str) -> float:
        """Edge-based node similarity 2*depth(LCS)/(d(a)+d(b))
        (util.py:465-494)."""
        if a == b:
            return 1.0
        da, db = self.depth.get(a), self.depth.get(b)
        if da is None or db is None or (da + db) == 0:
            return 0.0
        return 2.0 * self.lcs_depth(a, b) / (da + db)

    def set_sim(self, pred: set, gold: set) -> float:
        """Max-matching set-vs-set ontology similarity, faithful to the
        reference getHPO_set_similarity_max (util.py:504-537): elements
        present in BOTH sets are skipped; each remaining element contributes
        its best-match shortfall ``1 - max node_sim``; the score is
        ``1 - total_shortfall / |pred ∪ gold|``."""
        if not pred or not gold:
            return 1.0 if pred == gold else 0.0
        total = 0.0
        for s in pred:
            if s in gold:
                continue
            total += 1.0 - max(self.node_sim(s, d) for d in gold)
        for s in gold:
            if s in pred:
                continue
            total += 1.0 - max(self.node_sim(s, d) for d in pred)
        return 1.0 - total / len(pred | gold)

    def is_a_edges(self) -> list[tuple[str, str]]:
        """Direct (child, parent) edges within the abnormality subtree —
        the KG's ``is_a`` triple source."""
        out = []
        for h in sorted(self.abnormality):
            for p in sorted(self.parents.get(h, ())):
                if p in self.abnormality:
                    out.append((h, p))
        return out
