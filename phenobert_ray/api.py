"""Public API parity layer (reference api.py:28-156).

Re-exposes the reference's four public functions over the same engine
stages the Ray pipeline uses.  State (ontology + stand-in models) loads
once per process, like the reference's import-time globals (api.py:18-24)
but lazily.
"""

from __future__ import annotations

from functools import lru_cache

from .assets.hpo_dag import HpoDag
from .config import PipelineConfig
from .linker import annotate_text as _annotate, tsv_line
from .standins import StandInScorer, _EmbeddingCache
from .textops import process_str


@lru_cache(maxsize=1)
def _default_state() -> tuple[HpoDag, StandInScorer]:
    from .assets.loader import load_ontology

    dag = load_ontology()
    return dag, StandInScorer(dag, PipelineConfig())


def annotate_text(text: str, dag: HpoDag | None = None, use_standins: bool = False,
                  as_tsv: bool = False, **kwargs):
    """Reference ``annotate_text`` (api.py:28-39): free text → annotations.

    as_tsv=True returns the reference's TSV string format
    ``start\\tend\\tmention\\thpo\\tscore[\\tNeg]`` (util.py:1199-1209)."""
    if dag is None:
        dag, cached_scorer = _default_state()
        scorer = cached_scorer if use_standins else None
    else:
        scorer = StandInScorer(dag) if use_standins else None
    anns = _annotate(text, dag, scorer=scorer, **kwargs)
    return "".join(tsv_line(**vars(a)) for a in anns) if as_tsv else anns


def get_L1_HPO_term(phrases: list[str], dag: HpoDag | None = None) -> list[list[str]]:
    """Reference ``get_L1_HPO_term`` (api.py:42-66): per phrase, the L1
    subtree roots the router accepts."""
    if dag is None:
        dag, scorer = _default_state()
    else:
        scorer = StandInScorer(dag)
    return [scorer.route_l1(scorer.emb.phrase(process_str(p))) for p in phrases]


def get_most_related_HPO_term(phrases: list[str], dag: HpoDag | None = None) -> list[str]:
    """Reference ``get_most_related_HPO_term`` (api.py:69-124): per phrase,
    the single best concept (dictionary first, then the scorer chain);
    'None' when nothing clears the thresholds."""
    if dag is None:
        dag, scorer = _default_state()
    else:
        scorer = StandInScorer(dag)
    out = []
    for p in phrases:
        hit = dag.match_phrase(p)
        if hit and dag.in_abnormality(hit):
            out.append(hit)
            continue
        vec = scorer.emb.phrase(process_str(p))
        best, best_s = "None", 0.0
        for l1 in scorer.route_l1(vec):
            for hpo, s in scorer.subtree_candidates(vec, l1):
                m = scorer.match_score(vec, hpo)
                if m >= scorer.cfg.param3 and m > best_s:
                    best, best_s = hpo, m
        out.append(best)
    return out


def is_phrase_match_BERT(phrase1: str, phrase2: str, dag: HpoDag | None = None) -> int:
    """Reference ``is_phrase_match_BERT`` (api.py:127-156): 3-class match
    label for a phrase pair — 2 exact/synonym, 1 related, 0 unrelated."""
    if dag is None:
        dag, scorer = _default_state()
    else:
        scorer = StandInScorer(dag)
    e = _EmbeddingCache()
    v1 = e.phrase(process_str(phrase1))
    v2 = e.phrase(process_str(phrase2))
    cos = float(v1 @ v2)
    if cos >= scorer.cfg.param3:
        return 2
    if cos >= 0.5:
        return 1
    return 0
