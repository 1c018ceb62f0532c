"""Per-layer breakdown of the annotate kernel by in-process replay.

The replay wraps public module attributes of the engine for its duration:
``stages.annotate.annotate_text``; ``linker.canonicalize_for_segmentation``,
``linker.generate_candidates``, ``linker.dict_link`` and
``linker.resolve_overlaps``; ``candidates.generate_segments`` (imported at
call time by the dictionary fast path); the scorer's ``__call__``, the BERT
matcher's ``best_match`` and ``NerTagger.predict_segments``.  Counting runs
outside the spans; k-mers are counted after the replay from the recorded
segments, the way ``generate_candidates`` enumerates them.
"""

from __future__ import annotations

import time

from spans import Tracer


class KernelCounts:
    def __init__(self):
        self.segment_lists: list = []
        self.dict_link_hits = 0
        self.survivors = 0
        self.overlap_in = 0
        self.overlap_out = 0
        self.scorer_cands = 0
        self.scorer_accepted = 0
        self.ner_segments = 0

    def after_dict_link(self, args, result) -> None:
        self.dict_link_hits += len(result[0])
        self.survivors += len(result[1])

    def after_overlaps(self, args, result) -> None:
        self.overlap_in += len(args[0])
        self.overlap_out += len(result)

    def after_scorer(self, args, result) -> None:
        self.scorer_cands += len(args[1])
        self.scorer_accepted += len(result)

    def after_ner(self, args, result) -> None:
        self.ner_segments += len(result)

    def kmers(self) -> tuple[int, int, int]:
        """(segments, k-mers, k-mers whose token tuple was seen before)."""
        from phenobert_ray.candidates import MAX_KMER
        from phenobert_ray.textops import is_num

        seen: set = set()
        segments = kmers = dup = 0
        for segs in self.segment_lists:
            segments += len(segs)
            for seg in segs:
                toks = [t.text for t in seg.simple]
                n = len(toks)
                joined = " ".join(toks)
                if n == 0 or is_num(joined) or len(joined) <= 1:
                    continue
                for i in range(n):
                    for j in range(i + 1, min(i + MAX_KMER, n) + 1):
                        key = tuple(toks[i:j])
                        kmers += 1
                        dup += key in seen
                        seen.add(key)
        return segments, kmers, dup


def install(tr: Tracer, counts: KernelCounts, scorer=None, ner=None) -> None:
    from phenobert_ray import candidates, linker
    from phenobert_ray.stages import annotate as stage_mod

    tr.wrap(stage_mod, "annotate_text", "linker.annotate")
    tr.wrap(linker, "canonicalize_for_segmentation", "textops.canonicalize")
    tr.wrap(linker, "generate_candidates", "candidates.kmers")
    tr.wrap(candidates, "generate_segments", "candidates.segments",
            after=lambda a, r: counts.segment_lists.append(r))
    tr.wrap(linker, "dict_link", "linker.dict_link", after=counts.after_dict_link)
    tr.wrap(linker, "resolve_overlaps", "linker.resolve_overlaps",
            after=counts.after_overlaps)
    if scorer is not None:
        tr.wrap(type(scorer), "__call__", "models_np.scorer", after=counts.after_scorer)
        if getattr(scorer, "bert", None) is not None:
            tr.wrap(type(scorer.bert), "best_match", "bert_np.match")
    if ner is not None:
        tr.wrap(type(ner), "predict_segments", "ner_np.predict", after=counts.after_ner)


def put_kernel(report, tr: Tracer, counts: KernelCounts, dictionary_only: bool) -> None:
    segments, kmers, dup = counts.kmers()
    # the dictionary-only fast path probes without dict_link: every result
    # it hands to overlap resolution is a dictionary hit
    hits = counts.overlap_in if dictionary_only else counts.dict_link_hits
    n_text = tr.calls["linker.annotate"]
    put = report.put
    put("textops.canonicalize_s", tr.total["textops.canonicalize"], "s", n_text)
    put("candidates.segments_s", tr.total["candidates.segments"], "s",
        tr.calls["candidates.segments"])
    put("candidates.segments", segments, "count")
    put("candidates.kmers", kmers, "count")
    put("candidates.kmers_s", tr.self_time["candidates.kmers"], "s",
        tr.calls["candidates.kmers"])
    put("candidates.dup_kmer_share", dup / max(1, kmers), "ratio", kmers)
    put("linker.annotate_self_s", tr.self_time["linker.annotate"], "s", n_text)
    put("linker.dict_link_s", tr.total["linker.dict_link"], "s", tr.calls["linker.dict_link"])
    put("linker.dict_hits", hits, "count")
    put("linker.dict_hit_ratio", hits / max(1, kmers), "ratio", kmers)
    put("linker.survivors", counts.survivors, "count")
    put("linker.resolve_overlaps_s", tr.total["linker.resolve_overlaps"], "s",
        tr.calls["linker.resolve_overlaps"])
    put("linker.overlap_keep_ratio", counts.overlap_out / max(1, counts.overlap_in),
        "ratio", counts.overlap_in)
    put("models_np.scorer_self_s", tr.self_time["models_np.scorer"], "s",
        tr.calls["models_np.scorer"])
    put("models_np.calls", tr.calls["models_np.scorer"], "count")
    put("models_np.cands_in", counts.scorer_cands, "count")
    put("models_np.accept_ratio", counts.scorer_accepted / max(1, counts.scorer_cands),
        "ratio", counts.scorer_cands)
    put("bert_np.match_s", tr.total["bert_np.match"], "s", tr.calls["bert_np.match"])
    put("bert_np.calls", tr.calls["bert_np.match"], "count")
    put("ner_np.predict_s", tr.total["ner_np.predict"], "s", tr.calls["ner_np.predict"])
    put("ner_np.segments", counts.ner_segments, "count")


def _overhead(report, untraced_s: float, traced_s: float) -> None:
    report.put("trace.untraced_s", untraced_s, "s")
    report.put("trace.traced_s", traced_s, "s")
    report.put("trace.overhead_s", traced_s - untraced_s, "s")


def replay_kg(tr: Tracer, report, stage, batches) -> None:
    """Replay batches through an in-process ``AnnotateTurns``: a short
    warm pass, an untraced pass and a traced pass, each from a cold memo."""
    for b in batches[:max(1, len(batches) // 4)]:
        stage(b)
    stage.memo.clear()
    t0 = time.perf_counter()
    for b in batches:
        stage(b)
    untraced = time.perf_counter() - t0
    stage.memo.clear()

    counts = KernelCounts()
    install(tr, counts, stage.scorer, stage.ner)
    rows = negated = turns = 0
    t0 = time.perf_counter()
    try:
        for b in batches:
            with tr.span("stages.annotate.batch"):
                out = stage(b)
            turns += b.num_rows
            rows += out.num_rows
            negated += sum(out.column("negated").to_pylist())
    finally:
        tr.restore()
    traced = time.perf_counter() - t0
    _overhead(report, untraced, traced)
    put_kernel(report, tr, counts, dictionary_only=stage.scorer is None)
    report.put("stages.annotate.batch_self_s", tr.self_time["stages.annotate.batch"], "s",
               tr.calls["stages.annotate.batch"])
    report.put("stages.annotate.memo_hit_ratio",
               1 - tr.calls["linker.annotate"] / max(1, turns), "ratio", turns)
    report.put("stages.annotate.annotations", rows, "count")
    report.put("stages.annotate.negated", negated, "count")


def replay_texts(tr: Tracer, report, texts: list[str], dag, scorer, ner) -> list[float]:
    """Replay texts through ``linker.annotate_text`` as the server calls
    it; returns the untraced per-text latencies in seconds."""
    from phenobert_ray import linker

    for t in texts[:max(1, len(texts) // 4)]:
        linker.annotate_text(t, dag, scorer=scorer, ner=ner)
    lat = []
    for t in texts:
        t0 = time.perf_counter()
        linker.annotate_text(t, dag, scorer=scorer, ner=ner)
        lat.append(time.perf_counter() - t0)

    counts = KernelCounts()
    install(tr, counts, scorer, ner)
    t0 = time.perf_counter()
    try:
        for t in texts:
            with tr.span("linker.annotate"):
                linker.annotate_text(t, dag, scorer=scorer, ner=ner)
    finally:
        tr.restore()
    _overhead(report, sum(lat), time.perf_counter() - t0)
    put_kernel(report, tr, counts, dictionary_only=scorer is None)
    return lat
