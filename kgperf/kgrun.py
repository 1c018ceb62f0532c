"""KG workloads: transcript parquet -> ``pipelines.annotate.run_kg_job``.

``kg_chat`` runs the dictionary path (no scorer) over chat-shaped turns;
``kg_model`` runs the ``-m builtin`` scorer stack over unique note-shaped
turns.  Every timed job reads texts no earlier job of the session has seen,
so the per-worker annotation memo starts cold.
"""

from __future__ import annotations

import glob
import os
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

import gen
from benchutil import (
    MIN_DAG_PHRASES,
    Session,
    descendants,
    load_dag,
    load_scorer,
    median,
    model_config,
    peak_rss_mb,
    quantile,
)

TRIPLE_COLS = ["subj", "pred", "obj"]
# the warm-up spreads over more fragments than there are CPUs, so every
# worker loads the stage state before timing starts
WARMUP_FILES = 16
MAX_MEASURE_S = 100.0  # cap on the measuring window, whatever --seconds says


@dataclass
class KgPlan:
    turns: int           # turns per timed job
    warmup_turns: int    # turns of the untimed warm-up job
    replay_turns: int    # turns replayed in-process by the traced run
    files: int = 8       # size-capped parquet fragments per job
    shards: int = 4      # run_kg_job's num_shards (the CLI's --shards)
    setup_reps: int = 3
    min_jobs: int = 3    # timed jobs at least; accuracy is taken over exactly these
    gate_convs: int = 8  # per kind: straddling and other conversations


PLANS = {
    "kg_chat": KgPlan(turns=20000, warmup_turns=2000, replay_turns=5000),
    # one shard per job: its fragments are annotated in parallel on every
    # CPU, so the scorer, not per-shard pipeline start, fills the wall
    "kg_model": KgPlan(turns=96, warmup_turns=64, replay_turns=100, shards=1,
                       min_jobs=9),
}
GENERATORS = {"kg_chat": gen.chat_turns, "kg_model": gen.note_turns}


def _config(name: str):
    from phenobert_ray.config import PipelineConfig

    return model_config() if name == "kg_model" else PipelineConfig()


class _Jobs:
    """Generates each job's turns, writes them as input fragments and
    names the job's output directory."""

    def __init__(self, name: str, seed: int, lex, work: str, plan: KgPlan):
        self.make = GENERATORS[name]
        self.seed, self.lex, self.work, self.plan = seed, lex, work, plan
        self.next = 0

    def new(self, n_turns: int, n_files: int):
        job = self.next
        self.next += 1
        turns = self.make(self.seed, job, n_turns, self.lex)
        in_dir = os.path.join(self.work, f"in-{job}")
        files = gen.write_fragments(turns, in_dir, n_files)
        return turns, in_dir, files, os.path.join(self.work, f"out-{job}")

    def drop(self, *dirs: str) -> None:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)


def read_has_phenotype(out_dir: str) -> tuple[int, set]:
    """(has_phenotype rows, distinct (conv_id, hpo_id) pairs)."""
    rows, pairs = 0, set()
    for f in sorted(glob.glob(os.path.join(out_dir, "shard=*", "*.parquet"))):
        t = pq.read_table(f, columns=TRIPLE_COLS)
        for subj, pred, obj in zip(*(t.column(c).to_pylist() for c in TRIPLE_COLS)):
            if pred == "has_phenotype":
                rows += 1
                pairs.add((subj.rsplit(":", 1)[0], obj))
    return rows, pairs


def _gate(report, turns, pairs: set, files: int, dag, scorer, cfg, plan) -> None:
    """Output pairs of a fixed conversation sample, fragment-straddling
    ones included, must equal an in-process ``annotate_text`` recompute."""
    from phenobert_ray.linker import annotate_text

    strad = sorted(gen.straddling(turns, files))
    others = [c for c in sorted(turns.gold) if c not in set(strad)]
    sample = set(strad[:plan.gate_convs] + others[:plan.gate_convs])
    want: set = set()
    for conv, text in zip(turns.conv_id, turns.text):
        if conv in sample and text is not None:
            want.update(
                (conv, a.hpo_id)
                for a in annotate_text(text, dag, scorer=scorer,
                                       use_longest=cfg.use_longest)
                if not (a.negated and cfg.triples_drop_negated))
    got = {p for p in pairs if p[0] in sample}
    if got != want:
        report.fail_gate(
            f"{len(sample)} sampled conversations: {len(got - want)} pairs "
            f"not recomputed in-process, {len(want - got)} missing")
    report.info["gate"] = {"conversations": len(sample),
                           "straddling": len(strad[:plan.gate_convs]),
                           "pairs": len(want)}


def _check_phrases(report, dag) -> None:
    n = len(dag.phrase2hpo)
    report.info["dag_phrases"] = n
    if n < MIN_DAG_PHRASES:
        report.fail_gate(f"ontology loaded {n} phrases < {MIN_DAG_PHRASES}")


def _run_job(report, jobs: _Jobs, n_turns: int, n_files: int, dag, cfg):
    """One KG job; returns (turns, files, out_dir, wall) or None if the
    job raised or lost a shard.  Failures are counted, never raised."""
    from phenobert_ray.pipelines.annotate import run_kg_job

    turns, in_dir, files, out_dir = jobs.new(n_turns, n_files)
    report.attempted += 1
    t0 = time.perf_counter()
    try:
        stats = run_kg_job(in_dir, out_dir, dag, cfg, num_shards=jobs.plan.shards)
    except Exception as e:  # a raised job is a failed operation
        report.failed += 1
        report.info.setdefault("errors", []).append(f"{type(e).__name__}: {e}")
        jobs.drop(in_dir, out_dir)
        return None
    wall = time.perf_counter() - t0
    expect = min(jobs.plan.shards, len(files))
    if stats.get("shards_run", 0) != expect:
        report.failed += 1
        report.info.setdefault("errors", []).append(
            f"shards run {stats.get('shards_run')} of {expect}")
        jobs.drop(in_dir, out_dir)
        return None
    jobs.drop(in_dir)
    return turns, files, out_dir, wall


def _warm_up(report, jobs: _Jobs, plan: KgPlan, dag, cfg) -> None:
    if plan.warmup_turns:
        warm = _run_job(report, jobs, plan.warmup_turns, WARMUP_FILES, dag, cfg)
        if warm:
            jobs.drop(warm[2])


def run(name: str, seed: int, seconds: int, root: str, work: str, report,
        import_s: float, plan: KgPlan | None = None) -> None:
    plan = plan or PLANS[name]
    cfg = _config(name)
    sess = Session(root)
    try:
        samples = []
        for r in range(plan.setup_reps):
            if r:
                sess.shutdown()
            t0 = time.perf_counter()
            sess.init()
            dag = load_dag(root)
            scorer = load_scorer(dag, cfg) if cfg.model_dir else None
            samples.append(time.perf_counter() - t0)
        report.put("setup_s", import_s + median(samples), "s", len(samples))
        report.info["setup_samples_s"] = samples
        _check_phrases(report, dag)

        jobs = _Jobs(name, seed, gen.Lexicon(dag, root), work, plan)
        _warm_up(report, jobs, plan, dag, cfg)

        walls, rates, dups = [], [], []
        tp = n_pred = n_gold = 0
        first = None
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            # past min_jobs, start no job that would end after the window
            if elapsed >= MAX_MEASURE_S or (
                    len(walls) >= plan.min_jobs and elapsed + median(walls) > seconds):
                break
            done = _run_job(report, jobs, plan.turns, plan.files, dag, cfg)
            if done is None:
                continue
            turns, files, out_dir, wall = done
            rows, pairs = read_has_phenotype(out_dir)
            jobs.drop(out_dir)
            first = first or (turns, pairs)
            walls.append(wall)
            rates.append(len(turns) / wall)
            # counts over exactly min_jobs jobs repeat for a seed
            if len(walls) <= plan.min_jobs:
                dups.append(rows - len(pairs))
                gold = {(c, h) for c, hs in turns.gold.items() for h in hs}
                tp += len(pairs & gold)
                n_pred += len(pairs)
                n_gold += len(gold)
        pids = [os.getpid()] + descendants(os.getpid())
        report.put("peak_rss_mb", peak_rss_mb(pids), "MB", len(pids))
        if walls:
            report.put("turns_per_s", median(rates), "1/s", len(rates))
            report.put("req_p50_ms", 1000 * median(walls), "ms", len(walls))
            report.put("req_p99_ms", 1000 * quantile(walls, 0.99), "ms", len(walls))
            report.put("req_per_s", len(walls) / sum(walls), "1/s", len(walls))
            report.put("dup_triples", sum(dups), "count", len(dups))
            report.put_accuracy(tp, n_pred, n_gold, min(len(walls), plan.min_jobs))
        if first:
            _gate(report, *first, plan.files, dag, scorer, cfg, plan)
            props = gen.properties(first[0])
            props["straddling_conversations"] = len(gen.straddling(first[0], plan.files))
            report.info["workload_properties"] = props
        report.info.update({"turns_per_job": plan.turns, "job_walls_s": walls,
                            "dup_triples_per_job": dups})
    finally:
        sess.close()


# ---------------------------------------------------------------- traced run


def _turn_batches(turns, size: int) -> list[pa.Table]:
    """The turns a job reads, after the read-boundary null drop, in
    ``map_batches``-sized Arrow batches."""
    keep = [i for i, t in enumerate(turns.text) if t is not None]
    table = pa.table({
        "conv_id": pa.array([turns.conv_id[i] for i in keep], pa.string()),
        "turn_idx": pa.array([turns.turn_idx[i] for i in keep], pa.int32()),
        "text": pa.array([turns.text[i] for i in keep], pa.string()),
    })
    return [table.slice(i, size) for i in range(0, table.num_rows, size)]


# per-layer time metric -> span of the staged run; together they cover a job
STAGE_SPANS = {
    "sources.read_s": "sources.read",
    "stages.annotate.op_s": "stages.annotate.op",
    "pipelines.triples.dedup_s": "pipelines.triples.dedup",
    "pipelines.triples.is_a_s": "pipelines.triples.is_a",
    "state.sharded.write_s": "state.sharded.write",
    "state.sharded.content_hash_s": "state.sharded.content_hash",
    "state.manifest.write_s": "state.manifest.write",
}


def _staged(tr, report, files: list[str], shards: int, out_dir: str, dag, cfg) -> dict:
    """The stages of one ``run_kg_job``, each materialized in turn per
    shard, with the sink's content hash and manifest write."""
    import ray

    from phenobert_ray.pipelines.annotate import shard_fragments
    from phenobert_ray.pipelines.triples import has_phenotype_triples, is_a_triples
    from phenobert_ray.stages.annotate import annotate_turns
    from phenobert_ray.stages.shuffle import drop_null_rows
    from phenobert_ray.state.manifest import write_manifest
    from phenobert_ray.state.sharded import shard_content_hash

    c = {"rows_in": 0, "rows_kept": 0, "annotations": 0, "triples": 0}
    stats: dict[str, str] = {}
    with tr.span("pipelines.triples.is_a"):
        is_a_triples(dag).write_parquet(os.path.join(out_dir, "ontology"))
    specs = shard_fragments(files, min(shards, len(files)))
    for k, (paths, _, _) in enumerate(specs):
        c["rows_in"] += sum(pq.ParquetFile(p).metadata.num_rows for p in paths)
        with tr.span("sources.read"):
            turns = drop_null_rows(ray.data.read_parquet(paths),
                                   columns=["conv_id", "turn_idx", "text"]).materialize()
        with tr.span("stages.annotate.op"):
            ann = annotate_turns(turns, dag, cfg).materialize()
        with tr.span("pipelines.triples.dedup"):
            tri = has_phenotype_triples(ann, cfg).materialize()
        shard_dir = os.path.join(out_dir, f"shard={k}")
        with tr.span("state.sharded.write"):
            tri.write_parquet(shard_dir)
        os.makedirs(shard_dir, exist_ok=True)
        with tr.span("state.sharded.content_hash"):
            rows, digest = shard_content_hash(shard_dir, TRIPLE_COLS)
        with tr.span("state.manifest.write"):
            write_manifest(out_dir, k, paths, rows, digest)
        c["rows_kept"] += turns.count()
        c["annotations"] += ann.count()
        c["triples"] += tri.count()
        if k == 0:
            stats = {"read_parquet": turns.stats(), "annotate_turns": ann.stats(),
                     "has_phenotype_triples": tri.stats()}
    c["shards"] = len(specs)
    report.info["ds_stats_shard0"] = stats
    return c


def run_traced(name: str, seed: int, root: str, work: str, report,
               plan: KgPlan | None = None) -> None:
    import layers
    from spans import Tracer

    from phenobert_ray import standins
    from phenobert_ray.stages.annotate import AnnotateTurns

    plan = plan or PLANS[name]
    cfg = _config(name)
    sess = Session(root)
    tr = Tracer()
    try:
        with tr.span("ray.init"):
            sess.init()
        with tr.span("assets.dag_load"):
            dag = load_dag(root)
        _check_phrases(report, dag)
        # the scorer loads where the pipeline loads it: in the stage's state
        tr.wrap(standins, "load_torch_scorer", "standins.load_scorer")
        try:
            stage = AnnotateTurns(dag, cfg)
        finally:
            tr.restore()
        jobs = _Jobs(name, seed, gen.Lexicon(dag, root), work, plan)
        _warm_up(report, jobs, plan, dag, cfg)

        done = _run_job(report, jobs, plan.turns, plan.files, dag, cfg)
        e2e_wall = None
        if done:
            turns, files, out_dir, e2e_wall = done
            _, pairs = read_has_phenotype(out_dir)
            _gate(report, turns, pairs, plan.files, dag, stage.scorer, cfg, plan)
            jobs.drop(out_dir)

        turns, in_dir, files, out_dir = jobs.new(plan.turns, plan.files)
        report.attempted += 1
        try:
            c = _staged(tr, report, files, plan.shards, out_dir, dag, cfg)
        except Exception as e:
            report.failed += 1
            report.info.setdefault("errors", []).append(f"{type(e).__name__}: {e}")
            c = None
        jobs.drop(in_dir, out_dir)

        replay = jobs.make(seed, jobs.next, plan.replay_turns, jobs.lex)
        batches = _turn_batches(replay, cfg.annotate_batch_size)
        layers.replay_kg(tr, report, stage, batches)

        if c is not None:
            for metric, span in STAGE_SPANS.items():
                report.put(metric, tr.total[span], "s", tr.calls[span])
            report.put("sources.rows_in", c["rows_in"], "count")
            report.put("sources.rows_dropped", c["rows_in"] - c["rows_kept"], "count")
            report.put("pipelines.triples.rows_in", c["annotations"], "count")
            report.put("pipelines.triples.triples", c["triples"], "count")
            report.put("pipelines.triples.dedup_ratio",
                       c["triples"] / max(1, c["annotations"]), "ratio")
            report.put("state.sharded.shards", c["shards"], "count")
            staged_s = sum(tr.total[span] for span in STAGE_SPANS.values())
            report.put("trace.staged_s", staged_s, "s")
            if e2e_wall is not None:
                report.put("trace.e2e_s", e2e_wall, "s")
                report.put("trace.unaccounted_s", e2e_wall - staged_s, "s")
        report.put("ray.init_s", tr.total["ray.init"], "s")
        report.put("assets.dag_load_s", tr.total["assets.dag_load"], "s")
        report.put("assets.dag_phrases", len(dag.phrase2hpo), "count")
        report.put("standins.load_scorer_s", tr.total["standins.load_scorer"], "s",
                   tr.calls["standins.load_scorer"])
    finally:
        tr.restore()
        sess.close()
