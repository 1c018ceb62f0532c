"""Benchmark harness for the phenotype KG pipeline.

Default mode: runs the headline KG build over ``$GRAFT_SF_DIR`` (default:
the sf0.1 testdata directory) plus per-query timings under
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS or the CPUs this
process may run on)`` and prints ONE JSON line::

    {"metric": ..., "value": <total sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "turns": T, "turns_per_sec": R}

``--scaling``: runs the headline KG pipeline in fresh subprocesses at
num_cpus=N/4 and num_cpus=N (N = the CPU count above) on the same input
and reports both throughputs plus scaling efficiency
= (T_lo/T_hi)/(hi/lo).  Exits nonzero when N < 2 (nothing to compare).

``--<name>-scale`` (``--index-scale``, ``--skew-scale``; see
``scale_flags`` in :func:`main`): closed-form long-haul regressions,
each sized by its own ``$GRAFT_*`` variable; each prints one JSON line
and exits nonzero when the distributed validation fails.

The turns table is amplified ``$GRAFT_BENCH_REPLICATE`` × (default 20) by
replicating the documents table with offset doc_ids — deterministic, so
every run sees the identical workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _sf_dir() -> str:
    return os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _cpus() -> int:
    return int(os.environ.get("RAY_GRAFT_CPUS",
                              str(len(os.sched_getaffinity(0)))))


def _host_stamp() -> dict:
    """The host and versions a result was measured on: CPUs of the
    affinity mask, ``os.cpu_count()``, ``OMP_NUM_THREADS``, memory,
    Ray/pyarrow/numpy versions, the checkout's git SHA and whether the
    checkout has uncommitted changes (``git_dirty``)."""
    import platform

    import numpy
    import pyarrow
    import ray

    mem_mb = None
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) // 1024

    def git(*args: str) -> str | None:
        try:
            r = subprocess.run(
                ["git", *args], capture_output=True, text=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )
        except OSError:
            return None
        return r.stdout if r.returncode == 0 else None

    sha = (git("rev-parse", "HEAD") or "").strip() or None
    status = git("status", "--porcelain")
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status.strip()),
    }


def _replicate() -> int:
    return int(os.environ.get("GRAFT_BENCH_REPLICATE", "20"))


def _scaling_replicate() -> int:
    # the scaling levels need enough work to amortize session/exchange
    # startup at the top level (≥ 10s of steady-state), hence a larger
    # corpus
    return int(os.environ.get("GRAFT_SCALING_REPLICATE", "200"))


def amplified_turns(sf_dir: str, replicate: int):
    """documents ×R with offset doc_ids → turns (deterministic).

    Replica texts get a unique suffix token so the amplified corpus behaves
    like UNIQUE web data: without it the annotate stage's per-worker memo
    (a real optimization for genuinely-duplicated turns) trivializes the
    replicated benchmark and the numbers stop projecting to 10^12 unique
    turns."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from phenobert_ray.transcripts import synthesize_turns_batch

    OFFSET = 10_000_000

    def amplify(batch: pa.Table) -> pa.Table:
        parts = []
        for r in range(replicate):
            t = batch.set_column(
                0, "doc_id", pc.add(batch.column("doc_id"), r * OFFSET)
            )
            t = t.set_column(
                t.schema.get_field_index("text"),
                "text",
                pc.binary_join_element_wise(
                    t.column("text"), f"uniq{r}", " "
                ),
            )
            parts.append(t)
        return pa.concat_tables(parts)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # the base table is one small file → one block; split it BEFORE the
    # amplify/annotate fan-out so the actor pool actually has work units
    # (at 100 TB the input has thousands of fragments and this is a no-op)
    n_blocks = int(ray.cluster_resources().get("CPU", 8)) * 6
    ds = ds.repartition(n_blocks)
    if replicate > 1:
        ds = ds.map_batches(amplify, batch_format="pyarrow")
    return ds.map_batches(synthesize_turns_batch, batch_format="pyarrow")


def run_headline(sf_dir: str, replicate: int, passes: int = 3) -> dict:
    """The flagship KG build: ``run_kg_job`` over the amplified turns
    (annotate → per-shard dedup → triples → resumable parquet sink), one
    shard per pass.  The turns are written to parquet once, untimed; each
    pass builds the KG into a fresh out dir.  Returns timing + row counts."""
    import shutil

    import pyarrow.dataset as pads

    from phenobert_ray.assets.mini_hpo import mini_dag
    from phenobert_ray.pipelines.annotate import run_kg_job
    from phenobert_ray.stages.annotate import annotate_turns

    from phenobert_ray.config import PipelineConfig

    turns_dir, out = "/tmp/bench_turns", "/tmp/bench_triples"
    dag = mini_dag()
    # A/B-measured at 32 cpus on the earlier in-memory
    # amplify→synthesize→annotate chain (Ray bundles a fused chain by its
    # input rows): batch 128 (≈40 tasks) edged out 256 (≈20 tasks) 40-41k
    # vs 36-43k turns/s, while 52 (≈96 small tasks) LOST 25% to per-task
    # overhead — fewer, bigger tasks win once the kernel is fast.
    cfg = PipelineConfig(annotate_batch_size=128)
    # warmup: spin up worker processes + imports on every core so the
    # measurement reflects steady-state throughput, not cold start
    annotate_turns(amplified_turns(sf_dir, 1), dag, cfg).count()
    # one file per block of the amplified turns, so the read fans out
    shutil.rmtree(turns_dir, ignore_errors=True)
    amplified_turns(sf_dir, replicate).write_parquet(turns_dir)
    n_turns = pads.dataset(turns_dir).count_rows()
    # multi-pass: shared hosts show multi-x external CPU-pressure spikes.
    # The headline metric is the MEDIAN pass (robust to a single spike
    # without the optimistic bias of best-of-N); all samples are persisted
    # so readers can judge variance.
    # --scaling sets passes=1 (it already repeats whole child processes
    # per level).
    samples = []
    for _ in range(passes):
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.time()
        run_kg_job(turns_dir, out, dag, cfg, num_shards=1)
        samples.append(time.time() - t0)
    shutil.rmtree(turns_dir, ignore_errors=True)
    srt = sorted(samples)
    dt = srt[len(srt) // 2] if len(srt) % 2 else sum(srt[len(srt) // 2 - 1:len(srt) // 2 + 1]) / 2
    return {
        "sec": dt,
        "sec_min": min(samples),
        "samples": [round(s, 3) for s in samples],
        "turns": n_turns,
        "turns_per_sec": n_turns / dt,
    }


def run_queries(sf_dir: str) -> dict:
    """Secondary per-operator timings (un-amplified sf tables)."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as E

    picks = [
        "extract_mentions",
        "kg_triples",
        "inverted_index",
        "eval_micro",
        "hpo_ancestor_rollup",
        # OR index probe
        "index_search_or",
        "cooccurrence_pmi",
        "hpo_information_content",
    ]
    qs = E.queries()
    out = {}
    for name in picks:
        t0 = time.time()
        res = qs[name](sf_dir)
        # consume lazily-built datasets
        if hasattr(res, "count"):
            res.count()
        out[name] = round(time.time() - t0, 3)
    return out


def run_index_scale(n_convs: int) -> dict:
    """Inverted-index long-haul (S7/A5): sharded postings build + scalar
    rollup + distributed AND-search over a closed-form annotation corpus.

    Conv c carries 5 non-negated mentions {(c+j) % H, j=0..4} plus (odd c)
    one NEGATED mention of (c+7) % H — a DISTINCT hpo, so a broken
    negation filter inflates counts instead of hiding behind the
    (hpo, conv) dedup.  Closed forms with cnt(r) = C//H + (r < C%H):
    n_convs(h) = Σ_{j=0..4} cnt((h−j) mod H); Σ_h n_convs = 5C; the AND
    probe {HP:0, HP:1} matches exactly convs with c % H ∈
    {0, H−1, H−2, H−3}.  Postings are validated DISTRIBUTED (sorted,
    counted, membership-by-residue, shard key recomputed); only the
    H-row scalar table and the probe COUNT reach the driver."""
    import numpy as np
    import pyarrow as pa
    import ray

    from phenobert_ray.sources.inverted_index import (
        NUM_POSTING_SHARDS,
        build_inverted_index,
        index_scalars,
        search_convs_with_all,
    )

    H = 1000
    C = n_convs

    def gen(batch: pa.Table) -> pa.Table:
        c = batch.column("id").to_numpy()
        convs, hpos, negs = [], [], []
        for j in range(5):
            convs.append(c)
            hpos.append((c + j) % H)
            negs.append(np.zeros(len(c), dtype=bool))
        odd = c[c % 2 == 1]
        convs.append(odd)
        hpos.append((odd + 7) % H)
        negs.append(np.ones(len(odd), dtype=bool))
        cc = np.concatenate(convs)
        hh = np.concatenate(hpos)
        return pa.table(
            {
                "conv_id": pa.array(
                    np.char.add("conv-", cc.astype(str)), pa.string()
                ),
                "hpo_id": pa.array(
                    ["HP:%07d" % h for h in hh], pa.string()
                ),
                "negated": pa.array(np.concatenate(negs), pa.bool_()),
            }
        )

    anns = ray.data.range(C).map_batches(gen, batch_format="pyarrow")

    base, rem = divmod(C, H)

    def cnt(r: np.ndarray) -> np.ndarray:
        return base + (r < rem).astype(np.int64)

    t0 = time.time()
    idx = build_inverted_index(anns)

    def check_rows(b: pa.Table) -> pa.Table:
        import pandas as pd

        df = b.to_pandas()
        bad = 0
        total = 0
        for h, shard, n, convs in zip(
            df["hpo_id"], df["shard"], df["n_convs"], df["convs"]
        ):
            lst = list(convs)
            total += len(lst)
            if len(lst) != n or lst != sorted(set(lst)):
                bad += 1
                continue
            cs = np.array([int(x.split("-")[1]) for x in lst])
            # membership: (h − c) mod H must be in {0..4}
            hi = int(h.split(":")[1])
            if ((hi - cs) % H > 4).any():
                bad += 1
            sh = (pd.util.hash_pandas_object(
                pd.Series(lst), index=False) % NUM_POSTING_SHARDS).astype("int64")
            if (sh != shard).any():
                bad += 1
        return pa.table({"bad": pa.array([bad], pa.int64()),
                         "n": pa.array([total], pa.int64())})

    agg = idx.map_batches(check_rows, batch_format="pyarrow").sum(["bad", "n"])
    bad = int(agg["sum(bad)"])
    postings_total = int(agg["sum(n)"])
    t_build = time.time() - t0

    sc = index_scalars(anns).to_pandas()  # H rows — bounded
    hvals = np.array([int(h.split(":")[1]) for h in sc["hpo_id"]])
    expect_n = sum(cnt((hvals - j) % H) for j in range(5))
    scalars_ok = (len(sc) == H
                  and (sc["n_convs"].to_numpy() == expect_n).all())

    probe = search_convs_with_all(anns, ["HP:0000000", "HP:0000001"])

    def check_probe(b: pa.Table) -> pa.Table:
        cs = np.array([int(x.split("-")[1])
                       for x in b.column("conv_id").to_pylist()])
        ok = np.isin(cs % H, [0, H - 1, H - 2, H - 3])
        return pa.table({"bad": pa.array([int((~ok).sum())], pa.int64()),
                         "n": pa.array([len(cs)], pa.int64())})

    pagg = probe.map_batches(check_probe, batch_format="pyarrow").sum(["bad", "n"])
    expect_probe = int(cnt(np.array([0, H - 1, H - 2, H - 3])).sum())
    dt = time.time() - t0
    ok = (bad == 0 and postings_total == 5 * C and scalars_ok
          and int(pagg["sum(bad)"]) == 0
          and int(pagg["sum(n)"]) == expect_probe)
    return {
        "sec": round(dt, 2),
        "sec_build": round(t_build, 2),
        "convs": C,
        "annotations": 5 * C + C // 2,
        "postings_checked": postings_total,
        "scalar_rows": int(len(sc)),
        "probe_hits": int(pagg["sum(n)"]),
        "mismatched": bad + int(pagg["sum(bad)"]) + int(not scalars_ok),
        "convs_per_sec": round(C / dt, 1),
        "validated": ok,
    }


def run_skew_scale(n_turns: int) -> dict:
    """Hot-key regression: EVERY turn of the corpus belongs to ONE
    conversation — the pathological skew the dedup's per-block combiner
    must absorb (pipelines/triples.py docstring; a naive groupby(conv_id)
    would serialize the whole corpus into one reducer).
    Each turn carries the same dictionary mentions plus a turn-unique junk
    token (so the annotate memo never trivializes the workload), making
    the expected dedup result CLOSED-FORM: one row per non-negated
    distinct HPO, n_mentions = per-turn count × n_turns, first_turn 0,
    max_score 1.0 — a |vocab|-sized frame checked exactly driver-side.
    What the regression pins distributed: the Arrow combiner fused into
    the annotate operator collapses each block to ≤ |vocab| rows, so the
    single-block merge sees blocks × |vocab| rows, never the corpus; driver
    RSS is reported to show nothing corpus-sized lands on one node."""
    import resource

    import numpy as np
    import pyarrow as pa
    import ray

    from phenobert_ray.assets.mini_hpo import mini_dag
    from phenobert_ray.linker import annotate_text
    from phenobert_ray.pipelines.triples import dedup_conv_hpo
    from phenobert_ray.stages.annotate import annotate_turns

    dag = mini_dag()
    EPOCH = 1_767_225_600_000_000  # 2026-01-01 µs

    def gen(batch: pa.Table) -> pa.Table:
        i = batch.column("id").to_numpy()
        texts = [
            f"febrile seizure seizure and microcephaly noted u{x}" for x in i
        ]
        return pa.table(
            {
                "conv_id": pa.array(["hot-0"] * len(i), pa.string()),
                "turn_idx": pa.array(i.astype(np.int32), pa.int32()),
                "role": pa.array(
                    np.where(i % 2 == 0, "user", "assistant"), pa.string()
                ),
                "text": pa.array(texts, pa.string()),
                "tool": pa.array([""] * len(i), pa.string()),
                "ts": pa.array(
                    (EPOCH + i).astype("datetime64[us]"), pa.timestamp("us")
                ),
            }
        )

    turns = ray.data.range(n_turns).map_batches(gen, batch_format="pyarrow")
    t0 = time.time()
    got = dedup_conv_hpo(annotate_turns(turns, dag)).to_pandas()
    dt = time.time() - t0

    # closed form from ONE serial per-turn annotate (uniq token unmatched)
    from collections import Counter

    per_turn = Counter(
        a.hpo_id
        for a in annotate_text(
            "febrile seizure seizure and microcephaly noted u0", dag)
        if not a.negated
    )
    got = got.set_index("hpo_id")
    bad = 0
    if set(got.index) != set(per_turn) or (got["conv_id"] != "hot-0").any():
        bad += 1
    else:
        for h, c in per_turn.items():
            if (int(got.loc[h, "n_mentions"]) != c * n_turns
                    or int(got.loc[h, "first_turn"]) != 0
                    or float(got.loc[h, "max_score"]) != 1.0):
                bad += 1
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    return {
        "sec": round(dt, 2),
        "turns": n_turns,
        "turns_per_sec": round(n_turns / dt, 1),
        "distinct_hpos": len(per_turn),
        "rows_checked": int(len(got)),
        "mismatched": bad,
        "driver_rss_gb": round(rss_gb, 2),
        "validated": bad == 0,
    }


def child_main(num_cpus: int) -> None:
    """Fresh-process headline run at a given parallelism (for --scaling)."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    r = run_headline(_sf_dir(), _scaling_replicate(), passes=1)
    ray.shutdown()
    print(json.dumps({"num_cpus": num_cpus, **r}))


def main() -> None:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    if "--child" in sys.argv:
        child_main(int(sys.argv[sys.argv.index("--child") + 1]))
        return

    # scale-regression flags, one contract for all: fresh ray session ->
    # runner -> one JSON line -> nonzero exit when the distributed
    # validation failed
    scale_flags = {
        "--index-scale": ("GRAFT_INDEX_CONVS", 2_000_000, run_index_scale,
                          "index_scale_convs_per_sec", "convs_per_sec",
                          "convs/sec"),
        "--skew-scale": ("GRAFT_SKEW_TURNS", 2_000_000, run_skew_scale,
                         "skew_scale_turns_per_sec", "turns_per_sec",
                         "turns/sec"),
    }
    flag = next((f for f in scale_flags if f in sys.argv), None)
    if flag is not None:
        import ray

        env, default, runner, metric, rate_key, unit = scale_flags[flag]
        if not ray.is_initialized():
            ray.init(address="local", num_cpus=_cpus(), include_dashboard=False)
        r = runner(int(os.environ.get(env, str(default))))
        print(json.dumps({"metric": metric, "value": r[rate_key],
                          "unit": unit, **r, "num_cpus": _cpus(),
                          "host": _host_stamp()}))
        ray.shutdown()
        if not r["validated"]:
            sys.exit(1)
        return

    if "--scaling" in sys.argv:
        # shared hosts show large run-to-run timing variance (up to 3x on
        # an identical workload); run N fresh-process runs per level,
        # report the MEDIAN (min-of-N biases efficiency optimistically)
        # and persist every sample so readers can judge the spread
        repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "3"))
        hi = _cpus()
        lo = max(1, hi // 4)
        if lo == hi:
            sys.exit(f"--scaling needs at least 2 CPUs to compare two "
                     f"parallelism levels; this process may use {hi}")
        results = {}
        all_samples = {}
        for n in (lo, hi):
            runs = []
            for _ in range(repeats):
                p = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--child", str(n)],
                    capture_output=True,
                    text=True,
                    check=True,
                )
                runs.append(json.loads(p.stdout.strip().splitlines()[-1]))
            runs.sort(key=lambda r: r["sec"])
            mid = len(runs) // 2
            med = runs[mid] if len(runs) % 2 else {
                **runs[mid],
                "sec": (runs[mid - 1]["sec"] + runs[mid]["sec"]) / 2,
                "turns_per_sec": runs[mid]["turns"]
                / ((runs[mid - 1]["sec"] + runs[mid]["sec"]) / 2),
            }
            results[n] = med
            all_samples[n] = [round(r["sec"], 2) for r in runs]
        t_lo, t_hi = results[lo]["sec"], results[hi]["sec"]
        eff = (t_lo / t_hi) / (hi / lo)
        print(
            json.dumps(
                {
                    "metric": f"scaling_efficiency_{lo}_to_{hi}_cpus",
                    "value": round(eff, 3),
                    "unit": "ratio",
                    f"throughput_{lo}": round(results[lo]["turns_per_sec"], 1),
                    f"throughput_{hi}": round(results[hi]["turns_per_sec"], 1),
                    f"sec_{lo}": round(t_lo, 2),
                    f"sec_{hi}": round(t_hi, 2),
                    f"samples_{lo}": all_samples[lo],
                    f"samples_{hi}": all_samples[hi],
                    "turns": results[hi]["turns"],
                    "sf": _sf_dir(),
                    "host": _host_stamp(),
                }
            )
        )
        return

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=_cpus(), include_dashboard=False)
    head = run_headline(_sf_dir(), _replicate())
    queries = run_queries(_sf_dir())
    total = round(head["sec"] + sum(queries.values()), 3)
    print(
        json.dumps(
            {
                "metric": "kg_pipeline_plus_operator_suite_runtime",
                "value": total,
                "unit": "sec",
                "queries": {"kg_headline": round(head["sec"], 3), **queries},
                "headline_samples": head["samples"],
                "sf": _sf_dir(),
                "num_cpus": _cpus(),
                "turns": head["turns"],
                "turns_per_sec": round(head["turns_per_sec"], 1),
                "host": _host_stamp(),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
