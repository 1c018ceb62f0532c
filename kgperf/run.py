"""Benchmark of the phenotype KG engine.

    python3 kgperf/run.py --workload {kg_chat,kg_model,serve_ner,all}
                          --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Inputs are generated from ``--seed``; the
engine is imported from the checkout, not from an installed package.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
measures the per-layer metrics.  Every metric is printed by name with its
unit and sample count, then the run context, and last one JSON result line
holding the metrics ``BENCHMARK.json`` names for the mode.  The run exits
non-zero when a correctness gate fails, an operation fails or a named
metric is missing.
``--workload all`` runs the three workloads in turn, one process each.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kg_chat", "kg_model", "serve_ner")


def environment() -> dict:
    """Make the checkout importable and Ray quiet and offline; returns the
    benchmark definition.  Raises when the checkout lacks the engine."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    import phenobert_ray  # noqa: F401
    import ray  # noqa: F401  (import time belongs to set-up, counted once)

    return bench


def execute(bench: dict, workload: str, seed: int, seconds: int, trace: bool,
            kg_plan=None, serve_plan=None):
    """Run one workload and return its report, every metric the mode
    names included."""
    import benchutil
    import kgrun
    import ray
    import serving

    import_s = time.perf_counter() - T_START
    benchutil.adopt_orphans()
    already = set(benchutil.descendants(os.getpid()))
    report = benchutil.Report(workload, seed, seconds, trace)
    report.info["host"] = benchutil.host_stamp(ROOT)
    work = os.path.join(ROOT, ".kgperf", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if workload == "serve_ner":
            if trace:
                serving.run_traced(seed, ROOT, report, serve_plan)
            else:
                serving.run(seed, seconds, ROOT, report, serve_plan)
        elif trace:
            kgrun.run_traced(workload, seed, ROOT, work, report, kg_plan)
        else:
            kgrun.run(workload, seed, seconds, ROOT, work, report, import_s, kg_plan)
    except Exception as e:  # report what was measured, then fail the run
        import traceback

        traceback.print_exc()
        report.fail_gate(f"run aborted: {type(e).__name__}: {e}")
    finally:
        # every process this run started has ended before it reports; a
        # Ray session the caller owns (the self-test's) keeps its workers
        if not ray.is_initialized():
            benchutil.wait_gone([p for p in benchutil.descendants(os.getpid())
                                 if p not in already])
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if trace:
        # a layer the workload never calls did no work: it reads 0 with n=0
        for m in bench["per_layer"]:
            if m["name"] not in report.metrics:
                report.put(m["name"], 0.0 if m["unit"] in ("s", "ms") else 0,
                           m["unit"], 0)
    report.info["wall_s"] = time.perf_counter() - T_START
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="kgperf")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        import subprocess

        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    try:
        bench = environment()
    except (OSError, ImportError) as e:
        print(f"kgperf: cannot run from {ROOT}: {e}", file=sys.stderr)
        return 2
    report = execute(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    stats = report.info.pop("ds_stats_shard0", {})
    if stats:
        print("ds.stats() per stage, shard 0:")
        for stage, text in stats.items():
            print(f"--- {stage}\n{text}")
    mode = "per_layer" if args.trace else "end_to_end"
    return report.emit([m["name"] for m in bench[mode]])


if __name__ == "__main__":
    sys.exit(main())
