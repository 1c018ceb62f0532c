"""Self-test of the benchmark at tiny size: every workload once untraced,
the model workload traced, each checked for every named metric and a
passing correctness gate.

    python3 -m pytest kgperf/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchutil  # noqa: E402
import gen  # noqa: E402
import kgrun  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402

TINY_KG = {
    "kg_chat": kgrun.KgPlan(turns=1000, warmup_turns=0, replay_turns=200, files=8,
                            setup_reps=1, min_jobs=1, gate_convs=3),
    "kg_model": kgrun.KgPlan(turns=24, warmup_turns=0, replay_turns=12, files=2,
                             shards=1, setup_reps=1, min_jobs=1, gate_convs=2),
}
TINY_SERVE = serving.ServePlan(pool=40, min_requests=30, gate_sample=8, setup_reps=1,
                               trace_requests=20, replay_texts=10)


@pytest.fixture(scope="module")
def bench():
    definition = run.environment()
    session = benchutil.Session(run.ROOT)  # one Ray session for every KG run
    session.init()
    yield definition
    session.close()


def _names(bench, mode):
    return [m["name"] for m in bench[mode]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end(bench, workload):
    report = run.execute(bench, workload, seed=7, seconds=0, trace=False,
                         kg_plan=TINY_KG.get(workload), serve_plan=TINY_SERVE)
    assert report.correct, (report.gate_errors, report.info.get("errors"))
    missing = [n for n in _names(bench, "end_to_end") if n not in report.metrics]
    assert not missing
    assert all(report.metrics[n]["value"] > 0 for n in _names(bench, "end_to_end"))
    if workload == "kg_chat":
        assert report.metrics["dup_triples"]["value"] > 0


@pytest.mark.parametrize("workload", ["kg_model", "serve_ner"])
def test_traced(bench, workload):
    report = run.execute(bench, workload, seed=7, seconds=0, trace=True,
                         kg_plan=TINY_KG.get(workload), serve_plan=TINY_SERVE)
    assert report.correct, (report.gate_errors, report.info.get("errors"))
    assert all(n in report.metrics for n in _names(bench, "per_layer"))
    exercised = {"kg_model": ["models_np.scorer_self_s", "bert_np.match_s",
                              "pipelines.triples.dedup_s", "state.sharded.content_hash_s"],
                 "serve_ner": ["ner_np.predict_s", "serve.kernel_ms", "linker.dict_link_s"]}
    assert all(report.metrics[n]["n"] > 0 for n in exercised[workload])


def _pool(golds):
    pool = gen.Turns([], [], [], [])
    for i, gold in enumerate(golds):
        pool.add(f"r{i}", 0, "user", f"text {i}", gold, len(gold))
    return pool


def test_serve_gate_fails_on_missing_responses():
    report = benchutil.Report("serve_ner", 0, 0, False)
    report.attempted = 4
    loop = serving.Loop(None, ["x"] * 4, keep=4)
    loop.next = 4  # four requests sent, none answered 200
    serving._gate(report, loop, _pool([set()] * 4), (None, None, None), 4)
    assert report.gate_errors and not report.correct


def test_serve_accuracy_counts_gold_of_failed_requests():
    report = benchutil.Report("serve_ner", 0, 0, False)
    loop = serving.Loop(None, ["x", "y"], keep=2)
    loop.next = 2
    loop.responses = {0: [{"hpo_id": "HP:1", "negated": False}]}  # request 1 failed
    serving._accuracy(report, loop, _pool([{"HP:1"}, {"HP:2"}]))
    assert report.metrics["triple_recall"]["value"] == 0.5
    assert report.metrics["triple_precision"]["value"] == 1.0
