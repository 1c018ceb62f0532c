"""serve_ner workload: a closed loop of ``POST /annotate`` against
``serve.make_server`` running in its own process, one client connection per
CPU.  Each request carries one turn drawn from the chat and note generators.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import gen
from benchutil import (
    host_cpus,
    load_dag,
    load_ner,
    load_scorer,
    median,
    model_config,
    peak_rss_mb,
    quantile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENTS = host_cpus()  # one client connection per CPU
MAX_MEASURE_S = 100.0  # cap on the measuring window, whatever --seconds says
START_TIMEOUT_S = 60.0  # server start to first /health 200
WINDOW_S = 1.0  # the loop is summarized per window, then by the windows' median


@dataclass
class ServePlan:
    pool: int = 4000          # distinct request texts, cycled
    min_requests: int = 4000  # >= 10 samples beyond p99; accuracy base
    gate_sample: int = 50     # first responses compared in-process
    setup_reps: int = 3
    trace_requests: int = 300
    replay_texts: int = 120


POOL_JOB = 1_000_000  # generator job ids of the request pool: disjoint from KG jobs
CHAT_CHUNK = 50  # chat turns per generator job, each job with its own hot terms


def request_pool(seed: int, lex, n: int) -> gen.Turns:
    """``n`` turns, each drawn from the chat or the note generator."""
    notes = gen.note_turns(seed, POOL_JOB, n, lex)
    chat = gen.Turns([], [], [], [])
    for k in range(-(-n // CHAT_CHUNK)):
        part = gen.chat_turns(seed, POOL_JOB + 1 + k, CHAT_CHUNK, lex)
        for i in range(len(part)):
            if part.text[i] is not None:
                chat.add(f"c{k}", 0, part.role[i], part.text[i], part.turn_gold[i],
                         part.turn_mentions[i])
    pick = np.random.default_rng([seed, 3]).random(n) < 0.5
    out = gen.Turns([], [], [], [])
    for i in range(n):
        src = notes if pick[i] or i >= len(chat) else chat
        out.add(f"r{i}", 0, src.role[i], src.text[i], src.turn_gold[i],
                src.turn_mentions[i])
    return out


def annotation_rows(text: str, dag, scorer, ner) -> list[dict]:
    """``annotate_text`` output in the shape ``POST /annotate`` returns."""
    from phenobert_ray.linker import annotate_text

    return [
        {"start": a.start, "end": a.end, "mention": a.mention,
         "hpo_id": a.hpo_id, "score": round(float(a.score), 2),
         "negated": bool(a.negated)}
        for a in annotate_text(text, dag, scorer=scorer, ner=ner)
    ]


class Server:
    def __init__(self, root: str):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), root],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            self.port = self._read_port(START_TIMEOUT_S)
            self._wait_health(t0 + START_TIMEOUT_S)
        except Exception:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line.strip():
            raise RuntimeError(f"server did not start (exit {self.proc.poll()})")
        return int(line)

    def _wait_health(self, deadline: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/health")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /health")
            time.sleep(0.01)

    def post(self, text: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("POST", "/annotate", body=json.dumps({"text": text}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


class Loop:
    """Closed loop: each client sends its next request when the previous
    one has completed."""

    def __init__(self, server: Server, texts: list[str], keep: int):
        self.server, self.texts, self.keep = server, texts, keep
        self.lock = threading.Lock()
        self.next = 0
        self.lat: list[float] = []
        self.ends: list[float] = []  # completion times of self.lat, from the start
        self.t0 = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.responses: dict[int, list] = {}  # request index -> annotations

    def _client(self, stop_at: float, min_requests: int) -> None:
        while True:
            with self.lock:
                i = self.next
                if time.perf_counter() >= stop_at and i >= min_requests:
                    return
                self.next += 1
            t0 = time.perf_counter()
            try:
                status, body = self.server.post(self.texts[i % len(self.texts)])
                rows = json.loads(body)["annotations"] if status == 200 else None
            except (OSError, ValueError, KeyError) as e:
                status, rows = None, None
                err = f"{type(e).__name__}: {e}"
            else:
                err = f"HTTP {status}"
            lat = time.perf_counter() - t0
            with self.lock:
                if rows is None:
                    self.failed += 1
                    self.errors.append(err)
                else:
                    self.lat.append(lat)
                    self.ends.append(t0 + lat - self.t0)
                    if i < self.keep:
                        self.responses[i] = rows

    def run(self, seconds: float, min_requests: int, clients: int) -> float:
        self.t0 = t0 = time.perf_counter()
        stop_at = t0 + seconds
        threads = [threading.Thread(target=self._client, args=(stop_at, min_requests))
                   for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0

    def windows(self, wall: float) -> tuple[list[float], list[float]]:
        """Completed requests per second and p50 latency of each of the
        about ``WINDOW_S``-long windows that split the loop's ``wall``: the
        median over windows is robust to a short stall of the host."""
        n = max(1, round(wall / WINDOW_S))
        width = wall / n
        buckets: list[list[float]] = [[] for _ in range(n)]
        for end, lat in zip(self.ends, self.lat):
            buckets[min(n - 1, int(end // width))].append(lat)
        buckets = [b for b in buckets if b]
        return [len(b) / width for b in buckets], [median(b) for b in buckets]


def _gate(report, loop: Loop, pool: gen.Turns, state, n: int) -> None:
    """Each of the first ``n`` requests must have answered 200 with exactly
    the in-process ``annotate_text`` output.  A differing response is a
    failed request; a failed or unsent one is already counted as failed."""
    dag, scorer, ner = state
    missing = differ = 0
    for i in range(n):
        got = loop.responses.get(i)
        if got is None:
            missing += 1
        elif got != annotation_rows(pool.text[i], dag, scorer, ner):
            differ += 1
    report.failed += differ
    if missing or differ:
        report.fail_gate(f"of {n} sampled requests {missing} got no response "
                         f"and {differ} differ from in-process annotate_text")
    report.info["gate"] = {"responses_compared": n - missing}


def _accuracy(report, loop: Loop, pool: gen.Turns) -> None:
    """(request, hpo_id) pairs of the first ``loop.keep`` requests against
    the gold of the turn each request carried; a failed request predicts
    nothing and still counts its gold."""
    tp = n_pred = n_gold = 0
    for i in range(min(loop.keep, loop.next)):
        rows = loop.responses.get(i, [])
        pred = {r["hpo_id"] for r in rows if not r["negated"]}
        gold = pool.turn_gold[i % len(pool)]
        tp += len(pred & gold)
        n_pred += len(pred)
        n_gold += len(gold)
    report.put_accuracy(tp, n_pred, n_gold, loop.keep)


def _in_process_state(root: str):
    dag = load_dag(root)
    return dag, load_scorer(dag, model_config()), load_ner()


def run(seed: int, seconds: int, root: str, report, plan: ServePlan | None = None) -> None:
    plan = plan or ServePlan()
    server = None
    try:
        samples = []
        for _ in range(plan.setup_reps):
            if server is not None:
                server.stop()
            server = Server(root)
            samples.append(server.setup_s)
        report.put("setup_s", median(samples), "s", len(samples))
        report.info["setup_samples_s"] = samples

        state = _in_process_state(root)
        pool = request_pool(seed, gen.Lexicon(state[0], root), plan.pool)
        loop = Loop(server, pool.text, keep=plan.min_requests)
        wall = loop.run(min(seconds, MAX_MEASURE_S), plan.min_requests, CLIENTS)
        report.attempted += loop.next
        report.failed += loop.failed
        report.put("peak_rss_mb", peak_rss_mb([server.proc.pid]), "MB", 1)
        rates, p50s = loop.windows(wall)
        if rates:
            n = len(loop.lat)
            report.put("turns_per_s", median(rates), "1/s", len(rates))
            report.put("req_p50_ms", 1000 * median(p50s), "ms", len(p50s))
            report.put("req_per_s", n / wall, "1/s", n)
            report.put("req_p99_ms", 1000 * quantile(loop.lat, 0.99), "ms", n)
        _gate(report, loop, pool, state, plan.gate_sample)
        _accuracy(report, loop, pool)
        props = gen.properties(pool)
        props.pop("conv_len_max_over_median")
        report.info.update({"requests": loop.next, "clients": CLIENTS,
                            "errors": loop.errors[:5], "workload_properties": props})
    finally:
        if server is not None:
            server.stop()


def run_traced(seed: int, root: str, report, plan: ServePlan | None = None) -> None:
    import layers
    from spans import Tracer

    plan = plan or ServePlan()
    tr = Tracer()
    server = None
    try:
        server = Server(root)
        with tr.span("assets.dag_load"):
            dag = load_dag(root)
        with tr.span("standins.load_scorer"):
            scorer = load_scorer(dag, model_config())
        with tr.span("ner_np.load"):
            ner = load_ner()
        report.put("assets.dag_load_s", tr.total["assets.dag_load"], "s")
        report.put("assets.dag_phrases", len(dag.phrase2hpo), "count")
        report.put("standins.load_scorer_s", tr.total["standins.load_scorer"], "s")
        report.put("ner_np.load_s", tr.total["ner_np.load"], "s")

        pool = request_pool(seed, gen.Lexicon(dag, root), plan.replay_texts)
        lat = layers.replay_texts(tr, report, pool.text, dag, scorer, ner)
        loop = Loop(server, pool.text, keep=plan.gate_sample)
        loop.run(0.0, plan.trace_requests, CLIENTS)
        report.attempted += loop.next
        report.failed += loop.failed
        _gate(report, loop, pool, (dag, scorer, ner), plan.gate_sample)
        if loop.lat:
            kernel_ms = 1000 * median(lat)
            report.put("serve.kernel_ms", kernel_ms, "ms", len(lat))
            report.put("serve.overhead_ms", 1000 * median(loop.lat) - kernel_ms, "ms",
                       len(loop.lat))
    finally:
        tr.restore()
        if server is not None:
            server.stop()
