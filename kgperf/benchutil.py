"""Shared pieces of the benchmark: host stamp, Ray session, ontology and
scorer loading, process accounting and the metric report."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time

MIN_DAG_PHRASES = 31_540  # phrases of the packaged assets/trained/DAG.json
DAG_JSON = os.path.join("phenobert_ray", "assets", "trained", "DAG.json")
BUILTIN_P1, BUILTIN_P2 = 0.95, 0.9  # the CLI's thresholds for -m builtin
OBJECT_STORE_BYTES = 300 * 1024 * 1024
# Ray's temp dir lies inside the checkout, so a run writes nowhere else.
# Ray refuses AF_UNIX socket paths over 107 bytes, and puts its sockets at
# <temp>/session_<timestamp>_<pid>/sockets/plasma_store: a checkout deeper
# than about 30 characters cannot hold them and falls back to mkdtemp.
_RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def host_cpus() -> int:
    """CPUs this process may run on (its affinity mask): the size of the
    Ray cluster and the number of serve_ner client connections."""
    return len(os.sched_getaffinity(0))


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------- host


def git_sha(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        p = os.path.join(root, ".git", name)
        if os.path.exists(p):
            with open(p) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_stamp(root: str) -> dict:
    import numpy
    import pyarrow
    import ray

    mem_mb = None
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) // 1024
    quota = None
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
            quota = int(f.read())
    except (OSError, ValueError):
        pass
    return {
        "cpus": host_cpus(),
        "os_cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "cfs_quota_us": quota,
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
    }


# ---------------------------------------------------------------- processes


def _ppid_map() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after the last ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            out[int(d)] = int(fields[1])
    return out


def descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for p, pp in _ppid_map().items():
        children.setdefault(pp, []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident sets (VmHWM)."""
    kb = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            continue
    return kb / 1024


def _alive(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)  # reap our own exited children
    except ChildProcessError:
        pass
    return pid in _ppid_map()


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (a Ray worker whose raylet
    exits first), so ``descendants`` still finds every process started."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def wait_gone(pids: list[int], timeout: float = 15.0) -> None:
    """Wait for ``pids`` to end; kill what is left after ``timeout``."""
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 5.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)


# ---------------------------------------------------------------- engine


class Session:
    """One Ray session rooted in the checkout, with workers that import
    ``phenobert_ray`` from it whatever directory the run started in.  A
    session already running in the process (the self-test's) is joined,
    never restarted or shut down."""

    def __init__(self, root: str):
        self.root = root
        base = os.path.join(root, ".kgperf", "r")
        if len(base) + _RAY_SOCKET_SUFFIX > 107:
            # private to this session; close() removes it
            base = tempfile.mkdtemp(prefix="kgp")
        self.temp = base
        self.owned = False

    def init(self) -> None:
        import ray

        if ray.is_initialized() and not self.owned:
            return
        self.owned = True
        # workers inherit the environment: the engine imports from the checkout
        path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if self.root not in path:
            os.environ["PYTHONPATH"] = os.pathsep.join([self.root] + [p for p in path if p])
        ray.init(address="local", num_cpus=host_cpus(),
                 include_dashboard=False, log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=self.temp)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False

    def shutdown(self) -> None:
        import ray

        if not (self.owned and ray.is_initialized()):
            return
        pids = descendants(os.getpid())
        ray.shutdown()
        wait_gone(pids)

    def close(self) -> None:
        if self.owned:
            self.shutdown()
            shutil.rmtree(self.temp, ignore_errors=True)


def load_dag(root: str):
    from phenobert_ray.assets.hpo_dag import HpoDag

    with open(os.path.join(root, DAG_JSON), encoding="utf-8") as f:
        return HpoDag(json.load(f))


def model_config():
    """The ``-m builtin`` configuration of the CLI."""
    from phenobert_ray.assets.loader import resolve_builtin
    from phenobert_ray.config import PipelineConfig

    model_dir, _ = resolve_builtin("builtin", None)
    return PipelineConfig(param1=BUILTIN_P1, param2=BUILTIN_P2,
                          use_model_standins=True, model_dir=model_dir)


def load_scorer(dag, cfg):
    from phenobert_ray.standins import load_torch_scorer

    return load_torch_scorer(cfg.model_dir, dag, cfg)


def load_ner():
    from phenobert_ray.assets.loader import resolve_builtin
    from phenobert_ray.ner_np import NerTagger

    _, path = resolve_builtin(None, "builtin")
    return NerTagger.load(path)


# ---------------------------------------------------------------- report


class Report:
    """Metrics by name with unit and sample count, plus run context."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.head = {"workload": workload, "seed": seed, "seconds": seconds,
                     "trace": int(trace)}
        self.metrics: dict[str, dict] = {}
        self.info: dict = {}
        self.attempted = 0
        self.failed = 0
        self.gate_errors: list[str] = []

    def put(self, name: str, value, unit: str, n: int = 1) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n}

    def put_accuracy(self, tp: int, n_pred: int, n_gold: int, n: int) -> None:
        """Recall and precision of predicted against gold pairs."""
        self.put("triple_recall", tp / max(1, n_gold), "ratio", n)
        self.put("triple_precision", tp / max(1, n_pred), "ratio", n)
        self.info["accuracy_base"] = {"true_pairs": tp, "predicted_pairs": n_pred,
                                      "gold_pairs": n_gold}

    def fail_gate(self, msg: str) -> None:
        self.gate_errors.append(msg)
        print(f"GATE FAILED: {msg}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        """Every gate passed and every attempted operation succeeded."""
        return not self.gate_errors and self.failed == 0 and self.attempted > 0

    def emit(self, names: list[str]) -> int:
        """Print every metric, the run context, and last the result line
        holding ``names``.  Returns the exit code."""
        if self.attempted:
            self.put("failed_share", self.failed / self.attempted, "ratio",
                     self.attempted)
        for name, m in self.metrics.items():
            print(f"metric {name} = {m['value']!r} {m['unit']} (n={m['n']})")
        print("report " + json.dumps({**self.head, **self.info,
                                      "gate_errors": self.gate_errors},
                                     default=str))
        result = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n]["value"],
                            "unit": self.metrics[n]["unit"]}
                        for n in names if n in self.metrics},
        }
        print(json.dumps(result), flush=True)
        return 0 if self.correct and all(n in self.metrics for n in names) else 1
