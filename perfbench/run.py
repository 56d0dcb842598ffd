"""TPA benchmark: stranger preprocessing and single-seed queries on Spark.

    python3 perfbench/run.py --workload {stranger,query} --seed N --seconds R --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src/``.
One process, one closed-loop client, one local Spark session. Every timed
operation follows a warm-up (preprocess plus queries) on a throwaway graph of
the measured shape, and every result is checked afterwards against the numpy
reference in ``reference.py``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``). See
README.md for the workloads, metrics and reference figures.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # Spark local dirs and JVM temp files, removed at exit
TRACE_DIR = ROOT / ".perfbench_trace"  # spans of traced runs

C, S, T = 0.15, 4, 10
EPS = 2e-2  # preprocess tolerance: iterations 0..13, stranger = Σ x⁽¹⁰⁾..x⁽¹³⁾
WARM_EPS = 3e-2  # warm-up preprocess tolerance: iterations 0..10, stranger = x⁽¹⁰⁾
THREADS = 4
DRIVER_MEMORY = "2g"
# The values the repository's tests run with (conftest.py, Spark defaults).
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.adaptive.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
}


@dataclass(frozen=True)
class Workload:
    n: int
    m: int
    loop: str  # the operation repeated for --seconds: "preprocess" or "query"
    # Queries of the warm-up. Query latency keeps falling over a session's
    # first ~10 queries; the time budget allows a longer warm-up only where
    # queries are the timed operation.
    warm_queries: int
    extra_queries: int  # queries timed after the loop, for the query metrics


WORKLOADS = {
    "stranger": Workload(n=8_000, m=64_000, loop="preprocess", warm_queries=1, extra_queries=6),
    "query": Workload(n=4_000, m=32_000, loop="query", warm_queries=4, extra_queries=0),
}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - T_START:7.2f}s] {msg}", file=sys.stderr, flush=True)


# -- session -----------------------------------------------------------------
def start_spark():
    """A local session whose files all stay in WORK: Spark's local dirs, the
    JVM's temp dir, and Python's temp files."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    os.environ["TMPDIR"] = str(WORK)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(str(WORK))}"
    os.environ.pop("PYSPARK_GATEWAY_PORT", None)
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([
        "--master", f"local[{min(THREADS, len(os.sched_getaffinity(0)))}]",
        "--driver-memory", DRIVER_MEMORY,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.local.dir={WORK}",
        "--conf", f"spark.sql.warehouse.dir={WORK / 'warehouse'}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in SESSION_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- workload helpers -----------------------------------------------------------
def densify(df, n: int) -> np.ndarray:
    """Dense copy of a sparse (id, score) DataFrame, for the checks."""
    pdf = df.toPandas()
    out = np.zeros(n)
    out[pdf["id"].to_numpy(np.int64)] = pdf["score"].to_numpy(np.float64)
    return out


def pick_seeds(g, rng: np.random.Generator) -> list[int]:
    """A round of query seeds drawn with the workload seed: hub (top 1%
    out-degree), middle node (45-55th percentile), leaf (bottom 10%), twice."""
    order = np.argsort(g.out_deg, kind="stable")
    n = g.n
    picks = rng.integers([n - n // 100, n * 45 // 100, 0], [n, n * 55 // 100, n // 10], size=(2, 3))
    return [int(order[i]) for i in picks.ravel()]


def make_tpa(spark, g, eps: float):
    from repro.core.tpa import SparkTPA
    from repro.graph.edges import edges_from_numpy

    return SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, c=C, S=S, T=T, eps=eps)


class Timed:
    """Wall-clock times and Spark counter deltas of one kind of operation."""

    def __init__(self, counters) -> None:
        self.counters = counters
        self.seconds: list[float] = []
        self.deltas = []
        self.first_start: float | None = None

    def __call__(self, fn, *args):
        before = self.counters.snapshot()
        t0 = time.perf_counter()
        self.first_start = self.first_start or t0
        out = fn(*args)
        self.seconds.append(time.perf_counter() - t0)
        self.deltas.append(self.counters.snapshot() - before)
        return out

    def median(self, attr: str | None = None) -> float:
        if attr is None:
            return float(statistics.median(self.seconds))
        return float(statistics.median(getattr(d, attr) for d in self.deltas))


# -- the run -----------------------------------------------------------------
def warm_up(spark, g, seed: int, queries: int) -> None:
    """Preprocess plus queries on a throwaway graph, so that timed operations
    run on a warmed JVM; the cost is part of set-up."""
    tpa = make_tpa(spark, g, WARM_EPS)
    laps = [time.perf_counter()]
    tpa.preprocess()
    laps.append(time.perf_counter())
    for s in pick_seeds(g, np.random.default_rng(seed))[:queries]:
        tpa.query_np(s)
        laps.append(time.perf_counter())
    tpa.norm_edges.unpersist()
    log(f"warm-up on n={g.n} m={g.m}: preprocess, queries {np.diff(laps).round(2).tolist()} s")


def check(ref, g, strangers, answers) -> list[list[str]]:
    """The problems of each operation, against the numpy reference."""
    want_stranger = ref.stranger(g, C, T, EPS)
    problems = [ref.check_stranger(got, want_stranger, C, T, EPS) for got in strangers]
    for s, got in answers:
        want = ref.tpa(g, s, want_stranger, C, S, T, EPS)
        problems.append(ref.check_query(got, want, ref.exact_rwr(g, s, C), C, S))
    return problems


def run(spark, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import reference as ref
    from counters import SparkCounters

    w = WORKLOADS[name]
    counters = SparkCounters(spark)
    warm_up(spark, ref.dcsbm(w.n, w.m, seed + 1_000_003), seed, w.warm_queries)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(counters)
        tracer.install()
    g = ref.dcsbm(w.n, w.m, seed)
    seeds = pick_seeds(g, np.random.default_rng(seed))
    log(f"graph n={g.n} m={g.m}; query seeds {seeds} with out-degrees {g.out_deg[seeds].tolist()}")
    tpa = make_tpa(spark, g, EPS)
    cached = {"after_build": counters.cached()}
    pre, qry = Timed(counters), Timed(counters)
    strangers, answers = [], []

    def preprocess():
        strangers.append(densify(pre(tpa.preprocess), g.n))
        cached.setdefault("after_preprocess", counters.cached())

    def queries(batch):
        answers.extend((s, qry(tpa.query_np, s)) for s in batch)

    if w.loop == "query":
        preprocess()  # set-up of the query workload, reported as its preprocess_s
    step, timed = (preprocess, pre) if w.loop == "preprocess" else (lambda: queries(seeds), qry)
    if tracer:
        tracer.phase = "run"
    gc_before = counters.snapshot()
    while not timed.seconds or sum(timed.seconds) < seconds:  # whole rounds
        step()
    gc_s = (counters.snapshot() - gc_before).gc_ms / 1e3
    cached["after_run"] = counters.cached()
    if tracer:
        tracer.phase = "tail"
    queries(seeds[: w.extra_queries])
    if tracer:
        tracer.uninstall()
    setup_s = timed.first_start - T_START
    log(f"setup {setup_s:.2f} s; preprocess {np.round(pre.seconds, 2).tolist()} s; "
        f"queries {np.round(qry.seconds, 2).tolist()} s")

    problems = check(ref, g, strangers, answers)
    for p in filter(None, problems):
        log("CHECK FAILED: " + "; ".join(p))
    failed = sum(bool(p) for p in problems)
    result = {"correct": failed == 0, "attempted": len(problems), "failed": failed}
    if not trace:
        result["metrics"] = {
            "setup_s": (setup_s, "s"),
            "preprocess_s": (pre.median(), "s"),
            "preprocess_jobs": (pre.median("jobs"), "count"),
            "preprocess_shuffle_mb": (pre.median("shuffle_bytes") / 1e6, "MB"),
            "query_p50_s": (qry.median(), "s"),
            "query_jobs": (qry.median("jobs"), "count"),
            "query_shuffle_kb": (qry.median("shuffle_bytes") / 1e3, "KB"),
        }
        return result

    from tracing import layer_metrics

    tracer.dump(TRACE_DIR / f"{name}-seed{seed}.json")
    metrics = layer_metrics(tracer.spans, "run")
    metrics["spark.gc_s"] = (gc_s, "s")
    for point, (rdds, mb) in cached.items():
        metrics[f"spark.cached_rdds.{point}"] = (rdds, "count")
        metrics[f"spark.storage_mb.{point}"] = (mb, "MB")
    metrics["traced.preprocess_s"] = (pre.median(), "s")
    metrics["traced.query_p50_s"] = (qry.median(), "s")
    metrics.update(local_floor(g, seeds))
    result["metrics"] = metrics
    return result


def local_floor(g, seeds: list[int]) -> dict:
    """The repository's numpy TPA on the same graph: medians of three
    preprocesses and of one query per seed."""
    from repro.core.local_tpa import LocalTPA
    from repro.graph.linalg import LocalGraph

    local = LocalTPA(LocalGraph(g.n, g.src, g.dst), c=C, S=S, T=T, eps=EPS)
    pre, qry = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        local.preprocess()
        pre.append(time.perf_counter() - t0)
    for s in seeds:
        t0 = time.perf_counter()
        local.query(s)
        qry.append(time.perf_counter() - t0)
    return {"local.preprocess_s": (statistics.median(pre), "s"), "local.query_s": (statistics.median(qry), "s")}


def main() -> int:
    args = parse_args()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spark = start_spark()
    try:
        result = run(spark, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)
    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
