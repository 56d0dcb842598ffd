"""Shared fixtures/builders for the test suite: tiny deterministic graphs
with known closed-form RWR answers, a dense reference solver, and a Spark
job counter."""
from __future__ import annotations

import numpy as np

from repro.graph import generators as gen
from repro.graph.linalg import LocalGraph

C = 0.15


def graph_from(spec) -> LocalGraph:
    """Build a LocalGraph from a generator tuple (n, src, dst[, block])."""
    n, src, dst = spec[0], spec[1], spec[2]
    return LocalGraph(n, src, dst)


def small_dcsbm(n: int = 300, m: int = 2400, seed: int = 1) -> LocalGraph:
    return graph_from(gen.dcsbm(n, m, n_blocks=6, seed=seed))


def small_er(n: int = 300, m: int = 2400, seed: int = 1) -> LocalGraph:
    return graph_from(gen.erdos_renyi(n, m, seed=seed))


def dense_exact_rwr(g: LocalGraph, seed: int, c: float = C) -> np.ndarray:
    """Reference solution by dense linear solve of (I − (1-c)Ãᵀ) r = c q."""
    A = g.dense_transition_T()
    q = np.zeros(g.n)
    q[seed] = 1.0
    return np.linalg.solve(np.eye(g.n) - (1 - c) * A, c * q)


def dense_exact_pagerank(g: LocalGraph, c: float = C) -> np.ndarray:
    A = g.dense_transition_T()
    q = np.full(g.n, 1.0 / g.n)
    return np.linalg.solve(np.eye(g.n) - (1 - c) * A, c * q)


class SparkJobs:
    """Counts the Spark jobs started inside a ``with SparkJobs(spark) as c:``
    block into ``c.jobs``: the delta of the DAG scheduler's job-id counter,
    which every job increments once."""

    def __init__(self, spark) -> None:
        self._scheduler = spark.sparkContext._jsc.sc().dagScheduler()

    def __enter__(self) -> "SparkJobs":
        self._start = self._scheduler.nextJobId()
        return self

    def __exit__(self, *exc) -> None:
        self.jobs = self._scheduler.nextJobId() - self._start
