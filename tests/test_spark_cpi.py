"""Distributed CPI vs the local reference: the Spark DataFrame implementation
must be numerically identical (≤1e-10 L1) on every window configuration,
and a superstep must cost one Spark job with one shuffle, whatever the
session's own settings."""
import time

import numpy as np
import pytest
from helpers import SparkJobs
from pyspark.errors import AnalysisException

from repro.core.cpi import cpi_spark
from repro.core.local_cpi import cpi, seed_vector, uniform_vector
from repro.deadline import OutOfTime, time_limit
from repro.graph import generators as gen
from repro.graph.edges import (
    PARTITIONS,
    checkpoint,
    edges_from_numpy,
    l1_norm,
    normalize_edges,
    propagate,
    release,
    scale_vector,
    seed_vector_df,
    shuffle_partitions,
    uniform_vector_df,
    vector_to_numpy,
)
from repro.graph.linalg import LocalGraph

N, M = 150, 1200
C = 0.15
# Spark's own defaults for the four settings ``shuffle_partitions`` pins, all
# four different from the pinned values.
SPARK_DEFAULTS = {
    "spark.sql.shuffle.partitions": "200",
    "spark.sql.adaptive.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "10485760b",
    "spark.sql.execution.arrow.pyspark.enabled": "false",
}
PINNED = {
    "spark.sql.shuffle.partitions": str(PARTITIONS),
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
}


def session_settings(spark) -> dict:
    return {key: spark.conf.get(key) for key in SPARK_DEFAULTS}


def plan_nodes(df, name: str) -> list:
    """The ``name`` nodes of ``df``'s executed plan, found by walking the plan
    tree's children. A cached relation's own plan is not a child, so the
    nodes that built Ã are not found (its plan string shows them)."""
    stack, found = [df._jdf.queryExecution().executedPlan()], []
    while stack:
        node = stack.pop()
        if node.getClass().getSimpleName() == name:
            found.append(node)
        children = node.children()
        stack += [children.apply(i) for i in range(children.size())]
    return found


@pytest.fixture
def spark_defaults(spark):
    """The shared session at ``SPARK_DEFAULTS``; its settings are restored
    afterwards."""
    old = session_settings(spark)
    for key, value in SPARK_DEFAULTS.items():
        spark.conf.set(key, value)
    yield spark
    for key, value in old.items():
        spark.conf.set(key, value)


@pytest.fixture(scope="module")
def setup(spark):
    n, src, dst, _ = gen.dcsbm(N, M, n_blocks=4, seed=5)
    g = LocalGraph(n, src, dst)
    norm = normalize_edges(edges_from_numpy(spark, src, dst), n)
    return g, norm


class TestSparkCpi:
    def test_family_window(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(norm, seed_vector_df(spark, 7), s_iter=0, t_iter=3), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), s_iter=0, t_iter=3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_mid_window(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(norm, seed_vector_df(spark, 7), s_iter=4, t_iter=8), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), s_iter=4, t_iter=8)
        assert np.abs(got - ref).sum() < 1e-10

    def test_converged_full(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(norm, seed_vector_df(spark, 7), eps=1e-3), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), eps=1e-3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_pagerank_tail(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(norm, uniform_vector_df(spark, g.n), s_iter=5, eps=1e-3),
            g.n,
        )
        ref = cpi(g, uniform_vector(g.n), s_iter=5, eps=1e-3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_empty_window_returns_zero_vector(self, spark, setup):
        g, norm = setup
        q = seed_vector_df(spark, 0)
        with SparkJobs(spark) as count:
            out = cpi_spark(norm, q, s_iter=5, t_iter=4, eps=1e-3)
        assert count.jobs <= 1  # no superstep runs
        assert l1_norm(out) == 0.0

    def test_negative_s_iter_raises(self, spark, setup):
        _, norm = setup
        with pytest.raises(ValueError):
            cpi_spark(norm, seed_vector_df(spark, 0), s_iter=-1)

    def test_result_reusable_after_return(self, spark, setup):
        """localCheckpoint must make the result independent of the loop's
        intermediate frames — consuming it twice gives identical rows."""
        g, norm = setup
        out = cpi_spark(norm, seed_vector_df(spark, 7), s_iter=0, t_iter=2)
        a = vector_to_numpy(out, g.n)
        b = vector_to_numpy(out, g.n)
        assert np.array_equal(a, b)

    def test_only_result_stays_persisted(self, spark, setup):
        """The checkpointed interim vectors are released once summed."""
        _, norm = setup
        rdds = spark.sparkContext._jsc.getPersistentRDDs
        before = set(rdds().keySet())
        out = cpi_spark(norm, uniform_vector_df(spark, N), s_iter=3, eps=1e-2)
        assert len(set(rdds().keySet()) - before) == 1
        assert out.count() > 0

    def test_shuffle_partitions_restored(self, spark_defaults, setup):
        """The scope pins all four settings, and a session whose values all
        differ from the pinned ones has its own back afterwards."""
        _, norm = setup
        with shuffle_partitions(spark_defaults):
            assert session_settings(spark_defaults) == PINNED
        release(cpi_spark(norm, seed_vector_df(spark_defaults, 0), s_iter=0, t_iter=1))
        assert session_settings(spark_defaults) == SPARK_DEFAULTS

    def test_session_settings_restored_on_error(self, spark_defaults, setup):
        _, norm = setup
        with pytest.raises(AnalysisException, match="score"):
            cpi_spark(norm, spark_defaults.range(3))  # no score column
        assert session_settings(spark_defaults) == SPARK_DEFAULTS

    def test_out_of_time(self, spark_defaults, setup):
        """An expired limit stops the call before its first superstep; x⁽⁰⁾'s
        checkpoint is released and the session's settings are back."""
        _, norm = setup
        rdds = spark_defaults.sparkContext._jsc.getPersistentRDDs
        before = set(rdds().keySet())
        with time_limit(0.0), pytest.raises(OutOfTime):
            time.sleep(0.01)
            cpi_spark(norm, uniform_vector_df(spark_defaults, N), s_iter=3, eps=1e-2)
        assert set(rdds().keySet()) - before == set()
        assert session_settings(spark_defaults) == SPARK_DEFAULTS


class TestSuperstepCost:
    """From x⁽¹⁾ on, a superstep's input is a checkpointed superstep output,
    hash-partitioned by ``id`` like Ã by ``src``: the join needs no exchange
    and the superstep, its ‖x‖₁ included, is one job."""

    @pytest.fixture
    def second_step(self, spark, setup):
        """The superstep x⁽¹⁾ → x⁽²⁾, unexecuted, inside CPI's settings."""
        _, norm = setup
        with shuffle_partitions(spark):
            x0, _ = checkpoint(scale_vector(seed_vector_df(spark, 7), C))
            x1, _ = checkpoint(propagate(norm, x0, C))
            yield propagate(norm, x1, C)
        release(x0)
        release(x1)

    def test_one_job(self, spark, second_step):
        with SparkJobs(spark) as count:
            x2, observed = checkpoint(second_step)
        assert count.jobs == 1
        assert abs(observed - l1_norm(x2)) < 1e-15
        release(x2)

    def test_one_job_on_spark_defaults(self, spark_defaults, second_step):
        """A broadcast of the vector would be a job of its own."""
        with SparkJobs(spark_defaults) as count:
            x2, _ = checkpoint(second_step)
        assert count.jobs == 1
        release(x2)

    def test_one_shuffle_exchange(self, second_step):
        assert len(plan_nodes(second_step, "ShuffleExchangeExec")) == 1

    def test_only_the_vector_is_sorted(self, second_step):
        """Ã arrives sorted by ``src`` from its degree join, so the
        sort-merge join sorts only the vector side."""
        (sort,) = plan_nodes(second_step, "SortExec")
        assert sort.sortOrder().apply(0).child().name() == "id"

    @pytest.mark.parametrize(
        "seeded,window,supersteps",
        [
            (True, {"s_iter": 0, "t_iter": 0}, 0),
            (True, {"s_iter": 0, "t_iter": 3}, 3),
            (False, {"s_iter": 5, "eps": 1e-2}, 17),  # c(1-c)^17 < 1e-2
        ],
    )
    def test_call_costs_supersteps_plus_two_jobs(self, spark, setup, seeded, window, supersteps):
        """x⁽⁰⁾, one job per superstep, and the window sum."""
        _, norm = setup
        q = seed_vector_df(spark, 7) if seeded else uniform_vector_df(spark, N)
        with SparkJobs(spark) as count:
            out = cpi_spark(norm, q, **window)
        assert count.jobs == supersteps + 2
        release(out)

    def test_call_on_spark_defaults(self, spark_defaults, setup):
        """The same k + 2 jobs, and the same vector, on Spark's defaults."""
        g, norm = setup
        with SparkJobs(spark_defaults) as count:
            out = cpi_spark(norm, seed_vector_df(spark_defaults, 7), s_iter=0, t_iter=3)
        assert count.jobs == 3 + 2
        got = vector_to_numpy(out, g.n)
        release(out)
        assert np.abs(got - cpi(g, seed_vector(g.n, 7), s_iter=0, t_iter=3)).sum() < 1e-10

    def test_normalize_one_job_on_spark_defaults(self, spark_defaults, setup):
        g, _ = setup
        edges = edges_from_numpy(spark_defaults, g.src, g.dst)
        with SparkJobs(spark_defaults) as count:
            norm = normalize_edges(edges, g.n)
        assert count.jobs == 1
        assert norm.rdd.getNumPartitions() == PARTITIONS
        norm.unpersist()


class TestDanglingDrain:
    """A graph with dangling sinks: mass that reaches one leaves the walk, so
    ‖x⁽ⁱ⁾‖₁ falls below c(1-c)ⁱ, and the frontier can empty. Sink 2 drains
    seed 0 within three steps; sinks 2 and 6 take part of seed 3's mass on
    each lap round the cycle 3 → 4 → 5 → 3."""

    SRC = [0, 1, 3, 3, 4, 5, 5]
    DST = [1, 2, 2, 4, 5, 3, 6]
    SEEDS = [0, 3, 2]  # drained, partly drained, no out-edges (x⁽¹⁾ empty)

    @pytest.fixture(scope="class")
    def dangling(self, spark):
        g = LocalGraph(7, np.array(self.SRC), np.array(self.DST))
        assert g.n_dangling == 2
        return g, normalize_edges(edges_from_numpy(spark, g.src, g.dst), g.n)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "window",
        [
            {"s_iter": 0, "t_iter": 3},  # the family window at S = 4
            {"s_iter": 0, "eps": 1e-9},
            {"s_iter": 1, "eps": 1e-6},
        ],
    )
    def test_matches_local(self, spark, dangling, seed, window):
        g, norm = dangling
        out = cpi_spark(norm, seed_vector_df(spark, seed), **window)
        got = vector_to_numpy(out, g.n)
        release(out)
        assert np.abs(got - cpi(g, seed_vector(g.n, seed), **window)).sum() < 1e-10

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interim_norms_bounded(self, spark, dangling, seed):
        _, norm = dangling
        for i in range(6):
            out = cpi_spark(norm, seed_vector_df(spark, seed), s_iter=i, t_iter=i)
            assert l1_norm(out) <= C * (1 - C) ** i + 1e-15
            release(out)
