"""Distributed CPI vs the local reference: the Spark DataFrame implementation
must be numerically identical (≤1e-10 L1) on every window configuration,
and a superstep must cost one Spark job with one shuffle."""
import numpy as np
import pytest
from helpers import SparkJobs
from pyspark.errors import AnalysisException

from repro.core.cpi import cpi_spark
from repro.core.local_cpi import cpi, seed_vector, uniform_vector
from repro.graph import generators as gen
from repro.graph.edges import (
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
SESSION_KEYS = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled")


def shuffle_exchanges(df) -> int:
    """``ShuffleExchangeExec`` nodes in ``df``'s executed plan, found by walking
    the plan tree's children. A cached relation's own plan is not a child, so
    the exchanges that built Ã are not counted (its plan string shows them)."""
    stack, found = [df._jdf.queryExecution().executedPlan()], 0
    while stack:
        node = stack.pop()
        found += node.getClass().getSimpleName() == "ShuffleExchangeExec"
        children = node.children()
        stack += [children.apply(i) for i in range(children.size())]
    return found


@pytest.fixture(scope="module")
def setup(spark):
    n, src, dst, _ = gen.dcsbm(N, M, n_blocks=4, seed=5)
    g = LocalGraph(n, src, dst)
    norm = normalize_edges(edges_from_numpy(spark, src, dst))
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
        out = cpi_spark(
            norm, seed_vector_df(spark, 0), s_iter=5, t_iter=4, eps=1e-3
        )
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

    def test_shuffle_partitions_restored(self, spark, setup):
        _, norm = setup
        before = {k: spark.conf.get(k) for k in SESSION_KEYS}
        cpi_spark(norm, seed_vector_df(spark, 0), s_iter=0, t_iter=1)
        assert {k: spark.conf.get(k) for k in SESSION_KEYS} == before

    def test_session_settings_restored_on_error(self, spark, setup):
        _, norm = setup
        before = {k: spark.conf.get(k) for k in SESSION_KEYS}
        with pytest.raises(AnalysisException, match="score"):
            cpi_spark(norm, spark.range(3))  # no score column
        assert {k: spark.conf.get(k) for k in SESSION_KEYS} == before


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

    def test_one_shuffle_exchange(self, second_step):
        assert shuffle_exchanges(second_step) == 1

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
        return g, normalize_edges(edges_from_numpy(spark, g.src, g.dst))

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
