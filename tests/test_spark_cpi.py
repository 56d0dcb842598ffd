"""Distributed CPI vs the local reference: the Spark DataFrame implementation
must be numerically identical (≤1e-10 L1) on every window configuration."""
import numpy as np
import pytest

from repro.core.cpi import cpi_spark
from repro.core.local_cpi import cpi, seed_vector, uniform_vector
from repro.graph import generators as gen
from repro.graph.edges import (
    edges_from_numpy,
    l1_norm,
    normalize_edges,
    seed_vector_df,
    uniform_vector_df,
    vector_to_numpy,
)
from repro.graph.linalg import LocalGraph

N, M = 150, 1200


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
            cpi_spark(spark, norm, seed_vector_df(spark, 7), s_iter=0, t_iter=3), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), s_iter=0, t_iter=3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_mid_window(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, seed_vector_df(spark, 7), s_iter=4, t_iter=8), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), s_iter=4, t_iter=8)
        assert np.abs(got - ref).sum() < 1e-10

    def test_converged_full(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, seed_vector_df(spark, 7), eps=1e-3), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), eps=1e-3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_pagerank_tail(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, uniform_vector_df(spark, g.n), s_iter=5, eps=1e-3),
            g.n,
        )
        ref = cpi(g, uniform_vector(g.n), s_iter=5, eps=1e-3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_empty_window_returns_zero_vector(self, spark, setup):
        g, norm = setup
        out = cpi_spark(
            spark, norm, seed_vector_df(spark, 0), s_iter=5, t_iter=4, eps=1e-3
        )
        assert l1_norm(out) == 0.0

    def test_negative_s_iter_raises(self, spark, setup):
        _, norm = setup
        with pytest.raises(ValueError):
            cpi_spark(spark, norm, seed_vector_df(spark, 0), s_iter=-1)

    def test_max_iter_truncation(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, seed_vector_df(spark, 3), eps=0.0, max_iter=3), g.n
        )
        ref = cpi(g, seed_vector(g.n, 3), s_iter=0, t_iter=2)
        assert np.abs(got - ref).sum() < 1e-10

    def test_result_reusable_after_return(self, spark, setup):
        """localCheckpoint must make the result independent of the loop's
        intermediate frames — consuming it twice gives identical rows."""
        g, norm = setup
        out = cpi_spark(spark, norm, seed_vector_df(spark, 7), s_iter=0, t_iter=2)
        a = vector_to_numpy(out, g.n)
        b = vector_to_numpy(out, g.n)
        assert np.array_equal(a, b)

    def test_only_result_stays_persisted(self, spark, setup):
        """The checkpointed interim vectors are released once summed."""
        _, norm = setup
        rdds = spark.sparkContext._jsc.getPersistentRDDs
        before = set(rdds().keySet())
        out = cpi_spark(spark, norm, uniform_vector_df(spark, N), s_iter=3, eps=1e-2)
        assert len(set(rdds().keySet()) - before) == 1
        assert out.count() > 0

    def test_shuffle_partitions_restored(self, spark, setup):
        _, norm = setup
        before = spark.conf.get("spark.sql.shuffle.partitions")
        cpi_spark(spark, norm, seed_vector_df(spark, 0), s_iter=0, t_iter=1)
        assert spark.conf.get("spark.sql.shuffle.partitions") == before
