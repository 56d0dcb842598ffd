"""Distributed TPA (Algorithms 2–3 on Spark) vs the local reference, plus
its accuracy bound against exact RWR."""
import numpy as np
import pytest

from repro.core.local_cpi import exact_rwr
from repro.core.local_tpa import LocalTPA
from repro.core.tpa import SparkTPA
from repro.graph import generators as gen
from repro.graph.edges import PARTITIONS, edges_from_numpy, vector_to_numpy
from repro.graph.linalg import LocalGraph
from repro.metrics import l1_error, spearman

N, M, S, T, EPS = 150, 1200, 3, 8, 1e-4


@pytest.fixture(scope="module")
def g():
    n, src, dst, _ = gen.dcsbm(N, M, n_blocks=4, seed=6)
    return LocalGraph(n, src, dst)


@pytest.fixture(scope="module")
def spark_tpa(spark, g):
    tpa = SparkTPA(
        spark, edges_from_numpy(spark, g.src, g.dst), g.n, S=S, T=T, eps=EPS
    )
    tpa.preprocess()
    return tpa


@pytest.fixture(scope="module")
def local_tpa(g):
    t = LocalTPA(g, S=S, T=T, eps=EPS)
    t.preprocess()
    return t


class TestSparkTPA:
    def test_stranger_matches_local(self, g, spark_tpa, local_tpa):
        got = vector_to_numpy(spark_tpa.r_stranger, g.n)
        assert np.abs(got - local_tpa.r_stranger).sum() < 1e-10

    def test_query_matches_local(self, g, spark_tpa, local_tpa):
        for s in (0, 77):
            assert np.abs(spark_tpa.query_np(s) - local_tpa.query(s)).sum() < 1e-10

    def test_query_na_matches_local(self, g, spark_tpa, local_tpa):
        got = vector_to_numpy(spark_tpa.query_na(33), g.n)
        assert np.abs(got - local_tpa.query_na(33)).sum() < 1e-10

    def test_theorem2_bound(self, g, spark_tpa):
        """‖r_exact − r_TPA‖₁ ≤ 2(1-c)^S holds for the distributed result."""
        r = spark_tpa.query_np(42)
        exact = exact_rwr(g, 42)
        assert l1_error(r, exact) <= 2 * 0.85**S + 1e-6

    def test_ranking_quality(self, g, spark_tpa):
        r = spark_tpa.query_np(42)
        assert spearman(r, exact_rwr(g, 42)) > 0.85

    def test_query_requires_preprocess(self, spark, g):
        t = SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, S=S, T=T)
        with pytest.raises(RuntimeError):
            t.query(0)

    def test_preprocessed_bytes(self, g, spark_tpa):
        """16 bytes (long + double) per node reached by the stranger tail."""
        assert spark_tpa.preprocessed_bytes == spark_tpa.r_stranger.count() * 16

    def test_invalid_window_rejected(self, spark, g):
        with pytest.raises(ValueError):
            SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, S=5, T=4)

    def test_norm_edges_partitioned_at_partition_count(self, spark_tpa):
        """Ã is persisted at the single partition count CPI shuffles at, not
        at the session's shuffle-partition default."""
        assert spark_tpa.norm_edges.rdd.getNumPartitions() == PARTITIONS

    def test_norm_edges_not_repartitioned(self, spark_tpa):
        """The degree join already partitions Ã by ``src``: its plan holds the
        join's two exchanges and no repartition."""
        plan = spark_tpa.norm_edges._jdf.queryExecution().executedPlan().toString()
        assert "REPARTITION_BY_NUM" not in plan
        assert plan.count("Exchange hashpartitioning") == 2

    @pytest.mark.parametrize("seed", [-1, N])
    def test_seed_outside_node_ids_rejected(self, spark_tpa, seed):
        with pytest.raises(ValueError, match="outside the node ids"):
            spark_tpa.family(seed)

    @pytest.mark.parametrize(
        "bad_edge", [(None, 1), (0, -1), (1, 4)], ids=["null", "negative", "equal-to-n"]
    )
    def test_bad_edge_id_rejected(self, spark, bad_edge):
        """On the 4-cycle an edge 0→-1 used to move mass into node 3's slot."""
        rows = [(0, 1), (1, 2), (2, 3), (3, 0), bad_edge]
        edges = spark.createDataFrame(rows, "src long, dst long")
        with pytest.raises(ValueError, match=r"1 edges have a null endpoint or one outside \[0, 4"):
            SparkTPA(spark, edges, 4, S=S, T=T)

    def test_invalid_c_rejected(self, spark, g):
        with pytest.raises(ValueError, match="restart probability"):
            SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, c=1.5, S=S, T=T)

    def test_cached_rdds_bounded_across_queries(self, spark, g, spark_tpa):
        """Interim vectors are released: query N leaves as many persistent
        RDDs behind as query 1 (counting only RDDs persisted by the queries,
        since Spark's cleaner may drop older unreferenced ones meanwhile)."""
        rdds = spark.sparkContext._jsc.getPersistentRDDs
        before = set(rdds().keySet())
        counts = []
        for s in (5, 60, 110, 5):
            spark_tpa.query_np(s)
            counts.append(len(set(rdds().keySet()) - before))
        assert counts == [counts[0]] * len(counts)
        # the kept vectors are still usable
        assert spark_tpa.r_stranger.count() > 0
        assert spark_tpa.norm_edges.count() == len(g.src)
