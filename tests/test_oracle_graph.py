"""DuckDB-oracle tests for the Spark dataflow primitives.

Every Catalyst join/aggregation that CPI is built from is re-expressed as
DuckDB SQL over the same inputs and result-diffed via
``repro.oracle.assert_equivalent`` — a wrong join key or aggregation is
caught by value, not by "it ran".
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph import generators as gen
from repro.graph.edges import (
    edges_from_numpy,
    normalize_edges,
    out_degrees,
    propagate,
    scale_vector,
    seed_vector_df,
    sum_vectors,
    uniform_vector_df,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tiny(spark):
    n, src, dst, _ = gen.dcsbm(120, 900, n_blocks=4, seed=3)
    edges = edges_from_numpy(spark, src, dst)
    return n, src, dst, edges


@pytest.fixture(scope="module")
def edges_pdf(tiny):
    _, src, dst, _ = tiny
    return pd.DataFrame({"src": src, "dst": dst})


class TestDegreesOracle:
    def test_out_degrees(self, tiny, edges_pdf):
        _, _, _, edges = tiny
        assert_equivalent(
            out_degrees(edges),
            "SELECT src AS id, COUNT(*) AS out_deg FROM edges GROUP BY src",
            edges=edges_pdf,
        )

    def test_oracle_detects_wrong_result(self, tiny, edges_pdf):
        """The oracle is only a check if it can fail: off-by-one degrees
        must not pass as equal."""
        _, _, _, edges = tiny
        wrong = out_degrees(edges).select("id", (F.col("out_deg") + 1).alias("out_deg"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT src AS id, COUNT(*) AS out_deg FROM edges GROUP BY src",
                edges=edges_pdf,
            )

    def test_normalized_edges(self, tiny, edges_pdf):
        n, _, _, edges = tiny
        assert_equivalent(
            normalize_edges(edges, n),
            """
            SELECT e.src, e.dst, 1.0 / d.out_deg AS w
            FROM edges e
            JOIN (SELECT src, COUNT(*) AS out_deg FROM edges GROUP BY src) d
              ON e.src = d.src
            """,
            edges=edges_pdf,
        )

    def test_normalized_weights_sum_to_one_per_source(self, tiny):
        n, _, _, edges = tiny
        sums = (
            normalize_edges(edges, n)
            .groupBy("src")
            .agg(F.sum("w").alias("s"))
            .toPandas()["s"]
        )
        assert np.allclose(sums, 1.0)


class TestPropagateOracle:
    def test_one_step_matches_sql(self, spark, tiny, edges_pdf):
        n, src, dst, edges = tiny
        norm = normalize_edges(edges, n)
        rng = np.random.default_rng(0)
        x_pdf = pd.DataFrame({"id": np.arange(n), "score": rng.random(n)})
        x = spark.createDataFrame(x_pdf)
        c = 0.15
        assert_equivalent(
            propagate(norm, x, c),
            f"""
            SELECT e.dst AS id, {1-c} * SUM(x.score / d.out_deg) AS score
            FROM edges e
            JOIN (SELECT src, COUNT(*) AS out_deg FROM edges GROUP BY src) d
              ON e.src = d.src
            JOIN x ON e.src = x.id
            GROUP BY e.dst
            """,
            edges=edges_pdf,
            x=x_pdf,
        )

    def test_one_step_matches_local_spmv(self, spark, tiny):
        """The Spark superstep equals the numpy substrate's SpMV."""
        from repro.graph.linalg import LocalGraph
        from repro.graph.edges import vector_to_numpy

        n, src, dst, edges = tiny
        g = LocalGraph(n, src, dst)
        rng = np.random.default_rng(1)
        xv = rng.random(n)
        x = spark.createDataFrame(pd.DataFrame({"id": np.arange(n), "score": xv}))
        got = vector_to_numpy(propagate(normalize_edges(edges, n), x, 0.15), n)
        assert np.allclose(got, 0.85 * g.push(xv))


class TestVectorOpsOracle:
    def test_sum_vectors_matches_sql(self, spark):
        a_pdf = pd.DataFrame({"id": [0, 1, 2], "score": [0.1, 0.2, 0.3]})
        b_pdf = pd.DataFrame({"id": [1, 2, 3], "score": [1.0, 1.0, 1.0]})
        a = spark.createDataFrame(a_pdf)
        b = spark.createDataFrame(b_pdf)
        assert_equivalent(
            sum_vectors([a, b]),
            """
            SELECT id, SUM(score) AS score FROM (
              SELECT * FROM a UNION ALL SELECT * FROM b
            ) GROUP BY id
            """,
            a=a_pdf,
            b=b_pdf,
        )

    def test_scale_vector_matches_sql(self, spark):
        a_pdf = pd.DataFrame({"id": [0, 1], "score": [0.5, 0.25]})
        a = spark.createDataFrame(a_pdf)
        assert_equivalent(
            scale_vector(a, 2.0),
            "SELECT id, score * 2.0 AS score FROM a",
            a=a_pdf,
        )

    def test_seed_vector(self, spark):
        pdf = seed_vector_df(spark, [3, 5]).toPandas().sort_values("id")
        assert pdf["id"].tolist() == [3, 5]
        assert np.allclose(pdf["score"], 0.5)

    def test_uniform_vector(self, spark):
        pdf = uniform_vector_df(spark, 10).toPandas()
        assert len(pdf) == 10
        assert np.allclose(pdf["score"], 0.1)

    def test_sum_vectors_empty_list_raises(self):
        with pytest.raises(ValueError):
            sum_vectors([])
