"""Distributed graph substrate: Spark DataFrame graph operations.

A graph is an edge DataFrame ``(src: long, dst: long)``; a score vector is a
*sparse* DataFrame ``(id: long, score: double)`` holding only non-zero
entries. One CPI step is one Pregel/GraphX-style superstep expressed in
Catalyst: ``edges ⋈ scores on src → groupBy(dst).sum((1-c)·w·score)`` — a
co-partitioned join plus one aggregation shuffle. Ã is hash-partitioned by
``src`` and a checkpointed vector by ``id``, both at ``PARTITIONS``, so the
join needs no exchange. The session settings this rests on (no adaptive
query execution, no broadcast joins) are pinned by ``shuffle_partitions``,
whatever the caller's session says.

Every operation here is mirrored by a DuckDB SQL statement in the oracle
tests (tests/test_oracle_graph.py): a wrong join or aggregation is caught by
result diffing, not just by "it ran".
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

__all__ = [
    "edges_from_numpy",
    "out_degrees",
    "normalize_edges",
    "propagate",
    "seed_vector_df",
    "uniform_vector_df",
    "sum_vectors",
    "scale_vector",
    "l1_norm",
    "checkpoint",
    "vector_to_numpy",
    "release",
    "shuffle_partitions",
    "PARTITIONS",
]

# The one partition count of the distributed path: Ã is persisted
# hash-partitioned by ``src`` at this count, and CPI's shuffles run at it.
PARTITIONS = 8


@contextmanager
def shuffle_partitions(spark: SparkSession):
    """The scope of the Spark path's session settings; the session's values
    are restored on exit, also when the body raises. It pins four:

    - ``spark.sql.shuffle.partitions`` = ``PARTITIONS``: iterative graph jobs
      on small-to-medium vectors drown in task overhead at a larger count.
    - ``spark.sql.adaptive.enabled`` = false: under adaptive query execution
      a checkpointed vector loses its ``hashpartitioning(id, PARTITIONS)``
      and is reshuffled for the join with Ã every superstep, and a read of an
      observed metric costs extra jobs.
    - ``spark.sql.autoBroadcastJoinThreshold`` = -1: a vector small enough
      to broadcast would be joined with Ã by a broadcast job of its own, so
      a superstep would be two jobs.
    - ``spark.sql.execution.arrow.pyspark.enabled`` = true: data moves
      between pandas and Spark through Arrow.
    """
    settings = {
        "spark.sql.shuffle.partitions": str(PARTITIONS),
        "spark.sql.adaptive.enabled": "false",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
    }
    old = {key: spark.conf.get(key) for key in settings}
    try:
        for key, value in settings.items():
            spark.conf.set(key, value)
        yield
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)


def edges_from_numpy(spark: SparkSession, src: np.ndarray, dst: np.ndarray) -> DataFrame:
    """Edge DataFrame from numpy endpoint arrays (through Arrow)."""
    pdf = pd.DataFrame({"src": np.asarray(src, np.int64), "dst": np.asarray(dst, np.int64)})
    with shuffle_partitions(spark):
        return spark.createDataFrame(pdf, "src long, dst long")  # no schema to infer from 0 edges


def out_degrees(edges: DataFrame) -> DataFrame:
    """``(id, out_deg)`` for every node with at least one out-edge."""
    return edges.groupBy(F.col("src").alias("id")).agg(F.count("*").alias("out_deg"))


def normalize_edges(edges: DataFrame, n: int) -> DataFrame:
    """Row-normalised edges ``(src, dst, w)`` with ``w = 1/out_deg(src)``.

    This is Ã in edge form; dangling nodes simply contribute no rows. The
    degree join runs inside ``shuffle_partitions``, so its result is
    hash-partitioned by ``src`` at ``PARTITIONS`` and sorted by ``src``
    (edges co-located with their source vertex, as in Pregel/GraphX). It is
    persisted and materialised — it is reused every iteration. That job also
    counts the edges with a null endpoint or one outside [0, n): ``ValueError`` if any.
    """
    obs = Observation()
    ok = F.col("src").between(0, n - 1) & F.col("dst").between(0, n - 1)  # null if one is null
    observed = edges.observe(obs, F.sum(F.when(ok, 0).otherwise(1)).alias("bad"))
    deg = out_degrees(edges)
    with shuffle_partitions(edges.sparkSession):
        norm = (
            observed.join(deg, observed["src"] == deg["id"], "inner")
            .select("src", "dst", (F.lit(1.0) / F.col("out_deg")).alias("w"))
            .persist()
        )
        norm.count()  # materialise so iteration timing excludes normalisation
    if obs.get["bad"]:
        norm.unpersist()
        raise ValueError(f"{obs.get['bad']} edges have a null endpoint or one outside [0, {n})")
    return norm


def propagate(norm_edges: DataFrame, x: DataFrame, c: float) -> DataFrame:
    """One CPI superstep: ``x' = (1-c)·Ãᵀ x`` as join + aggregate."""
    return (
        norm_edges.join(x, norm_edges["src"] == x["id"], "inner")
        .groupBy(F.col("dst").alias("id"))
        .agg((F.lit(1.0 - c) * F.sum(F.col("w") * F.col("score"))).alias("score"))
    )


def seed_vector_df(spark: SparkSession, seeds) -> DataFrame:
    """Sparse seed vector: ``1 / |seeds|`` at each seed node."""
    seeds = [int(s) for s in np.atleast_1d(seeds)]
    pdf = pd.DataFrame({"id": np.asarray(seeds, np.int64), "score": 1.0 / len(seeds)})
    return spark.createDataFrame(pdf)


def uniform_vector_df(spark: SparkSession, n: int) -> DataFrame:
    """Dense uniform vector ``1/n`` at every node 0..n-1 (PageRank seed)."""
    return spark.range(n).select(F.col("id").cast("long"), F.lit(1.0 / n).alias("score"))


def sum_vectors(vectors: list[DataFrame]) -> DataFrame:
    """Entry-wise sum of sparse vectors: union-all then one aggregation.

    CPI's result literally is a sum of interim vectors, so accumulating this
    way needs a single shuffle instead of one per iteration.
    """
    if not vectors:
        raise ValueError("sum_vectors needs at least one vector")
    acc = vectors[0]
    for v in vectors[1:]:
        acc = acc.unionByName(v)
    return acc.groupBy("id").agg(F.sum("score").alias("score"))


def scale_vector(x: DataFrame, factor: float) -> DataFrame:
    """``factor · x``."""
    return x.select("id", (F.col("score") * F.lit(float(factor))).alias("score"))


def _l1():
    return F.sum(F.abs(F.col("score"))).alias("l1")


def l1_norm(x: DataFrame) -> float:
    """‖x‖₁ as a job of its own; CPI reads it from ``checkpoint`` instead."""
    return float(x.agg(_l1()).collect()[0]["l1"] or 0.0)


def checkpoint(x: DataFrame) -> tuple[DataFrame, float]:
    """``x`` eagerly ``localCheckpoint``-ed, and ‖x‖₁ observed in that same job.

    An empty ``x`` observes a null sum, read as 0.0. Each call needs a fresh
    ``Observation``: one can be attached to a single query only.
    """
    obs = Observation()
    x = x.observe(obs, _l1()).localCheckpoint(eager=True)
    return x, float(obs.get["l1"] or 0.0)


def release(x: DataFrame) -> None:
    """Free the checkpointed data that ``x`` reads from.

    ``DataFrame.unpersist`` does not drop a ``localCheckpoint``: its blocks
    belong to the RDD under a ``LogicalRDD`` leaf of the plan, and that RDD
    is unpersisted here, without a Spark job (through the context, because
    ``RDD.unpersist`` logs a warning for every locally checkpointed RDD).
    The call blocks until the blocks are gone. ``x``, and every frame built
    on the same leaves, is unusable afterwards.
    """
    sc = x.sparkSession.sparkContext._jsc.sc()
    leaves = x._jdf.queryExecution().analyzed().collectLeaves()
    for i in range(leaves.size()):
        leaf = leaves.apply(i)
        if leaf.getClass().getSimpleName() == "LogicalRDD":
            sc.unpersistRDD(leaf.rdd().id(), True)


def vector_to_numpy(x: DataFrame, n: int) -> np.ndarray:
    """Densify a sparse score vector to a length-n numpy array."""
    with shuffle_partitions(x.sparkSession):
        pdf = x.toPandas()
    out = np.zeros(n)
    if len(pdf):
        out[pdf["id"].to_numpy(np.int64)] = pdf["score"].to_numpy(np.float64)
    return out
