"""Distributed TPA (Algorithms 2 and 3) over the Spark edge substrate.

Preprocessing (Algorithm 2) runs PageRank-CPI and keeps only the tail
iterations T..∞ — one pass over the graph per iteration, O(m) each (Lemma 5),
entirely seed-independent. The online phase (Algorithm 3) runs just S
supersteps from the seed, scales the family vector by the closed-form α
(Lemma 3), and merges with the precomputed stranger vector.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.cpi import cpi_spark
from repro.core.local_cpi import DEFAULT_C, DEFAULT_EPS
from repro.core.local_tpa import neighbor_scale
from repro.graph.edges import (
    normalize_edges,
    release,
    scale_vector,
    seed_vector_df,
    sum_vectors,
    uniform_vector_df,
    vector_to_numpy,
)

__all__ = ["SparkTPA"]


class SparkTPA:
    """Two Phase Approximation on Spark DataFrames.

    ``edges`` is the raw edge DataFrame; it is row-normalised (and persisted)
    at construction; an endpoint outside the node ids 0..n-1 raises
    ``ValueError``. The vectors that ``preprocess``, ``query`` and
    ``query_na`` return stay checkpointed until passed to ``release``.
    """

    name = "TPA-Spark"

    def __init__(
        self,
        spark: SparkSession,
        edges: DataFrame,
        n: int,
        *,
        c: float = DEFAULT_C,
        S: int = 4,
        T: int = 10,
        eps: float = DEFAULT_EPS,
    ) -> None:
        neighbor_scale(c, S, T)  # validates c, S, T
        self.spark = spark
        self.n = n
        self.c = c
        self.S = S
        self.T = T
        self.eps = eps
        self.norm_edges = normalize_edges(edges, n)
        self.r_stranger: DataFrame | None = None

    # -- Algorithm 2 -------------------------------------------------------
    def preprocess(self) -> DataFrame:
        """Stranger vector: iterations T..∞ of CPI with the PageRank seed."""
        q = uniform_vector_df(self.spark, self.n)
        self.r_stranger = cpi_spark(
            self.norm_edges,
            q,
            c=self.c,
            eps=self.eps,
            s_iter=self.T,
        )
        return self.r_stranger

    # -- Algorithm 3 -------------------------------------------------------
    def family(self, seed: int) -> DataFrame:
        """r_family: S supersteps of CPI from the seed (iterations 0..S-1)."""
        if not 0 <= seed < self.n:
            raise ValueError(f"seed {seed} outside the node ids [0, {self.n})")
        q = seed_vector_df(self.spark, seed)
        return cpi_spark(
            self.norm_edges,
            q,
            c=self.c,
            eps=self.eps,
            s_iter=0,
            t_iter=self.S - 1,
        )

    def query(self, seed: int) -> DataFrame:
        """r_TPA = r_TPA-NA + r̃_stranger as a sparse vector DataFrame."""
        if self.r_stranger is None:
            raise RuntimeError("call preprocess() before query()")
        na = self.query_na(seed)
        try:
            return sum_vectors([na, self.r_stranger]).localCheckpoint(eager=True)
        finally:
            release(na)  # the family vector, summed into the result

    def query_na(self, seed: int) -> DataFrame:
        """r_TPA-NA = (1+α)·r_family (stranger term omitted)."""
        fam = self.family(seed)
        return scale_vector(fam, 1.0 + neighbor_scale(self.c, self.S, self.T))

    # -- conveniences --------------------------------------------------------
    def query_np(self, seed: int) -> np.ndarray:
        """Dense numpy result, for metric computation against the oracle."""
        out = self.query(seed)
        try:
            return vector_to_numpy(out, self.n)
        finally:
            release(out)

    @property
    def preprocessed_bytes(self) -> int:
        """Stranger vector footprint: one (long, double) row per node."""
        return 0 if self.r_stranger is None else int(self.r_stranger.count()) * 16
