"""Distributed CPI (Algorithm 1) as iterative DataFrame message passing.

Each iteration is one superstep (shuffle join + shuffle aggregation); the
interim vector is ``localCheckpoint``-ed eagerly so lineage stays O(1) across
the potentially ~150 iterations a 1e-9 tolerance needs. The window
``[s_iter, t_iter]`` selects which interim vectors are accumulated — TPA's
family part is ``[0, S-1]``, the stranger preprocessing is ``[T, ∞)``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.local_cpi import DEFAULT_C, DEFAULT_EPS, MAX_ITER
from repro.graph.edges import (
    l1_norm,
    propagate,
    scale_vector,
    shuffle_partitions,
    sum_vectors,
)

__all__ = ["cpi_spark"]


def cpi_spark(
    spark: SparkSession,
    norm_edges: DataFrame,
    q: DataFrame,
    *,
    c: float = DEFAULT_C,
    eps: float = DEFAULT_EPS,
    s_iter: int = 0,
    t_iter: int | None = None,
    max_iter: int = MAX_ITER,
) -> DataFrame:
    """CPI-IMPL on Spark: returns the (sparse) vector Σ_{i=s_iter}^{t_iter} x⁽ⁱ⁾.

    ``q`` is the seed vector DataFrame (id, score) with q-values; internally
    x⁽⁰⁾ = c·q, exactly as Algorithm 1. The returned DataFrame is
    checkpointed and safe to reuse after this function returns.
    """
    if s_iter < 0:
        raise ValueError("s_iter must be >= 0")
    with shuffle_partitions(spark):
        x = scale_vector(q, c).localCheckpoint(eager=True)
        parts: list[DataFrame] = []
        empty = scale_vector(q.limit(0), 0.0)
        for i in range(max_iter):
            in_window = i >= s_iter and (t_iter is None or i <= t_iter)
            if in_window:
                parts.append(x)
            # ‖x⁽ⁱ⁾‖₁ — the convergence condition of Algorithm 1 (lines 8-10).
            if l1_norm(x) < eps:
                break
            if t_iter is not None and i >= t_iter:
                break
            x = propagate(norm_edges, x, c).localCheckpoint(eager=True)
        if not parts:
            return empty.localCheckpoint(eager=True)
        return sum_vectors(parts).localCheckpoint(eager=True)
