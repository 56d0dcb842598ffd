"""Distributed CPI (Algorithm 1) as iterative DataFrame message passing.

Each iteration is one superstep: a co-partitioned join of the vector with Ã
and one shuffle aggregation by destination. The interim vector is
``localCheckpoint``-ed eagerly so lineage stays O(1) across the potentially
~150 iterations a 1e-9 tolerance needs, and ‖x⁽ⁱ⁾‖₁ is observed inside that
checkpoint job, so a superstep is one Spark job. The window
``[s_iter, t_iter]`` selects which interim vectors are accumulated — TPA's
family part is ``[0, S-1]``, the stranger preprocessing is ``[T, ∞)``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.local_cpi import DEFAULT_C, DEFAULT_EPS, MAX_ITER
from repro.deadline import check
from repro.graph.edges import (  # noqa: F401  (l1_norm: looked up here by perfbench's tracer)
    checkpoint,
    l1_norm,
    propagate,
    release,
    scale_vector,
    shuffle_partitions,
    sum_vectors,
)

__all__ = ["cpi_spark"]


def cpi_spark(
    norm_edges: DataFrame,
    q: DataFrame,
    *,
    c: float = DEFAULT_C,
    eps: float = DEFAULT_EPS,
    s_iter: int = 0,
    t_iter: int | None = None,
) -> DataFrame:
    """CPI-IMPL on Spark: returns the (sparse) vector Σ_{i=s_iter}^{t_iter} x⁽ⁱ⁾.

    ``q`` is the seed vector DataFrame (id, score) with q-values; internally
    x⁽⁰⁾ = c·q, exactly as Algorithm 1, in ``norm_edges``' session, for at
    most ``MAX_ITER`` supersteps. A call with k supersteps runs k + 2
    Spark jobs: x⁽⁰⁾, one per superstep, and the window sum; an empty
    window (``t_iter < s_iter``) runs none of them; a superstep first calls
    ``deadline.check()``. The result is checkpointed and safe to reuse; the
    interim vectors' checkpoints are released before return or raise.
    """
    if s_iter < 0:
        raise ValueError("s_iter must be >= 0")
    with shuffle_partitions(norm_edges.sparkSession):
        empty = scale_vector(q.limit(0), 0.0)
        if t_iter is not None and t_iter < s_iter:
            return empty.localCheckpoint(eager=True)  # an empty window needs no superstep
        x, norm = checkpoint(scale_vector(q, c))
        xs = [x]  # every interim vector, released once the result is materialised
        try:
            parts: list[DataFrame] = []
            for i in range(MAX_ITER):
                if i >= s_iter:  # and i <= t_iter: the loop ends at t_iter
                    parts.append(x)
                # ‖x⁽ⁱ⁾‖₁ — the convergence condition of Algorithm 1 (lines 8-10).
                if norm < eps:
                    break
                if t_iter is not None and i >= t_iter:
                    break
                check()
                x, norm = checkpoint(propagate(norm_edges, x, c))
                xs.append(x)
            return (sum_vectors(parts) if parts else empty).localCheckpoint(eager=True)
        finally:
            for v in xs:
                release(v)
