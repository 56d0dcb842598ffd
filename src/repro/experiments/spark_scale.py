"""Distributed-TPA scalability table (DESIGN.md table TS).

The paper's headline claim is that only TPA preprocesses billion-scale
graphs; the mechanism is Theorem 3 — O(m) work per CPI iteration, a bounded
iteration count, and O(n+m) state. This table measures the Spark
implementation's preprocessing and online wall-clock across growing DCSBM
graphs and reports seconds-per-iteration-per-edge, which should stay roughly
flat (the O(m)/iteration check).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.local_cpi import DEFAULT_C, n_iterations_to_converge
from repro.core.tpa import SparkTPA
from repro.graph.edges import edges_from_numpy, release
from repro.graph.generators import dcsbm

__all__ = ["spark_scale_table", "DEFAULT_SIZES"]

# (n, m) pairs: ~8x edge growth across the sweep.
DEFAULT_SIZES = [(2_000, 16_000), (8_000, 64_000), (16_000, 256_000), (32_000, 1_024_000)]


def spark_scale_table(
    spark: SparkSession,
    *,
    sizes: list[tuple[int, int]] | None = None,
    S: int = 4,
    T: int = 10,
    eps: float = 1e-6,
    n_seeds: int = 3,
) -> pd.DataFrame:
    """Run SparkTPA preprocess + online over growing graphs.

    ``eps`` defaults to 1e-6 (not the paper's 1e-9) to keep the sweep's
    iteration count (74 instead of 116 at c=0.15) within the benchmark
    budget; the per-iteration cost — the quantity under test — is unchanged.
    """
    sizes = DEFAULT_SIZES if sizes is None else sizes
    iters = n_iterations_to_converge(DEFAULT_C, eps)
    rows = []
    for n, m in sizes:
        # Seeded by size, so a one-size call builds the same graph as the sweep.
        _, src, dst, _ = dcsbm(n, m, seed=100 + n)
        tpa = SparkTPA(spark, edges_from_numpy(spark, src, dst), n, S=S, T=T, eps=eps)
        t0 = time.perf_counter()
        tpa.preprocess()
        pre = time.perf_counter() - t0
        rng = np.random.default_rng(0)
        seeds = rng.integers(0, n, size=n_seeds)
        times = []
        for s in seeds:
            t0 = time.perf_counter()
            tpa.query_np(int(s))  # materialise the result like a real user
            times.append(time.perf_counter() - t0)
        rows.append(
            {
                "nodes": n,
                "edges": m,
                "pre_time_s": pre,
                "pre_s_per_iter": pre / iters,
                "online_time_s": float(np.mean(times)),
                "stranger_bytes": tpa.preprocessed_bytes,
            }
        )
        release(tpa.r_stranger)
        tpa.norm_edges.unpersist()
    df = pd.DataFrame(rows)
    # O(m)/iteration check: normalised per-edge iteration cost
    df["pre_us_per_edge_iter"] = df["pre_s_per_iter"] / df["edges"] * 1e6
    return df
