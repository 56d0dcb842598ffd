"""Run distributed TPA end-to-end on a generated graph and print the top-k
RWR ranking for a seed — the "Who to Follow"-style query of Section IV-B2.

    spark-submit jobs/run_tpa.py [--n 8000 --m 64000 --seed-node 0 --topk 10]
"""
import argparse

import numpy as np
from pyspark.sql import SparkSession

from repro.core.tpa import SparkTPA
from repro.graph.edges import edges_from_numpy
from repro.graph.generators import dcsbm

if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n", type=int, default=8000)
    p.add_argument("--m", type=int, default=64000)
    p.add_argument("--seed-node", type=int, default=0)
    p.add_argument("--S", type=int, default=4)
    p.add_argument("--T", type=int, default=10)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--topk", type=int, default=10)
    args = p.parse_args()
    spark = SparkSession.builder.appName("tpa-run").getOrCreate()
    try:
        _, src, dst, _ = dcsbm(args.n, args.m, seed=0)
        edges = edges_from_numpy(spark, src, dst)
        tpa = SparkTPA(spark, edges, args.n, S=args.S, T=args.T, eps=args.eps)
        tpa.preprocess()
        r = tpa.query_np(args.seed_node)
        top = np.argsort(-r)[: args.topk]
        print(f"top-{args.topk} RWR ranking for seed {args.seed_node}:")
        for rank, v in enumerate(top, 1):
            print(f"  {rank:2d}. node {v:8d}  score {r[v]:.6f}")
    finally:
        spark.stop()
