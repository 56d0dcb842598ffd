"""Property tests of the Spark path on tiny random graphs with what the
benchmark's DCSBM graphs never have: dangling nodes, self-loops,
multi-edges, disconnected parts and seeds without out-edges. Spark CPI
equals the local reference (≤1e-10 L1) on TPA's family window [0, S-1] and
stranger window [T, ∞), an interim vector obeys ‖x⁽ⁱ⁾‖₁ ≤ c(1-c)ⁱ, and a
Spark TPA answer is within Theorem 2's bound 2(1-c)^S of exact RWR.

The restart probability is 0.5, not the paper's 0.15, so that a stranger
window converges in ~10 supersteps and each example costs a few seconds."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cpi import cpi_spark
from repro.core.local_cpi import cpi, exact_rwr, seed_vector, uniform_vector
from repro.core.local_tpa import neighbor_scale
from repro.core.tpa import SparkTPA
from repro.graph.edges import (
    edges_from_numpy,
    l1_norm,
    normalize_edges,
    release,
    seed_vector_df,
    vector_to_numpy,
)
from repro.graph.linalg import LocalGraph

C, S, T, EPS = 0.5, 2, 4, 1e-3
# A graph with every case at once: multi-edge 0→1, self-loop 1→1, the
# disconnected part {3, 4, 5}, dangling nodes 5, 6 (isolated) and 7, seed 5.
EVERY_CASE = (8, [(0, 1), (0, 1), (1, 1), (1, 2), (2, 0), (2, 7), (3, 4), (4, 3), (4, 5)], 5)


@st.composite
def tiny_graphs(draw):
    """``(n, edges, seed)``: n ≤ 12 nodes, any edges (self-loops and
    multi-edges included) but none out of node n-1, so the graph always has
    a dangling node; the seed is any node."""
    n = draw(st.integers(2, 12))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(0, n - 1)), max_size=2 * n))
    return n, edges, draw(st.integers(0, n - 1))


def build(spark, graph):
    n, edges, seed = graph
    src, dst = (np.array([e[k] for e in edges], dtype=np.int64) for k in (0, 1))
    return LocalGraph(n, src, dst), edges_from_numpy(spark, src, dst), seed


class TestTinyGraphs:
    @settings(max_examples=4, deadline=None)
    @given(graph=tiny_graphs())
    @example(graph=EVERY_CASE)
    def test_tpa_windows_and_theorem2(self, spark, graph):
        """The family window is read off the answer: r = (1+α)·family + stranger."""
        g, edges, seed = build(spark, graph)
        tpa = SparkTPA(spark, edges, g.n, c=C, S=S, T=T, eps=EPS)
        stranger = vector_to_numpy(tpa.preprocess(), g.n)
        assert np.abs(stranger - cpi(g, uniform_vector(g.n), c=C, eps=EPS, s_iter=T)).sum() < 1e-10
        r = tpa.query_np(seed)
        family = (r - stranger) / (1 + neighbor_scale(C, S, T))
        want = cpi(g, seed_vector(g.n, seed), c=C, eps=EPS, t_iter=S - 1)
        assert np.abs(family - want).sum() < 1e-10
        assert np.abs(r - exact_rwr(g, seed, c=C)).sum() <= 2 * (1 - C) ** S + 1e-12
        release(tpa.r_stranger)
        tpa.norm_edges.unpersist()

    @settings(max_examples=5, deadline=None)
    @given(graph=tiny_graphs(), i=st.integers(0, 5))
    @example(graph=EVERY_CASE, i=3)
    def test_interim_norm_bounded(self, spark, graph, i):
        g, edges, seed = build(spark, graph)
        norm = normalize_edges(edges, g.n)
        x = cpi_spark(norm, seed_vector_df(spark, seed), c=C, s_iter=i, t_iter=i)
        assert l1_norm(x) <= C * (1 - C) ** i + 1e-15
        release(x)
        norm.unpersist()
