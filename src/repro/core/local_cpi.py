"""CPI (Algorithm 1) and exact RWR/PageRank on the local numpy substrate.

CPI interprets RWR as score propagation: ``x⁽⁰⁾ = c·q``,
``x⁽ⁱ⁾ = (1-c)·Ãᵀ x⁽ⁱ⁻¹⁾``, and ``r = Σ x⁽ⁱ⁾`` over a window
``[s_iter, t_iter]`` of iterations. With the full window this equals the
power-iteration fixed point (paper Theorem 1), so ``exact_rwr`` here is the
ground-truth provider (the paper used BePI, also an exact solver).
"""
from __future__ import annotations

import numpy as np

from repro.deadline import check
from repro.graph.linalg import LocalGraph

__all__ = [
    "cpi",
    "exact_rwr",
    "pagerank",
    "seed_vector",
    "uniform_vector",
    "n_iterations_to_converge",
]

DEFAULT_C = 0.15
DEFAULT_EPS = 1e-9
MAX_ITER = 10_000


def seed_vector(n: int, seeds) -> np.ndarray:
    """Seed vector q: 1/|S| at each seed node (Algorithm 1, line 1)."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    q = np.zeros(n)
    q[seeds] = 1.0 / len(seeds)
    return q


def uniform_vector(n: int) -> np.ndarray:
    """PageRank seed vector (1/n)·1 — every node is a seed (Algorithm 2)."""
    return np.full(n, 1.0 / n)


def cpi(
    graph: LocalGraph,
    q: np.ndarray,
    *,
    c: float = DEFAULT_C,
    eps: float = DEFAULT_EPS,
    s_iter: int = 0,
    t_iter: int | None = None,
) -> np.ndarray:
    """CPI-IMPL (Algorithm 1): return ``Σ_{i=s_iter}^{t_iter} x⁽ⁱ⁾``.

    Iterations stop early once ``‖x⁽ⁱ⁾‖₁ < eps`` (the convergence condition),
    or at ``t_iter`` when given (inclusive, matching the paper's window
    notation: family = iterations 0..S-1 is ``t_iter=S-1``), and in any case
    after ``MAX_ITER`` iterations. Each push first calls ``deadline.check()``.
    """
    if s_iter < 0:
        raise ValueError("s_iter must be >= 0")
    if t_iter is not None and t_iter < s_iter:
        return np.zeros(graph.n)
    x = c * np.asarray(q, dtype=np.float64)
    r = np.zeros(graph.n)
    for i in range(MAX_ITER):
        if i >= s_iter:
            r += x
        norm = np.abs(x).sum()
        if norm < eps:
            break
        if t_iter is not None and i >= t_iter:
            break
        check()
        x = (1.0 - c) * graph.push(x)
    return r


def exact_rwr(
    graph: LocalGraph,
    seed: int,
    *,
    c: float = DEFAULT_C,
    eps: float = 1e-12,
) -> np.ndarray:
    """Exact RWR vector for one seed (converged CPI; Theorem 1 ⇒ exact)."""
    return cpi(graph, seed_vector(graph.n, seed), c=c, eps=eps)


def pagerank(
    graph: LocalGraph,
    *,
    c: float = DEFAULT_C,
    eps: float = DEFAULT_EPS,
    s_iter: int = 0,
) -> np.ndarray:
    """PageRank via CPI with the uniform seed vector, summed from iteration
    ``s_iter`` on (Algorithm 2 uses ``s_iter=T``)."""
    return cpi(
        graph,
        uniform_vector(graph.n),
        c=c,
        eps=eps,
        s_iter=s_iter,
    )


def n_iterations_to_converge(c: float, eps: float) -> int:
    """Closed-form iteration count: ‖x⁽ⁱ⁾‖₁ = c(1-c)ⁱ < eps (Lemma 5)."""
    return int(np.ceil(np.log(eps / c) / np.log(1.0 - c)))
