"""Benchmark inputs and the independent numpy reference they are checked against.

Nothing here imports ``repro``: the graph generator, the CPI iteration and the
exact RWR are written from the paper (Algorithm 1, Lemma 3, Theorem 2) with
``np.bincount`` SpMV, so a fault in the program's own numpy substrate cannot
hide a fault in its Spark path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 100_000


@dataclass(frozen=True)
class Graph:
    """Directed graph over ``0..n-1`` with per-edge weights ``w = 1/out_deg(src)``."""

    n: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def m(self) -> int:
        return len(self.src)

    @property
    def out_deg(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n)

    def step(self, x: np.ndarray, c: float) -> np.ndarray:
        """One CPI step ``(1-c)·Ãᵀx`` as a scatter-add over the edge list."""
        w = 1.0 / self.out_deg[self.src]
        return (1.0 - c) * np.bincount(self.dst, weights=w * x[self.src], minlength=self.n)


def dcsbm(n: int, m: int, seed: int, *, blocks: int = 32, p_in: float = 0.8) -> Graph:
    """Degree-corrected stochastic block model without self-loops, duplicate
    edges or dangling nodes.

    Sources follow Zipf(0.7) weights and destinations Zipf(0.9) weights, both
    on a random permutation of the ids, so hubs and leaves are spread over
    the id space. With probability ``p_in`` an edge stays inside the source's
    block (``blocks`` contiguous id ranges). Exactly ``m`` distinct edges are
    drawn; each node left without an out-edge then gets one to a uniform
    other node.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w_out = rng.permutation(ranks**-0.7)
    w_in = rng.permutation(ranks**-0.9)
    cum_out = np.cumsum(w_out) / w_out.sum()
    cum_in = np.cumsum(w_in) / w_in.sum()
    block = np.arange(n) * blocks // n
    first = np.searchsorted(block, np.arange(blocks))
    last = np.searchsorted(block, np.arange(blocks), side="right") - 1
    lo = np.where(first > 0, cum_in[np.maximum(first - 1, 0)], 0.0)
    hi = cum_in[last]

    keys = np.empty(0, np.int64)
    while len(keys) < m:
        k = 2 * (m - len(keys)) + 64
        s = np.minimum(np.searchsorted(cum_out, rng.random(k), side="right"), n - 1)
        b = block[s]
        u = np.where(rng.random(k) < p_in, lo[b] + rng.random(k) * (hi[b] - lo[b]), rng.random(k))
        d = np.minimum(np.searchsorted(cum_in, u, side="right"), n - 1)
        keys = np.unique(np.concatenate([keys, (s * n + d)[s != d]]))
    keys = np.sort(rng.choice(keys, size=m, replace=False))
    src, dst = keys // n, keys % n

    dangling = np.flatnonzero(np.bincount(src, minlength=n) == 0)
    tgt = rng.integers(0, n - 1, size=len(dangling))
    tgt = np.where(tgt >= dangling, tgt + 1, tgt)
    return Graph(n, np.concatenate([src, dangling]), np.concatenate([dst, tgt]))


def cpi(
    g: Graph, q: np.ndarray, c: float, eps: float, s_iter: int, t_iter: int | None = None
) -> np.ndarray:
    """Σ x⁽ⁱ⁾ over ``s_iter ≤ i ≤ t_iter`` with x⁽⁰⁾ = c·q and x⁽ⁱ⁺¹⁾ = (1-c)Ãᵀx⁽ⁱ⁾,
    stopping after the first i with ‖x⁽ⁱ⁾‖₁ < eps (Algorithm 1)."""
    x = c * q
    acc = np.zeros(g.n)
    for i in range(MAX_ITER):
        if i >= s_iter and (t_iter is None or i <= t_iter):
            acc += x
        if np.abs(x).sum() < eps or (t_iter is not None and i >= t_iter):
            return acc
        x = g.step(x, c)
    raise RuntimeError("CPI did not converge")


def unit(n: int, seed: int) -> np.ndarray:
    q = np.zeros(n)
    q[seed] = 1.0
    return q


def stranger(g: Graph, c: float, T: int, eps: float) -> np.ndarray:
    """PageRank-CPI iterations T..∞ (Algorithm 2)."""
    return cpi(g, np.full(g.n, 1.0 / g.n), c, eps, s_iter=T)


def alpha(c: float, S: int, T: int) -> float:
    """Neighbor-part scale ((1-c)^S − (1-c)^T) / (1 − (1-c)^S) (Lemma 3)."""
    d = 1.0 - c
    return (d**S - d**T) / (1.0 - d**S)


def tpa(g: Graph, seed: int, stranger_vec: np.ndarray, c: float, S: int, T: int, eps: float) -> np.ndarray:
    """r_TPA = (1+α)·r_family + r_stranger (Algorithm 3)."""
    family = cpi(g, unit(g.n, seed), c, eps, s_iter=0, t_iter=S - 1)
    return (1.0 + alpha(c, S, T)) * family + stranger_vec


def exact_rwr(g: Graph, seed: int, c: float) -> np.ndarray:
    return cpi(g, unit(g.n, seed), c, 1e-12, s_iter=0)


TOL = 1e-10


def check_stranger(got: np.ndarray, ref: np.ndarray, c: float, T: int, eps: float) -> list[str]:
    """Problems with a stranger vector: distance to the reference, sign, and
    mass in [(1-c)^T − eps/c, (1-c)^T] (the graph has no dangling nodes)."""
    problems = []
    if (err := np.abs(got - ref).sum()) > TOL:
        problems.append(f"stranger L1 distance to numpy {err:.3e} > {TOL:g}")
    if got.min() < 0:
        problems.append(f"stranger has a negative entry {got.min():.3e}")
    mass, top = got.sum(), (1.0 - c) ** T
    if not top - eps / c - TOL <= mass <= top + TOL:
        problems.append(f"stranger mass {mass:.12f} outside [{top - eps / c:.12f}, {top:.12f}]")
    return problems


def check_query(got: np.ndarray, ref: np.ndarray, exact: np.ndarray, c: float, S: int) -> list[str]:
    """Problems with one TPA answer: distance to the reference and the
    Theorem 2 bound ‖r_exact − r_TPA‖₁ ≤ 2(1-c)^S."""
    problems = []
    if (err := np.abs(got - ref).sum()) > TOL:
        problems.append(f"query L1 distance to numpy {err:.3e} > {TOL:g}")
    bound = 2.0 * (1.0 - c) ** S
    if (err := np.abs(exact - got).sum()) > bound:
        problems.append(f"query L1 error to exact RWR {err:.4f} > 2(1-c)^S = {bound:.4f}")
    return problems
