"""RPPR and BRPPR (Gleich & Polito, Internet Mathematics 2006).

Both restrict RWR computation to an *active set* of nodes around the seed
and grow it lazily, trading accuracy for touching less of the graph. We
implement them as vectorised residual-propagation ("push") over the local
substrate, which is the modern formulation of the same restricted power
iteration:

- estimate ``p`` and residual ``res`` maintain the invariant
  ``r_exact = p + Σ_v res[v]·r_exact^{(v)}``;
- propagating a node v converts ``c·res[v]`` into estimate at v and spreads
  ``(1-c)·res[v]/out_deg(v)`` onto its out-neighbors' residuals.

RPPR activates (propagates) every node whose residual exceeds the expansion
threshold θ (paper setup: 1e-4). BRPPR instead expands the frontier
highest-residual-first until the mass left on the frontier is below κ, then
propagates the active set to convergence, repeating until the frontier mass
stays below κ. The final estimate is ``p + c·res`` (each unexpanded node
keeps the restart share of its own residual).

Neither method has a preprocessing phase — matching Fig. 1(a)/3, where they
have no bars.
"""
from __future__ import annotations

import numpy as np

from repro.deadline import check
from repro.graph.linalg import LocalGraph

__all__ = ["RPPR", "BRPPR"]

_MAX_ROUNDS = 10_000


class RPPR:
    """Restricted personalized PageRank: threshold-based expansion."""

    name = "RPPR"

    def __init__(self, graph: LocalGraph, *, c: float = 0.15, theta: float = 1e-4) -> None:
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.graph = graph
        self.c = c
        self.theta = theta

    def preprocess(self) -> None:
        """No preprocessing (online-only method)."""

    def query(self, seed: int) -> np.ndarray:
        g, c = self.graph, self.c
        p = np.zeros(g.n)
        res = np.zeros(g.n)
        res[seed] = 1.0
        for _ in range(_MAX_ROUNDS):
            check()
            active = res >= self.theta
            if not active.any():
                break
            mass = np.where(active, res, 0.0)
            p += c * mass
            res = np.where(active, 0.0, res)
            res = res + (1.0 - c) * g.push(mass)
        return p + c * res

    @property
    def preprocessed_bytes(self) -> int:
        return 0


class BRPPR:
    """Boundary-restricted personalized PageRank: frontier-mass expansion."""

    name = "BRPPR"

    def __init__(
        self,
        graph: LocalGraph,
        *,
        c: float = 0.15,
        kappa: float = 1e-4,
        inner_eps: float = 1e-8,
        max_outer: int = 200,
    ) -> None:
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        self.graph = graph
        self.c = c
        self.kappa = kappa
        self.inner_eps = inner_eps
        self.max_outer = max_outer

    def query(self, seed: int) -> np.ndarray:
        g, c = self.graph, self.c
        p = np.zeros(g.n)
        res = np.zeros(g.n)
        res[seed] = 1.0
        active = np.zeros(g.n, dtype=bool)
        active[seed] = True
        for _ in range(self.max_outer):
            check()
            # expand: pull frontier nodes (non-active, residual>0) into the
            # active set, largest residual first, until frontier mass < κ
            frontier = np.flatnonzero(~active & (res > 0))
            if len(frontier):
                fmass = res[frontier]
                order = np.argsort(-fmass, kind="stable")
                csum = np.cumsum(fmass[order])
                total = csum[-1]
                if total >= self.kappa:
                    # activate until what's left is < κ
                    k = int(np.searchsorted(total - csum < self.kappa, True)) + 1
                    active[frontier[order[:k]]] = True
            # propagate within the active set to convergence
            for _ in range(_MAX_ROUNDS):
                mass = np.where(active, res, 0.0)
                moving = mass.sum()
                if moving < self.inner_eps:
                    break
                p += c * mass
                res = np.where(active, 0.0, res)
                res = res + (1.0 - c) * g.push(mass)
                check()
            out_mass = res[~active].sum()
            if out_mass < self.kappa:
                break
        return p + c * res

    def preprocess(self) -> None:
        """No preprocessing (online-only method)."""

    @property
    def preprocessed_bytes(self) -> int:
        return 0
