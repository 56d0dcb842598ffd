"""Local (numpy) graph substrate: COO/CSR storage, transition SpMV, BFS.

This is the single-core comparator substrate — the paper ran every method
(TPA included) single-core in MATLAB/C++, so baselines and the exact-RWR
oracle run here. The distributed substrate lives in ``repro.graph.edges``.

The transition operator is ``y = Ãᵀ x`` where ``Ã`` is the row-normalised
adjacency matrix: ``y[v] = Σ_{u→v} x[u] / out_deg(u)``. Implemented as one
``np.bincount`` over the edge list — O(m), no scipy required. Dangling nodes
(out-degree 0) propagate nothing, i.e. their probability mass leaks, which is
the convention the paper's normalisation implies.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LocalGraph"]


@dataclass
class LocalGraph:
    """Immutable directed graph over node ids ``0..n-1`` with O(m) SpMV.

    ``out_csr``/``und_csr`` adjacency is built lazily (first access) because
    only random walks and the partitioners need it.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    _out_csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _und_csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if len(self.src) != len(self.dst):
            raise ValueError("src and dst must have equal length")
        if len(self.src) and (self.src.max() >= self.n or self.dst.max() >= self.n):
            raise ValueError("edge endpoint out of range")
        self.out_deg = np.bincount(self.src, minlength=self.n).astype(np.float64)
        self.in_deg = np.bincount(self.dst, minlength=self.n).astype(np.float64)
        # 1/out_deg with 0 for dangling nodes: they propagate nothing.
        self.inv_out = np.zeros(self.n, dtype=np.float64)
        nz = self.out_deg > 0
        self.inv_out[nz] = 1.0 / self.out_deg[nz]
        # Per-edge transition weight w(u→v) = 1/out_deg(u).
        self.edge_w = self.inv_out[self.src]

    # -- basic properties -------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.src)

    @property
    def n_dangling(self) -> int:
        """Number of nodes with no out-edge."""
        return int((self.out_deg == 0).sum())

    # -- SpMV --------------------------------------------------------------
    def push(self, x: np.ndarray) -> np.ndarray:
        """``Ãᵀ x``: propagate scores one step along out-edges."""
        return np.bincount(self.dst, weights=x[self.src] * self.edge_w, minlength=self.n)

    def dense_transition_T(self) -> np.ndarray:
        """Dense ``Ãᵀ`` (n×n) — tests only; O(n²) memory."""
        a = np.zeros((self.n, self.n))
        np.add.at(a, (self.dst, self.src), self.edge_w)
        return a

    # -- adjacency ---------------------------------------------------------
    @staticmethod
    def _csr(n: int, key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(key, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=n), out=indptr[1:])
        return indptr, val[order]

    @property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, neighbors): out-neighbors of u are nbrs[indptr[u]:indptr[u+1]]."""
        if self._out_csr is None:
            self._out_csr = self._csr(self.n, self.src, self.dst)
        return self._out_csr

    @property
    def und_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected adjacency (edges in both directions) for BFS/partition."""
        if self._und_csr is None:
            k = np.concatenate([self.src, self.dst])
            v = np.concatenate([self.dst, self.src])
            self._und_csr = self._csr(self.n, k, v)
        return self._und_csr

    # -- traversal ---------------------------------------------------------
    def bfs(self, start: int, allowed: np.ndarray | None = None) -> np.ndarray:
        """Undirected BFS from ``start`` restricted to ``allowed`` nodes;
        returns visited node ids in visit order."""
        indptr, nbrs = self.und_csr
        seen = np.zeros(self.n, dtype=bool)
        if allowed is not None:
            seen[~allowed] = True  # treat disallowed as already seen
        if seen[start]:
            return np.empty(0, dtype=np.int64)
        seen[start] = True
        frontier = np.array([start], dtype=np.int64)
        out = [frontier]
        while len(frontier):
            cand = np.concatenate([nbrs[indptr[u] : indptr[u + 1]] for u in frontier])
            cand = np.unique(cand)
            cand = cand[~seen[cand]]
            seen[cand] = True
            if len(cand):
                out.append(cand)
            frontier = cand
        return np.concatenate(out)

    def connected_components(self, allowed: np.ndarray | None = None) -> list[np.ndarray]:
        """Undirected connected components over ``allowed`` nodes (all if None)."""
        if allowed is None:
            allowed = np.ones(self.n, dtype=bool)
        remaining = allowed.copy()
        comps: list[np.ndarray] = []
        while True:
            seeds = np.flatnonzero(remaining)
            if len(seeds) == 0:
                return comps
            comp = self.bfs(int(seeds[0]), allowed=remaining)
            remaining[comp] = False
            comps.append(comp)
