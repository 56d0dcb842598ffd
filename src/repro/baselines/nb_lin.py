"""NB-LIN (Tong, Faloutsos, Pan — "Random walk with restart: fast solutions
and applications", KAIS 2008).

Decompose the column-stochastic transition matrix ``W = Ãᵀ`` into a
within-block part ``W1`` (block diagonal after a community partition) and a
cross-block part ``W2 ≈ U S V`` (low-rank). With ``Q = I − (1-c)·W1`` the
RWR solution ``r = c·(I − (1-c)W)⁻¹ q`` follows from the Sherman–Morrison–
Woodbury identity:

    r = c·[ Q⁻¹q + Q⁻¹U · Λ · V Q⁻¹ q ],   Λ = ( ((1-c)S)⁻¹ − V Q⁻¹ U )⁻¹

Preprocessing inverts each (small dense) diagonal block of Q and builds the
rank-``t`` factorisation of W2; the online phase is a handful of small dense
mat-vecs. Substitutions vs the original (documented in DESIGN.md): the METIS
partition becomes BFS-grown balanced blocks, and the SVD of the sparse W2 is
a randomized SVD driven by O(m) SpMV (numpy has no sparse SVD). Drop
tolerance is 0, per the paper's experimental setup.
"""
from __future__ import annotations

import numpy as np

from repro.deadline import check
from repro.baselines.partition import bfs_blocks
from repro.graph.linalg import LocalGraph

__all__ = ["NBLin"]


class NBLin:
    name = "NB-LIN"

    def __init__(
        self,
        graph: LocalGraph,
        *,
        c: float = 0.15,
        block_size: int = 400,
        rank: int = 64,
        oversample: int = 8,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.c = c
        self.block_size = min(block_size, graph.n)
        self.rank = min(rank, graph.n)
        self.oversample = oversample
        self.seed = seed
        self._fitted = False

    # -- W2 SpMV helpers (cross-block edges only) ---------------------------
    def _w2_mat(self, X: np.ndarray, *, transpose: bool) -> np.ndarray:
        """``W2 @ X`` (or ``W2ᵀ @ X``) column-by-column via bincount SpMV.

        W[v,u] = 1/out_deg(u) for each cross-block edge u→v.
        """
        g = self.graph
        s, d, w = g.src[self._cross], g.dst[self._cross], g.edge_w[self._cross]
        if transpose:
            s, d = d, s
        out = np.empty((g.n, X.shape[1]))
        for j in range(X.shape[1]):
            out[:, j] = np.bincount(d, weights=w * X[s, j], minlength=g.n)
        return out

    # -- preprocessing -------------------------------------------------------
    def preprocess(self) -> None:
        g, c = self.graph, self.c
        rng = np.random.default_rng(self.seed)
        self.labels = bfs_blocks(g, self.block_size)
        same = self.labels[g.src] == self.labels[g.dst]
        self._cross = ~same

        # Per-block dense inverse of Q = I − (1-c)·W1.
        n_blocks = int(self.labels.max()) + 1
        self.block_nodes: list[np.ndarray] = []
        self.q_inv: list[np.ndarray] = []
        # group within-block edges by block for fast slicing
        bs, bd, bw = g.src[same], g.dst[same], g.edge_w[same]
        eb = self.labels[bs]
        order = np.argsort(eb, kind="stable")
        bs, bd, bw, eb = bs[order], bd[order], bw[order], eb[order]
        bounds = np.searchsorted(eb, np.arange(n_blocks + 1))
        pos = np.empty(g.n, dtype=np.int64)  # node -> index inside its block
        for b in range(n_blocks):
            check()
            nodes = np.flatnonzero(self.labels == b)
            pos[nodes] = np.arange(len(nodes))
            self.block_nodes.append(nodes)
            lo, hi = bounds[b], bounds[b + 1]
            Qb = np.eye(len(nodes))
            if hi > lo:
                # W1 entry: row = dst (receives), col = src (propagates)
                np.subtract.at(
                    Qb, (pos[bd[lo:hi]], pos[bs[lo:hi]]), (1.0 - c) * bw[lo:hi]
                )
            self.q_inv.append(np.linalg.inv(Qb))
        self._pos = pos

        # Randomized SVD of W2 ≈ U diag(s) V, with two subspace ("power")
        # iterations — W2's spectrum is flat, so the plain range finder
        # captures too little of it (Halko et al. 2011, Alg. 4.4).
        t = self.rank
        k = min(g.n, t + self.oversample)
        G = rng.standard_normal((g.n, k))
        Y = self._w2_mat(G, transpose=False)
        for _ in range(2):
            check()
            Qr, _ = np.linalg.qr(Y)
            Y = self._w2_mat(self._w2_mat(Qr, transpose=True), transpose=False)
        Qr, _ = np.linalg.qr(Y)
        B = self._w2_mat(Qr, transpose=True).T  # B = Qrᵀ W2, shape (k, n)
        Ub, sv, Vt = np.linalg.svd(B, full_matrices=False)
        self.U = (Qr @ Ub)[:, :t]
        self.sv = sv[:t]
        self.V = Vt[:t, :]
        check()

        # Λ = ( ((1-c)S)⁻¹ − V Q⁻¹ U )⁻¹ and the precomputed Q⁻¹U.
        QinvU = self._q_inv_apply(self.U)
        nz = self.sv > 1e-12  # guard: W2 may have rank < t (tiny graphs)
        s_inv = np.zeros_like(self.sv)
        s_inv[nz] = 1.0 / ((1.0 - c) * self.sv[nz])
        core = np.diag(s_inv) - self.V @ QinvU
        # rows/cols for zero singular values contribute nothing:
        self.lam = np.zeros((len(self.sv), len(self.sv)))
        if nz.any():
            idx = np.ix_(nz, nz)
            self.lam[idx] = np.linalg.inv(core[idx])
        self.q_inv_u = QinvU
        self._fitted = True

    def _q_inv_apply(self, X: np.ndarray) -> np.ndarray:
        """``Q⁻¹ X`` applied blockwise (X may be a vector or matrix)."""
        X = np.atleast_2d(X.T).T  # ensure 2-D with columns preserved
        out = np.empty_like(X, dtype=np.float64)
        for nodes, qi in zip(self.block_nodes, self.q_inv):
            out[nodes] = qi @ X[nodes]
        return out

    # -- online --------------------------------------------------------------
    def query(self, seed: int) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("call preprocess() before query()")
        g, c = self.graph, self.c
        # a = Q⁻¹ e_seed: only the seed's block is non-zero.
        b = int(self.labels[seed])
        nodes = self.block_nodes[b]
        a = np.zeros(g.n)
        a[nodes] = self.q_inv[b][:, self._pos[seed]]
        # r = c·(a + Q⁻¹U Λ V a); V a touches only the seed's block columns.
        va = self.V[:, nodes] @ a[nodes]
        return c * (a + self.q_inv_u @ (self.lam @ va))

    @property
    def preprocessed_bytes(self) -> int:
        if not self._fitted:
            return 0
        total = sum(qi.nbytes for qi in self.q_inv)
        total += self.U.nbytes + self.V.nbytes + self.lam.nbytes + self.q_inv_u.nbytes
        total += self.sv.nbytes
        return int(total)
