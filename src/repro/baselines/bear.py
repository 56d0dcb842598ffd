"""BEAR-APPROX (Shin, Jung, Sael, Kang — SIGMOD 2015 BEAR, approximate
variant used in the TPA paper).

BEAR reorders the linear system ``H r = c q`` with ``H = I − (1-c)Ãᵀ`` into
hub-and-spoke form: after removing a small set of hub nodes, the remaining
*spoke* nodes split into small connected components, so the spoke-spoke
block ``H11`` is block diagonal. Preprocessing inverts each H11 block and
the Schur complement ``S = H22 − H21·H11⁻¹·H12`` of the hubs; the online
phase is block back-substitution:

    r2 = S⁻¹ (c·q2 − H21 H11⁻¹ c·q1)
    r1 = H11⁻¹ (c·q1 − H12 r2)

BEAR-APPROX additionally zeroes entries of the precomputed inverses whose
absolute value is below the drop tolerance ξ = n^{-1/2} (the paper's
setting), shrinking the index at an accuracy cost. Hub selection uses
``slashburn_lite`` (iterative top-degree removal) in place of SlashBurn.

Preprocessing is dominated by the dense Schur complement — quadratic-ish in
the hub count — which is why BEAR-APPROX only finishes on the smallest
dataset within the time limit, exactly the paper's observed failure mode.
"""
from __future__ import annotations

import numpy as np

from repro.deadline import check
from repro.baselines.partition import slashburn_lite
from repro.graph.linalg import LocalGraph

__all__ = ["BearApprox"]


class BearApprox:
    name = "BEAR-APPROX"

    def __init__(
        self,
        graph: LocalGraph,
        *,
        c: float = 0.15,
        drop_tol: float | None = None,
        block_max: int = 300,
        hub_step_frac: float = 0.01,
    ) -> None:
        self.graph = graph
        self.c = c
        self.drop_tol = graph.n ** -0.5 if drop_tol is None else drop_tol
        self.block_max = block_max
        self.hub_step_frac = hub_step_frac
        self._fitted = False

    def _drop(self, a: np.ndarray) -> np.ndarray:
        a = a.copy()
        a[np.abs(a) < self.drop_tol] = 0.0
        return a

    def preprocess(self) -> None:
        g, c = self.graph, self.c
        hubs, comps = slashburn_lite(
            g, block_max=self.block_max, hub_step_frac=self.hub_step_frac
        )
        check()
        self.hubs = hubs
        self.comps = comps
        n2 = len(hubs)
        hub_pos = {int(h): i for i, h in enumerate(hubs)}
        is_hub = np.zeros(g.n, dtype=bool)
        is_hub[hubs] = True

        # Off-diagonal entries of H: H[v,u] = −(1-c)/out_deg(u) per edge u→v.
        hv = -(1.0 - c) * g.edge_w  # value of H[dst, src]
        src, dst = g.src, g.dst

        # position of each spoke node inside its component
        comp_of = np.full(g.n, -1, dtype=np.int64)
        pos_in = np.full(g.n, -1, dtype=np.int64)
        for ci, nodes in enumerate(comps):
            comp_of[nodes] = ci
            pos_in[nodes] = np.arange(len(nodes))
        pos_hub = np.full(g.n, -1, dtype=np.int64)
        pos_hub[hubs] = np.arange(n2)

        # H11 blocks (spoke→spoke edges; both endpoints in same component by
        # construction — verified defensively below), then invert + drop.
        spoke_edge = ~is_hub[src] & ~is_hub[dst]
        ss, sd, sv = src[spoke_edge], dst[spoke_edge], hv[spoke_edge]
        same_comp = comp_of[ss] == comp_of[sd]
        # Spoke components are maximal in the hub-removed graph, so no edge
        # can cross two of them; verified defensively here because the whole
        # block-elimination correctness rests on it.
        if (~same_comp).any():
            raise AssertionError("spoke edge crosses components — broken partition")
        eb = comp_of[ss]
        order = np.argsort(eb, kind="stable")
        ss, sd, sv, eb = ss[order], sd[order], sv[order], eb[order]
        bounds = np.searchsorted(eb, np.arange(len(comps) + 1))
        self.h11_inv: list[np.ndarray] = []
        for ci, nodes in enumerate(comps):
            check()
            Hb = np.eye(len(nodes))
            lo, hi = bounds[ci], bounds[ci + 1]
            if hi > lo:
                np.add.at(Hb, (pos_in[sd[lo:hi]], pos_in[ss[lo:hi]]), sv[lo:hi])
            self.h11_inv.append(self._drop(np.linalg.inv(Hb)))

        # Sparse H12 (spoke rows, hub cols) and H21 (hub rows, spoke cols).
        e12 = is_hub[src] & ~is_hub[dst]  # hub u → spoke v: H[v,u] in H12
        self.h12 = (dst[e12], pos_hub[src[e12]], hv[e12])  # (spoke node, hub idx, val)
        e21 = ~is_hub[src] & is_hub[dst]  # spoke u → hub v: H[v,u] in H21
        self.h21 = (pos_hub[dst[e21]], src[e21], hv[e21])  # (hub idx, spoke node, val)

        # Schur complement S = H22 − H21 H11⁻¹ H12, dense n2×n2.
        S = np.eye(n2)
        e22 = is_hub[src] & is_hub[dst]
        np.add.at(S, (pos_hub[dst[e22]], pos_hub[src[e22]]), hv[e22])
        # subtract H21 H11⁻¹ H12 blockwise
        r12, c12, v12 = self.h12
        r21, c21, v21 = self.h21
        comp12 = comp_of[r12]
        comp21 = comp_of[c21]
        for ci, nodes in enumerate(comps):
            check()
            sel12 = comp12 == ci
            sel21 = comp21 == ci
            if not sel12.any() or not sel21.any():
                continue
            b = len(nodes)
            H12b = np.zeros((b, n2))
            H12b[pos_in[r12[sel12]], c12[sel12]] = v12[sel12]
            H21b = np.zeros((n2, b))
            H21b[r21[sel21], pos_in[c21[sel21]]] = v21[sel21]
            S -= H21b @ (self.h11_inv[ci] @ H12b)
        self.s_inv = self._drop(np.linalg.inv(S))
        self._pos_in = pos_in
        self._comp_of = comp_of
        self._fitted = True

    # -- online --------------------------------------------------------------
    def _h11_inv_apply(self, x1: np.ndarray) -> np.ndarray:
        """``H11⁻¹ x`` blockwise over a full-length vector (hub entries 0)."""
        out = np.zeros(self.graph.n)
        for ci, nodes in enumerate(self.comps):
            out[nodes] = self.h11_inv[ci] @ x1[nodes]
        return out

    def query(self, seed: int) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("call preprocess() before query()")
        g, c = self.graph, self.c
        n2 = len(self.hubs)
        q = np.zeros(g.n)
        q[seed] = c
        is_hub = np.zeros(g.n, dtype=bool)
        is_hub[self.hubs] = True
        q1 = np.where(is_hub, 0.0, q)
        q2 = q[self.hubs]

        a = self._h11_inv_apply(q1)  # H11⁻¹ q1
        r12, c12, v12 = self.h12
        r21, c21, v21 = self.h21
        # H21 a (n2-vector)
        h21a = np.bincount(r21, weights=v21 * a[c21], minlength=n2)
        r2 = self.s_inv @ (q2 - h21a)
        # H12 r2 (spoke-length vector)
        h12r2 = np.bincount(r12, weights=v12 * r2[c12], minlength=g.n)
        r1 = self._h11_inv_apply(q1 - h12r2)
        out = r1
        out[self.hubs] = r2
        return out

    @property
    def preprocessed_bytes(self) -> int:
        """Sparse accounting (16 B/nonzero) — the point of the drop
        tolerance is that dropped entries are not stored."""
        if not self._fitted:
            return 0
        nnz = sum(int((b != 0).sum()) for b in self.h11_inv)
        nnz += int((self.s_inv != 0).sum())
        nnz += len(self.h12[0]) + len(self.h21[0])
        return 16 * nnz
