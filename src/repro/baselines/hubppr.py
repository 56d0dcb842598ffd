"""HubPPR (Wang et al., VLDB 2016) — bidirectional PPR with a hub index.

HubPPR answers *single-pair* queries π(s,t) by combining
- a **backward push** from the target t: estimates ``p_t`` and residuals
  ``res_t`` with the invariant ``π(s,t) = p_t(s) + Σ_v π(s,v)·res_t(v)``
  (push at v: ``p_t(v) += c·res_t(v)``; each in-neighbor u gets
  ``(1-c)·res_t(v)/out_deg(u)``), and
- **forward Monte-Carlo walks** from the source s: the endpoint distribution
  of a restart-terminated walk is exactly π(s,·), so the sum is estimated by
  the empirical endpoint frequencies.

The hub index precomputes and caches backward-push results for the
highest-degree nodes (the preprocessing phase of Fig. 1a / the index bytes
of Fig. 3). A *full-vector* RWR query — what the TPA comparison needs —
must run one bidirectional estimate per target, which is where HubPPR's
10⁴× online blow-up in the paper comes from; our cooperative time limit
reproduces the omitted bars. Parameters follow the paper's setup
(δ, p_fail) = (1/n, 1/n): walks ≈ log(1/p_fail)·r_max/δ scaled down by the
same factor our graphs are scaled down.
"""
from __future__ import annotations

import numpy as np

from repro.deadline import check
from repro.graph.linalg import LocalGraph

__all__ = ["HubPPR", "backward_push", "forward_walk_endpoints"]


def backward_push(
    graph: LocalGraph, target: int, *, c: float = 0.15, r_max: float = 1e-3
) -> tuple[np.ndarray, np.ndarray]:
    """Backward push from ``target``: returns (p, res) sparse-as-dense with
    ``π(s,target) = p[s] + Σ_v π(s,v)·res[v]`` and ``max res ≤ r_max``.

    Vectorised rounds: all nodes above r_max push simultaneously.
    """
    n = graph.n
    p = np.zeros(n)
    res = np.zeros(n)
    res[target] = 1.0
    # res gained by u when v pushes: (1-c)·res[v]/out_deg(u) for each u→v.
    for _ in range(100_000):
        active = res > r_max
        if not active.any():
            break
        mass = np.where(active, res, 0.0)
        p += c * mass
        res = np.where(active, 0.0, res)
        # scatter to in-neighbors: for edge u→v with v active, u receives
        # (1-c)·mass[v]/out_deg(u)
        sel = active[graph.dst]
        res = res + np.bincount(
            graph.src[sel],
            weights=(1.0 - c) * mass[graph.dst[sel]] * graph.edge_w[sel],
            minlength=n,
        )
    return p, res


def forward_walk_endpoints(
    graph: LocalGraph,
    seed: int,
    n_walks: int,
    *,
    c: float = 0.15,
    rng: np.random.Generator,
    max_len: int = 200,
) -> np.ndarray:
    """Empirical endpoint distribution of ``n_walks`` restart-terminated
    random walks from ``seed`` — an unbiased estimate of π(seed, ·).

    Vectorised over walks; a walk that reaches a dangling node terminates
    there (consistent with the leaked-mass convention of the substrate: we
    count it as ending at the dangling node, the closest discrete analogue).
    """
    indptr, nbrs = graph.out_csr
    cur = np.full(n_walks, seed, dtype=np.int64)
    alive = np.ones(n_walks, dtype=bool)
    ends = np.full(n_walks, seed, dtype=np.int64)
    for _ in range(max_len):
        if not alive.any():
            break
        stop = rng.random(n_walks) < c
        stopping = alive & stop
        ends[stopping] = cur[stopping]
        alive = alive & ~stop
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            break
        u = cur[idx]
        deg = (indptr[u + 1] - indptr[u]).astype(np.int64)
        dangling = deg == 0
        if dangling.any():
            di = idx[dangling]
            ends[di] = cur[di]
            alive[di] = False
            idx = idx[~dangling]
            u = u[~dangling]
            deg = deg[~dangling]
        if len(idx) == 0:
            continue
        pick = indptr[u] + (rng.random(len(u)) * deg).astype(np.int64)
        cur[idx] = nbrs[pick]
    # walks still alive at max_len end where they stand (bias ≤ (1-c)^max_len)
    ends[alive] = cur[alive]
    return np.bincount(ends, minlength=graph.n) / float(n_walks)


class HubPPR:
    name = "HubPPR"

    def __init__(
        self,
        graph: LocalGraph,
        *,
        c: float = 0.15,
        r_max: float = 1e-3,
        n_walks: int = 2_000,
        n_hubs: int | None = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.c = c
        self.r_max = r_max
        self.n_walks = n_walks
        self.n_hubs = int(np.sqrt(graph.n)) if n_hubs is None else n_hubs
        self.rng = np.random.default_rng(seed)
        self.hub_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._fitted = False

    def preprocess(self) -> None:
        """Build the hub index: cached backward pushes for top-degree nodes."""
        g = self.graph
        hubs = np.argsort(-(g.in_deg + g.out_deg), kind="stable")[: self.n_hubs]
        self.hub_cache = {}
        for h in hubs:
            check()
            p, res = backward_push(g, int(h), c=self.c, r_max=self.r_max)
            # store sparsely: (indices, values) pairs
            pi, ri = np.flatnonzero(p), np.flatnonzero(res)
            self.hub_cache[int(h)] = ((pi, p[pi]), (ri, res[ri]))
        self._fitted = True

    def _target_estimate(
        self, t: int, seed: int, fwd: np.ndarray
    ) -> float:
        cached = self.hub_cache.get(t)
        if cached is not None:
            (pi, pv), (ri, rv) = cached
            p_s = pv[pi == seed].sum()
            return float(p_s + (fwd[ri] * rv).sum())
        p, res = backward_push(self.graph, t, c=self.c, r_max=self.r_max)
        return float(p[seed] + fwd @ res)

    def query(self, seed: int) -> np.ndarray:
        """Full RWR vector: one bidirectional estimate per target node."""
        if not self._fitted:
            raise RuntimeError("call preprocess() before query()")
        g = self.graph
        fwd = forward_walk_endpoints(g, seed, self.n_walks, c=self.c, rng=self.rng)
        out = np.empty(g.n)
        for t in range(g.n):
            if t % 64 == 0:
                check()
            out[t] = self._target_estimate(t, seed, fwd)
        return out

    def query_pair(self, seed: int, target: int) -> float:
        """The native HubPPR operation: a single-pair estimate."""
        fwd = forward_walk_endpoints(
            self.graph, seed, self.n_walks, c=self.c, rng=self.rng
        )
        return self._target_estimate(target, seed, fwd)

    @property
    def preprocessed_bytes(self) -> int:
        total = 0
        for (pi, pv), (ri, rv) in self.hub_cache.values():
            total += pi.nbytes + pv.nbytes + ri.nbytes + rv.nbytes
        return int(total)
