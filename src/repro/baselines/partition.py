"""Graph partitioning helpers shared by NB-LIN and BEAR-APPROX.

- ``bfs_blocks``: balanced community-ish blocks grown by undirected BFS —
  the offline stand-in for the METIS-quality partition NB-LIN assumes.
- ``slashburn_lite``: iterative top-degree hub removal until the remaining
  components are small — the stand-in for SlashBurn's hub-and-spoke
  reordering that BEAR builds on. Spokes = connected components of the
  hub-removed graph, so the spoke-spoke block of ``I − (1-c)Ãᵀ`` is block
  diagonal by construction.
"""
from __future__ import annotations

import numpy as np

from repro.graph.linalg import LocalGraph

__all__ = ["bfs_blocks", "slashburn_lite"]


def bfs_blocks(graph: LocalGraph, target_size: int) -> np.ndarray:
    """Partition nodes into blocks of ≈``target_size`` by repeated BFS.

    Starts each block from the highest-degree unassigned node and grows it
    breadth-first until full; BFS locality keeps most edges inside blocks on
    community-structured graphs. Returns ``labels[n]`` with block ids.
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    n = graph.n
    indptr, nbrs = graph.und_csr
    total_deg = graph.out_deg + graph.in_deg
    order = np.argsort(-total_deg, kind="stable")  # hubs first as block seeds
    labels = np.full(n, -1, dtype=np.int64)
    block = 0
    ptr = 0
    queue: list[int] = []
    while True:
        # find next unassigned seed (highest degree remaining)
        while ptr < n and labels[order[ptr]] != -1:
            ptr += 1
        if ptr >= n:
            break
        queue = [int(order[ptr])]
        labels[queue[0]] = block
        size = 1
        qi = 0
        while qi < len(queue) and size < target_size:
            u = queue[qi]
            qi += 1
            for v in nbrs[indptr[u] : indptr[u + 1]]:
                if labels[v] == -1:
                    labels[v] = block
                    queue.append(int(v))
                    size += 1
                    if size >= target_size:
                        break
        block += 1
    return labels


def slashburn_lite(
    graph: LocalGraph,
    *,
    block_max: int,
    hub_step_frac: float = 0.005,
    max_hub_frac: float = 0.25,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Hub-and-spoke decomposition by iterative top-degree removal.

    Removes the ``hub_step_frac·n`` highest-(remaining-)degree nodes per
    round until every connected component of the remainder has at most
    ``block_max`` nodes, or the hub set reaches ``max_hub_frac·n``. If the
    cap is hit first, the oversized components are kept whole (bigger dense
    blocks — slower, but the decomposition stays exact, which is what block
    elimination requires). Returns ``(hubs, spoke_components)``.
    """
    n = graph.n
    indptr, nbrs = graph.und_csr
    alive = np.ones(n, dtype=bool)
    deg = graph.out_deg + graph.in_deg
    hub_step = max(1, int(hub_step_frac * n))
    max_hubs = max(1, int(max_hub_frac * n))
    hubs: list[int] = []

    def largest_component_ok() -> tuple[bool, list[np.ndarray]]:
        comps = graph.connected_components(allowed=alive)
        return all(len(c) <= block_max for c in comps), comps

    ok, comps = largest_component_ok()
    while not ok and len(hubs) < max_hubs:
        # remaining-degree = degree restricted to alive neighbors
        rem_deg = np.where(alive, deg, -1.0)
        top = np.argpartition(-rem_deg, hub_step)[:hub_step]
        top = top[alive[top]]
        if len(top) == 0:
            break
        alive[top] = False
        hubs.extend(int(t) for t in top)
        # recompute degree among alive nodes only every round (cheap enough)
        deg = np.zeros(n)
        sel = alive[graph.src] & alive[graph.dst]
        deg += np.bincount(graph.src[sel], minlength=n)
        deg += np.bincount(graph.dst[sel], minlength=n)
        ok, comps = largest_component_ok()
    return np.asarray(sorted(hubs), dtype=np.int64), comps
