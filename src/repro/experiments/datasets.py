"""Synthetic substitutes for the paper's 7 KONECT datasets (Table II).

Each spec shrinks the real graph linearly (~1/10 … ~1/1500) preserving its
average degree, and keeps the paper's per-dataset S and T. Graphs are DCSBM
(power-law degrees + planted communities — the structure TPA exploits);
``er_twin`` builds the same-size Erdős–Rényi graph for the Fig. 6 ablation.

``sf`` scales a spec further (tests use sf≈0.02, benchmarks sf=1.0); n and m
scale together so density is preserved.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from repro.graph.generators import dcsbm, erdos_renyi
from repro.graph.linalg import LocalGraph

__all__ = ["DatasetSpec", "DATASETS", "DATASET_ORDER", "load_local", "er_twin", "scaled"]


@dataclass(frozen=True)
class DatasetSpec:
    """One synthetic dataset: target size, TPA window (paper Table II), and
    generator seed; the other DCSBM parameters are ``dcsbm``'s defaults."""

    name: str
    n: int
    m: int
    S: int
    T: int
    paper_n: int
    paper_m: int
    seed: int = 0

    @property
    def n_blocks(self) -> int:
        return max(8, self.n // 512)


DATASET_ORDER = [
    "slashdot-lite",
    "google-lite",
    "pokec-lite",
    "livejournal-lite",
    "wikilink-lite",
    "twitter-lite",
    "friendster-lite",
]

DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("slashdot-lite", 8_214, 54_920, 4, 15, 82_144, 549_202, seed=11),
        DatasetSpec("google-lite", 21_892, 127_626, 4, 40, 875_713, 5_105_039, seed=12),
        DatasetSpec("pokec-lite", 16_328, 306_226, 4, 10, 1_632_803, 30_622_564, seed=13),
        DatasetSpec(
            "livejournal-lite", 24_237, 342_377, 4, 10, 4_847_571, 68_475_391, seed=14
        ),
        DatasetSpec(
            "wikilink-lite", 24_301, 756_285, 4, 5, 12_150_976, 378_142_420, seed=15
        ),
        DatasetSpec(
            "twitter-lite", 41_652, 1_468_365, 2, 5, 41_652_230, 1_468_365_182, seed=16
        ),
        DatasetSpec(
            "friendster-lite", 45_566, 1_724_098, 3, 20, 68_349_466, 2_586_147_869, seed=17
        ),
    ]
}


def scaled(spec: DatasetSpec, sf: float) -> DatasetSpec:
    """Shrink a spec by ``sf`` (n and m together, density preserved)."""
    if sf == 1.0:
        return spec
    n = max(64, int(spec.n * sf))
    m = max(n, int(spec.m * sf))
    return replace(spec, n=n, m=m)


@lru_cache(maxsize=32)
def _load(name: str, sf: float) -> tuple[LocalGraph, DatasetSpec]:
    spec = scaled(DATASETS[name], sf)
    n, src, dst, _ = dcsbm(spec.n, spec.m, n_blocks=spec.n_blocks, seed=spec.seed)
    return LocalGraph(n, src, dst), spec


def load_local(name: str, sf: float = 1.0) -> tuple[LocalGraph, DatasetSpec]:
    """Deterministic local graph + effective spec for a dataset name."""
    return _load(name, float(sf))


@lru_cache(maxsize=32)
def er_twin(name: str, sf: float = 1.0) -> LocalGraph:
    """Erdős–Rényi twin: same n/m as the named dataset, no structure."""
    g, spec = load_local(name, sf)
    n, src, dst = erdos_renyi(g.n, g.m, seed=spec.seed + 1000)
    return LocalGraph(n, src, dst)
