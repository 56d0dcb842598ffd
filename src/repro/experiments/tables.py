"""Table builders — one per table/figure of the evaluation section.

Each returns a pandas DataFrame whose printed rows are the reproduction of
the corresponding paper figure (figures themselves are out of scope; see
DESIGN.md §5). The main-comparison tables (Fig. 1a/1b/1c, 3, 4) share one
cached run per (datasets, sf, seeds, cap), so building all five costs one
run. ``TABLES`` registers every builder under its DESIGN.md §5 id, with its
title and the scale arguments it takes: ``jobs/tables.py`` prints a table by
id and ``benchmarks/bench_tables.py`` times each one; there is no other
implementation of the evaluation.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.local_tpa import LocalTPA
from repro.experiments.datasets import DATASET_ORDER, DATASETS, er_twin, load_local
from repro.experiments.runner import (
    C,
    EPS,
    MethodRow,
    exact_vectors,
    pick_seeds,
    run_dataset,
    score_queries,
)

__all__ = [
    "TABLES",
    "Table",
    "render",
    "datasets_table",
    "main_rows",
    "preprocessing_table",
    "online_table",
    "l1_table",
    "spearman_table",
    "memory_table",
    "stranger_effect_table",
    "neighbor_effect_table",
    "effect_of_S_table",
    "effect_of_T_table",
]

# Fig. 7 and Fig. 8 sweep the paper's two mid-size graphs.
SWEEP_DATASETS = ("livejournal-lite", "pokec-lite")

_MAIN_CACHE: dict[tuple, list[MethodRow]] = {}


def datasets_table(sf: float = 1.0) -> pd.DataFrame:
    """Table II: dataset statistics of the synthetic substitutes."""
    rows = []
    for name in DATASET_ORDER:
        g, spec = load_local(name, sf)
        paper = DATASETS[name]
        rows.append(
            {
                "dataset": name,
                "nodes": g.n,
                "edges": g.m,
                "S": spec.S,
                "T": spec.T,
                "paper_nodes": paper.paper_n,
                "paper_edges": paper.paper_m,
            }
        )
    return pd.DataFrame(rows)


def main_rows(
    datasets: list[str] | None = None,
    *,
    sf: float = 1.0,
    n_seeds: int = 5,
    time_cap: float | None = 60.0,
    methods: list[str] | None = None,
) -> list[MethodRow]:
    """Run (or fetch cached) the main comparison over all methods/datasets."""
    datasets = DATASET_ORDER if datasets is None else datasets
    key = (tuple(datasets), sf, n_seeds, time_cap, tuple(methods or ()))
    if key not in _MAIN_CACHE:
        rows: list[MethodRow] = []
        for name in datasets:
            g, spec = load_local(name, sf)
            rows.extend(
                run_dataset(
                    name, g, spec, methods=methods, n_seeds=n_seeds, time_cap=time_cap
                )
            )
        _MAIN_CACHE[key] = rows
    return _MAIN_CACHE[key]


def _pivot(rows: list[MethodRow], value: str) -> pd.DataFrame:
    df = pd.DataFrame(
        [
            {"dataset": r.dataset, "method": r.method, value: getattr(r, value)}
            for r in rows
        ]
    )
    out = df.pivot_table(
        index="dataset", columns="method", values=value, aggfunc="first", dropna=False
    )
    # preserve run order of datasets
    order = [d for d in dict.fromkeys(r.dataset for r in rows)]
    return out.reindex(order)


def preprocessing_table(**kw) -> pd.DataFrame:
    """Fig. 1(a): preprocessing wall-clock seconds (NaN = no prep / OOT)."""
    return _pivot(main_rows(**kw), "pre_time")


def online_table(**kw) -> pd.DataFrame:
    """Fig. 1(b): online wall-clock seconds per query (NaN = OOT)."""
    return _pivot(main_rows(**kw), "online_time")


def l1_table(**kw) -> pd.DataFrame:
    """Fig. 1(c): L1 error vs exact RWR per method."""
    return _pivot(main_rows(**kw), "l1").add_suffix(" L1")


def spearman_table(**kw) -> pd.DataFrame:
    """Fig. 4: Spearman rank correlation vs exact RWR per method."""
    return _pivot(main_rows(**kw), "spearman").add_suffix(" rho")


def memory_table(**kw) -> pd.DataFrame:
    """Fig. 3: preprocessed-data size in bytes (0/NaN = no prep / OOT)."""
    return _pivot(main_rows(**kw), "bytes")


def stranger_effect_table(
    datasets: list[str] | None = None, *, sf: float = 1.0, n_seeds: int = 5
) -> pd.DataFrame:
    """Fig. 5: TPA vs TPA-NA accuracy — the stranger approximation's value,
    read from the main run's TPA and TPA-NA rows."""
    rows = main_rows(datasets, sf=sf, n_seeds=n_seeds, methods=["TPA"])
    df = pd.concat(
        [_pivot(rows, "l1").add_suffix(" L1"), _pivot(rows, "spearman").add_suffix(" rho")], axis=1
    )
    return df[["TPA L1", "TPA rho", "TPA-NA L1", "TPA-NA rho"]].rename_axis(columns=None)


def neighbor_effect_table(
    datasets: list[str] | None = None, *, sf: float = 1.0, n_seeds: int = 5
) -> pd.DataFrame:
    """Fig. 6: TPA-NA on block-structured (DCSBM) vs random (ER twin) graphs.

    The neighbor approximation leans on block-wise structure, so TPA-NA
    should show lower L1 error on the structured graph than on its
    same-size random twin."""
    datasets = DATASET_ORDER if datasets is None else datasets
    rows = []
    for name in datasets:
        g, spec = load_local(name, sf)
        twin = er_twin(name, sf)
        rec = {"dataset": name}
        for label, graph in [("real", g), ("random", twin)]:
            seeds = pick_seeds(graph, n_seeds)
            exact = exact_vectors(graph, seeds)
            tpa = LocalTPA(graph, c=C, S=spec.S, T=spec.T, eps=EPS)
            tpa.preprocess()
            _, rec[f"{label} L1"], rec[f"{label} rho"] = score_queries(
                tpa.query_na, seeds, exact
            )
        rows.append(rec)
    return pd.DataFrame(rows).set_index("dataset")


def effect_of_S_table(
    datasets: list[str] | None = None,
    *,
    S_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    T: int = 10,
    sf: float = 1.0,
    n_seeds: int = 5,
) -> pd.DataFrame:
    """Fig. 7: sweep S at fixed T=10 — online time vs L1 error trade-off.
    The stranger vector is preprocessed once per dataset and shared."""
    rows = []
    for name in SWEEP_DATASETS if datasets is None else datasets:
        g, spec = load_local(name, sf)
        seeds = pick_seeds(g, n_seeds)
        exact = exact_vectors(g, seeds)
        strangers: dict[int, np.ndarray] = {}  # r_stranger depends on T, not S
        for S in S_values:
            tpa = LocalTPA(g, c=C, S=S, T=max(T, S), eps=EPS)
            if tpa.T not in strangers:
                strangers[tpa.T] = tpa.preprocess()
            tpa.r_stranger = strangers[tpa.T]
            online_time, l1, _ = score_queries(tpa.query, seeds, exact)
            rows.append(
                {
                    "dataset": name,
                    "S": S,
                    "online_time": online_time,
                    "L1": l1,
                }
            )
    return pd.DataFrame(rows)


def effect_of_T_table(
    datasets: list[str] | None = None,
    *,
    T_values: tuple = (4, 5, 6, 8, 10, 15, 20, 30, None),
    S: int = 4,
    sf: float = 1.0,
    n_seeds: int = 5,
) -> pd.DataFrame:
    """Fig. 8: sweep T at fixed S=4 — L1 error dips then rebounds; Spearman
    stays high for any finite T. ``T=None`` means ∞ (no stranger term)."""
    rows = []
    for name in SWEEP_DATASETS if datasets is None else datasets:
        g, spec = load_local(name, sf)
        seeds = pick_seeds(g, n_seeds)
        exact = exact_vectors(g, seeds)
        for T in T_values:
            if T is None:
                tpa = LocalTPA(g, c=C, S=S, T=10_000, eps=EPS)
                tpa.r_stranger = np.zeros(g.n)  # T=∞: stranger part vanishes
            else:
                tpa = LocalTPA(g, c=C, S=S, T=max(T, S), eps=EPS)
                tpa.preprocess()
            _, l1, rho = score_queries(tpa.query, seeds, exact)
            rows.append(
                {
                    "dataset": name,
                    "T": float("inf") if T is None else T,
                    "L1": l1,
                    "rho": rho,
                }
            )
    return pd.DataFrame(rows)


@dataclass(frozen=True)
class Table:
    """One evaluation table: its builder, its printed title, and the scale
    arguments (of ``datasets``, ``sf``, ``n_seeds``, ``time_cap``) the
    builder takes."""

    build: Callable[..., pd.DataFrame]
    title: str
    args: tuple[str, ...]


SCALE = ("datasets", "sf", "n_seeds")
MAIN = (*SCALE, "time_cap")

# Keyed by the DESIGN.md §5 ids.
TABLES: dict[str, Table] = {
    "T2": Table(datasets_table, "Table II — dataset statistics", ("sf",)),
    "T1a": Table(preprocessing_table, "Fig. 1(a) — preprocessing time [s]", MAIN),
    "T1b": Table(online_table, "Fig. 1(b) — online time per query [s]", MAIN),
    "T1c": Table(l1_table, "Fig. 1(c) — L1 error", MAIN),
    "T3": Table(memory_table, "Fig. 3 — preprocessed data [bytes]", MAIN),
    "T4": Table(spearman_table, "Fig. 4 — Spearman correlation", MAIN),
    "T5": Table(stranger_effect_table, "Fig. 5 — stranger approximation ablation", SCALE),
    "T6": Table(
        neighbor_effect_table,
        "Fig. 6 — neighbor approximation on real-like vs random graphs",
        SCALE,
    ),
    "T7": Table(effect_of_S_table, "Fig. 7 — effect of S", SCALE),
    "T8": Table(effect_of_T_table, "Fig. 8 — effect of T", SCALE),
}


def render(df: pd.DataFrame, title: str) -> str:
    """A table as the jobs and the benchmark summary print it."""
    return f"\n=== {title} ===\n{df.to_string(float_format=lambda v: f'{v:.6g}')}"
