"""The evaluation tables (Table II, Figs. 1a/1b/1c and 3–8): one benchmark per
``repro.experiments.tables`` builder, the same builders ``jobs/`` prints.

Each table is built once and stored in ``extra_info["table"]``; the
terminal summary in ``conftest.py`` prints it. Per-method times inside a
table come from the runner's own timers, so pytest-benchmark's statistic is
the time to build the whole table. The four main-comparison tables share
one cached run: the first of them (T1a) pays for all four.

Knobs: ``BENCH_SF`` (dataset scale, default 1.0), ``BENCH_SEEDS`` (query
seeds, default 3), ``BENCH_CAP`` (per-phase deadline seconds, default 120).
"""
import os

import pytest

from repro.experiments import tables

BENCH_SF = float(os.environ.get("BENCH_SF", "1.0"))
BENCH_SEEDS = int(os.environ.get("BENCH_SEEDS", "3"))
BENCH_CAP = float(os.environ.get("BENCH_CAP", "120"))

SCALE = dict(sf=BENCH_SF, n_seeds=BENCH_SEEDS)
MAIN = dict(SCALE, time_cap=BENCH_CAP)

TABLES = {
    "T2": (tables.datasets_table, dict(sf=BENCH_SF)),
    "T1a": (tables.preprocessing_table, MAIN),
    "T1b": (tables.online_table, MAIN),
    "T1c_T4": (tables.accuracy_table, MAIN),
    "T3": (tables.memory_table, MAIN),
    "T5": (tables.stranger_effect_table, SCALE),
    "T6": (tables.neighbor_effect_table, SCALE),
    "T7": (tables.effect_of_S_table, SCALE),
    "T8": (tables.effect_of_T_table, SCALE),
}


@pytest.mark.parametrize("table", list(TABLES))
def test_table(benchmark, table):
    builder, kwargs = TABLES[table]
    df = benchmark.pedantic(builder, kwargs=kwargs, rounds=1, iterations=1)
    benchmark.extra_info["table"] = df.to_dict("tight")
