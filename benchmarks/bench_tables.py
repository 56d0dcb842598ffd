"""The evaluation tables (Table II, Figs. 1a/1b/1c and 3–8): one benchmark per
``repro.experiments.tables.TABLES`` id, the registry ``jobs/tables.py`` prints.

Each table is built once and stored in ``extra_info["table"]`` with its
title; the terminal summary in ``conftest.py`` prints it. Per-method times
inside a table come from the runner's own timers, so pytest-benchmark's
statistic is the time to build the whole table. The five main-comparison
tables share one cached run: the first of them (T1a) pays for all five.

Knobs, passed to the builders that take them: ``BENCH_SF`` (dataset scale,
default 1.0), ``BENCH_SEEDS`` (query seeds, default 3), ``BENCH_CAP``
(per-phase time limit in seconds, default 120).
"""
import os

import pytest

from repro.experiments.tables import TABLES

KNOBS = dict(
    sf=float(os.environ.get("BENCH_SF", "1.0")),
    n_seeds=int(os.environ.get("BENCH_SEEDS", "3")),
    time_cap=float(os.environ.get("BENCH_CAP", "120")),
)


@pytest.mark.parametrize("table", list(TABLES))
def test_table(benchmark, table):
    t = TABLES[table]
    kwargs = {k: v for k, v in KNOBS.items() if k in t.args}
    df = benchmark.pedantic(t.build, kwargs=kwargs, rounds=1, iterations=1)
    benchmark.extra_info.update(table=df.to_dict("tight"), title=t.title)
