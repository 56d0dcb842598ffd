"""Benchmark-suite summary: after the run, prints the table each benchmark of
``bench_tables.py`` stored in ``extra_info["table"]``, and the rows of
``bench_spark_scale.py`` as one table. This is what lands in
``bench_output.txt`` and what EXPERIMENTS.md quotes as the measured numbers.
"""
from collections import defaultdict

import pandas as pd

from repro.experiments.tables import render


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    bs = getattr(config, "_benchmarksession", None)
    if bs is None or not bs.benchmarks:
        return
    tr = terminalreporter
    tr.write_sep("=", "reproduction tables (benchmark extra_info)")
    rows = defaultdict(list)
    for bm in bs.benchmarks:
        info = bm.extra_info
        if "table" in info:
            df = pd.DataFrame.from_dict(info["table"], orient="tight")
            tr.write_line(render(df, f"{bm.name}: {info['title']}"))
        else:
            rows[bm.fullname.split("::")[0]].append({**info, "bench_mean_s": bm.stats.mean})
    for fname, file_rows in rows.items():
        tr.write_line(render(pd.DataFrame(file_rows), fname))
