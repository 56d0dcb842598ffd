"""Benchmark-suite summary: after the run, prints the table each benchmark of
``bench_tables.py`` stored in ``extra_info["table"]``, and the rows of
``bench_spark_scale.py`` as one table. This is what lands in
``bench_output.txt`` and what EXPERIMENTS.md quotes as the measured numbers.
"""
from collections import defaultdict

import pandas as pd


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    bs = getattr(config, "_benchmarksession", None)
    if bs is None or not bs.benchmarks:
        return
    tr = terminalreporter

    def write(title: str, df: pd.DataFrame) -> None:
        tr.write_line("")
        tr.write_sep("-", title)
        tr.write_line(df.to_string(float_format=lambda v: f"{v:.6g}"))

    tr.write_sep("=", "reproduction tables (benchmark extra_info)")
    rows = defaultdict(list)
    with pd.option_context("display.width", 220, "display.max_columns", 50):
        for bm in bs.benchmarks:
            if "table" in bm.extra_info:
                write(bm.name, pd.DataFrame.from_dict(bm.extra_info["table"], orient="tight"))
            else:
                rows[bm.fullname.split("::")[0]].append({**bm.extra_info, "bench_mean_s": bm.stats.mean})
        for fname, file_rows in rows.items():
            write(fname, pd.DataFrame(file_rows))
