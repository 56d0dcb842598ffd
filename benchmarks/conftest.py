"""Benchmark-suite summary: after the run, prints the table each benchmark
stored in ``extra_info["table"]``. This is what lands in ``bench_output.txt``
and what EXPERIMENTS.md quotes as the measured numbers.
"""
import pandas as pd

from repro.experiments.tables import render


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    bs = getattr(config, "_benchmarksession", None)
    if bs is None or not bs.benchmarks:
        return
    tr = terminalreporter
    tr.write_sep("=", "reproduction tables (benchmark extra_info)")
    for bm in bs.benchmarks:
        df = pd.DataFrame.from_dict(bm.extra_info["table"], orient="tight")
        tr.write_line(render(df, f"{bm.name}: {bm.extra_info['title']}"))
