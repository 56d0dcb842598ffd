"""Smoke test for ``benchmarks/``: the table benchmarks run to completion at
a tiny scale (the Spark scale sweep is left to its own benchmark run)."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_table_benchmarks_run():
    env = dict(os.environ, BENCH_SF="0.01", BENCH_SEEDS="1", BENCH_CAP="20")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-disable", "-q",
         "-k", "not spark_tpa_scale", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
