"""Smoke tests for the jobs/ entrypoints.

``jobs/tables.py`` runs in-process via runpy at a tiny scale, once per
``TABLES`` id; the Spark jobs manage their own SparkSession lifecycle (they
would stop the shared test session), so their underlying library functions
are exercised instead — ``spark_scale_table`` at miniature size here, and
SparkTPA throughout tests/test_spark_tpa.py.
"""
import runpy
import sys

import pytest

from repro.experiments.tables import TABLES

# A tiny value for each scale argument, as the flags that set it.
TINY = {
    "datasets": ("--datasets", "slashdot-lite"),
    "sf": ("--sf", "0.01"),
    "n_seeds": ("--seeds", "1"),
    "time_cap": ("--cap", "20"),
}


def run_tables_job(monkeypatch, capsys, *argv: str) -> str:
    monkeypatch.setattr(sys, "argv", ["tables.py", *argv])
    runpy.run_path("jobs/tables.py", run_name="__main__")
    return capsys.readouterr().out


class TestLocalJobs:
    @pytest.mark.parametrize("table", list(TABLES))
    def test_table(self, monkeypatch, capsys, table):
        flags = [v for arg in TABLES[table].args for v in TINY[arg]]
        out = run_tables_job(monkeypatch, capsys, table, *flags)
        assert f"=== {TABLES[table].title} ===" in out
        assert "slashdot-lite" in out

    @pytest.mark.parametrize(
        "argv",
        [("T2", "--seeds", "1"), ("T5", "--cap", "5"), ("T5", "--datasets", "nope")],
        ids=["T2-seeds", "T5-cap", "T5-unknown-dataset"],
    )
    def test_flag_the_builder_does_not_take_exits_2(self, monkeypatch, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            run_tables_job(monkeypatch, capsys, *argv)
        assert exit_.value.code == 2


class TestSparkScaleFunction:
    def test_tiny_sweep(self, spark):
        from repro.experiments.spark_scale import spark_scale_table

        df = spark_scale_table(
            spark, sizes=[(100, 600), (200, 1200)], eps=1e-2, n_seeds=1, S=2, T=4
        )
        assert len(df) == 2
        assert (df["pre_time_s"] > 0).all()
        assert (df["online_time_s"] > 0).all()
        assert (df["stranger_bytes"] > 0).all()
        assert df["edges"].tolist() == [600, 1200]

    def test_one_size_frees_its_vectors(self, spark):
        """Ã and the stranger vector of a size are freed before the next one."""
        from repro.experiments.spark_scale import spark_scale_table

        rdds = spark.sparkContext._jsc.getPersistentRDDs
        before = rdds().size()
        spark_scale_table(spark, sizes=[(100, 600)], eps=1e-2, n_seeds=1, S=2, T=4)
        assert rdds().size() == before
