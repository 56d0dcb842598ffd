"""Smoke tests for the jobs/ entrypoints.

Local-only jobs run in-process via runpy with a tiny --sf; the Spark jobs
manage their own SparkSession lifecycle (they would stop the shared test
session), so their underlying library functions are exercised instead —
``spark_scale_table`` at miniature size here, and SparkTPA throughout
tests/test_spark_tpa.py.
"""
import runpy
import sys

import pytest

JOBS = "jobs"


def run_job(monkeypatch, capsys, name: str, *argv: str) -> str:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(f"{JOBS}/{name}", run_name="__main__")
    return capsys.readouterr().out


TINY = ("--sf", "0.01", "--seeds", "1", "--cap", "20",
        "--datasets", "slashdot-lite")


class TestLocalJobs:
    def test_table2(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "table2_datasets.py", "--sf", "0.01")
        assert "slashdot-lite" in out and "friendster-lite" in out

    def test_fig1a(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig1a_preprocessing.py", *TINY)
        assert "preprocessing time" in out and "TPA" in out

    def test_fig1b(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig1b_online.py", *TINY)
        assert "online time" in out

    def test_fig1c(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig1c_l1_error.py", *TINY)
        assert "L1 error" in out

    def test_fig3(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig3_memory.py", *TINY)
        assert "preprocessed data" in out

    def test_fig4(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig4_rank_accuracy.py", *TINY)
        assert "Spearman" in out

    def test_fig5(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig5_stranger_effect.py", *TINY[:4],
                      "--datasets", "slashdot-lite")
        assert "stranger approximation" in out

    def test_fig6(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig6_neighbor_effect.py", *TINY[:4],
                      "--datasets", "slashdot-lite")
        assert "neighbor approximation" in out

    def test_fig7(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig7_effect_s.py", *TINY[:4],
                      "--datasets", "pokec-lite")
        assert "effect of S" in out

    def test_fig8(self, monkeypatch, capsys):
        out = run_job(monkeypatch, capsys, "fig8_effect_t.py", *TINY[:4],
                      "--datasets", "pokec-lite")
        assert "effect of T" in out
        assert any(line.split()[2:3] == ["5"] for line in out.splitlines())  # Fig. 8's minimum


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
