"""Distributed-TPA scalability table (DESIGN.md TS): SparkTPA preprocess and
online time across growing DCSBM graphs, plus the O(m)-per-iteration check.

    spark-submit jobs/spark_scale.py
"""
from pyspark.sql import SparkSession

from repro.experiments.spark_scale import TITLE, spark_scale_table
from repro.experiments.tables import render

if __name__ == "__main__":
    spark = SparkSession.builder.appName("tpa-spark-scale").getOrCreate()
    try:
        print(render(spark_scale_table(spark), TITLE))
    finally:
        spark.stop()
