"""TS: distributed Spark TPA scalability — preprocessing and online time
across growing DCSBM graphs (the paper's "only TPA reaches billion scale"
claim, scaled to this machine; Theorem 3's O(m)-per-iteration is checked by
the table's per-edge-per-iteration cost). The table is ``spark_scale_table``'s,
the one ``jobs/spark_scale.py`` prints, JIT warm-up included; it is stored
in ``extra_info["table"]`` as ``bench_tables.py`` stores its tables.
"""
from repro.experiments.spark_scale import TITLE, spark_scale_table


def test_spark_tpa_scale(benchmark, spark):
    df = benchmark.pedantic(spark_scale_table, args=(spark,), rounds=1, iterations=1)
    benchmark.extra_info.update(table=df.to_dict("tight"), title=TITLE)
