"""Reproduction of "TPA: Fast, Scalable, and Accurate Method for Approximate
Random Walk with Restart on Billion Scale Graphs" (Yoon, Jung, Kang;
ICDE 2018). See DESIGN.md for the system map and EXPERIMENTS.md for paper
vs measured numbers.

Packages: ``graph`` (substrates), ``core`` (CPI + TPA, Spark and local),
``baselines`` (RPPR, BRPPR, NB-LIN, BEAR-APPROX, HubPPR), ``experiments``
(datasets, runner, per-table builders), plus ``oracle`` (DuckDB result
checker), ``metrics`` and ``deadline``.
"""
