"""Baseline algorithms and ground-truth reference implementations.

Every baseline answers one query over a :class:`repro.graphs.model.Graph`
(whose cached ``rev`` is the reversed graph; the module also gives the
BFS), in plain Python; ``bench_harness`` runs it once per query in Spark's
Python workers through :func:`repro.spark_util.map_queries`, the runner EVE
uses too.

- :mod:`repro.baselines.bruteforce` — pure-Python exact reference (test
  oracle; no module of the program imports it).
- :mod:`repro.baselines.enumeration` — hop-constrained simple path
  enumeration (distance-pruned "PathEnum-DFS" and JOIN).
- :mod:`repro.baselines.pathenum` — PathEnum-lite with cost-based mode choice.
- :mod:`repro.baselines.khsq` — KHSQ / KHSQ⁺ hop-constrained s-t subgraphs.
"""
