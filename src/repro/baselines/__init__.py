"""Baseline algorithms and ground-truth reference implementations.

- :mod:`repro.baselines.bruteforce` — pure-Python exact reference (test oracle).
- :mod:`repro.baselines.enumeration` — Spark hop-constrained simple path
  enumeration (distance-pruned "PathEnum-DFS" and JOIN).
- :mod:`repro.baselines.pathenum` — PathEnum-lite with cost-based mode choice.
- :mod:`repro.baselines.khsq` — KHSQ / KHSQ⁺ hop-constrained s-t subgraphs.
"""
