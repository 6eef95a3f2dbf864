"""EVE — the paper's primary contribution.

- :mod:`repro.core.reference` — §3–§4 for one query: BFS distances,
  essential-vertex propagation (Eq. 4), edge labeling (Alg. 2), and the
  whole per-query pipeline with per-phase timings.
- :mod:`repro.core.verify` — §5: departures/arrivals + DFS verification.
- :mod:`repro.core.eve` — runs the per-query pipeline over a batch of
  queries in Spark's Python workers: one RDD ``map`` over the broadcast
  adjacency, whose ``collect`` returns the answers in query order.
  ``EveResult.redundant_ratio`` is the §6.6 redundant ratio.

The graph format, its reverse and the BFS come from
:mod:`repro.graphs.model`; nothing here imports :mod:`repro.baselines`.
"""
