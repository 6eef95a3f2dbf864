"""Graph substrate: edge model, generators, BFS, query workloads.

The paper's input is a directed graph ``G=(V,E)``; here a graph is a Spark
DataFrame with long columns ``src`` and ``dst`` (the generators emit each
edge once; duplicate rows are accepted, not removed). The Spark baselines
in :mod:`repro.baselines` run on this DataFrame; :mod:`repro.core` and the
pure-Python oracles consume an adjacency dict built from the collected edge
list (:func:`repro.graphs.model.adjacency`).
"""
from repro.graphs.model import EDGE_SCHEMA, reverse_edges  # noqa: F401
