"""Edge-DataFrame graph model.

A directed graph is a Spark DataFrame with columns ``src: long`` and
``dst: long``. The generators emit each edge once (the paper's graphs are
simple directed graphs), but nothing deduplicates the input:
``eve_spg_batch`` accepts duplicate rows and :func:`adjacency` keeps them.
Self-loops are permitted in the input and are provably never part of any
simple path graph, so the algorithms label them failing automatically.

Every algorithm reads the graph as the adjacency dict :func:`adjacency`
builds from the collected edge list.
"""
from __future__ import annotations

import pandas as pd

#: Canonical schema for an edge list.
EDGE_SCHEMA = "src long, dst long"


def adjacency(edges_pdf: pd.DataFrame) -> dict[int, list[int]]:
    """Out-adjacency dict from a pandas edge list (driver-side helper)."""
    adj: dict[int, list[int]] = {}
    for u, v in zip(edges_pdf["src"].tolist(), edges_pdf["dst"].tolist()):
        adj.setdefault(int(u), []).append(int(v))
    return adj
