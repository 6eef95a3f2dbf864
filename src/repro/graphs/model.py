"""The graph as every kernel holds it: :class:`Graph` and the one BFS.

A directed graph arrives as a Spark DataFrame with columns ``src: long`` and
``dst: long``. The paper's ``E`` is a set (Definition 2.1), so a duplicated
row is one edge: :class:`Graph` lists each distinct edge once, in the order
its first row comes. Self-loops are permitted in the input and are
provably never part of any simple path graph, so the algorithms label them
failing automatically.

This module is the only one that knows the in-memory format. EVE, the
baselines and the pure-Python oracles read the graph as a :class:`Graph`
(:func:`adjacency` builds it from the collected edge list), search it
backwards through its cached reverse ``Graph.rev``, number its edges by
``Graph.off``, and take every hop distance from :func:`bfs_dist` (or, for a
search that picks its side each level, from :func:`expand`, the level step
it is built on).
"""
from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pandas as pd

#: Canonical schema for an edge list.
EDGE_SCHEMA = "src long, dst long"

Edge = Tuple[int, int]
#: vertex → its out-neighbours (or in-neighbours, for a reversed graph)
Adj = Dict[int, List[int]]


class Graph(dict):
    """Vertex → its out-neighbours, each distinct edge of ``edges`` once, in
    the order of its first occurrence.

    An edge's position in ``items()`` order is its number: ``(u, g[u][i])``
    is edge ``g.off[u] + i`` of :meth:`edge_list`. ``rev`` (the reverse
    graph) and ``off`` are built on first use and kept, so the queries that
    share one graph (one broadcast value in a Python worker) build them
    once. A ``Graph`` pickles as its dict alone, even once they were read.
    Do not add edges to a ``Graph`` whose ``rev`` or ``off`` has been read.
    """

    def __init__(self, edges: Iterable[Edge]) -> None:
        super().__init__()
        for u, v in dict.fromkeys(edges):
            self.setdefault(u, []).append(v)

    def __reduce__(self):
        return Graph, ((),), None, None, iter(self.items())

    @cached_property
    def rev(self) -> Graph:
        """Vertex → its in-neighbours (no dedup pass); ``g.rev.rev is g``."""
        r = Graph(())
        for u, vs in self.items():
            for v in vs:
                r.setdefault(v, []).append(u)
        r.rev = self
        return r

    @cached_property
    def off(self) -> Dict[int, int]:
        """Vertex → the position of its first out-edge in ``items()`` order."""
        return dict(zip(self, accumulate(map(len, self.values()), initial=0)))

    def edge_list(self) -> List[Edge]:
        """Every edge, at its position: ``(u, v)`` is ``off[u] + self[u].index(v)``."""
        return [(u, v) for u, vs in self.items() for v in vs]


def adjacency(edges_pdf: pd.DataFrame) -> Graph:
    """The :class:`Graph` of a pandas edge list (driver-side helper)."""
    src, dst = (edges_pdf[c].to_numpy("int64").tolist() for c in ("src", "dst"))
    return Graph(zip(src, dst))


def expand(
    adj: Adj, dist: Dict[int, int], frontier: List[int], depth: int,
    region: Optional[Set[int]] = None,
) -> List[int]:
    """One BFS level: the vertices first reached from ``frontier`` (only
    those in ``region``, if given), recorded in ``dist`` at ``depth``."""
    nxt = []
    for u in frontier:
        for v in adj.get(u, ()):
            if v not in dist and (region is None or v in region):
                dist[v] = depth
                nxt.append(v)
    return nxt


def bfs_dist(
    adj: Adj, sources: Iterable[int], max_depth: float = math.inf
) -> Dict[int, int]:
    """Hop distance from the nearest of ``sources`` to every vertex within
    ``max_depth``; unreached vertices are absent. Level-synchronous, so the
    keys come in discovery order."""
    dist = dict.fromkeys(sources, 0)
    frontier, depth = list(dist), 0
    while frontier and depth < max_depth:
        depth += 1
        frontier = expand(adj, dist, frontier, depth)
    return dist
