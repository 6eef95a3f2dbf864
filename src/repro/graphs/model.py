"""The graph as every kernel holds it: adjacency dicts and the one BFS.

A directed graph arrives as a Spark DataFrame with columns ``src: long`` and
``dst: long``. The paper's ``E`` is a set (Definition 2.1), so a duplicated
row is one edge: :func:`adjacency` lists each distinct edge once, in the
order its first row comes. Self-loops are permitted in the input and are
provably never part of any simple path graph, so the algorithms label them
failing automatically.

This module is the only one that knows the in-memory format. EVE, the
baselines and the pure-Python oracles read the graph as the out-adjacency
dict :func:`adjacency` builds from the collected edge list, search it
backwards through :func:`reverse_adj`, and take every hop distance from
:func:`bfs_dist` (or, for a search that picks its side each level, from
:func:`expand`, the level step it is built on).
"""
from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pandas as pd

#: Canonical schema for an edge list.
EDGE_SCHEMA = "src long, dst long"

Edge = Tuple[int, int]
#: vertex → its out-neighbours (or in-neighbours, for a reversed graph)
Adj = Dict[int, List[int]]


def adjacency(edges_pdf: pd.DataFrame) -> Adj:
    """Out-adjacency dict of a pandas edge list (driver-side helper): each
    distinct edge once, in the order of its first row."""
    src, dst = (edges_pdf[c].to_numpy("int64").tolist() for c in ("src", "dst"))
    adj: Adj = {}
    for u, v in dict.fromkeys(zip(src, dst)):
        adj.setdefault(u, []).append(v)
    return adj


def build_adjacency(edge_set: Iterable[Edge]) -> Tuple[Adj, Adj]:
    """Out- and in-adjacency of a set of edges (a query's own graph, such
    as its upper-bound graph SPG^u)."""
    out_adj: Adj = {}
    in_adj: Adj = {}
    for u, v in edge_set:
        out_adj.setdefault(u, []).append(v)
        in_adj.setdefault(v, []).append(u)
    return out_adj, in_adj


def reverse_adj(adj: Adj) -> Adj:
    """Reversed adjacency."""
    r: Adj = {}
    for u, vs in adj.items():
        for v in vs:
            r.setdefault(v, []).append(u)
    return r


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
