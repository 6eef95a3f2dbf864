"""KHSQ / KHSQ⁺ — hop-constrained s-t subgraph ``G^k_st`` ([25], §6.7).

``G^k_st`` contains every edge on *some* (not necessarily simple) s-t path
of length ≤ k, i.e. edges ``e(u,v)`` with ``Δ(s,u) + 1 + Δ(v,t) ≤ k``.
KHSQ computes the two distance maps with bounded BFS from each side; KHSQ⁺
— the paper's §6.7 optimisation — swaps in the adaptive bi-directional
search of §3.3. Each function answers one query over a ``Graph`` (the
backward side searches its ``rev``); ``bench_harness`` runs :func:`gkst`
in Spark's Python workers.

``G^k_st ⊇ SPG_k``: it is the coarser (cycle-containing) search-space
reduction that Tables 4–5 compare against. Its distance maps are also
PathEnum's index (:mod:`repro.baselines.pathenum`).
"""
from __future__ import annotations

import math
from typing import Dict, Set, Tuple

from repro.graphs.model import Adj, Edge, Graph, bfs_dist, expand


def distance_maps(
    adj: Graph, s: int, t: int, k: int, *, adaptive: bool = False
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """``(Δ(s,·), Δ(·,t))`` up to depth ``k``; unreached vertices are absent.

    ``adaptive=False`` runs bounded BFS from each side. ``adaptive=True``
    (§3.3, Fig. 6(a)) runs in two phases: the side with the smaller frontier
    expands next until the two depths sum to ``k``; then each side goes on
    to depth ``k`` over the vertices the other side reached in phase 1.
    Either way every vertex with ``Δ(s,v) + Δ(v,t) ≤ k`` gets both exact
    distances; no distance is ever below the true one.
    """
    if not adaptive:
        return bfs_dist(adj, (s,), k), bfs_dist(adj.rev, (t,), k)
    graphs, dists = (adj, adj.rev), ({s: 0}, {t: 0})
    frontiers, depths = [[s], [t]], [0, 0]
    while sum(depths) < k and (frontiers[0] or frontiers[1]):
        f, b = map(len, frontiers)
        i = 0 if 0 < f <= b or not b else 1
        depths[i] += 1
        frontiers[i] = expand(graphs[i], dists[i], frontiers[i], depths[i])
    regions = [set(d) for d in dists]
    for i in (0, 1):
        while depths[i] < k and frontiers[i]:
            depths[i] += 1
            frontiers[i] = expand(
                graphs[i], dists[i], frontiers[i], depths[i], regions[1 - i]
            )
    return dists


def gkst_edges(
    adj: Adj, dist_s: Dict[int, int], dist_t: Dict[int, int], k: int
) -> Set[Edge]:
    """The edges with ``Δ(s,u) + 1 + Δ(v,t) ≤ k``."""
    return {
        (u, v)
        for u, du in dist_s.items()
        for v in adj.get(u, ())
        if du + 1 + dist_t.get(v, math.inf) <= k
    }


def gkst(adj: Graph, s: int, t: int, k: int, *, adaptive: bool = False) -> Set[Edge]:
    """``G^k_st`` of one query: KHSQ, or KHSQ⁺ with ``adaptive=True``."""
    return gkst_edges(adj, *distance_maps(adj, s, t, k, adaptive=adaptive), k)
