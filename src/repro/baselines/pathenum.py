"""PathEnum-lite [35]: index-pruned enumeration with a cost-based mode choice.

PathEnum's three credited ideas, reproduced here (the original is
closed-source C++ — see DESIGN.md §3):

1. a *lightweight online index*: bounded BFS distance maps from ``s`` and to
   ``t``, which both prune the candidate edge set to
   ``Δ(s,u)+1+Δ(v,t) ≤ k`` and drive per-step expansion pruning;
2. a DFS-style enumeration mode (pruned expansion over the candidate
   subgraph);
3. a join-based mode (meet-in-the-middle over the candidate subgraph) with a
   cost-based optimiser choosing between the two.

Everything is per query: :func:`pathenum_paths` builds the query's index,
picks its mode and enumerates over its candidate adjacency.

The cost model is deliberately simple (documented substitution): estimate
the candidate graph's mean out-degree ``d``; DFS explores ~``d^(k-1)``
prefixes while the join materialises two ~``d^(k/2)`` halves, so the join
mode wins once ``k`` and ``d`` are large.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.enumeration import Path, dfs_paths, join_paths
from repro.baselines.khsq import distance_maps, gkst_edges
from repro.graphs.model import Graph


def build_index(
    adj: Graph, s: int, t: int, k: int
) -> Tuple[Graph, Dict[int, int], Dict[int, int]]:
    """The lightweight online index: ``(candidates, dist_s, dist_t)``, the
    adjacency of the candidate edges and the bounded BFS maps that pick
    them."""
    dist_s, dist_t = distance_maps(adj, s, t, k)
    cand = Graph(gkst_edges(adj, dist_s, dist_t, k))
    return cand, dist_s, dist_t


def choose_mode(avg_out_degree: float, k: int) -> str:
    """Cost-based optimiser: ``dfs`` or ``join`` (see module docstring)."""
    if avg_out_degree <= 1.0:
        return "dfs"
    h1 = (k + 1) // 2
    dfs_cost = avg_out_degree ** max(0, k - 1)
    join_cost = 4.0 * (avg_out_degree ** h1)
    return "join" if dfs_cost > join_cost else "dfs"


def pathenum_paths(
    adj: Graph, s: int, t: int, k: int, *, max_rows: Optional[int] = None
) -> Optional[List[Path]]:
    """PathEnum: all simple s-t paths with ≤ k edges, or ``None`` over
    ``max_rows``.

    :func:`choose_mode` picks DFS or JOIN mode from the mean out-degree of
    the query's candidate edges. "PathEnum on SPG_k / G^k_st" (Tables 4–5)
    just passes the reduced graph as ``adj``.
    """
    cand, dist_s, dist_t = build_index(adj, s, t, k)
    avg_out_degree = sum(map(len, cand.values())) / len(cand) if cand else 0.0
    if choose_mode(avg_out_degree, k) == "join":
        return join_paths(
            cand, s, t, k, dist_s=dist_s, dist_t=dist_t, max_rows=max_rows
        )
    return dfs_paths(cand, s, t, k, dist_t=dist_t, max_rows=max_rows)
