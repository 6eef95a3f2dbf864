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

The index's candidate edges are a per-query ``(qid, src, dst)`` table, and
both modes enumerate over it, so each query walks only its own candidate
subgraph; the distance maps also prune every expansion step. The index and
every enumeration level are pinned inside the call, so callers pass only
the graph, the batch, ``k`` and the optional ``max_rows`` guard.

The cost model is deliberately simple (documented substitution): estimate
the candidate graph's mean out-degree ``d``; DFS explores ~``d^(k-1)``
prefixes while the join materialises two ~``d^(k/2)`` halves, so the join
mode wins once ``k`` and ``d`` are large.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from pyspark.sql import DataFrame

from repro.baselines.enumeration import batch_enumerate_paths, batch_join_paths
from repro.baselines.khsq import gkst_edges
from repro.graphs.bfs import batch_distance_maps
from repro.spark_util import DFPin


@dataclass
class PathEnumIndex:
    """The lightweight online index: per-query distance maps + candidates."""

    dist_s: DataFrame
    dist_t: DataFrame
    candidate_edges: DataFrame  # (qid, src, dst)
    avg_out_degree: float


def build_index(edges: DataFrame, queries: DataFrame, k: int) -> PathEnumIndex:
    """Bounded BFS both ways + candidate-edge pruning (the PathEnum index)."""
    dist_s, dist_t = batch_distance_maps(edges, queries, k)
    cand = DFPin()(gkst_edges(edges, dist_s, dist_t, k))
    stats = cand.groupBy("qid", "src").count().groupBy().avg("count").collect()
    return PathEnumIndex(dist_s, dist_t, cand, float(stats[0][0] or 0.0))


def choose_mode(avg_out_degree: float, k: int) -> str:
    """Cost-based optimiser: ``dfs`` or ``join`` (see module docstring)."""
    if avg_out_degree <= 1.0:
        return "dfs"
    h1 = (k + 1) // 2
    dfs_cost = avg_out_degree ** max(0, k - 1)
    join_cost = 4.0 * (avg_out_degree ** h1)
    return "join" if dfs_cost > join_cost else "dfs"


def batch_pathenum(
    edges: DataFrame, queries: DataFrame, k: int, *, max_rows: Optional[int] = None
) -> DataFrame:
    """PathEnum: all k-hop-constrained s-t simple paths ``(qid, verts)``.

    :func:`choose_mode` picks DFS or JOIN mode from the index. Running
    "PathEnum on SPG_k / G^k_st" (Tables 4–5) just passes the reduced graph
    as ``edges`` — the index, candidate set and every expansion step shrink
    with it.
    """
    idx = build_index(edges, queries, k)
    # Per-query candidate edges: the expansion joins match on qid, so each
    # query only ever walks its own candidate subgraph.
    cand_edges = idx.candidate_edges
    if choose_mode(idx.avg_out_degree, k) == "join":
        return batch_join_paths(
            cand_edges, queries, k,
            dist_s=idx.dist_s, dist_t=idx.dist_t, max_rows=max_rows,
        )
    return batch_enumerate_paths(
        cand_edges, queries, k, dist_t=idx.dist_t, max_rows=max_rows
    )
