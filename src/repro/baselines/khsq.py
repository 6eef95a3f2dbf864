"""KHSQ / KHSQ⁺ — hop-constrained s-t subgraph ``G^k_st`` ([25], §6.7).

``G^k_st`` contains every edge on *some* (not necessarily simple) s-t path
of length ≤ k, i.e. edges ``e(u,v)`` with ``Δ(s,u) + 1 + Δ(v,t) ≤ k``.
KHSQ computes the two distance maps with single-directional BFS from each
side; KHSQ⁺ — the paper's §6.7 optimisation — swaps in the adaptive
bi-directional search of §3.3. Both are query-batched.

``G^k_st ⊇ SPG_k``: it is the coarser (cycle-containing) search-space
reduction that Tables 4–5 compare against. The BFS pins its own levels, so
callers pass only the graph, the batch and ``k``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.bfs import batch_distance_maps
from repro.graphs.model import join_out_edges


def gkst_edges(
    edges: DataFrame, dist_s: DataFrame, dist_t: DataFrame, k: int
) -> DataFrame:
    """Edges with ``Δ(s,u) + 1 + Δ(v,t) ≤ k`` per query: ``(qid, src, dst)``.

    ``dist_s``/``dist_t`` are ``(qid, v, dist)`` distance maps; ``edges`` is
    a shared ``(src, dst)`` table or a per-query ``(qid, src, dst)`` table.
    """
    ds = dist_s.select("qid", F.col("v").alias("src"), F.col("dist").alias("ds"))
    dt = dist_t.select("qid", F.col("v").alias("dst"), F.col("dist").alias("dt"))
    return (
        join_out_edges(F.broadcast(ds), "src", edges)
        .join(F.broadcast(dt), ["qid", "dst"])
        .where(F.col("ds") + 1 + F.col("dt") <= k)
        .select("qid", "src", "dst")
    )


def batch_gkst(
    edges: DataFrame, queries: DataFrame, k: int, *, adaptive: bool = False
) -> DataFrame:
    """``G^k_st`` per query: ``(qid, src, dst)``.

    ``adaptive=False`` → KHSQ (plain bounded BFS each side);
    ``adaptive=True`` → KHSQ⁺ (adaptive bi-directional search).
    """
    dist_s, dist_t = batch_distance_maps(edges, queries, k, adaptive=adaptive)
    return gkst_edges(edges, dist_s, dist_t, k)
