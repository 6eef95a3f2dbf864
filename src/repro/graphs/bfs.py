"""Distributed BFS shortest-distance dataflow (§3.3 substrate), batched.

The engine is *query-batched*: a batch of queries ``(qid, s, t)`` runs
through one shared dataflow, with every frontier/distance table carrying a
``qid`` column, so per-layer driver/planning overhead is paid once per batch
instead of once per query. Its callers are the Spark baselines: KHSQ and
PathEnum's index run it without ``adaptive``, KHSQ⁺ with it.

:func:`batch_distance_maps` searches forward from every ``s`` and backward
from every ``t``. By default both sides run to depth ``k`` (plain bounded
BFS). With ``adaptive=True`` (paper §3.3, Fig. 6(a)) it runs in two phases:

1. the side with the smaller aggregate frontier (summed over the batch)
   expands next, until the two depths sum to ``k`` (Adaptive Bi-directional
   Search [2,21]; frontier counts are driver actions);
2. each side continues to depth ``k``, restricted to the vertices the other
   side explored in phase 1.

Every vertex with ``Δ(s,v) + Δ(v,t) ≤ k`` — the only vertices downstream
consumers read (forward-looking pruning) — gets both exact distances either
way; ``adaptive`` changes efficiency, never those distances.

The edges are a shared ``(src, dst)`` table or a per-query
``(qid, src, dst)`` table; each level meets them through
:func:`repro.graphs.model.join_out_edges`. The search pins every level and
fold itself (:class:`repro.spark_util.DFPin`), so callers pass only the
graph, the batch and ``k``.
"""
from __future__ import annotations

from functools import reduce
from typing import Optional, Sequence, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.model import join_out_edges, reverse_edges
from repro.spark_util import DFPin

#: Schema for a query batch.
QUERY_SCHEMA = "qid long, s long, t long"


def queries_df(spark: SparkSession, queries: Sequence[Tuple[int, int]]) -> DataFrame:
    """Build the ``(qid, s, t)`` batch table from (s, t) pairs."""
    pdf = pd.DataFrame(
        [(i, int(s), int(t)) for i, (s, t) in enumerate(queries)],
        columns=["qid", "s", "t"],
    )
    return spark.createDataFrame(pdf, schema=QUERY_SCHEMA).coalesce(1)


class _Side:
    """One search direction: its edges, per-level ``(qid, v, dist)`` tables
    and current ``(qid, v)`` frontier. Every new level is pinned."""

    def __init__(self, edges: DataFrame, seeds: DataFrame) -> None:
        self.edges = edges
        self.pin = DFPin()
        self.frontier = seeds
        self.levels = [seeds.withColumn("dist", F.lit(0).cast("int"))]
        self.depth = 0
        self.size = 1  # aggregate frontier count; only ``adaptive`` updates it

    def step(self, seen: Optional[DataFrame] = None) -> None:
        """Expand one level. The frontier is broadcast into the edge join (one
        map-side join + one dedup shuffle); revisited vertices ride along and
        are resolved by the ``min(dist)`` fold. ``seen`` (a ``(qid, v)``
        table) restricts the new frontier to the other side's region."""
        nxt = (
            join_out_edges(F.broadcast(self.frontier), "v", self.edges)
            .select("qid", F.col("dst").alias("v"))
            .distinct()
        )
        if seen is not None:
            nxt = nxt.join(F.broadcast(seen), ["qid", "v"], "left_semi")
        self.frontier = self.pin(nxt)
        self.depth += 1
        self.levels.append(
            self.frontier.withColumn("dist", F.lit(self.depth).cast("int"))
        )

    def fold(self) -> None:
        """Collapse the levels into ``dist``, one ``min(dist)`` row per
        ``(qid, v)``; further steps expand from its deepest level."""
        self.dist = self.pin(
            reduce(DataFrame.unionByName, self.levels)
            .groupBy("qid", "v")
            .agg(F.min("dist").alias("dist"))
        )
        self.levels = [self.dist]
        self.frontier = self.dist.where(F.col("dist") == self.depth).select("qid", "v")


def batch_distance_maps(
    edges: DataFrame, queries: DataFrame, k: int, *, adaptive: bool = False
) -> Tuple[DataFrame, DataFrame]:
    """``(dist_from_s, dist_to_t)``, each ``(qid, v, dist)`` with one row per
    reached vertex (unreached vertices are absent, i.e. distance +∞).

    ``edges`` is a shared ``(src, dst)`` table or a per-query
    ``(qid, src, dst)`` table; ``adaptive`` picks the search (see module doc).
    """
    fwd = _Side(edges, queries.select("qid", F.col("s").alias("v")).distinct())
    bwd = _Side(
        reverse_edges(edges), queries.select("qid", F.col("t").alias("v")).distinct()
    )
    if adaptive:
        while fwd.depth + bwd.depth < k and (fwd.size or bwd.size):
            side = fwd if 0 < fwd.size <= bwd.size or not bwd.size else bwd
            side.step()
            # The count drives the control flow (and materialises the pin).
            side.size = side.frontier.count()
    else:
        for side in (fwd, bwd):
            while side.depth < k:
                side.step()
    fwd.fold()
    bwd.fold()
    seen_f, seen_b = fwd.dist.select("qid", "v"), bwd.dist.select("qid", "v")
    for side, seen in ((fwd, seen_b), (bwd, seen_f)):
        if side.depth < k:
            while side.depth < k:
                side.step(seen)
            side.fold()
    return fwd.dist, bwd.dist
