"""Edge labeling and the upper-bound graph (§4, Algorithm 2) as Catalyst
joins, batched over queries.

Every edge ``e(u,v)`` gets, per query, a label:

- ``0`` failing — provably not in SPG_k (Theorem 3.4),
- ``1`` undetermined — in the upper-bound graph, needs verification,
- ``2`` definite — provably in SPG_k (Lemmas 4.4/4.6).

By Theorem 4.3 only the *diagonal* pairs ``(k_f, k_b = k-1-k_f)`` need
checking, so the whole labeling is one join of the edge list against the
forward EV table on ``src`` and the backward EV table on ``(qid, dst)`` with
the join condition ``l_f + l_b = k-1``, followed by a per-(query, edge)
aggregation:

- undetermined witness: some diagonal row with ``2 ≤ k_f ≤ k-3`` and
  ``EV_{k_f}(s,u) ∩ EV_{k_b}(v,t) = ∅``;
- definite witnesses (Algorithm 2 lines 1–4): the ``(0, k-1)`` row with
  ``u = s``; the ``(k-1, 0)`` row with ``v = t``; the ``(1, k-2)`` row with
  ``u ∉ EV_{k-2}(v,t)``; the ``(k-2, 1)`` row with ``v ∉ EV_{k-2}(s,u)``.

Edges with no diagonal row for a query (unreachable / pruned / every pair
nonexistent) are failing and simply produce no output row. The upper-bound
graph SPG^u per query is label ≥ 1.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def label_edges(
    spark: SparkSession,
    edges: DataFrame,
    evf: DataFrame,
    evb: DataFrame,
    queries: DataFrame,
    k: int,
) -> DataFrame:
    """Label edges per query → DataFrame ``(qid, src, dst, label)``.

    ``evf``/``evb`` are forward/backward propagation outputs
    (:data:`repro.core.essential.EV_SCHEMA`); ``queries`` is the
    ``(qid, s, t)`` batch table. Only edges with at least one diagonal row
    appear; absent (qid, edge) pairs are failing (label 0).
    """
    f = evf.select(
        F.col("qid"),
        F.col("v").alias("fu"),
        F.col("l").alias("lf"),
        F.col("ev").alias("evf"),
    )
    b = evb.select(
        F.col("qid").alias("bqid"),
        F.col("v").alias("bv"),
        F.col("l").alias("lb"),
        F.col("ev").alias("evb"),
    )
    diag = (
        edges.join(f, edges["src"] == f["fu"])
        .join(
            b,
            (F.col("qid") == F.col("bqid"))
            & (edges["dst"] == b["bv"])
            & (f["lf"] + b["lb"] == F.lit(k - 1)),
        )
        .join(F.broadcast(queries), "qid")
    )
    empty_inter = F.size(F.array_intersect("evf", "evb")) == 0
    undet = (F.col("lf") >= 2) & (F.col("lf") <= k - 3) & empty_inter
    d2a = (F.col("src") == F.col("s")) & (F.col("lf") == 0) & (F.col("lb") == k - 1)
    d2b = (F.col("dst") == F.col("t")) & (F.col("lf") == k - 1) & (F.col("lb") == 0)
    d2c = (
        (F.col("lf") == 1)
        & (F.col("lb") == k - 2)
        & (~F.array_contains("evb", F.col("src")))
    )
    d2d = (
        (F.col("lb") == 1)
        & (F.col("lf") == k - 2)
        & (~F.array_contains("evf", F.col("dst")))
    )
    return (
        diag.groupBy("qid", "src", "dst")
        .agg(
            F.max(undet.cast("int")).alias("u_flag"),
            F.max((d2a | d2b | d2c | d2d).cast("int")).alias("d_flag"),
        )
        .select(
            "qid",
            "src",
            "dst",
            F.when(F.col("d_flag") == 1, F.lit(2))
            .when(F.col("u_flag") == 1, F.lit(1))
            .otherwise(F.lit(0))
            .cast("int")
            .alias("label"),
        )
    )
