"""Essential-vertex propagation (§3, Algorithm 1 / Eq. 4) as batched Spark
dataflow.

``EV_l(source, y)`` — the intersection of the vertex sets of all ≤l-hop
walks source→y avoiding ``excluded`` — is computed layer by layer with the
closure form of Eq. (4):

    EV_l(y) = ∩_{x ∈ In(y), EV_{l-1}(x) defined} ( EV_{l-1}(x) ∪ {y} )

(see DESIGN.md §1 for why the closure form, not the literal frontier form of
Algorithm 1, matches Definition 3.1; Theorem 3.5 guarantees EV_l = EV*_l).

A whole batch of queries propagates through one shared dataflow — every
table carries a ``qid`` column (see :mod:`repro.graphs.bfs` for the
rationale). Forward propagation uses roles ``(qid, source=s, excluded=t)``
on ``G``; backward propagation uses roles ``(qid, source=t, excluded=s)``
on ``G^r``.

The per-vertex set intersection is pure Catalyst: every in-contribution set
is exploded, and a vertex ``w`` survives for target ``y`` iff it appears in
*all* contributions — ``count(qid,y,w) == n_contributions(qid,y)``.

Forward-looking pruning (§3.3, Theorem 3.6): when ``dist_prune`` — a
``(qid, v, dist)`` map of shortest distances *to the opposite query
endpoint* — is given, an entry ``(qid, y, l)`` is only kept when
``l + Δ(y, ·) ≤ k``. Pruned entries are provably never needed by edge
labeling, and paths through pruned entries can only lead to pruned entries,
so kept values stay exact.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.spark_util import no_pin

#: Schema of a propagation result: one row per kept (query, vertex, layer).
EV_SCHEMA = "qid long, v long, ev array<long>, l int"


def forward_roles(queries: DataFrame) -> DataFrame:
    """Roles for forward propagation: source=s, excluded=t."""
    return queries.select(
        "qid", F.col("s").alias("source"), F.col("t").alias("excluded")
    )


def backward_roles(queries: DataFrame) -> DataFrame:
    """Roles for backward propagation (on ``G^r``): source=t, excluded=s."""
    return queries.select(
        "qid", F.col("t").alias("source"), F.col("s").alias("excluded")
    )


def _intersect(contrib: DataFrame) -> DataFrame:
    """w ∈ EV(qid,y) iff w appears in every contribution set for (qid,y)."""
    w_tot = Window.partitionBy("qid", "v")
    exploded = contrib.withColumn("n", F.count("*").over(w_tot)).select(
        "qid", "v", "n", F.explode("c").alias("w")
    )
    return (
        exploded.groupBy("qid", "v", "w")
        .agg(F.count("*").alias("cnt"), F.first("n").alias("n"))
        .where(F.col("cnt") == F.col("n"))
        .groupBy("qid", "v")
        .agg(F.sort_array(F.collect_list("w")).alias("ev"))
    )


def propagate(
    spark: SparkSession,
    edges: DataFrame,
    roles: DataFrame,
    k: int,
    *,
    dist_prune: DataFrame | None = None,
    pin=no_pin,
) -> DataFrame:
    """Layered essential-vertex computation for a query batch, layers 0..k-1.

    ``roles`` is a ``(qid, source, excluded)`` table (see
    :func:`forward_roles` / :func:`backward_roles`). Returns a DataFrame with
    :data:`EV_SCHEMA`; a row ``(qid, y, ev, l)`` means EV*_l(source→y) exists
    for query ``qid`` (a ≤l-hop simple path avoiding ``excluded`` reaches y,
    and pruning kept the entry) and equals ``ev`` (sorted). The ``source``
    row (ev = {source}) is present at every layer so that one-hop
    contributions keep flowing and edge labeling can look up EV_l(s,s).
    """
    src_rows = roles.select(
        "qid",
        F.col("source").alias("v"),
        F.array(F.col("source")).alias("ev"),
    ).coalesce(1)
    prev = src_rows
    layers = [src_rows.withColumn("l", F.lit(0).cast("int"))]
    for l in range(1, k):
        contrib = (
            F.broadcast(prev)
            .join(edges, prev["v"] == edges["src"])
            .select("qid", "dst", F.col("src").alias("frm"), "ev")
            .join(F.broadcast(roles), "qid")
            .where(
                (F.col("dst") != F.col("source"))
                & (F.col("dst") != F.col("excluded"))
            )
        )
        if dist_prune is not None:
            keep = dist_prune.where(F.col("dist") + l <= k).select(
                "qid", F.col("v").alias("dst")
            )
            contrib = contrib.join(F.broadcast(keep), ["qid", "dst"], "left_semi")
        contrib = contrib.select(
            "qid",
            F.col("dst").alias("v"),
            "frm",
            F.array_union(F.col("ev"), F.array(F.col("dst"))).alias("c"),
        )
        # Each layer is referenced twice (next layer + final union): pin it
        # so the logical plan stays O(1) per layer (see repro.spark_util).
        cur = pin(_intersect(contrib).unionByName(src_rows))
        layers.append(cur.withColumn("l", F.lit(l).cast("int")))
        prev = cur
    out = layers[0]
    for lyr in layers[1:]:
        out = out.unionByName(lyr)
    return out


def ev_to_dict(ev_df: DataFrame) -> dict:
    """Collect a propagation result as ``{(qid, v, l): frozenset(ev)}``.

    For batch-of-one results the ``qid`` is 0.
    Test helper.
    """
    return {
        (int(r["qid"]), int(r["v"]), int(r["l"])): frozenset(int(x) for x in r["ev"])
        for r in ev_df.collect()
    }
