"""Hop-constrained s-t simple path enumeration baselines (§6.2), batched.

The straightforward way to generate SPG_k(s,t) — enumerate every simple
path and union the edges — is the paper's baseline family:

- :func:`batch_enumerate_paths` — level-by-level expansion of simple path
  prefixes, pruned with a shortest-distance index
  (``len + 1 + Δ(next, t) ≤ k``) — the DFS mode of PathEnum [35].
- :func:`batch_join_paths` — meet-in-the-middle: forward simple partial
  paths from ``s`` of length exactly ``⌈k/2⌉`` joined with backward partial
  paths to ``t`` on the meeting vertex, requiring vertex-disjointness and a
  combined length ≤ k — the JOIN algorithm of [27, 29] (and PathEnum's join
  mode).

Both are query-batched (``qid`` column) like the EVE dataflow. Paths
are rows ``(qid, verts: array<long>)``; path prefixes are pinned per level
(see :mod:`repro.spark_util`). ``max_rows`` optionally guards each level
with a driver-side count so runaway configurations can be aborted — the
reproduction's stand-in for the paper's *INF* timeout.
"""
from __future__ import annotations

from typing import Optional

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.model import reverse_edges
from repro.spark_util import no_pin


class EnumerationBudgetExceeded(RuntimeError):
    """Raised when a level's path-prefix count exceeds ``max_rows`` (the
    reproduction's equivalent of the paper's INF timeout)."""


def _guard(df: DataFrame, max_rows: Optional[int], what: str) -> None:
    if max_rows is not None:
        n = df.count()
        if n > max_rows:
            raise EnumerationBudgetExceeded(f"{what}: {n} rows > cap {max_rows}")


def _expand(paths: DataFrame, edges: DataFrame) -> DataFrame:
    """One simple-path expansion step: extend each prefix by one edge.

    ``edges`` may be a plain ``(src, dst)`` graph or a per-query
    ``(qid, src, dst)`` edge set (Tables 4–5 run enumeration on each
    query's reduced graph); the join matches ``qid`` in the latter case.
    """
    if "qid" in edges.columns:
        e = edges.select(
            F.col("qid").alias("eqid"), F.col("src").alias("esrc"), F.col("dst")
        )
        joined = paths.join(
            e, (paths["qid"] == e["eqid"]) & (paths["cur"] == e["esrc"])
        )
    else:
        joined = paths.join(edges, paths["cur"] == edges["src"])
    return (
        joined.where(~F.array_contains("verts", F.col("dst")))
        .select(
            paths["qid"],
            F.col("dst").alias("cur"),
            F.concat("verts", F.array(F.col("dst"))).alias("verts"),
        )
    )


def batch_enumerate_paths(
    spark: SparkSession,
    edges: DataFrame,
    queries: DataFrame,
    k: int,
    *,
    dist_t: DataFrame,
    pin=no_pin,
    max_rows: Optional[int] = None,
) -> DataFrame:
    """All k-hop-constrained s-t simple paths per query: ``(qid, verts)``.

    ``dist_t`` is a ``(qid, v, dist)`` map of distances to ``t`` (the
    enumeration index); expansion onto ``v`` at length ``l`` is pruned
    unless ``l + Δ(v,t) ≤ k``.
    """
    tmap = F.broadcast(queries.select("qid", F.col("t").alias("cur")))
    paths = queries.select(
        "qid", F.col("s").alias("cur"), F.array(F.col("s")).alias("verts")
    ).coalesce(1)
    results = []
    for l in range(1, k + 1):
        ext = _expand(paths, edges)
        keep = dist_t.where(F.col("dist") + l <= k).select(
            "qid", F.col("v").alias("cur")
        )
        ext = pin(ext.join(F.broadcast(keep), ["qid", "cur"], "left_semi"))
        _guard(ext, max_rows, f"enumeration level {l}")
        reached = ext.join(tmap, ["qid", "cur"], "left_semi").select("qid", "verts")
        results.append(reached)
        if l < k:
            paths = ext.join(tmap, ["qid", "cur"], "left_anti")
    out = results[0]
    for r in results[1:]:
        out = out.unionByName(r)
    return out


def batch_join_paths(
    spark: SparkSession,
    edges: DataFrame,
    queries: DataFrame,
    k: int,
    *,
    dist_s: Optional[DataFrame] = None,
    dist_t: Optional[DataFrame] = None,
    pin=no_pin,
    max_rows: Optional[int] = None,
) -> DataFrame:
    """JOIN-based enumeration: ``(qid, verts)``.

    Forward simple prefixes from ``s`` (stopping at ``t``) are built to depth
    ``h1 = ⌈k/2⌉``; backward simple suffixes from ``t`` (never touching
    ``s``) to depth ``k - h1``. Prefixes that already reached ``t`` are
    complete paths; prefixes of length exactly ``h1`` join suffixes on the
    meeting vertex with vertex-disjointness (shared meeting vertex only) and
    total length ≤ k — a unique split, so no duplicate paths. Optional
    distance maps prune both expansions (PathEnum's join mode); the plain
    JOIN baseline runs without them.
    """
    h1 = (k + 1) // 2
    h2 = k - h1
    tmap = F.broadcast(queries.select("qid", F.col("t").alias("cur")))
    smap = F.broadcast(queries.select("qid", F.col("s").alias("cur")))

    # Forward prefixes.
    paths = queries.select(
        "qid", F.col("s").alias("cur"), F.array(F.col("s")).alias("verts")
    ).coalesce(1)
    completes = []
    frontier_h1 = None
    for l in range(1, h1 + 1):
        ext = _expand(paths, edges)
        if dist_t is not None:
            keep = dist_t.where(F.col("dist") + l <= k).select(
                "qid", F.col("v").alias("cur")
            )
            ext = ext.join(F.broadcast(keep), ["qid", "cur"], "left_semi")
        ext = pin(ext)
        _guard(ext, max_rows, f"join fwd level {l}")
        completes.append(
            ext.join(tmap, ["qid", "cur"], "left_semi").select("qid", "verts")
        )
        paths = ext.join(tmap, ["qid", "cur"], "left_anti")
        if l == h1:
            frontier_h1 = paths

    out = completes[0]
    for c in completes[1:]:
        out = out.unionByName(c)
    if h2 == 0 or frontier_h1 is None:
        return out

    # Backward suffixes on the reversed graph, stored as [t, …, meeting].
    rev = reverse_edges(edges)
    bpaths = queries.select(
        "qid", F.col("t").alias("cur"), F.array(F.col("t")).alias("verts")
    ).coalesce(1)
    suffixes = []
    for l in range(1, h2 + 1):
        ext = _expand(bpaths, rev).join(smap, ["qid", "cur"], "left_anti")
        if dist_s is not None:
            keep = dist_s.where(F.col("dist") + l <= k).select(
                "qid", F.col("v").alias("cur")
            )
            ext = ext.join(F.broadcast(keep), ["qid", "cur"], "left_semi")
        ext = pin(ext)
        _guard(ext, max_rows, f"join bwd level {l}")
        suffixes.append(ext)
        bpaths = ext
    bwd = suffixes[0]
    for sfx in suffixes[1:]:
        bwd = bwd.unionByName(sfx)
    bwd = bwd.select(
        F.col("qid").alias("bqid"),
        F.col("cur").alias("meet"),
        F.col("verts").alias("bverts"),
    )

    joined = (
        frontier_h1.join(
            bwd,
            (F.col("qid") == F.col("bqid")) & (F.col("cur") == F.col("meet")),
        )
        .where(F.size(F.array_intersect("verts", "bverts")) == 1)
        .where(F.size("verts") - 1 + F.size("bverts") - 1 <= k)
        .select(
            "qid",
            F.concat(
                "verts",
                F.reverse(F.slice("bverts", 1, F.size("bverts") - 1)),
            ).alias("verts"),
        )
    )
    return out.unionByName(joined)


def paths_to_spg(paths: DataFrame) -> DataFrame:
    """Union of the edges of a path set: ``(qid, src, dst)`` distinct.

    This is the baseline way of producing SPG_k: enumerate, then collect the
    consecutive vertex pairs of every path.
    """
    n = F.size("verts")
    pairs = paths.select(
        "qid",
        F.explode(
            F.arrays_zip(
                F.slice("verts", 1, n - 1).alias("src"),
                F.slice("verts", 2, n - 1).alias("dst"),
            )
        ).alias("p"),
    )
    return pairs.select(
        "qid", F.col("p.src").alias("src"), F.col("p.dst").alias("dst")
    ).distinct()


def path_strings(paths: DataFrame) -> DataFrame:
    """Canonical dash-joined path strings ``(qid, path)`` for oracle diffs."""
    return paths.select(
        "qid",
        F.concat_ws(
            "-", F.transform("verts", lambda x: x.cast("string"))
        ).alias("path"),
    ).distinct()
