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

Both grow their forward prefixes with one loop, to depth ``k`` and
``⌈k/2⌉`` respectively. Both are query-batched (``qid`` column) and run on
a shared or a per-query edge table. Paths are rows
``(qid, verts: array<long>)``; each function pins its own path prefixes
per level (see :mod:`repro.spark_util`). ``max_rows`` optionally guards
each level with a driver-side count so runaway configurations can be
aborted — the reproduction's stand-in for the paper's *INF* timeout.
"""
from __future__ import annotations

from functools import reduce
from typing import Optional, Tuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.model import join_out_edges, reverse_edges
from repro.spark_util import DFPin


class EnumerationBudgetExceeded(RuntimeError):
    """Raised when a level's path-prefix count exceeds ``max_rows`` (the
    reproduction's equivalent of the paper's INF timeout)."""


def _guard(df: DataFrame, max_rows: Optional[int], what: str) -> None:
    if max_rows is not None:
        n = df.count()
        if n > max_rows:
            raise EnumerationBudgetExceeded(f"{what}: {n} rows > cap {max_rows}")


def _expand(paths: DataFrame, edges: DataFrame) -> DataFrame:
    """One simple-path expansion step: extend each prefix by one edge of
    ``edges`` (a shared or a per-query graph, see
    :func:`repro.graphs.model.join_out_edges`)."""
    return (
        join_out_edges(paths, "cur", edges)
        .where(~F.array_contains("verts", F.col("dst")))
        .select(
            "qid",
            F.col("dst").alias("cur"),
            F.concat("verts", F.array(F.col("dst"))).alias("verts"),
        )
    )


def _prefixes(
    edges: DataFrame,
    queries: DataFrame,
    k: int,
    depth: int,
    dist_t: Optional[DataFrame],
    max_rows: Optional[int],
) -> Tuple[DataFrame, DataFrame]:
    """Simple-path prefixes from each ``s``, grown one pinned level at a
    time to length ``depth``; a prefix that reaches ``t`` stops there.

    Returns ``(paths, frontier)``: the s-t paths of length ≤ ``depth``
    (``(qid, verts)``) and the ``(qid, cur, verts)`` prefixes of length
    ``depth`` that have not reached ``t``. With ``dist_t``, the prefix
    reaching ``v`` at length ``l`` is kept only if ``l + Δ(v,t) ≤ k``.
    """
    pin = DFPin()
    tmap = F.broadcast(queries.select("qid", F.col("t").alias("cur")))
    paths = queries.select(
        "qid", F.col("s").alias("cur"), F.array(F.col("s")).alias("verts")
    ).coalesce(1)
    completes = []
    for l in range(1, depth + 1):
        ext = _expand(paths, edges)
        if dist_t is not None:
            keep = dist_t.where(F.col("dist") + l <= k).select(
                "qid", F.col("v").alias("cur")
            )
            ext = ext.join(F.broadcast(keep), ["qid", "cur"], "left_semi")
        ext = pin(ext)
        _guard(ext, max_rows, f"fwd level {l}")
        completes.append(
            ext.join(tmap, ["qid", "cur"], "left_semi").select("qid", "verts")
        )
        paths = ext.join(tmap, ["qid", "cur"], "left_anti")
    return reduce(DataFrame.unionByName, completes), paths


def batch_enumerate_paths(
    edges: DataFrame,
    queries: DataFrame,
    k: int,
    *,
    dist_t: DataFrame,
    max_rows: Optional[int] = None,
) -> DataFrame:
    """All k-hop-constrained s-t simple paths per query: ``(qid, verts)``.

    ``dist_t`` is a ``(qid, v, dist)`` map of distances to ``t`` (the
    enumeration index); expansion onto ``v`` at length ``l`` is pruned
    unless ``l + Δ(v,t) ≤ k``.
    """
    return _prefixes(edges, queries, k, k, dist_t, max_rows)[0]


def batch_join_paths(
    edges: DataFrame,
    queries: DataFrame,
    k: int,
    *,
    dist_s: Optional[DataFrame] = None,
    dist_t: Optional[DataFrame] = None,
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
    out, frontier_h1 = _prefixes(edges, queries, k, h1, dist_t, max_rows)
    if h2 == 0:
        return out

    # Backward suffixes on the reversed graph, stored as [t, …, meeting].
    pin = DFPin()
    smap = F.broadcast(queries.select("qid", F.col("s").alias("cur")))
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
        _guard(ext, max_rows, f"bwd level {l}")
        suffixes.append(ext)
        bpaths = ext
    bwd = reduce(DataFrame.unionByName, suffixes).select(
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
