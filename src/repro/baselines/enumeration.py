"""Hop-constrained s-t simple path enumeration baselines (§6.2), per query.

The straightforward way to generate SPG_k(s,t) — enumerate every simple
path and union the edges — is the paper's baseline family. Each function
here answers one query over a ``Graph``; ``bench_harness`` runs it in
Spark's Python workers through :func:`repro.spark_util.map_queries`.

- :func:`dfs_paths` — simple path prefixes grown from ``s``, the one
  reaching ``v`` at length ``l`` kept only if ``l + Δ(v,t) ≤ k`` — the DFS
  mode of PathEnum [35] (grown level by level here; the paths are the same).
- :func:`join_paths` — meet-in-the-middle: forward simple prefixes from
  ``s`` of length exactly ``⌈k/2⌉`` joined with backward simple suffixes to
  ``t`` on the meeting vertex, vertex-disjoint apart from it — the JOIN
  algorithm of [27, 29] (and PathEnum's join mode, with distance maps).

Both grow their prefixes with one loop. ``max_rows`` caps the paths (grown
or joined) one query makes; past it the function returns ``None``, the
reproduction's stand-in for the paper's *INF* timeout.
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.graphs.model import Adj, Graph

Path = Tuple[int, ...]
Dist = Optional[Dict[int, int]]


def _grow(adj: Adj, root: int, stop: int, depth: int, k: int, dist: Dist, budget):
    """Simple paths from ``root``, grown one edge at a time to length ``depth``.

    A path that reaches ``stop`` is not grown further. With ``dist``, the
    path reaching ``v`` at length ``l`` is kept only if ``l + dist(v) ≤ k``.
    Returns ``(hits, levels)``: the paths that reached ``stop``, and for each
    length ``1..depth`` the others; ``None`` once more than ``budget`` paths
    were made.
    """
    hits: List[Path] = []
    levels: List[List[Path]] = []
    level: List[Path] = [(root,)]
    for l in range(1, depth + 1):
        nxt: List[Path] = []
        for p in level:
            for v in adj.get(p[-1], ()):
                if v in p or (dist is not None and l + dist.get(v, math.inf) > k):
                    continue
                budget -= 1
                if budget < 0:
                    return None
                (hits if v == stop else nxt).append(p + (v,))
        levels.append(nxt)
        level = nxt
    return hits, levels


def dfs_paths(
    adj: Adj, s: int, t: int, k: int, *, dist_t: Dict[int, int],
    max_rows: Optional[int] = None,
) -> Optional[List[Path]]:
    """All simple s-t paths with ≤ k edges, or ``None`` over ``max_rows``.

    ``dist_t`` maps vertices to their distance to ``t`` (the enumeration
    index); a vertex it lacks is never entered.
    """
    grown = _grow(adj, s, t, k, k, dist_t, math.inf if max_rows is None else max_rows)
    return None if grown is None else grown[0]


def join_paths(
    adj: Graph, s: int, t: int, k: int, *, dist_s: Dist = None, dist_t: Dist = None,
    max_rows: Optional[int] = None,
) -> Optional[List[Path]]:
    """JOIN-based enumeration: all simple s-t paths with ≤ k edges, or
    ``None`` over ``max_rows``.

    Forward simple prefixes from ``s`` (stopping at ``t``) are built to depth
    ``h1 = ⌈k/2⌉``, backward simple suffixes from ``t`` (never touching
    ``s``) to depth ``k - h1``. Prefixes that reached ``t`` are complete
    paths; prefixes of length exactly ``h1`` join the suffixes that end on
    their last vertex and share no other vertex with them — a unique split,
    so no path comes twice. Every prefix, suffix and joined path counts
    against ``max_rows``. Optional distance maps prune both expansions
    (PathEnum's join mode); the plain JOIN baseline runs without them.
    """
    h1 = (k + 1) // 2
    budget = math.inf if max_rows is None else max_rows
    fwd = _grow(adj, s, t, h1, k, dist_t, budget)
    if fwd is None:
        return None
    paths, levels = fwd
    budget -= len(paths) + sum(map(len, levels))
    bwd = _grow(adj.rev, t, s, k - h1, k, dist_s, budget)
    if bwd is None:
        return None
    budget -= len(bwd[0]) + sum(map(len, bwd[1]))
    # Suffixes are stored as [t, …, meeting vertex].
    by_meet: Dict[int, List[Path]] = {}
    for level in bwd[1]:
        for q in level:
            by_meet.setdefault(q[-1], []).append(q)
    for p in levels[-1]:
        on_p = set(p)
        for q in by_meet.get(p[-1], ()):
            if len(on_p.intersection(q)) == 1:
                budget -= 1
                if budget < 0:
                    return None
                paths.append(p + q[-2::-1])
    return paths
