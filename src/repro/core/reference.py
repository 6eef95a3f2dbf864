"""EVE for one query in plain Python: the per-query pipeline.

:func:`reference_eve` runs the four phases over a ``Graph`` — bounded
BFS distances (:func:`repro.graphs.model.bfs_dist`), the closure form of
Eq. (4) (:func:`ev_tables`), Algorithm 2 (:func:`label_edge`, on the edges
from a forward EV row to a backward one, the only ones it can label ≥ 1) and
Algorithm 3 (:func:`repro.core.verify.verify_query`) — and times each. It
is both the engine's kernel, which :func:`repro.core.eve.eve_spg_batch` runs
once per query inside Spark's Python workers, and a test oracle: hypothesis
tests check it against the brute-force Definition 2.1 / 3.1 enumerators on
hundreds of random graphs without Spark.
"""
from __future__ import annotations

import math
import time
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.verify import verify_query
from repro.graphs.model import Adj, Edge, Graph, bfs_dist

#: The phases :func:`reference_eve` times, in the order they run.
PHASES = ("distances", "propagation", "labeling", "verification")


def ev_tables(
    adj: Adj,
    source: int,
    excluded: int,
    k: int,
    dist_prune: Optional[Dict[int, int]] = None,
) -> Dict[int, Dict[int, FrozenSet[int]]]:
    """EV_l(source, ·) for l = 0..k-1 via the closure form of Eq. (4).

    Returns ``{l: {v: frozenset}}``; the source row is present at every
    layer. ``dist_prune`` maps each vertex to its distance to the opposite
    endpoint (forward-looking pruning: keep ``(v, l)`` iff
    ``l + dist(v) ≤ k``).
    """
    ev: Dict[int, Dict[int, FrozenSet[int]]] = {0: {source: frozenset({source})}}
    for l in range(1, k):
        acc: Dict[int, List[FrozenSet[int]]] = {}
        for x, sx in ev[l - 1].items():
            for y in adj.get(x, ()):  # noqa: E203
                if y == source or y == excluded:
                    continue
                if dist_prune is not None and l + dist_prune.get(y, math.inf) > k:
                    continue
                acc.setdefault(y, []).append(sx | {y})
        layer = {y: frozenset.intersection(*sets) for y, sets in acc.items()}
        layer[source] = frozenset({source})
        ev[l] = layer
    return ev


def label_edge(
    u: int,
    v: int,
    evf: Dict[int, Dict[int, FrozenSet[int]]],
    evb: Dict[int, Dict[int, FrozenSet[int]]],
    s: int,
    t: int,
    k: int,
) -> int:
    """Algorithm 2 verbatim: label 0 / 1 / 2 for edge e(u, v)."""
    if (u == s and v in evb[k - 1]) or (v == t and u in evf[k - 1]):
        return 2
    if k >= 2:
        if u in evf[1] and v in evb[k - 2] and u not in evb[k - 2][v]:
            return 2
        if v in evb[1] and u in evf[k - 2] and v not in evf[k - 2][u]:
            return 2
    for kf in range(2, k - 2):
        kb = k - kf - 1
        if u in evf[kf] and v in evb[kb]:
            if not (evf[kf][u] & evb[kb][v]):
                return 1
    return 0


def reference_eve(
    adj: Graph,
    s: int,
    t: int,
    k: int,
    *,
    prune: bool = True,
    order: bool = True,
):
    """Full EVE for one query.

    Returns ``(spg, definite, undetermined, timings)``: the three edge sets
    and ``{phase: wall seconds}`` for every phase in :data:`PHASES`. The
    upper-bound graph SPG^u is ``definite | undetermined``.
    """
    if k < 1:
        raise ValueError(f"hop constraint k must be >= 1, got {k}")
    marks = [time.perf_counter()]
    dist_s = bfs_dist(adj, (s,), k) if prune else None
    dist_t = bfs_dist(adj.rev, (t,), k) if prune else None
    marks.append(time.perf_counter())
    evf = ev_tables(adj, s, t, k, dist_prune=dist_t)
    evb = ev_tables(adj.rev, t, s, k, dist_prune=dist_s)
    marks.append(time.perf_counter())

    # Every clause of Algorithm 2 needs u in a forward table and v in a
    # backward one (s and t are the layer-0 rows); every other edge fails.
    heads = {v for layer in evb.values() for v in layer}
    definite: Set[Edge] = set()
    undetermined: Set[Edge] = set()
    for u in {u for layer in evf.values() for u in layer}:
        for v in heads.intersection(adj.get(u, ())):
            lab = label_edge(u, v, evf, evb, s, t, k)
            if lab == 2:
                definite.add((u, v))
            elif lab == 1:
                undetermined.add((u, v))
    marks.append(time.perf_counter())
    upper = sorted(definite | undetermined)
    spg = definite | verify_query(upper, sorted(undetermined), s, t, k, order=order)
    marks.append(time.perf_counter())
    timings = {p: b - a for p, a, b in zip(PHASES, marks, marks[1:])}
    return spg, definite, undetermined, timings
