"""EVE for one query in plain Python: the per-query pipeline.

:func:`eve_positions` runs the four phases over a ``Graph`` — the BFS
distances pruning reads (:func:`pruning_dist`), Eq. (4) pushed or pulled per
layer (:func:`ev_tables`), Algorithm 2 (:func:`label_edge`, on the only edges
it can label ≥ 1) and Algorithm 3 (:func:`repro.core.verify.verify_query`,
if an edge is undetermined), times each and numbers each labeled edge by
its position (``Graph.off``). It is the kernel that
:func:`repro.core.eve.eve_spg_batch` runs once per query in Spark's Python
workers. :func:`reference_eve`, its edge sets, is a test oracle: hypothesis
tests check it against the brute-force Definition 2.1 / 3.1 enumerators.
"""
from __future__ import annotations

import math
import time
from bisect import bisect_right
from itertools import chain, islice
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.verify import verify_query
from repro.graphs.model import Edge, Graph, bfs_dist

#: The phases :func:`reference_eve` times, in the order they run.
PHASES = ("distances", "propagation", "labeling", "verification")


def ev_tables(
    adj: Graph,
    source: int,
    excluded: int,
    k: int,
    dist_prune: Optional[Dict[int, int]] = None,
) -> Dict[int, Dict[int, FrozenSet[int]]]:
    """EV_l(source, ·) for l = 0..k-1 by Eq. (4).

    Returns ``{l: {v: frozenset}}``; the source row is present at every
    layer. ``dist_prune`` maps each vertex to its distance to the opposite
    endpoint, in BFS order (forward-looking pruning: keep ``(v, l)`` iff
    ``l + dist(v) ≤ k``, a prefix of the map). A pruned layer that keeps no
    more vertices than the last has rows pulls into them over ``adj.rev``.
    """
    depths = list(dist_prune.values()) if dist_prune is not None else None
    ev: Dict[int, Dict[int, FrozenSet[int]]] = {0: {source: frozenset({source})}}
    for l in range(1, k):
        prev = ev[l - 1]
        kept = bisect_right(depths, k - l) if depths is not None else math.inf
        if kept <= len(prev):  # pull: y ← its in-neighbours with a row
            acc = {y: [prev[x] for x in adj.rev.get(y, ()) if x in prev]
                   for y in islice(dist_prune, kept)}
        else:  # push: each row → its out-neighbours that pruning keeps
            acc = {}
            for x, sx in prev.items():
                for y in adj.get(x, ()):
                    if dist_prune is None or l + dist_prune.get(y, k) <= k:
                        acc.setdefault(y, []).append(sx)
        acc.pop(excluded, None)  # the source row is set below
        # ∩(A_i ∪ {y}) = (∩A_i) ∪ {y}: one union per row, not per edge
        layer = {y: frozenset.intersection(*sets) | {y} for y, sets in acc.items() if sets}
        layer[source] = frozenset({source})
        ev[l] = layer
    return ev


def pruning_dist(adj: Graph, source: int, other: int, k: int) -> Dict[int, int]:
    """Δ(source, ·) in BFS order, as far as pruning reads it: up to ``k-2``,
    and ``k-1`` (unmapped, with a mapped in-neighbour) for ``other``'s
    in-neighbours, the rows of the only layer that tests ``k-1``."""
    dist = bfs_dist(adj, (source,), k - 2)
    ahead = [y for y in adj.rev.get(other, ()) if k >= 2 and y not in dist
             and not dist.keys().isdisjoint(adj.rev.get(y, ()))]
    dist.update(dict.fromkeys(ahead, k - 1))
    return dist


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


def eve_positions(
    adj: Graph, s: int, t: int, k: int, *, prune: bool = True, order: bool = True
) -> Tuple[Dict[Edge, int], Dict[Edge, int], Dict[Edge, int], Dict[str, float]]:
    """Full EVE for one query: ``(definite, undetermined, confirmed,
    timings)``, the label 2, label 1 and verified label 1 edges, each as
    ``{(u, adj[u][i]): adj.off[u] + i}``, and ``{phase: wall seconds}`` for
    every phase in :data:`PHASES`. SPG is ``definite ∪ confirmed``."""
    if k < 1:
        raise ValueError(f"hop constraint k must be >= 1, got {k}")
    marks = [time.perf_counter()]
    dist_s = pruning_dist(adj, s, t, k) if prune else None
    dist_t = pruning_dist(adj.rev, t, s, k) if prune else None
    marks.append(time.perf_counter())
    evf = ev_tables(adj, s, t, k, dist_prune=dist_t)
    evb = ev_tables(adj.rev, t, s, k, dist_prune=dist_s)
    marks.append(time.perf_counter())

    # Every clause of Algorithm 2 tests u in evf[i] and v in evb[k-1-i]. Rows
    # are kept on runs of layers, so v in evb[k-1-i] for some i ≥ a(u), u's
    # first layer, puts v in evb[k-1-a(u)]: only those edges can be ≥ 1.
    first = {u: l for l in reversed(range(k)) for u in evf[l]}  # u → a(u)
    definite: Dict[Edge, int] = {}
    undetermined: Dict[Edge, int] = {}
    for u, a in first.items():
        row = evb[k - 1 - a]
        for at, v in enumerate(adj.get(u, ()), adj.off.get(u, 0)):  # off[u] + i
            if v in row:
                lab = label_edge(u, v, evf, evb, s, t, k)
                if lab:
                    (definite if lab == 2 else undetermined)[u, v] = at
    marks.append(time.perf_counter())
    found = verify_query(chain(definite, undetermined), undetermined, s, t, k, order=order)
    confirmed = {e: undetermined[e] for e in found}  # none at k ≤ 4 (Theorem 4.8)
    marks.append(time.perf_counter())
    timings = {p: b - a for p, a, b in zip(PHASES, marks, marks[1:])}
    return definite, undetermined, confirmed, timings


def reference_eve(adj: Graph, s: int, t: int, k: int, **options: bool):
    """:func:`eve_positions` (same ``prune`` and ``order``) as edge sets:
    ``(spg, definite, undetermined, timings)``; SPG^u is
    ``definite | undetermined``."""
    definite, undetermined, confirmed, timings = eve_positions(adj, s, t, k, **options)
    return set(definite).union(confirmed), set(definite), set(undetermined), timings
