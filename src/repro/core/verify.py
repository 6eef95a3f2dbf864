"""Verification of undetermined edges (§5, Algorithm 3).

Phase 3 of EVE. Its input is one query's *upper-bound graph* SPG^u, the
label ≥ 1 edges of Algorithm 2; :func:`repro.core.reference.reference_eve`
calls it once per query, inside a Python worker when the query comes through
``eve_spg_batch``. SPG^u is a :class:`repro.graphs.model.Graph`, its ``rev``
the in-adjacency; the multi-source BFS of the §5.3 orders comes from there
too.

Components:

- :func:`departures_arrivals` — Definitions 5.1–5.4 over SPG^u, with the
  Theorem 5.8 cap of ``k-2`` stored valid neighbors; the keys of the
  ``In_D``/``Out_A`` dicts are the departures D and the arrivals A.
- :func:`search_orders` — §5.3: out-neighbors sorted by distance to the
  nearest arrival (arrivals first, larger ``|Out_A|`` first), in-neighbors
  by distance from the nearest departure (departures first, larger
  ``|In_D|`` first).
- :func:`verify_kernel` — Algorithm 3 verbatim (Forward / Backward /
  TryAddEdges): for an undetermined edge e(u,v), find a ≤(k-4)-hop simple
  path departure→arrival through e(u,v) whose endpoints admit distinct valid
  neighbors outside the path (Theorem 5.6). Every edge of a successful
  witness path is added to the result (Algorithm 3 line 27), and already
  confirmed undetermined edges are skipped.
- :func:`verify_query` — the three above for one query.
"""
from __future__ import annotations

import math
from typing import Collection, Iterable, List, Sequence, Set, Tuple

from repro.graphs.model import Adj, Edge, Graph, bfs_dist


def _valid_neighbours(adj: Adj, root: int, other: int, k: int) -> Adj:
    """v → the sorted x with e(root, x), e(x, v) in ``adj`` (x, v ∉ {root,
    other}, v ≠ x), at most k-2 (Thm 5.8): ``In_D`` on SPG^u from s, and
    ``Out_A`` on its reverse from t, as Definitions 5.1–5.4 are symmetric."""
    found: Adj = {}
    for x in adj.get(root, ()):
        if x in (root, other):
            continue
        for v in adj.get(x, ()):
            if v in (root, other, x):
                continue
            found.setdefault(v, []).append(x)
    cap = max(0, k - 2)
    return {v: sorted(set(xs))[:cap] for v, xs in found.items()}


def departures_arrivals(
    out_adj: Adj,
    in_adj: Adj,
    s: int,
    t: int,
    k: int,
) -> Tuple[Adj, Adj]:
    """(In_D, Out_A) per Definitions 5.1–5.4 with the k-2 cap (Thm 5.8).

    The departures D are the keys of ``In_D`` and the arrivals A the keys of
    ``Out_A``. ``out_adj``/``in_adj`` are SPG^u's adjacency, a
    :class:`repro.graphs.model.Graph` and its ``rev``.
    """
    return _valid_neighbours(out_adj, s, t, k), _valid_neighbours(in_adj, t, s, k)


def _ordered(adj: Adj, radj: Adj, ends: Adj) -> Adj:
    """``adj`` with each neighbour list sorted by the hop distance along
    ``adj`` to the nearest of ``ends`` (a BFS over ``radj``), larger
    ``|ends[n]|`` first among the ends themselves. Every neighbour in ``adj``
    must be a key of ``radj``, as it is when ``radj`` is ``adj``'s reverse."""
    rank = {n: (math.inf, 0, n) for n in radj}
    rank.update((n, (d, -len(ends[n]) if d == 0 else 0, n))
                for n, d in bfs_dist(radj, ends).items())
    return {v: sorted(ns, key=rank.__getitem__) for v, ns in adj.items()}


def search_orders(
    out_adj: Adj,
    in_adj: Adj,
    in_d: Adj,
    out_a: Adj,
) -> Tuple[Adj, Adj]:
    """§5.3 neighbor orderings; returns (ordered out_adj, ordered in_adj)."""
    # Distance from v to the closest arrival following out-edges = BFS over
    # the reversed SPG^u from the arrival set; symmetric for departures.
    return _ordered(out_adj, in_adj, out_a), _ordered(in_adj, out_adj, in_d)


def verify_kernel(
    out_adj: Adj,
    in_adj: Adj,
    undetermined: Sequence[Edge],
    in_d: Adj,
    out_a: Adj,
    k: int,
    s: int,
    t: int,
) -> Set[Edge]:
    """Algorithm 3: returns the set of SPG^u edges confirmed via witnesses.

    The returned set contains every edge pushed on a successful witness
    stack (undetermined or definite); the caller unions it with the
    definite edges and intersects with the undetermined set as needed.
    """
    confirmed: Set[Edge] = set()
    if k < 5:
        return confirmed
    budget = k - 4

    for u0, v0 in undetermined:
        if (u0, v0) in confirmed:
            continue
        if u0 in (s, t) or v0 in (s, t):
            raise ValueError(f"undetermined edge {(u0, v0)} touches s or t")
        stk_v: Set[int] = {u0, v0, s, t}
        stk_e: List[Edge] = [(u0, v0)]

        def try_add(departure: int, arrival: int) -> bool:
            in_c = [x for x in in_d.get(departure, ()) if x not in stk_v]
            out_c = [y for y in out_a.get(arrival, ()) if y not in stk_v]
            if not in_c or not out_c:
                return False
            if len(in_c) == 1 and len(out_c) == 1 and in_c[0] == out_c[0]:
                return False
            confirmed.update(stk_e)
            return True

        def backward(cur: int, l: int, arrival: int) -> bool:
            if cur in in_d and try_add(cur, arrival):
                return True
            if l < budget:
                for nxt in in_adj.get(cur, ()):  # noqa: E203
                    if nxt in stk_v:
                        continue
                    stk_v.add(nxt)
                    stk_e.append((nxt, cur))
                    if backward(nxt, l + 1, arrival):
                        return True
                    stk_v.remove(nxt)
                    stk_e.pop()
            return False

        def forward(cur: int, l: int, u: int) -> bool:
            if cur in out_a and backward(u, l, cur):
                return True
            if l < budget:
                for nxt in out_adj.get(cur, ()):  # noqa: E203
                    if nxt in stk_v:
                        continue
                    stk_v.add(nxt)
                    stk_e.append((cur, nxt))
                    if forward(nxt, l + 1, u):
                        return True
                    stk_v.remove(nxt)
                    stk_e.pop()
            return False

        forward(v0, 1, u0)
    return confirmed


def verify_query(
    spgu_edges: Iterable[Edge],
    undetermined: Collection[Edge],
    s: int,
    t: int,
    k: int,
    *,
    order: bool = True,
) -> Set[Edge]:
    """Phase 3 for one query: the undetermined edges that are in SPG_k(s,t).

    Builds the query's search structures from SPG^u (departures/arrivals,
    adjacency, §5.3 orders when ``order``), runs :func:`verify_kernel` and
    keeps the confirmed edges that were undetermined. Neither input need be
    sorted: Algorithm 3 searches each edge exhaustively, so the answer does
    not depend on the order of edges or neighbours (Theorem 5.6).
    """
    if k < 5 or not undetermined:
        return set()
    spgu = Graph(spgu_edges)
    out_adj, in_adj = spgu, spgu.rev
    in_d, out_a = departures_arrivals(out_adj, in_adj, s, t, k)
    if order:
        out_adj, in_adj = search_orders(out_adj, in_adj, in_d, out_a)
    found = verify_kernel(out_adj, in_adj, undetermined, in_d, out_a, k, s, t)
    return found.intersection(undetermined)

