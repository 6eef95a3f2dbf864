"""Pure-Python exact reference implementations (driver-side test oracle).

These implement the paper's *definitions* directly — Definition 2.1 for the
simple path graph, Definition 3.1 for essential vertices — by exhaustive DFS
enumeration. Exponential, only for small test graphs; the independent DuckDB
recursive-CTE oracle (``repro.oracle``) cross-checks the same answers.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.graphs.model import Adj, Edge


def simple_paths(adj: Adj, s: int, t: int, k: int) -> List[Tuple[int, ...]]:
    """All simple paths s→t with ≤ k edges (P*_k(s,t)), lexicographic order."""
    out: List[Tuple[int, ...]] = []
    path = [s]
    on_path = {s}

    def dfs(u: int) -> None:
        if u == t and len(path) > 1:
            out.append(tuple(path))
            return
        if len(path) - 1 >= k:
            return
        for v in sorted(adj.get(u, ())):
            if v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            dfs(v)
            path.pop()
            on_path.remove(v)

    if s != t:
        dfs(s)
    return out


def spg_edges(adj: Adj, s: int, t: int, k: int) -> Set[Edge]:
    """Exact E(SPG_k(s,t)) per Definition 2.1."""
    es: Set[Edge] = set()
    for p in simple_paths(adj, s, t, k):
        es.update(zip(p, p[1:]))
    return es


def essential_sets(
    adj: Adj, source: int, avoid: int, k: int
) -> Dict[int, Dict[int, FrozenSet[int]]]:
    """EV*_l(source, u) for every u and 1 ≤ l ≤ k-1, per Definition 3.1.

    ``avoid`` is the vertex excluded from all paths (t for forward
    propagation; run on the reversed adjacency with source=t, avoid=s for
    backward). Returns ``{u: {l: frozenset(EV)}}`` with entries only where
    P*_l(source,u) is nonempty. Includes the trivial entry for ``source``
    itself at every l (EV = {source}), matching the propagation tables.
    """
    # Collect, per endpoint, the vertex sets of all simple paths (avoiding
    # `avoid`) grouped by path length.
    by_vertex: Dict[int, List[Tuple[int, FrozenSet[int]]]] = {}
    path = [source]
    on_path = {source}

    def dfs(u: int) -> None:
        if len(path) - 1 >= k - 1:
            return
        for v in sorted(adj.get(u, ())):
            if v in on_path or v == avoid or v == source:
                continue
            path.append(v)
            on_path.add(v)
            by_vertex.setdefault(v, []).append((len(path) - 1, frozenset(path)))
            dfs(v)
            path.pop()
            on_path.remove(v)

    dfs(source)
    out: Dict[int, Dict[int, FrozenSet[int]]] = {source: {}}
    for l in range(0, k):
        out[source][l] = frozenset({source})
    for v, entries in by_vertex.items():
        per_l: Dict[int, FrozenSet[int]] = {}
        for l in range(1, k):
            sets = [vs for plen, vs in entries if plen <= l]
            if sets:
                inter = frozenset.intersection(*sets)
                per_l[l] = inter
        if per_l:
            out[v] = per_l
    return out
