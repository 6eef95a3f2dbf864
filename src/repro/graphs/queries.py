"""Query workload generation (§6.1).

The paper draws random (s,t) pairs such that s reaches t within k hops
(non-reachable pairs are assumed filtered by a k-hop reachability index).
Queries here are generated on the driver from the collected edge list —
query generation is test harness, not a measured system — with a seeded RNG
so every run sees the same workload.
"""
from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pandas as pd

from repro.graphs.model import adjacency, bfs_dist


def random_queries(
    edges_pdf: pd.DataFrame, k: int, n_queries: int, *, seed: int = 0
) -> List[Tuple[int, int]]:
    """Seeded random (s,t) pairs with ``t`` k-hop-reachable from ``s``, s≠t;
    raises after 4000 source draws without ``n_queries`` pairs."""
    g = np.random.default_rng(seed)
    adj = adjacency(edges_pdf)
    sources = sorted(adj.keys())
    out: List[Tuple[int, int]] = []
    tries = 0
    while sources and len(out) < n_queries and tries < 4000:
        tries += 1
        s = int(sources[g.integers(0, len(sources))])
        reach = [v for v in bfs_dist(adj, (s,), k) if v != s]
        if not reach:
            continue
        t = int(reach[g.integers(0, len(reach))])
        out.append((s, t))
    if len(out) < n_queries:
        raise RuntimeError(
            f"could only generate {len(out)}/{n_queries} k-hop-reachable queries"
        )
    return out
