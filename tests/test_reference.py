"""Property tests of the pure-Python reference EVE against brute force.

These run without Spark, so hypothesis can hammer the algorithmic core —
Eq. (4) propagation (pushed or pulled), Algorithm-2 labeling and
Algorithm-3 verification — on hundreds of random digraphs.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import bruteforce as bf
from repro.core.reference import ev_tables, pruning_dist, reference_eve
from repro.graphs.datasets import dataset_edges_pdf
from repro.graphs.generators import random_digraph
from repro.graphs.model import Graph, adjacency, bfs_dist
from repro.graphs.queries import random_queries


@st.composite
def digraph_query(draw):
    n = draw(st.integers(4, 14))
    m = draw(st.integers(n, 4 * n))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    pairs = {(int(a), int(b)) for a, b in zip(rng.integers(0, n, m),
                                              rng.integers(0, n, m)) if a != b}
    adj = Graph(sorted(pairs))
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 1))
    if s == t:
        t = (t + 1) % n
    k = draw(st.integers(1, 8))
    return adj, s, t, k


@settings(max_examples=120, deadline=None)
@given(digraph_query())
def test_reference_eve_equals_bruteforce(case):
    """reference_eve == Definition 2.1 on arbitrary digraph queries."""
    adj, s, t, k = case
    spg, definite, undet, _ = reference_eve(adj, s, t, k)
    upper = definite | undet
    truth = bf.spg_edges(adj, s, t, k)
    assert spg == truth
    assert upper >= truth
    assert definite <= truth
    if k <= 4:
        assert upper == truth and not undet


@settings(max_examples=60, deadline=None)
@given(digraph_query())
def test_pruning_never_changes_answers(case):
    adj, s, t, k = case
    assert reference_eve(adj, s, t, k, prune=True)[0] == \
        reference_eve(adj, s, t, k, prune=False)[0]


@settings(max_examples=60, deadline=None)
@given(digraph_query())
def test_ordering_never_changes_answers(case):
    adj, s, t, k = case
    assert reference_eve(adj, s, t, k, order=True)[0] == \
        reference_eve(adj, s, t, k, order=False)[0]


@settings(max_examples=60, deadline=None)
@given(digraph_query())
def test_ev_tables_match_definition(case):
    """Unpruned (push-only) propagation == Definition 3.1 (via brute-force DFS)."""
    adj, s, t, k = case
    got = ev_tables(adj, s, t, k)  # unpruned ⇒ every existing entry present
    want = bf.essential_sets(adj, s, t, k)
    want_by_layer = {
        l: {v: per_l[l] for v, per_l in want.items() if l in per_l}
        for l in range(k)
    }
    for l in range(1, k):
        assert got[l] == want_by_layer[l], f"layer {l}"


def _pruned_tables_match_definition(adj, s, t, k):
    """Assert that both pruned tables, as ``reference_eve`` builds them, equal
    Definition 3.1 restricted to the entries with ``l + Δ(v, other) ≤ k``;
    return whether some layer keeps fewer vertices than the previous layer
    has rows (so it pulls)."""
    pulled = False
    for g, src, dst in ((adj, s, t), (adj.rev, t, s)):
        prune = pruning_dist(g.rev, dst, src, k)
        got = ev_tables(g, src, dst, k, dist_prune=prune)
        dist = bfs_dist(g.rev, (dst,), k)
        want = bf.essential_sets(g, src, dst, k)
        for l in range(1, k):
            assert got[l] == {
                v: per_l[l] for v, per_l in want.items()
                if l in per_l and (v == src or l + dist.get(v, k) <= k)
            }, f"layer {l}"
            pulled |= sum(d <= k - l for d in prune.values()) < len(got[l - 1])
    return pulled


@settings(max_examples=60, deadline=None)
@given(digraph_query())
def test_pruned_ev_tables_match_definition(case):
    """Pushed or pulled, each pruned layer == Definition 3.1 on the entries
    forward-looking pruning keeps."""
    _pruned_tables_match_definition(*case)


def test_pruned_ev_tables_pull_on_a_dense_graph():
    """On the ``ye`` test-scale stand-in at k=4 some layer keeps fewer
    vertices than the previous layer has rows, so it pulls, and still
    matches the definition."""
    pdf = dataset_edges_pdf("ye", "test")
    (s, t), = random_queries(pdf, 4, 1, seed=1)
    assert _pruned_tables_match_definition(adjacency(pdf), s, t, 4)


@settings(max_examples=40, deadline=None)
@given(digraph_query())
def test_truncated_distances_prune_like_full_bfs(case):
    """Tables pruned by the (k-2)-deep maps plus their look-ahead equal
    tables pruned by depth-k BFS, for every k in 1..8, in both directions."""
    adj, s, t, _ = case
    for k in range(1, 9):
        for g, src, dst in ((adj, s, t), (adj.rev, t, s)):
            assert ev_tables(g, src, dst, k, pruning_dist(g.rev, dst, src, k)) == \
                ev_tables(g, src, dst, k, bfs_dist(g.rev, (dst,), k)), k


@settings(max_examples=40, deadline=None)
@given(digraph_query())
def test_ev_sets_shrink_with_layer(case):
    """EV_l(v) ⊆ EV_{l-1}(v): more paths can only shrink the intersection."""
    adj, s, t, k = case
    ev = ev_tables(adj, s, t, k)
    for l in range(1, k):
        for v, cur in ev[l].items():
            if v in ev[l - 1]:
                assert cur <= ev[l - 1][v]
            assert v in cur  # a vertex lies on all its own paths


@settings(max_examples=40, deadline=None)
@given(digraph_query())
def test_pruned_ev_entries_are_exact_subset(case):
    """Pruning drops entries but never alters kept values (§3.3 argument)."""
    adj, s, t, k = case
    radj = adj.rev
    dist_t = bfs_dist(radj, (t,), k)
    full = ev_tables(adj, s, t, k)
    pruned = ev_tables(adj, s, t, k, dist_prune=dist_t)
    for l in range(k):
        for v, ev in pruned[l].items():
            assert full[l][v] == ev


@pytest.mark.parametrize("n,depth", [(10, 3), (25, 6), (40, 9)])
def test_bfs_dist_matches_networkless_reference(n, depth):
    pdf = random_digraph("er", n, 3, seed=n)
    adj = adjacency(pdf)
    src = sorted(adj)[0]
    got = bfs_dist(adj, (src,), depth)
    # Bellman-Ford-style reference.
    verts = {v for u, vs in adj.items() for v in [u] + vs}
    dist = {v: (0 if v == src else None) for v in verts}
    for _ in range(depth):
        for u, vs in adj.items():
            if dist.get(u) is None:
                continue
            for v in vs:
                cand = dist[u] + 1
                if cand <= depth and (dist[v] is None or cand < dist[v]):
                    dist[v] = cand
    want = {v: d for v, d in dist.items() if d is not None and d <= depth}
    assert got == want


@pytest.mark.parametrize("k", [0, -1])
def test_rejects_k_below_1(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        reference_eve({0: [1]}, 0, 1, k)
