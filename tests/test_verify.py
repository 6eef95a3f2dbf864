"""Verification phase (§5): departures/arrivals, search orders, the DFS
kernel, and the per-query step ``verify_query``."""
import numpy as np
import pytest

from repro.baselines import bruteforce as bf
from repro.core.reference import reference_eve
from repro.core.verify import (
    departures_arrivals,
    search_orders,
    verify_kernel,
    verify_query,
)
from repro.graphs.datasets import dataset_edges_pdf
from repro.graphs.generators import random_digraph
from repro.graphs.model import Graph, adjacency
from repro.graphs.queries import random_queries


def _upper_parts(adj, s, t, k):
    spg, definite, undet, _ = reference_eve(adj, s, t, k)
    return spg, sorted(definite | undet), sorted(undet), definite


def _random_case(seed, k=6):
    rng = np.random.default_rng(seed)
    pdf = random_digraph(
        ["er", "community", "power_law"][seed % 3],
        int(rng.integers(15, 50)),
        float(rng.uniform(2, 4.5)),
        seed=seed,
    )
    adj = adjacency(pdf)
    verts = sorted({v for u, vs in adj.items() for v in [u] + vs})
    s, t = (int(x) for x in rng.choice(verts, 2, replace=False))
    return adj, s, t, k


@pytest.mark.parametrize("seed", range(12))
def test_departures_match_definition(seed):
    """Definition 5.1/5.3 checked literally against the upper-bound graph."""
    adj, s, t, k = _random_case(seed)
    spg, upper, undet, definite = _upper_parts(adj, s, t, k)
    es = set(map(tuple, upper))
    spgu = Graph(upper)
    in_d, out_a = departures_arrivals(spgu, spgu.rev, s, t, k)
    expect_D = {
        v
        for (x, v) in es
        if (s, x) in es and len({x, v, s, t}) == 4
    }
    expect_A = {
        v
        for (v, y) in es
        if (y, t) in es and len({v, y, s, t}) == 4
    }
    assert set(in_d) == expect_D
    assert set(out_a) == expect_A
    for v, xs in in_d.items():
        assert len(xs) <= max(0, k - 2)
        for x in xs:
            assert (s, x) in es and (x, v) in es and len({x, v, s, t}) == 4
    for v, ys in out_a.items():
        assert len(ys) <= max(0, k - 2)
        for y in ys:
            assert (v, y) in es and (y, t) in es and len({v, y, s, t}) == 4


@pytest.mark.parametrize("seed", range(12))
def test_kernel_confirms_exactly_truth(seed):
    """Kernel keeps exactly the undetermined edges that are truly in SPG."""
    adj, s, t, k = _random_case(seed)
    truth = bf.spg_edges(adj, s, t, k)
    spg, upper, undet, definite = _upper_parts(adj, s, t, k)
    out_adj = Graph(upper)
    in_adj = out_adj.rev
    in_d, out_a = departures_arrivals(out_adj, in_adj, s, t, k)
    found = verify_kernel(out_adj, in_adj, undet, in_d, out_a, k, s, t)
    assert (found & set(undet)) == (set(undet) & truth)


@pytest.mark.parametrize("seed", range(8))
def test_ordering_is_pure_optimisation(seed):
    adj, s, t, k = _random_case(seed, k=7)
    truth = bf.spg_edges(adj, s, t, k)
    spg, upper, undet, definite = _upper_parts(adj, s, t, k)
    out_adj = Graph(upper)
    in_adj = out_adj.rev
    in_d, out_a = departures_arrivals(out_adj, in_adj, s, t, k)
    plain = verify_kernel(out_adj, in_adj, undet, in_d, out_a, k, s, t)
    o_out, o_in = search_orders(out_adj, in_adj, in_d, out_a)
    ordered = verify_kernel(o_out, o_in, undet, in_d, out_a, k, s, t)
    assert (plain & set(undet)) == (ordered & set(undet))


def test_search_orders_sort_keys():
    """Arrivals first (by |Out_A| desc), then ascending distance-to-arrival."""
    # Graph: 0→1→2→3, 0→2, plus arrivals A={2,3}; Out_A sizes differ.
    out_adj = {0: [1, 2], 1: [2], 2: [3]}
    in_adj = {1: [0], 2: [0, 1], 3: [2]}
    in_d = {0: [9]}
    out_a = {2: [7, 8], 3: [7]}
    o_out, _ = search_orders(out_adj, in_adj, in_d, out_a)
    # From 0: both 1 and 2 reachable; 2 is an arrival (dist 0) → first.
    assert o_out[0] == [2, 1]


@pytest.fixture(scope="module")
def tw_bench_k6():
    """Four seeded ``tw`` bench-scale k=6 queries, each with undetermined
    edges, and their SPG^u parts."""
    pdf = dataset_edges_pdf("tw", "bench")
    adj = adjacency(pdf)
    cases = [(s, t, *_upper_parts(adj, s, t, 6)) for s, t in random_queries(pdf, 6, 4, seed=3)]
    assert all(undet for *_, undet, _ in cases)
    return adj, cases


def test_search_order_does_not_change_the_spg(tw_bench_k6):
    """The §5.3 orders only reorder Algorithm 3's exhaustive search."""
    adj, cases = tw_bench_k6
    for s, t, spg, *_ in cases:
        assert reference_eve(adj, s, t, 6, order=False)[0] == spg, (s, t)


def test_search_orders_permute_each_neighbour_list(tw_bench_k6):
    _, cases = tw_bench_k6
    for s, t, _, upper, _, _ in cases:
        out_adj = Graph(upper)
        in_adj = out_adj.rev
        in_d, out_a = departures_arrivals(out_adj, in_adj, s, t, 6)
        for plain, ordered in zip((out_adj, in_adj), search_orders(out_adj, in_adj, in_d, out_a)):
            assert ordered.keys() == plain.keys()
            assert all(sorted(ordered[v]) == sorted(ns) for v, ns in plain.items()), (s, t)


def test_kernel_k5_needs_no_expansion():
    """k=5: budget 1 — only direct departure/arrival undetermined edges pass."""
    # s=0 → 1 → 2 → 3 → 4 → t=5 plus shortcut making (2,3) undetermined.
    # Construct a synthetic upper graph where (2,3) connects D and A.
    upper = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    out_adj = Graph(upper)
    in_adj = out_adj.rev
    in_d, out_a = departures_arrivals(out_adj, in_adj, 0, 5, 5)
    assert set(in_d) == {2} and set(out_a) == {3}
    found = verify_kernel(out_adj, in_adj, [(2, 3)], in_d, out_a, 5, 0, 5)
    assert (2, 3) in found


def test_kernel_rejects_when_neighbors_collide():
    """TryAddEdges needs distinct x ∈ In_D, y ∈ Out_A outside the stack."""
    # Handcrafted structures where the only valid in-neighbor of the
    # departure and the only valid out-neighbor of the arrival are the SAME
    # vertex (1): TryAddEdges must reject (no distinct x ≠ y).
    upper = [(0, 1), (1, 2), (2, 3), (3, 1)]
    out_adj = Graph(upper)
    in_adj = out_adj.rev
    found = verify_kernel(out_adj, in_adj, [(2, 3)], {2: [1]}, {3: [1]}, 5, 0, 9)
    assert not found
    # With distinct neighbors it passes.
    found2 = verify_kernel(out_adj, in_adj, [(2, 3)], {2: [1]}, {3: [4]}, 5, 0, 9)
    assert (2, 3) in found2


def test_verify_query_matches_bruteforce():
    for i in range(6):
        adj, s, t, k = _random_case(i, k=6)
        _, upper, undet, _ = _upper_parts(adj, s, t, 6)
        got = verify_query(upper, undet, s, t, 6)
        assert got == set(undet) & bf.spg_edges(adj, s, t, 6)


def test_undetermined_edge_touching_s_rejected():
    """Labeling never leaves an edge at s undetermined; such input is an error."""
    spgu = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    with pytest.raises(ValueError, match="touches s or t"):
        verify_query(spgu, [(0, 1)], 0, 5, 6)


def test_k_below_5_returns_empty():
    assert verify_query([(0, 1)], [(0, 1)], 0, 1, 4) == set()
