"""Spark essential-vertex propagation vs the Definition-3.1 oracles."""
import pytest

from repro.baselines import bruteforce as bf
from repro.core.essential import (
    backward_roles,
    ev_to_dict,
    forward_roles,
    propagate,
)
from repro.core.reference import bfs_dist, ev_tables
from repro.graphs.bfs import batch_distance_maps, queries_df
from repro.graphs.generators import random_digraph, to_spark
from repro.graphs.model import adjacency, reverse_edges
from repro.graphs.queries import random_queries
from repro.spark_util import DFPin

K = 5
N_QUERIES = 4


@pytest.fixture(scope="module")
def setup(gspark):
    pdf = random_digraph("er", 60, 3.5, seed=31)
    edges = to_spark(gspark, pdf).repartition(1).cache()
    edges.count()
    qs = random_queries(pdf, K, N_QUERIES, seed=41)
    q = queries_df(gspark, qs)
    return pdf, adjacency(pdf), edges, qs, q


@pytest.fixture(scope="module")
def spark_ev(gspark, setup):
    pdf, adj, edges, qs, q = setup
    pin = DFPin()
    evf = ev_to_dict(propagate(gspark, edges, forward_roles(q), K, pin=pin))
    evb = ev_to_dict(
        propagate(gspark, reverse_edges(edges), backward_roles(q), K, pin=pin)
    )
    pin.release()
    return evf, evb


@pytest.mark.parametrize("qid", range(N_QUERIES))
def test_forward_matches_definition(setup, spark_ev, qid):
    """EV_l(s,·) per query == brute-force Definition 3.1."""
    pdf, adj, edges, qs, q = setup
    evf, _ = spark_ev
    s, t = qs[qid]
    want = bf.essential_sets(adj, s, t, K)
    got = {
        (v, l): ev for (qq, v, l), ev in evf.items() if qq == qid and l >= 1
    }
    want_flat = {
        (v, l): per_l[l]
        for v, per_l in want.items()
        for l in per_l
        if l >= 1
    }
    assert got == want_flat


@pytest.mark.parametrize("qid", range(N_QUERIES))
def test_backward_matches_definition(setup, spark_ev, qid):
    pdf, adj, edges, qs, q = setup
    _, evb = spark_ev
    s, t = qs[qid]
    want = bf.essential_sets(bf.reverse_adj(adj), t, s, K)
    got = {
        (v, l): ev for (qq, v, l), ev in evb.items() if qq == qid and l >= 1
    }
    want_flat = {
        (v, l): per_l[l]
        for v, per_l in want.items()
        for l in per_l
        if l >= 1
    }
    assert got == want_flat


def test_pruned_entries_subset_with_equal_values(gspark, setup, spark_ev):
    """Forward-looking pruning drops entries, never changes kept values."""
    pdf, adj, edges, qs, q = setup
    evf_full, _ = spark_ev
    pin = DFPin()
    _, dist_t = batch_distance_maps(gspark, edges, q, K, pin=pin)
    evf_pruned = ev_to_dict(
        propagate(gspark, edges, forward_roles(q), K, dist_prune=dist_t, pin=pin)
    )
    pin.release()
    assert set(evf_pruned) <= set(evf_full)
    for key, ev in evf_pruned.items():
        assert evf_full[key] == ev
    # and pruning keeps exactly the l + Δ(v,t) ≤ k entries (by reference BFS)
    for qid, (s, t) in enumerate(qs):
        dt = bfs_dist(bf.reverse_adj(adj), t, K)
        for (qq, v, l), _ev in evf_full.items():
            if qq != qid:
                continue
            kept = (qq, v, l) in evf_pruned
            expected = v == s or l + dt.get(v, float("inf")) <= K
            assert kept == expected, (qid, v, l)


def test_source_row_present_at_every_layer(setup, spark_ev):
    pdf, adj, edges, qs, q = setup
    evf, evb = spark_ev
    for qid, (s, t) in enumerate(qs):
        for l in range(K):
            assert evf[(qid, s, l)] == frozenset({s})
            assert evb[(qid, t, l)] == frozenset({t})


def test_batch_equals_reference_tables(setup, spark_ev):
    """The whole batch matches the pure-Python closure-form tables."""
    pdf, adj, edges, qs, q = setup
    evf, _ = spark_ev
    for qid, (s, t) in enumerate(qs):
        ref = ev_tables(adj, s, t, K)
        for l in range(K):
            got_layer = {v: ev for (qq, v, ll), ev in evf.items()
                         if qq == qid and ll == l}
            assert got_layer == ref[l], (qid, l)
