"""Essential-vertex propagation (Eq. 4, ``reference.ev_tables``) vs the
Definition-3.1 oracles."""
import pytest

from repro.baselines import bruteforce as bf
from repro.core.reference import ev_tables
from repro.graphs.generators import random_digraph
from repro.graphs.model import adjacency, bfs_dist
from repro.graphs.queries import random_queries

K = 5
N_QUERIES = 4


def _flat(ev):
    """``{l: {v: set}}`` → ``{(v, l): set}``."""
    return {(v, l): sets for l, layer in ev.items() for v, sets in layer.items()}


@pytest.fixture(scope="module")
def setup():
    pdf = random_digraph("er", 60, 3.5, seed=31)
    qs = random_queries(pdf, K, N_QUERIES, seed=41)
    return adjacency(pdf), qs


@pytest.fixture(scope="module")
def evs(setup):
    """Unpruned forward and backward tables per query."""
    adj, qs = setup
    radj = adj.rev
    evf = [_flat(ev_tables(adj, s, t, K)) for s, t in qs]
    evb = [_flat(ev_tables(radj, t, s, K)) for s, t in qs]
    return evf, evb


def _definition(want):
    return {
        (v, l): per_l[l]
        for v, per_l in want.items()
        for l in per_l
        if l >= 1
    }


@pytest.mark.parametrize("qid", range(N_QUERIES))
def test_forward_matches_definition(setup, evs, qid):
    """EV_l(s,·) per query == brute-force Definition 3.1."""
    adj, qs = setup
    s, t = qs[qid]
    got = {key: ev for key, ev in evs[0][qid].items() if key[1] >= 1}
    assert got == _definition(bf.essential_sets(adj, s, t, K))


@pytest.mark.parametrize("qid", range(N_QUERIES))
def test_backward_matches_definition(setup, evs, qid):
    adj, qs = setup
    s, t = qs[qid]
    got = {key: ev for key, ev in evs[1][qid].items() if key[1] >= 1}
    assert got == _definition(bf.essential_sets(adj.rev, t, s, K))


def test_pruned_entries_subset_with_equal_values(setup, evs):
    """Forward-looking pruning drops entries, never changes kept values."""
    adj, qs = setup
    radj = adj.rev
    for qid, (s, t) in enumerate(qs):
        full = evs[0][qid]
        dt = bfs_dist(radj, (t,), K)
        pruned = _flat(ev_tables(adj, s, t, K, dist_prune=dt))
        assert set(pruned) <= set(full)
        for key, ev in pruned.items():
            assert full[key] == ev
        # pruning keeps exactly the l + Δ(v,t) ≤ k entries
        for v, l in full:
            expected = v == s or l + dt.get(v, float("inf")) <= K
            assert ((v, l) in pruned) == expected, (qid, v, l)


def test_source_row_present_at_every_layer(setup, evs):
    adj, qs = setup
    evf, evb = evs
    for qid, (s, t) in enumerate(qs):
        for l in range(K):
            assert evf[qid][(s, l)] == frozenset({s})
            assert evb[qid][(t, l)] == frozenset({t})


def test_batch_equals_reference_tables(setup, evs):
    """Every layer of every query, layer 0 included, matches Definition 3.1."""
    adj, qs = setup
    for qid, (s, t) in enumerate(qs):
        want = bf.essential_sets(adj, s, t, K)
        for l in range(K):
            got_layer = {v: ev for (v, ll), ev in evs[0][qid].items() if ll == l}
            want_layer = {v: per_l[l] for v, per_l in want.items() if l in per_l}
            assert got_layer == want_layer, (qid, l)
