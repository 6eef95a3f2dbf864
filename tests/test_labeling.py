"""Edge labeling (Algorithm 2) of the per-query pipeline vs Definition 2.1
and Definition 3.1."""
import pandas as pd
import pytest

from repro.baselines import bruteforce as bf
from repro.core import reference
from repro.core.reference import label_edge, reference_eve
from repro.graphs.generators import FIG1_IDS, random_digraph
from repro.graphs.model import adjacency
from repro.graphs.queries import random_queries

K = 6
N_QUERIES = 4


def _labels(adj, s, t, k, prune=True):
    """``{edge: label ≥ 1}`` as ``reference_eve`` labels them."""
    _, definite, undetermined, _ = reference_eve(adj, s, t, k, prune=prune)
    return {**{e: 1 for e in undetermined}, **{e: 2 for e in definite}}


@pytest.fixture(scope="module")
def labeled():
    pdf = random_digraph("community", 70, 4.5, seed=13)
    adj = adjacency(pdf)
    qs = random_queries(pdf, K, N_QUERIES, seed=19)
    return adj, qs, [_labels(adj, s, t, K) for s, t in qs]


def _definition_layers(adj, source, avoid, k):
    """EV*_l per Definition 3.1, as ``{l: {v: frozenset}}`` for l = 0..k-1."""
    ev = bf.essential_sets(adj, source, avoid, k)
    return {l: {v: per_l[l] for v, per_l in ev.items() if l in per_l} for l in range(k)}


@pytest.mark.parametrize(
    "qid, prune",
    [pytest.param(q, True, id=str(q)) for q in range(N_QUERIES)]
    + [pytest.param(q, False, id=f"{q}-unpruned") for q in range(N_QUERIES)],
)
def test_labels_match_reference(labeled, qid, prune):
    """Every label from the Eq. 4 tables, pruned or not, equals Algorithm 2
    run on the Definition 3.1 tables over every edge of G."""
    adj, qs, _ = labeled
    s, t = qs[qid]
    labels = _labels(adj, s, t, K, prune)
    evf = _definition_layers(adj, s, t, K)
    evb = _definition_layers(adj.rev, t, s, K)
    for u, vs in adj.items():
        for v in vs:
            assert labels.get((u, v), 0) == label_edge(u, v, evf, evb, s, t, K)


def test_labeling_skips_edges_outside_the_ev_tables(fig1, monkeypatch):
    """Only edges from a forward EV row to a backward one are labeled, so a
    component that s cannot reach costs no ``label_edge`` call."""
    far = pd.DataFrame([(100, 101), (100, 102), (101, 102), (102, 100)],
                       columns=["src", "dst"])
    tails = []
    monkeypatch.setattr(reference, "label_edge",
                        lambda u, *rest: tails.append(u) or label_edge(u, *rest))
    g = adjacency(pd.concat([fig1.pdf, far]))
    reference_eve(g, FIG1_IDS["s"], FIG1_IDS["t"], 7)
    assert tails and set(far["src"]).isdisjoint(tails)


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_labeling_visits_exactly_the_layer_paired_edges(labeled, prune, monkeypatch):
    """``label_edge`` runs once on each edge e(u, v) with v a row of backward
    layer k-1-a(u), a(u) being u's first forward layer, and on no other;
    Algorithm 2 on the Definition 3.1 tables labels every other edge 0."""
    adj, qs, _ = labeled
    for s, t in qs:
        calls = []
        monkeypatch.setattr(reference, "label_edge",
                            lambda *args: calls.append(args) or label_edge(*args))
        reference_eve(adj, s, t, K, prune=prune)
        evf, evb = calls[0][2:4]
        paired = {
            (u, v)
            for u in set().union(*evf.values())
            for v in adj.get(u, ())
            if v in evb[K - 1 - min(l for l in range(K) if u in evf[l])]
        }
        seen = [args[:2] for args in calls]
        assert len(seen) == len(set(seen)) and set(seen) == paired
        def_f = _definition_layers(adj, s, t, K)
        def_b = _definition_layers(adj.rev, t, s, K)
        for u, vs in adj.items():
            for v in vs:
                if (u, v) not in paired:
                    assert label_edge(u, v, def_f, def_b, s, t, K) == 0, (u, v)


@pytest.mark.parametrize("qid", range(N_QUERIES))
def test_definite_in_truth_and_upper_superset(labeled, qid):
    adj, qs, labels = labeled
    s, t = qs[qid]
    truth = bf.spg_edges(adj, s, t, K)
    definite = {e for e, lab in labels[qid].items() if lab == 2}
    upper = set(labels[qid])
    assert definite <= truth
    assert upper >= truth


def test_small_k_has_no_undetermined(fig1):
    """k ≤ 4 ⇒ Algorithm 2's loop range is empty: labels are only 0/2."""
    s, t = FIG1_IDS["s"], FIG1_IDS["t"]
    for k in (1, 2, 3, 4):
        assert set(_labels(fig1.adj, s, t, k).values()) <= {2}, k


def test_self_loops_and_endpoint_edges_fail():
    """Self-loops, edges into s, and edges out of t are always failing."""
    pairs = [(0, 1), (1, 1), (1, 0), (3, 0), (1, 2), (2, 3), (3, 2), (2, 0)]
    adj = adjacency(pd.DataFrame(pairs, columns=["src", "dst"], dtype="int64"))
    k = 5
    upper = set(_labels(adj, 0, 3, k))
    assert (1, 1) not in upper  # self-loop
    assert all(v != 0 for _, v in upper)  # nothing re-enters s
    assert all(u != 3 for u, _ in upper)  # nothing leaves t
    assert upper >= bf.spg_edges(adj, 0, 3, k)
