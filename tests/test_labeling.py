"""Edge labeling (Algorithm 2) as Catalyst joins vs the reference labeler."""
import pytest

from repro.baselines import bruteforce as bf
from repro.core.essential import backward_roles, forward_roles, propagate
from repro.core.labeling import label_edges
from repro.core.reference import bfs_dist, ev_tables, label_edge
from repro.graphs.bfs import batch_distance_maps, queries_df
from repro.graphs.generators import random_digraph, to_spark
from repro.graphs.model import adjacency, reverse_edges
from repro.graphs.queries import random_queries
from repro.spark_util import DFPin

K = 6
N_QUERIES = 4


@pytest.fixture(scope="module")
def labeled(gspark):
    pdf = random_digraph("community", 70, 4.5, seed=13)
    adj = adjacency(pdf)
    edges = to_spark(gspark, pdf).repartition(1).cache()
    edges.count()
    qs = random_queries(pdf, K, N_QUERIES, seed=19)
    q = queries_df(gspark, qs)
    pin = DFPin()
    ds, dt = batch_distance_maps(gspark, edges, q, K, pin=pin)
    evf = propagate(gspark, edges, forward_roles(q), K, dist_prune=dt, pin=pin)
    evb = propagate(
        gspark, reverse_edges(edges), backward_roles(q), K, dist_prune=ds, pin=pin
    )
    rows = label_edges(gspark, edges, evf, evb, q, K).collect()
    pin.release()
    labels = {}
    for r in rows:
        labels[(int(r["qid"]), int(r["src"]), int(r["dst"]))] = int(r["label"])
    return pdf, adj, qs, labels


def _reference_labels(adj, s, t, k):
    radj = bf.reverse_adj(adj)
    evf = ev_tables(adj, s, t, k, dist_prune=bfs_dist(radj, t, k))
    evb = ev_tables(radj, t, s, k, dist_prune=bfs_dist(adj, s, k))
    out = {}
    for u, vs in adj.items():
        for v in vs:
            out[(u, v)] = label_edge(u, v, evf, evb, s, t, k)
    return out


@pytest.mark.parametrize("qid", range(N_QUERIES))
def test_labels_match_reference(labeled, qid):
    """Every (edge, query) label agrees with the pure-Python Algorithm 2."""
    pdf, adj, qs, labels = labeled
    s, t = qs[qid]
    ref = _reference_labels(adj, s, t, K)
    got = {
        (u, v): lab for (qq, u, v), lab in labels.items() if qq == qid
    }
    # Spark emits rows only where a diagonal pair exists; absent ⇒ 0.
    for e, lab in ref.items():
        assert got.get(e, 0) == lab, e


@pytest.mark.parametrize("qid", range(N_QUERIES))
def test_definite_in_truth_and_upper_superset(labeled, qid):
    pdf, adj, qs, labels = labeled
    s, t = qs[qid]
    truth = bf.spg_edges(adj, s, t, K)
    definite = {(u, v) for (qq, u, v), lab in labels.items()
                if qq == qid and lab == 2}
    upper = {(u, v) for (qq, u, v), lab in labels.items()
             if qq == qid and lab >= 1}
    assert definite <= truth
    assert upper >= truth


def test_small_k_has_no_undetermined(gspark, fig1_edges):
    """k ≤ 4 ⇒ Algorithm 2's loop range is empty: labels are only 0/2."""
    from repro.graphs.generators import FIG1_IDS

    s, t = FIG1_IDS["s"], FIG1_IDS["t"]
    q = queries_df(gspark, [(s, t)])
    pin = DFPin()
    for k in (1, 2, 3, 4):
        ds, dt = batch_distance_maps(gspark, fig1_edges, q, k, pin=pin)
        evf = propagate(gspark, fig1_edges, forward_roles(q), k, dist_prune=dt, pin=pin)
        evb = propagate(
            gspark, reverse_edges(fig1_edges), backward_roles(q), k,
            dist_prune=ds, pin=pin,
        )
        rows = label_edges(gspark, fig1_edges, evf, evb, q, k).collect()
        assert all(int(r["label"]) in (0, 2) for r in rows), k
    pin.release()


def test_self_loops_and_endpoint_edges_fail(gspark):
    """Self-loops, edges into s, and edges out of t are always failing."""
    import pandas as pd

    pairs = [(0, 1), (1, 1), (1, 0), (3, 0), (1, 2), (2, 3), (3, 2), (2, 0)]
    pdf = pd.DataFrame(pairs, columns=["src", "dst"], dtype="int64")
    edges = to_spark(gspark, pdf).repartition(1)
    q = queries_df(gspark, [(0, 3)])
    pin = DFPin()
    k = 5
    ds, dt = batch_distance_maps(gspark, edges, q, k, pin=pin)
    evf = propagate(gspark, edges, forward_roles(q), k, dist_prune=dt, pin=pin)
    evb = propagate(
        gspark, reverse_edges(edges), backward_roles(q), k, dist_prune=ds, pin=pin
    )
    rows = label_edges(gspark, edges, evf, evb, q, k).collect()
    pin.release()
    upper = {(int(r["src"]), int(r["dst"])) for r in rows if r["label"] >= 1}
    assert (1, 1) not in upper  # self-loop
    assert all(v != 0 for _, v in upper)  # nothing re-enters s
    assert all(u != 3 for u, _ in upper)  # nothing leaves t
    assert upper >= bf.spg_edges(adjacency(pdf), 0, 3, k)
