"""Edge-DataFrame graph model and the one graph type the algorithms read."""
import pickle

import pandas as pd

from repro.baselines.enumeration import join_paths
from repro.baselines.khsq import gkst
from repro.core.reference import reference_eve
from repro.graphs import model as M
from repro.graphs.generators import random_digraph, to_spark
from repro.graphs.queries import random_queries
from repro.spark_util import load_graph


def _edges(adj):
    return [(u, v) for u, vs in adj.items() for v in vs]


def test_graph_keeps_each_edge_once():
    """A duplicated edge is one edge, self-loops stay, edges keep the order
    of their first occurrence; ``rev`` lists each edge once, reversed."""
    g = M.Graph([(0, 2), (0, 1), (2, 2), (0, 2), (1, 2), (2, 2)])
    assert g == {0: [2, 1], 2: [2], 1: [2]}
    assert sorted(_edges(g.rev)) == sorted({(v, u) for u, v in _edges(g)})
    assert len(_edges(g.rev)) == len(_edges(g))
    assert g.rev is g.rev
    assert g.rev.rev is g


def test_adjacency_helpers():
    """A duplicated row is one edge; edges keep the order of their first row."""
    pdf = pd.DataFrame({"src": [0, 0, 1, 0], "dst": [2, 1, 2, 2]})
    g = M.adjacency(pdf)
    assert isinstance(g, M.Graph)
    assert g == {0: [2, 1], 1: [2]}
    assert g.rev == {2: [0, 1], 1: [0]}


def test_fresh_graph_pickles_without_its_reverse():
    """A broadcast carries the dict alone; the reverse is built after."""
    g = M.adjacency(random_digraph("er", 60, 3, seed=4))
    size = len(pickle.dumps(g, pickle.HIGHEST_PROTOCOL))
    assert abs(size - len(pickle.dumps(dict(g), pickle.HIGHEST_PROTOCOL))) <= 64
    back = pickle.loads(pickle.dumps(g, pickle.HIGHEST_PROTOCOL))
    assert type(back) is M.Graph and back == g and back.rev == g.rev


def test_graph_pickles_without_its_reverse_after_rev_was_read():
    """A kept graph whose ``rev`` a driver-side query built still broadcasts
    its dict alone, and the copy builds its own reverse; so does the
    reverse, whose own ``rev`` is the graph."""
    g = M.Graph((i, i + 1) for i in range(10_000))
    fresh = pickle.dumps(g, pickle.HIGHEST_PROTOCOL)
    assert g.rev and g.rev.rev is g
    assert pickle.dumps(g, pickle.HIGHEST_PROTOCOL) == fresh
    back = pickle.loads(fresh)
    assert type(back) is M.Graph and back == g and "rev" not in vars(back)
    assert back.rev == g.rev
    rback = pickle.loads(pickle.dumps(g.rev, pickle.HIGHEST_PROTOCOL))
    assert rback == g.rev and "rev" not in vars(rback) and rback.rev == g


def test_off_numbers_edges_in_items_order():
    """``off`` maps each vertex with out-edges to the position of its first
    one in ``items()`` order, and is built once; ``edge_list`` lists each
    distinct edge once, at its position."""
    g = M.Graph([(0, 2), (0, 1), (2, 2), (0, 2), (1, 2), (2, 2)])
    assert list(g.off.items()) == [(0, 0), (2, 2), (1, 3)]
    assert g.edge_list() == [(0, 2), (0, 1), (2, 2), (1, 2)] == _edges(g)
    assert g.off is g.off


def test_off_indexes_the_driver_edge_list(spark):
    """On unsorted rows with duplicates and self-loops, every edge
    ``(u, adj[u][i])`` sits at position ``off[u] + i`` of the loaded graph's
    edge list, which holds each distinct edge once."""
    pdf = random_digraph("er", 60, 3, seed=4)
    loops = pd.DataFrame({"src": pdf["src"].iloc[:4], "dst": pdf["src"].iloc[:4]})
    pdf = pd.concat([pdf, pdf.iloc[:7], loops]).sample(frac=1, random_state=1)
    assert pdf.duplicated().any() and not pdf["src"].is_monotonic_increasing
    graph = load_graph(spark, to_spark(spark, pdf))
    adj, edges = graph.graph, graph.edge_list
    graph.close()
    assert len(edges) == len(set(edges)) == len(pdf.drop_duplicates())
    assert sorted(edges) == sorted(map(tuple, pdf.drop_duplicates().to_numpy().tolist()))
    assert all(edges[adj.off[u] + i] == (u, v) for u, vs in adj.items() for i, v in enumerate(vs))


def test_off_is_rebuilt_the_same_after_a_pickle_round_trip():
    """Once ``rev`` and ``off`` were read, the graph still pickles as its
    dict alone, and the copy builds the same positions."""
    g = M.adjacency(random_digraph("er", 60, 3, seed=4).sample(frac=1, random_state=1))
    fresh = pickle.dumps(g, pickle.HIGHEST_PROTOCOL)
    assert g.rev and g.off
    assert pickle.dumps(g, pickle.HIGHEST_PROTOCOL) == fresh
    back = pickle.loads(fresh)
    assert "off" not in vars(back) and "rev" not in vars(back)
    assert list(back.off.items()) == list(g.off.items())
    assert back.edge_list() == g.edge_list()


def test_kernels_share_one_reverse(monkeypatch):
    """EVE, KHSQ and JOIN on several queries of one graph build its reverse
    once."""
    pdf = random_digraph("er", 80, 3.5, seed=8)
    g = M.adjacency(pdf)
    rev = M.Graph.__dict__["rev"]  # the cached_property; count its builds
    build, built = rev.func, []
    monkeypatch.setattr(rev, "func", lambda graph: built.append(graph) or build(graph))
    for s, t in random_queries(pdf, 6, 3, seed=2):
        reference_eve(g, s, t, 6)
        gkst(g, s, t, 6)
        gkst(g, s, t, 6, adaptive=True)
        join_paths(g, s, t, 6)
    assert sum(b == g for b in built) == 1  # a copy of g counts too


def test_empty_edges(spark):
    pdf = pd.DataFrame({c: pd.Series(dtype="int64") for c in ("src", "dst")})
    assert M.adjacency(pdf) == {}
    assert M.adjacency(pdf).rev == {}
    assert to_spark(spark, pdf).count() == 0
