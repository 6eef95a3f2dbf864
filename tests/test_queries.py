"""Query workload generation (§6.1 protocol)."""
import pandas as pd
import pytest

from repro.graphs.datasets import dataset_edges_pdf
from repro.graphs.generators import chain, random_digraph
from repro.graphs.model import adjacency, bfs_dist
from repro.graphs.queries import random_queries

#: ``random_queries`` draws at bench scale, as recorded before it switched
#: from its own truncated BFS to ``bfs_dist``; the two benchmark workloads
#: draw their batches from these (dataset, k, Q) cells.
RECORDED_DRAWS = {
    ("tw", 6, 16, 0): [
        (3433, 2256), (2046, 3371), (1171, 510), (255, 3462), (647, 1258),
        (2660, 2215), (2012, 242), (3905, 960), (2532, 219), (2237, 3841),
        (1051, 142), (2757, 2763), (1549, 1696), (2223, 367), (3144, 960),
        (3419, 2424),
    ],
    ("tw", 6, 16, 1): [
        (1909, 1560), (3115, 651), (110, 3758), (3342, 198), (919, 137),
        (1223, 1872), (1705, 3958), (3353, 2932), (1627, 3170), (2176, 1536),
        (290, 1057), (3497, 2493), (3383, 903), (3309, 1064), (1786, 1752),
        (3204, 2858),
    ],
    ("ye", 4, 1, 0): [(510, 574)],
    ("ye", 4, 1, 1): [(283, 110)],
}


def test_k_hop_reachable_chain():
    adj = adjacency(chain(10))
    assert bfs_dist(adj, (0,), 3) == {0: 0, 1: 1, 2: 2, 3: 3}


@pytest.mark.parametrize("k", [2, 4, 6])
def test_queries_are_k_hop_reachable(k):
    pdf = random_digraph("er", 150, 4, seed=21)
    adj = adjacency(pdf)
    qs = random_queries(pdf, k, 20, seed=2)
    assert len(qs) == 20
    for s, t in qs:
        assert s != t
        assert t in bfs_dist(adj, (s,), k)


def test_deterministic_in_seed():
    pdf = random_digraph("er", 150, 4, seed=21)
    assert random_queries(pdf, 4, 10, seed=3) == random_queries(pdf, 4, 10, seed=3)
    assert random_queries(pdf, 4, 10, seed=3) != random_queries(pdf, 4, 10, seed=4)


@pytest.mark.parametrize("cell", RECORDED_DRAWS, ids=lambda c: "-".join(map(str, c)))
def test_benchmark_draws_unchanged(cell):
    name, k, n_queries, seed = cell
    pdf = dataset_edges_pdf(name, "bench")
    assert random_queries(pdf, k, n_queries, seed=seed) == RECORDED_DRAWS[cell]


def test_raises_when_impossible():
    # A graph whose only edge is a self-loop has no reachable pair, and a
    # graph with no edges has no source to draw.
    with pytest.raises(RuntimeError):
        random_queries(pd.DataFrame({"src": [5], "dst": [5]}), 2, 3)
    with pytest.raises(RuntimeError):
        random_queries(pd.DataFrame({"src": [], "dst": []}), 2, 3)
