"""The DuckDB oracle itself: its SQL builders vs brute force."""
import pytest

from repro import oracle
from repro.baselines import bruteforce as bf
from repro.graphs.generators import figure1_graph, grid, random_digraph, FIG1_IDS
from repro.graphs.model import adjacency, bfs_dist


@pytest.mark.parametrize("k", [2, 4, 6])
def test_spg_sql_matches_bruteforce(k):
    pdf = figure1_graph()
    adj = adjacency(pdf)
    s, t = FIG1_IDS["s"], FIG1_IDS["t"]
    got = {(int(r[0]), int(r[1])) for r in oracle.query(oracle.spg_sql(s, t, k), pdf)}
    assert got == bf.spg_edges(adj, s, t, k)


def test_paths_sql_matches_bruteforce():
    pdf = grid(3, 3)
    adj = adjacency(pdf)
    got = {r[0] for r in oracle.query(oracle.paths_sql(0, 8, 4), pdf)}
    want = {"-".join(map(str, p)) for p in bf.simple_paths(adj, 0, 8, 4)}
    assert got == want


@pytest.mark.parametrize("reversed_", [False, True])
def test_distances_sql_matches_bruteforce(reversed_):
    pdf = random_digraph("er", 40, 3, seed=6)
    adj = adjacency(pdf) if not reversed_ else adjacency(pdf).rev
    src = int(pdf["src"].iloc[0])
    rows = oracle.query(oracle.distances_sql(src, 5, reversed_), pdf)
    assert {int(r[0]): int(r[1]) for r in rows} == bfs_dist(adj, (src,), 5)
