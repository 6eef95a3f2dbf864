"""The distance maps of the KHSQ / KHSQ⁺ kernel (PathEnum's index too):
bounded BFS and the adaptive bi-directional search, vs plain BFS and the
DuckDB recursive-CTE oracle."""
import pytest

from repro import oracle
from repro.baselines.khsq import distance_maps
from repro.graphs.generators import grid, random_digraph
from repro.graphs.model import adjacency, bfs_dist
from repro.graphs.queries import random_queries

K = 6


@pytest.fixture(scope="module")
def gsetup():
    pdf = random_digraph("er", 80, 4, seed=51)
    return pdf, adjacency(pdf), random_queries(pdf, K, 4, seed=7)


def _duckdb_dist(pdf, source, reversed_):
    rows = oracle.query(oracle.distances_sql(source, K, reversed_), pdf)
    return {int(v): int(d) for v, d in rows}


def test_single_bfs_matches_duckdb(gsetup):
    """Single-directional BFS distances from s == DuckDB recursive SQL."""
    pdf, adj, qs = gsetup
    s, t = qs[0]
    assert distance_maps(adj, s, t, K)[0] == _duckdb_dist(pdf, s, False)


def test_single_bfs_reversed_matches_duckdb(gsetup):
    """Single-directional BFS distances to t == DuckDB recursive SQL."""
    pdf, adj, qs = gsetup
    s, t = qs[0]
    assert distance_maps(adj, s, t, K)[1] == _duckdb_dist(pdf, t, True)


@pytest.mark.parametrize("adaptive", [False, True], ids=["single", "adaptive"])
def test_distance_maps_exact_on_k_ball(gsetup, adaptive):
    """Both searches agree with plain BFS on every vertex with
    Δ(s,v)+Δ(v,t) ≤ k (the only vertices downstream consumers read).
    Neither reports a distance below the true one anywhere; on this graph
    the forward map is exact everywhere."""
    pdf, adj, qs = gsetup
    radj = adj.rev
    for s, t in qs:
        got_s, got_t = distance_maps(adj, s, t, K, adaptive=adaptive)
        ref_s = bfs_dist(adj, (s,), K)
        ref_t = bfs_dist(radj, (t,), K)
        for v in set(ref_s) | set(ref_t):
            if ref_s.get(v, 99) + ref_t.get(v, 99) <= K:
                assert got_s[v] == ref_s[v], (adaptive, s, t, v)
                assert got_t[v] == ref_t[v], (adaptive, s, t, v)
        assert all(d == ref_s[v] for v, d in got_s.items())
        assert all(d >= ref_t[v] for v, d in got_t.items())


def test_grid_distances():
    """Deterministic check: directed grid distances are Manhattan, with and
    without the adaptive search."""
    adj = adjacency(grid(4, 5))
    for adaptive in (False, True):
        got, _ = distance_maps(adj, 0, 19, 7, adaptive=adaptive)
        for r in range(4):
            for c in range(5):
                assert got[r * 5 + c] == r + c, adaptive
