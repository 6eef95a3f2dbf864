"""Path-enumeration baselines and KHSQ vs brute force + DuckDB oracle.

The baselines are per-query kernels over an adjacency dict, so these tests
call them without Spark; ``test_harness`` and ``test_eve_end2end`` run them
through the Spark runner."""
import pytest

from repro import oracle
from repro.baselines import bruteforce as bf
from repro.baselines.enumeration import dfs_paths, join_paths
from repro.baselines.khsq import gkst
from repro.baselines.pathenum import build_index, choose_mode, pathenum_paths
from repro.graphs.generators import random_digraph
from repro.graphs.model import Graph, adjacency, bfs_dist
from repro.graphs.queries import random_queries

K = 5
N_QUERIES = 6
@pytest.fixture(scope="module")
def bsetup():
    pdf = random_digraph("er", 90, 3.5, seed=77)
    adj = adjacency(pdf)
    return pdf, adj, adj.rev, random_queries(pdf, K, N_QUERIES, seed=5)


def _pruned(adj, s, t, k, **kw):
    """PathEnum's DFS mode on the whole graph, indexed by plain BFS to t."""
    return dfs_paths(adj, s, t, k, dist_t=bfs_dist(adj.rev, (t,), k), **kw)


def _pathenum_join(adj, s, t, k, **kw):
    """PathEnum's JOIN mode on its own index, whatever choose_mode picks."""
    cand, dist_s, dist_t = build_index(adj, s, t, k)
    return join_paths(cand, s, t, k, dist_s=dist_s, dist_t=dist_t, **kw)


ENUMERATE = {
    "pruned": _pruned,
    "join": join_paths,
    "pathenum": pathenum_paths,
    "pathenum-join": _pathenum_join,
}


@pytest.mark.parametrize(
    "k, algo",
    [
        pytest.param(k, algo, id=algo if k == K else f"{algo}-k{k}")
        for k in (1, 2, 3, K)
        for algo in ENUMERATE
    ],
)
def test_enumeration_matches_bruteforce(bsetup, k, algo):
    """k = 1 runs JOIN without a backward half and one prefix level; k = 2
    and k = 3 run JOIN's even and odd split. Every path comes once."""
    pdf, adj, _, _ = bsetup
    for s, t in random_queries(pdf, k, N_QUERIES, seed=5):
        paths = ENUMERATE[algo](adj, s, t, k)
        assert len(paths) == len(set(paths))
        assert set(paths) == set(bf.simple_paths(adj, s, t, k)), (k, algo, s, t)


def test_paths_match_duckdb_oracle(bsetup):
    """Path sets equal DuckDB's recursive-CTE enumeration, per query."""
    pdf, adj, _, qs = bsetup
    for s, t in qs[:3]:
        got = {"-".join(map(str, p)) for p in _pruned(adj, s, t, K)}
        assert got == {r[0] for r in oracle.query(oracle.paths_sql(s, t, K), pdf)}


def _edges(paths):
    return {e for p in paths for e in zip(p, p[1:])}


def test_paths_to_spg_matches_oracle(bsetup):
    """Baseline SPG (union of path edges) == DuckDB Definition 2.1."""
    pdf, adj, _, qs = bsetup
    for s, t in qs[:3]:
        rows = oracle.query(oracle.spg_sql(s, t, K), pdf)
        want = {(int(u), int(v)) for u, v in rows}
        assert _edges(_pruned(adj, s, t, K)) == want


def test_paths_to_spg_matches_bruteforce(bsetup):
    pdf, adj, _, qs = bsetup
    for s, t in qs:
        assert _edges(join_paths(adj, s, t, K)) == bf.spg_edges(adj, s, t, K)


def test_gkst_properties(bsetup):
    """G^k_st: distance-characterised, superset of SPG, KHSQ == KHSQ⁺."""
    pdf, adj, radj, qs = bsetup
    all_edges = set(zip(pdf["src"], pdf["dst"]))
    for s, t in qs:
        d_s = bfs_dist(adj, (s,), K)
        d_t = bfs_dist(radj, (t,), K)
        want = {
            (u, v)
            for (u, v) in all_edges
            if d_s.get(u, 99) + 1 + d_t.get(v, 99) <= K
        }
        plain = gkst(adj, s, t, K)
        assert plain == want
        assert plain >= bf.spg_edges(adj, s, t, K)
        assert gkst(adj, s, t, K, adaptive=True) == plain


def test_pathenum_index_and_cost_model(bsetup):
    pdf, adj, _, qs = bsetup
    s, t = qs[0]
    cand, dist_s, dist_t = build_index(adj, s, t, K)
    assert set(cand) and all(dist_s[u] + 1 + dist_t[v] <= K
                             for u, vs in cand.items() for v in vs)
    assert choose_mode(0.5, 8) == "dfs"
    assert choose_mode(4.0, 8) == "join"
    assert choose_mode(4.0, 3) == "dfs"


def test_budget_returns_none(bsetup):
    """A query that makes more than ``max_rows`` path prefixes answers
    ``None`` (the INF of the tables); a budget it stays within changes
    nothing."""
    pdf, adj, _, qs = bsetup
    s, t = qs[0]
    want = set(bf.simple_paths(adj, s, t, K))
    for algo, enumerate_ in ENUMERATE.items():
        assert enumerate_(adj, s, t, K, max_rows=1) is None, algo
        assert set(enumerate_(adj, s, t, K, max_rows=10**6)) == want, algo


def test_join_counts_joined_paths_against_the_budget():
    """``s → a_i → m → b_j → t`` at k=4: each half makes 2·10 paths, the
    join 10·10. A budget the halves fit but their product does not reads
    INF; one that fits both returns every path."""
    s, m, t = 0, 1, 2
    a, b = range(10, 20), range(20, 30)
    adj = Graph([(s, x) for x in a] + [(x, m) for x in a]
                + [(m, y) for y in b] + [(y, t) for y in b])
    assert join_paths(adj, s, t, 4, max_rows=50) is None
    paths = join_paths(adj, s, t, 4, max_rows=140)
    assert sorted(paths) == sorted(bf.simple_paths(adj, s, t, 4))
    assert len(paths) == 100


def test_per_query_reduced_graph_enumeration(bsetup):
    """Enumeration on each query's own SPG == enumeration on the whole
    graph (the Table-4 'PathEnum on SPG_k' path)."""
    pdf, adj, _, qs = bsetup
    for s, t in qs:
        spg = Graph(sorted(bf.spg_edges(adj, s, t, K)))
        assert set(pathenum_paths(spg, s, t, K)) == set(bf.simple_paths(adj, s, t, K))
