"""Path-enumeration baselines and KHSQ vs brute force + DuckDB oracle."""
import pytest

from repro import oracle
from repro.baselines import bruteforce as bf
from repro.baselines.enumeration import (
    EnumerationBudgetExceeded,
    batch_enumerate_paths,
    batch_join_paths,
    path_strings,
    paths_to_spg,
)
from repro.baselines.khsq import batch_gkst
from repro.baselines.pathenum import batch_pathenum, build_index, choose_mode
from repro.core.reference import bfs_dist
from repro.graphs.bfs import batch_distance_maps, queries_df
from repro.graphs.generators import random_digraph, to_spark
from repro.graphs.model import adjacency
from repro.graphs.queries import random_queries

K = 5
N_QUERIES = 6
ALGOS = ["pruned", "join", "pathenum", "pathenum-join"]


@pytest.fixture(scope="module")
def bsetup(gspark):
    pdf = random_digraph("er", 90, 3.5, seed=77)
    edges = to_spark(gspark, pdf).repartition(1).cache()
    edges.count()
    qs = random_queries(pdf, K, N_QUERIES, seed=5)
    q = queries_df(gspark, qs)
    ds, dt = batch_distance_maps(edges, q, K)
    return pdf, adjacency(pdf), edges, qs, q, ds, dt


def _pathset(df):
    return {
        (int(r["qid"]), tuple(int(x) for x in r["verts"])) for r in df.collect()
    }


def _truth_paths(adj, qs, k=K):
    return {
        (i, p)
        for i, (s, t) in enumerate(qs)
        for p in bf.simple_paths(adj, s, t, k)
    }


@pytest.fixture(scope="module")
def enumerated(gspark, bsetup):
    """``k`` → (queries, path set per algorithm), each k computed once.

    k = 1 runs JOIN without a backward half and one prefix level; k = 2 and
    k = 3 run JOIN's even and odd split."""
    pdf, adj, edges, *_ = bsetup
    cache = {}

    def run(k):
        if k not in cache:
            qs = random_queries(pdf, k, N_QUERIES, seed=5)
            q = queries_df(gspark, qs)
            _, dt = batch_distance_maps(edges, q, k)
            # PathEnum's JOIN mode on its own index, whatever choose_mode picks.
            idx = build_index(edges, q, k)
            cache[k] = qs, {
                "pruned": _pathset(batch_enumerate_paths(edges, q, k, dist_t=dt)),
                "join": _pathset(batch_join_paths(edges, q, k)),
                "pathenum": _pathset(batch_pathenum(edges, q, k)),
                "pathenum-join": _pathset(
                    batch_join_paths(
                        idx.candidate_edges, q, k,
                        dist_s=idx.dist_s, dist_t=idx.dist_t,
                    )
                ),
            }
        return cache[k]

    return run


@pytest.mark.parametrize(
    "k, algo",
    [
        pytest.param(k, algo, id=algo if k == K else f"{algo}-k{k}")
        for k in (1, 2, 3, K)
        for algo in ALGOS
    ],
)
def test_enumeration_matches_bruteforce(bsetup, enumerated, k, algo):
    adj = bsetup[1]
    qs, paths = enumerated(k)
    assert paths[algo] == _truth_paths(adj, qs, k), (k, algo)


def test_paths_match_duckdb_oracle(bsetup):
    """Path sets equal DuckDB's recursive-CTE enumeration, per query."""
    pdf, adj, edges, qs, q, ds, dt = bsetup
    paths = batch_enumerate_paths(edges, q, K, dist_t=dt)
    for qid, (s, t) in list(enumerate(qs))[:3]:
        got = path_strings(paths.where(f"qid = {qid}")).select("path")
        oracle.assert_equivalent(got, oracle.paths_sql(s, t, K), edges=pdf)


def test_paths_to_spg_matches_oracle(bsetup):
    """Baseline SPG (union of path edges) == DuckDB Definition 2.1."""
    pdf, adj, edges, qs, q, ds, dt = bsetup
    spg = paths_to_spg(
        batch_enumerate_paths(edges, q, K, dist_t=dt)
    )
    for qid, (s, t) in list(enumerate(qs))[:3]:
        got = spg.where(f"qid = {qid}").select("src", "dst")
        oracle.assert_equivalent(got, oracle.spg_sql(s, t, K), edges=pdf)


def test_paths_to_spg_matches_bruteforce(bsetup):
    pdf, adj, edges, qs, q, ds, dt = bsetup
    spg = paths_to_spg(batch_join_paths(edges, q, K)).collect()
    per = {i: set() for i in range(len(qs))}
    for r in spg:
        per[int(r["qid"])].add((int(r["src"]), int(r["dst"])))
    for i, (s, t) in enumerate(qs):
        assert per[i] == bf.spg_edges(adj, s, t, K)


def test_gkst_properties(bsetup):
    """G^k_st: distance-characterised, superset of SPG, KHSQ == KHSQ⁺."""
    pdf, adj, edges, qs, q, ds, dt = bsetup
    radj = bf.reverse_adj(adj)
    plain = batch_gkst(edges, q, K).collect()
    per = {i: set() for i in range(len(qs))}
    for r in plain:
        per[int(r["qid"])].add((int(r["src"]), int(r["dst"])))
    all_edges = set(zip(pdf["src"], pdf["dst"]))
    for i, (s, t) in enumerate(qs):
        d_s = bfs_dist(adj, s, K)
        d_t = bfs_dist(radj, t, K)
        want = {
            (u, v)
            for (u, v) in all_edges
            if d_s.get(u, 99) + 1 + d_t.get(v, 99) <= K
        }
        assert per[i] == want
        assert per[i] >= bf.spg_edges(adj, s, t, K)
    adaptive = batch_gkst(edges, q, K, adaptive=True).collect()
    per2 = {i: set() for i in range(len(qs))}
    for r in adaptive:
        per2[int(r["qid"])].add((int(r["src"]), int(r["dst"])))
    assert per == per2


def test_pathenum_index_and_cost_model(bsetup):
    pdf, adj, edges, qs, q, ds, dt = bsetup
    idx = build_index(edges, q, K)
    assert idx.avg_out_degree > 0
    assert choose_mode(0.5, 8) == "dfs"
    assert choose_mode(4.0, 8) == "join"
    assert choose_mode(4.0, 3) == "dfs"


def test_budget_guard_raises(bsetup):
    pdf, adj, edges, qs, q, ds, dt = bsetup
    with pytest.raises(EnumerationBudgetExceeded):
        batch_enumerate_paths(edges, q, K, dist_t=dt, max_rows=1)


def test_per_query_reduced_graph_enumeration(gspark, bsetup):
    """Enumeration on per-query (qid,src,dst) SPG graphs == full-graph runs
    (the Table-4 'PathEnum on SPG_k' path)."""
    import pandas as pd

    pdf, adj, edges, qs, q, ds, dt = bsetup
    rows = []
    for i, (s, t) in enumerate(qs):
        for (u, v) in sorted(bf.spg_edges(adj, s, t, K)):
            rows.append((i, u, v))
    per_q = gspark.createDataFrame(
        pd.DataFrame(rows, columns=["qid", "src", "dst"]),
        schema="qid long, src long, dst long",
    )
    got = _pathset(batch_pathenum(per_q, q, K))
    assert got == _truth_paths(adj, qs)
