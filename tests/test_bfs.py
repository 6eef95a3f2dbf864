"""Batched BFS distance maps vs the DuckDB recursive-CTE oracle."""
import pandas as pd
import pytest

from repro import oracle
from repro.baselines.bruteforce import reverse_adj
from repro.core.reference import bfs_dist
from repro.graphs.bfs import batch_distance_maps, queries_df
from repro.graphs.generators import grid, random_digraph, to_spark
from repro.graphs.model import adjacency
from repro.graphs.queries import random_queries

K = 6


@pytest.fixture(scope="module")
def gsetup(gspark):
    pdf = random_digraph("er", 80, 4, seed=51)
    edges = to_spark(gspark, pdf).repartition(1).cache()
    edges.count()
    qs = random_queries(pdf, K, 4, seed=7)
    return pdf, adjacency(pdf), edges, qs


def test_single_bfs_matches_duckdb(gspark, gsetup):
    """Single-directional BFS distances from s == DuckDB recursive SQL."""
    pdf, adj, edges, qs = gsetup
    ds, _ = batch_distance_maps(edges, queries_df(gspark, qs[:1]), K)
    got = ds.select("v", "dist")
    oracle.assert_equivalent(got, oracle.distances_sql(qs[0][0], K), edges=pdf)


def test_single_bfs_reversed_matches_duckdb(gspark, gsetup):
    """Single-directional BFS distances to t == DuckDB recursive SQL."""
    pdf, adj, edges, qs = gsetup
    _, dt = batch_distance_maps(edges, queries_df(gspark, qs[:1]), K)
    got = dt.select("v", "dist")
    oracle.assert_equivalent(
        got, oracle.distances_sql(qs[0][1], K, reversed_=True), edges=pdf
    )


@pytest.mark.parametrize("adaptive", [False, True], ids=["single", "adaptive"])
def test_distance_maps_exact_on_k_ball(gspark, gsetup, adaptive):
    """Both searches agree with reference BFS on every vertex with
    Δ(s,v)+Δ(v,t) ≤ k (the only vertices downstream consumers read), on the
    shared edge table and on a per-query (qid, src, dst) copy of it."""
    pdf, adj, edges, qs = gsetup
    radj = reverse_adj(adj)

    per_query = gspark.createDataFrame(
        pd.concat([pdf.assign(qid=i) for i in range(len(qs))])[["qid", "src", "dst"]],
        schema="qid long, src long, dst long",
    )

    q = queries_df(gspark, qs)
    for graph in (edges, per_query):
        ds, dt = batch_distance_maps(graph, q, K, adaptive=adaptive)
        got_s = {(int(r["qid"]), int(r["v"])): int(r["dist"]) for r in ds.collect()}
        got_t = {(int(r["qid"]), int(r["v"])): int(r["dist"]) for r in dt.collect()}
        for qid, (s, t) in enumerate(qs):
            ref_s = bfs_dist(adj, s, K)
            ref_t = bfs_dist(radj, t, K)
            for v in set(ref_s) | set(ref_t):
                if ref_s.get(v, 99) + ref_t.get(v, 99) <= K:
                    assert got_s[(qid, v)] == ref_s[v], (adaptive, qid, v)
                    assert got_t[(qid, v)] == ref_t[v], (adaptive, qid, v)
        # neither search reports a *wrong* (too small) distance anywhere
        for (qid, v), d in got_s.items():
            s = qs[qid][0]
            assert bfs_dist(adj, s, K).get(v) == d


def test_grid_distances(gspark):
    """Deterministic check: directed grid distances are Manhattan."""
    pdf = grid(4, 5)
    edges = to_spark(gspark, pdf).repartition(1)
    ds, _ = batch_distance_maps(edges, queries_df(gspark, [(0, 19)]), 7)
    got = {int(r["v"]): int(r["dist"]) for r in ds.collect()}
    for r in range(4):
        for c in range(5):
            assert got[r * 5 + c] == r + c


def test_per_query_edges_bfs(gspark, gsetup):
    """BFS over a per-query (qid, src, dst) edge set stays per-query."""
    pdf, adj, edges, qs = gsetup
    # Give query 0 the real graph and query 1 an empty one.
    e0 = pdf.assign(qid=0)[["qid", "src", "dst"]]
    both = pd.concat(
        [e0, pd.DataFrame({"qid": [1], "src": [qs[1][0]], "dst": [qs[1][0]]})]
    )
    qdf = queries_df(gspark, [qs[0], qs[1]])
    per_q = gspark.createDataFrame(both, schema="qid long, src long, dst long")
    ds, _ = batch_distance_maps(per_q, qdf, 3)
    got = ds.collect()
    by_qid = {}
    for r in got:
        by_qid.setdefault(int(r["qid"]), {})[int(r["v"])] = int(r["dist"])
    ref = bfs_dist(adj, qs[0][0], 3)
    assert by_qid[0] == ref
    assert set(by_qid.get(1, {qs[1][0]: 0})) == {qs[1][0]}
