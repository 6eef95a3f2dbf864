"""Experiment harness: workloads, runners, table formatting."""
from dataclasses import replace

import pytest

from repro import bench_harness as H
from repro.baselines import bruteforce as bf
from repro.graphs.model import adjacency


@pytest.fixture(scope="module")
def workload(spark):
    w = H.make_workload(spark, "tw", 4, scale="test", n_queries=4, seed=1)
    yield w
    w.close()


def test_make_workload(workload):
    assert workload.k == 4
    assert len(workload.queries) == 4
    assert len(workload.graph.edge_list) == len(workload.edges_pdf)


def test_replaced_workload_keeps_its_loaded_graph(spark, workload):
    """A batch of other queries on the same cell (the benchmark's
    ``dataclasses.replace``) reuses the graph loaded once for the cell."""
    other = replace(workload, queries=workload.queries[:1])
    assert other.graph is workload.graph
    results, _ = H.run_eve(spark, other)
    assert [r.spg for r in results] == [r.spg for r in H.run_eve(spark, workload)[0][:1]]


def test_run_eve_matches_truth(spark, workload):
    results, secs = H.run_eve(spark, workload)
    assert secs > 0
    adj = adjacency(workload.edges_pdf)
    for (s, t), res in zip(workload.queries, results):
        assert res.spg == bf.spg_edges(adj, s, t, workload.k)


def test_run_spg_via_enumeration_matches_eve(spark, workload):
    results, _ = H.run_eve(spark, workload)
    spg, secs = H.run_spg_via_enumeration(spark, workload, "pathenum")
    assert spg == [res.spg for res in results]


def test_run_path_enumeration_counts(spark, workload):
    n, secs = H.run_path_enumeration(spark, workload, "join")
    adj = adjacency(workload.edges_pdf)
    want = sum(
        len(bf.simple_paths(adj, s, t, workload.k)) for s, t in workload.queries
    )
    assert n == want


def test_budget_exceeded_returns_none(spark, workload):
    n, secs = H.run_path_enumeration(spark, workload, "join", max_rows=1)
    assert n is None
    spg, secs = H.run_spg_via_enumeration(spark, workload, "pathenum", max_rows=1)
    assert spg is None


def test_run_gkst_superset(spark, workload):
    sets, _ = H.run_gkst(spark, workload, adaptive=True)
    adj = adjacency(workload.edges_pdf)
    for i, (s, t) in enumerate(workload.queries):
        assert sets[i] >= bf.spg_edges(adj, s, t, workload.k)


def test_reduced_graphs_stay_per_query(spark, workload):
    """Each query searches only its own reduced edge set: with query 0 given
    its SPG and every other query an empty set, only query 0's paths count
    (the Table 4/5 "on G^k_st / on SPG_k" runs)."""
    adj = adjacency(workload.edges_pdf)
    (s, t), k = workload.queries[0], workload.k
    reduced = [bf.spg_edges(adj, s, t, k)] + [set()] * (len(workload.queries) - 1)
    for algo in ("join", "pathenum"):
        n, _ = H.run_path_enumeration(spark, workload, algo, reduced=reduced)
        assert n == len(bf.simple_paths(adj, s, t, k))
        spg, _ = H.run_spg_via_enumeration(spark, workload, algo, reduced=reduced)
        assert spg == reduced


def test_fmt_markdown_table():
    out = H.fmt_markdown_table(["a", "b"], [[1, 2.5], [None, "x"]])
    assert out.splitlines()[0] == "| a | b |"
    assert "| 1 | 2.50 |" in out
    assert "| INF | x |" in out
