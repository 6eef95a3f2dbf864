"""End-to-end EVE correctness on random graphs, against three oracles:

1. brute-force enumeration of Definition 2.1 (``repro.baselines.bruteforce``),
2. the pure-Python reference EVE (``repro.core.reference``),
3. DuckDB recursive-CTE SQL via ``repro.oracle.query``.

The heavy Spark batches are computed once per (graph, k) combo in the
session-scoped ``eve_cases`` fixture; the tests here fan out per query.
"""
import os
from array import array
from collections import Counter

import pandas as pd
import pytest

from repro import bench_harness as H
from repro import oracle
from repro.baselines import bruteforce as bf
from repro.baselines.enumeration import dfs_paths, join_paths
from repro.baselines.pathenum import pathenum_paths
from repro.core.eve import eve_spg_batch
from repro.core.reference import PHASES, reference_eve
from repro.graphs.generators import FIG1_IDS, random_digraph, to_spark
from repro.graphs.model import adjacency, bfs_dist
from repro.graphs.queries import random_queries
from repro.spark_util import load_graph, map_queries

from tests.conftest import COMBO_IDS, EVE_COMBOS


def _cases(eve_cases, name):
    return eve_cases[name]


@pytest.mark.parametrize("name", COMBO_IDS)
def test_spg_matches_bruteforce(eve_cases, name):
    """EVE == exhaustive enumeration for every query of the combo."""
    for c in _cases(eve_cases, name):
        assert c.result.spg == c.truth, (c.s, c.t, c.k)


@pytest.mark.parametrize("name", COMBO_IDS)
def test_upper_bound_superset(eve_cases, name):
    """SPG^u ⊇ SPG always (Definition 4.1 soundness)."""
    for c in _cases(eve_cases, name):
        assert c.result.upper >= c.truth, (c.s, c.t, c.k)


@pytest.mark.parametrize("name", COMBO_IDS)
def test_definite_edges_subset(eve_cases, name):
    """Label-2 edges are provably in SPG (Lemmas 4.4/4.6 soundness)."""
    for c in _cases(eve_cases, name):
        assert c.result.definite <= c.truth, (c.s, c.t, c.k)


@pytest.mark.parametrize("name", COMBO_IDS)
def test_upper_equals_exact_for_k_le_4(eve_cases, name):
    """Theorem 4.8: SPG^u = SPG when k ≤ 4 (and undetermined set is empty)."""
    for c in _cases(eve_cases, name):
        if c.k <= 4:
            assert c.result.upper == c.truth
            assert not c.result.undetermined


@pytest.mark.parametrize("name", COMBO_IDS)
def test_matches_reference_implementation(eve_cases, name):
    """Spark dataflow ≡ pure-Python reference EVE (labels and answer)."""
    for c in _cases(eve_cases, name):
        adj = adjacency(c.pdf)
        spg, definite, undet, _ = reference_eve(adj, c.s, c.t, c.k)
        assert c.result.spg == spg
        assert c.result.definite == definite
        assert c.result.undetermined == undet


@pytest.mark.parametrize("name", COMBO_IDS)
def test_spg_matches_duckdb_oracle(eve_cases, name):
    """Every query's SPG equals DuckDB evaluating Definition 2.1 directly."""
    for c in _cases(eve_cases, name)[:3]:  # CTE enumeration is exponential
        rows = oracle.query(oracle.spg_sql(c.s, c.t, c.k), c.pdf)
        assert c.result.spg == {(int(u), int(v)) for u, v in rows}, (c.s, c.t, c.k)


@pytest.mark.parametrize("name", COMBO_IDS)
def test_edges_of_spg_are_graph_edges(eve_cases, name):
    for c in _cases(eve_cases, name):
        all_edges = set(zip(c.pdf["src"], c.pdf["dst"]))
        assert c.result.spg <= all_edges
        assert c.result.upper <= all_edges


# ---------------------------------------------------------------------------
# Option ablations (Fig. 11 knobs) must not change answers.
# ---------------------------------------------------------------------------

ABLATIONS = [
    dict(prune=False),
    dict(order=False),
]


@pytest.fixture(scope="module")
def ablation_setup(spark):
    gkw = dict(kind="community", n=80, avg_deg=5, seed=23)
    pdf = random_digraph(**gkw)
    graph = load_graph(spark, to_spark(spark, pdf))
    k = 6
    qs = random_queries(pdf, k, 6, seed=3)
    base = eve_spg_batch(spark, graph, qs, k)
    yield pdf, graph, k, qs, base
    graph.close()


@pytest.mark.parametrize(
    "opts", ABLATIONS, ids=[str(sorted(a.items())) for a in ABLATIONS]
)
def test_ablations_do_not_change_answers(spark, ablation_setup, opts):
    """Pruning and ordering are pure optimisations."""
    pdf, graph, k, qs, base = ablation_setup
    got = eve_spg_batch(spark, graph, qs, k, **opts)
    for b, g in zip(base, got):
        assert g.spg == b.spg
        assert g.upper == b.upper
        assert g.definite == b.definite


def test_ablation_base_matches_truth(ablation_setup):
    pdf, graph, k, qs, base = ablation_setup
    adj = adjacency(pdf)
    for (s, t), res in zip(qs, base):
        assert res.spg == bf.spg_edges(adj, s, t, k)


def test_rejects_s_equals_t(spark, fig1_graph):
    with pytest.raises(ValueError):
        eve_spg_batch(spark, fig1_graph, [(0, 0)], 4)


@pytest.mark.parametrize("k", [0, -1])
def test_rejects_k_below_1(spark, fig1_graph, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        eve_spg_batch(spark, fig1_graph, [(0, 1)], k)


def test_rejects_per_query_edge_table(spark, fig1_edges):
    """A ``(qid, src, dst)`` table would be read as the union of its graphs,
    so the load refuses it."""
    per_query = fig1_edges.selectExpr("0 AS qid", "src", "dst")
    with pytest.raises(ValueError, match="not per-query edge sets"):
        load_graph(spark, per_query)


@pytest.mark.parametrize("k", [4, 6])
def test_timings_keys_do_not_depend_on_time_phases(spark, fig1_graph, k):
    """Every result times its own query's four phases, with or without
    ``time_phases``."""
    qs = [(FIG1_IDS["s"], FIG1_IDS["t"]), (FIG1_IDS["a"], FIG1_IDS["t"])]
    for time_phases in (False, True):
        for res in eve_spg_batch(spark, fig1_graph, qs, k, time_phases=time_phases):
            assert list(res.timings) == list(PHASES)
            assert all(sec >= 0 for sec in res.timings.values())


# Every contender's runner, as per-query edge sets: the SPG for EVE, JOIN
# and PathEnum, G^k_st (a superset) for KHSQ and KHSQ⁺.
RUNNERS = {
    "eve": lambda spark, w: [r.spg for r in H.run_eve(spark, w)[0]],
    "join": lambda spark, w: H.run_spg_via_enumeration(spark, w, "join")[0],
    "pathenum": lambda spark, w: H.run_spg_via_enumeration(spark, w, "pathenum")[0],
    "khsq": lambda spark, w: H.run_gkst(spark, w, adaptive=False)[0],
    "khsq+": lambda spark, w: H.run_gkst(spark, w, adaptive=True)[0],
}
SUPERSET = {"khsq", "khsq+"}


def _workload(pdf, graph, qs, k):
    """A workload on an already loaded graph."""
    return H.Workload(name="test", k=k, edges_pdf=pdf, graph=graph, queries=qs)


def _with_job_count(spark, group, run):
    """``run()`` and the number of Spark jobs it started (``group`` must be
    new to the session)."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize("runner", RUNNERS)
def test_empty_batch(spark, fig1, fig1_graph, runner):
    """An empty batch answers ``[]`` without a Spark job."""
    w = _workload(fig1.pdf, fig1_graph, [], 5)
    got, jobs = _with_job_count(
        spark, f"test-empty-batch-{runner}", lambda: RUNNERS[runner](spark, w)
    )
    assert got == [] and jobs == 0


def test_batch_results_share_edge_tuples(spark, fig1_graph):
    """Answers computed in different Python workers refer to one tuple per
    distinct edge, so a caller that keeps many results holds each edge once."""
    qs = [(FIG1_IDS["s"], FIG1_IDS["t"]), (FIG1_IDS["a"], FIG1_IDS["t"])] * 3
    results = eve_spg_batch(spark, fig1_graph, qs, 6)
    canon = {}
    for res in results:
        for e in (*res.upper, *res.spg, *res.definite, *res.undetermined):
            assert canon.setdefault(e, e) is e
    assert len(canon) < sum(len(res.upper) for res in results)


@pytest.mark.parametrize("runner", RUNNERS)
def test_batch_runs_in_two_spark_jobs(spark, fig1, fig1_edges, runner):
    """From the edge DataFrame, a batch of Q ≥ 2 queries is the edge collect
    of the load plus the answer collect."""
    def load_and_run():
        w = _workload(fig1.pdf, load_graph(spark, fig1_edges),
                      [(FIG1_IDS["s"], FIG1_IDS["t"])] * 9, 7)
        RUNNERS[runner](spark, w)
        w.graph.close()

    _, jobs = _with_job_count(spark, f"test-batch-jobs-{runner}", load_and_run)
    assert jobs == 2


def test_loaded_graph_engine_contract(spark, fig1_edges, monkeypatch):
    """After the load, a Q=1 batch starts no Spark job and a Q ≥ 2 batch
    exactly one; every batch reuses the one broadcast, and a batch after
    ``close()`` raises."""
    sc = spark.sparkContext
    broadcast, made = sc.broadcast, []

    def counted_broadcast(value):
        made.append(broadcast(value))
        return made[-1]

    monkeypatch.setattr(sc, "broadcast", counted_broadcast)
    st = (FIG1_IDS["s"], FIG1_IDS["t"])
    graph = load_graph(spark, fig1_edges)
    for i, qs in enumerate(([st], [st] * 3, [st], [st] * 5)):
        _, jobs = _with_job_count(
            spark, f"test-loaded-contract-{i}", lambda: eve_spg_batch(spark, graph, qs, 6)
        )
        assert jobs == (0 if len(qs) == 1 else 1), qs
    assert len(made) == 1
    graph.close()
    for qs in ([st], [st] * 3):
        with pytest.raises(ValueError, match="closed"):
            eve_spg_batch(spark, graph, qs, 6)


def test_results_of_two_batches_share_the_loaded_edges(spark, fig1_graph):
    """Each result stores its edge sets as ``int32`` positions in the loaded
    graph's ``edge_list``, so results of different batches (on the driver or
    in the workers) give back the very same canonical edge objects."""
    qs = [(FIG1_IDS["s"], FIG1_IDS["t"]), (FIG1_IDS["a"], FIG1_IDS["t"])]
    first = eve_spg_batch(spark, fig1_graph, qs[:1], 7)
    second = eve_spg_batch(spark, fig1_graph, qs, 7)
    adj = fig1_graph.graph
    for res in first + second:
        assert res.edge_list is fig1_graph.edge_list
        for stored in (res._spg, res._definite, res._undetermined):
            assert type(stored) is array and stored.itemsize == 4
        for edges in (res.spg, res.definite, res.undetermined):
            assert all(fig1_graph.edge_list[adj.off[u] + adj[u].index(v)] is e
                       for e in edges for u, v in [e])
    assert first[0].spg and set(map(id, first[0].spg)) == set(map(id, second[0].spg))


def test_python_workers_build_the_reverse_once(spark, fig1_edges):
    """A Python worker unpickles the loaded graph's broadcast once and keeps
    it across tasks and calls, so over two Q ≥ 2 calls each worker builds
    ``rev`` and ``off`` once."""
    def kernel(adj, _):
        built = tuple(name not in vars(adj) for name in ("rev", "off"))
        adj.rev, adj.off  # built here on first use
        return os.getpid(), built

    graph = load_graph(spark, fig1_edges)
    n = 2 * spark.sparkContext.defaultParallelism
    answers = [a for _ in range(2) for a in map_queries(spark, range(n), kernel, graph)]
    graph.close()
    for i, name in enumerate(("rev", "off")):
        builds = Counter(pid for pid, built in answers if built[i])
        assert builds and max(builds.values()) == 1, name


def test_worker_positions_index_the_loaded_edge_list(spark, plumbing_graph):
    """One index: a Q ≥ 2 batch, answered in the workers on a graph whose
    rows arrive unsorted and with duplicates, stores positions that give the
    edge sets of the same queries sent one at a time (answered on the
    driver) and of ``reference_eve``."""
    pdf = plumbing_graph[0].sample(frac=1, random_state=3)
    assert pdf.duplicated().any() and not pdf["src"].is_monotonic_increasing
    graph = load_graph(spark, spark.createDataFrame(pdf))
    adj, k = adjacency(pdf), 6
    qs = random_queries(pdf, k, 2 * spark.sparkContext.defaultParallelism, seed=6)
    batch = eve_spg_batch(spark, graph, qs, k)
    alone = [eve_spg_batch(spark, graph, [q], k)[0] for q in qs]
    graph.close()
    assert any(res._spg is not res._definite for res in batch)
    for (s, t), res, one in zip(qs, batch, alone):
        want = reference_eve(adj, s, t, k)[:3]
        assert (res.spg, res.definite, res.undetermined) == want, (s, t)
        assert (one.spg, one.definite, one.undetermined) == want, (s, t)


# ---------------------------------------------------------------------------
# The batch plumbing (answer order, partitioning, odd inputs) against
# brute force.
# ---------------------------------------------------------------------------

ABSENT = 10_000  # a vertex id the graph does not have
SINK = 10_001  # has an out-edge only, so no query reaches it


@pytest.fixture(scope="module")
def plumbing_graph(spark):
    """A random graph plus self-loops, duplicate rows and a source-only vertex,
    as an edge DataFrame that is neither deduplicated nor canonicalised, and
    its loaded graph."""
    pdf = random_digraph("er", 30, 3, seed=4)
    first = int(pdf["src"].iloc[0])
    extra = pd.DataFrame(
        [(v, v) for v in pdf["src"].iloc[:3]] + [(SINK, first)],
        columns=["src", "dst"],
    )
    pdf = pd.concat([pdf, pdf.iloc[:5], extra], ignore_index=True)
    edges = spark.createDataFrame(pdf)
    graph = load_graph(spark, edges)
    yield pdf, edges, graph
    graph.close()


@pytest.fixture(scope="module")
def plumbing_truth(spark, plumbing_graph):
    """``k`` → (batch, brute-force SPG per query), each k computed once."""
    pdf = plumbing_graph[0]
    adj = adjacency(pdf)
    n_queries = 2 * spark.sparkContext.defaultParallelism + 1
    cache = {}

    def truth(k):
        if k not in cache:
            qs = random_queries(pdf, k, n_queries, seed=k)
            s0 = qs[0][0]
            qs += [qs[1], (ABSENT, s0), (s0, ABSENT), (s0, SINK), (SINK, s0)]
            cache[k] = qs, [bf.spg_edges(adj, s, t, k) for s, t in qs]
        return cache[k]

    return truth


@pytest.mark.parametrize(
    "runner, k",
    [
        pytest.param(r, k, id=str(k) if r == "eve" else f"{r}-{k}")
        for r in RUNNERS
        for k in (1, 2, 3, 5, 7)
    ],
)
def test_batch_plumbing_matches_bruteforce(
    spark, plumbing_graph, plumbing_truth, runner, k
):
    """Each answer of a batch larger than its partition count, with a
    duplicate query, absent endpoints and an unreachable t, is its own
    query's brute-force SPG (a superset of it for KHSQ / KHSQ⁺)."""
    pdf, _, graph = plumbing_graph
    qs, truth = plumbing_truth(k)
    if runner == "eve":
        results = eve_spg_batch(spark, graph, qs, k)
        for (s, t), res in zip(qs, results):
            assert (res.s, res.t, res.k) == (s, t, k)
            assert res.definite <= res.spg <= res.upper
        got = [res.spg for res in results]
    else:
        got = RUNNERS[runner](spark, _workload(pdf, graph, qs, k))
    assert len(got) == len(qs)
    for (s, t), es, want in zip(qs, got, truth):
        assert es >= want if runner in SUPERSET else es == want, (s, t)
    assert got[-5] == got[1]
    assert not got[-4] and not got[-3] and not got[-2]


@pytest.mark.parametrize("runner", RUNNERS)
def test_one_query_batch_is_one_spark_job(
    spark, plumbing_graph, plumbing_truth, runner
):
    """From the edge DataFrame, a Q=1 batch is the edge collect of the load
    alone (its kernel runs on the driver). Its answer is the one its query
    gets inside a larger batch, and brute force's SPG (a superset of it for
    KHSQ / KHSQ⁺)."""
    pdf, edges, graph = plumbing_graph
    k = 5
    qs, truth = plumbing_truth(k)
    batch = RUNNERS[runner](spark, _workload(pdf, graph, qs, k))

    def load_and_run(q):
        w = _workload(pdf, load_graph(spark, edges), [q], k)
        got = RUNNERS[runner](spark, w)
        w.graph.close()
        return got

    for i in (0, 1, len(qs) - 1):
        (got,), jobs = _with_job_count(
            spark, f"test-one-query-{runner}-{i}", lambda: load_and_run(qs[i])
        )
        assert jobs == 1, qs[i]
        assert got == batch[i], qs[i]
        assert got >= truth[i] if runner in SUPERSET else got == truth[i], qs[i]


def test_duplicate_rows_are_one_edge(spark, plumbing_graph, plumbing_truth):
    """A duplicated row is one edge (``E`` is a set in Definition 2.1): the
    enumeration kernels list each simple path once, and JOIN and PathEnum
    count as many paths as brute force."""
    pdf, _, graph = plumbing_graph
    assert pdf.duplicated().any()
    k = 5
    qs, _ = plumbing_truth(k)
    adj = adjacency(pdf)
    radj = adj.rev
    want = [bf.simple_paths(adj, s, t, k) for s, t in qs]
    for (s, t), paths in zip(qs, want):
        assert len(set(paths)) == len(paths), (s, t)
        dist_t = bfs_dist(radj, (t,), k)
        for got in (
            join_paths(adj, s, t, k),
            dfs_paths(adj, s, t, k, dist_t=dist_t),
            pathenum_paths(adj, s, t, k),
        ):
            assert sorted(got) == paths, (s, t)
    w = _workload(pdf, graph, qs, k)
    for algo in ("join", "pathenum"):
        assert H.run_path_enumeration(spark, w, algo)[0] == sum(map(len, want)), algo
