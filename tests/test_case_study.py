"""§6.9 case-study substitution: fraud-cycle extraction on a synthetic
transaction network (the paper's e-commerce data is proprietary).

For a transaction edge e(t,s), all vertices/edges on ≤(k+1)-hop simple
cycles through e(t,s) are exactly E(SPG_k(s,t)) ∪ {e(t,s)} — the code path
the case study exercises.
"""
import pytest

from repro.baselines import bruteforce as bf
from repro.core.eve import eve_spg_batch
from repro.graphs.generators import random_digraph, to_spark
from repro.graphs.model import adjacency
from repro.spark_util import load_graph

K = 5


@pytest.fixture(scope="module")
def txn_graph(spark):
    # Hub-heavy "account" graph: transactions cluster around a few accounts,
    # which is what produces short money-laundering cycles.
    pdf = random_digraph("power_law", 80, 4, seed=41)
    adj = adjacency(pdf)
    graph = load_graph(spark, to_spark(spark, pdf))
    yield pdf, adj, graph
    graph.close()


def _cycle_edges(adj, t, s, k):
    """Edges on simple cycles through e(t,s) of length ≤ k+1 (reference)."""
    out = set()
    for p in bf.simple_paths(adj, s, t, k):
        out.update(zip(p, p[1:]))
    if out:
        out.add((t, s))
    return out


def test_cycle_extraction_matches_reference(spark, txn_graph):
    pdf, adj, graph = txn_graph
    # pick suspicious transactions: edges (t, s) that lie on some cycle
    suspicious = []
    for (t, s) in zip(pdf["src"], pdf["dst"]):
        if bf.simple_paths(adj, int(s), int(t), K):
            suspicious.append((int(s), int(t)))
        if len(suspicious) == 5:
            break
    assert suspicious, "generator produced no short cycles"
    results = eve_spg_batch(spark, graph, suspicious, K)
    for (s, t), res in zip(suspicious, results):
        want = _cycle_edges(adj, t, s, K)
        assert res.spg | {(t, s)} == want
        # every reported account is on a cycle through the transaction
        accounts = {u for e in res.spg for u in e}
        assert s in accounts and t in accounts
