"""Deterministic cost guards for the EVE kernel: operation counts and
bytes, not time.

Five seeded ``ye`` bench-scale k=4 queries go through ``reference_eve`` on a
graph that counts the adjacency entries it hands out. Each query must make
at most half the ``label_edge`` calls, and read at most half the entries,
of the kernel that ran both BFSes to depth k, pushed every propagation layer
and labeled every edge from a forward EV row to a backward one (the counts
below).

Sixteen seeded ``tw`` bench-scale k=6 queries go through the kernel that
``eve_spg_batch`` runs in the Python workers. Their answers, pickled as
``collect`` pickles them, must take at most 60% of the bytes of the same
answers as ``reference_eve``'s sets of ``(u, v)`` tuples.
"""
import pickle

import pytest

from repro.core import reference
from repro.core.eve import answer_positions
from repro.graphs.datasets import dataset_edges_pdf
from repro.graphs.model import Graph, adjacency
from repro.graphs.queries import random_queries

K = 4
#: per query, for ``random_queries(ye bench, 4, 5, seed=1)``
FULL_LABEL_CALLS = (2189, 1581, 2861, 3342, 1505)
FULL_ENTRIES_READ = (45031, 41825, 47209, 48433, 41477)


class CountingGraph(Graph):
    """A ``Graph`` that sums the lengths of the neighbour lists ``get`` returns."""

    read = 0

    def get(self, key, default=None):
        got = dict.get(self, key, default)
        CountingGraph.read += len(got)
        return got


@pytest.fixture(scope="module")
def ye_bench():
    pdf = dataset_edges_pdf("ye", "bench")
    fwd = CountingGraph((u, v) for u, vs in adjacency(pdf).items() for v in vs)
    rev = CountingGraph((v, u) for u, vs in fwd.items() for v in vs)
    fwd.rev, rev.rev = rev, fwd  # as ``Graph.rev`` sets them, but counting
    return fwd, random_queries(pdf, K, len(FULL_LABEL_CALLS), seed=1)


@pytest.mark.parametrize("i", range(len(FULL_LABEL_CALLS)))
def test_kernel_reads_at_most_half_of_the_full_kernel(ye_bench, i, monkeypatch):
    g, queries = ye_bench
    calls = []
    label_edge = reference.label_edge
    monkeypatch.setattr(reference, "label_edge",
                        lambda *args: calls.append(args[:2]) or label_edge(*args))
    CountingGraph.read = 0
    reference.reference_eve(g, *queries[i], K)
    assert 0 < len(calls) <= FULL_LABEL_CALLS[i] / 2
    assert 0 < CountingGraph.read <= FULL_ENTRIES_READ[i] / 2


def test_answers_cross_collect_as_positions():
    pdf = dataset_edges_pdf("tw", "bench")
    g = adjacency(pdf)
    queries = random_queries(pdf, 6, 16, seed=1)
    positions = [answer_positions(g, st, 6) for st in queries]
    edge_sets = [reference.reference_eve(g, *st, 6) for st in queries]
    edges = g.edge_list()
    for at, (spg, definite, undetermined, _) in zip(positions, edge_sets):
        got = [{edges[i] for i in part} for part in at[:3]]
        assert got == [definite, undetermined, spg - definite]
    size = [len(pickle.dumps(a, pickle.HIGHEST_PROTOCOL)) for a in (positions, edge_sets)]
    assert size[0] <= 0.6 * size[1], size
