"""Shared fixtures for the reproduction test suite.

Heavy Spark results (EVE batches per graph/k combo, Figure-1 runs) are
computed once in session-scoped fixtures and shared by many parametrized
tests; the ``spark`` session itself comes from the root ``conftest.py``.
"""
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import pytest

from repro.baselines import bruteforce as bf
from repro.core.eve import EveResult, eve_spg_batch
from repro.graphs.generators import (
    FIG1_IDS,
    community,
    erdos_renyi,
    figure1_graph,
    grid,
    power_law,
    random_digraph,
    to_spark,
)
from repro.graphs.model import adjacency
from repro.graphs.queries import random_queries
from repro.spark_util import load_graph

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# Graphs.
# ---------------------------------------------------------------------------

@dataclass
class GraphCase:
    name: str
    pdf: object  # pandas edge list
    adj: dict


def _case(name, pdf) -> GraphCase:
    return GraphCase(name=name, pdf=pdf, adj=adjacency(pdf))


@pytest.fixture(scope="session")
def fig1() -> GraphCase:
    """The paper's Figure-1 running example."""
    return _case("fig1", figure1_graph())


@pytest.fixture(scope="session")
def fig1_edges(spark, fig1):
    e = to_spark(spark, fig1.pdf).repartition(1).cache()
    e.count()
    return e


@pytest.fixture(scope="session")
def fig1_graph(spark, fig1_edges):
    """The Figure-1 graph, loaded once for every test that sends it batches."""
    graph = load_graph(spark, fig1_edges)
    yield graph
    graph.close()


#: (combo name, generator kwargs, k, #queries) — the Spark end-to-end grid.
EVE_COMBOS = [
    ("er120-k4", dict(kind="er", n=120, avg_deg=4, seed=11), 4, 8),
    ("er120-k6", dict(kind="er", n=120, avg_deg=4, seed=11), 6, 8),
    ("comm100-k5", dict(kind="community", n=100, avg_deg=5, seed=5), 5, 8),
    ("comm100-k7", dict(kind="community", n=100, avg_deg=5, seed=5), 7, 6),
    ("pl150-k6", dict(kind="power_law", n=150, avg_deg=4, seed=9), 6, 8),
    ("dense40-k6", dict(kind="er", n=40, avg_deg=6, seed=2), 6, 6),
]

COMBO_IDS = [c[0] for c in EVE_COMBOS]


@dataclass
class EveCase:
    """One query's worth of shared end-to-end results."""

    name: str
    k: int
    s: int
    t: int
    pdf: object
    result: EveResult
    truth: Set[Edge]  # brute-force E(SPG_k)


@pytest.fixture(scope="session")
def eve_cases(spark) -> Dict[str, List[EveCase]]:
    """EVE batches + brute-force truth for every combo (computed once)."""
    out: Dict[str, List[EveCase]] = {}
    for name, gkw, k, nq in EVE_COMBOS:
        pdf = random_digraph(**gkw)
        adj = adjacency(pdf)
        graph = load_graph(spark, to_spark(spark, pdf))
        qs = random_queries(pdf, k, nq, seed=17)
        results = eve_spg_batch(spark, graph, qs, k)
        cases = []
        for (s, t), res in zip(qs, results):
            cases.append(
                EveCase(
                    name=name, k=k, s=s, t=t, pdf=pdf,
                    result=res, truth=bf.spg_edges(adj, s, t, k),
                )
            )
        out[name] = cases
        graph.close()
    return out


@pytest.fixture(scope="session")
def fig1_eve(spark, fig1_graph) -> Dict[int, EveResult]:
    """Fig-1 EVE results for the k values the paper's examples use."""
    s, t = FIG1_IDS["s"], FIG1_IDS["t"]
    return {
        k: eve_spg_batch(spark, fig1_graph, [(s, t)], k)[0]
        for k in (4, 5, 7)
    }


@pytest.fixture(scope="session")
def small_graphs() -> List[GraphCase]:
    """A zoo of small deterministic+random graphs for pure-Python tests."""
    return [
        _case("fig1", figure1_graph()),
        _case("grid44", grid(4, 4)),
        _case("er30", erdos_renyi(30, 3, seed=1)),
        _case("pl40", power_law(40, 3, seed=2)),
        _case("comm36", community(36, 4, n_comm=3, seed=3)),
    ]
