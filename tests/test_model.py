"""Edge-DataFrame graph model and the adjacency dicts the algorithms read."""
import pandas as pd
import pytest

from repro.graphs import model as M
from repro.graphs.generators import to_spark


@pytest.fixture(scope="module")
def small():
    return pd.DataFrame({"src": [0, 1, 2, 2], "dst": [1, 2, 0, 2]})


def test_reverse_edges(small):
    """The reversed graph the baselines search backwards: every edge
    ``(u,v)`` becomes ``(v,u)``, self-loops included."""
    rev = M.reverse_adj(M.adjacency(small))
    assert {(u, v) for u, vs in rev.items() for v in vs} == {
        (v, u) for u, v in zip(small["src"], small["dst"])
    }


def test_adjacency_helpers():
    """A duplicated row is one edge; edges keep the order of their first row."""
    pdf = pd.DataFrame({"src": [0, 0, 1, 0], "dst": [2, 1, 2, 2]})
    assert M.adjacency(pdf) == {0: [2, 1], 1: [2]}
    assert M.build_adjacency([(0, 2), (0, 1), (1, 2)]) == (
        {0: [2, 1], 1: [2]}, {2: [0, 1], 1: [0]}
    )


def test_empty_edges(spark):
    pdf = pd.DataFrame({c: pd.Series(dtype="int64") for c in ("src", "dst")})
    assert M.adjacency(pdf) == {}
    assert M.reverse_adj({}) == {}
    assert to_spark(spark, pdf).count() == 0
