"""Edge-DataFrame graph model."""
import pandas as pd
import pytest

from repro.graphs import model as M
from repro.graphs.generators import to_spark


@pytest.fixture(scope="module")
def small(gspark):
    pdf = pd.DataFrame({"src": [0, 1, 2, 2], "dst": [1, 2, 0, 2]})
    return to_spark(gspark, pdf)


def test_reverse_edges(small):
    rev = {(r["src"], r["dst"]) for r in M.reverse_edges(small).collect()}
    fwd = {(r["src"], r["dst"]) for r in small.collect()}
    assert rev == {(v, u) for (u, v) in fwd}


def test_reverse_edges_preserves_qid(gspark):
    df = gspark.createDataFrame(
        pd.DataFrame({"qid": [0, 1], "src": [1, 2], "dst": [2, 3]}),
        schema="qid long, src long, dst long",
    )
    rev = M.reverse_edges(df)
    assert rev.columns == ["qid", "src", "dst"]
    assert {(r["qid"], r["src"], r["dst"]) for r in rev.collect()} == {
        (0, 2, 1), (1, 3, 2)
    }


def test_adjacency_helpers():
    pdf = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 2]})
    assert M.adjacency(pdf) == {0: [1, 2], 1: [2]}



def test_empty_edges(gspark):
    pdf = pd.DataFrame({c: pd.Series(dtype="int64") for c in ("src", "dst")})
    assert M.adjacency(pdf) == {}
    df = to_spark(gspark, pdf)
    assert df.count() == 0
    assert M.reverse_edges(df).count() == 0
