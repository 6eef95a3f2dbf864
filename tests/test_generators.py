"""Synthetic graph generators: determinism, shape, structure."""
import numpy as np
import pytest

from repro.graphs import generators as G
from repro.graphs.model import adjacency


@pytest.mark.parametrize("kind", ["er", "power_law", "community"])
def test_deterministic_in_seed(kind):
    a = G.random_digraph(kind, 200, 4, seed=9)
    b = G.random_digraph(kind, 200, 4, seed=9)
    c = G.random_digraph(kind, 200, 4, seed=10)
    assert a.equals(b)
    assert not a.equals(c)


@pytest.mark.parametrize("kind", ["er", "power_law", "community"])
def test_simple_digraph(kind):
    pdf = G.random_digraph(kind, 150, 5, seed=3)
    assert (pdf.src != pdf.dst).all()
    assert not pdf.duplicated(["src", "dst"]).any()
    assert pdf.src.between(0, 149).all() and pdf.dst.between(0, 149).all()


@pytest.mark.parametrize("kind", ["er", "power_law", "community"])
def test_density_close_to_target(kind):
    n, d = 400, 6
    pdf = G.random_digraph(kind, n, d, seed=1)
    # Dedupe removes colliding draws — drastically so for Zipf hubs, whose
    # repeated (hub, hub) pairs collapse; density stays within a known band.
    lo = 0.25 if kind == "power_law" else 0.5
    assert lo * n * d <= len(pdf) <= n * d


def test_power_law_has_heavier_hubs_than_er():
    er = G.erdos_renyi(500, 5, seed=4)
    pl = G.power_law(500, 5, seed=4)
    max_er = er.groupby("src").size().max()
    max_pl = pl.groupby("src").size().max()
    assert max_pl > 2 * max_er


def test_community_is_assortative():
    pdf = G.community(300, 6, n_comm=6, seed=8)
    # recover the planted partition from the generator's own RNG stream
    rng = np.random.default_rng(8)
    comm = rng.integers(0, 6, 300)
    frac_in = (comm[pdf.src] == comm[pdf.dst]).mean()
    assert frac_in > 0.6


def test_chain_and_grid():
    assert list(zip(G.chain(4).src, G.chain(4).dst)) == [(0, 1), (1, 2), (2, 3)]
    g = G.grid(3, 3)
    assert len(g) == 2 * 3 * 2  # 6 right + 6 down
    adj = adjacency(g)
    assert adj[0] == [1, 3]


def test_figure1_graph_shape():
    pdf = G.figure1_graph()
    assert len(pdf) == len(G.FIG1_EDGES) == 14
    assert set(G.FIG1_IDS) == {"s", "a", "b", "c", "h", "i", "j", "t"}
    adj = adjacency(pdf)
    V = G.FIG1_IDS
    assert sorted(adj[V["s"]]) == sorted([V["a"], V["c"]])
    assert V["t"] not in adj  # t has no out-edges


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        G.random_digraph("hypercube", 10, 2)


def test_to_spark_roundtrip(spark):
    pdf = G.erdos_renyi(50, 3, seed=2)
    df = G.to_spark(spark, pdf)
    assert df.count() == len(pdf)
    assert df.columns == ["src", "dst"]
