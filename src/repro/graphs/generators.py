"""Synthetic directed-graph generators (Table 2 substitution).

The paper evaluates on 15 real networks we cannot download (no network in
this container). Each generator below is a deterministic, seeded synthetic
source whose density/hub structure stands in for one class of those
networks — see ``repro/graphs/datasets.py`` for the mapping and DESIGN.md
§3 for why the substitution preserves the evaluated behaviour.

All generators return ``(src, dst)`` pandas frames with int64 columns,
wrapped into Spark DataFrames by :func:`to_spark`. Self-pairs and
duplicates are removed so graphs are simple.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.model import EDGE_SCHEMA


def _dedupe(src: np.ndarray, dst: np.ndarray) -> pd.DataFrame:
    pdf = pd.DataFrame({"src": src.astype("int64"), "dst": dst.astype("int64")})
    pdf = pdf[pdf.src != pdf.dst]
    return pdf.drop_duplicates(ignore_index=True)


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Wrap a pandas edge list as a canonical Spark edge DataFrame."""
    return spark.createDataFrame(pdf, schema=EDGE_SCHEMA)


def erdos_renyi(n: int, avg_deg: float, *, seed: int = 0) -> pd.DataFrame:
    """Uniform random digraph with ``n`` vertices and ~``n*avg_deg`` edges.

    Stand-in for dense, unstructured graphs (economic / dense biological
    networks) where s-t path counts explode fastest.
    """
    g = np.random.default_rng(seed)
    m = int(n * avg_deg)
    return _dedupe(g.integers(0, n, m), g.integers(0, n, m))


def power_law(n: int, avg_deg: float, *, seed: int = 0) -> pd.DataFrame:
    """Digraph with Zipf-distributed hub attachment on both endpoints.

    Endpoints are drawn from a Zipf(1.4) rank distribution over a random
    vertex permutation, yielding heavy-tailed in/out degrees — the stand-in
    for web graphs and hub-dominated miscellaneous networks.
    """
    g = np.random.default_rng(seed)
    m = int(n * avg_deg)
    ranks = np.arange(1, n + 1, dtype="float64")
    w = 1.0 / ranks**1.4
    w /= w.sum()
    perm = g.permutation(n)
    src = perm[g.choice(n, size=m, p=w)]
    dst = perm[g.choice(n, size=m, p=w)]
    return _dedupe(src, dst)


def community(
    n: int, avg_deg: float, *, n_comm: int = 8, seed: int = 0
) -> pd.DataFrame:
    """Planted-partition digraph: ``n_comm`` dense communities, sparse bridges.

    Stand-in for social networks and strongly cohesive web communities — the
    structure the paper names as the source of overlapping s-t simple paths.
    An edge stays inside its source's community with probability 0.9.
    """
    g = np.random.default_rng(seed)
    m = int(n * avg_deg)
    comm = g.integers(0, n_comm, n)
    members = [np.flatnonzero(comm == c) for c in range(n_comm)]
    # Guard against empty communities at tiny n.
    members = [mem if len(mem) else np.arange(n) for mem in members]
    src = g.integers(0, n, m)
    inside = g.random(m) < 0.9
    dst = np.empty(m, dtype="int64")
    for i, u in enumerate(src):
        pool = members[comm[u]] if inside[i] else None
        dst[i] = g.choice(pool) if pool is not None else g.integers(0, n)
    return _dedupe(src, dst)


def chain(n: int) -> pd.DataFrame:
    """Deterministic path graph ``0 → 1 → … → n-1`` (unit-test fixture)."""
    v = np.arange(n - 1, dtype="int64")
    return pd.DataFrame({"src": v, "dst": v + 1})


def grid(rows: int, cols: int) -> pd.DataFrame:
    """Deterministic directed grid (right/down edges) — many disjoint paths."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return pd.DataFrame(pairs, columns=["src", "dst"], dtype="int64")


# ---------------------------------------------------------------------------
# The paper's Figure-1 running example, reconstructed from the text.
# ---------------------------------------------------------------------------

#: Vertex ids for the Figure-1 example graph.
FIG1_IDS = {"s": 0, "a": 1, "b": 2, "c": 3, "h": 4, "i": 5, "j": 6, "t": 7}

#: Edges of the Figure-1 graph, reconstructed so that every worked example in
#: the paper holds (Fig. 5 EV tables, Examples 2.2/3.2/4.2/4.5/4.7/5.5/5.7,
#: and the Lemma 3.3 counterexample e(b,a)); validated in
#: tests/test_paper_examples.py.
FIG1_EDGES = [
    ("s", "a"),
    ("s", "c"),
    ("a", "c"),
    ("a", "h"),
    ("a", "i"),
    ("b", "a"),
    ("b", "j"),
    ("b", "t"),
    ("c", "b"),
    ("c", "t"),
    ("h", "b"),
    ("h", "i"),
    ("i", "j"),
    ("j", "h"),
]


def figure1_graph() -> pd.DataFrame:
    """The paper's running-example graph as a pandas edge list."""
    pairs = [(FIG1_IDS[u], FIG1_IDS[v]) for u, v in FIG1_EDGES]
    return pd.DataFrame(pairs, columns=["src", "dst"], dtype="int64")


def random_digraph(kind: str, n: int, avg_deg: float, *, seed: int = 0) -> pd.DataFrame:
    """Dispatch by generator kind (``er`` / ``power_law`` / ``community``)."""
    if kind == "er":
        return erdos_renyi(n, avg_deg, seed=seed)
    if kind == "power_law":
        return power_law(n, avg_deg, seed=seed)
    if kind == "community":
        return community(n, avg_deg, seed=seed)
    raise ValueError(f"unknown generator kind: {kind!r}")
