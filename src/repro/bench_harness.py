"""Shared experiment harness for the evaluation tables (§6).

Runs (dataset, k, query-batch) sweeps for EVE and the baselines, times each
algorithm end-to-end (driver wall clock including result materialisation,
the same protocol for every contender), and formats paper-style tables.

Every run works on one *batch* of queries per (dataset, k) cell — the
dataflow analogue of the paper's 1000-random-query totals (query counts are
scaled down for laptop Spark; see DESIGN.md §3).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.enumeration import (
    EnumerationBudgetExceeded,
    batch_join_paths,
    paths_to_spg,
)
from repro.baselines.khsq import batch_gkst
from repro.baselines.pathenum import batch_pathenum
from repro.core.eve import EveResult, eve_spg_batch
from repro.graphs.bfs import queries_df
from repro.graphs.datasets import dataset_edges_pdf
from repro.graphs.generators import to_spark
from repro.graphs.queries import random_queries
from repro.spark_util import tune_runtime

Edge = Tuple[int, int]


@dataclass
class Workload:
    """One (dataset, k) experiment cell: graph + query batch."""

    name: str
    k: int
    edges_pdf: pd.DataFrame
    edges: DataFrame
    queries: List[Tuple[int, int]]


def make_workload(
    spark: SparkSession,
    name: str,
    k: int,
    *,
    scale: str = "test",
    n_queries: int = 10,
    seed: int = 0,
) -> Workload:
    """Materialise a dataset stand-in and a seeded k-hop-reachable batch."""
    pdf = dataset_edges_pdf(name, scale)
    edges = to_spark(spark, pdf).repartition(max(1, len(pdf) // 50_000 + 1)).cache()
    edges.count()
    qs = random_queries(pdf, k, n_queries, seed=seed)
    return Workload(name=name, k=k, edges_pdf=pdf, edges=edges, queries=qs)


def edge_sets_from_df(df: DataFrame, n_queries: int) -> Dict[int, Set[Edge]]:
    """Collect a ``(qid, src, dst)`` DataFrame into per-query edge sets."""
    out: Dict[int, Set[Edge]] = {i: set() for i in range(n_queries)}
    for r in df.collect():
        out[int(r["qid"])].add((int(r["src"]), int(r["dst"])))
    return out


def qid_edges_df(
    spark: SparkSession, mapping: Dict[int, Set[Edge]]
) -> DataFrame:
    """Per-query edge sets back to a ``(qid, src, dst)`` DataFrame."""
    rows = [
        (qid, u, v) for qid, es in sorted(mapping.items()) for u, v in sorted(es)
    ]
    pdf = pd.DataFrame(rows, columns=["qid", "src", "dst"])
    if pdf.empty:
        pdf = pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ("qid", "src", "dst")}
        )
    return spark.createDataFrame(pdf, schema="qid long, src long, dst long")


# ---------------------------------------------------------------------------
# Timed runners. Each returns (per-query SPG/path-edge sets, seconds).
# ---------------------------------------------------------------------------

def run_eve(
    spark: SparkSession, w: Workload, **opts
) -> Tuple[List[EveResult], float]:
    """EVE over the workload batch; returns (results, wall seconds)."""
    t0 = time.perf_counter()
    results = eve_spg_batch(spark, w.edges, w.queries, w.k, **opts)
    return results, time.perf_counter() - t0


def run_spg_via_enumeration(
    spark: SparkSession,
    w: Workload,
    algo: str,
    *,
    edges: Optional[DataFrame] = None,
    max_rows: Optional[int] = None,
) -> Tuple[Optional[Dict[int, Set[Edge]]], float]:
    """Baseline SPG generation: enumerate all paths, union their edges.

    ``algo`` ∈ {"join", "pathenum"}. ``edges`` overrides the search
    graph (e.g. a per-query ``(qid, src, dst)`` reduced graph for Table 5).
    Returns ``(None, elapsed)`` when the ``max_rows`` budget is exceeded —
    the INF entries of Figure 8.
    """
    e = edges if edges is not None else w.edges
    q = queries_df(spark, w.queries)
    t0 = time.perf_counter()
    try:
        paths = enumerate_paths(e, q, w.k, algo, max_rows=max_rows)
        spg = edge_sets_from_df(paths_to_spg(paths), len(w.queries))
    except EnumerationBudgetExceeded:
        return None, time.perf_counter() - t0
    return spg, time.perf_counter() - t0


def enumerate_paths(
    edges: DataFrame,
    q: DataFrame,
    k: int,
    algo: str,
    *,
    max_rows: Optional[int] = None,
) -> DataFrame:
    """Dispatch an enumeration algorithm on a (possibly per-query) graph."""
    if algo == "pathenum":
        return batch_pathenum(edges, q, k, max_rows=max_rows)
    if algo == "join":
        return batch_join_paths(edges, q, k, max_rows=max_rows)
    raise ValueError(f"unknown enumeration algo {algo!r}")


def run_path_enumeration(
    spark: SparkSession,
    w: Workload,
    algo: str,
    *,
    edges: Optional[DataFrame] = None,
    max_rows: Optional[int] = None,
) -> Tuple[Optional[int], float]:
    """Pure path-enumeration timing (Table 4): returns (#paths or None, s)."""
    e = edges if edges is not None else w.edges
    q = queries_df(spark, w.queries)
    t0 = time.perf_counter()
    try:
        n = enumerate_paths(e, q, w.k, algo, max_rows=max_rows).count()
    except EnumerationBudgetExceeded:
        return None, time.perf_counter() - t0
    return n, time.perf_counter() - t0


def run_gkst(
    spark: SparkSession, w: Workload, *, adaptive: bool
) -> Tuple[Dict[int, Set[Edge]], float]:
    """KHSQ / KHSQ⁺ G^k_st generation; returns (per-query edges, seconds)."""
    q = queries_df(spark, w.queries)
    t0 = time.perf_counter()
    sets = edge_sets_from_df(
        batch_gkst(w.edges, q, w.k, adaptive=adaptive), len(w.queries)
    )
    return sets, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Table formatting.
# ---------------------------------------------------------------------------

def fmt_markdown_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a GitHub-markdown table."""
    def cell(x) -> str:
        if x is None:
            return "INF"
        if isinstance(x, float):
            return f"{x:.2f}"
        return str(x)

    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        out.append("| " + " | ".join(cell(c) for c in r) + " |")
    return "\n".join(out)


def make_session(app: str, n_partitions: int = 4) -> SparkSession:
    """Session for the ``jobs/`` entry points, the benchmark and the test
    suite's ``spark`` fixture."""
    from repro.spark_util import ensure_session_env

    ensure_session_env()
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    tune_runtime(spark, n_partitions)
    return spark
