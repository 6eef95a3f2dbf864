"""Shared experiment harness for the evaluation tables (§6).

Runs (dataset, k, query-batch) sweeps for EVE and the baselines, times each
algorithm end-to-end (driver wall clock including result materialisation,
the same protocol for every contender), and formats paper-style tables.

Every run works on one *batch* of queries per (dataset, k) cell — the
analogue of the paper's 1000-random-query totals (query counts are scaled
down for laptop Spark; see DESIGN.md §3). Every contender runs the same way:
a per-query kernel over the workload's graph, loaded once, in Spark's
Python workers (:func:`repro.spark_util.map_queries`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.enumeration import join_paths
from repro.baselines.khsq import gkst
from repro.baselines.pathenum import pathenum_paths
from repro.core.eve import EveResult, eve_spg_batch
from repro.graphs.datasets import dataset_edges_pdf
from repro.graphs.generators import to_spark
from repro.graphs.model import Edge, Graph
from repro.graphs.queries import random_queries
from repro.spark_util import (
    LoadedGraph, ensure_session_env, load_graph, map_queries, tune_runtime,
)


@dataclass
class Workload:
    """One (dataset, k) experiment cell: graph (loaded once, kept by
    ``dataclasses.replace(w, k=…, queries=…)``) + query batch."""

    name: str
    k: int
    edges_pdf: pd.DataFrame
    graph: LoadedGraph
    queries: List[Tuple[int, int]]

    def close(self) -> None:
        self.graph.close()


def make_workload(
    spark: SparkSession,
    name: str,
    k: int,
    *,
    scale: str = "test",
    n_queries: int = 10,
    seed: int = 0,
) -> Workload:
    """Materialise a dataset stand-in, load its graph, and draw a seeded
    k-hop-reachable batch."""
    pdf = dataset_edges_pdf(name, scale)
    qs = random_queries(pdf, k, n_queries, seed=seed)
    graph = load_graph(spark, to_spark(spark, pdf))
    return Workload(name=name, k=k, edges_pdf=pdf, graph=graph, queries=qs)


# ---------------------------------------------------------------------------
# Timed runners. Each answers every query of the workload through
# ``map_queries`` (one Spark job; none for a single query, which runs on the
# driver to skip a Python-worker job's ~0.05 s) and returns (answers, seconds).
# ---------------------------------------------------------------------------

def _per_query(
    spark: SparkSession,
    w: Workload,
    kernel: Callable,
    reduced: Optional[Sequence[Set[Edge]]] = None,
) -> List:
    """``kernel(adj, s, t)`` for each query of ``w``, in query order.

    ``adj`` is the workload's loaded ``Graph``, or with ``reduced`` a
    ``Graph`` of the query's own edge set (Table 4/5's "on G^k_st / on
    SPG_k"), which travels inside the query's item instead of a broadcast.
    """
    if reduced is None:
        return map_queries(spark, w.queries, lambda adj, st: kernel(adj, *st), w.graph)
    items = [(s, t, es) for (s, t), es in zip(w.queries, reduced)]
    return map_queries(spark, items, lambda _, item: kernel(Graph(item[2]), *item[:2]))


def run_eve(
    spark: SparkSession, w: Workload, **opts
) -> Tuple[List[EveResult], float]:
    """EVE over the workload batch; returns (results, wall seconds)."""
    t0 = time.perf_counter()
    results = eve_spg_batch(spark, w.graph, w.queries, w.k, **opts)
    return results, time.perf_counter() - t0


def _enumerate(
    spark: SparkSession,
    w: Workload,
    algo: str,
    summary: Callable,
    reduced: Optional[Sequence[Set[Edge]]],
    max_rows: Optional[int],
) -> List:
    """``summary`` of each query's path list, or ``None`` for a query that
    makes more than ``max_rows`` paths (grown prefixes or joined paths);
    ``algo`` ∈ {"join", "pathenum"}."""
    enumerate_ = {"join": join_paths, "pathenum": pathenum_paths}[algo]
    k = w.k

    def kernel(adj, s, t):
        paths = enumerate_(adj, s, t, k, max_rows=max_rows)
        return None if paths is None else summary(paths)

    return _per_query(spark, w, kernel, reduced)


def run_spg_via_enumeration(
    spark: SparkSession,
    w: Workload,
    algo: str,
    *,
    reduced: Optional[Sequence[Set[Edge]]] = None,
    max_rows: Optional[int] = None,
) -> Tuple[Optional[List[Set[Edge]]], float]:
    """Baseline SPG generation: enumerate all paths, union their edges.

    ``algo`` ∈ {"join", "pathenum"}; ``reduced`` gives each query its own
    search graph (e.g. its ``G^k_st`` for Table 5). Returns
    ``(None, elapsed)`` when a query makes more than ``max_rows`` paths —
    the INF entries of Figure 8.
    """
    t0 = time.perf_counter()
    spgs = _enumerate(
        spark, w, algo,
        lambda paths: {e for p in paths for e in zip(p, p[1:])},
        reduced, max_rows,
    )
    return (None if None in spgs else spgs), time.perf_counter() - t0


def run_path_enumeration(
    spark: SparkSession,
    w: Workload,
    algo: str,
    *,
    reduced: Optional[Sequence[Set[Edge]]] = None,
    max_rows: Optional[int] = None,
) -> Tuple[Optional[int], float]:
    """Pure path-enumeration timing (Table 4): returns (#paths or None, s)."""
    t0 = time.perf_counter()
    counts = _enumerate(spark, w, algo, len, reduced, max_rows)
    return (None if None in counts else sum(counts)), time.perf_counter() - t0


def run_gkst(
    spark: SparkSession, w: Workload, *, adaptive: bool
) -> Tuple[List[Set[Edge]], float]:
    """KHSQ / KHSQ⁺ G^k_st generation; returns (per-query edges, seconds)."""
    k = w.k
    t0 = time.perf_counter()
    sets = _per_query(spark, w, lambda adj, s, t: gkst(adj, s, t, k, adaptive=adaptive))
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
    ensure_session_env()
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    tune_runtime(spark, n_partitions)
    return spark
