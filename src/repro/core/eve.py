"""End-to-end EVE (§2.3 overview): distances → propagation → labeling →
verification, batched over queries.

``eve_spg_batch`` runs a whole batch of ``(s, t)`` queries for one hop
constraint ``k`` through a single shared dataflow (see
:mod:`repro.graphs.bfs` for why batching is the natural dataflow
formulation of the paper's 1000-query evaluation protocol).

Phases 1–2 are pure Catalyst dataflow; phase 3 is the DFS kernel, run on
the driver over the collected upper-bound graph (see
:mod:`repro.core.verify`). For ``k ≤ 4`` the upper-bound graph *is* the
answer (Theorem 4.8) and phase 3 is skipped.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.essential import backward_roles, forward_roles, propagate
from repro.core.labeling import label_edges
from repro.core.verify import batch_verify
from repro.graphs.bfs import batch_distance_maps, queries_df
from repro.graphs.model import reverse_edges
from repro.spark_util import DFPin

Edge = Tuple[int, int]


@dataclass
class EveResult:
    """Output of one EVE query."""

    s: int
    t: int
    k: int
    #: exact E(SPG_k(s,t))
    spg: Set[Edge]
    #: E(SPG^u_k(s,t)) — upper bound (== spg for k ≤ 4)
    upper: Set[Edge]
    #: definite (label 2) and undetermined (label 1) edges
    definite: Set[Edge]
    undetermined: Set[Edge]
    #: wall-clock seconds per phase — for batched runs these are the *batch*
    #: phase timings (shared by every result of the batch)
    timings: Dict[str, float] = field(default_factory=dict)

    def spg_df(self, spark: SparkSession) -> DataFrame:
        """The answer as a Spark DataFrame ``(src, dst)``."""
        pdf = pd.DataFrame(sorted(self.spg), columns=["src", "dst"])
        if pdf.empty:
            pdf = pd.DataFrame(
                {"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")}
            )
        return spark.createDataFrame(pdf, schema="src long, dst long")


def eve_spg_batch(
    spark: SparkSession,
    edges: DataFrame,
    query_pairs: Sequence[Tuple[int, int]],
    k: int,
    *,
    distance_mode: str = "bidirectional",
    prune: bool = True,
    order: bool = True,
    time_phases: bool = False,
) -> List[EveResult]:
    """Generate SPG_k(s,t) for every query in the batch with EVE.

    Options mirror the paper's ablations (Fig. 11): ``distance_mode``
    ∈ {single, bidirectional, adaptive}; ``prune`` toggles forward-looking
    pruning; ``order`` toggles the §5.3 search-ordering strategy.
    ``time_phases`` forces materialisation between phases so each phase's
    timing is individually meaningful (otherwise phases 1–2 are fused lazily
    and timed together at the labeling collect).
    """
    if k < 1:
        raise ValueError(f"hop constraint k must be >= 1, got {k}")
    for s, t in query_pairs:
        if s == t:
            raise ValueError("query requires s != t")
    timings: Dict[str, float] = {}
    pin = DFPin()
    queries = queries_df(spark, query_pairs)

    t0 = time.perf_counter()
    dist_s, dist_t = batch_distance_maps(
        spark, edges, queries, k, mode=distance_mode, pin=pin
    )
    if time_phases:
        dist_s.count(), dist_t.count()
        timings["distances"] = time.perf_counter() - t0
        t0 = time.perf_counter()

    rev = reverse_edges(edges)
    evf = propagate(
        spark, edges, forward_roles(queries), k,
        dist_prune=dist_t if prune else None, pin=pin,
    )
    evb = propagate(
        spark, rev, backward_roles(queries), k,
        dist_prune=dist_s if prune else None, pin=pin,
    )
    if time_phases:
        evf, evb = pin(evf), pin(evb)
        evf.count(), evb.count()
        timings["propagation"] = time.perf_counter() - t0
        t0 = time.perf_counter()

    labels = label_edges(spark, edges, evf, evb, queries, k)
    lab_rows = labels.where("label >= 1").collect()
    definite: Dict[int, Set[Edge]] = {i: set() for i in range(len(query_pairs))}
    undetermined: Dict[int, Set[Edge]] = {i: set() for i in range(len(query_pairs))}
    for r in lab_rows:
        e = (int(r["src"]), int(r["dst"]))
        (definite if r["label"] == 2 else undetermined)[int(r["qid"])].add(e)
    timings["upper_bound" if not time_phases else "labeling"] = (
        time.perf_counter() - t0
    )

    t0 = time.perf_counter()
    spg: Dict[int, Set[Edge]] = {}
    if k <= 4:
        for qid in definite:
            spg[qid] = definite[qid] | undetermined[qid]
    else:
        per_query = {
            qid: (
                sorted(definite[qid] | undetermined[qid]),
                sorted(undetermined[qid]),
                query_pairs[qid][0],
                query_pairs[qid][1],
            )
            for qid in definite
        }
        confirmed = batch_verify(spark, per_query, k, order=order)
        for qid in definite:
            spg[qid] = definite[qid] | confirmed.get(qid, set())
    timings["verification"] = time.perf_counter() - t0
    pin.release()

    return [
        EveResult(
            s=query_pairs[qid][0],
            t=query_pairs[qid][1],
            k=k,
            spg=spg[qid],
            upper=definite[qid] | undetermined[qid],
            definite=definite[qid],
            undetermined=undetermined[qid],
            timings=dict(timings),
        )
        for qid in range(len(query_pairs))
    ]
