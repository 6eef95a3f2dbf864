"""End-to-end EVE (§2.3 overview), parallelised over queries.

EVE answers one query on one machine in ``O(k²|E|)`` (§3–§4), and the
paper's protocol is a batch of independent random queries (§6.1). So
``eve_spg_batch`` runs the per-query pipeline of
:func:`repro.core.reference.reference_eve` — BFS distances → Eq. (4)
propagation → Algorithm 2 labeling → Algorithm 3 verification — once per
query, inside Spark's Python workers:

1. collect the ``(src, dst)`` edges once per call and broadcast their
   adjacency dict;
2. spread the query ids ``0..Q-1`` over ``min(Q, defaultParallelism)``
   partitions (``spark.range``; the ``(s, t)`` pairs travel with the
   function);
3. one ``mapInPandas`` answers each partition's queries and returns a row
   per upper-bound edge, which one Arrow ``toPandas`` brings back.

A batch is two Spark jobs (the edge collect and the answer collect). The
graph must fit in one Python worker; see DESIGN.md "Layering".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession

from repro import spark_util
from repro.core.reference import PHASES, bfs_dist, ev_tables, label_edge, reference_eve
from repro.core.verify import verify_query
from repro.graphs.model import adjacency

Edge = Tuple[int, int]

#: Rows ``mapInPandas`` returns. Per query: one row with label 0, ``src = s``,
#: ``dst = t`` and the query's phase times; then one row per upper-bound edge
#: with its Algorithm 2 label (1 undetermined, 2 definite), whether the edge
#: is in SPG_k (``confirmed``) and null times.
RESULT_SCHEMA = ", ".join(
    ["qid long", "src long", "dst long", "label int", "confirmed boolean"]
    + [f"{p} double" for p in PHASES]
)

# perfbench/layers.py swaps these five names for tracing wrappers while it
# traces a batch. The phases run inside Python workers, which the wrappers do
# not reach, so its per-phase counts read 0. Each name is bound to the
# function that now does its phase. The benchmark change of ROADMAP item 1
# reads the trace from ``EveResult`` instead and removes this block.
batch_distance_maps = bfs_dist
propagate = ev_tables
label_edges = label_edge
batch_verify = verify_query
DFPin = spark_util.DFPin


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
    #: wall-clock seconds of this query's phases, one key per phase in
    #: :data:`repro.core.reference.PHASES`
    timings: Dict[str, float] = field(default_factory=dict)

    def spg_df(self, spark: SparkSession) -> DataFrame:
        """The answer as a Spark DataFrame ``(src, dst)``."""
        pdf = pd.DataFrame(sorted(self.spg), columns=["src", "dst"])
        if pdf.empty:
            pdf = pd.DataFrame(
                {"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")}
            )
        return spark.createDataFrame(pdf, schema="src long, dst long")


def _answer_queries(
    graph: Broadcast,
    query_pairs: List[Tuple[int, int]],
    k: int,
    prune: bool,
    order: bool,
    batches: Iterator[pd.DataFrame],
) -> Iterator[pd.DataFrame]:
    """``mapInPandas`` body: :data:`RESULT_SCHEMA` rows for each ``qid``."""
    adj = graph.value
    no_times = (None,) * len(PHASES)
    for pdf in batches:
        rows = []
        for qid in pdf["qid"].tolist():
            s, t = query_pairs[qid]
            spg, upper, definite, _, timings = reference_eve(
                adj, s, t, k, prune=prune, order=order
            )
            rows.append((qid, s, t, 0, False, *(timings[p] for p in PHASES)))
            rows.extend(
                (qid, u, v, 2 if (u, v) in definite else 1, (u, v) in spg, *no_times)
                for u, v in upper
            )
        yield pd.DataFrame(
            rows, columns=["qid", "src", "dst", "label", "confirmed", *PHASES]
        )


def eve_spg_batch(
    spark: SparkSession,
    edges: DataFrame,
    query_pairs: Sequence[Tuple[int, int]],
    k: int,
    *,
    prune: bool = True,
    order: bool = True,
    time_phases: bool = False,
) -> List[EveResult]:
    """Generate SPG_k(s,t) for every query in the batch with EVE.

    ``edges`` is one graph shared by every query: ``src`` and ``dst``
    columns, duplicate rows and self-loops allowed. Options mirror the
    paper's ablations (Fig. 11): ``prune`` toggles forward-looking pruning,
    ``order`` the §5.3 search-ordering strategy. Every result's ``timings``
    holds its own query's phase times whatever ``time_phases`` says; the
    option does nothing and stays only because the benchmark's traced run
    passes it.
    """
    if k < 1:
        raise ValueError(f"hop constraint k must be >= 1, got {k}")
    if "qid" in edges.columns:
        raise ValueError("edges must be one (src, dst) graph, not per-query edge sets")
    pairs = [(int(s), int(t)) for s, t in query_pairs]
    if any(s == t for s, t in pairs):
        raise ValueError("query requires s != t")
    sc = spark.sparkContext
    graph = sc.broadcast(adjacency(edges.select("src", "dst").toPandas()))
    try:
        qids = spark.range(
            0, len(pairs), 1, max(1, min(len(pairs), sc.defaultParallelism))
        ).toDF("qid")
        rows = qids.mapInPandas(
            partial(_answer_queries, graph, pairs, k, prune, order), RESULT_SCHEMA
        ).toPandas()
    finally:
        graph.destroy()

    results = [
        EveResult(s=s, t=t, k=k, spg=set(), upper=set(), definite=set(),
                  undetermined=set())
        for s, t in pairs
    ]
    # The queries of a batch share most of their edges, and callers keep many
    # results: every result refers to one tuple per distinct edge.
    edge_tuples: Dict[Edge, Edge] = {}
    for qid, u, v, label, confirmed, *times in rows.itertuples(index=False):
        res = results[qid]
        if label == 0:
            res.timings = dict(zip(PHASES, times))
            continue
        e = edge_tuples.setdefault((u, v), (u, v))
        res.upper.add(e)
        (res.definite if label == 2 else res.undetermined).add(e)
        if confirmed:
            res.spg.add(e)
    return results
