"""End-to-end EVE (§2.3 overview), parallelised over queries.

EVE answers one query on one machine in ``O(k²|E|)`` (§3–§4), and the
paper's protocol is a batch of independent random queries (§6.1). So
``eve_spg_batch`` runs the per-query pipeline of
:func:`repro.core.reference.eve_positions` — BFS distances → Eq. (4)
propagation → Algorithm 2 labeling → Algorithm 3 verification — once per
query, inside Spark's Python workers:

the shared runner :func:`repro.spark_util.map_queries` maps each ``(s, t)``
pair to :func:`answer_positions` on the graph the caller loaded once
(:func:`repro.spark_util.load_graph`) and collects the answers in query
order. Labeling gives edge ``(u, adj[u][i])`` the number ``off[u] + i``
(``Graph.off``, which every worker builds once from its broadcast copy), so
the answers cross ``collect`` as ``int32`` positions in the loaded graph's
``edge_list``, and the driver only stores them. The step uses the RDD API
because its input and output are Python objects (query pairs, position
arrays, phase times), not relations. A batch is one Spark job; a one-query
batch runs on the driver and starts none. The graph must fit in one Python
worker; see DESIGN.md "Layering".
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

from pyspark.sql import SparkSession

from repro import spark_util
from repro.core.reference import ev_tables, eve_positions, label_edge
from repro.core.verify import verify_query
from repro.graphs.model import Edge, Graph, bfs_dist

# perfbench/layers.py swaps these five names for tracing wrappers while it
# traces a batch. ``eve_positions`` never calls these names (in a worker or on
# the driver), so its per-phase counts read 0. Each name is bound to the
# function that now does its phase. The benchmark change of ROADMAP item 1
# reads the trace from ``EveResult`` instead and removes this block.
batch_distance_maps = bfs_dist
propagate = ev_tables
label_edges = label_edge
batch_verify = verify_query
DFPin = spark_util.DFPin


@dataclass
class EveResult:
    """Output of one EVE query: its edge sets, stored as ``int32`` positions
    in the loaded graph's ``edge_list``, and timings."""

    s: int
    t: int
    k: int
    #: the loaded graph's canonical edges, which the arrays below index
    edge_list: Sequence[Edge] = field(repr=False, compare=False)
    #: E(SPG_k(s,t)); the ``_definite`` array itself when the two are equal
    _spg: array
    #: definite (label 2) and undetermined (label 1) edges
    _definite: array
    _undetermined: array
    #: wall-clock seconds of this query's phases, one key per phase in
    #: :data:`repro.core.reference.PHASES`
    timings: Dict[str, float] = field(default_factory=dict)

    def _edge_set(self, at: array) -> FrozenSet[Edge]:
        return frozenset(map(self.edge_list.__getitem__, at))

    spg = property(lambda self: self._edge_set(self._spg), doc="Exact E(SPG_k(s,t)).")
    definite = property(lambda self: self._edge_set(self._definite))
    undetermined = property(lambda self: self._edge_set(self._undetermined))

    @property
    def upper(self) -> FrozenSet[Edge]:
        """E(SPG^u_k(s,t)) — upper bound (== spg for k ≤ 4)."""
        return self.definite | self.undetermined

    @property
    def redundant_ratio(self) -> float:
        """r_D = (|E(SPG^u)| − |E(SPG)|) / |E(SPG)| (§6.6); 0 when SPG is empty.
        Labels 2 and 1 are disjoint: ``|E(SPG^u)|`` is a sum of lengths."""
        spg, upper = len(self._spg), len(self._definite) + len(self._undetermined)
        return (upper - spg) / spg if spg else 0.0


def answer_positions(
    adj: Graph, st: Tuple[int, int], k: int, *, prune: bool = True, order: bool = True
) -> Tuple[array, array, array, Dict[str, float]]:
    """``eve_positions(adj, *st, k)`` as ``int32`` arrays of positions:
    ``(definite, undetermined, spg − definite, timings)``, the third empty
    when verification confirmed nothing (always at k ≤ 4)."""
    *labels, timings = eve_positions(adj, *st, k, prune=prune, order=order)
    return (*(array("i", at.values()) for at in labels), timings)


def eve_spg_batch(
    spark: SparkSession,
    graph: spark_util.LoadedGraph,
    query_pairs: Sequence[Tuple[int, int]],
    k: int,
    *,
    prune: bool = True,
    order: bool = True,
    time_phases: bool = False,
) -> List[EveResult]:
    """Generate SPG_k(s,t) for every query in the batch with EVE.

    ``graph`` is one graph shared by every query, loaded once with
    :func:`repro.spark_util.load_graph`. Options mirror the paper's
    ablations (Fig. 11): ``prune`` toggles forward-looking pruning, ``order``
    the §5.3 search-ordering strategy. Every result's ``timings`` holds its
    own query's phase times whatever ``time_phases`` says; the option does
    nothing and stays only because the benchmark's traced run passes it.
    """
    if k < 1:
        raise ValueError(f"hop constraint k must be >= 1, got {k}")
    pairs = [(int(s), int(t)) for s, t in query_pairs]
    if any(s == t for s, t in pairs):
        raise ValueError("query requires s != t")
    answers = spark_util.map_queries(
        spark,
        pairs,
        lambda adj, st: answer_positions(adj, st, k, prune=prune, order=order),
        graph,
    )
    return [
        EveResult(s, t, k, graph.edge_list, definite + confirmed if confirmed else definite,
                  definite, undetermined, timings)
        for (s, t), (definite, undetermined, confirmed, timings) in zip(pairs, answers)
    ]
