"""Spark helpers: session set-up, the loaded graph and the batch runner.

Every contender (EVE and the baselines of §6) answers one query on one
machine, so Spark parallelises over queries. :func:`load_graph` collects the
edges once; :func:`map_queries` runs a per-query kernel over the items in
Python workers against its broadcast: one Spark job per call. A one-item
call runs its kernel on the driver, as a Python-worker job costs about 0.05 s.

:class:`DFPin` (lazy ``localCheckpoint`` of an iterative DataFrame) has no
caller in the program; the benchmark's per-layer tracer subclasses it.
"""
from __future__ import annotations

import os
import shlex
import tempfile
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from pyspark import Broadcast, SparkContext
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.model import Edge, Graph, adjacency


def ensure_session_env() -> None:
    """Pre-JVM-launch tuning for the sandboxed local-mode environment.

    Must run before the first SparkSession is created. Adds shuffle-local
    directories on tmpfs (the sandbox's overlay filesystem makes shuffle
    file I/O disproportionately slow), disables the console progress bar
    (which floods captured test output), and puts the directory ``repro``
    was imported from on the Python workers' path, so that a script that
    only extended its own ``sys.path`` (``python jobs/…``) can run
    ``eve_spg_batch``, whose queries run in Python workers. Starts those
    workers' daemon from :mod:`repro.worker_daemon`, which runs them on the
    installed ``pyspark`` rather than Spark's zips when it can. Connects
    the driver, its workers and the JVM over Unix sockets in the temp
    directory: over TCP each worker waits about 40 ms for a task's input, as
    the JVM's sockets set no ``TCP_NODELAY``. Spark refuses a socket
    directory of more than 61 characters (it names each socket
    ``<dir>/.<UUID>.sock``), so a longer temp directory stays on TCP. Safe
    to call repeatedly; each setting the caller's ``PYSPARK_SUBMIT_ARGS``
    already has is left as it is.
    """
    confs = {
        "spark.local.dir": "/dev/shm/spark-local",
        "spark.ui.showConsoleProgress": "false",
        "spark.executorEnv.PYTHONPATH": str(Path(__file__).resolve().parents[1]),
        "spark.python.daemon.module": "repro.worker_daemon",
    }
    sock_dir = tempfile.gettempdir()
    if len(sock_dir) <= 61:
        confs["spark.python.unix.domain.socket.enabled"] = "true"
        confs["spark.python.unix.domain.socket.dir"] = sock_dir
    args = os.environ.get(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    extra = "".join(
        f"--conf {shlex.quote(f'{key}={value}')} "
        for key, value in confs.items()
        if key not in args
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = args.replace(
        "pyspark-shell", extra + "pyspark-shell"
    )


def tune_runtime(spark: SparkSession, n_partitions: int = 4) -> None:
    """Post-launch tuning for the project's small DataFrames.

    No query step shuffles; any other shuffle is tiny next to the session's
    OLAP defaults: use few shuffle partitions and skip AQE's per-shuffle
    re-optimisation (it buys nothing at this scale and costs latency).
    """
    spark.conf.set("spark.sql.shuffle.partitions", str(n_partitions))
    spark.conf.set("spark.sql.adaptive.enabled", "false")


class LoadedGraph:
    """An edge DataFrame collected once, for every batch its caller sends.

    ``graph`` is its :class:`Graph`; ``edge_list`` is ``graph.edge_list()``,
    one canonical tuple per distinct edge, at its position. A Python worker
    numbers the edges of its copy of the broadcast the same way, so results
    of every batch store positions into one list. The caller owns the
    object: :meth:`close` destroys the broadcast, and a later call raises.
    """

    def __init__(self, sc: SparkContext, graph: Graph) -> None:
        self.graph, self.closed, self._sc = graph, False, sc
        self.edge_list: List[Edge] = graph.edge_list()

    @cached_property
    def broadcast(self) -> Broadcast:
        """Made by the first call of two or more items, reused by the rest."""
        return self._sc.broadcast(self.graph)

    def close(self) -> None:
        if "broadcast" in vars(self):
            self.broadcast.destroy()
        self.closed = True


def load_graph(spark: SparkSession, edges: DataFrame) -> LoadedGraph:
    """The graph of ``edges`` (``src`` and ``dst`` columns, a duplicated row
    counted as one edge), collected once: one Spark job."""
    if "qid" in edges.columns:
        raise ValueError("edges must be one (src, dst) graph, not per-query edge sets")
    return LoadedGraph(spark.sparkContext, adjacency(edges.select("src", "dst").toPandas()))


def map_queries(
    spark: SparkSession,
    items: Sequence,
    kernel: Callable[[Optional[Graph], Any], Any],
    graph: Optional[LoadedGraph] = None,
) -> List:
    """``kernel(adj, item)`` for every item, run in Spark's Python workers;
    the answers come back in the items' order.

    ``adj`` is ``graph.graph``: a Python worker unpickles its broadcast once
    and keeps it, so it builds ``adj.rev`` and ``adj.off`` once, and
    position ``adj.off[u] + i`` is edge ``(u, adj[u][i])`` of
    ``graph.edge_list`` on either side. Without ``graph`` it is ``None``
    (each item carries its own graph).
    The items are spread over ``min(len(items), defaultParallelism)``
    partitions in one Spark job; an empty call starts none, and one item runs
    on the driver. The answers come back pickled through ``collect``, which
    the driver unpickles serially: their size is part of the job's cost.
    """
    if graph is not None and graph.closed:
        raise ValueError("the graph was closed")
    if not items:
        return []
    if len(items) < 2:
        return [kernel(None if graph is None else graph.graph, item) for item in items]
    sc = spark.sparkContext
    shared = None if graph is None else graph.broadcast
    return (
        sc.parallelize(items, max(1, min(len(items), sc.defaultParallelism)))
        .map(lambda item: kernel(None if shared is None else shared.value, item))
        .collect()
    )


class DFPin:
    """Truncate the lineage of a DataFrame (lazily)."""

    def __call__(self, df: DataFrame) -> DataFrame:
        return df.localCheckpoint(eager=False)
