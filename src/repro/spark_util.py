"""Spark helpers: session set-up and the one way a batch of queries runs.

Every contender (EVE and the baselines of §6) answers one query on one
machine, so Spark parallelises over queries. :func:`map_queries` broadcasts
the :class:`repro.graphs.model.Graph`, runs a per-query Python kernel over
the query items in Spark's Python workers and collects the answers in query
order: two Spark jobs per call. A one-item call runs its kernel on the driver
after the edge collect, as a Python-worker job costs about 0.1 s whatever it does.

:class:`DFPin` (lazy ``localCheckpoint`` of an iterative DataFrame) has no
caller in the program; the benchmark's per-layer tracer subclasses it.
"""
from __future__ import annotations

import os
import shlex
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from pyspark.sql import DataFrame, SparkSession

from repro.graphs.model import Graph, adjacency


def ensure_session_env() -> None:
    """Pre-JVM-launch tuning for the sandboxed local-mode environment.

    Must run before the first SparkSession is created. Adds shuffle-local
    directories on tmpfs (the sandbox's overlay filesystem makes shuffle
    file I/O disproportionately slow), disables the console progress bar
    (which floods captured test output), and puts the directory ``repro``
    was imported from on the Python workers' path, so that a script that
    only extended its own ``sys.path`` (``python jobs/…``) can run
    ``eve_spg_batch``, whose queries run in Python workers. Safe to call
    repeatedly; each of the three settings the caller's
    ``PYSPARK_SUBMIT_ARGS`` already has is left as it is.
    """
    confs = {
        "spark.local.dir": "/dev/shm/spark-local",
        "spark.ui.showConsoleProgress": "false",
        "spark.executorEnv.PYTHONPATH": str(Path(__file__).resolve().parents[1]),
    }
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


def map_queries(
    spark: SparkSession,
    items: Sequence,
    kernel: Callable[[Optional[Graph], Any], Any],
    edges: Optional[DataFrame] = None,
) -> List:
    """``kernel(adj, item)`` for every item, run in Spark's Python workers;
    the answers come back in the items' order.

    ``adj`` is the ``Graph`` of ``edges`` (``src`` and ``dst`` columns),
    collected once per call and broadcast without its reverse; the items of
    one task share it, so ``adj.rev`` is built once per task. Without
    ``edges`` nothing is broadcast and ``adj`` is ``None`` (each item then
    carries its own graph). The items are spread over
    ``min(len(items), defaultParallelism)`` partitions, and the call is two
    Spark jobs: the edge collect and the answer collect. An empty call starts
    none; one item runs on the driver, skipping the answer job's ~0.1 s cost.
    """
    if not items:
        return []
    sc = spark.sparkContext
    adj = None if edges is None else adjacency(edges.select("src", "dst").toPandas())
    if len(items) < 2:
        return [kernel(adj, item) for item in items]
    graph = None if adj is None else sc.broadcast(adj)
    try:
        return (
            sc.parallelize(items, max(1, min(len(items), sc.defaultParallelism)))
            .map(lambda item: kernel(graph.value if graph is not None else None, item))
            .collect()
        )
    finally:
        if graph is not None:
            graph.destroy()


class DFPin:
    """Truncate the lineage of a DataFrame (lazily)."""

    def __call__(self, df: DataFrame) -> DataFrame:
        return df.localCheckpoint(eager=False)
