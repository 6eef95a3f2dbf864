"""Spark helpers for iterative dataflow.

Iterative algorithms (BFS levels, path-enumeration levels) reference each
iteration's DataFrame more than once (next iteration + final union); left
lazy, the *logical plan* re-expands the whole upstream chain at every
reference, which is exponential in the number of iterations — Catalyst
analysis alone becomes the bottleneck. :class:`DFPin` cuts each iteration's
lineage with ``localCheckpoint(eager=False)``: the plan is truncated to a
``LogicalRDD`` immediately (planning stays O(1) per level) while computation
is deferred, so the whole query still executes as a handful of jobs and each
level's RDD is computed once (levels are separated by shuffle boundaries,
which Spark's scheduler evaluates once per job). Each baseline pins its own
levels; the returned DataFrame's lineage keeps the checkpointed RDDs it reads
alive, and the ContextCleaner frees the blocks once they are unreachable.
"""
from __future__ import annotations

import os
import shlex
from pathlib import Path

from pyspark.sql import DataFrame, SparkSession


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
    """Post-launch tuning for per-query graph dataflow.

    The per-query subgraphs are tiny next to the session's OLAP defaults:
    use few shuffle partitions and skip AQE's per-shuffle re-optimisation
    (it buys nothing at this scale and costs latency on every exchange).
    """
    spark.conf.set("spark.sql.shuffle.partitions", str(n_partitions))
    spark.conf.set("spark.sql.adaptive.enabled", "false")


class DFPin:
    """Truncate the lineage of a per-iteration DataFrame (lazily)."""

    def __call__(self, df: DataFrame) -> DataFrame:
        return df.localCheckpoint(eager=False)
