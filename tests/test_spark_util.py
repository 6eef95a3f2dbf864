"""Iterative-dataflow helpers and session setup."""
import ast
import os
import subprocess
import sys
from pathlib import Path

from repro import spark_util as su
from repro.baselines import bruteforce as bf
from repro.graphs.generators import FIG1_IDS, figure1_graph
from repro.graphs.model import adjacency

# A ``python jobs/…``-style script: repro is importable in the driver only
# because the script extends its own sys.path.
SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.bench_harness import make_session
from repro.core.eve import eve_spg_batch
from repro.graphs.generators import figure1_graph, to_spark
from repro.spark_util import load_graph
spark = make_session("no-pythonpath", 1)
graph = load_graph(spark, to_spark(spark, figure1_graph()))
res = eve_spg_batch(spark, graph, [({s}, {t})] * 2, 6)
print([sorted(r.spg) for r in res])
spark.stop()
"""


def test_dfpin_truncates_lineage(spark):
    import pandas as pd

    df = spark.createDataFrame(pd.DataFrame({"a": range(10)}))
    pin = su.DFPin()
    for _ in range(5):
        df = pin(df.selectExpr("a + 1 AS a"))
    # lineage is cut each round: the analyzed plan stays shallow
    plan = df._jdf.queryExecution().analyzed().toString()
    assert plan.count("Project") <= 2
    assert df.agg({"a": "sum"}).collect()[0][0] == sum(range(10)) + 50


def test_ensure_session_env_idempotent():
    before = os.environ.get("PYSPARK_SUBMIT_ARGS")
    su.ensure_session_env()
    mid = os.environ.get("PYSPARK_SUBMIT_ARGS")
    su.ensure_session_env()
    assert os.environ.get("PYSPARK_SUBMIT_ARGS") == mid
    assert "spark.local.dir" in mid
    if before is not None:
        os.environ["PYSPARK_SUBMIT_ARGS"] = before


def test_ensure_session_env_adds_each_missing_conf(monkeypatch):
    """A caller's own ``spark.local.dir`` does not stop the workers' path."""
    monkeypatch.setenv(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[2] --conf spark.local.dir=/tmp/x pyspark-shell",
    )
    su.ensure_session_env()
    args = os.environ["PYSPARK_SUBMIT_ARGS"]
    src = Path(su.__file__).resolve().parents[1]
    assert f"spark.executorEnv.PYTHONPATH={src}" in args
    assert "spark.ui.showConsoleProgress=false" in args
    assert args.count("spark.local.dir") == 1
    assert args.endswith(" pyspark-shell")


def test_python_workers_import_repro_without_pythonpath(tmp_path):
    """``eve_spg_batch`` answers in a fresh session whose Python workers get
    no ``PYTHONPATH`` from the environment. The batch has two queries, as a
    one-query batch runs on the driver and would start no Python worker."""
    s, t = FIG1_IDS["s"], FIG1_IDS["t"]
    want = bf.spg_edges(adjacency(figure1_graph()), s, t, 6)
    src = Path(su.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    env.update(SPARK_MASTER="local[1]", SPARK_DRIVER_MEM="1g")
    env.setdefault("PYSPARK_PYTHON", sys.executable)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=str(src), s=s, t=t)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert ast.literal_eval(proc.stdout.strip().splitlines()[-1]) == [sorted(want)] * 2
