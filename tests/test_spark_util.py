"""Iterative-dataflow helpers and session setup."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import spark_util as su
from repro.core.verify import batch_verify

# A k=6 upper-bound graph (s=0, t=1) whose undetermined edges all verify.
SPGU = [(0, 1), (0, 4), (0, 7), (3, 4), (4, 10), (6, 8), (6, 9), (6, 11), (7, 3),
        (7, 6), (8, 1), (9, 8), (9, 10), (10, 6), (10, 7), (10, 8), (11, 9)]
UNDETERMINED = [(3, 4), (6, 9), (6, 11), (9, 10), (10, 6), (10, 7), (11, 9)]

# A ``python jobs/…``-style script: repro is importable in the driver only
# because the script extends its own sys.path.
SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.bench_harness import make_session
from repro.core.verify import batch_verify
spark = make_session("no-pythonpath", 1)
got = batch_verify(spark, {{0: ({spgu!r}, {und!r}, 0, 1)}}, 6, distributed=True)
print(sorted(got[0]))
spark.stop()
"""


def test_dfpin_truncates_lineage(gspark):
    import pandas as pd

    df = gspark.createDataFrame(pd.DataFrame({"a": range(10)}))
    pin = su.DFPin()
    for _ in range(5):
        df = pin(df.selectExpr("a + 1 AS a"))
    # lineage is cut each round: the analyzed plan stays shallow
    plan = df._jdf.queryExecution().analyzed().toString()
    assert plan.count("Project") <= 2
    assert df.agg({"a": "sum"}).collect()[0][0] == sum(range(10)) + 50
    pin.release()


def test_no_pin_is_identity(gspark):
    import pandas as pd

    df = gspark.createDataFrame(pd.DataFrame({"a": [1]}))
    assert su.no_pin(df) is df


def test_ensure_session_env_idempotent():
    before = os.environ.get("PYSPARK_SUBMIT_ARGS")
    su.ensure_session_env()
    mid = os.environ.get("PYSPARK_SUBMIT_ARGS")
    su.ensure_session_env()
    assert os.environ.get("PYSPARK_SUBMIT_ARGS") == mid
    assert "spark.local.dir" in mid
    if before is not None:
        os.environ["PYSPARK_SUBMIT_ARGS"] = before


def test_python_workers_import_repro_without_pythonpath(gspark, tmp_path):
    """Distributed verification works in a fresh session whose Python workers
    get no ``PYTHONPATH`` from the environment."""
    want = batch_verify(gspark, {0: (SPGU, UNDETERMINED, 0, 1)}, 6, distributed=False)
    assert want[0]
    src = Path(su.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    env.update(SPARK_MASTER="local[1]", SPARK_DRIVER_MEM="1g")
    env.setdefault("PYSPARK_PYTHON", sys.executable)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=str(src), spgu=SPGU, und=UNDETERMINED)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert ast.literal_eval(proc.stdout.strip().splitlines()[-1]) == sorted(want[0])
