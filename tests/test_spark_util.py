"""Iterative-dataflow helpers and session setup."""
import os

from repro import spark_util as su


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
