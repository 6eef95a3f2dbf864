"""The ``jobs/`` table drivers run end to end from a plain ``python`` call.

Each job asserts its own answers while it runs: Table 4 that PathEnum
counts the same paths on G^k_st and SPG_k as on G, Table 5 that JOIN and
PathEnum on G^k_st give EVE's SPG. So a zero exit status gates every
contender's runner, on one small cell each."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "job, args",
    [
        ("table4_enum_speedups.py", ["--datasets", "tw", "--k", "4", "--queries", "2"]),
        ("table5_spg_via_gkst.py", ["--datasets", "tw", "--queries", "2"]),
    ],
    ids=["table4", "table5"],
)
def test_job_runs(tmp_path, job, args):
    """Launched as ``test_spark_util`` launches its script: a fresh session,
    no ``PYTHONPATH``, one local core."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    env.update(SPARK_MASTER="local[1]", SPARK_DRIVER_MEM="1g")
    env.setdefault("PYSPARK_PYTHON", sys.executable)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / job), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "| tw |" in proc.stdout


def test_table5_rejects_several_k():
    """Table 5 runs one k, so a second ``--k`` value is an error, not dropped."""
    job = ROOT / "jobs" / "table5_spg_via_gkst.py"
    proc = subprocess.run([sys.executable, str(job), "--k", "5", "6"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "one k" in proc.stderr
