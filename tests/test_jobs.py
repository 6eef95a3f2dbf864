"""The ``jobs/`` table drivers run end to end from a plain ``python`` call.

Each job asserts its own answers while it runs: Table 4 that PathEnum
counts the same paths on G^k_st and SPG_k as on G, Table 5 that JOIN and
PathEnum on G^k_st give EVE's SPG, Figure 8 that they give it on G. So a
zero exit status gates every contender's runner, on small cells."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "job, args, rows",
    [
        ("table4_enum_speedups.py", ["--datasets", "tw", "--k", "4", "--queries", "2"],
         ["| k=4 |"]),
        ("table5_spg_via_gkst.py", ["--datasets", "tw", "--queries", "2"], ["| EVE total (s) |"]),
        ("figure8_time_comparison.py", ["--datasets", "tw", "--k", "4", "5", "--queries", "2"],
         ["| tw | 4 |", "| tw | 5 |"]),
    ],
    ids=["table4", "table5", "figure8"],
)
def test_job_runs(tmp_path, job, args, rows):
    """Launched as ``test_spark_util`` launches its script: a fresh session,
    no ``PYTHONPATH``, one local core. Figure 8's case runs two k on one
    dataset: one graph load serves both, and its first cell is the warm-up."""
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
    assert all(row in proc.stdout for row in rows)


def test_table5_rejects_several_k():
    """Table 5 runs one k, so a second ``--k`` value is an error, not dropped."""
    job = ROOT / "jobs" / "table5_spg_via_gkst.py"
    proc = subprocess.run([sys.executable, str(job), "--k", "5", "6"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "one k" in proc.stderr
