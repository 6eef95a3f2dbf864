"""Iterative-dataflow helpers, session setup and the workers' daemon."""
import ast
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import pyspark
import pytest

from repro import spark_util as su
from repro.baselines import bruteforce as bf
from repro.graphs.generators import FIG1_IDS, figure1_graph
from repro.graphs.model import adjacency
from repro.worker_daemon import worker_path

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


def _long_dir(root: Path) -> Path:
    """An existing directory under ``root`` whose path has 70 characters or
    more: too long for Spark's Unix-socket directory."""
    path = root / ("d" * max(1, 70 - len(str(root))))
    path.mkdir()
    return path


def test_ensure_session_env_adds_each_missing_conf(monkeypatch, tmp_path):
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
    assert "spark.python.daemon.module=repro.worker_daemon" in args
    assert args.count("spark.local.dir") == 1
    assert args.endswith(" pyspark-shell")

    monkeypatch.setenv(
        "PYSPARK_SUBMIT_ARGS",
        "--conf spark.python.daemon.module=pyspark.daemon pyspark-shell",
    )
    su.ensure_session_env()
    args = os.environ["PYSPARK_SUBMIT_ARGS"]
    assert args.count("spark.python.daemon.module") == 1
    assert "spark.python.daemon.module=pyspark.daemon" in args

    # Unix sockets in the temp directory, up to Spark's 61 characters; a
    # caller's own switch wins.
    short = "/" + "x" * 60
    monkeypatch.setattr(tempfile, "tempdir", short)
    monkeypatch.setenv("PYSPARK_SUBMIT_ARGS", "pyspark-shell")
    su.ensure_session_env()
    args = os.environ["PYSPARK_SUBMIT_ARGS"]
    assert "spark.python.unix.domain.socket.enabled=true" in args
    assert f"spark.python.unix.domain.socket.dir={short}" in args

    monkeypatch.setenv(
        "PYSPARK_SUBMIT_ARGS",
        "--conf spark.python.unix.domain.socket.enabled=false pyspark-shell",
    )
    su.ensure_session_env()
    args = os.environ["PYSPARK_SUBMIT_ARGS"]
    assert args.count("spark.python.unix.domain.socket.enabled") == 1
    assert "spark.python.unix.domain.socket.enabled=false" in args

    monkeypatch.setattr(tempfile, "tempdir", short + "x")
    monkeypatch.setenv("PYSPARK_SUBMIT_ARGS", "pyspark-shell")
    su.ensure_session_env()
    assert "unix.domain" not in os.environ["PYSPARK_SUBMIT_ARGS"]

    monkeypatch.setattr(tempfile, "tempdir", None)
    monkeypatch.setenv("TMPDIR", str(_long_dir(tmp_path)))
    monkeypatch.setenv("PYSPARK_SUBMIT_ARGS", "pyspark-shell")
    su.ensure_session_env()
    assert "unix.domain" not in os.environ["PYSPARK_SUBMIT_ARGS"]


def _run_script(cwd: Path, **env_vars: str) -> None:
    """Run ``SCRIPT`` in a fresh ``local[1]`` session with no ``PYTHONPATH``
    and check its two-query ``eve_spg_batch`` against brute force."""
    s, t = FIG1_IDS["s"], FIG1_IDS["t"]
    want = bf.spg_edges(adjacency(figure1_graph()), s, t, 6)
    src = Path(su.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    env.update(SPARK_MASTER="local[1]", SPARK_DRIVER_MEM="1g", **env_vars)
    env.setdefault("PYSPARK_PYTHON", sys.executable)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=str(src), s=s, t=t)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert ast.literal_eval(proc.stdout.strip().splitlines()[-1]) == [sorted(want)] * 2


def test_python_workers_import_repro_without_pythonpath(tmp_path):
    """``eve_spg_batch`` answers in a fresh session whose Python workers get
    no ``PYTHONPATH`` from the environment. The batch has two queries, as a
    one-query batch runs on the driver and would start no Python worker."""
    _run_script(tmp_path)


def test_session_with_a_long_temp_directory_answers_over_tcp(tmp_path):
    """A temp directory too long for Spark's Unix sockets leaves the session
    on TCP: it starts, and its Python workers answer."""
    _run_script(tmp_path, TMPDIR=str(_long_dir(tmp_path)))


@pytest.mark.skipif(
    not os.path.isfile(pyspark.__file__),
    reason="the driver's pyspark is not installed as a directory",
)
def test_python_workers_import_pyspark_from_a_directory(spark):
    """The workers import the installed ``pyspark``, and no zip importer is
    left for a task's ``importlib.invalidate_caches()`` to reset."""

    def probe(adj, item):
        import sys
        import zipimport

        import pyspark

        zips = [entry for entry, finder in sys.path_importer_cache.items()
                if isinstance(finder, zipimport.zipimporter)]
        return pyspark.__file__, zips

    for file, zips in su.map_queries(spark, [0, 1], probe):
        assert os.path.isfile(file), file
        assert zips == []


def _zip(path: Path, files: dict) -> str:
    with zipfile.ZipFile(path, "w") as z:
        for name, text in files.items():
            z.writestr(name, text)
    return str(path)


def _pyspark(version: str) -> dict:
    return {"pyspark/__init__.py": "",
            "pyspark/version.py": f"__version__: str = '{version}'\n"}


PY4J = {"py4j/__init__.py": ""}


@pytest.mark.parametrize(
    "installed, dropped",
    [
        ({}, False),
        (PY4J, False),
        ({**_pyspark("4.1.2"), **PY4J}, True),
        ({**_pyspark("4.1.1"), **PY4J}, False),
        (_pyspark("4.1.2"), False),
    ],
    ids=["no-install", "no-directory-pyspark", "same-version", "other-version", "no-py4j"],
)
def test_worker_path_drops_archives_only_for_the_same_pyspark(tmp_path, installed, dropped):
    """Spark's archives leave the workers' path only when its directories
    hold ``py4j`` and the ``pyspark`` version of Spark's ``pyspark.zip``;
    then an archive holding a module no directory has stays, as does an
    entry that is no file (an interpreter's absent ``python311.zip``)."""
    site = tmp_path / "site"
    site.mkdir()
    for name, text in installed.items():
        (site / name).parent.mkdir(exist_ok=True)
        (site / name).write_text(text)
    archives = [
        _zip(tmp_path / "pyspark.zip", _pyspark("4.1.2")),
        _zip(tmp_path / "py4j-src.zip", PY4J),
        _zip(tmp_path / "spark-core.jar", {"META-INF/MANIFEST.MF": ""}),
    ]
    own = _zip(tmp_path / "own.zip", {"own_module.py": ""})
    path = [*archives, own, str(tmp_path / "absent.zip"), str(site)]
    want = [own, str(tmp_path / "absent.zip"), str(site)] if dropped else path
    assert worker_path(path) == want
