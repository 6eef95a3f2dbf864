"""Spark's Python-worker daemon, run on the installed ``pyspark``.

Spark starts the daemon of its Python workers with its own archives first
on ``PYTHONPATH``: ``pyspark.zip``, the py4j zip and the ``spark-core`` jar.
Every task of a forked worker then calls ``importlib.invalidate_caches()``
(PySpark's ``setup_spark_files``), and on Python 3.11 that makes each zip
importer re-read its archive's directory: 78 ms a task with 16 of them
(Spark 4.1, 4-core VM).

``spark_util.ensure_session_env`` names this module as
``spark.python.daemon.module``. When the interpreter can import ``pyspark``
and ``py4j`` from directories, and that ``pyspark`` is the version the
archives hold, it takes the archives off ``sys.path`` and drops their
importers before it imports ``pyspark.daemon``; the forked workers inherit
that path, so a task's ``invalidate_caches()`` resets only directory
finders. Otherwise the path stays as it is.

Until ``pyspark.daemon`` is imported this module uses only the standard
library: ``python -m repro.worker_daemon`` runs it with the archives still
on the path, after importing ``repro/__init__.py``, which imports nothing.
"""
import os
import re
import sys
import zipfile
from importlib.machinery import PathFinder
from typing import List, Optional

_VERSION = re.compile(r"""^__version__\b[^=]*=\s*['"]([^'"]+)['"]""", re.M)


def _pyspark_version(path: List[str]) -> Optional[str]:
    """The ``__version__`` of the ``pyspark`` that ``path`` would import."""
    spec = PathFinder.find_spec("pyspark", path)
    if spec is None or spec.origin is None:
        return None
    version_py = os.path.join(os.path.dirname(spec.origin), "version.py")
    try:
        match = _VERSION.search(spec.loader.get_data(version_py).decode())
    except OSError:
        return None
    return match and match.group(1)


def _covered(archive: str, dirs: List[str]) -> bool:
    """Whether ``dirs`` can import every top-level module ``archive`` holds
    (a ``spark-core`` jar holds none); False for an unreadable archive."""
    try:
        with zipfile.ZipFile(archive) as z:
            names = {re.sub(r"\.pyc?$", "", n.split("/")[0])
                     for n in z.namelist() if n.endswith((".py", ".pyc"))}
    except (OSError, zipfile.BadZipFile):
        return False
    return all(PathFinder.find_spec(name, dirs) is not None for name in names)


def worker_path(path: List[str]) -> List[str]:
    """``path`` without its ``.zip``/``.jar`` files, when the rest of it
    holds ``py4j`` and the ``pyspark`` version the whole of it would import;
    else ``path`` itself. An archive with a module the rest lacks stays."""
    dirs = [p for p in path if not (p.endswith((".zip", ".jar")) and os.path.isfile(p))]
    version = _pyspark_version(dirs)
    if (
        len(dirs) == len(path)
        or version is None
        or version != _pyspark_version(path)
        or PathFinder.find_spec("py4j", dirs) is None
    ):
        return path
    return [p for p in path if p in dirs or not _covered(p, dirs)]


def main() -> None:
    path = worker_path(sys.path)
    dropped = tuple(p + os.sep for p in sys.path if p not in path)
    sys.path[:] = path
    for entry in list(sys.path_importer_cache):
        if (entry + os.sep).startswith(dropped):
            del sys.path_importer_cache[entry]

    from pyspark import daemon

    daemon.manager()


if __name__ == "__main__":
    main()
