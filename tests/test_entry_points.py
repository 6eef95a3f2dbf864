"""The table drivers in ``jobs/`` and the benchmark in ``perfbench/`` import
only what the program still has and call it with arguments its signatures
accept, the program's own imports run one way, and the benchmark's
correctness gate holds on the graph the program hands it; starts no Spark
job."""
import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from unittest import mock

import repro.core.eve as eve
from repro.baselines import bruteforce as bf
from repro.core.reference import reference_eve
from repro.graphs.generators import FIG1_IDS, figure1_graph
from repro.graphs.model import adjacency

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ENTRY_POINTS = [
    *sorted((ROOT / "jobs").glob("*.py")),
    ROOT / "perfbench" / "run.py",
    ROOT / "perfbench" / "layers.py",
]


def _load(path: Path):
    """The script at ``path`` as a module, without running its ``main``
    (registered while it runs, as ``dataclass`` needs)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):
        spec.loader.exec_module(module)
    return module


def _repro_imports(path: Path):
    """``(module, name)`` for each ``repro`` import anywhere in the file,
    function bodies included; ``name`` is None for ``import repro.x``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_entry_points_import_existing_names():
    missing, importers = [], set()
    for path in ENTRY_POINTS:
        for module, name in _repro_imports(path):
            importers.add(path.name)
            mod = importlib.import_module(module)
            if name is not None and not (
                hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}")
            ):
                missing.append(f"{path.relative_to(ROOT)}: {module}.{name}")
    assert not missing
    assert importers == {p.name for p in ENTRY_POINTS}

    # perfbench/layers.py swaps these attributes of repro.core.eve while it
    # traces a batch, and perfbench/run.py passes time_phases when tracing.
    layers = _load(ROOT / "perfbench" / "layers.py")
    for attr in (*layers.LAYERS.values(), "DFPin"):
        assert hasattr(eve, attr), attr
    assert "time_phases" in inspect.signature(eve.eve_spg_batch).parameters


def _repro_calls(path: Path):
    """``(line, fn, call)`` for each call in the file of a name imported
    from ``repro``."""
    tree = ast.parse(path.read_text(), str(path))
    names = {}
    for module, name in _repro_imports(path):
        if name is not None:
            names[name] = getattr(importlib.import_module(module), name, None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and callable(
            names.get(node.func.id)
        ):
            yield node.lineno, names[node.func.id], node


def test_jobs_calls_bind_to_current_signatures():
    """A parameter removed from the program fails here, as a removed name
    fails above; for ``perfbench/run.py`` too, whose file no change to the
    program may edit. Calls with ``*`` or ``**`` arguments are not checked."""
    bad, checked = [], {}
    bench = ROOT / "perfbench" / "run.py"
    for path in [*sorted((ROOT / "jobs").glob("*.py")), bench]:
        for line, fn, call in _repro_calls(path):
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords
            ):
                continue
            checked.setdefault(path, set()).add(fn.__name__)
            try:
                inspect.signature(fn).bind(
                    *[None] * len(call.args), **{kw.arg: None for kw in call.keywords}
                )
            except TypeError as e:
                bad.append(f"{path.relative_to(ROOT)}:{line}: {fn.__name__}: {e}")
    assert checked.keys() - {bench}
    assert checked[bench] >= {
        "adjacency", "make_session", "make_workload", "random_queries", "reference_eve"
    }
    assert not bad


def test_benchmark_correctness_gate():
    """The benchmark's only correctness check, run as ``perfbench/run.py``
    runs it on the graph :func:`adjacency` returns: both of its references
    give Definition 2.1's SPG on the Figure-1 graph."""
    run = _load(ROOT / "perfbench" / "run.py")
    adj, s, t = adjacency(figure1_graph()), FIG1_IDS["s"], FIG1_IDS["t"]
    for k in range(4, 8):
        want = bf.spg_edges(adj, s, t, k)
        assert want, k
        assert run.spg_by_enumeration(adj, s, t, k) == want, k
        assert reference_eve(adj, s, t, k)[0] == want, k


def test_program_imports_run_one_way():
    """``repro.graphs`` imports nothing from ``repro.core`` or
    ``repro.baselines``, ``repro.core`` nothing from ``repro.baselines``, and
    no module of the program imports the brute-force test oracle."""
    forbidden = {"graphs": ("repro.core", "repro.baselines"), "core": ("repro.baselines",)}
    bad = []
    for path in sorted(SRC.rglob("*.py")):
        package = path.relative_to(SRC).parts[0]
        banned = ("repro.baselines.bruteforce", *forbidden.get(package, ()))
        for module, name in _repro_imports(path):
            full = module if name is None else f"{module}.{name}"
            if any(full == b or full.startswith(b + ".") for b in banned):
                bad.append(f"{path.relative_to(ROOT)}: {full}")
    assert not bad


def test_worker_daemon_imports_only_the_standard_library_and_pyspark():
    """Spark runs ``python -m repro.worker_daemon`` with its archives first
    on the path: until the module imports ``pyspark.daemon`` it must import
    nothing they could supply, and nothing from ``repro``. Python imports
    ``repro/__init__.py`` first, so that file imports nothing at all."""
    daemon = SRC / "worker_daemon.py"
    imported = set()
    for node in ast.walk(ast.parse(daemon.read_text(), str(daemon))):
        if isinstance(node, ast.Import):
            imported.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module, alias.name) for alias in node.names)
    outside = {(module, name) for module, name in imported
               if module.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {("pyspark", "daemon")}
    assert not list(_repro_imports(daemon))

    init = SRC / "__init__.py"
    assert not [node for node in ast.walk(ast.parse(init.read_text(), str(init)))
                if isinstance(node, (ast.Import, ast.ImportFrom))]
