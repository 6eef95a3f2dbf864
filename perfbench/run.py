"""EVE query benchmark: seeded query batches through ``eve_spg_batch``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload interactive-k4 --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 5 --trace 1

One client in one driver process sends batches in a closed loop (the next
batch only after the previous one returns) to a Spark master pinned to
``local[4]``. Each batch goes through the public entry point
``repro.core.eve.eve_spg_batch`` with its default options, from the cached
edge DataFrame to per-query SPG sets on the driver. Every answer is compared
with ``repro.core.reference.reference_eve`` outside the timed region, and
the first timed query also with :func:`spg_by_enumeration`, which shares no
code with the program.

Set-up starts the session, generates the workload's stand-in graph at bench
scale, caches its edge DataFrame and sends ``WARMUP_BATCHES`` untimed warm-up
batch (query batch 0). Then batches 1, 2, … run until their summed
wall time reaches ``--seconds`` (at least one).

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``batch_p50_s``
(median wall time of the timed batches), ``queries_per_s`` (queries answered
over summed batch wall time) and ``driver_py_rss_mb`` (peak RSS of this
Python process up to the end of the timed batches; the JVM is left out).

``--trace 1`` prints the per-layer metrics of :mod:`layers`: after the same
untraced batches, the first timed query batch runs twice more: untraced,
then with the layer wrappers on and ``time_phases=True``. ``trace.overhead_s``
is the second wall time minus the first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any query's SPG differs from the reference or its batch raised.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 4
# The first batch of a session takes about twice as long as the next. Later
# batches keep getting faster by 0-15% each for five or more batches; a
# warm-up that long does not fit the run budget, so one warm-up batch it is.
WARMUP_BATCHES = 1


@dataclass(frozen=True)
class Spec:
    dataset: str  # repro.graphs.datasets stand-in, at bench scale
    k: int
    queries_per_batch: int


WORKLOADS = {
    # single-query latency; verification skipped (k ≤ 4, Theorem 4.8)
    "interactive-k4": Spec("ye", 4, 1),
    # many small queries in one dataflow; distributed verification path
    "batch-sparse-k6": Spec("tw", 6, 16),
}


def metric_units() -> dict[str, str]:
    """Metric name → unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def isolate_environment(work: Path) -> None:
    """Keep Spark, the JVMs and Python workers writing inside ``work``.

    Shuffle and block files go to ``work/spark-local`` in the checkout, not
    to tmpfs as in ``spark_util.ensure_session_env``: the benchmark writes
    only inside its checkout. ``SPARK_LOCAL_DIRS`` and ``SPARK_EXECUTOR_DIRS``
    would override ``spark.local.dir``, so they are dropped and the location
    does not depend on the caller's shell.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    for var in ("SPARK_LOCAL_DIRS", "SPARK_EXECUTOR_DIRS"):
        os.environ.pop(var, None)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {MASTER}",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={work / 'spark-local'}",
        # Python workers import repro for distributed verification.
        f"--conf spark.executorEnv.PYTHONPATH={SRC}",
        "pyspark-shell",
    ])


def spg_by_enumeration(adj: dict, s: int, t: int, k: int) -> set:
    """E(SPG_k(s, t)) by Definition 2.1: the edges of every simple s-t path
    of at most k hops, found by depth-first enumeration.

    A branch stops when its hops left are fewer than its BFS distance to t,
    which no simple path can beat. ``repro.baselines.bruteforce.spg_edges``
    enumerates without that cut: on 20 ``tw`` queries at k=6 it took 0-47 s
    per query, this 0-7 s.
    """
    radj: dict[int, list[int]] = {}
    for u, vs in adj.items():
        for v in vs:
            radj.setdefault(v, []).append(u)
    to_t, queue = {t: 0}, deque([t])
    while queue:
        v = queue.popleft()
        for u in radj.get(v, ()):
            if u not in to_t:
                to_t[u] = to_t[v] + 1
                queue.append(u)
    edges, path = set(), [s]

    def extend(u: int, hops_left: int) -> None:
        if u == t:
            edges.update(zip(path, path[1:]))
            return
        for v in adj.get(u, ()):
            if v not in path and to_t.get(v, k + 1) < hops_left:
                path.append(v)
                extend(v, hops_left - 1)
                path.pop()

    if s != t:
        extend(s, k)
    return edges


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


class Bench:
    """One session, one graph, and the batches sent to it."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec, self.seed = spec, seed
        self.spark = None
        self.checks: list[tuple[list, list | None]] = []  # (queries, results)

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro.bench_harness import make_session, make_workload

        # The session and cached edge table of the jobs/ entry points; the
        # workload's own queries are query batch 0, the first warm-up batch.
        self.spark = make_session("perfbench", SHUFFLE_PARTITIONS)
        self.workload = make_workload(
            self.spark, self.spec.dataset, self.spec.k, scale="bench",
            n_queries=self.spec.queries_per_batch, seed=self.batch_seed(0),
        )
        for i in range(WARMUP_BATCHES):
            self.run_batch(self.queries(i))
        self.setup_s = time.perf_counter() - t0

    def batch_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def queries(self, i: int):
        """Query batch ``i`` of the workload seed (the same on every run)."""
        from repro.graphs.queries import random_queries

        return random_queries(
            self.workload.edges_pdf, self.spec.k, self.spec.queries_per_batch,
            seed=self.batch_seed(i),
        )

    def run_batch(self, queries, **options) -> tuple[float, list | None]:
        """Wall time and answers of one batch (``None`` if it raised)."""
        from repro.bench_harness import run_eve

        t0 = time.perf_counter()
        try:
            results, wall = run_eve(
                self.spark, replace(self.workload, queries=queries), **options
            )
        except Exception:  # a raised batch counts as failed queries
            traceback.print_exc()
            results, wall = None, time.perf_counter() - t0
        self.checks.append((queries, results))
        return wall, results

    def run_for(self, seconds: float) -> tuple[list[float], int]:
        """Timed batches until their summed wall time reaches ``seconds``.

        Returns the batch wall times and the number of queries answered.
        """
        walls, answered = [], 0
        while not walls or sum(walls) < seconds:
            queries = self.queries(WARMUP_BATCHES + len(walls))
            wall, results = self.run_batch(queries)
            walls.append(wall)
            answered += len(queries) if results is not None else 0
        return walls, answered

    def check(self) -> tuple[int, int]:
        """(attempted, failed) queries over every batch sent so far.

        A query fails if its batch raised or its SPG differs from
        ``reference_eve``. The first timed query also fails if its SPG
        differs from :func:`spg_by_enumeration`: ``reference_eve`` shares
        its verification kernel with the engine, this check does not.
        """
        from repro.core.reference import reference_eve
        from repro.graphs.model import adjacency

        adj = adjacency(self.workload.edges_pdf)
        k = self.spec.k
        attempted = failed = 0
        for i, (queries, results) in enumerate(self.checks):
            attempted += len(queries)
            if results is None:
                failed += len(queries)
                continue
            for j, ((s, t), res) in enumerate(zip(queries, results)):
                wrong = reference_eve(adj, s, t, k)[0] != res.spg
                if i == WARMUP_BATCHES and j == 0:
                    wrong = wrong or spg_by_enumeration(adj, s, t, k) != res.spg
                failed += wrong
        return attempted, failed

    def environment(self) -> dict:
        sc = self.spark.sparkContext
        return {
            "master": sc.master,
            "driver_memory": sc.getConf().get("spark.driver.memory"),
            "shuffle_partitions": self.spark.conf.get("spark.sql.shuffle.partitions"),
            "aqe": self.spark.conf.get("spark.sql.adaptive.enabled"),
            "spark": self.spark.version,
            "java": sc._jvm.System.getProperty("java.version"),
            "python": platform.python_version(),
            "commit": git_commit(),
            "local_dirs": [
                os.path.relpath(d, ROOT) for d in
                sc._jvm.org.apache.spark.util.Utils.getConfiguredLocalDirs(sc._jsc.sc().conf())
            ],
        }

    def close(self) -> None:
        """Stop the session and wait for the JVM to exit."""
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        if self.spark is not None:
            self.spark.stop()
        if gateway is None:
            return
        gateway.shutdown()
        proc = gateway.proc
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[float]]:
    walls, answered = bench.run_for(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": bench.setup_s,
        "batch_p50_s": statistics.median(walls),
        "queries_per_s": answered / sum(walls),
        "driver_py_rss_mb": rss_mb,
    }
    return metrics, walls


def measure_per_layer(bench: Bench, seconds: float) -> tuple[dict, list[float]]:
    from layers import LayerTrace

    walls, _ = bench.run_for(seconds)
    # Batches keep getting faster for several batches after the warm-up, so
    # the overhead is taken against the same queries run just before, not
    # against the earlier timed batches.
    queries = bench.queries(WARMUP_BATCHES)
    untraced_wall, _ = bench.run_batch(queries)
    trace = LayerTrace(bench.spark)
    with trace.installed():
        wall, results = bench.run_batch(queries, time_phases=True)
    if results is None:
        raise RuntimeError("traced batch raised")
    metrics = trace.metrics(results, wall)
    metrics["trace.overhead_s"] = wall - untraced_wall
    return metrics, walls


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    isolate_environment(work)
    sys.path.insert(0, str(SRC))
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        bench.setup()
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, walls = measure(bench, args.seconds)
        attempted, failed = bench.check()
        env = bench.environment()
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    unit = metric_units()
    env.update(workload=args.workload, seed=args.seed, trace=args.trace,
               timed_batches=len(walls), timed_batch_s=[round(w, 3) for w in walls])
    print("perfbench env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:32s} {value:14.4f} {unit[name]}")
    print(f"{args.workload:16s} {'failed_frac':32s} {failed / attempted:14.4f} "
          f"({failed}/{attempted} queries)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit[n]} for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; their reports, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
