"""Per-layer tracing of one ``eve_spg_batch`` call, from outside the program.

:class:`LayerTrace` swaps the functions ``repro.core.eve`` calls into each
layer for thin wrappers while one batch runs, then puts the originals back.
Each wrapper stamps the time and sets a Spark job group named after its
layer, so every job started until the next layer is entered is charged to
it. With ``time_phases=True`` each phase is forced to materialise straight
after its call returns, which is what makes this attribution exact. After the
batch, :meth:`LayerTrace.metrics` reads jobs, stages and tasks per group from
Spark's status store and counts rows of the DataFrames the wrappers kept,
under a separate job group that the layer totals leave out.

Layers (metric prefix → function wrapped in ``repro.core.eve``):

- ``bfs`` → ``batch_distance_maps``
- ``propagate`` → ``propagate`` (forward and backward calls)
- ``labeling`` → ``label_edges`` (its span includes the label collect)
- ``verify`` → ``batch_verify`` (not called for k ≤ 4)
- ``engine`` → ``DFPin`` (localCheckpoint calls) plus whole-batch totals
"""
from __future__ import annotations

import pickle
import time
from collections import defaultdict
from contextlib import contextmanager

from pyspark.sql import functions as F

import repro.core.eve as eve

#: metric prefix → attribute of ``repro.core.eve`` that is wrapped
LAYERS = {
    "bfs": "batch_distance_maps",
    "propagate": "propagate",
    "labeling": "label_edges",
    "verify": "batch_verify",
}
#: deepest BFS level / propagation layer reported (largest k benchmarked)
MAX_K = 6


class LayerTrace:
    """Spans, job groups and kept outputs of one traced batch."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.prefix = f"perfbench-{id(self)}"
        self.spans: list[tuple[str, float]] = []  # (layer, start), in order
        self.end = 0.0
        self.pins = 0
        self.calls: dict[str, list[tuple[tuple, object]]] = defaultdict(list)

    def _group(self, layer: str) -> str:
        return f"{self.prefix}-{layer}"

    def _enter(self, layer: str) -> None:
        if not self.spans or self.spans[-1][0] != layer:
            self.sc.setJobGroup(self._group(layer), f"perfbench {layer}")
            self.spans.append((layer, time.perf_counter()))

    def _wrap(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            self._enter(layer)
            out = fn(*args, **kwargs)
            self.calls[layer].append((args, out))
            return out

        return wrapper

    def _counting_pin(self, pin_cls):
        trace = self

        class CountingPin(pin_cls):
            def __call__(self, df):
                trace.pins += 1
                return super().__call__(df)

        return CountingPin

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of one batch."""
        originals = {a: getattr(eve, a) for a in (*LAYERS.values(), "DFPin")}
        for layer, attr in LAYERS.items():
            setattr(eve, attr, self._wrap(layer, originals[attr]))
        eve.DFPin = self._counting_pin(originals["DFPin"])
        self._enter("other")
        try:
            yield
        finally:
            self.end = time.perf_counter()
            for attr, fn in originals.items():
                setattr(eve, attr, fn)
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    def _wall(self) -> dict[str, float]:
        wall: dict[str, float] = defaultdict(float)
        bounds = [start for _, start in self.spans[1:]] + [self.end]
        for (layer, start), stop in zip(self.spans, bounds):
            wall[layer] += stop - start
        return wall

    def _engine_counts(self, layer: str) -> dict[str, int]:
        """Jobs, stages run (skipped ones excluded) and tasks of one group."""
        store = self.sc._jsc.sc().statusStore()
        out = dict(jobs=0, stages=0, tasks=0, failed_tasks=0)
        for jid in self.sc.statusTracker().getJobIdsForGroup(self._group(layer)):
            job = store.job(jid)
            out["jobs"] += 1
            out["stages"] += job.numCompletedStages() + job.numFailedStages()
            out["tasks"] += (
                job.numCompletedTasks() + job.numFailedTasks() + job.numKilledTasks()
            )
            out["failed_tasks"] += job.numFailedTasks()
        return out

    def metrics(self, results, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced batch whose answers are ``results``."""
        # Status updates arrive through the listener bus; drain it first.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        wall = self._wall()
        m: dict[str, float] = {}
        engine = dict(jobs=0, stages=0, tasks=0, failed_tasks=0)
        for layer in ("other", *LAYERS):
            counts = self._engine_counts(layer)
            for key, value in counts.items():
                engine[key] += value
            if layer != "other":
                m[f"{layer}.wall_s"] = wall.get(layer, 0.0)
                for key in ("jobs", "stages", "tasks"):
                    m[f"{layer}.{key}"] = counts[key]
        m.update({f"engine.{key}": value for key, value in engine.items()})
        m["engine.pins"] = self.pins
        m["engine.wall_s"] = wall_s

        # Row counts run as extra jobs, outside every layer's group.
        self.sc.setJobGroup(self._group("count"), "perfbench row counts")
        try:
            m.update(self._bfs_rows())
            m.update(self._propagate_rows())
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        m.update(self._labeling_counts(results))
        m.update(self._verify_counts(m["verify.jobs"]))
        return m

    def _bfs_rows(self) -> dict[str, float]:
        m: dict[str, float] = {"bfs.dist_rows": 0}
        levels = {f"{side}{d}": 0 for side in "fb" for d in range(1, MAX_K + 1)}
        for _, (dist_s, dist_t) in self.calls["bfs"]:
            for side, df in (("f", dist_s), ("b", dist_t)):
                for row in df.groupBy("dist").count().collect():
                    m["bfs.dist_rows"] += row["count"]
                    if row["dist"] >= 1:
                        levels[f"{side}{row['dist']}"] += row["count"]
        m.update({f"bfs.frontier_rows.{key}": n for key, n in levels.items()})
        return m

    def _propagate_rows(self) -> dict[str, float]:
        m: dict[str, float] = {"propagate.ev_rows": 0, "propagate.ev_elems": 0}
        m.update({f"propagate.ev_rows.l{layer}": 0 for layer in range(MAX_K)})
        for _, ev in self.calls["propagate"]:
            per_layer = ev.groupBy("l").agg(
                F.count("*").alias("rows"), F.sum(F.size("ev")).alias("elems")
            )
            for row in per_layer.collect():
                m["propagate.ev_rows"] += row["rows"]
                m["propagate.ev_elems"] += row["elems"]
                m[f"propagate.ev_rows.l{row['l']}"] += row["rows"]
        return m

    @staticmethod
    def _labeling_counts(results) -> dict[str, float]:
        upper = sum(len(r.upper) for r in results)
        spg = sum(len(r.spg) for r in results)
        return {
            "labeling.upper_rows": upper,
            "labeling.undetermined": sum(len(r.undetermined) for r in results),
            # r_D over the batch, base: SPG edges (0 when every SPG is empty)
            "labeling.r_D": (upper - spg) / spg if spg else 0.0,
        }

    def _verify_counts(self, verify_jobs: int) -> dict[str, float]:
        undetermined_in = confirmed = input_bytes = 0
        for args, out in self.calls["verify"]:
            per_query = args[1]
            undetermined_in += sum(len(und) for _, und, _, _ in per_query.values())
            confirmed += sum(len(edges) for edges in out.values())
            input_bytes += len(pickle.dumps(per_query))
        return {
            "verify.undetermined_in": undetermined_in,
            "verify.confirmed": confirmed,
            # base: undetermined edges handed to verification
            "verify.confirm_ratio": confirmed / undetermined_in if undetermined_in else 0.0,
            # the driver-side kernel runs no Spark job; the mapInPandas path does
            "verify.distributed": int(verify_jobs > 0),
            "verify.input_bytes": input_bytes,
        }
