"""Shared CLI plumbing and cell loop for the table-reproduction jobs.

Each job is runnable either as ``python jobs/tableX.py`` or via
``spark-submit jobs/tableX.py``. A job gives :func:`cells` its datasets, its
k values and how to measure one (dataset, k) cell; ``cells`` runs them in
one session of its own (the pytest fixture is not used outside tests). The
job prints a paper-style markdown table and optionally appends it to a
results file.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

# Allow running straight from a checkout without `pip install -e .`.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def base_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--datasets", nargs="*", default=None,
                   help="dataset short names (default: per-job subset)")
    p.add_argument("--k", nargs="*", type=int, default=None,
                   help="hop constraints (default: per-job)")
    p.add_argument("--queries", type=int, default=8,
                   help="queries per (dataset, k) cell")
    p.add_argument("--scale", choices=["test", "bench"], default="test",
                   help="dataset size tier (see repro.graphs.datasets)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rows", type=int, default=2_000_000,
                   help="paths (grown or joined) one query may make before "
                        "its enumeration reads INF")
    p.add_argument("--out", default=None, help="append markdown to this file")
    return p


def emit(text: str, out: str | None) -> None:
    print(text)
    if out:
        with open(out, "a") as f:
            f.write(text + "\n\n")


def cells(args, app, datasets, ks, measure):
    """``{(name, k): measure(spark, w)}`` over every dataset × k cell, dataset
    by dataset; a cell without ``args.queries`` k-hop-reachable queries maps
    to the ``RuntimeError`` that says so.

    Each dataset's graph is loaded once, for its first k that has its queries;
    its other k reuse it with the batch ``make_workload`` would have drawn.
    The first cell is measured once, untimed, before it counts, so that it is
    not measured on a cold session.
    """
    from repro.bench_harness import make_session, make_workload
    from repro.graphs.queries import random_queries

    spark = make_session(app)
    out, warm = {}, False
    try:
        for name in datasets:
            w = None
            try:
                for k in ks:
                    try:
                        if w is None:
                            w = make_workload(
                                spark, name, k,
                                scale=args.scale, n_queries=args.queries, seed=args.seed,
                            )
                        else:
                            qs = random_queries(w.edges_pdf, k, args.queries, seed=args.seed)
                            w = replace(w, k=k, queries=qs)
                    except RuntimeError as exc:  # not enough reachable queries
                        out[name, k] = exc
                    else:
                        if not warm:
                            measure(spark, w)
                            warm = True
                        out[name, k] = measure(spark, w)
                    print(f"[{app}] {name} k={k}: {out[name, k]}", flush=True)
            finally:
                if w is not None:
                    w.close()
    finally:
        spark.stop()
    return out
