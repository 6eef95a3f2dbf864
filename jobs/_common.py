"""Shared CLI plumbing for the table-reproduction jobs.

Each job is runnable either as ``python jobs/tableX.py`` or via
``spark-submit jobs/tableX.py``; it creates its own session (the pytest
fixture is not used outside tests), prints a paper-style markdown table,
and optionally appends it to a results file.
"""
from __future__ import annotations

import argparse
import sys
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
