"""Self-test of the benchmark: its output matches BENCHMARK.json and repeats.

Run from the root of a checkout::

    python3 perfbench/selftest.py [--workload interactive-k4]

Makes one untraced and two traced runs of the workload with seed 0 and
``--seconds 5``. Checks that every run answered every query correctly, that
the untraced run reports exactly the ``end_to_end`` metrics of BENCHMARK.json
and the traced runs exactly its ``per_layer`` metrics, and that the two traced
runs report identical counts (every per-layer metric whose unit is not
``s``). Exits 1 and lists what differs otherwise.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED, SECONDS = 0, 5
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="interactive-k4")
    workload = p.parse_args().workload

    untraced, first, second = run(workload, 0), run(workload, 1), run(workload, 1)
    problems = []
    for name, result in (("untraced", untraced), ("traced 1", first), ("traced 2", second)):
        if not result["correct"]:
            problems.append(f"{name} run: {result['failed']} failed queries")
    for result, key in ((untraced, "end_to_end"), (first, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != expected:
            problems.append(f"{key} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(expected.items()))}")
    for name, metric in first["metrics"].items():
        again = second["metrics"].get(name, {}).get("value")
        if metric["unit"] != "s" and metric["value"] != again:
            problems.append(f"{name}: {metric['value']} then {again}")

    for line in problems:
        print(line)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
