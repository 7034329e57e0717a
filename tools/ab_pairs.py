#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload ensemble --pairs 10

Runs the benchmark of BENCHMARK.json (``perfbench/run.py``, untraced)
in the checkouts PARENT and CHANGE, one run at a time for
``run_seconds`` each.  Pair k runs both at seed k, PARENT first in even
pairs and CHANGE first in odd ones, so a drift of the host's speed
falls on both sides alike.  It prints each run as it ends, then for
every end-to-end metric the median of each side, the distance between
the quartiles of PARENT's runs, and the number of pairs in which CHANGE
was better (by the metric's ``better`` direction).  It exits 1 if any
run is not ``correct`` or has failed ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def run(checkout: Path, spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"ab_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {side: [] for side in sides}
    clean = True
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(sides[side], spec, args.workload, k)
            results[side].append({name: v["value"] for name, v in result["metrics"].items()})
            clean &= result["correct"] and result["failed"] == 0
            shown = " ".join(f"{m['name']}={results[side][-1][m['name']]:.4g}" for m in metrics)
            print(f"pair {k} {side}: correct={result['correct']} failed={result['failed']} {shown}", flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs, seeds 0-{args.pairs - 1}, {spec['run_seconds']} s per run")
    print(f"{'metric':<12} {'parent':>12} {'change':>12} {'parent IQR':>12}  change won")
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [r[name] for r in results["parent"]]
        change = [r[name] for r in results["change"]]
        won = sum(sign * (c - q) > 0 for q, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        print(f"{name:<12} {statistics.median(parent):>12.4g} {statistics.median(change):>12.4g}"
              f" {q3 - q1:>12.4g}  {won}/{args.pairs}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
