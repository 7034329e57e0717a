#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload cli,ensemble,oracle,schedule --pairs 10

Runs the benchmark of BENCHMARK.json (``perfbench/run.py``, untraced)
in the checkouts PARENT and CHANGE, one run at a time for
``run_seconds`` each, for each workload of the comma-separated list in
turn.  Pair k runs both at seed k, PARENT first in even pairs and CHANGE
first in odd ones, so a drift of the host's speed falls on both sides
alike.  It prints each run as it ends, then for every workload and
end-to-end metric the median of each side, the distance between the
quartiles of PARENT's runs, the number of pairs in which CHANGE was
better (by the metric's ``better`` direction), and whether CHANGE's
median is worse than PARENT's by more than the metric's ``bound`` (a
fraction of PARENT's median).  It exits 1 if any run is not ``correct``
or has failed ops, or if any median is worse past its bound.
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


def worse_past_bound(metric: dict, parent: float, change: float) -> bool:
    """CHANGE's median is worse than PARENT's by more than the metric's bound."""
    if metric["better"] == "higher":
        return change < parent * (1 - metric["bound"])
    return change > parent * (1 + metric["bound"])


def compare(sides: dict, spec: dict, workload: str, pairs: int) -> bool:
    """Run `pairs` alternating pairs of one workload and print its table;
    returns whether every run was clean and no median is worse past its bound."""
    metrics = spec["end_to_end"]
    results = {side: [] for side in sides}
    clean = True
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(sides[side], spec, workload, k)
            results[side].append({name: v["value"] for name, v in result["metrics"].items()})
            clean &= result["correct"] and result["failed"] == 0
            shown = " ".join(f"{m['name']}={results[side][-1][m['name']]:.4g}" for m in metrics)
            print(f"{workload} pair {k} {side}: correct={result['correct']} failed={result['failed']} {shown}",
                  flush=True)
    print(f"\n{workload}: {pairs} pairs, seeds 0-{pairs - 1}, {spec['run_seconds']} s per run")
    print(f"{'metric':<12} {'parent':>12} {'change':>12} {'parent IQR':>12}  change won  worse past bound")
    within = True
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [r[name] for r in results["parent"]]
        change = [r[name] for r in results["change"]]
        won = sum(sign * (c - q) > 0 for q, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        p50, c50 = statistics.median(parent), statistics.median(change)
        worse = worse_past_bound(m, p50, c50)
        within &= not worse
        print(f"{name:<12} {p50:>12.4g} {c50:>12.4g} {q3 - q1:>12.4g}  {f'{won}/{pairs}':>10}"
              f"  {'YES' if worse else 'no'} (bound {m['bound']:.0%})", flush=True)
    print()
    return clean and within


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        p.error(f"unknown workload {', '.join(unknown)}; expected some of {', '.join(known)}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ok = [compare(sides, spec, workload, args.pairs) for workload in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
