#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload cli,ensemble,oracle,schedule --pairs 10

Runs the benchmark of BENCHMARK.json (``perfbench/run.py``, untraced)
in the checkouts PARENT and CHANGE, one run at a time for
``run_seconds`` each, for each workload of the comma-separated list in
turn.  Pair k runs both at seed k, PARENT first in even pairs and CHANGE
first in odd ones, so a drift of the host's speed falls on both sides
alike.  It prints each run as it ends, then for every workload and
end-to-end metric the median and the quartiles (q1-q3) of each side,
the ratio CHANGE/PARENT of the medians, the distance between the
quartiles of PARENT's runs (its IQR), the number of pairs in which
CHANGE was better (by the metric's ``better`` direction), whether a gain
is shown, and whether CHANGE's median is worse than PARENT's by more
than the metric's ``bound`` (a fraction of PARENT's median).  A gain is
shown (``yes``) when CHANGE wins at least nine tenths of the pairs, ties
counting for neither, and its median is better than PARENT's by more
than PARENT's IQR.  Worse past bound reads ``YES``, ``no``, or
``unresolved`` where it is not worse past its bound but PARENT's IQR is
wider than that bound, unless every CHANGE run beats every PARENT run.
Below that it prints the slowest ops, from
each run's ``details.op_ms`` (the line before the result): for each rank
r from the slowest op down to the one that sets ``op_tail_ms``, the median
over each side's runs of its r-th slowest op, the median of CHANGE's time
for the op that was PARENT's r-th slowest in the same pair, and that op's
index at seed 0.  It exits 1 if any run is not ``correct`` or has failed
ops, or if any median is worse past its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def run(checkout: Path, spec: dict, workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """One benchmark run, traced when `trace` is 1: its details line and its result line."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def worse_past_bound(metric: dict, parent: float, change: float) -> bool:
    """CHANGE's median is worse than PARENT's by more than the metric's bound."""
    if metric["better"] == "higher":
        return change < parent * (1 - metric["bound"])
    return change > parent * (1 + metric["bound"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 of one side's runs (all three the run itself for one run)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def compare(sides: dict, spec: dict, workload: str, pairs: int) -> bool:
    """Run `pairs` alternating pairs of one workload and print its table;
    returns whether every run was clean and no median is worse past its bound."""
    metrics = spec["end_to_end"]
    results = {side: [] for side in sides}
    op_ms = {side: [] for side in sides}
    clean = True
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            details, result = run(sides[side], spec, workload, k)
            results[side].append({name: v["value"] for name, v in result["metrics"].items()})
            op_ms[side].append(details["op_ms"])
            clean &= result["correct"] and result["failed"] == 0
            shown = " ".join(f"{m['name']}={results[side][-1][m['name']]:.4g}" for m in metrics)
            print(f"{workload} pair {k} {side}: correct={result['correct']} failed={result['failed']} {shown}",
                  flush=True)
    print(f"\n{workload}: {pairs} pairs, seeds 0-{pairs - 1}, {spec['run_seconds']} s per run")
    print(f"{'metric':<12} {'parent':>10} {'parent q1-q3':>21} {'change':>10} {'change q1-q3':>21}"
          f" {'change/parent':>13} {'parent IQR':>10}  change won  gain shown  worse past bound")
    within = True
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [r[name] for r in results["parent"]]
        change = [r[name] for r in results["change"]]
        won = sum(sign * (c - q) > 0 for q, c in zip(parent, change))
        (q1, p50, q3), (c1, c50, c3) = quartiles(parent), quartiles(change)
        gain = 10 * won >= 9 * pairs and sign * (c50 - p50) > q3 - q1
        worse = worse_past_bound(m, p50, c50)
        within &= not worse
        # a spread wider than the bound cannot show a move within it
        unresolved = q3 - q1 > m["bound"] * p50 and not all(
            sign * (c - q) > 0 for q in parent for c in change
        )
        verdict = "YES" if worse else "unresolved" if unresolved else "no"
        ratio = f"{c50 / p50:.4f}" if p50 else "-"
        print(f"{name:<12} {p50:>10.4g} {f'{q1:.4g}-{q3:.4g}':>21} {c50:>10.4g} {f'{c1:.4g}-{c3:.4g}':>21}"
              f" {ratio:>13} {q3 - q1:>10.4g}  {f'{won}/{pairs}':>10}  {'yes' if gain else 'no':>10}"
              f"  {verdict} (bound {m['bound']:.0%})", flush=True)
    print_slowest_ops(op_ms, details["op_tail"])
    print()
    return clean and within


def print_slowest_ops(op_ms: dict, op_tail: dict) -> None:
    """The slowest ops of each side, down to the one that sets op_tail_ms
    (`op_tail` is a run's details entry: its percentile and sample count)."""
    ranks = op_tail["samples"] - round(op_tail["percentile"] * op_tail["samples"] / 100) + 1
    # per pair, the op indices of PARENT's run from its slowest op down
    parent_order = [sorted(range(len(ms)), key=ms.__getitem__, reverse=True) for ms in op_ms["parent"]]
    print(f"\nslowest ops (ms; rank {ranks} sets op_tail_ms)")
    print(f"{'rank':<6} {'parent':>10} {'change':>10} {'change on parent op':>20}  parent op at seed 0")
    for r in range(ranks):
        own = {side: statistics.median(sorted(ms, reverse=True)[r] for ms in runs) for side, runs in op_ms.items()}
        same_op = statistics.median(ms[order[r]] for ms, order in zip(op_ms["change"], parent_order))
        print(f"{r + 1:<6} {own['parent']:>10.4g} {own['change']:>10.4g} {same_op:>20.4g}  {parent_order[0][r]}",
              flush=True)


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
