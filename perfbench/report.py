#!/usr/bin/env python3
"""Run workloads over several seeds and print every metric by name and unit.

    python3 perfbench/report.py --seeds 0 1 2 --trace 0

Every workload of BENCHMARK.json runs at every seed, each run one run.py
child process, one at a time.  For every metric the table gives the
median over the seeds, the quartiles (``statistics.quantiles(values,
n=4)``), the spread (Q3 - Q1) / median and, for end-to-end metrics, the
bound from BENCHMARK.json.  fail_share and the percentile behind
op_tail_ms come from each run's details line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, seconds, args.trace))
            details, result = results[-1]
            tail = details.get("op_tail")
            print(
                f"# {workload} seed={seed} correct={result['correct']} "
                f"fail_share={details['fail_share']:.4f} attempted={result['attempted']}"
                + (f" op_tail=p{tail['percentile']:.1f} of {tail['samples']}" if tail else ""),
                flush=True,
            )
        print(f"{'workload':9} {'metric':36} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}")
        for name, metric in results[0][1]["metrics"].items():
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for _, r in results])
            bound = f"{bounds[name]:6.2f}" if name in bounds else ""
            print(f"{workload:9} {name:36} {metric['unit']:6} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {bound}")
        med_fail = statistics.median(d["fail_share"] for d, _ in results)
        print(f"{workload:9} {'fail_share':36} {'ratio':6} {med_fail:12.6g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
