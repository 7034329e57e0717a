#!/usr/bin/env python3
"""Benchmark one commit and save every run as BENCH_<short-sha>.json.

    python3 tools/collect_bench.py [CHECKOUT]

Runs the benchmark of BENCHMARK.json (``perfbench/run.py``) in CHECKOUT,
a clean git checkout (default: the repository this script is in), for
every workload at seeds 0, 1 and 2, untraced (``--trace 0``) and traced
(``--trace 1``), one run at a time for ``run_seconds`` each.  The two
JSON lines of each run (details, then result) go into
``BENCH_<short sha of CHECKOUT's HEAD>.json`` at the root of the
repository this script is in, so the figures of several commits can be
collected side by side.  The file also records ``src_lines``, the line
count of CHECKOUT's ``src/swstab/*.py`` (the total of ``wc -l``), and
the wall time ``tier1_s`` and pytest's summary line ``tier1_summary`` of
one Tier-1 run in CHECKOUT,
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ab_pairs import run

HERE = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
TRACES = (0, 1)


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def tier1(checkout: Path) -> tuple[float, str]:
    """Wall time in seconds and pytest's summary line of one Tier-1 run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=1800)
    return time.perf_counter() - start, proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = Path(argv[0]).resolve() if argv else HERE
    if git(checkout, "status", "--porcelain", "--untracked-files=no"):
        sys.exit(f"collect_bench: {checkout} has uncommitted changes; its HEAD would not name it")
    sha = git(checkout, "rev-parse", "--short", "HEAD")
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in TRACES:
                details, result = run(checkout, spec, workload, seed, trace)
                runs.append({"details": details, "result": result})
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']}", flush=True)
    src_lines = sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "swstab").glob("*.py"))
    tier1_s, tier1_summary = tier1(checkout)
    print(f"tier-1: {tier1_summary} ({tier1_s:.1f} s wall)", flush=True)
    out = HERE / f"BENCH_{sha}.json"
    out.write_text(json.dumps({
        "commit": sha, "src_lines": src_lines, "tier1_s": round(tier1_s, 2), "tier1_summary": tier1_summary,
        "runs": runs,
    }, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
