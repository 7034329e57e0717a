#!/usr/bin/env python3
"""Pin the current outcomes of every workload at the default seed.

    python3 perfbench/pin.py

Writes perfbench/reference.json: for each workload the outcome of the
ops in its count window and the probe's outcome.  Run it only on the
commit whose outputs are the reference; every later run at the default
seed is checked against this file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.load_package()
    import workloads as wl
    from tracer import NullTracer, Tracer

    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK))
    pinned = {}
    try:
        for name in run.WORKLOAD_NAMES:
            w = wl.build(name, wl.DEFAULT_SEED, NullTracer(), work, run.ROOT)
            outcomes = []
            for i in range(w.count_window):
                out = w.finish(i, w.run_op(i))
                bad = w.invariants(i, out)
                if bad:
                    sys.exit(f"pin: {name} op{i} breaks an invariant: {bad}")
                outcomes.append(out)
            pinned[name] = outcomes
            print(f"{name}: {len(outcomes)} ops pinned", file=sys.stderr)
        pinned["probe"] = wl.probe(Tracer(), work, run.ROOT)
        bad = wl.check_probe(None, pinned["probe"])
        if bad:
            sys.exit(f"pin: probe breaks an invariant: {bad}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    with open(run.HERE / "reference.json", "w") as f:
        # one op per line keeps diffs of the reference readable
        f.write("{\n")
        for k, (name, value) in enumerate(pinned.items()):
            sep = "," if k < len(pinned) - 1 else ""
            if isinstance(value, list):
                rows = ",\n".join("  " + json.dumps(v) for v in value)
                f.write(f'"{name}": [\n{rows}\n]{sep}\n')
            else:
                f.write(f'"{name}": {json.dumps(value)}{sep}\n')
        f.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
