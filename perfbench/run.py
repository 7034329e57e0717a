#!/usr/bin/env python3
"""swstab benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 18 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics,
with ``--trace 1`` the per-layer ones (see README.md).  The line before
it holds the details: environment, op count, fail share, which
percentile ``op_tail_ms`` is, layer shares and work counts.

One client, closed loop: the next op starts when the previous one has
returned, and at most one child process runs at a time, all on one CPU.
End-to-end times are scaled by the host's speed, measured between ops
with a fixed calibration kernel (see ``Speed`` and README.md).
"""

from __future__ import annotations

import os

# One BLAS thread for this process and every child it starts.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"  # scratch files of running ops; removed at exit

SETUP_REPEATS = 7  # setup_s is the median of this many fresh set-ups
MIN_PASSES = 3  # an untraced run makes at least this many passes over the op cycle
CAL_EVERY_S = 0.05  # the calibration kernel runs after the first op this long after it last ran
CAL_STEPS = 150  # matrix steps of one calibration run
CAL_WALK_STEPS = 3500  # random-walk steps, on workloads that calibrate with a walk
# End-to-end times are scaled to a host on which the matrix part of one
# calibration run takes CAL_REF_S and its walk part CAL_WALK_REF_S: about
# their times in the fast state of a 2-vCPU Intel Xeon VM.
CAL_REF_S = 2.5e-3
CAL_WALK_REF_S = 1.4e-3
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples above
LAYERS = ("instances", "search", "certificate", "graph", "simulate", "oracle", "cli")
WORKLOAD_NAMES = ("ensemble", "oracle", "schedule", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "instances.generate_ms": "ms",
    "instances.count": "count",
    "search.find_ms": "ms",
    "search.find_hit_p50_ms": "ms",
    "search.find_miss_p50_ms": "ms",
    "search.candidates_scanned": "count",
    "search.us_per_candidate": "us",
    "search.hit_share": "ratio",
    "certificate.constants_ms": "ms",
    "certificate.max_rate_ms": "ms",
    "certificate.check_ms": "ms",
    "certificate.feasible_share": "ratio",
    "graph.walk_ms": "ms",
    "graph.walk_us_per_vertex": "us",
    "graph.vertices": "count",
    "graph.validate_ms": "ms",
    "graph.signal_us_per_step": "us",
    "simulate.simulate_us_per_step": "us",
    "simulate.product_norms_us_per_step": "us",
    "simulate.fit_decay_ms": "ms",
    "simulate.verify_ges_ms": "ms",
    "simulate.steps": "count",
    "oracle.envelope_constant_ms": "ms",
    "oracle.exhaustive_check_ms": "ms",
    "oracle.decompose_ms": "ms",
    "oracle.products_admissible": "count",
    "oracle.products_checked": "count",
    "oracle.visit_share": "ratio",
    "oracle.us_per_product": "us",
    "oracle.reach_h": "steps",
    "oracle.cap_fallbacks": "count",
    "cli.import_s": "s",
    "cli.experiment_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.signal_ms": "ms",
    "cli.bytes_written": "bytes",
    "cli.process_overhead_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    **{f"share.{layer}": "%" for layer in LAYERS},
}


def parse_args(argv=None):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_package():
    """Import swstab from this checkout's src/, or stop without a result."""
    if not (SRC / "swstab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'swstab'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import swstab

    if SRC.resolve() not in Path(swstab.__file__).resolve().parents:
        sys.exit(f"perfbench: swstab imported from {swstab.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def tail(times):
    """The highest percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile); with too few samples the maximum stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU; return which.

    The host's CPUs change speed independently of each other, so the
    calibration kernel measures the speed of the CPU the ops run on only
    if both stay on the same one.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_CAL_MATRIX = ((0.6, 0.3), (-0.2, 0.5))


def calibration_kernel(walk: bool) -> float:
    """Fixed work of the kinds swstab does: 2x2 products, spectral norms and
    radii through LAPACK and finiteness checks, and, with ``walk``, a random
    walk drawn with ``random`` and tallied in a dict.  It is the benchmark's
    own code, so no change to swstab moves it."""
    import numpy as np

    a = np.array(_CAL_MATRIX)
    p = np.eye(2)
    acc = 0.0
    for i in range(CAL_STEPS):
        p = a @ p + 0.01
        if np.all(np.isfinite(p)):
            acc += float(np.linalg.svd(p, compute_uv=False)[0])
        if i % 8 == 0:
            acc += float(np.max(np.abs(np.linalg.eigvals(p))))
    if not walk:
        return acc
    rng = random.Random(12345)
    vertices, last = [], 0
    for _ in range(CAL_WALK_STEPS):
        v = rng.randrange(1, 8)
        if v != last:
            vertices.append(v)
            last = v
    seen: dict[int, int] = {}
    for v in vertices:
        seen[v] = seen.get(v, 0) + 1
    return acc + len(seen)


class Speed:
    """The host's speed, sampled by timing the calibration kernel.

    The host's CPUs switch between a fast and a 1.5-2.4x slower state,
    sometimes for seconds, sometimes for minutes; a timing taken between
    two samples is scaled by the kernel's reference time over the mean of
    those two samples.
    """

    def __init__(self, walk: bool):
        self.walk = walk
        self.ref = CAL_REF_S + (CAL_WALK_REF_S if walk else 0.0)
        for _ in range(20):  # warm-up: first LAPACK calls, caches
            calibration_kernel(walk)
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> int:
        """Time one calibration run; return its index."""
        t0 = time.perf_counter()
        calibration_kernel(self.walk)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CAL_EVERY_S

    def factor(self, i: int) -> float:
        """Scale for a timing taken between samples i and i + 1."""
        return self.ref / ((self.samples[i] + self.samples[i + 1]) / 2)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_setups(args, speed) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import swstab and build the
    inputs: as measured, and scaled by the host's speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    wall, scaled = [], []
    i = speed.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=60)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr.decode()}")
        after = speed.sample()
        scaled.append(wall[-1] * speed.factor(i))
        i = after
    return wall, scaled


class Loop:
    """Closed-loop op execution; finishing and checking an op's outcome is not timed."""

    def __init__(self, workload):
        self.w = workload
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def one(self, index: int) -> float:
        elapsed = None
        t0 = time.perf_counter()
        try:
            raw = self.w.run_op(index)
            elapsed = time.perf_counter() - t0
            bad = self.w.check(index, self.w.finish(index, raw))
        except Exception as exc:  # an op that raises is a failed op
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            bad = [f"op{index}: {type(exc).__name__}: {exc}"]
        self.record(bad)
        return elapsed

    def record(self, bad: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(bad)
        self.mismatches += bad[: max(0, 5 - len(self.mismatches))]

    def passes(self, seconds: float, speed: Speed) -> list[float]:
        """Run whole passes over the op cycle until ``seconds`` have passed
        (at least MIN_PASSES), sampling the host's speed between ops.

        Returns each op's time scaled by the host's speed.  Op ``n`` is op
        ``n % len(cycle)`` of the cycle, so ``times[k::len(cycle)]`` are the
        times of one op of the cycle.
        """
        size = len(self.w.cycle)
        deadline = time.perf_counter() + seconds
        before = []  # index of the speed sample taken last before op n
        n = 0
        speed.sample()
        while n < MIN_PASSES * size or time.perf_counter() < deadline:
            for _ in range(size):
                before.append(len(speed.samples) - 1)
                self.times.append(self.one(n))
                n += 1
                if speed.due():
                    speed.sample()
        speed.sample()
        return [t * speed.factor(i) for t, i in zip(self.times, before)]


def end_to_end(args, wl, work, reference) -> tuple[Loop, dict, dict]:
    from tracer import NullTracer

    speed = Speed(wl.WORKLOADS[args.workload].calibration_walk)
    setup_wall, setups = timed_setups(args, speed)
    w = wl.build(args.workload, args.seed, NullTracer(), work, ROOT, reference)
    loop = Loop(w)
    loop.one(0)  # warm-up, checked but not timed
    scaled = loop.passes(args.seconds, speed)
    # each op of the cycle at its median pass
    size = len(w.cycle)
    per_op = [statistics.median(scaled[k::size]) for k in range(size)]
    value, percentile = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": size / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "cycle": size,
        "passes": len(loop.times) // size,
        "op_tail": {"percentile": percentile, "samples": size},
        "op_ms": [t * 1e3 for t in per_op],
        "calibration_ms": {
            "reference": speed.ref * 1e3,
            "walk": speed.walk,
            "runs": len(speed.samples),
            "min": min(speed.samples) * 1e3,
            "median": statistics.median(speed.samples) * 1e3,
            "max": max(speed.samples) * 1e3,
        },
        # the same run as measured, without scaling by the host's speed
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "ops_per_s": len(loop.times) / sum(loop.times),
            "op_p50_ms": statistics.median(loop.times) * 1e3,
        },
    }
    return loop, metrics, details


def traced(args, wl, work, reference) -> tuple[Loop, dict, dict]:
    from tracer import NullTracer, Tracer

    tr = Tracer()
    w = wl.build(args.workload, args.seed, tr, work, ROOT, reference)
    probe_bad = wl.check_probe(wl.load_reference()["probe"], wl.probe(tr, work, ROOT))
    loop = Loop(w)
    null = NullTracer()
    w.tr = null
    loop.one(0)  # warm-up
    # Each op runs twice, untraced and traced, in alternating order, so the
    # overhead is measured under the same host conditions as the op itself.
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + args.seconds
    n = 0
    while n < w.count_window or time.perf_counter() < deadline:
        tr.counted = n < w.count_window
        for tracer in (null, tr) if n % 2 == 0 else (tr, null):
            w.tr = tracer
            tr.op = n if tracer is tr else None
            elapsed = loop.one(n)
            if tracer is tr:
                traced_s += elapsed
            else:
                untraced_s += elapsed
        n += 1
    tr.op = None
    loop.record(probe_bad)
    metrics = layer_metrics(tr, wl)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    process_ms = {}
    for s in tr.spans:
        if s.name == "cli.process" and s.op is not None:
            process_ms.setdefault(s.tags["command"], []).append(s.duration * 1e3)
    details = {
        "cli_process_ms": {cmd: statistics.median(ts) for cmd, ts in process_ms.items()},
        "ops": n,
        "count_window": w.count_window,
        "spans": len(tr.spans),
    }
    return loop, metrics, details


def layer_metrics(tr, wl) -> dict:
    """Per-layer metrics from the spans; see README.md for each definition."""
    import counts

    by_name: dict[str, list] = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name, **match):
        return [s for s in by_name.get(name, []) if all(s.tags.get(k) == v for k, v in match.items())]

    def med_ms(name, **match):
        return statistics.median([s.duration for s in spans(name, **match)]) * 1e3

    def counted(name, unit):
        return sum(s.tags.get(unit, 0) for s in by_name.get(name, []) if s.counted)

    def us_per(name, unit):
        ss = by_name.get(name, [])
        return 1e6 * sum(s.duration for s in ss) / sum(s.tags.get(unit, 0) for s in ss)

    def ratio(name, flag):
        ss = [s for s in by_name.get(name, []) if s.counted]
        return sum(s.tags.get(flag, 0) for s in ss) / len(ss)

    cli_main = by_name.get("cli.main", [])
    overhead = [
        tr.spans[s.tags["process_span"]].duration - s.duration
        for s in cli_main if "process_span" in s.tags
    ]
    exhaustive = by_name.get("oracle.exhaustive_check", [])
    us_per_product = us_per("oracle.exhaustive_check", "admissible")

    m = {
        "instances.generate_ms": med_ms("instances.generate"),
        "instances.count": sum(s.counted for s in by_name.get("instances.generate", [])),
        "search.find_ms": med_ms("search.find"),
        "search.find_hit_p50_ms": med_ms("search.find", hit=1),
        "search.find_miss_p50_ms": med_ms("search.find", hit=0),
        "search.candidates_scanned": counted("search.find", "candidates"),
        "search.us_per_candidate": us_per("search.find", "candidates"),
        "search.hit_share": ratio("search.find", "hit"),
        "certificate.constants_ms": med_ms("certificate.constants"),
        "certificate.max_rate_ms": med_ms("certificate.max_rate"),
        "certificate.check_ms": med_ms("certificate.check"),
        "certificate.feasible_share": ratio("certificate.check", "feasible"),
        "graph.walk_ms": med_ms("graph.walk"),
        "graph.walk_us_per_vertex": us_per("graph.walk", "vertices"),
        "graph.vertices": counted("graph.walk", "vertices"),
        "graph.validate_ms": med_ms("graph.validate"),
        "graph.signal_us_per_step": us_per("graph.signal", "steps"),
        "simulate.simulate_us_per_step": us_per("simulate.simulate", "steps"),
        "simulate.product_norms_us_per_step": us_per("simulate.product_norms", "steps"),
        "simulate.fit_decay_ms": med_ms("simulate.fit_decay"),
        "simulate.verify_ges_ms": med_ms("simulate.verify_ges"),
        "simulate.steps": counted("simulate.simulate", "steps")
        + counted("simulate.product_norms", "steps"),
        "oracle.envelope_constant_ms": med_ms("oracle.envelope_constant"),
        "oracle.exhaustive_check_ms": med_ms("oracle.exhaustive_check"),
        "oracle.decompose_ms": med_ms("oracle.decompose"),
        "oracle.products_admissible": counted("oracle.exhaustive_check", "admissible"),
        "oracle.products_checked": counted("oracle.exhaustive_check", "checked"),
        "oracle.visit_share": sum(s.tags["checked"] for s in exhaustive)
        / sum(s.tags["admissible"] for s in exhaustive),
        "oracle.us_per_product": us_per_product,
        # computed, not run: diagonal pair (N=2, block 2) at the measured unit cost
        "oracle.reach_h": counts.reach_horizon(2, 2, us_per_product, wl.REACH_BUDGET_S),
        "oracle.cap_fallbacks": counted("oracle.envelope_constant", "cap_fallback"),
        "cli.import_s": statistics.median([s.duration for s in by_name["cli.import"]])
        - statistics.median([s.duration for s in by_name["cli.start"]]),
        "cli.experiment_ms": med_ms("cli.main", command="experiment"),
        "cli.verify_ms": med_ms("cli.main", command="verify"),
        "cli.signal_ms": med_ms("cli.main", command="signal"),
        "cli.bytes_written": counted("cli.main", "bytes") + counted("cli.process", "bytes"),
        "cli.process_overhead_ms": statistics.median(overhead) * 1e3,
    }
    self_time = tr.self_times()
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(tr.spans, self_time):
        if s.op is not None and s.layer in per_layer:
            per_layer[s.layer] += t
    total = sum(per_layer.values())
    for layer, t in per_layer.items():
        m[f"share.{layer}"] = 100.0 * t / total
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    load_package()
    import workloads as wl
    from tracer import NullTracer

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.setup_only:
            wl.build(args.workload, args.seed, NullTracer(), work, ROOT)
            return 0
        reference = wl.load_reference()[args.workload] if args.seed == wl.DEFAULT_SEED else None
        measure = traced if args.trace else end_to_end
        loop, metrics, details = measure(args, wl, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    units = PER_LAYER if args.trace else END_TO_END
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "checked_against": "reference" if reference is not None else "invariants",
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fail_share": loop.failed / loop.attempted,
        "mismatches": loop.mismatches,
        **details,
        "env": {**environment(), "pinned_cpu": cpu},
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
