#!/usr/bin/env python3
"""Compare the envelope scans, decompositions, schedule stage and ensemble search of two checkouts in one process.

    python3 tools/ab_inproc.py PARENT CHANGE [--rounds 41]
    python3 tools/ab_inproc.py --sweep PARENT CHANGE

Copies ``src/swstab`` of the checkouts PARENT and CHANGE into a temporary
directory as the packages ``swstab_parent`` and ``swstab_change`` and
imports both, so both sides run on the same interpreter, CPU and moment.
It times a fixed list of calls, one row at a time.  The envelope rows
are ``envelope_profile`` calls:

- ``oracle``: the scans of one cycle of the benchmark's ``oracle``
  workload at seed 0 (per instance, the basis length, basis + 6 and the
  deep horizons that fill ``DEEP_PRODUCTS``);
- ``diag h=2`` .. ``diag h=10``, ``diag h=20``, ``diag h=30`` and
  ``diag h=38``: the diagonal pair at each horizon, the last a deep
  pruned scan (578 of 2,236,045 products multiplied, one batch per
  level);
- ``n10 h=3`` and ``n10 h=7``: the first N = 10 instance with a
  combination in the seed-0 population (d = 2), whose graph has the most
  nodes, at two shallow horizons;
- ``1088 h=13`` and ``1088 h=15``: population instance 1088 (N = 3,
  d = 2) at 3,907 products, just past the count at which the scan
  prunes, and at its deep horizon in the ``oracle`` cycle.

The ``decompose`` row runs ``decompose_product`` on each instance of
that ``oracle`` cycle, at the canonical segment (1..N, hub)^m that
``swstab verify`` decomposes and at DECOMPOSE_SEGMENTS random segments
of the basis length drawn as acceptance criterion 4 draws them (each
vertex uniform among those that fit, at least m combination blocks).
Those instances have m <= 2, so validation and the factor table take
most of that row's time.  The ``decompose m=10`` row times the sweep
itself: the canonical segment of ``generate_random_instance(3, 2, 1066)``
(m = 10, 165 correction terms).

The schedule rows run the stage on the diagonal pair (d = 2) and on the
``schedule`` workload's d = 4 family at seed 0 (the first N = 3, d = 4
population instance with a combination), under the seed-0
``uniform-random`` schedule of horizon SCHEDULE_HORIZON:

- ``simulate d=2`` and ``simulate d=4``: ``simulate`` from
  SCHEDULE_STATES initial states ``trial_x0(0, k, d)``;
- ``product_norms``: ``product_norms`` on both families;
- ``fit_decay``: ``fit_decay`` on the norms of those trajectories and
  products;
- ``160 walks``: SHORT_WALKS ``uniform-random`` walks of SHORT_STEPS
  vertices on graphs of N = 1..6, each followed by ``validate_walk`` and
  ``max_stable_gap``;
- ``long walks``: one ``uniform-random`` walk of the benchmark's
  LONG_STEPS (1,400) vertices on each graph of N in LONG_WALK_NS, which
  crosses many refills of the walk generator's word buffer.

The ensemble rows take the instances of one cycle of the benchmark's
``ensemble`` workload at seed 0 (d = 2):

- ``search miss N=2`` and ``search miss N=3``: ``find_stable_combination``
  on each instance of that N whose search scans the full grid and finds
  nothing;
- ``search hits``: ``find_stable_combination`` on each instance whose
  search finds a combination;
- ``generate N=10``: ``generate_random_instance`` of each N = 10
  instance.

Each side builds its own families, combinations and signals from the
same matrices.  Before timing, every call's outcome must be equal on
both sides: peaks, walks and counts of a scan, the bytes of a
decomposition's matrices, term count and residual, the bytes of states and
norms, a fit's bytes, walks and gaps, a combination's indices, powers,
product bytes and contraction, and a family's bytes.  In each round
both sides run every row, PARENT first in even rounds and CHANGE first
in odd ones.  A row repeats its calls as often as makes one pass of
CHANGE's about 5 ms, sized by the median of SIZING_CALLS passes run one
after another, the same number of times on both sides.  For each row it prints each
side's median time per pass in ms, the median over rounds of the
speed-up PARENT/CHANGE, that speed-up's quartiles (q1-q3), and the
rounds CHANGE was faster.  The process pins itself to one CPU and runs
BLAS on one thread, as the benchmark does.  Host speed drifts move both
sides of a round alike, which makes the ratio steadier than a comparison
of separate runs.

With ``--sweep`` it times nothing and runs the envelope scan's equality
sweep instead: ``envelope_profile``, with a cap of SWEEP_CAP products, on

- the diagonal pair at horizons 0..30;
- each population instance ``generate_random_instance(N, d, seed)`` with
  a combination, at seeds 1000-1059 for (N, d) = (2, 2) and (3, 2) and
  1000-1029 for (2, 3) and (3, 3), at basis + 4 and basis + 8 steps;
- the pairs diag(b, e), diag(e, b) with b in 1.5, 2, 1e10 and e in
  1e-30, 1e-90, 1e-150, 1e-300, at basis + 4, basis + 8 and 14 steps,
  where products underflow;

each with ``oracle.SLICE`` patched to 1,024 and 7 on both sides, and to 1
up to horizon SWEEP_SLICE1_HORIZON.  It also runs ``decompose_product`` on
the diagonal pair and on each of those families with a combination, at
the canonical segment and DECOMPOSE_SEGMENTS random basis segments.  A
case's outcome is the profile's peaks, walks and counts, or the
decomposition's bytes, or the exception's type and message.  It prints
every case whose outcomes differ, the number of cases of each kind with
each side's wall time over them (bindings excluded), and exits 1 if any
case differs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DIAG_HORIZONS = (*range(2, 11), 20, 30, 38)
N10_HORIZONS = (3, 7)
WEAK_SEED, WEAK_HORIZONS = 1088, (13, 15)
TARGET_S = 0.005  # a row repeats its calls until one pass takes about this long
SIZING_CALLS = 7  # timed passes whose median sizes a row's repetitions
SCHEDULE_HORIZON = 400  # steps of the schedule rows' trajectories and products
SCHEDULE_STATES = 20  # initial states per family of the simulate rows
SHORT_WALKS, SHORT_STEPS = 160, 20
LONG_WALK_NS = (2, 3, 10)  # graphs of the ``long walks`` row
SWEEP_CAP = 300_000  # products per scan of the equality sweep
SWEEP_SLICE1_HORIZON = 14  # the deepest sweep case also run with slices of 1
DECOMPOSE_SEGMENTS = 3  # random basis segments per family, after the canonical one
DECOMPOSE_SEED = 20260823  # the random segments' PCG64 seed, criterion 4's
DEEP_DECOMPOSE_SEED = 1066  # the (N, d) = (3, 2) instance of the ``decompose m=10`` row, whose m is 10


def load_sides(parent: Path, change: Path, tmp: Path) -> dict:
    """Each checkout's swstab, imported under its own package name."""
    packages = {}
    for side, checkout in zip(SIDES, (parent, change)):
        shutil.copytree(checkout / "src" / "swstab", tmp / f"swstab_{side}")
    sys.path.insert(0, str(tmp))
    for side in SIDES:
        packages[side] = importlib.import_module(f"swstab_{side}")
    return packages


def oracle_instances() -> list:
    """(family, combination) of every instance in one oracle cycle at seed 0."""
    import workloads
    from tracer import NullTracer

    diag = workloads.diagonal_pair()
    instances = [(diag, workloads.sw.find_stable_combination(diag))]
    return instances + [(family, comb) for _, family, comb, _ in workloads.certified_small(0, NullTracer())]


def oracle_calls(instances) -> list[tuple[tuple, int]]:
    """(subsystem matrices, horizon) of every scan of the oracle cycle's instances."""
    import counts
    import workloads

    calls = []
    for family, comb in instances:
        basis = workloads.sw.basis_length(family, comb)
        extra = basis + workloads.ORACLE_EXTRA
        deep = counts.horizons_for_budget(family.size, comb.block_duration, extra + 1, workloads.DEEP_PRODUCTS)
        calls += [(family.subsystems, h) for h in [basis, extra, *deep]]
    return calls


def population_n10() -> tuple:
    """The subsystem matrices of the seed-0 population's first N = 10
    instance with a combination."""
    import workloads

    sw = workloads.sw
    for inst_seed, n in workloads.population(0):
        if n == 10:
            family = sw.generate_random_instance(n, 2, inst_seed)
            if sw.find_stable_combination(family) is not None:
                return family.subsystems


def bind(sw, calls) -> list:
    """The calls as (family, combination, horizon) of package `sw`."""
    bound, combs = [], {}
    for mats, h in calls:
        key = tuple(m.tobytes() for m in mats)
        if key not in combs:
            family = sw.MatrixFamily(tuple(mats))
            combs[key] = family, sw.find_stable_combination(family)
        bound.append((*combs[key], h))
    return bound


def profile_key(prof):
    return prof.peaks, prof.walks, prof.counts


def envelope_row(sw, calls) -> list:
    """The `envelope_profile` calls of a row as thunks of package `sw`."""
    return [functools.partial(sw.envelope_profile, *call) for call in bind(sw, calls)]


def basis_segments(sw, family, comb, rng) -> list[list[int]]:
    """The canonical segment (1..N, hub)^m, then DECOMPOSE_SEGMENTS random
    walks of the basis length with at least m combination blocks."""
    hub, block, m = family.size + 1, comb.block_duration, comb.contraction_power
    segments = [(list(range(1, hub)) + [hub]) * m]
    while len(segments) <= DECOMPOSE_SEGMENTS:
        seg, left = [], sw.basis_length(family, comb)
        while left:
            v = int(rng.integers(1, hub + 1 if block <= left else hub))
            seg.append(v)
            left -= block if v == hub else 1
        if seg.count(hub) >= m:
            segments.append(seg)
    return segments


def decompose_calls(sw, families) -> list[tuple[str, tuple, list[int]]]:
    """(label, subsystem matrices, segment) of the basis segments of each
    (label, matrices) family with a combination, built by package `sw`."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(DECOMPOSE_SEED))
    calls = []
    for label, mats in families:
        family = sw.MatrixFamily(tuple(mats))
        comb = sw.find_stable_combination(family)
        if comb is not None:
            calls += [(label, mats, seg) for seg in basis_segments(sw, family, comb, rng)]
    return calls


def decomposition_key(dec):
    return dec.total.tobytes(), dec.main_term.tobytes(), dec.correction.tobytes(), dec.term_count, dec.residual.hex()


def d4_family(sw) -> tuple:
    """The subsystem matrices of the seed-0 ``schedule`` workload's d = 4
    family: the first N = 3 population instance with a combination."""
    import workloads

    for inst_seed, _ in workloads.population(0):
        family = sw.generate_random_instance(3, 4, inst_seed)
        if sw.find_stable_combination(family) is not None:
            return family.subsystems


def short_walks(sw) -> list:
    """SHORT_WALKS short walks, each validated and measured for its gap."""
    out = []
    for j in range(SHORT_WALKS):
        graph = sw.build_graph(1 + j % 6)
        walk = sw.generate_walk(graph, "uniform-random", SHORT_STEPS, seed=(0, j))
        sw.validate_walk(graph, walk)
        out.append((walk, sw.max_stable_gap(graph, walk)))
    return out


def schedule_rows(sw, families) -> dict:
    """The schedule rows of package `sw` as thunks, with each row's key
    that turns an outcome into what the equality gate compares."""
    import workloads

    runs = []
    for family, comb, h in bind(sw, [(mats, SCHEDULE_HORIZON) for mats in families]):
        graph = sw.build_graph(family.size)
        walk = sw.walk_for_horizon(graph, comb, "uniform-random", 0, h)
        runs.append((family, sw.walk_to_signal(graph, walk, comb), h))
    rows = {}
    for family, signal, h in runs:
        x0s = [sw.trial_x0(0, k, family.dim) for k in range(SCHEDULE_STATES)]
        rows[f"simulate d={family.dim}"] = (
            [functools.partial(sw.simulate, family, signal, x0, h) for x0 in x0s],
            lambda traj: (traj.states.tobytes(), traj.norms.tobytes()),
        )
    rows["product_norms"] = (
        [functools.partial(sw.product_norms, *run) for run in runs],
        lambda norms: norms.tobytes(),
    )
    norms = [sw.simulate(family, signal, sw.trial_x0(0, k, family.dim), h).norms
             for family, signal, h in runs for k in range(SCHEDULE_STATES)]
    norms += [sw.product_norms(*run) for run in runs]
    rows["fit_decay"] = (
        [functools.partial(sw.fit_decay, n) for n in norms],
        lambda fit: (fit.amplitude.hex(), fit.rate.hex()),
    )
    rows[f"{SHORT_WALKS} walks"] = ([functools.partial(short_walks, sw)], lambda out: out)
    rows["long walks"] = (
        [functools.partial(sw.generate_walk, sw.build_graph(n), "uniform-random", workloads.LONG_STEPS, seed=(0, n))
         for n in LONG_WALK_NS],
        lambda walk: walk,
    )
    return rows


def ensemble_cycle() -> list[tuple[int, int]]:
    """(instance seed, N) of every instance of one ensemble cycle at seed 0."""
    import workloads
    from tracer import NullTracer

    return workloads.stratified(0, NullTracer())


def comb_key(comb):
    if comb is None:
        return None
    return (comb.head, comb.tail, comb.head_power, comb.tail_power, comb.product.tobytes(),
            comb.contraction_power, comb.contraction_norm)


def ensemble_rows(sw, cycle) -> dict:
    """The ensemble rows of package `sw` as thunks, with each row's key."""
    searches = {"search miss N=2": [], "search miss N=3": [], "search hits": []}
    for seed, n in cycle:
        family = sw.generate_random_instance(n, 2, seed)
        hit = sw.find_stable_combination(family) is not None
        name = "search hits" if hit else f"search miss N={n}"
        searches[name].append(functools.partial(sw.find_stable_combination, family))
    rows = {name: (thunks, comb_key) for name, thunks in searches.items()}
    rows["generate N=10"] = (
        [functools.partial(sw.generate_random_instance, n, 2, seed) for seed, n in cycle if n == 10],
        lambda family: family.stack.tobytes(),
    )
    return rows


def sweep_families(sw) -> list[tuple[str, tuple, tuple]]:
    """(label, subsystem matrices, extra steps past the basis) of the
    equality sweep's population and underflow families; an extra step of
    None stands for horizon 14."""
    import numpy as np

    populations = [(2, 2, 60), (3, 2, 60), (2, 3, 30), (3, 3, 30)]
    families = [
        (f"N={n} d={d} #{seed}", sw.generate_random_instance(n, d, seed).subsystems, (4, 8))
        for n, d, seeds in populations
        for seed in range(1000, 1000 + seeds)
    ]
    families += [
        (f"diag({b:g}, {e:g})", (np.diag([b, e]), np.diag([e, b])), (4, 8, None))
        for b in (1.5, 2.0, 1e10)
        for e in (1e-30, 1e-90, 1e-150, 1e-300)
    ]
    return families


def sweep_cases(sw, families) -> list[tuple[str, tuple, int]]:
    """(label, subsystem matrices, horizon) of every scan of the equality
    sweep: the diagonal pair at 0..30, and `families` at their horizons."""
    import numpy as np

    cases = [(f"diag h={h}", (np.diag([1.2, 0.4]), np.diag([0.4, 1.2])), h) for h in range(31)]
    for label, mats, extras in families:
        family = sw.MatrixFamily(mats)
        comb = sw.find_stable_combination(family)
        if comb is not None:
            basis = sw.basis_length(family, comb)
            cases += [(f"{label} h={h}", mats, h) for h in (14 if x is None else basis + x for x in extras)]
    return cases


def sweep_outcome(sw, family, comb, horizon: int, slice_size: int):
    """A scan's peaks, walks and counts with `slice_size` as the slice, or
    the type and message of the exception it raised."""
    with mock.patch.object(sw.oracle, "SLICE", slice_size):
        try:
            return profile_key(sw.envelope_profile(family, comb, horizon, SWEEP_CAP))
        except (RuntimeError, ValueError) as exc:  # the cap, and products past double range
            return type(exc).__name__, str(exc)


def decompose_outcome(sw, family, comb, segment):
    """A decomposition's bytes, or the type and message of the exception it raised."""
    try:
        return decomposition_key(sw.decompose_product(family, comb, segment))
    except (RuntimeError, ValueError) as exc:  # products past double range
        return type(exc).__name__, str(exc)


def sweep(packages) -> int:
    """Run the equality sweep on both sides; 1 if any outcome differs."""
    import numpy as np

    families = sweep_families(packages["change"])
    cases = [
        (f"{label} SLICE={size}", mats, h, size)
        for label, mats, h in sweep_cases(packages["change"], families)
        for size in (1024, 7, 1)
        if size > 1 or h <= SWEEP_SLICE1_HORIZON
    ]
    diag = ("diag", (np.diag([1.2, 0.4]), np.diag([0.4, 1.2])))
    decompositions = decompose_calls(packages["change"], [diag] + [(label, mats) for label, mats, _ in families])
    outcomes, seconds = {}, {"envelope": {}, "decomposition": {}}
    for side, sw in packages.items():
        calls = bind(sw, [(mats, h) for _, mats, h, _ in cases])
        start = time.perf_counter()
        outcomes[side] = [sweep_outcome(sw, *call, size) for call, (*_, size) in zip(calls, cases)]
        seconds["envelope"][side] = time.perf_counter() - start
        calls = bind(sw, [(mats, seg) for _, mats, seg in decompositions])
        start = time.perf_counter()
        outcomes[side] += [decompose_outcome(sw, *call) for call in calls]
        seconds["decomposition"][side] = time.perf_counter() - start
    labels = [label for label, *_ in cases]
    labels += [f"{label} segment {seg}" for label, _, seg in decompositions]
    differ = 0
    for label, parent, change in zip(labels, outcomes["parent"], outcomes["change"]):
        if parent != change:
            differ += 1
            print(f"{label:.300}: parent {parent!r:.300} change {change!r:.300}")
    for kind, count in (("envelope", len(cases)), ("decomposition", len(decompositions))):
        took = ", ".join(f"{side} {t:.1f} s" for side, t in seconds[kind].items())
        print(f"{count} {kind} cases ({took})")
    print(f"{differ} differ")
    return 1 if differ else 0


def run(thunks, reps: int) -> list[float]:
    """Seconds of each of `reps` passes over a row's calls, run one after
    another after one garbage collection."""
    gc.collect()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for call in thunks:
            call()
        times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--rounds", type=int, default=41)
    p.add_argument("--sweep", action="store_true", help="run the equality sweep, not the timed rows")
    args = p.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_sides(args.parent.resolve(), args.change.resolve(), Path(tmp))
        if args.sweep:
            return sweep(packages)
        sys.path[:0] = [str(HERE / "perfbench"), str(HERE / "src")]
        instances = oracle_instances()
        oracle = oracle_calls(instances)
        diag = oracle[0][0]  # the cycle's first instance is the diagonal pair
        n10 = population_n10()
        rows = {"oracle": oracle} | {f"diag h={h}": [(diag, h)] for h in DIAG_HORIZONS}
        rows |= {f"n10 h={h}": [(n10, h)] for h in N10_HORIZONS}
        weak = packages["change"].generate_random_instance(3, 2, WEAK_SEED).subsystems
        rows |= {f"{WEAK_SEED} h={h}": [(weak, h)] for h in WEAK_HORIZONS}
        schedule = (diag, d4_family(packages["change"]))
        cycle = ensemble_cycle()
        # name -> side -> (thunks, key)
        bound = {
            name: {side: (envelope_row(sw, calls), profile_key) for side, sw in packages.items()}
            for name, calls in rows.items()
        }
        decompose = [
            (mats, seg)
            for _, mats, seg in decompose_calls(packages["change"], [("", f.subsystems) for f, _ in instances])
        ]
        deep = packages["change"].generate_random_instance(3, 2, DEEP_DECOMPOSE_SEED).subsystems
        decompose_rows = {"decompose": decompose, "decompose m=10": [(deep, [1, 2, 3, 4] * 10)]}
        for side, sw in packages.items():
            for name, calls in decompose_rows.items():
                bound.setdefault(name, {})[side] = (
                    [functools.partial(sw.decompose_product, *call) for call in bind(sw, calls)],
                    decomposition_key,
                )
            for name, row in (schedule_rows(sw, schedule) | ensemble_rows(sw, cycle)).items():
                bound.setdefault(name, {})[side] = row
        for name, sides in bound.items():
            got = {side: [key(call()) for call in thunks] for side, (thunks, key) in sides.items()}
            if got["parent"] != got["change"]:
                sys.exit(f"{name}: the outcomes differ")
        reps = {
            name: max(1, round(TARGET_S / statistics.median(run(sides["change"][0], SIZING_CALLS))))
            for name, sides in bound.items()
        }
        times = {name: {side: [] for side in SIDES} for name in bound}
        for k in range(args.rounds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for name, sides in bound.items():
                for side in order:
                    times[name][side].append(sum(run(sides[side][0], reps[name])) / reps[name])
    print(f"{len(oracle)} oracle scans, {len(decompose)} decompositions; {args.rounds} rounds, sides alternating;"
          " ms per pass")
    print(f"{'row':<16} {'reps':>5} {'parent':>9} {'change':>9} {'speed-up':>9} {'q1-q3':>12}  change won")
    for name in bound:
        parent, change = times[name]["parent"], times[name]["change"]
        ups = [q / c for q, c in zip(parent, change)]
        q1, q2, q3 = statistics.quantiles(ups, n=4)
        won = sum(u > 1.0 for u in ups)
        print(f"{name:<16} {reps[name]:>5} {statistics.median(parent) * 1e3:>9.4g}"
              f" {statistics.median(change) * 1e3:>9.4g} {q2:>9.3f} {f'{q1:.2f}-{q3:.2f}':>12}"
              f"  {won}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
