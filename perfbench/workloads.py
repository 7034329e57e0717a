"""The four workloads: inputs from a seed, the ops, and the checks.

Every call into swstab goes through ``tr.call("<layer>.<call>", fn, ...)``
so a traced run records one span per call; untraced runs pass a
``NullTracer`` and execute the same code.  Layers are the modules of
``src/swstab``: instances, search, certificate, graph, simulate, oracle
and cli.  ``family`` only holds data and ``linalg`` is only called from
inside the other layers, so neither gets a span.

An op returns what the program produced, raw; ``Workload.finish`` turns
that into an *outcome*, a JSON-able dict (walk digests, file sizes, report
contents), outside the op's timed region.  ``Workload.check`` compares the
outcome with the invariants that hold for any seed and, at
``DEFAULT_SEED``, with the outcome pinned in ``reference.json`` from the
seed commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import swstab as sw
from swstab import cli as swcli

import counts

DEFAULT_SEED = 0

# Criterion-2 population: instance seed 1000+idx with N = (2, 3, 10)[idx % 3]
# and d = 2.  Workload seed s starts its population at 1000 + POP_STRIDE*s,
# so the default seed's population starts with criterion 2's (1000-1199).
POP_BASE = 1000
POP_NS = (2, 3, 10)
POP_BLOCK = 200  # criterion 2's population size
POP_STRIDE = 5000
# The ensemble cycle: this many of the seed's population instances from
# each stratum (N and search outcome), the first ones in population order.
# Fixed strata keep the mix of cheap hits, full-grid misses and ~40x
# costlier feasible instances the same at every seed.  The counts follow
# the population (seeds 1000-3999: misses are 34 % of N=2 and 11 % of
# N=3 instances, N=10 always hits, 1.4 % are feasible, all with N <= 3),
# with two exceptions that keep op_p50_ms and op_tail_ms off the gaps
# between strata, where they would jump from seed to seed.  N=10 has 110
# instead of 73: in the population the N <= 3 hits are half of all
# instances, so the median op would fall between them and the slower
# N=10 hits.  N=3 misses are 6 instead of 8: with 8, they and the two
# feasible instances would be exactly the ten ops above the tail.
ENSEMBLE_STRATA = {
    "2-miss": 25, "2-hit": 46, "3-miss": 6, "3-hit": 65, "10-hit": 110, "feasible": 2,
}
# Set-up searches at least this many population instances, then whole
# blocks until every stratum is full.  The strata fill within it at
# nearly every seed, so set-up time is about the same at every seed.
ENSEMBLE_SCAN = 2 * POP_BLOCK

HORIZON = 200  # criterion 2 and `swstab experiment`: steps per trajectory
TRIALS = 100  # initial states per feasible instance
ENUM_CAP = 2_000_000  # the pipeline's enumeration cap

# Schedule op sizes cycle through these multiples of the nominal size.
SIZE_SCALES = (0.5, 0.75, 1.0, 1.25, 1.5)

ORACLE_EXTRA = 6  # `swstab verify --extra` default: criterion 3's horizon
# Admissible products of an op's deep scans.  Horizons past basis+6 are
# picked per instance (counts.horizons_for_budget) so an op does about
# this much enumeration, whatever the instance's N and block length.
DEEP_PRODUCTS = 16000
REACH_BUDGET_S = 1.0  # oracle.reach_h: largest diagonal-pair horizon in 1 s

SHORT_WALKS = 160  # criterion-5-style walks per nominal schedule walk op
SHORT_STEPS = 20
LONG_STEPS = 1400  # `swstab signal --steps` for the long walks, nominal
# Trajectory horizon at the largest scale; it keeps every norm inside double
# range for d <= 4.
SCHEDULE_HORIZON = 400
SCHEDULE_STATES = 20  # initial states per trajectory op

CLI_SIGNAL_STEPS = 2000
CLI_EXPERIMENTS = 2
IMPORT_SAMPLES = 3  # cli.import_s: median of this many start-ups each way
ALLOWED_EXITS = {0, 2, 3, 4, 5}
CHILD_TIMEOUT_S = 120

REL_TOL = 1e-7  # floats vs the pinned reference, relative ...
ABS_TOL = 1e-12  # ... with this floor for values at rounding level


def load_reference() -> dict:
    """Outcomes pinned at the seed commit (written by pin.py)."""
    with open(Path(__file__).resolve().parent / "reference.json") as f:
        return json.load(f)


def diagonal_pair() -> sw.MatrixFamily:
    return sw.MatrixFamily((np.diag([1.2, 0.4]), np.diag([0.4, 1.2])))


def shear_pair() -> sw.MatrixFamily:
    return sw.MatrixFamily(
        (np.array([[2.0, 0.0], [0.0, 0.5]]), np.array([[0.25, 0.5], [0.0, 1.0]]))
    )


def hopeless_pair() -> sw.MatrixFamily:
    """Every product is diagonal with entries above 1: a full-grid miss."""
    return sw.MatrixFamily((np.diag([1.5, 1.1]), np.diag([1.1, 1.5])))


def population(seed: int):
    """(instance seed, N) pairs of the seed's criterion-2-style population."""
    base = POP_BASE + POP_STRIDE * seed
    idx = 0
    while True:
        yield base + idx, POP_NS[idx % 3]
        idx += 1


def digest(seq) -> str:
    return hashlib.sha1(",".join(str(int(v)) for v in seq).encode()).hexdigest()[:16]


def finite(x):
    """JSON-safe float: None for inf/nan."""
    return float(x) if x is not None and math.isfinite(x) else None


def comb_tuple(comb):
    return [comb.head, comb.tail, comb.head_power, comb.tail_power, comb.contraction_power]


def seeded_x0(seed: int, trial: int, dim: int) -> np.ndarray:
    """Initial state of trial k, as criterion 2 and `swstab experiment` draw it."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 1 + trial))))
    return rng.uniform(-1.0, 1.0, size=dim)


def walk_for_horizon(graph, comb, policy, seed, horizon):
    """Vertices until the expanded signal covers ``horizon`` steps.

    The same loop as `swstab simulate`/`experiment` and criterion 2: one
    vertex at a time from a resumable WalkGenerator.
    """
    gen = sw.WalkGenerator(graph, policy, seed=seed)
    walk, duration = [], 0
    while duration < horizon:
        v = gen.take(1)[0]
        walk.append(v)
        duration += comb.block_duration if v == graph.stable_vertex else 1
    return walk


def expand(walk, comb, hub):
    """Per-step subsystem indices of a walk, as the oracle expands it."""
    steps = []
    for v in walk:
        if v == hub:
            steps += [comb.tail] * comb.tail_power + [comb.head] * comb.head_power
        else:
            steps.append(v)
    return steps


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(ref, got, path="") -> list[str]:
    """Exact for discrete values, REL_TOL/ABS_TOL for floats."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [m for k in ref for m in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [m for k, (a, b) in enumerate(zip(ref, got)) for m in compare(a, b, f"{path}[{k}]")]
    if _number(ref) and _number(got) and float in (type(ref), type(got)):
        if abs(ref - got) <= max(REL_TOL * max(abs(ref), abs(got)), ABS_TOL):
            return []
    elif ref == got and type(ref) is type(got):
        return []
    return [f"{path}: {got!r} != {ref!r}"]


_PRODUCTS = re.compile(r"\((\d+) products\)")


def compare_stdout(ref: str, got: str, path: str) -> list[str]:
    """Token-wise: numbers within REL_TOL/ABS_TOL, everything else exact.

    `verify` prints how many products its scan checked; like
    ``products_checked`` that count may drop (pruning), never grow.
    """
    bad = [
        f"{path}: {g} products checked > {r}"
        for r, g in zip(_PRODUCTS.findall(ref), _PRODUCTS.findall(got))
        if int(g) > int(r)
    ]

    def tokens(text):
        out = []
        for tok in _PRODUCTS.sub("(# products)", text).replace("=", " ").split():
            try:
                out.append(float(tok))
            except ValueError:
                out.append(tok)
        return out

    return bad + compare(tokens(ref), tokens(got), path)


def compare_cli(ref: dict, got: dict, path: str) -> list[str]:
    """A CLI run's outcome: stdout token-wise, the rest by ``compare``."""
    rest = compare(
        {k: v for k, v in ref.items() if k != "stdout"},
        {k: v for k, v in got.items() if k != "stdout"},
        path,
    )
    return compare_stdout(ref["stdout"], got["stdout"], f"{path}.stdout") + rest


class Workload:
    """Inputs, op cycle and checks of one workload at one seed."""

    name = ""
    count_window = 0  # leading ops of the traced pass whose work is counted
    # Whether the calibration kernel (run.calibration_kernel) adds its
    # random walk to the matrix work: on hosts whose slow state slows
    # interpreter-bound code more than LAPACK-bound code, it should follow
    # the ops' own mix.
    calibration_walk = False

    def __init__(self, seed: int, tr, work: Path, root: Path, reference=None):
        self.seed = seed
        self.tr = tr
        self.work = work
        self.reference = reference
        self.cycle: list = []  # zero-argument callables returning outcomes

    def run_op(self, index: int):
        return self.cycle[index % len(self.cycle)]()

    def finish(self, index: int, raw):
        """The outcome of an op from what ``run_op`` returned (not timed)."""
        return raw

    def invariants(self, index: int, outcome) -> list[str]:
        return []

    def check(self, index: int, outcome) -> list[str]:
        bad = self.invariants(index, outcome)
        if self.reference is not None and index < len(self.reference):
            bad += self.against_reference(self.reference[index], outcome, f"op{index}")
        return bad

    def against_reference(self, ref, got, path: str) -> list[str]:
        return compare(ref, got, path)


# --- ensemble -------------------------------------------------------------


def stratified(seed: int, tr) -> list[tuple[int, int]]:
    """(instance seed, N) of the ensemble cycle, in population order."""
    wanted = dict(ENSEMBLE_STRATA)
    chosen = []
    for idx, (inst_seed, n) in enumerate(population(seed)):
        if idx >= ENSEMBLE_SCAN and idx % POP_BLOCK == 0 and not any(wanted.values()):
            return chosen
        family = tr.call("instances.generate", sw.generate_random_instance, n, 2, inst_seed)
        comb = tr.call("search.find", sw.find_stable_combination, family)
        if tr.enabled:
            tr.tag(candidates=counts.candidates_scanned(n, comb), hit=int(comb is not None))
        if comb is None:
            stratum = f"{n}-miss"
        else:
            cert = tr.call("certificate.check", sw.check_certificate, family, comb)
            if tr.enabled:
                tr.tag(feasible=int(cert.feasible))
            stratum = "feasible" if cert.feasible else f"{n}-hit"
        if wanted.get(stratum, 0) > 0:
            wanted[stratum] -= 1
            chosen.append((inst_seed, n))


class Ensemble(Workload):
    """Criterion 2's pipeline over a random ensemble, one instance per op."""

    name = "ensemble"

    def __init__(self, seed, tr, work, root, reference=None):
        super().__init__(seed, tr, work, root, reference)
        self.instances = stratified(seed, tr)
        self.cycle = [
            (lambda s=s, n=n: self.op(s, n)) for s, n in self.instances
        ]
        self.count_window = len(self.cycle)

    def op(self, seed: int, n: int):
        tr = self.tr
        family = tr.call("instances.generate", sw.generate_random_instance, n, 2, seed)
        comb = tr.call("search.find", sw.find_stable_combination, family)
        if tr.enabled:
            tr.tag(candidates=counts.candidates_scanned(n, comb), hit=int(comb is not None))
        out = {"seed": seed, "n": n, "comb": None}
        if comb is None:
            return out
        inputs = tr.call("certificate.constants", sw.compute_constants, family, comb)
        best = tr.call("certificate.max_rate", sw.max_certified_rate, inputs)
        cert = tr.call("certificate.check", sw.check_certificate, family, comb)
        if tr.enabled:
            tr.tag(feasible=int(cert.feasible))
        out.update(
            comb=comb_tuple(comb),
            rho=comb.contraction_norm,
            max_rate=best,
            rate=cert.rate,
            lhs=finite(cert.lhs_value),
            feasible=cert.feasible,
            boundary=cert.boundary,
            contraction_ok=comb.contraction_norm
            * math.exp(cert.rate * comb.contraction_power * comb.block_duration)
            < 1.0,
        )
        if not cert.feasible:
            return out
        basis = sw.basis_length(family, comb)
        try:
            c = tr.call(
                "oracle.envelope_constant", sw.envelope_constant,
                family, comb, cert.rate, cap=ENUM_CAP,
            )
            method = "exhaustive"
        except sw.EnumerationCapExceeded:
            if tr.enabled:
                tr.tag(cap_fallback=1)
            c = tr.call("oracle.envelope_bound", sw.envelope_constant_bound, family, comb, cert.rate)
            method = "norm-bound"
        if tr.enabled and method == "exhaustive":
            tr.tag(admissible=counts.admissible_products(n, comb.block_duration, basis))
        graph = sw.build_graph(n)
        walk = tr.call(
            "graph.walk", walk_for_horizon, graph, comb, "uniform-random",
            np.random.SeedSequence((seed, 0)), HORIZON,
        )
        if tr.enabled:
            tr.tag(vertices=len(walk))
        tr.call("graph.validate", sw.validate_walk, graph, walk)
        gap = tr.call("graph.gap", sw.max_stable_gap, graph, walk)
        signal = tr.call("graph.signal", sw.walk_to_signal, graph, walk, comb)
        if tr.enabled:
            tr.tag(steps=signal.duration)
        holds, worst, final = 0, math.inf, 0.0
        for k in range(TRIALS):
            traj = tr.call(
                "simulate.simulate", sw.simulate, family, signal, seeded_x0(seed, k, 2), HORIZON
            )
            if tr.enabled:
                tr.tag(steps=HORIZON)
            ges = tr.call("simulate.verify_ges", sw.verify_ges, traj.norms / traj.norms[0], c, cert.rate)
            holds += ges.holds
            worst = min(worst, ges.worst_margin)
            final += float(traj.norms[-1])
        out.update(
            envelope=finite(c), method=method, walk=walk, walk_len=len(walk),
            gap=gap, ges_holds=holds, worst_margin=finite(worst), final_norm_sum=final,
        )
        return out

    def finish(self, index, raw):
        if "walk" in raw:
            raw["walk"] = digest(raw["walk"])
        return raw

    def invariants(self, index, out):
        bad = []
        if out["comb"] is None:
            return bad
        expect = (
            out["rate"] > 0.0
            and (out["lhs"] is not None and out["lhs"] <= 1.0 or out["boundary"])
            and out["contraction_ok"]
        )
        if out["feasible"] != expect:
            bad.append(f"op{index}: feasible={out['feasible']} but lhs/contraction say {expect}")
        if out["feasible"] and out["gap"] > out["n"]:
            bad.append(f"op{index}: walk gap {out['gap']} > N={out['n']}")
        return bad


# --- oracle ---------------------------------------------------------------


def certified_small(seed: int, tr, minimum: int = 0):
    """Certified N <= 3, basis <= 8 instances among the seed's first
    POP_BLOCK population instances, scanning further blocks only until
    ``minimum`` are found.  Scanning whole blocks keeps set-up time about
    the same for every seed."""
    found = []
    for idx, (inst_seed, n) in enumerate(population(seed)):
        if idx % POP_BLOCK == 0 and idx and len(found) >= minimum:
            return found
        if n > 3:
            continue
        family = tr.call("instances.generate", sw.generate_random_instance, n, 2, inst_seed)
        comb = tr.call("search.find", sw.find_stable_combination, family)
        if tr.enabled:
            tr.tag(candidates=counts.candidates_scanned(n, comb), hit=int(comb is not None))
        if comb is None:
            continue
        cert = tr.call("certificate.check", sw.check_certificate, family, comb)
        if tr.enabled:
            tr.tag(feasible=int(cert.feasible))
        if cert.feasible and sw.basis_length(family, comb) <= 8:
            found.append((inst_seed, family, comb, cert))


class Oracle(Workload):
    """What `swstab verify` runs, with deep exhaustive scans, one instance per op."""

    name = "oracle"

    def __init__(self, seed, tr, work, root, reference=None):
        super().__init__(seed, tr, work, root, reference)
        diag = diagonal_pair()
        comb = tr.call("search.find", sw.find_stable_combination, diag)
        if tr.enabled:
            tr.tag(candidates=counts.candidates_scanned(2, comb), hit=1)
        cert = tr.call("certificate.check", sw.check_certificate, diag, comb)
        if tr.enabled:
            tr.tag(feasible=int(cert.feasible))
        self.instances = [(None, diag, comb, cert)] + certified_small(seed, tr)
        for k, (_, family, comb, _) in enumerate(self.instances):
            basis = sw.basis_length(family, comb)
            deep = counts.horizons_for_budget(
                family.size, comb.block_duration, basis + ORACLE_EXTRA + 1, DEEP_PRODUCTS
            )
            horizons = [basis + ORACLE_EXTRA] + deep
            self.cycle.append(lambda k=k, horizons=horizons: self.op(k, horizons))
        self.count_window = len(self.cycle)

    def op(self, k: int, horizons: list[int]):
        tr = self.tr
        inst_seed, family, comb, cert = self.instances[k]
        basis = sw.basis_length(family, comb)
        n, block = family.size, comb.block_duration
        residual = tr.call("oracle.exchange", sw.exchange_identity_residual, family, comb)
        c = tr.call(
            "oracle.envelope_constant", sw.envelope_constant,
            family, comb, cert.rate, cap=swcli.PIPELINE_ENUM_CAP,
        )
        if tr.enabled:
            tr.tag(admissible=counts.admissible_products(n, block, basis))
        checks = []
        for h in horizons:
            chk = tr.call(
                "oracle.exhaustive_check", sw.exhaustive_bound_check,
                family, comb, cert.rate, c, h, cap=swcli.PIPELINE_ENUM_CAP,
            )
            if tr.enabled:
                tr.tag(admissible=counts.admissible_products(n, block, h), checked=chk.products_checked)
            checks.append(
                {
                    "h": h,
                    "max_ratio": chk.max_ratio,
                    "witness": list(chk.witness_walk),
                    "witness_time": chk.witness_time,
                    "checked": chk.products_checked,
                }
            )
        segment = (list(range(1, n + 1)) + [n + 1]) * comb.contraction_power
        dec = tr.call("oracle.decompose", sw.decompose_product, family, comb, segment)
        return {
            "seed": inst_seed,
            "n": n,
            "basis": basis,
            "rate": cert.rate,
            "exchange_residual": residual,
            "envelope": c,
            "checks": checks,
            "terms": dec.term_count,
            "decompose_residual": dec.residual,
            "decompose_norm": float(np.linalg.norm(dec.total, 2)),
        }

    def invariants(self, index, out):
        bad = []
        _, family, comb, cert = self.instances[index % len(self.instances)]
        n, block, hub = family.size, comb.block_duration, family.size + 1
        for chk in out["checks"]:
            where = f"op{index} h={chk['h']}"
            if chk["max_ratio"] < 1.0:
                bad.append(f"{where}: ratio {chk['max_ratio']} < 1")
            # pruning may skip products, never invent them
            if chk["checked"] > counts.admissible_products(n, block, chk["h"]):
                bad.append(f"{where}: {chk['checked']} products checked > admissible")
            # the witness must attain the reported ratio, whichever tied walk it is
            p = np.eye(family.dim)
            for ell in expand(chk["witness"], comb, hub)[: chk["witness_time"]]:
                p = family.matrix(ell) @ p
            ratio = np.linalg.norm(p, 2) * math.exp(cert.rate * chk["witness_time"]) / out["envelope"]
            if compare(chk["max_ratio"], float(ratio)):
                bad.append(f"{where}: witness gives ratio {ratio}, reported {chk['max_ratio']}")
        m = comb.contraction_power
        if out["terms"] > n * m * (m + 1) // 2 or out["decompose_residual"] > 1e-10 * max(
            1.0, out["decompose_norm"]
        ):
            bad.append(f"op{index}: decomposition out of bounds")
        return bad

    def against_reference(self, ref, got, path):
        """Witness and products_checked are held to rules, not equality.

        A tied witness is as right as the pinned one (invariants() checks
        that it attains the ratio), and a pruned scan may check fewer
        products than the pinned count, never more.
        """

        def rest(out):
            checks = [
                {k: v for k, v in chk.items() if k not in ("witness", "checked")}
                for chk in out["checks"]
            ]
            return {**out, "checks": checks}

        bad = compare(rest(ref), rest(got), path)
        return bad + [
            f"{path}.checks[{k}]: {g['checked']} products checked > {r['checked']} pinned"
            for k, (r, g) in enumerate(zip(ref["checks"], got["checks"]))
            if g["checked"] > r["checked"]
        ]


# --- schedule -------------------------------------------------------------


class Schedule(Workload):
    """Walk generation and trajectory evaluation on four fixed-size families."""

    name = "schedule"
    # over half of an op's time generates walks in Python (share.graph)
    calibration_walk = True

    def __init__(self, seed, tr, work, root, reference=None):
        super().__init__(seed, tr, work, root, reference)
        self.families = []  # (label, family, combination)
        self._add("diagonal", diagonal_pair())
        self._add("shear", shear_pair())
        for inst_seed, n in population(seed):
            if n == 10:
                family = tr.call("instances.generate", sw.generate_random_instance, n, 2, inst_seed)
                if self._add(f"population-{inst_seed}", family):
                    break
        # d = 4: the case a 2x2-only kernel cannot take
        for inst_seed, _ in population(seed):
            family = tr.call("instances.generate", sw.generate_random_instance, 3, 4, inst_seed)
            if self._add(f"d4-{inst_seed}", family):
                break
        for r, scale in enumerate(SIZE_SCALES):
            for f in range(len(self.families)):
                k = r * len(self.families) + f
                self.cycle.append(lambda k=k, f=f, x=scale: self.walk_op(k, x, *self.families[f]))
                self.cycle.append(
                    lambda k=k, f=f, x=scale: self.trajectory_op(k, x, *self.families[f])
                )
        self.count_window = len(self.cycle)

    def _add(self, label, family) -> bool:
        comb = self.tr.call("search.find", sw.find_stable_combination, family)
        if self.tr.enabled:
            self.tr.tag(
                candidates=counts.candidates_scanned(family.size, comb), hit=int(comb is not None)
            )
        if comb is not None:
            self.families.append((label, family, comb))
        return comb is not None

    def walk_op(self, k, scale, label, family, comb):
        tr = self.tr
        n_short = 1 + k % 6
        short_graph = sw.build_graph(n_short)
        shorts, short_gap = [], 0
        for j in range(round(SHORT_WALKS * scale)):
            walk = tr.call(
                "graph.walk", sw.generate_walk, short_graph, "uniform-random", SHORT_STEPS,
                seed=(self.seed, n_short, k, j),
            )
            if tr.enabled:
                tr.tag(vertices=SHORT_STEPS)
            tr.call("graph.validate", sw.validate_walk, short_graph, walk)
            short_gap = max(short_gap, tr.call("graph.gap", sw.max_stable_gap, short_graph, walk))
            shorts.append(walk)
        graph = sw.build_graph(family.size)
        long = []
        steps = round(LONG_STEPS * scale)
        for policy in sw.graph.POLICIES:
            walk = tr.call(
                "graph.walk", sw.generate_walk, graph, policy, steps,
                seed=(self.seed, k), partner=1 + k % family.size,
            )
            if tr.enabled:
                tr.tag(vertices=steps)
            tr.call("graph.validate", sw.validate_walk, graph, walk)
            gap = tr.call("graph.gap", sw.max_stable_gap, graph, walk)
            signal = tr.call("graph.signal", sw.walk_to_signal, graph, walk, comb)
            if tr.enabled:
                tr.tag(steps=signal.duration)
            long.append([policy, walk, gap, signal.duration])
        return {
            "family": label, "n": family.size, "n_short": n_short,
            "short": shorts, "short_gap": short_gap, "long": long,
        }

    def trajectory_op(self, k, scale, label, family, comb):
        tr = self.tr
        horizon = round(SCHEDULE_HORIZON * scale / max(SIZE_SCALES))
        graph = sw.build_graph(family.size)
        walk = tr.call(
            "graph.walk", walk_for_horizon, graph, comb, "uniform-random",
            np.random.SeedSequence((self.seed, k)), horizon,
        )
        if tr.enabled:
            tr.tag(vertices=len(walk))
        signal = tr.call("graph.signal", sw.walk_to_signal, graph, walk, comb)
        if tr.enabled:
            tr.tag(steps=signal.duration)
        finals, rates = [], []
        for s in range(SCHEDULE_STATES):
            traj = tr.call(
                "simulate.simulate", sw.simulate, family, signal,
                seeded_x0(self.seed * 1000 + k, s, family.dim), horizon,
            )
            if tr.enabled:
                tr.tag(steps=horizon)
            fit = tr.call("simulate.fit_decay", sw.fit_decay, traj.norms)
            finals.append(float(traj.norms[-1]))
            rates.append(fit.rate)
        norms = tr.call("simulate.product_norms", sw.product_norms, family, signal, horizon)
        if tr.enabled:
            tr.tag(steps=horizon)
        fit = tr.call("simulate.fit_decay", sw.fit_decay, norms)
        return {
            "family": label, "walk": walk, "walk_len": len(walk),
            "final_norms": finals, "fit_rates": rates,
            "product_norm": float(norms[-1]), "product_rate": fit.rate,
        }

    def finish(self, index, raw):
        if "long" in raw:
            raw["short"] = digest(v for walk in raw["short"] for v in walk + [0])
            raw["long"] = [[policy, digest(walk), *rest] for policy, walk, *rest in raw["long"]]
        else:
            raw["walk"] = digest(raw["walk"])
        return raw

    def invariants(self, index, out):
        bad = []
        if "long" in out:
            if out["short_gap"] > out["n_short"]:
                bad.append(f"op{index}: short-walk gap {out['short_gap']} > N={out['n_short']}")
            bad += [
                f"op{index}: {p} walk gap {g} > N={out['n']}"
                for p, _, g, _ in out["long"] if g > out["n"]
            ]
        else:
            norms = out["final_norms"] + [out["product_norm"]]
            rates = out["fit_rates"] + [out["product_rate"]]
            if not all(0.0 < v < math.inf for v in norms) or not all(map(math.isfinite, rates)):
                bad.append(f"op{index}: trajectory value outside double range")
        return bad


# --- cli ------------------------------------------------------------------


@contextlib.contextmanager
def working_dir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def output_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir())
    return path.stat().st_size if path.exists() else 0


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def in_process(tr, work: Path, argv) -> tuple[int, str]:
    """``swstab.cli.main(argv)`` in this process, run from ``work``."""
    buf = io.StringIO()
    with working_dir(work), contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = tr.call("cli.main", swcli.main, list(argv))
    return rc, buf.getvalue()


def out_path(work: Path, argv) -> Path | None:
    return work / argv[argv.index("--out") + 1] if "--out" in argv else None


class Cli(Workload):
    """`python -m swstab.cli ...` as users type it, one child process at a time."""

    name = "cli"

    def __init__(self, seed, tr, work, root, reference=None):
        super().__init__(seed, tr, work, root, reference)
        self.env = child_env(root)
        tr.call("instances.write", sw.write_instance, work / "diag.json", diagonal_pair(),
                name="diagonal-pair")
        inst_seed, family, _, _ = certified_small(seed, tr, minimum=1)[0]
        tr.call("instances.write", sw.write_instance, work / "cert.json", family,
                name="population", seed=inst_seed)
        steps = str(CLI_SIGNAL_STEPS)
        self.commands = []
        for k in range(CLI_EXPERIMENTS):
            e = str(7 + CLI_EXPERIMENTS * seed + k)  # default seed: the README's `--seed 7`, ...
            instance = ("diag.json", "cert.json")[k % 2]
            policy = ("uniform-random", "round-robin")[k % 2]
            self.commands += [
                ["experiment", "--n", "10", "--dim", "2", "--seed", e, "--out", "exp"],
                ["verify", instance],
                ["signal", instance, "--out", "sig.csv", "--steps", steps, "--seed", e,
                 "--policy", policy],
            ]
        self.cycle = [(lambda argv=argv: self.op(argv)) for argv in self.commands]
        self.count_window = len(self.cycle)

    def op(self, argv):
        proc = self.tr.call(
            "cli.process", subprocess.run, [sys.executable, "-m", "swstab.cli", *argv],
            cwd=self.work, env=self.env, text=True, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        return argv, proc

    def finish(self, index, raw):
        argv, proc = raw
        tr = self.tr
        target = out_path(self.work, argv)
        out = {"command": argv[0], "rc": proc.returncode, "stdout": proc.stdout,
               "traceback": "Traceback" in proc.stderr, "bytes": 0}
        if target is not None:
            out["bytes"] = output_bytes(target)
            if argv[0] == "experiment":
                report = json.loads((target / "report.json").read_text())
                out["report_feasible"] = report.get("certificate", {}).get("feasible", False)
            remove(target)
        if tr.enabled:
            tr.tag(command=argv[0], bytes=out["bytes"])  # the cli.process span
            process_span = len(tr.spans) - 1
            # the same command in-process: its cost without start-up and import
            rc, stdout = in_process(tr, self.work, argv)
            tr.tag(command=argv[0], process_span=process_span)
            out["in_process_same"] = (rc, stdout) == (proc.returncode, proc.stdout)
            if target is not None:
                remove(target)
        return out

    def invariants(self, index, out):
        bad = []
        where = f"op{index} {out['command']}"
        if out["rc"] not in ALLOWED_EXITS or out["traceback"]:
            bad.append(f"{where}: exit {out['rc']}, traceback={out['traceback']}")
        if out.get("in_process_same") is False:
            bad.append(f"{where}: in-process run differs from the child process")
        if out["command"] in ("experiment", "verify") and out["rc"] != 2:
            if not out["stdout"].startswith("CERT "):
                bad.append(f"{where}: no CERT line")
        if out["command"] == "experiment" and out["rc"] != 2:
            if f"feasible={int(out['report_feasible'])}" not in out["stdout"]:
                bad.append(f"{where}: report.json disagrees with the CERT line")
        if out["command"] == "signal":
            # a t,sigma header plus one row per step
            steps = int(out["stdout"].split("signal of ")[1].split()[0]) if out["rc"] == 0 else 0
            if out["rc"] != 0 or out["bytes"] < 8 + 4 * steps:
                bad.append(f"{where}: exit {out['rc']}, {out['bytes']} bytes for {steps} steps")
        return bad

    def against_reference(self, ref, got, path):
        got = {k: v for k, v in got.items() if k != "in_process_same"}
        return compare_cli(ref, got, path)


WORKLOADS = {w.name: w for w in (Ensemble, Oracle, Schedule, Cli)}


def build(name: str, seed: int, tr, work: Path, root: Path, reference=None) -> Workload:
    return WORKLOADS[name](seed, tr, work, root, reference)


# --- probe: one call into every layer, fixed inputs ----------------------


def probe(tr, work: Path, root: Path) -> dict:
    """Call every layer once on fixed inputs (traced runs only).

    Every per-layer metric then has at least one sample on every
    workload.  The outcome does not depend on the seed and is pinned; the
    diagonal pair's ratio at basis+6 is criterion 3's over-claim
    (2.999993), an expected result.
    """
    out = {}
    family = tr.call("instances.generate", sw.generate_random_instance, 10, 2, 7)
    out["generated"] = float(sum(np.abs(a).sum() for a in family.subsystems))
    miss = tr.call("search.find", sw.find_stable_combination, hopeless_pair())
    tr.tag(candidates=counts.candidates_scanned(2, miss), hit=0)
    diag = diagonal_pair()
    comb = tr.call("search.find", sw.find_stable_combination, diag)
    tr.tag(candidates=counts.candidates_scanned(2, comb), hit=1)
    out["miss"] = miss is None
    out["comb"] = comb_tuple(comb)
    inputs = tr.call("certificate.constants", sw.compute_constants, diag, comb)
    out["max_rate"] = tr.call("certificate.max_rate", sw.max_certified_rate, inputs)
    cert = tr.call("certificate.check", sw.check_certificate, diag, comb)
    tr.tag(feasible=int(cert.feasible))
    out["rate"] = cert.rate

    graph = sw.build_graph(2)
    walk = tr.call(
        "graph.walk", walk_for_horizon, graph, comb, "uniform-random",
        np.random.SeedSequence((7, 0)), HORIZON,
    )
    tr.tag(vertices=len(walk))
    tr.call("graph.validate", sw.validate_walk, graph, walk)
    out["gap"] = tr.call("graph.gap", sw.max_stable_gap, graph, walk)
    signal = tr.call("graph.signal", sw.walk_to_signal, graph, walk, comb)
    tr.tag(steps=signal.duration)
    out["walk"] = digest(walk)
    traj = tr.call("simulate.simulate", sw.simulate, diag, signal, seeded_x0(7, 0, 2), HORIZON)
    tr.tag(steps=HORIZON)
    norms = tr.call("simulate.product_norms", sw.product_norms, diag, signal, HORIZON)
    tr.tag(steps=HORIZON)
    out["fit_rate"] = tr.call("simulate.fit_decay", sw.fit_decay, traj.norms).rate
    out["ges_holds"] = tr.call("simulate.verify_ges", sw.verify_ges, norms, 3.0, cert.rate).holds

    basis = sw.basis_length(diag, comb)
    c = tr.call("oracle.envelope_constant", sw.envelope_constant, diag, comb, cert.rate)
    tr.tag(admissible=counts.admissible_products(2, 2, basis))
    h = basis + ORACLE_EXTRA
    chk = tr.call("oracle.exhaustive_check", sw.exhaustive_bound_check, diag, comb, cert.rate, c, h)
    tr.tag(admissible=counts.admissible_products(2, 2, h), checked=chk.products_checked)
    out["envelope"] = c
    out["ratio_basis_plus_6"] = chk.max_ratio
    out["admissible_basis_plus_6"] = counts.admissible_products(2, 2, h)
    out["checked_basis_plus_6"] = chk.products_checked
    dec = tr.call("oracle.decompose", sw.decompose_product, diag, comb, [1, 2, 3])
    out["terms"] = dec.term_count
    out["exchange_residual"] = tr.call("oracle.exchange", sw.exchange_identity_residual, diag, comb)

    tr.call("instances.write", sw.write_instance, work / "probe.json", diag, name="diagonal-pair")
    commands = [
        ["signal", "probe.json", "--out", "probe.csv", "--steps", "200"],
        ["verify", "probe.json"],
        ["experiment", "--n", "10", "--dim", "2", "--seed", "7", "--out", "probe-exp"],
    ]
    out["cli"] = []
    for argv in commands:
        rc, stdout = in_process(tr, work, argv)
        if argv[0] == "signal":
            signal_main = tr.spans[-1]
        target = out_path(work, argv)
        nbytes = output_bytes(target) if target is not None else 0
        tr.tag(command=argv[0], bytes=nbytes)
        out["cli"].append({"rc": rc, "stdout": stdout, "bytes": nbytes})
        if target is not None:
            remove(target)
    env = child_env(root)
    proc = tr.call(
        "cli.process", subprocess.run, [sys.executable, "-m", "swstab.cli", *commands[0]],
        cwd=work, env=env, text=True, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    tr.tag(command="signal", bytes=output_bytes(work / "probe.csv"))
    signal_main.tags["process_span"] = len(tr.spans) - 1
    remove(work / "probe.csv")
    out["process_same"] = [proc.returncode, proc.stdout] == [out["cli"][0]["rc"], out["cli"][0]["stdout"]]
    # interpreter start-up with and without importing the package
    out["starts"] = []
    for _ in range(IMPORT_SAMPLES):
        for name, code in (("cli.import", "import swstab.cli"), ("cli.start", "pass")):
            proc = tr.call(
                name, subprocess.run, [sys.executable, "-c", code],
                env=env, capture_output=True, timeout=CHILD_TIMEOUT_S,
            )
            out["starts"].append(proc.returncode)
    return out


def check_probe(reference: dict | None, out: dict) -> list[str]:
    bad = []
    if out["checked_basis_plus_6"] > out["admissible_basis_plus_6"]:
        bad.append("probe: more products checked than admissible")
    if not out["process_same"]:
        bad.append("probe: in-process signal differs from the child process")
    if reference is None:
        return bad
    ref, got = dict(reference), dict(out)
    for k, (r, g) in enumerate(zip(ref.pop("cli"), got.pop("cli"))):
        bad += compare_cli(r, g, f"probe.cli[{k}]")
    ref.pop("checked_basis_plus_6")
    got.pop("checked_basis_plus_6")
    return bad + compare(ref, got, "probe")
