"""End-to-end acceptance gate.

Each test covers one acceptance criterion and emits a single PASS/FAIL
line directly to the terminal (bypassing capture) before asserting.

Criterion 3 checks the exponential envelope over exhaustively enumerated
products on small certified instances, at the rate that
`sound_certified_rate` proves sound.  The paper's certificate rate is
checked alongside and reported only, because it can over-claim: on the
commuting diagonal fixture the certificate admits rate ~ 0.367, yet the
schedule that alternates "second subsystem, then one stabilizing block"
decays at only -ln(0.576)/3 ~ 0.184, so the enumerated ratios at the
paper's rate exceed 1 past the horizon the envelope constant covers.
Criterion 2 samples random schedules and initial states and happens not
to hit such a witness at the pinned seeds; the exhaustive check cannot
avoid it.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import swstab as sw
from swstab.certificate import _lhs_terms
from swstab.cli import PIPELINE_ENUM_CAP

# --- shared population: 200 seeded random instances --------------------

POPULATION_SEEDS = [(1000 + idx, [2, 3, 10][idx % 3]) for idx in range(200)]


def _verdict(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


@pytest.fixture(scope="module")
def population():
    """Every seeded instance together with its combination and certificate."""
    out = []
    for seed, n in POPULATION_SEEDS:
        family = sw.generate_random_instance(n, 2, seed=seed)
        comb = sw.find_stable_combination(family)
        cert = None if comb is None else sw.check_certificate(family, comb)
        out.append((seed, family, comb, cert))
    return out


@pytest.fixture(scope="module")
def certified_small(population, diag_family, diag_comb):
    """Certified instances with N <= 3 and basis length <= 8."""
    cases = [(diag_family, diag_comb, sw.check_certificate(diag_family, diag_comb))]
    for _, family, comb, cert in population:
        if comb is not None and cert.feasible:
            if family.size <= 3 and sw.basis_length(family, comb) <= 8:
                cases.append((family, comb, cert))
    return cases


# --- criterion 1: fixture end-to-end ------------------------------------


def test_criterion_1_diagonal_fixture(capsys, diag_family, diag_comb):
    t0 = time.perf_counter()
    inputs = sw.compute_constants(diag_family, diag_comb)
    best = sw.max_certified_rate(inputs)
    lhs = sum(_lhs_terms(inputs, 0.3))
    elapsed = time.perf_counter() - t0
    sup_rate = -math.log(0.48) / 2.0
    ok = (
        (diag_comb.head, diag_comb.tail) == (1, 2)
        and (diag_comb.head_power, diag_comb.tail_power) == (1, 1)
        and diag_comb.contraction_power == 1
        and abs(diag_comb.contraction_norm - 0.48) < 1e-12
        and abs(inputs.max_subsystem_norm - 1.2) < 1e-12
        and abs(inputs.combination_norm - 0.48) < 1e-12
        and inputs.max_commutator_norm == 0.0
        and abs(best - sup_rate) <= 1e-6
        and abs(lhs - 0.48 * math.exp(0.6)) <= 1e-9
        and elapsed < 1.0
    )
    assert _verdict(
        capsys,
        1,
        f"diagonal fixture end-to-end (sup rate {best:.9f}, "
        f"LHS(0.3) {lhs:.12f}, {elapsed * 1e3:.0f} ms)",
        ok,
    )


# --- criterion 2: envelope holds on sampled schedules -------------------


def test_criterion_2_sampled_envelope(capsys, population):
    t0 = time.perf_counter()
    feasible = violations = 0
    for seed, family, comb, cert in population:
        if comb is None or not cert.feasible:
            continue
        feasible += 1
        # the stages of `swstab experiment` at its defaults
        c, _, _ = sw.capped_envelope(family, comb, cert.rate, cap=PIPELINE_ENUM_CAP)
        graph = sw.build_graph(family.size)
        walk = sw.walk_for_horizon(graph, comb, "uniform-random", seed, 200)
        signal = sw.walk_to_signal(graph, walk, comb)
        for traj in sw.seeded_trials(family, signal, seed, 100, 200):
            check = sw.verify_ges(traj.norms / traj.norms[0], c, cert.rate)
            violations += not check.holds
    elapsed = time.perf_counter() - t0
    ok = feasible > 0 and violations == 0 and elapsed < 120.0
    assert _verdict(
        capsys,
        2,
        f"sampled envelope over {len(population)} instances "
        f"({feasible} feasible, {violations} violations, {elapsed:.1f} s)",
        ok,
    )


# --- criterion 3: exhaustive envelope on small certified instances ------


def _criterion_3_ratios(family, comb, cert):
    """Exhaustive envelope ratios to basis+6 at the paper's rate and at the
    sound rate (None when there is none), read from one envelope scan."""
    basis = sw.basis_length(family, comb)
    horizon = max(basis + 6, basis + comb.block_duration - 1)
    profile = sw.envelope_profile(family, comb, horizon, cap=PIPELINE_ENUM_CAP)

    def ratio(rate):
        c = profile.bound_check(rate, horizon=basis).max_ratio
        return profile.bound_check(rate, c, horizon=basis + 6).max_ratio

    sound = profile.sound_rate()
    return ratio(cert.rate), None if sound is None else ratio(sound)


def test_criterion_3_exhaustive_envelope(capsys, certified_small):
    t0 = time.perf_counter()
    worst = paper_worst = 0.0
    failures = paper_failures = 0
    for family, comb, cert in certified_small:
        # The paper's rate, reported only: it over-claims on some instances.
        paper_ratio, ratio = _criterion_3_ratios(family, comb, cert)
        paper_worst = max(paper_worst, paper_ratio)
        paper_failures += paper_ratio > 1.0
        if ratio is None:
            failures += 1
            continue
        worst = max(worst, ratio)
        failures += ratio > 1.0
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0 * len(certified_small)
    assert _verdict(
        capsys,
        3,
        f"exhaustive envelope at the sound rate on {len(certified_small)} "
        f"small certified instances (worst ratio {worst:.6f}, {failures} "
        f"violated; paper rate: worst ratio {paper_worst:.6f}, "
        f"{paper_failures} violated; {elapsed:.1f} s)",
        ok,
    )


def test_criterion_3_scans_each_instance_once(certified_small, monkeypatch):
    scans = []
    scan = sw.oracle._scan

    def counting_scan(nodes, horizon):
        scans.append(horizon)
        return scan(nodes, horizon)

    monkeypatch.setattr(sw.oracle, "_scan", counting_scan)
    for family, comb, cert in certified_small:
        scans.clear()
        _criterion_3_ratios(family, comb, cert)
        assert len(scans) == 1


# --- criterion 4: decomposition oracle -----------------------------------


def _random_segment(rng, n, block, basis, min_blocks):
    hub = n + 1
    while True:
        seg, dur, blocks = [], 0, 0
        while dur < basis:
            remaining = basis - dur
            options = [
                v
                for v in range(1, hub + 1)
                if (block if v == hub else 1) <= remaining
            ]
            v = int(options[rng.integers(len(options))])
            seg.append(v)
            dur += block if v == hub else 1
            blocks += v == hub
        if blocks >= min_blocks:
            return seg


def test_criterion_4_decomposition(capsys, population, diag_family, diag_comb):
    cases = [(diag_family, diag_comb)]
    cases += [
        (family, comb)
        for _, family, comb, cert in population
        if comb is not None and cert.feasible
    ]
    rng = np.random.Generator(np.random.PCG64(20260823))
    per_case = -(-100 // len(cases))  # ceil: at least 100 segments total
    checked = failures = 0
    for family, comb in cases:
        count_bound, norm_bound = sw.correction_bounds(sw.compute_constants(family, comb))
        basis = sw.basis_length(family, comb)
        for _ in range(per_case):
            seg = _random_segment(
                rng, family.size, comb.block_duration, basis, comb.contraction_power
            )
            dec = sw.decompose_product(family, comb, seg)
            good = (
                dec.residual <= 1e-10 * sw.operator_norm(dec.total)
                and dec.term_count <= count_bound
                and sw.operator_norm(dec.correction) <= norm_bound + 1e-9
            )
            checked += 1
            failures += not good
    ok = checked >= 100 and failures == 0
    assert _verdict(
        capsys,
        4,
        f"decomposition oracle on {checked} random certified segments "
        f"({failures} failures)",
        ok,
    )


# --- criterion 5: graph and walk structure --------------------------------


def test_criterion_5_graph_structure(capsys):
    edges_ok = sw.build_graph(2).edges == frozenset(
        {(1, 2), (1, 3), (2, 3), (3, 1), (3, 2)}
    )
    failures = 0
    for n in range(1, 7):
        graph = sw.build_graph(n)
        for k in range(10_000):
            walk = sw.generate_walk(graph, "uniform-random", 20, seed=(n, k))
            try:
                sw.validate_walk(graph, walk)
            except ValueError:
                failures += 1
                continue
            failures += sw.max_stable_gap(graph, walk) > n
    ok = edges_ok and failures == 0
    assert _verdict(
        capsys,
        5,
        f"graph structure over 6x10^4 random walks "
        f"(edge set {'ok' if edges_ok else 'wrong'}, {failures} failures)",
        ok,
    )


# --- criterion 6: exchange identity ---------------------------------------


def test_criterion_6_exchange_identity(capsys):
    rng = np.random.Generator(np.random.PCG64(2026))
    failures = 0
    for _ in range(1000):
        a1 = rng.uniform(-1.0, 1.0, (2, 2))
        a2 = rng.uniform(-1.0, 1.0, (2, 2))
        family = sw.MatrixFamily((a1, a2))
        c = a1 @ a2
        scale = max(sw.operator_norm(a1), sw.operator_norm(a2)) * sw.operator_norm(c)
        failures += sw.exchange_identity_residual(family, c) > 1e-12 * scale
    ok = failures == 0
    assert _verdict(
        capsys, 6, f"exchange identity residual on 1000 random families "
        f"({failures} failures)", ok
    )


# --- criterion 7: monotonicity and bisection endpoint ----------------------


def test_criterion_7_monotonicity(capsys, population, diag_family, diag_comb):
    base = sw.compute_constants(diag_family, diag_comb)
    inputs_set = [base] + [
        replace(base, max_commutator_norm=eps) for eps in (1e-6, 1e-4, 1e-2)
    ]
    inputs_set += [
        sw.compute_constants(family, comb)
        for _, family, comb, cert in population
        if comb is not None and cert.feasible
    ]
    failures = 0
    for inputs in inputs_set:
        limit = sw.rate_upper_limit(inputs)
        grid = np.linspace(0.0, 0.95 * limit, 40)
        values = [sum(_lhs_terms(inputs, r)) for r in grid]
        failures += any(b <= a for a, b in zip(values, values[1:]))
        eps_grid = np.linspace(0.0, 1.0, 40)
        at_rate = [
            sum(_lhs_terms(replace(inputs, max_commutator_norm=e), 0.05))
            for e in eps_grid
        ]
        failures += any(b <= a for a, b in zip(at_rate, at_rate[1:]))
        best = sw.max_certified_rate(inputs)
        if best is None:
            failures += 1
            continue
        at_boundary = abs(best - limit) <= 1e-12
        near_unity = abs(sum(_lhs_terms(inputs, best)) - 1.0) <= 1e-8
        failures += not (near_unity or at_boundary)
    ok = failures == 0
    assert _verdict(
        capsys,
        7,
        f"monotonicity and bisection endpoint on {len(inputs_set)} input sets "
        f"({failures} failures)",
        ok,
    )


# --- criterion 8: determinism ----------------------------------------------


def test_criterion_8_determinism(capsys, tmp_path):
    def run(out):
        return subprocess.run(
            [
                sys.executable, "-m", "swstab.cli",
                "experiment", "--n", "10", "--dim", "2", "--seed", "7",
                "--out", str(out),
            ],
            capture_output=True,
        )

    a, b = tmp_path / "run_a", tmp_path / "run_b"
    ra, rb = run(a), run(b)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    ok = (
        ra.returncode == rb.returncode
        and ra.stdout == rb.stdout
        and files_a == files_b
        and all((a / f).read_bytes() == (b / f).read_bytes() for f in files_a)
    )
    assert _verdict(
        capsys,
        8,
        f"byte-identical reruns of the pipeline "
        f"({len(files_a)} files, exit code {ra.returncode})",
        ok,
    )
