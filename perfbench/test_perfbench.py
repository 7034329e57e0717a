"""The benchmark's own tests: counts, comparisons and a smoke run of every workload.

    python -m pytest perfbench -q

The smoke runs call run.py on the command line, one second per
run, at the default seed (checked against reference.json) and at one
held-out seed (checked against invariants only).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import counts  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

import swstab as sw  # noqa: E402

HELD_OUT_SEED = 3
COUNT_METRICS = (
    "instances.count",
    "search.candidates_scanned",
    "search.hit_share",
    "certificate.feasible_share",
    "graph.vertices",
    "simulate.steps",
    "oracle.products_admissible",
    "oracle.products_checked",
    "oracle.visit_share",
    "oracle.cap_fallbacks",
    "cli.bytes_written",
)


def bench(workload, seed, trace, cwd=ROOT, seconds=1):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["mismatches"]
    assert result["attempted"] >= 1
    return details, result


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == declared("end_to_end")
    assert run.PER_LAYER == declared("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


# --- counts computed from outside agree with the program ------------------


def test_admissible_products_equal_products_checked():
    diag = wl.diagonal_pair()
    comb = sw.find_stable_combination(diag)
    assert counts.admissible_products(2, 2, 10) == 191
    for h in (1, 4, 10, 13):
        chk = sw.exhaustive_bound_check(diag, comb, 0.3, 1.0, h)
        assert chk.products_checked == counts.admissible_products(2, 2, h)
    family = sw.generate_random_instance(3, 2, 1088)
    comb = sw.find_stable_combination(family)
    chk = sw.exhaustive_bound_check(family, comb, 0.1, 1.0, 11)
    assert chk.products_checked == counts.admissible_products(3, comb.block_duration, 11) == 1424


def test_candidates_scanned_follows_the_scan(monkeypatch):
    import swstab.search as search

    calls = []

    def counting(a, tol=sw.SCHUR_MARGIN):
        calls.append(1)
        return sw.is_schur_stable(a, tol)

    # compute_contraction calls is_schur_stable once more on a hit
    monkeypatch.setattr(search, "is_schur_stable", counting)
    misses = hits = 0
    for seed, n in zip(range(1000, 1030), [2, 3, 10] * 10):
        family = sw.generate_random_instance(n, 2, seed)
        calls.clear()
        comb = search.find_stable_combination(family)
        expected = counts.candidates_scanned(n, comb)
        assert len(calls) == expected + (comb is not None)
        misses += comb is None
        hits += comb is not None
    assert misses and hits
    assert counts.candidates_scanned(2, None) == counts.grid_size(2) == 200


def test_horizons_fill_the_budget():
    for n, block in ((2, 2), (3, 2), (2, 3)):
        start = 11
        hs = counts.horizons_for_budget(n, block, start, wl.DEEP_PRODUCTS)
        total = sum(counts.admissible_products(n, block, h) for h in hs)
        assert hs and min(hs) >= start
        assert wl.DEEP_PRODUCTS - counts.admissible_products(n, block, start) < total
        assert total <= wl.DEEP_PRODUCTS


# --- comparisons ----------------------------------------------------------


def test_compare_tolerates_rounding_only():
    assert wl.compare({"a": [1, 0.5, "x"]}, {"a": [1, 0.5 * (1 + 1e-9), "x"]}) == []
    assert wl.compare({"a": 1.0}, {"a": 1.001})
    assert wl.compare({"a": 1}, {"a": 2})
    assert wl.compare({"a": True}, {"a": 1})
    assert wl.compare([1, 2], [1, 2, 3])
    ref = "x=0.10000000000000001 (191 products) PASS\n"
    assert wl.compare_stdout(ref, "x=0.1 (150 products) PASS\n", "s") == []
    assert wl.compare_stdout(ref, "x=0.1 (192 products) PASS\n", "s")
    assert wl.compare_stdout(ref, "x=0.1 (191 products) FAIL\n", "s")


def test_oracle_reference_allows_ties_and_pruning_only():
    ref = wl.load_reference()["oracle"][0]
    check = dict(ref["checks"][0])
    pruned = {**ref, "checks": [{**check, "checked": check["checked"] - 1, "witness": []}]
              + ref["checks"][1:]}
    grown = {**ref, "checks": [{**check, "checked": check["checked"] + 1}] + ref["checks"][1:]}
    assert wl.Oracle.against_reference(None, ref, pruned, "p") == []
    assert wl.Oracle.against_reference(None, ref, grown, "p")


def test_speed_scales_by_the_samples_around_a_timing():
    for walk in (False, True):
        speed = run.Speed(walk)
        assert speed.ref == run.CAL_REF_S + walk * run.CAL_WALK_REF_S
        speed.samples = [speed.ref, 3 * speed.ref, 2 * speed.ref]
        assert speed.factor(0) == pytest.approx(0.5)
        assert speed.factor(1) == pytest.approx(0.4)
        assert speed.sample() == 3 and speed.samples[3] > 0


def test_ensemble_cycle_is_stratified():
    from tracer import NullTracer

    for seed in (wl.DEFAULT_SEED, HELD_OUT_SEED):
        w = wl.build("ensemble", seed, NullTracer(), ROOT, ROOT)
        got = dict.fromkeys(wl.ENSEMBLE_STRATA, 0)
        for k in range(len(w.cycle)):
            out = w.run_op(k)
            if out["comb"] is None:
                got[f"{out['n']}-miss"] += 1
            else:
                got["feasible" if out["feasible"] else f"{out['n']}-hit"] += 1
        assert got == wl.ENSEMBLE_STRATA, seed
        seeds = [s for s, _ in w.instances]
        assert seeds == sorted(seeds)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(k) for k in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_probe_pins_the_criterion_3_overclaim():
    probe = wl.load_reference()["probe"]
    assert probe["ratio_basis_plus_6"] == pytest.approx(2.999993, abs=1e-6)
    assert probe["admissible_basis_plus_6"] == probe["checked_basis_plus_6"] == 191


def test_oracle_reference_holds_the_default_instances():
    ops = wl.load_reference()["oracle"]
    assert [op["seed"] for op in ops] == [None, 1088, 1111, 1141, 1144]
    assert all(op["checks"][0]["h"] == op["basis"] + wl.ORACLE_EXTRA for op in ops)


# --- smoke runs -----------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke(workload):
    _, result = result_of(bench(workload, wl.DEFAULT_SEED, 0))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())

    held_details, held = result_of(bench(workload, HELD_OUT_SEED, 0))
    assert held_details["checked_against"] == "invariants"
    assert held["metrics"].keys() == result["metrics"].keys()

    first_details, first = result_of(bench(workload, wl.DEFAULT_SEED, 1))
    _, second = result_of(bench(workload, wl.DEFAULT_SEED, 1))
    assert first_details["checked_against"] == "reference"
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    values = {k: v["value"] for k, v in first["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    assert sum(values[f"share.{layer}"] for layer in run.LAYERS) == pytest.approx(100.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("ensemble", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
