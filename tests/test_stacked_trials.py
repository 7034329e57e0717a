"""The stacked trial stage against a frozen per-trial loop.

`seeded_trials` steps all trials of a run together, one matmul per step
and stack.  `reference_trials` below is the loop it replaced: one
`simulate` per trial, each stepping `a @ x` on its own (d,) state from
`trial_x0(seed, k, d)`.  States and norms must be the same, bit for bit;
if a numpy upgrade changes how a stacked matmul sums, these tests fail.
`Trajectory.write_csv` is checked against the `csv.writer` it replaced.
"""

import csv
import math

import numpy as np
import pytest

import swstab.linalg as linalg
from swstab import (
    MatrixFamily,
    StableCombination,
    Trajectory,
    build_graph,
    find_stable_combination,
    seeded_trials,
    walk_for_horizon,
    walk_to_signal,
)
from swstab.graph import POLICIES

pytestmark = pytest.mark.filterwarnings("error")

HORIZON = 200


def reference_trials(family, signal, seed, trials, horizon):
    for k in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 1 + k))))
        x = rng.uniform(-1.0, 1.0, size=family.dim)
        states = np.empty((horizon + 1, family.dim))
        states[0] = x
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(horizon):
                x = states[t + 1] = family.matrix(signal.steps[t]) @ x
            norms = np.linalg.norm(states, axis=1)
        yield states, norms


def assert_same_trials(family, signal, seed, trials, horizon=HORIZON):
    got = list(seeded_trials(family, signal, seed, trials, horizon))
    want = list(reference_trials(family, signal, seed, trials, horizon))
    assert len(got) == len(want) == trials
    for traj, (states, norms) in zip(got, want):
        assert traj.states.shape == states.shape and traj.norms.shape == norms.shape
        assert traj.states.tobytes() == states.tobytes()
        assert traj.norms.tobytes() == norms.tobytes()
    return got


def dense_family(dim, seed):
    rng = np.random.default_rng(seed)
    return MatrixFamily(tuple(rng.uniform(-1.1, 1.1, size=(3, dim, dim))))


# a schedule reads only the block of a combination: A_2 once, then A_1 twice
BLOCK = StableCombination(
    head=1, tail=2, head_power=2, tail_power=1,
    product=np.zeros((1, 1)), contraction_power=1, contraction_norm=0.5,
)


def run_signal(family, comb, policy, seed, horizon=HORIZON):
    graph = build_graph(family.size)
    return walk_to_signal(graph, walk_for_horizon(graph, comb, policy, seed, horizon), comb)


@pytest.mark.parametrize("trials", [0, 1, 100])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 10])
def test_stacked_trials_equal_the_per_trial_loop(dim, policy, trials):
    seed = 31 * dim + POLICIES.index(policy)
    family = dense_family(dim, seed)
    assert_same_trials(family, run_signal(family, BLOCK, policy, seed), seed, trials)


@pytest.mark.parametrize("per_stack", [1, 3, 7])
def test_stacks_stay_within_the_entry_bound(monkeypatch, per_stack):
    # BATCH_ENTRIES is read at call time; 10 trials then run in stacks of
    # per_stack, the last one short
    dim = 3
    monkeypatch.setattr(linalg, "BATCH_ENTRIES", per_stack * (HORIZON + 1) * dim + dim)
    family = dense_family(dim, 5)
    got = assert_same_trials(family, run_signal(family, BLOCK, "uniform-random", 5), 5, 10)
    stacks = {id(traj.states.base): traj.states.base for traj in got}
    assert len(stacks) == math.ceil(10 / per_stack)
    assert all(stack.size <= linalg.BATCH_ENTRIES for stack in stacks.values())


def test_a_trial_longer_than_the_bound_is_a_stack_of_its_own(monkeypatch):
    monkeypatch.setattr(linalg, "BATCH_ENTRIES", 16)
    family = dense_family(2, 9)
    got = assert_same_trials(family, run_signal(family, BLOCK, "round-robin", 9), 9, 4)
    assert len({id(traj.states.base) for traj in got}) == 4


@pytest.mark.parametrize("policy", POLICIES)
def test_trials_past_double_range(policy):
    family = MatrixFamily(
        (np.diag([1e160, 1e-170]), np.diag([1e160, 1e-170]), np.diag([1e-170, 1e160]))
    )
    comb = find_stable_combination(family)
    got = assert_same_trials(family, run_signal(family, comb, policy, 3), 3, 20)
    assert any(not np.isfinite(traj.norms).all() for traj in got)


def test_zero_state_trials():
    # round-robin opens with the zero matrix: every state is 0 from step 1 on
    family = MatrixFamily((np.zeros((2, 2)), np.diag([1.2, 0.4]), np.diag([0.4, 1.2])))
    comb = find_stable_combination(family)
    got = assert_same_trials(family, run_signal(family, comb, "round-robin", 0), 0, 5)
    assert all(not traj.norms[1:].any() for traj in got)


def reference_csv(path, norms):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "norm"])
        for t, norm in enumerate(norms):
            writer.writerow([t, f"{norm:.17g}"])


def test_write_csv_gives_the_bytes_of_csv_writer(tmp_path):
    decaying = 1.7 * 0.93 ** np.arange(201.0)
    special = [math.inf, math.nan, 0.0, 5e-324, 1.7976931348623157e308, -0.0, 1.0]
    for norms in (np.array(special), decaying, np.concatenate([decaying, special])):
        Trajectory(states=np.zeros((norms.size, 1)), norms=norms).write_csv(tmp_path / "got.csv")
        reference_csv(tmp_path / "want.csv", norms)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

