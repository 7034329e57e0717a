import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swstab.graph
from swstab import (
    WalkGenerator,
    build_graph,
    find_stable_combination,
    generate_random_instance,
    generate_walk,
    max_stable_gap,
    validate_walk,
    walk_for_horizon,
    walk_to_signal,
)
from swstab.graph import POLICIES


def test_two_subsystem_graph_edges():
    g = build_graph(2)
    assert g.stable_vertex == 3
    assert set(g.vertices) == {1, 2, 3}
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3), (3, 1), (3, 2)})


def test_out_neighbors_sorted():
    g = build_graph(3)
    assert g.out_neighbors(1) == (2, 4)
    assert g.out_neighbors(3) == (4,)
    assert g.out_neighbors(4) == (1, 2, 3)
    with pytest.raises(ValueError):
        g.out_neighbors(5)


def test_validate_walk_names_first_bad_pair():
    g = build_graph(2)
    assert validate_walk(g, [1, 2, 3, 1]) == [1, 2, 3, 1]
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        validate_walk(g, [1, 2, 1])
    with pytest.raises(ValueError, match="vertex 9"):
        validate_walk(g, [1, 9])


def test_round_robin_walk():
    g = build_graph(2)
    assert generate_walk(g, "round-robin", 6) == [1, 2, 3, 1, 2, 3]


def test_alternate_stable_walk():
    g = build_graph(2)
    assert generate_walk(g, "alternate-stable", 6) == [3, 1, 3, 1, 3, 1]
    assert generate_walk(g, "alternate-stable", 4, partner=2) == [3, 2, 3, 2]


@pytest.mark.parametrize("policy", ["round-robin", "alternate-stable"])
def test_deterministic_walks_ignore_the_seed(policy):
    g = build_graph(3)
    assert generate_walk(g, policy, 20, seed=None) == generate_walk(g, policy, 20, seed=7)


def test_uniform_random_walk_is_seeded_and_valid():
    g = build_graph(3)
    w1 = generate_walk(g, "uniform-random", 50, seed=123)
    w2 = generate_walk(g, "uniform-random", 50, seed=123)
    assert w1 == w2
    validate_walk(g, w1)
    assert generate_walk(g, "uniform-random", 50, seed=124) != w1


def test_uniform_random_requires_seed():
    with pytest.raises(ValueError):
        WalkGenerator(build_graph(2), "uniform-random")


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy"):
        WalkGenerator(build_graph(2), "zigzag")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: build_graph(0), "at least one subsystem"),
        (lambda: WalkGenerator(build_graph(2), "round-robin", partner=0), "partner 0 is not"),
        (lambda: WalkGenerator(build_graph(2), "round-robin", partner=3), "partner 3 is not"),
        (lambda: generate_walk(build_graph(2), "round-robin", 0), "steps must be at least 1"),
    ],
    ids=["no-subsystem", "partner-0", "partner-past-n", "no-steps"],
)
def test_graph_refuses_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_generator_is_resumable():
    g = build_graph(2)
    gen = WalkGenerator(g, "uniform-random", seed=7)
    whole = WalkGenerator(g, "uniform-random", seed=7).take(20)
    assert gen.take(8) + gen.take(12) == whole


def test_signal_expansion(diag_comb):
    g = build_graph(2)
    sig = walk_to_signal(g, [3, 1, 3], diag_comb)
    assert sig.steps == (2, 1, 1, 2, 1)
    assert sig.duration == 5
    with pytest.raises(ValueError, match="vertex 4"):
        walk_to_signal(g, [3, 4], diag_comb)


def test_signal_csv_roundtrip(tmp_path, diag_comb):
    g = build_graph(2)
    sig = walk_to_signal(g, [1, 3, 2, 3], diag_comb)
    path = tmp_path / "signal.csv"
    sig.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sigma"
    assert len(lines) == sig.duration + 1
    parsed = [int(line.split(",")[1]) for line in lines[1:]]
    assert parsed == list(sig.steps)
    # the bytes of the csv.writer that write_csv replaced
    with open(tmp_path / "want.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "sigma"])
        writer.writerows(enumerate(sig.steps))
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_max_stable_gap():
    g = build_graph(3)
    assert max_stable_gap(g, [1, 2, 3, 4, 1, 4]) == 3
    assert max_stable_gap(g, [4, 4, 4]) == 0
    assert max_stable_gap(g, [1, 2, 3]) == 3


def _max_call_gap(graph, walk):
    """`max_stable_gap` as it was with one `max()` call per plain vertex,
    frozen as its reference."""
    gap = best = 0
    hub = graph.stable_vertex
    for v in walk:
        if v == hub:
            gap = 0
        else:
            gap += 1
            best = max(best, gap)
    return best


walks_with_their_n = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n + 1), max_size=60))
)


@settings(max_examples=300, deadline=None)
@given(walks_with_their_n)
def test_max_stable_gap_equals_the_max_call_loop(case):
    # any vertex sequence, so walks that start or end with plain vertices,
    # hub-only walks and the empty walk all occur
    n, walk = case
    g = build_graph(n)
    assert max_stable_gap(g, walk) == _max_call_gap(g, walk)


# The schedules `swstab simulate`/`experiment` and criterion 2 run, pinned
# per (policy, seed) at horizon 16; any change of the walk stream shows here.
SCHEDULE_GOLDEN = {
    "diagonal": {
        ("uniform-random", 0): [3, 2, 3, 2, 3, 1, 2, 3, 1, 2, 3],
        ("uniform-random", 7): [3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3],
        ("round-robin", 0): [1, 2, 3] * 4,
        ("round-robin", 7): [1, 2, 3] * 4,
        ("alternate-stable", 0): [3, 1] * 5 + [3],
        ("alternate-stable", 7): [3, 1] * 5 + [3],
    },
    "seed-1088": {
        ("uniform-random", 0): [4, 2, 4, 1, 2, 3, 4, 1, 2, 3, 4, 3],
        ("uniform-random", 7): [4, 2, 4, 3, 4, 2, 4, 3, 4, 1, 2],
        ("round-robin", 0): [1, 2, 3, 4] * 3 + [1],
        ("round-robin", 7): [1, 2, 3, 4] * 3 + [1],
        ("alternate-stable", 0): [4, 1] * 5 + [4],
        ("alternate-stable", 7): [4, 1] * 5 + [4],
    },
}


@pytest.mark.parametrize("name", SCHEDULE_GOLDEN)
def test_walk_for_horizon_golden(name, diag_family):
    family = diag_family if name == "diagonal" else generate_random_instance(3, 2, 1088)
    comb = find_stable_combination(family)
    graph = build_graph(family.size)
    for (policy, seed), walk in SCHEDULE_GOLDEN[name].items():
        assert walk_for_horizon(graph, comb, policy, seed, 16) == walk
        assert walk_to_signal(graph, walk, comb).duration >= 16
        assert walk_to_signal(graph, walk[:-1], comb).duration < 16


class _ScalarWalkGenerator:
    """Frozen copy of the walk generator the bulk-draw one replaced: one
    scalar `Generator.integers` call per drawn vertex, out-neighbours read
    through `out_neighbors`."""

    def __init__(self, graph, policy, seed=None, partner=1):
        self.graph, self.policy, self.partner = graph, policy, partner
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._last = None

    def _first_vertex(self):
        if self.policy == "uniform-random":
            return int(self._rng.integers(1, self.graph.stable_vertex + 1))
        if self.policy == "alternate-stable":
            return self.graph.stable_vertex
        return 1

    def _next_vertex(self, last):
        options = self.graph.out_neighbors(last)
        if self.policy == "uniform-random":
            return int(options[self._rng.integers(len(options))])
        if self.policy == "alternate-stable":
            return self.partner if last == self.graph.stable_vertex else self.graph.stable_vertex
        return options[0]

    def take(self, n):
        out = []
        for _ in range(n):
            v = self._first_vertex() if self._last is None else self._next_vertex(self._last)
            out.append(v)
            self._last = v
        return out


def _scalar_walk_for_horizon(graph, comb, policy, seed, horizon, partner=1):
    """Frozen copy of `walk_for_horizon` on the scalar generator: one
    vertex per `take`."""
    gen = _ScalarWalkGenerator(graph, policy, np.random.SeedSequence((seed, 0)), partner)
    walk, duration = [], 0
    while duration < horizon:
        v = gen.take(1)[0]
        walk.append(v)
        duration += comb.block_duration if v == graph.stable_vertex else 1
    return walk


@pytest.mark.parametrize(
    "n, refill",
    [pytest.param(n, 8, id=str(n)) for n in range(1, 11)]
    + [pytest.param(n, 1, id=f"{n}-refill1") for n in (1, 2, 3, 10)],
)
def test_walks_equal_the_scalar_draws(n, refill, monkeypatch):
    # 2,000 integer seeds per policy; walks of 1..32 vertices end before,
    # at and after a refill of the word buffer: the first one at 16 words
    # with refills of 8 outputs, and every second word with refills of 1.
    monkeypatch.setattr(swstab.graph, "_REFILL", refill)
    graph = build_graph(n)
    for policy in POLICIES:
        for seed in range(2000):
            partner, steps = 1 + seed % n, 1 + seed % 32
            got = WalkGenerator(graph, policy, seed=seed, partner=partner).take(steps)
            want = _ScalarWalkGenerator(graph, policy, seed, partner).take(steps)
            assert got == want, (policy, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_walks_equal_the_scalar_draws_across_takes(n):
    graph = build_graph(n)
    for seed in range(50):
        gen = WalkGenerator(graph, "uniform-random", seed=seed)
        got = gen.take(1) + gen.take(50) + gen.take(149)
        assert got == _ScalarWalkGenerator(graph, "uniform-random", seed).take(200)
    # long enough to cross many refills of the real size
    for seed in range(3):
        got = WalkGenerator(graph, "uniform-random", seed=seed).take(6000)
        assert got == _ScalarWalkGenerator(graph, "uniform-random", seed).take(6000)


def test_walks_equal_the_scalar_draws_for_every_seed_form():
    graph = build_graph(4)
    seeds = [(0, 4, 1, 7), (3,), (2**40, 5), np.random.SeedSequence((7, 0)),
             np.random.SeedSequence(2**100 + 3), 2**70]
    for seed in seeds:
        got = WalkGenerator(graph, "uniform-random", seed=seed).take(300)
        assert got == _ScalarWalkGenerator(graph, "uniform-random", seed).take(300), seed


@pytest.mark.parametrize("name", ["diagonal", "shear", "seed-1088"])
def test_walk_for_horizon_equals_the_scalar_draws(name, diag_family, shear_family):
    family = {
        "diagonal": diag_family,
        "shear": shear_family,
        "seed-1088": generate_random_instance(3, 2, 1088),
    }[name]
    comb = find_stable_combination(family)
    graph = build_graph(family.size)
    for policy in POLICIES:
        for seed in range(40):
            for horizon in (0, 1, 2, 7, 16, 65, 400):
                partner = 1 + seed % family.size
                got = walk_for_horizon(graph, comb, policy, seed, horizon, partner)
                assert got == _scalar_walk_for_horizon(graph, comb, policy, seed, horizon, partner)


def test_lemire_rejects_a_low_word_and_the_next_word_decides():
    # k = 3: words w with (3w mod 2**32) < (2**32 - 3) mod 3 = 1, that is
    # w = 0 only, are rejected.
    gen = WalkGenerator(build_graph(2), "uniform-random", seed=0)
    for second in (0x55555556, 0xAAAAAAAB, 0xFFFFFFFF):
        gen._words[:] = [second, 0]  # the next word is the last one
        assert gen._draw(3) == (3 * second) >> 32
        assert gen._words == []
    gen._words[:] = [0xFFFFFFFF, 1]  # 3 * 1 leaves 3 >= 1: accepted
    assert gen._draw(3) == 0
    assert gen._words == [0xFFFFFFFF]


@pytest.mark.parametrize("k", [3, 5, 2**31 + 1, 2**32 - 1])
def test_lemire_draws_equal_numpy_integers(k):
    # Near k = 2**31 about half of all words are rejected.
    for seed in range(20):
        gen = WalkGenerator(build_graph(2), "uniform-random", seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        assert [gen._draw(k) for _ in range(100)] == [int(rng.integers(k)) for _ in range(100)]
