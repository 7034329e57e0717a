import pytest

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


def test_two_subsystem_graph_edges():
    g = build_graph(2)
    assert g.stable_vertex == 3
    assert set(g.vertices) == {1, 2, 3}
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3), (3, 1), (3, 2)})


def test_self_loop_is_opt_in():
    assert (3, 3) not in build_graph(2).edges
    assert (3, 3) in build_graph(2, allow_stable_self_loop=True).edges


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


def test_max_stable_gap():
    g = build_graph(3)
    assert max_stable_gap(g, [1, 2, 3, 4, 1, 4]) == 3
    assert max_stable_gap(g, [4, 4, 4]) == 0
    assert max_stable_gap(g, [1, 2, 3]) == 3


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
