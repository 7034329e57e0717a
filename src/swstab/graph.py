"""Switching schedules as walks on a chain-plus-hub directed graph.

Vertices 1..N stand for the plain subsystems and vertex N+1 for the stable
two-subsystem combination.  Edges run along the ascending chain (l, l+1),
from every plain vertex into the hub, and from the hub back to every plain
vertex.  Any infinite walk on this graph expands into a switching signal:
a plain vertex dwells one step, the hub runs the combination block
`StableCombination.steps`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .search import StableCombination

#: Walk policies understood by WalkGenerator / generate_walk.
POLICIES = ("uniform-random", "round-robin", "alternate-stable")


@dataclass(frozen=True)
class SwitchGraph:
    n_subsystems: int
    allow_stable_self_loop: bool = False

    def __post_init__(self):
        if self.n_subsystems < 1:
            raise ValueError("need at least one subsystem vertex")
        n, hub = self.n_subsystems, self.n_subsystems + 1
        chain = {(ell, ell + 1) for ell in range(1, n)}
        into_hub = {(ell, hub) for ell in range(1, n + 1)}
        from_hub = {(hub, ell) for ell in range(1, n + 1)}
        extra = {(hub, hub)} if self.allow_stable_self_loop else set()
        edges = frozenset(chain | into_hub | from_hub | extra)
        out = {
            v: tuple(sorted(w for (u, w) in edges if u == v))
            for v in range(1, hub + 1)
        }
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_out", out)

    @property
    def stable_vertex(self) -> int:
        return self.n_subsystems + 1

    @property
    def vertices(self) -> range:
        return range(1, self.n_subsystems + 2)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        if v not in self.vertices:
            raise ValueError(f"vertex {v} outside 1..{self.stable_vertex}")
        return self._out[v]


def build_graph(n_subsystems: int, allow_stable_self_loop: bool = False) -> SwitchGraph:
    """The chain-plus-hub graph on N+1 vertices.

    The hub self-loop is off by default (it is not part of the scheduling
    construction); enabling it admits purely periodic schedules as walks.
    """
    return SwitchGraph(n_subsystems, allow_stable_self_loop)


def validate_walk(graph: SwitchGraph, vertices: Sequence[int]) -> list[int]:
    """Check vertex ranges and adjacency; raise naming the first bad pair."""
    walk = [int(v) for v in vertices]
    for v in walk:
        if v not in graph.vertices:
            raise ValueError(f"vertex {v} outside 1..{graph.stable_vertex}")
    for u, v in zip(walk, walk[1:]):
        if (u, v) not in graph.edges:
            raise ValueError(f"({u}, {v}) is not an edge of the switch graph")
    return walk


class WalkGenerator:
    """Resumable walk generator for one policy.

    Policies:
      * ``uniform-random`` -- the start vertex and every successor are
        drawn uniformly; randomness comes from numpy's PCG64
        so identical seeds reproduce identical walks anywhere.
      * ``round-robin`` -- always moves to the smallest out-neighbor,
        cycling through the subsystems in ascending order.
      * ``alternate-stable`` -- hub, partner, hub, partner, ...

    A generator is single-threaded mutable state; create one per thread.
    """

    def __init__(
        self,
        graph: SwitchGraph,
        policy: str,
        seed: int | None = None,
        partner: int = 1,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if policy == "uniform-random" and seed is None:
            raise ValueError("uniform-random policy requires a seed")
        if not 1 <= partner <= graph.n_subsystems:
            raise ValueError(f"partner {partner} is not a subsystem index")
        self.graph = graph
        self.policy = policy
        self.partner = partner
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._last: int | None = None

    def _first_vertex(self) -> int:
        if self.policy == "uniform-random":
            return int(self._rng.integers(1, self.graph.stable_vertex + 1))
        if self.policy == "alternate-stable":
            return self.graph.stable_vertex
        return 1  # round-robin

    def _next_vertex(self, last: int) -> int:
        options = self.graph.out_neighbors(last)
        if self.policy == "uniform-random":
            return int(options[self._rng.integers(len(options))])
        if self.policy == "alternate-stable":
            return (
                self.partner
                if last == self.graph.stable_vertex
                else self.graph.stable_vertex
            )
        return options[0]  # round-robin

    def take(self, n: int) -> list[int]:
        """The next n vertices of the walk."""
        out = []
        for _ in range(n):
            v = self._first_vertex() if self._last is None else self._next_vertex(self._last)
            out.append(v)
            self._last = v
        return out


def generate_walk(
    graph: SwitchGraph,
    policy: str,
    steps: int,
    seed: int | None = None,
    *,
    partner: int = 1,
) -> list[int]:
    """A walk of `steps` vertices under the given policy."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return WalkGenerator(graph, policy, seed=seed, partner=partner).take(steps)


def walk_for_horizon(
    graph: SwitchGraph,
    comb: StableCombination,
    policy: str,
    seed: int,
    horizon: int,
    partner: int = 1,
) -> list[int]:
    """The seeded schedule of a run: vertices until the signal covers `horizon` steps.

    The vertices come one at a time from a WalkGenerator seeded with
    SeedSequence((seed, 0)); the trials of the same run draw their initial
    states from (seed, 1 + k), see `swstab.simulate.trial_x0`.
    """
    gen = WalkGenerator(
        graph, policy, seed=np.random.SeedSequence((seed, 0)), partner=partner
    )
    walk, duration = [], 0
    while duration < horizon:
        v = gen.take(1)[0]
        walk.append(v)
        duration += comb.block_duration if v == graph.stable_vertex else 1
    return walk


@dataclass(frozen=True)
class SwitchingSignal:
    """A switching schedule: the subsystem index active at each time step."""

    steps: tuple[int, ...]

    @property
    def duration(self) -> int:
        return len(self.steps)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["t", "sigma"])
            writer.writerows(enumerate(self.steps))


def walk_to_signal(
    graph: SwitchGraph, walk: Iterable[int], comb: StableCombination
) -> SwitchingSignal:
    """Expand walk vertices into steps: a plain vertex runs its own
    subsystem for one step, the hub runs the combination block `comb.steps`."""
    steps: list[int] = []
    for v in walk:
        if v == graph.stable_vertex:
            steps += comb.steps
        elif v in graph.vertices:
            steps.append(int(v))
        else:
            raise ValueError(f"vertex {v} outside 1..{graph.stable_vertex}")
    return SwitchingSignal(tuple(steps))


def max_stable_gap(graph: SwitchGraph, walk: Sequence[int]) -> int:
    """Longest run of consecutive plain vertices between hub visits.

    Counts the prefix before the first hub visit and the tail after the
    last one; the graph structure bounds the result by N on valid walks.
    """
    gap = best = 0
    for v in walk:
        if v == graph.stable_vertex:
            gap = 0
        else:
            gap += 1
            best = max(best, gap)
    return best
