"""Switching schedules as walks on a chain-plus-hub directed graph.

Vertices 1..N stand for the plain subsystems and vertex N+1 for the stable
two-subsystem combination.  Edges run along the ascending chain (l, l+1),
from every plain vertex into the hub, and from the hub back to every plain
vertex.  Any infinite walk on this graph expands into a switching signal:
a plain vertex dwells one step, the hub runs the combination block
`StableCombination.steps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .search import StableCombination

#: Walk policies understood by WalkGenerator / generate_walk.
POLICIES = ("uniform-random", "round-robin", "alternate-stable")


@dataclass(frozen=True)
class SwitchGraph:
    n_subsystems: int

    def __post_init__(self):
        if self.n_subsystems < 1:
            raise ValueError("need at least one subsystem vertex")
        n, hub = self.n_subsystems, self.n_subsystems + 1
        # out[v]: the sorted out-neighbours of vertex v; out[0] holds the
        # vertices a walk may start at.  A plain vertex goes up the chain
        # and into the hub, the last one only into the hub, and the hub
        # back to every plain vertex.
        out = (
            (tuple(range(1, hub + 1)),)
            + tuple((ell + 1, hub) for ell in range(1, n))
            + ((hub,), tuple(range(1, hub)))
        )
        edges = frozenset((v, w) for v in range(1, hub + 1) for w in out[v])
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
        return self._out[int(v)]


def build_graph(n_subsystems: int) -> SwitchGraph:
    """The chain-plus-hub graph on N+1 vertices; the hub has no self-loop."""
    return SwitchGraph(n_subsystems)


def validate_walk(graph: SwitchGraph, vertices: Sequence[int]) -> list[int]:
    """Check vertex ranges and adjacency; raise naming the first bad pair."""
    walk = list(map(int, vertices))
    valid, edges = graph.vertices, graph.edges
    if not set(walk).issubset(valid):
        v = next(v for v in walk if v not in valid)
        raise ValueError(f"vertex {v} outside 1..{graph.stable_vertex}")
    if not edges.issuperset(zip(walk, walk[1:])):
        u, v = next(pair for pair in zip(walk, walk[1:]) if pair not in edges)
        raise ValueError(f"({u}, {v}) is not an edge of the switch graph")
    return walk


_WORD = 0xFFFFFFFF
_TWO_32 = 1 << 32
# 64-bit outputs the word buffer draws at each refill.
_REFILL = 32


class WalkGenerator:
    """Resumable walk generator for one policy.

    Policies:
      * ``uniform-random`` -- the start vertex and every successor are
        drawn uniformly; randomness comes from numpy's PCG64 so identical
        seeds reproduce identical walks anywhere.
      * ``round-robin`` -- always moves to the smallest out-neighbor,
        cycling through the subsystems in ascending order.
      * ``alternate-stable`` -- hub, partner, hub, partner, ...

    Only ``uniform-random`` reads ``seed``; the two deterministic policies
    ignore it and build no bit generator.

    Stream contract: a ``uniform-random`` walk makes the same draws as
    ``Generator(PCG64(seed))`` called as ``integers(1, N + 2)`` for the
    start vertex and ``integers(len(options))`` for each successor, so its
    walks equal those of that scalar loop.  The generator reads PCG64's
    64-bit outputs in bulk and hands them out as 32-bit words, the low
    half of each output first and then the high half, as PCG64's
    ``next_uint32`` does.  A word w maps to [0, k) by Lemire's method as
    numpy applies it (Lemire 2019, ACM TOMACS 29(1)): m = w * k is
    rejected while m mod 2**32 < (2**32 - k) mod k, else the draw is
    m >> 32.  A vertex with one out-neighbor consumes no word.

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
        self._bits = np.random.PCG64(seed) if policy == "uniform-random" else None
        self._words: list[int] = []  # buffered 32-bit words, next one last
        self._out = graph._out
        self._last = 0  # 0 before the first vertex: _out[0] are the start vertices

    def _draw(self, k: int) -> int:
        """A uniform integer in [0, k), 2 <= k < 2**32, from the next words."""
        words = self._words
        while True:
            if not words:
                raw = self._bits.random_raw(_REFILL)
                # as little-endian 32-bit halves: each output's low half first
                words += raw.astype("<u8", copy=False).view("<u4")[::-1].tolist()
            m = words.pop() * k
            if m & _WORD >= (_TWO_32 - k) % k:
                return m >> 32

    def take(self, n: int) -> list[int]:
        """The next n vertices of the walk."""
        out, v, succ = [], self._last, self._out
        if self.policy == "uniform-random":
            draw = self._draw
            for _ in range(n):
                options = succ[v]
                v = options[draw(len(options))] if len(options) > 1 else options[0]
                out.append(v)
        elif self.policy == "alternate-stable":
            hub = self.graph.stable_vertex
            for _ in range(n):
                v = self.partner if v == hub else hub
                out.append(v)
        else:  # round-robin
            for _ in range(n):
                v = succ[v][0]
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

    The vertices come from a WalkGenerator seeded with
    SeedSequence((seed, 0)); the trials of the same run draw their initial
    states from (seed, 1 + k), see `swstab.simulate.trial_x0`.  No vertex
    past the last one the walk needs is drawn.
    """
    gen = WalkGenerator(
        graph, policy, seed=np.random.SeedSequence((seed, 0)), partner=partner
    )
    walk, duration = [], 0
    hub, block = graph.stable_vertex, comb.block_duration
    while duration < horizon:
        # no vertex runs more than `block` steps, so each of these is needed
        for v in gen.take(-(-(horizon - duration) // block)):
            walk.append(v)
            duration += block if v == hub else 1
    return walk


def _write_csv(path, name: str, values: Sequence, fmt: str) -> None:
    """The header `t,<name>` and one row `t,value` per value, `fmt` formatting
    the value, CRLF-terminated as the csv module writes them; one `%`
    formats the file and one write writes it."""
    cells = [0] * (2 * len(values))
    cells[::2], cells[1::2] = range(len(values)), values
    with open(path, "w", newline="") as f:
        f.write((f"t,{name}\r\n" + f"%d,{fmt}\r\n" * len(values)) % tuple(cells))


@dataclass(frozen=True)
class SwitchingSignal:
    """A switching schedule: the subsystem index active at each time step."""

    steps: tuple[int, ...]

    @property
    def duration(self) -> int:
        return len(self.steps)

    def write_csv(self, path) -> None:
        """The header `t,sigma` and one row per step."""
        _write_csv(path, "sigma", self.steps, "%d")


def walk_to_signal(
    graph: SwitchGraph, walk: Iterable[int], comb: StableCombination
) -> SwitchingSignal:
    """Expand walk vertices into steps: a plain vertex runs its own
    subsystem for one step, the hub runs the combination block `comb.steps`."""
    steps: list[int] = []
    hub, valid, block = graph.stable_vertex, graph.vertices, comb.steps
    for v in walk:
        if v == hub:
            steps += block
        elif v in valid:
            steps.append(int(v))
        else:
            raise ValueError(f"vertex {v} outside 1..{hub}")
    return SwitchingSignal(tuple(steps))


def max_stable_gap(graph: SwitchGraph, walk: Sequence[int]) -> int:
    """Longest run of consecutive plain vertices between hub visits.

    Counts the prefix before the first hub visit and the tail after the
    last one; the graph structure bounds the result by N on valid walks.
    """
    gap = best = 0
    hub = graph.stable_vertex
    for v in walk:
        if v == hub:
            gap = 0
        else:
            gap += 1
            if gap > best:  # a comparison costs less than a max() call
                best = gap
    return best
