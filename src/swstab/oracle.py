"""Brute-force machinery backing the stability certificate.

Everything here re-derives, by direct enumeration or direct matrix
arithmetic, the objects the certificate takes on faith: the exchange
identity behind the commutator bookkeeping, the rewriting of an admissible
product into (left part) * combination^m + correction, and the exponential
envelope over every admissible product up to a horizon.  The envelope
comes from one batched scan of the time-expanded switch graph: one
broadcast matmul per edge and one batched SVD per batch of products,
in slices of SLICE products, so its memory stays bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import RATE_SAFETY, CertificateInputs
from .family import MatrixFamily
from .graph import build_graph, walk_to_signal
from .linalg import commutator, mat_power, operator_norm, operator_norms
from .search import StableCombination

DEFAULT_ENUM_CAP = 10_000_000
# Products of one duration the envelope scan expands together; a scan holds
# at most about horizon * SLICE * (largest out-degree) products at once.
SLICE = 1024


class EnumerationCapExceeded(RuntimeError):
    """The product enumeration would outgrow its cap; use a smaller instance."""


@dataclass(frozen=True)
class ProductDecomposition:
    """An admissible product split as main_term + correction.

    main_term is (everything left of m combination blocks) times
    combination^m; correction collects the commutator exchange terms that
    moving those blocks to the early end of the product generated.
    """

    total: np.ndarray
    main_term: np.ndarray
    correction: np.ndarray
    term_count: int
    residual: float
    starts_stable: bool


@dataclass(frozen=True)
class BoundCheck:
    """Worst envelope ratio over all admissible products up to a horizon."""

    max_ratio: float
    witness_walk: tuple[int, ...]
    witness_time: int
    products_checked: int


def exchange_identity_residual(family: MatrixFamily, comb) -> float:
    """Numerical residual of A_l C = C A_l + [A_l, C] over the family.

    Algebraically zero for any square C; the measured value only reflects
    floating-point rounding and should sit at the 1e-12 * scale level.
    """
    c = comb.product if isinstance(comb, StableCombination) else np.asarray(comb, float)
    worst = 0.0
    for a in family.subsystems:
        e = commutator(a, c)
        worst = max(worst, operator_norm(a @ c - (c @ a + e)))
    return worst


@dataclass(frozen=True)
class EnvelopeProfile:
    """Every admissible product up to a horizon, summarised per duration.

    Index t runs over 0..horizon; t = 0 is the empty product (norm 1).
    ``peaks[t]`` is the largest ||P|| over the products of t steps,
    ``first_hits[t]`` the depth-first preorder index of the first product
    that reaches it and ``walks[t]`` that product's vertex walk (its last
    vertex may be a combination block cut short); ``counts[t]`` is the
    number of products of t steps.  No rate enters the scan: exp(rate*t)
    is the same for every product of t steps, so each rate is applied when
    the profile is read.
    """

    basis: int
    block: int
    peaks: tuple[float, ...]
    first_hits: tuple[int, ...]
    walks: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.peaks) - 1

    def bound_check(
        self, rate: float, c: float = 1.0, horizon: int | None = None
    ) -> BoundCheck:
        """Largest ||product|| * exp(rate * t) / c over products of t <= horizon steps.

        The empty product contributes 1 / c.  Among products of equal value
        the witness is the first one in preorder, where the empty product
        comes first.
        """
        horizon = self.horizon if horizon is None else horizon
        if not 0 <= horizon <= self.horizon:
            raise ValueError(f"horizon {horizon} outside the profile's 0..{self.horizon}")
        best, t_best = 1.0, 0
        for t in range(1, horizon + 1):
            value = self.peaks[t] * math.exp(rate * t)
            if value > best or (
                value == best and self.first_hits[t] < self.first_hits[t_best]
            ):
                best, t_best = value, t
        return BoundCheck(
            max_ratio=best / c,
            witness_walk=self.walks[t_best],
            witness_time=t_best,
            products_checked=sum(self.counts[1 : horizon + 1]),
        )

    def sound_rate(self) -> float | None:
        """The rate of `sound_certified_rate`, read from the windows of basis
        to basis+block-1 steps; the profile must reach that far."""
        windows = self.peaks[self.basis : self.basis + self.block]
        if len(windows) < self.block:
            raise ValueError(f"profile horizon {self.horizon} < {self.basis + self.block - 1}")
        if max(windows) >= 1.0:
            return None
        rate = min(-math.log(norm) / t for t, norm in enumerate(windows, start=self.basis))
        return rate * (1.0 - RATE_SAFETY)


def _unit_step_nodes(family: MatrixFamily, comb: StableCombination) -> list:
    """The switch graph with every vertex split into one node per time step.

    A plain vertex is one node; the hub is a chain of one node per step of
    `comb.steps`.  A node is (subsystem matrix, the vertex it opens or
    None, successor nodes).  The nodes that open a vertex come in ascending
    vertex order, so the preorder of the products grown from them is the
    order of their walks.
    """
    graph = build_graph(family.size)
    nodes: list[tuple[np.ndarray, int | None, list[int]]] = []
    first, last = {}, {}
    for v in graph.vertices:
        first[v] = len(nodes)
        for j, ell in enumerate(comb.steps if v == graph.stable_vertex else (v,)):
            nodes.append((family.matrix(ell), None if j else v, [len(nodes) + 1]))
        last[v] = len(nodes) - 1
    for v in graph.vertices:
        nodes[last[v]][2][:] = [first[u] for u in graph.out_neighbors(v)]
    return nodes


def _scan(nodes: list, dim: int, horizon: int):
    """Largest ||product|| at each duration 0..horizon, with the preorder
    index and the vertex walk of the first product reaching it.

    Products are expanded a batch at a time.  A batch holds the children
    of one slice of at most SLICE products of the previous duration,
    sorted by node, so each edge costs one broadcast matmul and each batch
    one batched SVD.  Slices are expanded depth first, so the scan holds
    one batch per duration, not a whole level.  Each product carries its
    preorder index (its parent's, plus 1, plus the subtree sizes of its
    earlier siblings) and the position of its parent in the batch before,
    from which the walk of a new peak is rebuilt.
    """
    peaks = [1.0] + [0.0] * horizon
    first_hits = [0] * (horizon + 1)
    walks: list[tuple[int, ...]] = [()] * (horizon + 1)
    # A last, virtual node holds the empty product; its successors are the
    # nodes that open a vertex.
    roots = [n for n, (_, opens, _) in enumerate(nodes) if opens is not None]
    nodes = nodes + [(np.eye(dim), None, roots)]
    # sizes[r][n]: products in the subtree of a product at node n that may
    # grow r more steps, itself included.
    sizes = [[1] * len(nodes)]
    for _ in range(horizon - 1):
        sizes.append([1 + sum(sizes[-1][c] for c in succ) for _, _, succ in nodes])
    # batches[t]: (products, nodes, preorder indices, parent positions) of
    # the batch of duration t being expanded.
    batches = [(np.eye(dim)[None], np.array([len(nodes) - 1]), np.zeros(1, np.int64), None)]
    batches += [None] * horizon
    todo = [(0, 0)] if horizon > 0 else []
    while todo:
        t, start = todo.pop()
        stack, node, index, _ = batches[t]
        stop = min(start + SLICE, len(node))
        if stop < len(node):
            todo.append((t, stop))
        bounds = start + np.searchsorted(node[start:stop], np.arange(len(nodes) + 1))
        below = sizes[horizon - t - 1]
        parts = []
        for n, (_, _, succ) in enumerate(nodes):
            lo, hi = bounds[n], bounds[n + 1]
            if lo == hi:
                continue
            offset = 1
            for c in succ:
                parts.append((c, nodes[c][0] @ stack[lo:hi], index[lo:hi] + offset, lo, hi))
                offset += below[c]
        parts.sort(key=lambda part: part[0])
        batch = (
            np.concatenate([p for _, p, _, _, _ in parts]),
            np.concatenate([np.full(hi - lo, c) for c, _, _, lo, hi in parts]),
            np.concatenate([i for _, _, i, _, _ in parts]),
            np.concatenate([np.arange(lo, hi) for _, _, _, lo, hi in parts]),
        )
        batches[t + 1] = batch
        norms, index = operator_norms(batch[0]), batch[2]
        ties = np.flatnonzero(norms == norms.max())
        pos = ties[np.argmin(index[ties])]
        if (norms[pos], -index[pos]) > (peaks[t + 1], -first_hits[t + 1]):
            peaks[t + 1], first_hits[t + 1] = float(norms[pos]), int(index[pos])
            walks[t + 1] = _walk(nodes, batches, t + 1, pos)
        if t + 1 < horizon:
            todo.append((t + 1, 0))
    return peaks, first_hits, walks


def _walk(nodes: list, batches: list, t: int, pos: int) -> tuple[int, ...]:
    """The vertex walk of the product at `pos` in the batch of duration t."""
    walk = []
    for s in range(t, 0, -1):
        _, node, _, parent = batches[s]
        if nodes[node[pos]][1] is not None:
            walk.append(nodes[node[pos]][1])
        pos = parent[pos]
    return tuple(reversed(walk))


def envelope_profile(
    family: MatrixFamily,
    comb: StableCombination,
    horizon: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> EnvelopeProfile:
    """Scan every admissible product of 1..horizon steps once.

    Products run over the unit-step graph, so the ones that stop mid-way
    through a combination block (which no whole-vertex walk represents)
    are covered as well.  The products of each duration are counted
    first, and more than `cap` of them in total raise
    EnumerationCapExceeded before any is multiplied.
    """
    nodes = _unit_step_nodes(family, comb)
    counts, level = [1], [int(opens is not None) for _, opens, _ in nodes]
    for _ in range(horizon):
        counts.append(sum(level))
        if sum(counts) - 1 > cap:
            raise EnumerationCapExceeded(f"more than {cap} products up to horizon {horizon}")
        nxt = [0] * len(nodes)
        for (_, _, succ), n in zip(nodes, level):
            for child in succ:
                nxt[child] += n
        level = nxt
    # operator_norms refuses a product past double range; no overflow
    # warning from its matmul precedes that error
    with np.errstate(over="ignore"):
        peaks, first_hits, walks = _scan(nodes, family.dim, horizon)
    return EnvelopeProfile(
        basis=basis_length(family, comb),
        block=comb.block_duration,
        peaks=tuple(peaks),
        first_hits=tuple(first_hits),
        walks=tuple(walks),
        counts=tuple(counts),
    )


def basis_length(family: MatrixFamily, comb: StableCombination) -> int:
    """Product length the envelope constant must cover: m*(block + N)."""
    return comb.contraction_power * (comb.block_duration + family.size)


def envelope_constant(
    family: MatrixFamily,
    comb: StableCombination,
    rate: float,
    horizon: int | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> float:
    """Smallest c >= 1 with ||product|| <= c * exp(-rate * t) up to `horizon`.

    Computed exhaustively over every admissible product; the floor of 1
    covers the empty product at t=0.  The default horizon is the basis
    length the induction argument requires.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    if horizon is None:
        horizon = basis_length(family, comb)
    return envelope_profile(family, comb, horizon, cap).bound_check(rate).max_ratio


def envelope_constant_bound(
    family: MatrixFamily,
    comb: StableCombination,
    rate: float,
    horizon: int | None = None,
) -> float:
    """Closed-form upper bound on the envelope constant.

    Every factor of an admissible product has norm at most the largest
    subsystem norm M, so c <= (M * exp(rate))^horizon.  Loose but valid;
    used when exhaustive enumeration would exceed its cap.  May return inf
    for horizons far beyond double range.
    """
    if horizon is None:
        horizon = basis_length(family, comb)
    m1 = max(operator_norm(a) for a in family.subsystems)
    log_c = horizon * (math.log(m1) + rate)
    return math.inf if log_c > 709.0 else max(1.0, math.exp(log_c))


def capped_envelope(
    family: MatrixFamily,
    comb: StableCombination,
    rate: float,
    horizon: int | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[float, str, EnvelopeProfile | None]:
    """The envelope constant at `rate`, its method and the profile it was read from.

    One scan to `horizon` (default and minimum: the basis length), or to
    the basis alone when that outgrows `cap`, gives the exhaustive
    constant over the basis.  When the basis outgrows `cap` too, the
    constant is `envelope_constant_bound`, the method "norm-bound" and
    the profile None.
    """
    basis = basis_length(family, comb)
    for h in (basis,) if horizon in (None, basis) else (horizon, basis):
        try:
            profile = envelope_profile(family, comb, h, cap)
        except EnumerationCapExceeded:
            continue
        return profile.bound_check(rate, horizon=basis).max_ratio, "exhaustive", profile
    return envelope_constant_bound(family, comb, rate), "norm-bound", None


def exhaustive_bound_check(
    family: MatrixFamily,
    comb: StableCombination,
    rate: float,
    c: float,
    horizon: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> BoundCheck:
    """Check ||product|| <= c * exp(-rate * t) over every admissible product.

    Returns the largest ratio ||product|| * exp(rate*t) / c together with
    the walk (and time within it) achieving it; a value <= 1 certifies the
    envelope exhaustively up to `horizon`.
    """
    if c <= 0.0:
        raise ValueError("envelope constant must be positive")
    return envelope_profile(family, comb, horizon, cap).bound_check(rate, c)


def sound_certified_rate(
    family: MatrixFamily,
    comb: StableCombination,
    cap: int = DEFAULT_ENUM_CAP,
) -> float | None:
    """A decay rate the envelope provably holds at for every graph schedule.

    Let L = basis_length and B = block_duration.  The rate r is the
    minimum of -ln||W|| / t over every admissible product W that starts at
    a vertex boundary and lasts t in [L, L+B-1] steps (windows ending
    mid-way through a combination block included), shrunk by RATE_SAFETY.
    None means some such window has ||W|| >= 1, so no positive rate
    follows.

    Induction: with c = envelope_constant(family, comb, r) at its default
    horizon L, ||P_t|| <= c * exp(-r*t) holds for t <= L by definition of
    c.  For t > L let s be the last vertex boundary <= t-L; since a vertex
    lasts at most B steps, the window [s, t) starts at a vertex boundary
    and lasts between L and L+B-1 steps, so its norm is at most
    exp(-r*(t-s)), and ||P_t|| <= exp(-r*(t-s)) * c * exp(-r*s).

    Raises EnumerationCapExceeded when the windows outgrow `cap`.
    """
    horizon = basis_length(family, comb) + comb.block_duration - 1
    return envelope_profile(family, comb, horizon, cap).sound_rate()


def correction_bounds(inputs: CertificateInputs) -> tuple[int, float]:
    """A-priori bounds on `decompose_product`'s correction: at most
    N*m*(m+1)/2 terms, each of norm at most M1^(m*N-1) * M2^(m-1) * eps."""
    n, m = inputs.n_subsystems, inputs.contraction_power
    count = n * m * (m + 1) // 2
    norm = (
        count
        * inputs.max_subsystem_norm ** (m * n - 1)
        * inputs.combination_norm ** (m - 1)
        * inputs.max_commutator_norm
    )
    return count, norm


def _evaluate_tokens(tokens, family, comb_matrix, comm) -> np.ndarray:
    p = np.eye(family.dim)
    for tok in reversed(tokens):
        kind = tok[0]
        if kind == "A":
            factor = family.matrix(tok[1])
        elif kind == "C":
            factor = comb_matrix
        else:
            factor = comm[tok[1]]
        p = factor @ p
    return p


def decompose_product(
    family: MatrixFamily,
    comb: StableCombination,
    walk_segment,
) -> ProductDecomposition:
    """Rewrite the product of a basis-length segment around combination^m.

    The segment must expand to exactly m*(block + N) time steps and contain
    at least m combination blocks.  The m earliest blocks are commuted to
    the early end of the product with the exchange identity
    C A_l = A_l C - [A_l, C]; every swap past a plain factor freezes one
    correction term (sign -1, one commutator factor, one combination block
    fewer).  The pieces are then evaluated numerically.
    """
    graph = build_graph(family.size)
    hub = graph.stable_vertex
    walk = [int(v) for v in walk_segment]
    m = comb.contraction_power
    needed = basis_length(family, comb)
    duration = walk_to_signal(graph, walk, comb).duration
    if duration != needed:
        raise ValueError(
            f"segment duration {duration} != required basis length {needed}"
        )
    n_blocks = sum(1 for v in walk if v == hub)
    if n_blocks < m:
        raise ValueError(
            f"segment holds {n_blocks} combination blocks, needs at least {m}"
        )

    comb_matrix = np.asarray(comb.product, dtype=float)
    comm = {
        ell: commutator(family.matrix(ell), comb_matrix)
        for ell in range(1, family.size + 1)
    }
    # Product order: leftmost token is the latest time step.
    tokens = [("C",) if v == hub else ("A", v) for v in reversed(walk)]
    total = _evaluate_tokens(tokens, family, comb_matrix, comm)

    main = list(tokens)
    terms: list[list[tuple]] = []
    for settled in range(m):
        boundary = len(main) - settled  # positions >= boundary hold moved blocks
        idx = max(i for i in range(boundary) if main[i] == ("C",))
        while idx < boundary - 1:
            nxt = main[idx + 1]
            if nxt[0] == "A":
                terms.append(main[:idx] + [("E", nxt[1])] + main[idx + 2 :])
            # adjacent combination blocks commute exactly: swap, no term
            main[idx], main[idx + 1] = nxt, main[idx]
            idx += 1

    left = _evaluate_tokens(main[: len(main) - m], family, comb_matrix, comm)
    main_term = left @ mat_power(comb_matrix, m)
    correction = np.zeros((family.dim, family.dim))
    for term in terms:
        correction -= _evaluate_tokens(term, family, comb_matrix, comm)
    residual = operator_norm(total - (main_term + correction))
    return ProductDecomposition(
        total=total,
        main_term=main_term,
        correction=correction,
        term_count=len(terms),
        residual=residual,
        starts_stable=bool(walk and walk[0] == hub),
    )
