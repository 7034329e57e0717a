"""Brute-force machinery backing the stability certificate.

Everything here re-derives, by direct enumeration or direct matrix
arithmetic, the objects the certificate takes on faith: the exchange
identity behind the commutator bookkeeping, the rewriting of an admissible
product into (left part) * combination^m + correction, and the exponential
envelope over every admissible product up to a horizon.  The envelope
comes from one batched scan of the time-expanded switch graph, in slices
of SLICE products, so its memory stays bounded: one gathered matmul per
batch of products, a Frobenius-norm screen, and a batched SVD of the few
products that screen keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import RATE_SAFETY, CertificateInputs
from .family import MatrixFamily
from .graph import build_graph, walk_to_signal
from .linalg import NonFiniteMatrixError, commutator, mat_power, operator_norm, operator_norms
from .search import StableCombination

DEFAULT_ENUM_CAP = 10_000_000
# Products of one duration the envelope scan expands together; a scan holds
# at most about horizon * SLICE * (largest out-degree) products at once.
SLICE = 1024
# The envelope scan's norm screen: a relative allowance for rounding in the
# Frobenius norm and the SVD (both err by a few 1e-16 at small d), and the
# Frobenius norm below which a square may have fallen out of the normal
# range (1e-308) and taken the norm out of that allowance.
SCREEN_MARGIN = 1e-10
SCREEN_TINY = 1e-145


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
    ``walks[t]`` the vertex walk of the first product, in depth-first
    preorder, that reaches it (its last vertex may be a combination block
    cut short); ``counts[t]`` is the number of products of t steps.  No
    rate enters the scan: exp(rate*t) is the same for every product of t
    steps, so each rate is applied when the profile is read.
    """

    basis: int
    block: int
    peaks: tuple[float, ...]
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
        the witness is the first one in preorder, which is the order of
        (walk, t): a product comes before its extensions, and the nodes
        that open a vertex come in ascending vertex order.
        """
        horizon = self.horizon if horizon is None else horizon
        if not 0 <= horizon <= self.horizon:
            raise ValueError(f"horizon {horizon} outside the profile's 0..{self.horizon}")
        best, t_best = 1.0, 0
        for t in range(1, horizon + 1):
            value = _times_exp(self.peaks[t], rate * t)
            if value > best or (
                value == best and (self.walks[t], t) < (self.walks[t_best], t_best)
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
        to basis+block-1 steps; the profile must reach that far.  A window
        whose products all vanish sets no bound."""
        windows = self.peaks[self.basis : self.basis + self.block]
        if len(windows) < self.block:
            raise ValueError(f"profile horizon {self.horizon} < {self.basis + self.block - 1}")
        if max(windows) >= 1.0:
            return None
        rates = [-math.log(norm) / t for t, norm in enumerate(windows, start=self.basis) if norm > 0.0]
        return min(rates, default=math.inf) * (1.0 - RATE_SAFETY)


def _times_exp(x: float, y: float) -> float:
    """x * exp(y) for a finite x >= 0: exactly that while exp(y) fits in a
    double, and past that in log space, inf only when the value itself
    leaves double range."""
    if y <= 709.0:
        return x * math.exp(y)
    try:
        return math.exp(math.log(x) + y) if x > 0.0 else 0.0
    except OverflowError:
        return math.inf


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


def _scan(nodes: list, horizon: int):
    """Largest ||product|| at each duration 0..horizon, with the vertex walk
    of the first product, in preorder, reaching it.

    A batch is the children, in preorder, of one slice of at most SLICE
    products of the previous duration (the last node, the virtual root,
    holds the empty product), made by one gathered matmul.  `_screen`
    keeps the products that may raise the peak and tie the batch's
    largest norm, and only those get the exact norm, from one batched SVD.
    A slice's descendants are expanded before the next slice, so the scan
    holds one batch per duration and meets each duration's products in
    preorder.  Each product carries its parent's position in the batch
    before, from which a peak's walk is rebuilt.
    """
    peaks = [1.0] + [0.0] * horizon
    walks: list[tuple[int, ...]] = [()] * (horizon + 1)
    # Node n's successors are the edges first[n] .. first[n]+degree[n]-1;
    # edge e leads to node child[e].
    mats = np.stack([mat for mat, _, _ in nodes])
    degree = np.array([len(succ) for _, _, succ in nodes])
    first = np.cumsum(degree) - degree
    child = np.array([c for _, _, succ in nodes for c in succ])
    # batches[t]: (products, nodes, parent positions) of the batch of
    # duration t being expanded.
    batches = [(mats[-1:], np.array([len(nodes) - 1]), None)] + [None] * horizon
    todo = [(0, 0)] if horizon > 0 else []
    while todo:
        t, start = todo.pop()
        stack, node, _ = batches[t]
        stop = min(start + SLICE, len(node))
        if stop < len(node):
            todo.append((t, stop))
        out = degree[node[start:stop]]
        parent = np.repeat(np.arange(start, stop), out)
        # a child's edge: its parent's first edge plus its rank among siblings
        edge = first[node[parent]] + np.arange(len(parent)) - np.repeat(np.cumsum(out) - out, out)
        kids = child[edge]
        prods = mats[kids] @ stack[parent]
        batches[t + 1] = (prods, kids, parent)
        keep = _screen(prods, peaks[t + 1])
        if keep.any():
            norms = operator_norms(prods[keep])
            best = int(np.argmax(norms))
            if norms[best] > peaks[t + 1]:
                peaks[t + 1] = float(norms[best])
                walks[t + 1] = _walk(nodes, batches, t + 1, int(np.flatnonzero(keep)[best]))
        if t + 1 < horizon:
            todo.append((t + 1, 0))
    return peaks, walks


def _screen(prods: np.ndarray, peak: float) -> np.ndarray:
    """Which products of a (k, d, d) batch may raise `peak` and tie the
    batch's largest norm, as a boolean mask.

    sigma <= ||P||_F <= sqrt(d) * sigma bounds each product's norm by
    lo <= sigma <= hi, widened by SCREEN_MARGIN for rounding.  A product
    with hi <= peak cannot raise the peak, and one with hi below another's
    lo cannot tie it, so the first largest norm among the survivors is the
    first largest of the batch.  A nonzero product whose squares may have
    left the normal range always survives and sets no lo.  A non-finite
    entry anywhere in the batch raises NonFiniteMatrixError.
    """
    f = np.sqrt(np.einsum("kij,kij->k", prods, prods))
    top = f.max()
    if not (f.min() >= SCREEN_TINY and top < np.inf):
        if not np.isfinite(prods).all():
            raise NonFiniteMatrixError("matrix entries must be finite")
        wild = ((f < SCREEN_TINY) | (f == np.inf)) & prods.any(axis=(1, 2))
        top = f[~wild].max(initial=0.0)
        f[wild] = np.inf
    hi = f * (1.0 + SCREEN_MARGIN)
    return (hi > peak) & (hi >= top * ((1.0 - SCREEN_MARGIN) / math.sqrt(prods.shape[1])))


def _walk(nodes: list, batches: list, t: int, pos: int) -> tuple[int, ...]:
    """The vertex walk of the product at `pos` in the batch of duration t."""
    walk = []
    for s in range(t, 0, -1):
        _, node, parent = batches[s]
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
    are covered as well.  The products are counted first, duration by
    duration, and more than `cap` of them in total raise
    EnumerationCapExceeded before any is multiplied.
    """
    nodes = _unit_step_nodes(family, comb)
    # A last, virtual root holds the empty product; its successors are the
    # nodes that open a vertex.
    roots = [n for n, (_, opens, _) in enumerate(nodes) if opens is not None]
    nodes.append((np.eye(family.dim), None, roots))
    # reach[n]: products of exactly t more steps that grow from a product
    # at node n; the root's counts the products of t steps.
    reach, counts = [1] * len(nodes), [1]
    for _ in range(horizon):
        reach = [sum(reach[c] for c in succ) for _, _, succ in nodes]
        counts.append(reach[-1])
        if sum(counts) - 1 > cap:
            raise EnumerationCapExceeded(f"more than {cap} products up to horizon {horizon}")
    # _screen refuses a product past double range; no overflow warning from
    # the matmul, or from squares past double range, precedes that error
    with np.errstate(over="ignore"):
        peaks, walks = _scan(nodes, horizon)
    return EnvelopeProfile(
        basis=basis_length(family, comb),
        block=comb.block_duration,
        peaks=tuple(peaks),
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
) -> tuple[float, str, EnvelopeProfile | str]:
    """The envelope constant at `rate`, its method, and the profile to
    `horizon` or why there is none: "enumeration cap", "products past
    double range", or "envelope constant past double range" (an inf
    constant, to which no ratio is defined).

    One scan to `horizon` (default and minimum: the basis length), or to
    the basis alone when that fails, gives the exhaustive constant over
    the basis.  When the basis fails too, the constant is
    `envelope_constant_bound` and the method "norm-bound".
    """
    basis = basis_length(family, comb)
    reason = None
    for h in (basis,) if horizon in (None, basis) else (horizon, basis):
        try:
            profile = envelope_profile(family, comb, h, cap)
        except EnumerationCapExceeded:
            reason = reason or "enumeration cap"
        except NonFiniteMatrixError:
            reason = reason or "products past double range"
        else:
            c = profile.bound_check(rate, horizon=basis).max_ratio
            if c == math.inf:
                reason = reason or "envelope constant past double range"
            return c, "exhaustive", reason or profile
    return envelope_constant_bound(family, comb, rate), "norm-bound", reason


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
    follows; math.inf means every such window is 0, so every rate holds.

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
    N*m*(m+1)/2 terms, each of norm at most M1^(m*N-1) * M2^(m-1) * eps.
    The norm bound is 0 when eps is and inf when a power leaves double
    range."""
    n, m = inputs.n_subsystems, inputs.contraction_power
    count = n * m * (m + 1) // 2
    if inputs.max_commutator_norm == 0.0:
        return count, 0.0
    try:
        norm = (
            count
            * inputs.max_subsystem_norm ** (m * n - 1)
            * inputs.combination_norm ** (m - 1)
            * inputs.max_commutator_norm
        )
    except OverflowError:  # a float power past double range raises, not gives inf
        norm = math.inf
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
        raise ValueError(f"segment duration {duration} != required basis length {needed}")
    n_blocks = walk.count(hub)
    if n_blocks < m:
        raise ValueError(f"segment holds {n_blocks} combination blocks, needs at least {m}")

    comb_matrix = np.asarray(comb.product, dtype=float)
    comm = {
        ell: commutator(family.matrix(ell), comb_matrix)
        for ell in range(1, family.size + 1)
    }
    # Product order: leftmost token is the latest time step.
    tokens = [("C",) if v == hub else ("A", v) for v in reversed(walk)]

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

    # operator_norm refuses a product past double range; no warning precedes that
    with np.errstate(over="ignore", invalid="ignore"):
        total = _evaluate_tokens(tokens, family, comb_matrix, comm)
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
