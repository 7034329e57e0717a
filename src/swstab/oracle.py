"""Brute-force machinery backing the stability certificate.

Everything here re-derives, by direct enumeration or direct matrix
arithmetic, the objects the certificate takes on faith: the exchange
identity behind the commutator bookkeeping, the rewriting of an admissible
product into (left part) * combination^m + correction, and the exponential
envelope over every admissible product up to a horizon.  The envelope
comes from one batched scan of the time-expanded switch graph, in slices
of SLICE products, so its memory stays bounded: one gathered matmul and
one Frobenius-norm screen per batch of products, and one batched SVD of
the few products the screens keep each time the scan steps back to a
shallower duration.

When some duration holds more than SLICE products, the scan also prunes,
as the bounding half of Gripenberg's branch and bound (LAA 234, 1996):
a product gets no children when no descendant can reach the peak of its
duration.  The test weighs an upper bound on the product's norm, its
Frobenius norm, against a bound on every s-step continuation (an exact
scan of all nodes to a shallow depth, extended by submultiplicativity
and widened for float rounding) and a norm some product of each longer
duration attains (the running peak, or the periodic walks (v, hub) and
(hub, v)).  Every bound holds for the products as computed, and the test
is strict, so the peaks, walks and counts are those of the full scan;
`_scan` gives the argument.  The counts, and `products_checked`, cover
every admissible product whether it was multiplied or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import _LOG_DBL_MAX, RATE_SAFETY, _exp_or_inf
from .family import MatrixFamily
from .graph import build_graph, walk_to_signal
from .linalg import NonFiniteMatrixError, operator_norm, operator_norms
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
# The exact levels of the pruning bound stop before one of more products.
GROWTH_LEVEL = 32


class EnumerationCapExceeded(RuntimeError):
    """The product enumeration would outgrow its cap; use a smaller instance."""


@dataclass(frozen=True)
class ProductDecomposition:
    """An admissible product split as main_term + correction.

    main_term is (the steps left in place) times combination^m, where
    the m earliest combination blocks have moved to the early end of the
    product; correction is minus the sum of the term_count exchange terms
    that move leaves, one per plain step that each block passes.
    """

    total: np.ndarray
    main_term: np.ndarray
    correction: np.ndarray
    term_count: int
    residual: float


@dataclass(frozen=True)
class BoundCheck:
    """Worst envelope ratio over all admissible products up to a horizon."""

    max_ratio: float
    witness_walk: tuple[int, ...]
    witness_time: int
    products_checked: int


def exchange_identity_residual(family: MatrixFamily, comb) -> float:
    """Numerical residual of A_l C = C A_l + [A_l, C] over the family.

    The largest ||x - (y + (x - y))|| with x = A_l C and y = C A_l:
    zero in exact arithmetic for any square C, so the measured value only
    reflects floating-point rounding and should sit at the 1e-12 * scale
    level.  It says nothing about whether the subsystems commute with C.
    """
    c = comb.product if isinstance(comb, StableCombination) else np.asarray(comb, float)
    x, y = family.stack @ c, c @ family.stack
    return float(operator_norms(x - (y + (x - y))).max())


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

        The empty product contributes 1 / c, at every rate (e^0 = 1, also
        where rate * 0 is nan).  Among products of equal value
        the witness is the first one in preorder, which is the order of
        (walk, t): a product comes before its extensions, and the nodes
        that open a vertex come in ascending vertex order.  When a value
        leaves double range, every duration is ranked by its logarithm,
        ln peak + rate * t, and the ratio is inf only if it leaves range too.
        """
        if not 0.0 < c < math.inf:  # an inf c reads every ratio as 0
            raise ValueError("envelope constant must be positive and finite")
        if math.isnan(rate):
            raise ValueError("rate must not be NaN")
        horizon = self.horizon if horizon is None else horizon
        if not 0 <= horizon <= self.horizon:
            raise ValueError(f"horizon {horizon} outside the profile's 0..{self.horizon}")
        ts = range(horizon + 1)
        exps = [rate * t if t else 0.0 for t in ts]
        values = [_times_exp(self.peaks[t], exps[t]) for t in ts]
        in_range = math.inf not in values
        if not in_range:
            values = [math.log(self.peaks[t]) + exps[t] if self.peaks[t] > 0.0 else -math.inf for t in ts]
        t_best = min(ts, key=lambda t: (-values[t], self.walks[t], t))
        return BoundCheck(
            max_ratio=values[t_best] / c if in_range else _exp_or_inf(values[t_best] - math.log(c)),
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
    double, and past that in log space, inf once the value's logarithm
    passes _LOG_DBL_MAX."""
    if y <= _LOG_DBL_MAX:
        return x * math.exp(y)
    return _exp_or_inf(math.log(x) + y if x > 0.0 else -math.inf)


def _unit_step_graph(family: MatrixFamily, comb: StableCombination) -> tuple[np.ndarray, list]:
    """The switch graph with every vertex split into one node per time step,
    as (node matrices, successor lists).

    Node 0 is the root and holds the identity (the empty product); node v
    opens vertex v, for v in 1..N+1; nodes N+2 on run the rest of the hub's
    `comb.steps`, each pointing to the next.  The successors of the root
    and of each vertex's last node are the vertices in ascending order, so
    the preorder of the products grown from the root is the order of their
    walks.
    """
    graph = build_graph(family.size)
    hub = graph.stable_vertex
    steps = np.array(comb.steps) - 1  # rows of family.stack
    mats = np.concatenate([np.eye(family.dim)[None], family.stack, family.stack.take(steps, axis=0)])
    succ = [list(graph.vertices)] + [list(graph.out_neighbors(v)) for v in range(1, hub)]
    succ += [[n + 1] for n in range(hub, hub + len(steps) - 1)] + [list(graph.out_neighbors(hub))]
    return mats, succ


def _scan(graph: tuple[np.ndarray, list, bool], horizon: int):
    """Largest ||product|| at each duration 0..horizon, with the vertex walk
    of the first product, in preorder, reaching it.

    `graph` is `_unit_step_graph`'s (mats, succ) and whether to prune.  A
    batch is the children, in preorder, of one slice of at most SLICE
    products of the previous duration (node 0, the root, holds the empty
    product), made by one gathered matmul; the children come from a
    successor table padded to the largest out-degree.  A slice's
    descendants are expanded before the next slice, so the scan holds one
    batch per duration and meets each duration's products in preorder.
    Each product carries its parent's position in the batch before, from
    which a peak's walk is rebuilt.

    `_screen` keeps the products of a batch that may raise low and tie
    the batch's largest norm, from the Frobenius norms the scan takes once
    per batch.  They wait in `pending`, with their batch's nodes and
    parents, until a batch they descend from is about to be replaced; then
    `_flush` takes them all in one batched SVD.  Every earlier batch of a
    duration is flushed before the next one is screened, so each screen
    sees the peak it would see if every batch were normed at once.

    low[t] is what a product of t steps must beat to raise a peak: one
    float array, `_seeds`' values when the scan prunes and the empty
    product's [1, 0, ..., 0] otherwise, raised to the running peaks after
    every flush but the last.  A scan whose levels each fit in one slice
    steps straight down, flushes only at the end and prepares nothing.
    One that prunes gives a product P of t steps no children when, for
    every s = 1..horizon-t, hi(P) * grow[s] + floor[s] < low[t+s]:
    - hi(P) = max(||P||_F, d * SCREEN_TINY) * (1 + SCREEN_MARGIN) bounds
      the exact ||P||_F: a computed ||P||_F below SCREEN_TINY, whose
      squares may have underflowed, means every entry is below SCREEN_TINY;
    - `_growth` makes grow[s] * ||P||_F + floor[s] bound the computed
      Frobenius norm, and so the computed sigma, of every descendant of P
      s steps on;
    - low[t] is the larger of the running peak and `_seeds`' value, each
      the computed norm of some product of t steps, so never above the
      final peak.
    A pruned product's descendants thus have computed norms below the
    final peaks of their durations (SCREEN_MARGIN covers the rounding of
    the Frobenius norms, the SVD and the test itself) and can neither
    reach nor tie them: the peaks and walks are the unpruned scan's, and
    none of those descendants could have left double range.  For the same
    reason the screen compares a batch against low, not the running peak.
    The test reads the computed ||P||_F against cut[t] (`_cut`), renewed
    whenever a flush raises low.  Right after the test a batch keeps only
    the products that get children, and its slices run over those.
    """
    peaks = [1.0] + [0.0] * horizon
    walks: list[tuple[int, ...]] = [()] * (horizon + 1)
    mats, lists, prune = graph
    hub = len(lists[0])  # the root's successors are the vertices 1..hub
    # succ[n, :k] are node n's k successors, and valid[n] marks those slots.
    width = max(map(len, lists))
    succ = np.array([s + [0] * (width - len(s)) for s in lists])
    valid = np.array([[k < len(s) for k in range(width)] for s in lists])
    if prune:
        grow, floor = _growth(mats, succ, valid, horizon)
        low = _seeds(mats, hub, horizon)
        tiny = mats.shape[1] * SCREEN_TINY
        cut = _cut(low, grow, floor, tiny)
    else:
        low = np.array(peaks)
    # batches[t]: (products, nodes, parent positions) of the batch of
    # duration t being expanded, holding only the products that get children
    batches = [(mats[:1], np.array([0]), None)] + [None] * horizon
    # pending: (duration, survivors, their batch's nodes, its parent positions,
    # their positions in it), ascending in duration, one entry per duration.
    pending: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, list[int]]] = []
    todo = [(0, 0)] if horizon > 0 else []
    while todo:
        t, start = todo.pop()
        # this slice replaces batches[t + 1], from which pending survivors
        # of t + 2 steps or more descend, and screens against the peaks the
        # earlier batches of t + 1 steps set
        if pending and pending[-1][0] > t:
            _flush(pending, hub, batches, peaks, walks)
            if (peaks > low).any():
                np.maximum(low, peaks, out=low)
                if prune:
                    cut = _cut(low, grow, floor, tiny)
        stack, node, _ = batches[t]
        rows = node[start : start + SLICE]
        if start + SLICE < len(node):
            todo.append((t, start + SLICE))
        # row-major, so the children come in preorder
        mask = valid.take(rows, axis=0)
        parent, _ = mask.nonzero()
        kids = succ.take(rows, axis=0)[mask]
        parent += start
        prods = mats.take(kids, axis=0) @ stack.take(parent, axis=0)
        f = np.sqrt(np.einsum("kij,kij->k", prods, prods))
        (keep,) = _screen(prods, low[t + 1], f).nonzero()
        if len(keep):
            pending.append((t + 1, prods.take(keep, axis=0), kids, parent, keep.tolist()))
        if t + 1 < horizon:
            if prune:
                (live,) = (f >= cut[t + 1]).nonzero()
                if len(live) < len(kids):
                    prods, kids, parent = prods.take(live, axis=0), kids.take(live), parent.take(live)
            batches[t + 1] = (prods, kids, parent)
            if len(kids):
                todo.append((t + 1, 0))
    if pending:
        _flush(pending, hub, batches, peaks, walks)
    return peaks, walks


def _cut(low: np.ndarray, grow: np.ndarray, floor: np.ndarray, tiny: float) -> np.ndarray:
    """cut[t]: a product of t steps whose computed Frobenius norm is below
    it gets no children (see `_scan`).  The product is pruned when hi(P) <
    min over s of (low[t+s] - floor[s]) / grow[s]; cut is that minimum over
    1 + SCREEN_MARGIN.  No hi is below tiny = d * SCREEN_TINY, so a smaller
    cut cuts nothing and reads -inf."""
    horizon = len(low) - 1
    # ahead[t, s-1] = low[t+s], inf past the horizon
    ahead = np.append(low, np.full(horizon, np.inf))[np.add.outer(np.arange(horizon + 1), np.arange(1, horizon + 1))]
    thr = ((ahead - floor[1:]) / grow[1:]).min(axis=1) / (1.0 + SCREEN_MARGIN)
    return np.where(thr > tiny, thr, -np.inf)


def _growth(mats: np.ndarray, succ: np.ndarray, valid: np.ndarray, horizon: int):
    """(grow, floor) over s = 0..horizon: every s-step product Q from any
    node below the root, applied to any P as the scan applies it (one
    matmul per step), has a computed Frobenius norm of at most
    grow[s] * ||P||_F + floor[s].

    sig[s] bounds sup ||Q||_2 and ab[s] sup ||abs(Q)||_2, abs(Q) being the
    product of the factors' entrywise absolute values.  Up to a depth K
    both come from a scan of every such path over the scan's successor
    table, stepping each path's signed and absolute products as one
    (2, d, d) pair: each level's largest Frobenius norm, widened by
    SCREEN_MARGIN and the rounding terms below.  The scan stops before a
    level of more than GROWTH_LEVEL paths, or at one past double range.
    Past K, x[q*a + r] <= x[a]**q * x[r], since a path of q*a + r steps is
    q paths of a steps and one of r.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3): an s-step product computed from P differs from the exact one
    by at most gamma(s*d) * abs(Q) abs(P) entrywise, gamma(n) =
    n*u/(1-n*u) <= 2*n*u, plus, where entries fall below the normal
    range, an absolute d * 2**-1075 per entry and step, carried by the
    factors that follow.  So grow[s] = sig[s] + gamma(s*d) * ab[s] and
    floor[s] = d**2 * 2**-1073 * sum(ab[:s]).  A computed Frobenius norm
    below SCREEN_TINY counts as d * SCREEN_TINY, and so does any bound
    below that, so no product of bounds underflows; the rounding of those
    few products stays far inside SCREEN_MARGIN.  A bound past double
    range gets grow[s] = 1 and floor[s] = inf, against which nothing is
    pruned.
    """
    d = mats.shape[1]
    # pairs[n]: node n's matrix and its entrywise absolute value
    pairs = np.stack([mats, np.abs(mats)], axis=1)
    nodes = np.arange(1, len(mats))
    prods = pairs[1:]
    gamma = np.arange(horizon + 1) * (d * 2.0**-52)
    tiny = d * SCREEN_TINY
    sig, ab = [1.0], [1.0]
    while True:
        s = len(sig)
        sq = np.einsum("kpij,kpij->kp", prods, prods).max(axis=0).tolist()
        signed, absolute = (math.sqrt(x) * (1.0 + SCREEN_MARGIN) for x in sq)
        if absolute == math.inf:  # abs(Q) bounds Q entrywise
            break
        under = math.ldexp(d * d * sum(ab), -1073)
        ab.append((max(absolute, tiny) + under) * (1.0 + 2.0 * gamma[s]))
        sig.append(max(signed, tiny) + gamma[s] * ab[s] + under)
        if s == horizon:
            break
        mask = valid.take(nodes, axis=0)
        parent, _ = mask.nonzero()
        if len(parent) > GROWTH_LEVEL:
            break
        nodes = succ.take(nodes, axis=0)[mask]
        prods = pairs.take(nodes, axis=0) @ prods.take(parent, axis=0)
    # x[q*a + r] <= x[a]**q * x[r] for r < a <= K, at the best a
    span = np.arange(horizon + 1)
    parts = np.arange(1, len(sig))[:, None]
    sig, ab = (
        np.maximum((np.array(x)[1:, None] ** (span // parts) * np.take(x, span % parts)).min(axis=0, initial=np.inf), tiny)
        for x in (sig, ab)
    )
    floor = np.ldexp(d * d * np.concatenate([[0.0], np.cumsum(ab[:-1])]), -1073)
    grow = sig + gamma * ab
    bad = ~(np.isfinite(grow) & np.isfinite(floor))
    grow[bad], floor[bad] = 1.0, np.inf
    return grow, floor


def _seeds(mats: np.ndarray, hub: int, horizon: int) -> np.ndarray:
    """A norm some product of t steps attains, as the scan computes it,
    for t = 0..horizon: at each t, the SVD of the prefix with the largest
    Frobenius norm among the periodic walks (v, hub) and (hub, v), v < hub,
    grown by one stacked matmul per step.  Zero past t = 0 if a prefix
    leaves double range (the scan refuses it)."""
    n, d = mats.shape[:2]
    v = np.arange(1, hub)[:, None]
    block = np.broadcast_to(np.arange(hub, n), (hub - 1, n - hub))  # the hub's nodes
    periods = np.concatenate([np.hstack([v, block]), np.hstack([block, v])])
    steps = mats.take(periods.take(np.arange(horizon) % (n - hub + 1), axis=1).T, axis=0)
    prods = np.empty((horizon + 1, len(periods), d, d))
    prods[0] = np.eye(d)
    with np.errstate(invalid="ignore"):
        for t in range(horizon):
            np.matmul(steps[t], prods[t], out=prods[t + 1])
    seeds = np.zeros(horizon + 1)
    seeds[0] = 1.0
    if np.isfinite(prods).all():
        widest = np.einsum("tkij,tkij->tk", prods[1:], prods[1:]).argmax(axis=1)
        seeds[1:] = operator_norms(prods[1:][np.arange(horizon), widest])
    return seeds


def _flush(pending: list, hub: int, batches: list, peaks: list, walks: list) -> None:
    """Norm every pending survivor in one batched SVD and empty `pending`.

    In ascending duration, the first largest norm of each entry raises its
    duration's peak if it beats it, with its walk rebuilt from the entry's
    own nodes and parents and from `batches`, which still hold its
    earlier ancestors.
    """
    norms = operator_norms(np.concatenate([entry[1] for entry in pending]))
    end = 0
    for t, kept, node, parent, pos in pending:
        seg = norms[end : end + len(kept)]
        end += len(kept)
        best = int(seg.argmax())
        if seg[best] > peaks[t]:
            peaks[t] = float(seg[best])
            walks[t] = _walk(hub, batches, t, node, parent, pos[best])
    pending.clear()


def _screen(prods: np.ndarray, peak: float, f: np.ndarray) -> np.ndarray:
    """Which products of a (k, d, d) batch, with Frobenius norms `f`, may
    raise `peak` and tie the batch's largest norm, as a boolean mask.

    sigma <= ||P||_F <= sqrt(d) * sigma bounds each product's norm by
    lo <= sigma <= hi, widened by SCREEN_MARGIN for rounding.  A product
    with hi <= peak cannot raise the peak, and one with hi below another's
    lo cannot tie it, so the first largest norm among the survivors is the
    first largest of the batch.  Both tests are one comparison: for a
    finite peak, hi > peak is hi >= the next double above peak.  Only the
    batch's largest Frobenius norm, top, must be exact: a product whose
    squares underflow has entries below about 1.5e-154, far below
    top / sqrt(d) once top >= SCREEN_TINY.  When top is below SCREEN_TINY
    or inf, every nonzero product survives.  A non-finite entry anywhere
    in the batch raises NonFiniteMatrixError.
    """
    top = f.max()
    if not SCREEN_TINY <= top < np.inf:
        if not np.isfinite(prods).all():
            raise NonFiniteMatrixError("matrix entries must be finite")
        return prods.any(axis=(1, 2))
    floor = top * ((1.0 - SCREEN_MARGIN) / math.sqrt(prods.shape[1]))
    return f * (1.0 + SCREEN_MARGIN) >= max(math.nextafter(peak, math.inf), floor)


def _walk(hub: int, batches: list, t: int, node: np.ndarray, parent: np.ndarray, pos: int) -> tuple[int, ...]:
    """The vertex walk of the product at `pos` among the t-step `node`s,
    whose parents' positions in batches[t - 1] are `parent`; a node
    numbered at most `hub` opens the vertex of its number."""
    walk = []
    for s in range(t - 1, -1, -1):
        opens = node.item(pos)
        if opens <= hub:
            walk.append(opens)
        pos = parent.item(pos)
        _, node, parent = batches[s]
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
    EnumerationCapExceeded before any is multiplied.  When some duration
    holds more than SLICE products, the scan prunes the subtrees that
    cannot reach a peak (see `_scan`); the counts still cover every
    product.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    mats, succ = _unit_step_graph(family, comb)
    # reach[n]: products of exactly t more steps that grow from a product
    # at node n; the root's counts the products of t steps.
    reach, counts = [1] * len(succ), [1]
    for _ in range(horizon):
        reach = [sum(reach[c] for c in s) for s in succ]
        counts.append(reach[0])
        if sum(counts) - 1 > cap:
            raise EnumerationCapExceeded(f"more than {cap} products up to horizon {horizon}")
    # _screen refuses a product past double range; no overflow warning from
    # the matmul, or from squares past double range, precedes that error
    with np.errstate(over="ignore"):
        peaks, walks = _scan((mats, succ, max(counts) > SLICE), horizon)
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
    cap: int = DEFAULT_ENUM_CAP,
) -> float:
    """Smallest c >= 1 with ||product|| <= c * exp(-rate * t) up to the
    basis length the induction argument requires.

    Computed exhaustively over every admissible product; the floor of 1
    covers the empty product at t=0.
    """
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    return envelope_profile(family, comb, basis_length(family, comb), cap).bound_check(rate).max_ratio


def envelope_constant_bound(family: MatrixFamily, comb: StableCombination, rate: float) -> float:
    """Closed-form upper bound on the envelope constant.

    Every factor of an admissible product has norm at most the largest
    subsystem norm M, so c <= (M * exp(rate))^L over the basis length L.
    Loose but valid; used when exhaustive enumeration would exceed its
    cap.  May return inf for bases far beyond double range.
    """
    if math.isnan(rate):
        raise ValueError("rate must not be NaN")
    m1 = float(operator_norms(family.stack).max())
    return max(1.0, _exp_or_inf(basis_length(family, comb) * (math.log(m1) + rate)))


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
    horizon = basis if horizon is None else horizon
    if horizon < basis:
        raise ValueError(f"horizon {horizon} below the basis length {basis}")
    reason = None
    for h in (basis,) if horizon == basis else (horizon, basis):
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

    Induction: with c = envelope_constant(family, comb, r), which covers
    the L steps, ||P_t|| <= c * exp(-r*t) holds for t <= L by definition of
    c.  For t > L let s be the last vertex boundary <= t-L; since a vertex
    lasts at most B steps, the window [s, t) starts at a vertex boundary
    and lasts between L and L+B-1 steps, so its norm is at most
    exp(-r*(t-s)), and ||P_t|| <= exp(-r*(t-s)) * c * exp(-r*s).

    Raises EnumerationCapExceeded when the windows outgrow `cap`.
    """
    horizon = basis_length(family, comb) + comb.block_duration - 1
    return envelope_profile(family, comb, horizon, cap).sound_rate()


def decompose_product(
    family: MatrixFamily,
    comb: StableCombination,
    walk_segment,
) -> ProductDecomposition:
    """Rewrite the product of a basis-length segment around combination^m.

    The segment must expand to exactly m*(block + N) time steps and contain
    at least m combination blocks.  The exchange identity
    C A_l = A_l C - [A_l, C] moves the m earliest blocks, earliest first,
    to the early end of the product.  With k blocks moved, a block with j
    plain steps before it leaves j terms, for i = j-1 down to 0: minus
    the time-ordered product of C^k, rest[:i], [A_l, C] for rest[i] = l,
    and rest[i+1:], where `rest` holds the steps still in place, that
    block removed.  term_count is the sum of the j's; each term is
    subtracted as it is formed, and no list of terms is kept.
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

    # Steps are vertex ids in time order: l is A_l, the hub is C, and -l
    # the commutator [A_l, C].
    mats, c = family.stack, comb.product
    # operator_norm refuses a product past double range; no warning precedes that
    with np.errstate(over="ignore", invalid="ignore"):
        comms = mats @ c - c @ mats
        factors = {hub: c}
        for ell in range(1, hub):
            factors[ell], factors[-ell] = mats[ell - 1], comms[ell - 1]

        def product(steps) -> np.ndarray:
            p = np.eye(family.dim)
            for v in steps:
                p = factors[v] @ p
            return p

        total = product(walk)
        rest = list(walk)
        correction, term_count = np.zeros((family.dim, family.dim)), 0
        for k in range(m):
            j = rest.index(hub)  # rest[:j] are plain factors
            del rest[j]
            for i in range(j - 1, -1, -1):
                correction -= product([hub] * k + rest[:i] + [-rest[i]] + rest[i + 1 :])
            term_count += j
        main_term = product(rest) @ product([hub] * m)
        residual = operator_norm(total - (main_term + correction))
    return ProductDecomposition(
        total=total,
        main_term=main_term,
        correction=correction,
        term_count=term_count,
        residual=residual,
    )
