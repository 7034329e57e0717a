"""Trajectory simulation, product-norm sequences, and decay envelopes."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .family import MatrixFamily
from .graph import SwitchingSignal, _write_csv
from .linalg import as_vector, least_squares_line, operator_norms

# Norms below this underflow guard are dropped before taking logs.
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class Trajectory:
    """States and their Euclidean norms over 0..T."""

    states: np.ndarray  # shape (T+1, d)
    norms: np.ndarray  # shape (T+1,)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    def write_csv(self, path) -> None:
        """The header `t,norm` and one row per time, norms to 17 significant digits."""
        _write_csv(path, "norm", self.norms.tolist(), "%.17g")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential envelope norm[t] ~ amplitude * exp(-rate*t)."""

    amplitude: float
    rate: float


@dataclass(frozen=True)
class GesCheck:
    holds: bool
    worst_margin: float
    worst_t: int


def trial_x0(seed: int, trial: int, dim: int) -> np.ndarray:
    """Initial state of trial k of a run: uniform on [-1, 1]^dim, drawn from
    SeedSequence((seed, 1 + k)); stream 0 is the run's schedule
    (`swstab.graph.walk_for_horizon`)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 1 + trial))))
    return rng.uniform(-1.0, 1.0, size=dim)


def _step_matrices(
    family: MatrixFamily, signal: SwitchingSignal, horizon: int
) -> list[np.ndarray]:
    """The subsystem matrix run at each of the signal's first `horizon` steps."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > signal.duration:
        raise ValueError(
            f"horizon {horizon} exceeds signal duration {signal.duration}"
        )
    steps, n = signal.steps[:horizon], family.size
    if steps and not (1 <= min(steps) and max(steps) <= n):
        bad = next(ell for ell in steps if not 1 <= ell <= n)
        raise ValueError(f"subsystem index {bad} outside 1..{n}")
    mats = (None,) + family.subsystems
    return [mats[ell] for ell in steps]


def _step(mats: list[np.ndarray], states: np.ndarray) -> None:
    """Fill states[1:] from states[0], writing each step's `a @ x` straight
    into its row by one BLAS call, with no temporary and no product caching.
    `states` is (T+1, d) for one trial, (T+1, d, d) for prefix products, or
    (T+1, k, d, 1) for a stack of k trials.  The ndarray's own `dot` is the
    cheaper call: it runs the C routine of `np.dot` without numpy's
    `__array_function__` dispatch, about a third of a 2 x 2 step.  Where the
    last axis has length 1 it would contract the wrong axis of a stack and
    take a 1 x 1 matrix as a scalar (keeping a -0.0 that matmul's sum makes
    +0.0), so `np.matmul` steps there.  numpy multiplies each (d, 1) slice
    of a stack with the bits of (d, d) @ (d,), which a plain (d, d) @ (d, k)
    product does not give."""
    product = np.ndarray.dot if states.shape[-1] > 1 else np.matmul
    x = states[0]
    for a, row in zip(mats, states[1:]):
        x = product(a, x, out=row)


def simulate(
    family: MatrixFamily,
    signal: SwitchingSignal,
    x0,
    horizon: int,
) -> Trajectory:
    """Step the switched recursion x(t+1) = A_sigma(t) x(t) for `horizon` steps.

    Each state is the step matrix times the previous state, written into
    its row of `states` by one BLAS call (`_step`), so states[t] need not
    carry the bits of (A_sigma(t-1) ... A_sigma(0)) @ x0 formed from the
    accumulated product; `seeded_trials` gives every trial of a stack the
    bits of this function.
    """
    x = as_vector(x0, family.dim)
    mats = _step_matrices(family, signal, horizon)
    states = np.empty((horizon + 1, family.dim))
    states[0] = x
    # a diverging trajectory may leave double range; its states hold inf/nan
    with np.errstate(over="ignore", invalid="ignore"):
        _step(mats, states)
        # np.linalg.norm(states, axis=1) for real input, without its wrapper
        norms = np.sqrt(np.add.reduce(states * states, axis=1))
    return Trajectory(states=states, norms=norms)


def seeded_trials(
    family: MatrixFamily,
    signal: SwitchingSignal,
    seed: int,
    trials: int,
    horizon: int,
) -> Iterator[Trajectory]:
    """The trials k = 0..trials-1 of a run, in order: the `simulate` of
    `trial_x0(seed, k, d)` on `signal` for each, with the same bits.

    The trials are stepped together in stacks of at most
    `linalg.BATCH_ENTRIES` state entries (k * (T+1) * d, read at call
    time), one matmul per step and stack; a trial longer than that is a
    stack of its own.
    """
    mats = _step_matrices(family, signal, horizon)
    dim = family.dim
    per_stack = max(1, linalg.BATCH_ENTRIES // ((horizon + 1) * dim))
    for first in range(0, trials, per_stack):
        ks = range(first, min(trials, first + per_stack))
        states = np.empty((horizon + 1, len(ks), dim, 1))
        states[0, :, :, 0] = [trial_x0(seed, k, dim) for k in ks]
        with np.errstate(over="ignore", invalid="ignore"):
            _step(mats, states)
            norms = np.sqrt(np.add.reduce(states * states, axis=2))
        for j in range(len(ks)):
            yield Trajectory(states=states[:, j, :, 0], norms=norms[:, j, 0])


def product_norms(
    family: MatrixFamily, signal: SwitchingSignal, horizon: int
) -> np.ndarray:
    """Operator norms of the accumulated matrix product at each time.

    Entry 0 is the empty product (norm 1); entry t is the norm of
    A_sigma(t-1) ... A_sigma(0).  The prefix products are accumulated
    step by step into one stack and normed in one batched SVD; at the
    small dimensions in scope this is cheaper than any incremental bound
    and exact.
    """
    mats = _step_matrices(family, signal, horizon)
    stack = np.empty((horizon + 1, family.dim, family.dim))
    stack[0] = np.eye(family.dim)
    # products past double range hold inf/nan, which operator_norms refuses
    with np.errstate(over="ignore", invalid="ignore"):
        _step(mats, stack)
    return operator_norms(stack)


def verify_ges(norms, c: float, rate: float) -> GesCheck:
    """Check norms[t] <= c * exp(-rate * t) for every t >= 1.

    The comparison is non-strict; worst_margin is the smallest envelope
    slack and worst_t where it occurs.
    """
    if not 0.0 < c < math.inf or not rate > 0.0:  # an inf c holds everywhere
        raise ValueError("envelope constant must be positive and finite, and rate positive")
    norms = np.asarray(norms, dtype=float)
    if norms.size < 2:
        raise ValueError("need at least one step beyond t=0")
    t = np.arange(1, norms.size)
    margins = c * np.exp(-rate * t) - norms[1:]
    worst = int(np.argmin(margins))
    return GesCheck(
        holds=bool(margins[worst] >= 0.0),
        worst_margin=float(margins[worst]),
        worst_t=int(t[worst]),
    )


def fit_decay(norms) -> DecayFit:
    """Ordinary least squares of log norms against time.

    Entries below the underflow guard are dropped; at least two positive
    entries are required.  The line is `linalg.least_squares_line`, which
    has the bits of `np.polyfit(t, log(norms), 1)` without its argument
    checks.
    """
    norms = np.asarray(norms, dtype=float)
    t = np.arange(norms.size)
    keep = norms > _LOG_FLOOR
    if int(np.count_nonzero(keep)) < 2:
        raise ValueError("need at least two positive norms to fit a decay rate")
    slope, intercept = least_squares_line(t[keep], np.log(norms[keep]))
    return DecayFit(amplitude=math.exp(intercept), rate=-slope)
