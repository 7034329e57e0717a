"""Scalar stability certificate for graph-scheduled switching.

The certificate compares 1 against

    rho * exp(r * m*(hp+tp))
      + N * m*(m+1)/2 * M1^(m*N-1) * M2^(m-1) * eps
          * exp(r * m*(hp+tp) + r * m*N)

where M1 is the largest subsystem norm, M2 the norm of the stable
combination, eps the largest commutator norm between a subsystem and the
combination, rho/m the contraction pair, and r the claimed exponential
decay rate.  The inequality is the paper's condition; a value <= 1 does
not bound every schedule the switch graph can generate.  On the commuting
pair diag(1.2, 0.4), diag(0.4, 1.2) it admits rate ~ 0.367, yet the
admissible cycle "subsystem 2, then one combination block" multiplies by
diag(0.192, 0.576) every 3 steps and decays at only -ln(0.576)/3 ~ 0.184.
`swstab.oracle.sound_certified_rate` gives a rate that provably holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import MatrixFamily
from .linalg import operator_norms
from .search import StableCombination

# The certificate is issued slightly inside the supremum rate so both
# inequalities stay strict under rounding.
RATE_SAFETY = 1e-6

# Absolute tolerance of the bisection for the supremum certified rate.
BISECTION_TOL = 1e-10

# |LHS - 1| within this window is reported as feasible-at-the-boundary.
BOUNDARY_TOL = 1e-12

_LOG_DBL_MAX = 709.0  # log(DBL_MAX) rounded down


def _exp_or_inf(log: float) -> float:
    """exp(log) while it fits in a double, inf once log passes _LOG_DBL_MAX."""
    return math.exp(log) if log <= _LOG_DBL_MAX else math.inf


class AssumptionError(ValueError):
    """The family breaks the all-unstable assumption the certificate rests on."""


@dataclass(frozen=True)
class CertificateInputs:
    """The scalar constants the certificate inequality consumes."""

    n_subsystems: int
    max_subsystem_norm: float  # largest operator norm over the family
    combination_norm: float  # operator norm of the stable combination
    max_commutator_norm: float  # largest ||A_l C - C A_l|| over the family
    contraction_power: int
    contraction_norm: float
    block_duration: int  # steps of one combination block

    def __post_init__(self):
        if min(self.contraction_power, self.block_duration) < 1:
            raise ValueError("powers must be positive integers")
        if self.max_subsystem_norm < 1.0:
            # every subsystem is unstable, so its norm is at least its
            # spectral radius, which is at least 1
            raise AssumptionError(
                "every subsystem norm is below 1: the all-unstable assumption fails"
            )
        if self.combination_norm <= 0.0 or self.max_commutator_norm < 0.0:
            raise ValueError("norms must be positive / nonnegative")
        if not 0.0 < self.contraction_norm < 1.0:
            raise ValueError("contraction norm must lie in (0, 1)")


@dataclass(frozen=True)
class Certificate:
    """Outcome of the feasibility check at one decay rate, with the
    constants it was evaluated on and the supremum certified rate (None
    when the inequality fails at rate 0)."""

    inputs: CertificateInputs
    rate: float
    max_rate: float | None
    lhs_value: float
    feasible: bool
    margin: float  # 1 - lhs_value
    boundary: bool = False


def compute_constants(
    family: MatrixFamily, comb: StableCombination
) -> CertificateInputs:
    """Measure the scalar constants of the certificate from the matrices.

    The norms of the subsystems, of the combination C and of the finite
    commutators A_l C - C A_l come from one batched SVD.  A commutator whose
    products leave double range has norm inf, at which no rate is
    certified."""
    n, c = family.size, comb.product
    mats = family.stack
    with np.errstate(over="ignore", invalid="ignore"):
        comms = mats @ c - c @ mats
    finite = np.isfinite(comms).all(axis=(1, 2))
    norms = operator_norms(np.concatenate([mats, c[None], comms[finite]]))
    return CertificateInputs(
        n_subsystems=n,
        max_subsystem_norm=float(norms[:n].max()),
        combination_norm=float(norms[n]),
        max_commutator_norm=float(norms[n + 1:].max()) if finite.all() else math.inf,
        contraction_power=comb.contraction_power,
        contraction_norm=comb.contraction_norm,
        block_duration=comb.block_duration,
    )


def _lhs_terms(inputs: CertificateInputs, rate: float) -> tuple[float, float]:
    """Both certificate terms; the second one in log-space to dodge overflow.

    Returns (term1, term2) with math.inf standing in for a term past the
    double range.
    """
    m = inputs.contraction_power
    n = inputs.n_subsystems
    eps = inputs.max_commutator_norm
    term1 = inputs.contraction_norm * _exp_or_inf(rate * m * inputs.block_duration)
    log_term2 = (
        math.log(n)
        + math.log(m * (m + 1) / 2.0)
        + (m * n - 1) * math.log(inputs.max_subsystem_norm)
        + (m - 1) * math.log(inputs.combination_norm)
        + (math.log(eps) if eps > 0.0 else -math.inf)
        + rate * m * inputs.block_duration
        + rate * m * n
    )
    return term1, _exp_or_inf(log_term2)


def correction_bounds(inputs: CertificateInputs) -> tuple[int, float]:
    """A-priori bounds on `swstab.oracle.decompose_product`'s correction:
    at most N*m*(m+1)/2 terms, of total norm at most the certificate's
    second term at rate 0, N*m*(m+1)/2 * M1^(m*N-1) * M2^(m-1) * eps.
    The norm bound is 0 when eps is and inf when its logarithm passes
    _LOG_DBL_MAX."""
    n, m = inputs.n_subsystems, inputs.contraction_power
    return n * m * (m + 1) // 2, _lhs_terms(inputs, 0.0)[1]


def rate_upper_limit(inputs: CertificateInputs) -> float:
    """Largest rate allowed by the contraction condition alone.

    This is the root of contraction_norm * exp(rate * m * block) = 1; the
    strict version of the condition admits every rate below it.
    """
    m = inputs.contraction_power
    return -math.log(inputs.contraction_norm) / (m * inputs.block_duration)


def max_certified_rate(inputs: CertificateInputs) -> float | None:
    """Supremum of decay rates satisfying the full certificate, or None.

    None means infeasible: the inequality already fails at rate 0.  With a
    zero commutator bound the supremum is the contraction limit in closed
    form; otherwise it is found by bisection (the left-hand side is
    strictly increasing in the rate) to absolute tolerance BISECTION_TOL.
    """
    if sum(_lhs_terms(inputs, 0.0)) > 1.0:
        return None
    limit = rate_upper_limit(inputs)
    if inputs.max_commutator_norm == 0.0:
        return limit
    lo, hi = 0.0, limit
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if sum(_lhs_terms(inputs, mid)) <= 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def check_certificate(
    family: MatrixFamily,
    comb: StableCombination,
    rate: float | None = None,
) -> Certificate:
    """Decide feasibility of the certificate for (family, combination).

    With `rate` omitted, the check runs at the supremum rate shrunk by a
    relative safety factor so both inequalities hold strictly; an
    infeasible instance is reported at rate 0.  A supplied rate must be
    positive.  Feasibility is the paper's condition, not a proof that every
    graph schedule decays at the rate (see the module docstring); use
    `swstab.oracle.sound_certified_rate` for that.
    """
    inputs = compute_constants(family, comb)
    best = max_certified_rate(inputs)
    if rate is None:
        rate = 0.0 if best is None else best * (1.0 - RATE_SAFETY)
    elif not rate > 0.0:
        raise ValueError("decay rate must be positive")
    # term1 is the contraction condition's left side, inf past the double range
    term1, term2 = _lhs_terms(inputs, rate)
    lhs = term1 + term2
    margin = 1.0 - lhs
    boundary = abs(lhs - 1.0) <= BOUNDARY_TOL
    contraction_ok = term1 < 1.0
    feasible = rate > 0.0 and (lhs <= 1.0 or boundary) and contraction_ok
    return Certificate(
        inputs=inputs,
        rate=rate,
        max_rate=best,
        lhs_value=lhs,
        feasible=feasible,
        margin=margin,
        boundary=boundary,
    )
