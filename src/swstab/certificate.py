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
from .linalg import commutator, operator_norm
from .search import StableCombination

# The certificate is issued slightly inside the supremum rate so both
# inequalities stay strict under rounding.
RATE_SAFETY = 1e-6

# Absolute tolerance of the bisection for the supremum certified rate.
BISECTION_TOL = 1e-10

# |LHS - 1| within this window is reported as feasible-at-the-boundary.
BOUNDARY_TOL = 1e-12

_LOG_DBL_MAX = 709.0  # log(DBL_MAX) rounded down


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
    head_power: int
    tail_power: int

    def __post_init__(self):
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

    @property
    def block_duration(self) -> int:
        return self.head_power + self.tail_power


@dataclass(frozen=True)
class Certificate:
    """Outcome of the feasibility check at one decay rate."""

    rate: float
    lhs_value: float
    feasible: bool
    margin: float  # 1 - lhs_value
    boundary: bool = False


def compute_constants(
    family: MatrixFamily, comb: StableCombination
) -> CertificateInputs:
    """Measure the scalar constants of the certificate from the matrices.

    A commutator whose products leave double range has norm inf, at which
    no rate is certified."""
    norms = [operator_norm(a) for a in family.subsystems]
    with np.errstate(over="ignore", invalid="ignore"):
        comms = [commutator(a, comb.product) for a in family.subsystems]
    comms = [operator_norm(e) if np.isfinite(e).all() else math.inf for e in comms]
    return CertificateInputs(
        n_subsystems=family.size,
        max_subsystem_norm=max(norms),
        combination_norm=operator_norm(comb.product),
        max_commutator_norm=max(comms),
        contraction_power=comb.contraction_power,
        contraction_norm=comb.contraction_norm,
        head_power=comb.head_power,
        tail_power=comb.tail_power,
    )


def _lhs_terms(inputs: CertificateInputs, rate: float) -> tuple[float, float]:
    """Both certificate terms; the second one in log-space to dodge overflow.

    Returns (term1, term2) with math.inf standing in for an overflowing
    second term.
    """
    m = inputs.contraction_power
    n = inputs.n_subsystems
    exp1 = rate * m * inputs.block_duration
    if exp1 > _LOG_DBL_MAX:
        return math.inf, math.inf
    term1 = inputs.contraction_norm * math.exp(exp1)
    eps = inputs.max_commutator_norm
    if eps == 0.0:
        return term1, 0.0
    log_term2 = (
        math.log(n)
        + math.log(m * (m + 1) / 2.0)
        + (m * n - 1) * math.log(inputs.max_subsystem_norm)
        + (m - 1) * math.log(inputs.combination_norm)
        + math.log(eps)
        + rate * m * inputs.block_duration
        + rate * m * n
    )
    if log_term2 > _LOG_DBL_MAX:
        return term1, math.inf
    return term1, math.exp(log_term2)


def certificate_lhs(inputs: CertificateInputs, rate: float) -> float:
    """Evaluate the certificate's left-hand side at the given decay rate.

    Raises OverflowError if an exponential leaves double range.
    """
    if rate < 0.0:
        raise ValueError("decay rate must be nonnegative")
    term1, term2 = _lhs_terms(inputs, rate)
    if math.isinf(term1) or math.isinf(term2):
        raise OverflowError("certificate value exceeds double-precision range")
    return term1 + term2


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
    if rate is None:
        best = max_certified_rate(inputs)
        rate = 0.0 if best is None else best * (1.0 - RATE_SAFETY)
    elif rate <= 0.0:
        raise ValueError("decay rate must be positive")
    # term1 is the contraction condition's left side, inf past the double range
    term1, term2 = _lhs_terms(inputs, rate)
    lhs = term1 + term2
    margin = 1.0 - lhs
    boundary = abs(lhs - 1.0) <= BOUNDARY_TOL
    contraction_ok = term1 < 1.0
    feasible = rate > 0.0 and (lhs <= 1.0 or boundary) and contraction_ok
    return Certificate(
        rate=rate,
        lhs_value=lhs,
        feasible=feasible,
        margin=margin,
        boundary=boundary,
    )
