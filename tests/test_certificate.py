import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    CertificateInputs,
    build_graph,
    check_certificate,
    compute_constants,
    find_stable_combination,
    generate_random_instance,
    max_certified_rate,
    rate_upper_limit,
    walk_to_signal,
)
from swstab.certificate import RATE_SAFETY, _lhs_terms
from swstab.linalg import spectral_radius

# Closed-form references for the diagonal pair: rho = 0.48, block = 2,
# m = 1, eps = 0, so LHS(r) = 0.48 * exp(2r) and the supremum rate is
# -ln(0.48)/2.
DIAG_SUP_RATE = -math.log(0.48) / 2.0  # 0.3669845875401002
DIAG_LHS_03 = 0.48 * math.exp(0.6)  # 0.8746170241874442


def diag_inputs(diag_family, diag_comb):
    return compute_constants(diag_family, diag_comb)


def test_constants_diagonal(diag_family, diag_comb):
    ins = diag_inputs(diag_family, diag_comb)
    assert ins.n_subsystems == 2
    assert ins.max_subsystem_norm == pytest.approx(1.2, abs=1e-14)
    assert ins.combination_norm == pytest.approx(0.48, abs=1e-14)
    assert ins.max_commutator_norm == 0.0
    assert (ins.contraction_power, ins.contraction_norm) == (1, pytest.approx(0.48))
    assert ins.block_duration == 2


def test_lhs_closed_form(diag_family, diag_comb):
    ins = diag_inputs(diag_family, diag_comb)
    assert sum(_lhs_terms(ins, 0.3)) == pytest.approx(DIAG_LHS_03, abs=1e-12)
    assert sum(_lhs_terms(ins, 0.0)) == pytest.approx(0.48, abs=1e-14)


def test_max_rate_closed_form_when_commutator_vanishes(diag_family, diag_comb):
    ins = diag_inputs(diag_family, diag_comb)
    best = max_certified_rate(ins)
    assert best == pytest.approx(DIAG_SUP_RATE, abs=1e-12)
    assert best == pytest.approx(rate_upper_limit(ins), abs=1e-14)


def test_inputs_validation():
    kwargs = dict(
        n_subsystems=2,
        max_subsystem_norm=1.2,
        combination_norm=0.48,
        max_commutator_norm=0.0,
        contraction_power=1,
        contraction_norm=0.48,
        block_duration=2,
    )
    CertificateInputs(**kwargs)
    with pytest.raises(ValueError):
        CertificateInputs(**{**kwargs, "max_subsystem_norm": 0.9})
    with pytest.raises(ValueError):
        CertificateInputs(**{**kwargs, "contraction_norm": 1.0})
    with pytest.raises(ValueError):
        CertificateInputs(**{**kwargs, "max_commutator_norm": -1.0})
    # without the check, a zero contraction power divides by zero in
    # rate_upper_limit and takes log(0) in max_certified_rate
    with pytest.raises(ValueError, match="powers must be positive integers"):
        CertificateInputs(**{**kwargs, "contraction_power": 0})
    with pytest.raises(ValueError, match="powers must be positive integers"):
        CertificateInputs(**{**kwargs, "contraction_power": 0, "block_duration": 0})


def test_max_rate_none_when_infeasible_at_zero(diag_family, diag_comb):
    ins = replace(diag_inputs(diag_family, diag_comb), max_commutator_norm=10.0)
    assert max_certified_rate(ins) is None


def test_bisection_endpoint_near_unity(diag_family, diag_comb):
    ins = replace(diag_inputs(diag_family, diag_comb), max_commutator_norm=1e-3)
    best = max_certified_rate(ins)
    assert best is not None
    assert abs(sum(_lhs_terms(ins, best)) - 1.0) <= 1e-8


def test_check_certificate_auto_rate(diag_family, diag_comb):
    cert = check_certificate(diag_family, diag_comb)
    assert cert.feasible
    assert cert.rate == pytest.approx(DIAG_SUP_RATE * (1.0 - RATE_SAFETY), rel=1e-12)
    assert cert.lhs_value < 1.0
    assert cert.margin == pytest.approx(1.0 - cert.lhs_value, abs=1e-15)


def test_check_certificate_explicit_rate(diag_family, diag_comb):
    cert = check_certificate(diag_family, diag_comb, rate=0.3)
    assert cert.feasible
    assert cert.lhs_value == pytest.approx(DIAG_LHS_03, abs=1e-12)
    too_fast = check_certificate(diag_family, diag_comb, rate=2 * DIAG_SUP_RATE)
    assert not too_fast.feasible
    with pytest.raises(ValueError):
        check_certificate(diag_family, diag_comb, rate=0.0)


def test_shear_certificate_infeasible(shear_family, shear_comb):
    # Large commutators swamp the contraction: LHS already exceeds 1 at rate 0.
    ins = compute_constants(shear_family, shear_comb)
    assert ins.max_commutator_norm > 0.0
    assert max_certified_rate(ins) is None
    cert = check_certificate(shear_family, shear_comb)
    assert not cert.feasible
    assert cert.rate == 0.0


def test_certificate_feasible_on_an_instance_that_diverges():
    # Population instance 3592 (N = 2, d = 2): the paper's inequality holds,
    # yet the admissible closed walk (2, hub), repeated forever, runs the
    # steps (2, 2, 1), whose product has spectral radius 1.0410 > 1.  So the
    # certificate can certify a family that one schedule drives to infinity,
    # not only over-claim its rate.
    family = generate_random_instance(2, 2, 3592)
    comb = find_stable_combination(family)
    cert = check_certificate(family, comb)
    assert cert.feasible and cert.rate > 0.0
    signal = walk_to_signal(build_graph(2), [2, 3], comb)
    assert signal.steps == (2, 2, 1)
    cycle = np.eye(2)
    for ell in signal.steps:
        cycle = family.matrix(ell) @ cycle
    assert spectral_radius(cycle) == pytest.approx(1.0410, abs=1e-4)


def test_certificate_carries_its_constants_and_max_rate(diag_family, diag_comb, shear_family, shear_comb):
    cases = [(diag_family, diag_comb, None), (diag_family, diag_comb, 0.3), (shear_family, shear_comb, None)]
    for family, comb, rate in cases:
        cert = check_certificate(family, comb, rate)
        inputs = compute_constants(family, comb)
        assert cert.inputs == inputs
        assert cert.max_rate == max_certified_rate(inputs)
    assert cert.max_rate is None


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 1.0),
    st.floats(1e-6, 0.5),
)
def test_lhs_strictly_increasing_in_rate(rate, bump):
    ins = CertificateInputs(
        n_subsystems=3,
        max_subsystem_norm=1.5,
        combination_norm=0.7,
        max_commutator_norm=0.01,
        contraction_power=2,
        contraction_norm=0.6,
        block_duration=3,
    )
    assert sum(_lhs_terms(ins, rate + bump)) > sum(_lhs_terms(ins, rate))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-6, 0.5))
def test_lhs_strictly_increasing_in_commutator_norm(eps, bump):
    base = CertificateInputs(
        n_subsystems=3,
        max_subsystem_norm=1.5,
        combination_norm=0.7,
        max_commutator_norm=eps,
        contraction_power=2,
        contraction_norm=0.6,
        block_duration=3,
    )
    bigger = replace(base, max_commutator_norm=eps + bump)
    assert sum(_lhs_terms(bigger, 0.05)) > sum(_lhs_terms(base, 0.05))
