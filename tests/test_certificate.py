import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    CertificateInputs,
    check_certificate,
    compute_constants,
    max_certified_rate,
    rate_upper_limit,
)
from swstab.certificate import RATE_SAFETY, _lhs_terms

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
        head_power=1,
        tail_power=1,
    )
    CertificateInputs(**kwargs)
    with pytest.raises(ValueError):
        CertificateInputs(**{**kwargs, "max_subsystem_norm": 0.9})
    with pytest.raises(ValueError):
        CertificateInputs(**{**kwargs, "contraction_norm": 1.0})
    with pytest.raises(ValueError):
        CertificateInputs(**{**kwargs, "max_commutator_norm": -1.0})


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
        head_power=1,
        tail_power=2,
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
        head_power=1,
        tail_power=2,
    )
    bigger = replace(base, max_commutator_norm=eps + bump)
    assert sum(_lhs_terms(bigger, 0.05)) > sum(_lhs_terms(base, 0.05))
