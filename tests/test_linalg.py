import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swstab import (
    SCHUR_MARGIN,
    commutator,
    is_schur_stable,
    mat_power,
    operator_norm,
    spectral_radius,
)
from swstab.linalg import NonFiniteMatrixError, operator_norms, spectral_radii

small_matrices = arrays(
    np.float64,
    (3, 3),
    elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


def test_mat_power_zero_is_identity():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    assert np.array_equal(mat_power(a, 0), np.eye(2))


def test_mat_power_matches_stepwise_multiplication():
    a = np.array([[0.9, 0.7], [-0.3, 1.1]])
    p = np.eye(2)
    for k in range(1, 8):
        p = a @ p
        assert np.array_equal(mat_power(a, k), p)


def test_mat_power_rejects_negative_and_non_integer():
    with pytest.raises(ValueError):
        mat_power(np.eye(2), -1)
    with pytest.raises(ValueError):
        mat_power(np.eye(2), 1.5)


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([1.2, -0.4])) == pytest.approx(1.2, abs=1e-14)


def test_spectral_radius_rotation_is_one():
    th = 0.7
    r = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    assert spectral_radius(r) == pytest.approx(1.0, abs=1e-12)


def test_schur_class_boundaries():
    # stable
    assert is_schur_stable(np.diag([0.5, 0.1]))
    # marginal: radius within the margin of 1, never certified as stable
    for a in (np.diag([1.0, 0.1]), np.diag([1.0 - 1e-12, 0.1])):
        assert not is_schur_stable(a)
        assert abs(spectral_radius(a) - 1.0) <= SCHUR_MARGIN
    # unstable
    assert not is_schur_stable(np.diag([1.5, 0.1]))
    assert spectral_radius(np.diag([1.5, 0.1])) > 1.0 + SCHUR_MARGIN


def test_is_schur_stable_respects_margin():
    assert is_schur_stable(np.diag([1.0 - 2 * SCHUR_MARGIN, 0.0]))
    assert not is_schur_stable(np.diag([1.0 - SCHUR_MARGIN / 2, 0.0]))


def test_operator_norm_known_values():
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)
    # rank-one matrix: norm is the Frobenius norm
    a = np.outer([1.0, 2.0], [3.0, 4.0])
    assert operator_norm(a) == pytest.approx(np.linalg.norm(a), abs=1e-12)


def test_commutator_antisymmetric_and_traceless():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    e = commutator(a, b)
    assert np.array_equal(e, -(commutator(b, a)))
    assert np.trace(e) == pytest.approx(0.0, abs=1e-12)


def test_validation_rejects_non_finite():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        operator_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_stacked_kernels_give_the_bits_of_one_matrix_calls():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 6):
        # At d = 2 and 3 the stack mixes matrices with real and with complex
        # eigenvalues, so the stacked eigvals returns complex values where a
        # one-matrix call may return real ones.
        stack = rng.uniform(-1.0, 1.0, size=(40, dim, dim)) * 10.0 ** rng.integers(-100, 100, size=(40, 1, 1))
        radii, norms = spectral_radii(stack), operator_norms(stack)
        for a, r, s in zip(stack, radii, norms, strict=True):
            assert r == float(np.max(np.abs(np.linalg.eigvals(a))))
            assert s == float(np.linalg.svd(a, compute_uv=False)[0])
    with pytest.raises(NonFiniteMatrixError):
        spectral_radii(np.array([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]]))


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_spectral_radius_bounded_by_norm(a):
    assert spectral_radius(a) <= operator_norm(a) + 1e-9


@settings(max_examples=50, deadline=None)
@given(small_matrices, small_matrices)
def test_operator_norm_submultiplicative(a, b):
    assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-8
