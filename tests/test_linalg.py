import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swstab import SCHUR_MARGIN, is_schur_stable, operator_norm, spectral_radius
from swstab import linalg
from swstab.linalg import NonFiniteMatrixError, operator_norms, schur_stable, spectral_radii

small_matrices = arrays(
    np.float64,
    (3, 3),
    elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


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


def test_validation_rejects_non_finite():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        operator_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: linalg.as_matrix(np.ones((2, 3))), r"square matrix, got shape \(2, 3\)"),
        (lambda: linalg.as_matrix(np.ones(4)), r"square matrix, got shape \(4,\)"),
        (lambda: linalg.as_matrix(np.ones((0, 0))), r"square matrix, got shape \(0, 0\)"),
        (lambda: linalg.as_vector([]), "at least one entry"),
        (lambda: linalg.as_vector([1.0, 2.0], dim=3), "dim 3, got 2"),
    ],
    ids=["matrix-not-square", "matrix-1d", "matrix-empty", "vector-empty", "vector-wrong-dim"],
)
def test_shape_errors_name_the_shape(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_spectral_radius_bounded_by_norm(a):
    assert spectral_radius(a) <= operator_norm(a) + 1e-9


@settings(max_examples=50, deadline=None)
@given(small_matrices, small_matrices)
def test_operator_norm_submultiplicative(a, b):
    assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-8


def _bit_cases(dim: int, rng) -> np.ndarray:
    """Matrices of side `dim` with real and complex spectra, a Jordan block,
    nilpotent and zero matrices, entries near 1e+150 and 1e-150, and entries
    scaled by 10^-100 to 10^100 at random."""
    plain = rng.uniform(-1.0, 1.0, size=(30, dim, dim))
    symmetric = plain + plain.transpose(0, 2, 1)  # real spectra
    jordan = 0.9 * np.eye(dim) + np.eye(dim, k=1)
    nilpotent = np.triu(rng.uniform(-1.0, 1.0, size=(dim, dim)), k=1)
    cases = [plain, symmetric, jordan[None], nilpotent[None], np.zeros((1, dim, dim))]
    if dim > 1:
        th = rng.uniform(0.0, math.pi, size=10)
        rotations = np.zeros((10, dim, dim))
        rotations[:, 0, 0] = rotations[:, 1, 1] = np.cos(th)
        rotations[:, 0, 1], rotations[:, 1, 0] = -np.sin(th), np.sin(th)
        cases.append(rotations * 1.5)  # complex spectra
    stack = np.concatenate(cases)
    scaled = plain * 10.0 ** rng.integers(-100, 100, size=(30, 1, 1))
    return np.concatenate([stack, stack * 1e150, stack * 1e-150, scaled])


def test_stacked_kernels_give_the_bits_of_one_matrix_calls():
    """Stacked and one-matrix kernels give, by their bytes, the radius and
    the norm that numpy.linalg's eigvals and svd give each matrix.  At d >= 2
    a stack mixes matrices with real and with complex eigenvalues, so the
    stacked eigvals returns complex values where a one-matrix numpy.linalg
    call returns real ones."""
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 4, 6, 10):
        stack = _bit_cases(dim, rng)
        radii = np.array([np.abs(np.linalg.eigvals(m)).max() for m in stack])
        norms = np.array([np.linalg.svd(m, compute_uv=False)[0] for m in stack])
        assert spectral_radii(stack).tobytes() == radii.tobytes()
        assert operator_norms(stack).tobytes() == norms.tobytes()
        for m, r, s in zip(stack, radii, norms, strict=True):
            assert np.float64(spectral_radius(m)).tobytes() == r.tobytes()
            assert np.float64(operator_norm(m)).tobytes() == s.tobytes()
            # a bare (d, d) matrix gives a 0-d array
            assert spectral_radii(m).shape == operator_norms(m).shape == ()
            assert spectral_radii(m).tobytes() == r.tobytes()
            assert operator_norms(m).tobytes() == s.tobytes()
        empty = np.zeros((0, dim, dim))
        assert spectral_radii(empty).shape == operator_norms(empty).shape == (0,)
    with pytest.raises(NonFiniteMatrixError):
        spectral_radii(np.array([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]]))


def _layouts(m: np.ndarray) -> dict:
    """`m` as inputs the one-matrix kernels take without copying them, and
    as inputs they must convert: a transposed view (of m.T), a strided view,
    Fortran order, ints, nested lists and a read-only array."""
    strided = np.zeros((2 * m.shape[0], 3 * m.shape[1]))
    strided[::2, ::3] = m
    read_only = m.copy()
    read_only.setflags(write=False)
    return {
        "transposed view": np.ascontiguousarray(m.T).T,
        "strided view": strided[::2, ::3],
        "Fortran order": np.asfortranarray(m),
        "ints": np.rint(m * 4).astype(np.int64),
        "nested lists": m.tolist(),
        "read-only": read_only,
    }


def test_one_matrix_kernels_take_views_and_other_inputs_as_numpy_linalg_does():
    """The one-matrix kernels no longer copy a float64 input; on views,
    Fortran order, ints, nested lists and read-only arrays they give the
    bits of numpy.linalg on the same input and leave it unchanged."""
    rng = np.random.default_rng(7)
    rotation = 1.5 * np.array([[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]])
    cases = [rng.uniform(-1.0, 1.0, size=(d, d)) for d in (1, 2, 3, 4)]
    cases += [rotation, np.diag([0.5, 0.25]), 0.9 * np.eye(3) + np.eye(3, k=1)]
    for m in cases:
        for name, x in _layouts(m).items():
            before = np.array(x, dtype=float).tobytes()
            plain = np.array(x, dtype=float)
            radius = np.abs(np.linalg.eigvals(plain)).max()
            norm = np.linalg.svd(plain, compute_uv=False)[0]
            assert np.float64(spectral_radius(x)).tobytes() == radius.tobytes(), name
            assert np.float64(operator_norm(x)).tobytes() == norm.tobytes(), name
            assert is_schur_stable(x) == (radius < 1.0 - SCHUR_MARGIN), name
            assert np.array(x, dtype=float).tobytes() == before, name
            if isinstance(x, np.ndarray):
                assert x.flags.writeable == (name != "read-only"), name


def test_direct_kernels_refuse_stacks_numpy_linalg_refuses():
    for bad in (np.zeros((3, 2, 3)), np.zeros(4)):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvals(bad)
        with pytest.raises(np.linalg.LinAlgError):
            spectral_radii(bad)
    with pytest.raises(np.linalg.LinAlgError):
        operator_norms(np.zeros(4))
    with pytest.raises(NonFiniteMatrixError):
        operator_norms(np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]]))


@pytest.mark.parametrize("gufunc", ["_eigvals", "_svd", "_lstsq"])
def test_lapack_non_convergence_raises_linalg_error(monkeypatch, gufunc):
    def not_converging(stack, *operands, signature):
        # LAPACK's failure reaches numpy as an invalid value: a nan result
        # with the floating-point invalid flag raised.
        return np.sqrt(np.full(stack.shape[:-1], -1.0))

    monkeypatch.setattr(linalg, gufunc, not_converging)
    a = np.diag([0.5, 2.0])
    # a Schur verdict asks LAPACK at d != 2, and at d = 2 only for a
    # matrix whose closed-form radius lies in the band around 1 - tol
    verdict_inputs = (np.diag([0.5, 2.0, 0.1]), np.diag([1.0 - SCHUR_MARGIN, 0.0]))
    calls = {
        "_eigvals": [(spectral_radius, a), (spectral_radii, a)]
        + [(verdict, x) for verdict in (is_schur_stable, schur_stable) for x in verdict_inputs],
        "_svd": [(operator_norm, a), (operator_norms, a)],
        "_lstsq": [(lambda a: linalg.least_squares_line(a[0], a[1]), a)],
    }[gufunc]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, x in calls:
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                call(x)


def _line_and_warnings(fit, x, y):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = np.array(fit(x, y), dtype=float).tobytes()
    return line, [w.category for w in caught]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 60),
    st.floats(-1e6, 1e6),
    st.floats(1e-3, 1e6),
    st.booleans(),  # every x the same (and not 0): a system of rank 1
    st.integers(0, 2**32 - 1),
)
def test_least_squares_line_gives_the_bits_of_polyfit(n, shift, spread, flat, seed):
    rng = np.random.default_rng(seed)
    x = np.full(n, spread) if flat else shift + spread * rng.standard_normal(n)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
    got = _line_and_warnings(linalg.least_squares_line, x, y)
    want = _line_and_warnings(lambda x, y: np.polyfit(x, y, 1), x, y)
    assert got == want
    assert bool(got[1]) == (flat or n == 1)
