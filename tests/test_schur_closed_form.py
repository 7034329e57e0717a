"""The closed-form Schur verdicts of 2 x 2 matrices against LAPACK's.

`is_schur_stable` (one matrix) and `schur_stable` (a stack) judge a 2 x 2
matrix by a closed-form spectral radius, and hand it to LAPACK only where
that radius lies in a band around 1 - tol or is not finite.  Every
verdict must be the one numpy.linalg's radius gives; the `handed` fixture
counts the matrices that reached LAPACK.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import swstab.instances as instances
import swstab.search as search
from swstab import (
    SCHUR_MARGIN,
    find_stable_combination,
    generate_random_instance,
    is_schur_stable,
)
from swstab import linalg
from swstab.linalg import NonFiniteMatrixError, schur_stable, spectral_radii, spectral_radius

THRESHOLD = 1.0 - SCHUR_MARGIN


def lapack_verdicts(stack, tol=SCHUR_MARGIN) -> list[bool]:
    return (np.abs(np.linalg.eigvals(stack)).max(axis=-1) < 1.0 - tol).tolist()


def verdicts(stack, tol=SCHUR_MARGIN) -> tuple[list[bool], list[bool]]:
    """Each matrix's verdict from `schur_stable` and from `is_schur_stable`."""
    return schur_stable(stack, tol).tolist(), [is_schur_stable(m, tol) for m in stack]


@pytest.fixture
def handed(monkeypatch):
    """How many matrices the verdicts handed to LAPACK, in a one-item list."""
    count = [0]

    def radius(a):
        count[0] += 1
        return spectral_radius(a)

    def radii(stack):
        count[0] += int(np.prod(np.shape(stack)[:-2]))
        return spectral_radii(stack)

    monkeypatch.setattr(linalg, "spectral_radius", radius)
    monkeypatch.setattr(linalg, "spectral_radii", radii)
    return count


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float64, (8, 2, 2), elements=st.floats(-1.0, 1.0)),
    st.sampled_from([1e-3, 0.25, 0.5, 1.0, 2.0, 1e3]),
    st.sampled_from([SCHUR_MARGIN, 0.0, 0.5, 1.0, -1.0]),
)
def test_verdicts_are_lapacks_on_drawn_matrices(stack, scale, tol):
    stack = stack * scale
    want = lapack_verdicts(stack, tol)
    assert verdicts(stack, tol) == (want, want)


def _similar(rng, blocks: np.ndarray) -> np.ndarray:
    """P·J·P⁻¹ for each block J and a drawn P."""
    p = rng.uniform(-1.0, 1.0, size=blocks.shape) + 2.0 * np.eye(2)
    return p @ blocks @ np.linalg.inv(p)


def _jordan(lam: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    blocks = np.zeros((lam.size, 2, 2))
    blocks[:, 0, 0] = blocks[:, 1, 1] = lam
    blocks[:, 0, 1] = coupling
    return blocks


def _rotations(radius: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """radius·R(angle): a complex pair of modulus `radius`."""
    blocks = np.empty((radius.size, 2, 2))
    blocks[:, 0, 0] = blocks[:, 1, 1] = radius * np.cos(angle)
    blocks[:, 1, 0] = radius * np.sin(angle)
    blocks[:, 0, 1] = -blocks[:, 1, 0]
    return blocks


def test_near_defective_matrices_at_the_threshold_reach_lapack(handed):
    """Jordan-like blocks and complex pairs at radius 1 - tol ± 10^-17..10^-5,
    seen through drawn similarities: all lie in the band, so LAPACK gives
    every verdict."""
    rng = np.random.default_rng(11)
    offsets = np.array([sign * 10.0**-e for e in range(5, 18) for sign in (-1.0, 1.0)])
    radius = THRESHOLD + np.tile(offsets, 4)
    sign = np.repeat([1.0, -1.0, 1.0, -1.0], offsets.size)
    coupling = 10.0 ** rng.uniform(-3.0, 1.0, radius.size)
    stack = np.concatenate([
        _similar(rng, _jordan(sign * radius, coupling)),
        _similar(rng, _rotations(radius, rng.uniform(0.1, 3.0, radius.size))),
    ])
    want = lapack_verdicts(stack)
    assert True in want and False in want
    assert verdicts(stack) == (want, want)
    assert handed[0] == 2 * len(stack)


def test_matrices_just_past_the_band_are_decided_in_closed_form(handed):
    """The same Jordan-like blocks moved 1.5 to 100 bands off 1 - tol: the
    closed form decides them, and LAPACK's radius agrees."""
    rng = np.random.default_rng(12)
    k = 400
    sign = rng.choice([-1.0, 1.0], k)
    coupling = 10.0 ** rng.uniform(-3.0, 1.0, k)
    base = _similar(np.random.default_rng(13), _jordan(sign * THRESHOLD, coupling))
    scale = np.abs(base).sum(axis=(1, 2))
    for bands in (-100.0, -3.0, -1.5, 1.5, 3.0, 100.0):
        lam = sign * (THRESHOLD + bands * linalg._BAND * scale)
        stack = _similar(np.random.default_rng(13), _jordan(lam, coupling))
        want = lapack_verdicts(stack)
        assert want == [bands < 0] * k
        assert verdicts(stack) == (want, want)
    assert handed[0] == 0


@pytest.mark.parametrize("scale, reaches_lapack", [(1e-200, False), (1e200, True), (1e300, True)])
def test_entries_far_from_one(handed, scale, reaches_lapack):
    """Past 1e154 the closed form's squares overflow and LAPACK decides;
    at 1e-200 they underflow, and the closed form still decides.  Neither
    raises or warns, whatever numpy's error state."""
    stack = np.random.default_rng(14).uniform(-1.0, 1.0, size=(20, 2, 2)) * scale
    want = lapack_verdicts(stack)
    with np.errstate(all="raise"):
        assert verdicts(stack) == (want, want)
    assert handed[0] == (2 * len(stack) if reaches_lapack else 0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_raise(bad):
    m = np.array([[0.5, bad], [0.0, 0.5]])
    with pytest.raises(NonFiniteMatrixError):
        is_schur_stable(m)
    with pytest.raises(NonFiniteMatrixError):
        schur_stable(np.array([np.eye(2), m]))


@pytest.mark.parametrize("dim", [1, 3])
def test_other_dimensions_keep_lapack(handed, dim):
    stack = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(50, dim, dim))
    want = lapack_verdicts(stack)
    assert verdicts(stack) == (want, want)
    assert handed[0] == 2 * len(stack)


def test_a_bare_matrix_gives_a_0d_verdict(handed):
    for m, want in ((np.diag([0.5, 0.25]), True), (np.diag([THRESHOLD, 0.0]), False)):
        got = schur_stable(m)
        assert got.shape == () and bool(got) is want
    assert handed[0] == 1  # the second one lies in the band


def _outcome(comb):
    if comb is None:
        return None
    return (comb.head, comb.tail, comb.head_power, comb.tail_power, comb.product.tobytes(),
            comb.contraction_power, comb.contraction_norm)


def _population():
    """Families (as bytes) and combinations of population seeds 1000-1199."""
    out = []
    for k in range(200):
        family = generate_random_instance((2, 3, 10)[k % 3], 2, 1000 + k)
        out.append((family.stack.tobytes(), _outcome(find_stable_combination(family))))
    return out


def test_population_equals_a_lapack_only_classification(monkeypatch):
    closed_form = _population()
    monkeypatch.setattr(
        instances, "schur_stable", lambda stack, tol=SCHUR_MARGIN: spectral_radii(stack) < 1.0 - tol
    )
    monkeypatch.setattr(
        search, "is_schur_stable", lambda a, tol=SCHUR_MARGIN: spectral_radius(a) < 1.0 - tol
    )
    assert _population() == closed_form
    assert any(comb is None for _, comb in closed_form)
