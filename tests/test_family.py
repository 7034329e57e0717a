import numpy as np
import pytest

from swstab import MatrixFamily
from swstab.linalg import NonFiniteMatrixError


def test_needs_at_least_two_subsystems():
    with pytest.raises(ValueError):
        MatrixFamily((np.eye(2),))


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="subsystem 2"):
        MatrixFamily((np.eye(2), np.eye(3)))


def test_matrix_is_one_based(diag_family):
    assert np.array_equal(diag_family.matrix(1), np.diag([1.2, 0.4]))
    assert np.array_equal(diag_family.matrix(2), np.diag([0.4, 1.2]))
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            diag_family.matrix(bad)


def test_dim_and_size(diag_family):
    assert diag_family.dim == 2
    assert diag_family.size == 2


def test_subsystems_are_read_only(diag_family):
    with pytest.raises(ValueError):
        diag_family.matrix(1)[0, 0] = 99.0


def test_stack_is_read_only_and_holds_the_subsystems(diag_family):
    stack = diag_family.stack
    assert stack.shape == (2, 2, 2) and stack.dtype == np.float64
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 99.0
    for k, a in enumerate(diag_family.subsystems):
        assert np.shares_memory(a, stack) and np.array_equal(a, stack[k])


def test_accepts_nested_lists():
    fam = MatrixFamily(([[2.0, 0.0], [0.0, 2.0]], [[3.0, 0.0], [0.0, 3.0]]))
    assert fam.dim == 2
    assert fam.subsystems[0].dtype == np.float64


def test_family_keeps_its_own_copy():
    a, b = np.diag([2.0, 0.5]), np.diag([0.5, 2.0])
    fam = MatrixFamily((a, b))
    a[0, 0] = b[1, 1] = 99.0
    assert np.array_equal(fam.matrix(1), np.diag([2.0, 0.5]))
    assert np.array_equal(fam.matrix(2), np.diag([0.5, 2.0]))
    assert not np.shares_memory(fam.matrix(1), a)


@pytest.mark.parametrize(
    ("subsystems", "error", "message"),
    [
        (([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 0.0]] * 3), ValueError, "subsystem 2 has dim 3, expected 2"),
        ((np.eye(2), np.ones((2, 3))), ValueError, r"expected a square matrix, got shape \(2, 3\)"),
        ((np.eye(2), np.zeros((0, 0))), ValueError, r"expected a square matrix, got shape \(0, 0\)"),
        ((np.eye(2), [1.0, 2.0]), ValueError, r"expected a square matrix, got shape \(2,\)"),
        ((np.eye(2), np.diag([np.nan, 1.0])), NonFiniteMatrixError, "matrix entries must be finite"),
        (([[np.inf]], [[1.0]]), NonFiniteMatrixError, "matrix entries must be finite"),
        ((), ValueError, "a family needs at least two subsystems"),
    ],
)
def test_rejects_bad_subsystems(subsystems, error, message):
    with pytest.raises(error, match=message):
        MatrixFamily(subsystems)
