"""Dense kernels for small real matrices.

Everything here is a pure function on plain float64 numpy arrays.
Eigenvalues come from LAPACK's QR iteration and operator norms from the
SVD; at the dimensions this package targets (d of a few) robustness beats
speed everywhere.  The stacked kernels (`spectral_radii`, `operator_norms`)
make one LAPACK call per matrix inside one numpy call, and give the same
bits as the one-matrix kernels on each matrix.

Both operations call numpy.linalg's own LAPACK gufuncs (see `_lapack`)
on the same float64 input, so every radius and norm has numpy.linalg's
bits without its per-call wrapper.  This module is the package's one door
to LAPACK.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

# The gufuncs under numpy.linalg, as numpy 2 names them (numpy 1 had no
# `svd`); bound here so that a numpy without them fails on import.
from numpy.linalg._umath_linalg import eigvals as _eigvals
from numpy.linalg._umath_linalg import svd as _svd

# Spectral radii within this margin below 1 are never certified as Schur
# stable.
SCHUR_MARGIN = 1e-9

# A stack of matrices that the package forms at once holds at most this
# many entries (1 MiB of float64).
BATCH_ENTRIES = 2**17


class NonFiniteMatrixError(ValueError):
    """A matrix has an inf or nan entry, as a product past double range does."""


def _finite(stack) -> np.ndarray:
    """`stack` as a float64 array (not copied if it is one), refused if an
    entry is not finite.  Counting the finite entries is one C call, about
    half the cost of `ndarray.all()` on a small matrix."""
    stack = np.asarray(stack, dtype=float)
    if np.count_nonzero(np.isfinite(stack)) != stack.size:
        raise NonFiniteMatrixError("matrix entries must be finite")
    return stack


def as_matrix(a) -> np.ndarray:
    """Validate and return a square, finite float64 matrix; `a` itself, not
    a copy, when it is one already, so callers must not write to it."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) != m.size:  # as in _finite
        raise NonFiniteMatrixError("matrix entries must be finite")
    return m


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 vector, optionally of a fixed dim."""
    v = _finite(np.array(x, dtype=float).reshape(-1))
    if v.size < 1:
        raise ValueError("vector must have at least one entry")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected a vector of dim {dim}, got {v.size}")
    return v


def mat_power(a, k: int) -> np.ndarray:
    """A**k by iterated left-multiplication; A**0 is the identity.

    Iterated multiplication (not repeated squaring) so the floating-point
    result matches a step-by-step simulation of the same product exactly.
    """
    a = as_matrix(a)
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
    p = np.eye(a.shape[0])
    for _ in range(k):
        p = a @ p
    return p


def batch_rows(dim: int) -> int:
    """Matrices of side `dim` that fit in one stack of BATCH_ENTRIES entries."""
    return max(1, BATCH_ENTRIES // (dim * dim))


def _not_converged(err, flag):
    raise LinAlgError("LAPACK did not converge")


@np.errstate(call=_not_converged, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack(gufunc, signature: str, stack: np.ndarray) -> np.ndarray:
    """numpy.linalg's LAPACK `gufunc` on a finite float64 stack, under
    numpy.linalg's error handling: non-convergence (which the gufunc flags
    as an invalid value) and a stack whose shape does not fit the gufunc
    raise LinAlgError, not a RuntimeWarning or a plain ValueError; over-
    and underflow inside LAPACK are ignored.  The error state is set as a
    decorator, which builds no `errstate` object per call."""
    try:
        return gufunc(stack, signature=signature)
    except LinAlgError:
        raise
    except ValueError as err:
        raise LinAlgError(str(err)) from None


def spectral_radii(stack) -> np.ndarray:
    """Maximum eigenvalue modulus of every matrix of a (k, d, d) stack, in
    one batched eigvals (LAPACK's QR iteration); of a (d, d) matrix, as a
    0-d array."""
    return np.abs(_lapack(_eigvals, "d->D", _finite(stack))).max(axis=-1)


def spectral_radius(a) -> float:
    """Maximum eigenvalue modulus of A.  The moduli are numpy's `abs` (a
    Python `abs` of a complex can differ from it in the last bit), reduced
    as a list: for a few values that is faster than `ndarray.max`."""
    return max(np.abs(_lapack(_eigvals, "d->D", as_matrix(a))).tolist())


def is_schur_stable(a, tol: float = SCHUR_MARGIN) -> bool:
    """True iff the spectral radius is below 1 - tol.

    Marginal matrices (radius within tol of 1) are treated as not stable,
    so no certificate ever rests on rounding noise.
    """
    return spectral_radius(a) < 1.0 - tol


def operator_norm(a) -> float:
    """Induced Euclidean (spectral) norm: the largest singular value."""
    return float(_lapack(_svd, "d->d", as_matrix(a))[0])


def operator_norms(stack) -> np.ndarray:
    """`operator_norm` of every matrix of a (k, d, d) stack, in one batched
    SVD; of a (d, d) matrix, as a 0-d array."""
    return _lapack(_svd, "d->d", _finite(stack))[..., 0]


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a
