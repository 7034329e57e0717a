"""Dense kernels for small real matrices.

Everything here is a pure function on plain float64 numpy arrays.
Eigenvalues come from LAPACK's QR iteration and operator norms from the
SVD; at the dimensions this package targets (d of a few) robustness beats
speed everywhere.
"""

from __future__ import annotations

import numpy as np

# Spectral radii within this margin below 1 are never certified as Schur
# stable.
SCHUR_MARGIN = 1e-9


class NonFiniteMatrixError(ValueError):
    """A matrix has an inf or nan entry, as a product past double range does."""


def as_matrix(a) -> np.ndarray:
    """Validate and return a square, finite float64 matrix."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteMatrixError("matrix entries must be finite")
    return m


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 vector, optionally of a fixed dim."""
    v = np.array(x, dtype=float).reshape(-1)
    if v.size < 1:
        raise ValueError("vector must have at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
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


def spectral_radius(a) -> float:
    """Maximum eigenvalue modulus of A (LAPACK's QR iteration)."""
    a = as_matrix(a)
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def is_schur_stable(a, tol: float = SCHUR_MARGIN) -> bool:
    """True iff the spectral radius is below 1 - tol.

    Marginal matrices (radius within tol of 1) are treated as not stable,
    so no certificate ever rests on rounding noise.
    """
    return spectral_radius(a) < 1.0 - tol


def operator_norm(a) -> float:
    """Induced Euclidean (spectral) norm: the largest singular value."""
    a = as_matrix(a)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def operator_norms(stack) -> np.ndarray:
    """`operator_norm` of every matrix of a (k, d, d) stack, in one batched SVD."""
    if not np.all(np.isfinite(stack)):
        raise NonFiniteMatrixError("matrix entries must be finite")
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a
