"""Dense kernels for small real matrices.

Everything here is a pure function on plain float64 numpy arrays.
Eigenvalues come from LAPACK's QR iteration and operator norms from the
SVD; at the dimensions this package targets (d of a few) robustness beats
speed everywhere.  The stacked kernels (`spectral_radii`, `operator_norms`)
make one LAPACK call per matrix inside one numpy call, and give the same
bits as the one-matrix kernels on each matrix.

The Schur verdicts (`is_schur_stable` on one matrix, `schur_stable` on a
stack) of a 2 x 2 matrix come from a closed form (`_verdict_2x2`, which
holds the one band test) instead, without a LAPACK call; only where its
radius lies within a band of the threshold, or something leaves double
range, do they ask LAPACK.  Every verdict is the one LAPACK's radius gives.

Every operation calls numpy.linalg's own LAPACK gufuncs (see `_lapack`)
on the same float64 input, so every radius, norm and fitted line has
numpy's bits without its per-call wrapper.  This module is the package's
only door to LAPACK: no other module calls an eigenvalue, SVD or
least-squares routine, through numpy.linalg or `np.polyfit`
(`tests/test_imports.py` checks this).
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
from numpy.linalg import LinAlgError

# The gufuncs under numpy.linalg, as numpy 2 names them (numpy 1 had no
# `svd`); bound here so that a numpy without them fails on import.
from numpy.linalg._umath_linalg import eigvals as _eigvals
from numpy.linalg._umath_linalg import lstsq as _lstsq
from numpy.linalg._umath_linalg import svd as _svd

# Spectral radii within this margin below 1 are never certified as Schur
# stable.
SCHUR_MARGIN = 1e-9

# A closed-form radius within this multiple of S, the sum of the moduli of
# a 2 x 2 matrix's entries, of the threshold 1 - tol leaves the Schur
# verdict to LAPACK; `_verdict_2x2` alone applies this band.
_BAND = 2.0**-16

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
    return _finite(m)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 vector, optionally of a fixed dim."""
    v = _finite(np.array(x, dtype=float).reshape(-1))
    if v.size < 1:
        raise ValueError("vector must have at least one entry")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected a vector of dim {dim}, got {v.size}")
    return v


def batch_rows(dim: int) -> int:
    """Matrices of side `dim` that fit in one stack of BATCH_ENTRIES entries."""
    return max(1, BATCH_ENTRIES // (dim * dim))


def _not_converged(err, flag):
    raise LinAlgError("LAPACK did not converge")


@np.errstate(call=_not_converged, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack(gufunc, signature: str, *operands):
    """numpy.linalg's LAPACK `gufunc` on float64 operands, under
    numpy.linalg's error handling: non-convergence (which the gufunc flags
    as an invalid value) and operands whose shapes do not fit the gufunc
    raise LinAlgError, not a RuntimeWarning or a plain ValueError; over-
    and underflow inside LAPACK are ignored.  The error state is set as a
    decorator, which builds no `errstate` object per call."""
    try:
        return gufunc(*operands, signature=signature)
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


def _pick(cond, x, y):
    return x if cond else y


def _verdict_2x2(a, b, c, d, threshold, where):
    """The closed-form verdict ρ̂ < θ on [[a, b], [c, d]] (θ = `threshold`)
    and whether it is sure: ρ̂ finite and |ρ̂ - θ| > _BAND·S, S = |a| + |b|
    + |c| + |d|.  On Python floats or float64 arrays of entries alike (`&`
    is one rule on bools and bool arrays); `where(cond, x, y)` picks each
    branch (`_pick` for floats, `np.where` for arrays).

    With τ = (a + d)/2 and disc = ((a - d)/2)² + bc, which is τ² - det
    without the cancellation between them, the eigenvalues are τ ± √disc:
    ρ = |τ| + √disc when disc ≥ 0 and ρ = √det = √(ad - bc) when not.  ρ̂
    is nan where the second branch meets det < 0, which only rounding
    makes, and inf or nan where an intermediate of its branch leaves
    double range.

    Why a sure verdict is that of LAPACK's radius ρ_L: ρ̂ and ρ_L both lie
    within _BAND·S/2 of the exact radius ρ.  Write ρ(τ, D) for the largest
    modulus of τ ± √D.  If τ', D' differ from τ, D by δ, Δ, then √D' is
    within √|Δ| of √D or of -√D (their sum times their difference is Δ),
    so |ρ(τ', D') - ρ(τ, D)| ≤ |δ| + √|Δ|.  Also ‖A‖₂ ≤ S, and both
    ((a - d)/2)² + |bc| and |ad| + |bc| are at most S²/4.

    - Closed form.  By the rounding model of Higham (2002, *Accuracy and
      Stability of Numerical Algorithms*, ch. 3; u = 2⁻⁵³) the computed
      disc and det are within γ₄·S²/4 and γ₂·S²/4 of the exact ones, so
      the first branch is within √u·S + 3u·S of ρ.  The second runs
      where the computed disc is negative, so the exact disc is below
      γ₄·S²/4, and gives √det' = √(τ² - D') with D' within γ₂·S²/4 of
      disc: that is ρ(τ, D') where D' ≤ 0, and within 2√D' < 2.5√u·S of
      it where D' > 0.  Either way |ρ̂ - ρ| < 4√u·S ≈ 2⁻²⁴·S, near a
      defective matrix as anywhere else.
    - LAPACK.  numpy's eigvals (dgeev) returns the exact eigenvalues of
      A + E with ‖E‖₂ ≤ p·u·‖A‖₂, p a modest constant for n = 2
      (Anderson et al. 1999, *LAPACK Users' Guide*, §4.8).  Then
      |δ| ≤ ‖E‖₂ and |Δ| ≤ 4‖A‖₂‖E‖₂ + 2‖E‖₂² (the determinant moves by
      at most 2‖A‖₂‖E‖₂ + ‖E‖₂²), so |ρ_L - ρ| ≲ 2√(p·u)·S, which stays
      below _BAND·S/2 = 2⁻¹⁷·S for any p up to 10⁵.
    - Underflow, which Higham's model leaves out, adds at most 2⁻¹⁰⁷⁴ to
      a result, and moves ρ̂ by less than 2⁻⁵³⁰: below the band while
      S ≥ 2⁻⁴⁸⁰.  Below that, ρ̂ and ρ_L are both far below 2⁻⁵³, and θ
      is 0, negative or at least 2⁻⁵³, so both read stable iff θ > 0.
    """
    half = 0.5 * (a - d)
    bc = b * c
    disc = half * half + bc
    det = a * d - bc
    rho = where(
        disc >= 0.0,
        abs(0.5 * (a + d)) + abs(disc) ** 0.5,
        where(det >= 0.0, abs(det) ** 0.5, math.nan),
    )
    gap = abs(rho - threshold)
    sure = (_BAND * (abs(a) + abs(b) + abs(c) + abs(d)) < gap) & (gap < math.inf)
    return rho < threshold, sure


def is_schur_stable(a, tol: float = SCHUR_MARGIN) -> bool:
    """True iff the spectral radius is below 1 - tol.

    Marginal matrices (radius within tol of 1) are treated as not stable,
    so no certificate ever rests on rounding noise.  A 2 x 2 matrix is
    judged by `_verdict_2x2` on Python floats (numpy's scalar arithmetic
    on one matrix costs more than LAPACK) and handed to LAPACK only where
    that verdict is not sure; the verdict is always the one of
    `spectral_radius`.
    """
    m = np.asarray(a, dtype=float)
    threshold = 1.0 - tol
    if m.shape == (2, 2):
        (a, b), (c, d) = m.tolist()
        stable, sure = _verdict_2x2(a, b, c, d, threshold, _pick)
        if sure:
            return stable
    return spectral_radius(m) < threshold


@np.errstate(over="ignore", invalid="ignore", under="ignore")
def schur_stable(stack, tol: float = SCHUR_MARGIN) -> np.ndarray:
    """`is_schur_stable` of every matrix of a (k, d, d) stack, as a bool
    array; of a (d, d) matrix, as a 0-d one.  At d = 2 the closed form
    (`_verdict_2x2`) judges the whole stack at once, and one `spectral_radii`
    call the matrices whose verdict it leaves unsure, if any; at other d
    that call judges them all."""
    stack = np.asarray(stack, dtype=float)
    threshold = 1.0 - tol
    if stack.shape[-2:] != (2, 2):
        return spectral_radii(stack) < threshold
    stable, sure = _verdict_2x2(
        stack[..., 0, 0], stack[..., 0, 1], stack[..., 1, 0], stack[..., 1, 1], threshold, np.where
    )
    stable = np.asarray(stable)
    if not sure.all():
        stable[~sure] = spectral_radii(stack[~sure]) < threshold
    return stable


def operator_norm(a) -> float:
    """Induced Euclidean (spectral) norm: the largest singular value."""
    return float(_lapack(_svd, "d->d", as_matrix(a))[0])


def operator_norms(stack) -> np.ndarray:
    """`operator_norm` of every matrix of a (k, d, d) stack, in one batched
    SVD; of a (d, d) matrix, as a 0-d array."""
    return _lapack(_svd, "d->d", _finite(stack))[..., 0]


def least_squares_line(x, y) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through the points
    (x[i], y[i]), with the bits of `np.polyfit(x, y, 1)`: the same system
    (the Vandermonde matrix [x, 1] with its columns scaled to unit norm,
    and `y + 0.0`), solved by the same gufunc (LAPACK's SVD-based dgelsd)
    with the same cut-off `len(x) * eps`, and the same RankWarning when
    the system has rank below 2.  The inputs are not checked: an inf or
    nan in `y` gives a nan line, as it does in `np.polyfit`."""
    x = np.asarray(x) + 0.0
    lhs = np.empty((x.size, 2))
    lhs[:, 0], lhs[:, 1] = x, 1.0
    scale = np.sqrt(np.add.reduce(lhs * lhs, axis=0))
    lhs /= scale
    rhs = (np.asarray(y) + 0.0)[:, None]
    c, _, rank, _ = _lapack(_lstsq, "ddd->ddid", lhs, rhs, x.size * sys.float_info.epsilon)
    if rank < 2:
        warnings.warn("the line fit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    slope, intercept = (c[:, 0] / scale).tolist()
    return slope, intercept
