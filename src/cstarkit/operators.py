"""Dense complex-matrix substrate: norms, Hermitian spectra, functional calculus.

All matrices are plain ``numpy.ndarray`` values of dtype complex128.  The
functions here are the only place the package touches LAPACK, so spectral
conventions (ascending eigenvalues, deterministic eigenvector phases) are
fixed once and inherited by everything built on top.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


@dataclass(frozen=True)
class Tolerance:
    """Numerical slack for "exactly satisfies" checks.

    ``spectral`` guards invertibility thresholds and must lie in (0, 1e-4).
    ``algebraic`` guards identity checks such as ``p^2 = p`` and must lie
    in [1e-12, 1e-4): float64 roundings leave residuals of a few 1e-15,
    so a tighter algebraic tolerance could not be met.
    """

    spectral: float = 1e-10
    algebraic: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.spectral < 1e-4):
            raise PreconditionError(
                f"spectral tolerance must lie in (0, 1e-4), got {self.spectral!r}")
        if not (1e-12 <= self.algebraic < 1e-4):
            raise PreconditionError(
                f"algebraic tolerance must lie in [1e-12, 1e-4), got {self.algebraic!r}")


DEFAULT_TOL = Tolerance()


def _as_stack(m) -> np.ndarray:
    """Validate m as a (..., d, d) stack of square complex matrices with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_operator(m) -> np.ndarray:
    """Validate m as a square complex matrix with finite entries."""
    a = _as_stack(m)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def herm_part(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2


def _ordered_sum(stack: np.ndarray, axis: int) -> np.ndarray:
    """Sum along axis term by term from 0, in Python sum's order, on any leading axes."""
    total = 0
    for term in np.moveaxis(stack, axis, 0):
        total = total + term
    return total


def op_norm(m) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(as_operator(m), 2))


def op_norms(stack) -> np.ndarray:
    """Operator norms of a (..., d, d) stack, shape (...); one batched SVD.

    Runs the checks of as_operator on every matrix and matches op_norm on
    each one bit for bit.  An empty stack gives an empty array.
    """
    return np.linalg.norm(_as_stack(stack), 2, axis=(-2, -1))


def commutator(a, b) -> np.ndarray:
    """ab - ba for equal-dimension square matrices."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigenvalues (ascending, (..., d)) and matching orthonormal eigenvector columns.

    Eigenvector phases are fixed so the first significant component of each
    column is positive real, making repeated runs reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f) -> np.ndarray:
        """V f(w) V^H per matrix; f maps the (..., d) eigenvalue array to values."""
        return (self.eigenvectors * f(self.eigenvalues)[..., None, :]) @ dagger(self.eigenvectors)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    mags = np.abs(v)
    # first component carrying real weight, not a float shadow of zero
    significant = mags > 1e-6 * mags.max(axis=-2, keepdims=True)
    d = v.shape[-1]
    rows = np.argmax(significant, axis=-2).reshape(-1, d)
    # one flat fancy index picks each column's lead entry
    lead = v.reshape(-1, d, d)[np.arange(len(rows))[:, None], rows, np.arange(d)]
    # hypot rounds as the scalar abs does; the array np.abs does not always
    phase = (lead.conj() / np.hypot(lead.real, lead.imag)).reshape(v.shape[:-2] + (1, d))
    return v * phase


def hermitian_eig(m, tol: Tolerance = DEFAULT_TOL) -> HermitianSpectrum:
    """Spectral decomposition of a Hermitian matrix or a (..., d, d) stack.

    Each matrix must be Hermitian within ``tol.algebraic`` (exactly
    Hermitian input skips the defect's SVD) and is symmetrized before
    factoring, so the decomposition is exactly that of (m + m^H)/2.  One
    batched eigh, equal bit for bit to factoring each matrix alone.
    """
    a = _as_stack(m)
    skew = a - dagger(a)
    if skew.any():
        defect = float(op_norms(skew).max())
        if defect > tol.algebraic:
            raise PreconditionError(
                f"matrix is not Hermitian within tolerance: defect {defect:.6e}")
    w, v = np.linalg.eigh(herm_part(a))
    return HermitianSpectrum(eigenvalues=w, eigenvectors=_fix_phases(v))


def spectral_apply(m, f, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply a real function to a Hermitian matrix (or stack) through its spectrum.

    f maps the ascending eigenvalue array (float64, shape (..., d)) to a
    real array of the same shape, e.g. ``lambda w: (w >= 0.5).astype(float)``.
    f is evaluated only at the computed eigenvalues, so step functions are
    fine as long as the spectrum stays clear of the jump.
    """
    return hermitian_eig(m, tol).apply(f)


def _polar_unitaries(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unitary polar factor, smallest singular value) per matrix of a (..., d, d) stack.

    One batched SVD, equal bit for bit to factoring each matrix alone.
    """
    w, s, vh = np.linalg.svd(stack)
    return w @ vh, s[..., -1]


def _singular_polar(smallest: float, tol: Tolerance) -> PreconditionError | None:
    """The error for a polar factor whose smallest singular value makes a^H a singular, or None."""
    low = float(smallest) ** 2
    if low <= tol.spectral:
        return PreconditionError(
            f"a^H a is singular within tolerance: smallest eigenvalue {low:.6e}")
    return None


def polar_unitary(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor a(a^H a)^(-1/2) of an invertible matrix.

    Computed from the SVD, which is the same matrix evaluated stably.
    Requires the smallest eigenvalue of a^H a to exceed ``tol.spectral``.
    """
    u, smallest = _polar_unitaries(as_operator(a))
    error = _singular_polar(smallest, tol)
    if error is not None:
        raise error
    return u
