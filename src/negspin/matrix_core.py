"""Dense complex linear algebra kernel shared by every operator module.

All matrices are numpy ``complex128`` arrays.  Equality is always tested
through an explicit elementwise tolerance (``residual_norm``), never with
exact float comparison.

Broadcasting convention: every function here accepts a stack of matrices
``(..., n, n)`` (and of vectors ``(..., n)``) and returns one result per
stacked entry, shape ``(...)``; a single matrix gives a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "EigenDecomposition",
    "expect",
    "hermitian_eig",
    "matrix_dot",
    "residual_norm",
]

# Max-abs bound for accepting input as Hermitian, and for the
# orthonormality / reconstruction residuals of a returned decomposition.
HERMITICITY_TOL = 1e-10
DECOMPOSITION_TOL = 1e-10
# Largest imaginary part an expectation of a Hermitian operator may carry.
LEAKAGE_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Eigensolver failed or produced a decomposition outside its bounds."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    return m


def residual_norm(a, b):
    """Max-abs elementwise difference of two same-shape matrices, per stacked matrix."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.max(np.abs(a - b), axis=(-2, -1))


def matrix_dot(x, matrices) -> np.ndarray:
    """sum_i x[..., i] matrices[i], e.g. alpha.p from momenta of shape (..., 3)."""
    x = np.asarray(x)
    return sum(x[..., i, None, None] * m for i, m in enumerate(matrices))


def expect(psi, op):
    """Expectation <psi| op |psi> of a Hermitian operator over the last axis of psi.

    Broadcasts ``psi`` (..., n) against ``op`` (..., n, n) and returns the real
    values, shape (...).  Imaginary leakage beyond 1e-12 would mean a broken
    operator and raises.
    """
    psi = np.asarray(psi)
    value = (psi.conj()[..., None, :] @ (op @ psi[..., None]))[..., 0, 0]
    leak = np.max(np.abs(value.imag), initial=0.0)
    if leak > LEAKAGE_TOL:  # pragma: no cover - callers pass Hermitian operators
        raise ArithmeticError(f"imaginary leakage {leak} in an expectation value")
    return value.real


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix, or each matrix of a stack (..., n, n).

    Eigenvalues come back ascending along the last axis; column ``j`` of
    ``eigenvectors`` belongs to ``eigenvalues[..., j]``.  For degenerate
    clusters the individual columns are basis-dependent, so downstream
    comparisons must use subspace projectors.

    Raises
    ------
    ValueError
        Non-square input, non-finite entries, or input not Hermitian within
        1e-10 max-abs.
    ConvergenceError
        Backend failure, or residuals ``V†V - I`` / ``HV - VΛ`` not below 1e-10.

    Each bound is checked on the maximum over the stack.
    """
    h = _as_matrix(h)
    n = h.shape[-1]
    if h.shape[-2] != n:
        raise ValueError(f"expected square matrices, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix has non-finite entries")
    if np.max(residual_norm(h, np.swapaxes(h, -1, -2).conj())) >= HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within 1e-10 max-abs")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as err:  # pragma: no cover - backend failure
        raise ConvergenceError(f"eigensolver did not converge: {err}") from err
    overlap = np.swapaxes(eigenvectors, -1, -2).conj() @ eigenvectors
    ortho = np.max(residual_norm(overlap, np.broadcast_to(np.eye(n, dtype=np.complex128), overlap.shape)))
    recon = np.max(residual_norm(h @ eigenvectors, eigenvectors * eigenvalues[..., None, :]))
    if not (ortho < DECOMPOSITION_TOL and recon < DECOMPOSITION_TOL):
        raise ConvergenceError(
            f"decomposition residuals too large: ortho={ortho:.3e} recon={recon:.3e}"
        )
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
