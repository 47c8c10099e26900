"""Concrete 4x4 anticommuting-matrix representation and its identity checks.

Block convention: ``beta = diag(I2, -I2)`` and ``alpha_i`` carries ``sigma_i``
off-diagonally, i.e. ``alpha_i = kron(sigma_x, sigma_i)``.  The chirality
matrix ``gamma5`` is never hard-coded: it is the product
``gamma1 @ gamma2 @ gamma3 @ gamma0`` of the Hermitian matrices
``gamma_k = -i beta alpha_k``, ``gamma0 = beta``.  In this convention
``gamma5 = -offdiag(I2, I2)`` and ``i beta gamma5 = offdiag(-i I2, i I2)``;
both are Hermitian and square to the identity.

Two derived operators drive the wave-equation rearrangements downstream:

* ``gamma1_proj = I - i beta gamma5``   (Hermitian, singular; half of it is a projector)
* ``gamma2_op   = (I + i gamma5) beta`` (Hermitian and unitary up to sqrt(2))
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix_core import residual_norm

__all__ = [
    "CheckEntry",
    "DiracBasis",
    "IDENTITY_TOL",
    "dirac_representation",
    "verify_clifford_identities",
    "verify_gamma_properties",
]

IDENTITY_TOL = 1e-14

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
I2 = np.eye(2, dtype=np.complex128)
I4 = np.eye(4, dtype=np.complex128)

for _m in (*PAULI, I2, I4):
    _m.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CheckEntry:
    """One named residual check; ``passed`` is residual <= tolerance, derived,
    so a NaN residual fails.  On stacked inputs the residual is an array of
    the stack's shape and ``passed`` one flag per entry, else a float and a
    bool.  ``negspin.cli`` alone renders a check."""

    name: str
    residual: float | np.ndarray
    tolerance: float

    @property
    def passed(self) -> bool | np.ndarray:
        return self.residual <= self.tolerance


def entry(name: str, residual, tolerance: float) -> CheckEntry:
    residual = np.asarray(residual, dtype=float)
    return CheckEntry(name, float(residual) if residual.ndim == 0 else residual, float(tolerance))


@dataclass(frozen=True, eq=False)
class DiracBasis:
    """The 4x4 matrices of the block convention, plus derived operators."""

    alpha: tuple[np.ndarray, np.ndarray, np.ndarray]
    beta: np.ndarray
    gamma5: np.ndarray
    gamma1_proj: np.ndarray
    gamma2_op: np.ndarray
    i_beta_gamma5: np.ndarray


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=1)
def dirac_representation() -> DiracBasis:
    """Build the basis; gamma5 comes from the product, never a literal."""
    alpha = tuple(_frozen(np.kron(SIGMA_X, s)) for s in PAULI)
    beta = _frozen(np.kron(SIGMA_Z, I2))
    gamma_k = tuple(_frozen(-1j * beta @ a) for a in alpha)
    gamma5 = _frozen(gamma_k[0] @ gamma_k[1] @ gamma_k[2] @ beta)
    i_beta_gamma5 = _frozen(1j * beta @ gamma5)
    gamma1_proj = _frozen(I4 - i_beta_gamma5)
    gamma2_op = _frozen((I4 + 1j * gamma5) @ beta)
    return DiracBasis(
        alpha=alpha,
        beta=beta,
        gamma5=gamma5,
        gamma1_proj=gamma1_proj,
        gamma2_op=gamma2_op,
        i_beta_gamma5=i_beta_gamma5,
    )


def verify_clifford_identities(basis: DiracBasis | None = None) -> tuple[CheckEntry, ...]:
    """Residuals of the anticommutation table.

    {alpha_i, alpha_j} = 2 delta_ij I, {beta, alpha_j} = 0, beta^2 = I.
    """
    b = basis or dirac_representation()
    entries = []
    for i in range(3):
        for j in range(i, 3):
            anti = b.alpha[i] @ b.alpha[j] + b.alpha[j] @ b.alpha[i]
            target = 2.0 * I4 if i == j else np.zeros((4, 4))
            entries.append(
                entry(f"alpha{i + 1}_alpha{j + 1}_anticommutator",
                      residual_norm(anti, target), IDENTITY_TOL)
            )
    for j in range(3):
        anti = b.beta @ b.alpha[j] + b.alpha[j] @ b.beta
        entries.append(
            entry(f"beta_alpha{j + 1}_anticommutator",
                  residual_norm(anti, np.zeros((4, 4))), IDENTITY_TOL)
        )
    entries.append(entry("beta_squared", residual_norm(b.beta @ b.beta, I4), IDENTITY_TOL))
    return tuple(entries)


def verify_gamma_properties(basis: DiracBasis | None = None) -> tuple[CheckEntry, ...]:
    """Residuals of the derived-operator identities.

    gamma1_proj^2 = 2 gamma1_proj, gamma2_op^2 = 2I,
    gamma2_op gamma1_proj = (I+beta)(I-i gamma5), {alpha_i, gamma2_op} = 0,
    (I+i gamma5)(I-i gamma5)/2 = I, gamma2_op beta = I+i gamma5,
    (I+beta) beta = I+beta, plus singularity of gamma1_proj and unitarity
    of gamma2_op / sqrt(2).
    """
    b = basis or dirac_representation()
    g1, g2, g5 = b.gamma1_proj, b.gamma2_op, b.gamma5
    zero = np.zeros((4, 4))
    entries = [
        entry("gamma1_squared_is_twice_gamma1",
              residual_norm(g1 @ g1, 2.0 * g1), IDENTITY_TOL),
        entry("gamma2_squared_is_twice_identity",
              residual_norm(g2 @ g2, 2.0 * I4), IDENTITY_TOL),
        entry("gamma2_gamma1_product",
              residual_norm(g2 @ g1, (I4 + b.beta) @ (I4 - 1j * g5)), IDENTITY_TOL),
    ]
    for i in range(3):
        entries.append(
            entry(f"alpha{i + 1}_gamma2_anticommutator",
                  residual_norm(b.alpha[i] @ g2 + g2 @ b.alpha[i], zero), IDENTITY_TOL)
        )
    entries.extend([
        entry("chirality_projector_product",
              residual_norm((I4 + 1j * g5) @ (I4 - 1j * g5) / 2.0, I4), IDENTITY_TOL),
        entry("gamma2_beta_product",
              residual_norm(g2 @ b.beta, I4 + 1j * g5), IDENTITY_TOL),
        entry("beta_shift_product",
              residual_norm((I4 + b.beta) @ b.beta, I4 + b.beta), IDENTITY_TOL),
        entry("gamma1_smallest_singular_value",
              float(np.min(np.linalg.svd(g1, compute_uv=False))), IDENTITY_TOL),
        entry("gamma2_unitarity",
              residual_norm(g2.conj().T @ g2 / 2.0, I4), IDENTITY_TOL),
    ])
    return tuple(entries)
