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

``verify_identities`` checks the whole algebra from one table of
(name, left side, right side) rows at ``IDENTITY_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix_core import hermitian_eig, residual_norm

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
    """One named residual check, or a family of them under one tolerance;
    ``passed`` is residual <= tolerance, derived, so a NaN residual fails.

    ``name`` is a ``str.format`` pattern with one field per residual axis,
    and ``labels`` holds one label sequence per axis: the check at index
    (i, j, ...) is named ``name.format(labels[0][i], labels[1][j], ...)``,
    and the family's checks follow in C order.  A single check has no
    labels, a float residual and a bool flag; its name is ``name.format()``.
    A library check on stacked inputs has no labels either: its residual is
    an array of the stack's shape and ``passed`` one flag per entry.
    ``negspin.cli`` alone renders a check."""

    name: str
    residual: float | np.ndarray
    tolerance: float
    labels: tuple = ()

    @property
    def passed(self) -> bool | np.ndarray:
        return self.residual <= self.tolerance


def entry(name: str, residual, tolerance: float, labels: tuple = ()) -> CheckEntry:
    """A check; ``labels``, if given, must have the residual's shape."""
    residual = np.asarray(residual, dtype=float)
    shape = tuple(map(len, labels))
    if labels and shape != residual.shape:
        raise ValueError(f"labels of shape {shape} do not match the residual's shape "
                         f"{residual.shape}")
    return CheckEntry(name, float(residual) if residual.ndim == 0 else residual,
                      float(tolerance), labels)


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


def verify_identities(basis: DiracBasis) -> tuple[CheckEntry, ...]:
    """Residuals of the identity table, in the order the CLI reports them.

    The anticommutation table {alpha_i, alpha_j} = 2 delta_ij I,
    {beta, alpha_j} = 0, beta^2 = I; then the derived-operator identities
    gamma1_proj^2 = 2 gamma1_proj, gamma2_op^2 = 2I,
    gamma2_op gamma1_proj = (I+beta)(I-i gamma5), {alpha_i, gamma2_op} = 0,
    (I+i gamma5)(I-i gamma5)/2 = I, gamma2_op beta = I+i gamma5,
    (I+beta) beta = I+beta, the singularity of gamma1_proj and the
    unitarity of gamma2_op / sqrt(2).
    """
    a, b = basis.alpha, basis.beta
    g1, g2, g5 = basis.gamma1_proj, basis.gamma2_op, basis.gamma5
    zero = np.zeros((4, 4))
    rows = [
        *((f"alpha{i + 1}_alpha{j + 1}_anticommutator", a[i] @ a[j] + a[j] @ a[i],
           2.0 * I4 if i == j else zero) for i in range(3) for j in range(i, 3)),
        *((f"beta_alpha{j + 1}_anticommutator", b @ a[j] + a[j] @ b, zero) for j in range(3)),
        ("beta_squared", b @ b, I4),
        ("gamma1_squared_is_twice_gamma1", g1 @ g1, 2.0 * g1),
        ("gamma2_squared_is_twice_identity", g2 @ g2, 2.0 * I4),
        ("gamma2_gamma1_product", g2 @ g1, (I4 + b) @ (I4 - 1j * g5)),
        *((f"alpha{i + 1}_gamma2_anticommutator", a[i] @ g2 + g2 @ a[i], zero) for i in range(3)),
        ("chirality_projector_product", (I4 + 1j * g5) @ (I4 - 1j * g5) / 2.0, I4),
        ("gamma2_beta_product", g2 @ b, I4 + 1j * g5),
        ("beta_shift_product", (I4 + b) @ b, I4 + b),
        ("gamma2_unitarity", g2.conj().T @ g2 / 2.0, I4),
    ]
    checks = [entry(name, residual_norm(lhs, rhs), IDENTITY_TOL) for name, lhs, rhs in rows]
    # gamma1_proj is singular: its smallest singular value, the smallest
    # eigenvalue modulus, is reported just before the unitarity row
    checks.insert(-1, entry("gamma1_smallest_singular_value",
                            np.min(np.abs(hermitian_eig(g1).eigenvalues)), IDENTITY_TOL))
    return tuple(checks)
