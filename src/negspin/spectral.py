"""Free-particle Hamiltonians, their spectra, and eigenstate expectations.

Two 4x4 momentum-space Hamiltonians share the anticommuting-matrix basis:

* ``dirac``:  c alpha.p + m0 c^2 beta, eigenvalues +-sqrt(c^2 p^2 + m0^2 c^4)
* ``nonrel``: c alpha.p + m0 c^2 beta + i beta gamma5 (alpha.p)^2 / (2 m0),
  eigenvalues +-(m0 c^2 + p^2 / 2 m0), i.e. a nonrelativistic dispersion on
  both the positive and the negative branch.

Each eigenvalue is doubly degenerate; within a degenerate pair eigenvectors
are labeled by helicity (projection of spin on the momentum direction), or by
spin-z when the momentum vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    CheckReport,
    I2,
    PAULI,
    dirac_representation,
    entry,
)
from .matrix_core import expect, hermitian_eig, matrix_dot

__all__ = [
    "EigenSolution",
    "ExpectationReport",
    "LabeledEigenstates",
    "PhysicalParams",
    "closed_form_energies",
    "correspondence_check",
    "expectation_report",
    "free_spectrum",
    "hamiltonian",
    "helicity_eigenstates",
    "lorentz_transform",
]

HAMILTONIANS = ("dirac", "nonrel")


@dataclass(frozen=True)
class PhysicalParams:
    """Unit system: rest mass, light speed, reduced Planck constant, charge.

    The defaults are the natural units used throughout the tests
    (m0 = c = hbar = 1, q = -1).  q keeps its sign.
    """

    m0: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    q: float = -1.0

    def __post_init__(self):
        if not (self.m0 > 0 and self.c > 0 and self.hbar > 0):
            raise ValueError("m0, c and hbar must all be positive")


def _as_momenta(p) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.ndim < 1 or v.shape[-1] != 3:
        raise ValueError(f"momentum must be a 3-vector or a stack of them, got shape {v.shape}")
    return v


def hamiltonian(p, params: PhysicalParams = PhysicalParams(), which: str = "nonrel") -> np.ndarray:
    """The chosen Hamiltonian at momenta p of shape (..., 3), as (..., 4, 4).

    ``dirac``: c alpha.p + m0 c^2 beta;
    ``nonrel``: c alpha.p + m0 c^2 beta + i beta gamma5 (alpha.p)^2 / (2 m0).
    """
    if which not in HAMILTONIANS:
        raise ValueError(f"unknown hamiltonian {which!r}; expected one of {HAMILTONIANS}")
    b = dirac_representation()
    ap = matrix_dot(_as_momenta(p), b.alpha)
    h = params.c * ap + params.m0 * params.c**2 * b.beta
    if which == "nonrel":
        h = h + b.i_beta_gamma5 @ ap @ ap / (2.0 * params.m0)
    return h


def closed_form_energies(p_mag, params: PhysicalParams, which: str):
    """(negative, positive) branch energies at momentum magnitudes |p|."""
    if which == "dirac":
        e = np.hypot(params.c * p_mag, params.m0 * params.c**2)
    elif which == "nonrel":
        e = params.m0 * params.c**2 + p_mag**2 / (2.0 * params.m0)
    else:
        raise ValueError(f"unknown hamiltonian {which!r}; expected one of {HAMILTONIANS}")
    return (-e, e)


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Ascending eigenvalues, eigenvector columns, and branch signs (..., 4)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    branches: np.ndarray
    which: str


def free_spectrum(p, params: PhysicalParams = PhysicalParams(), which: str = "nonrel") -> EigenSolution:
    """Diagonalize the chosen Hamiltonian; branch = sign of eigenvalue."""
    dec = hermitian_eig(hamiltonian(p, params, which))
    return EigenSolution(
        eigenvalues=dec.eigenvalues,
        eigenvectors=dec.eigenvectors,
        branches=np.where(dec.eigenvalues > 0, 1, -1),
        which=which,
    )


@dataclass(frozen=True, eq=False)
class LabeledEigenstates:
    """Four eigenstates per momentum, ordered (negative branch, label -1),
    (negative, +1), (positive, -1), (positive, +1).

    ``energies`` and ``helicities`` have shape (..., 4); column ``j`` of
    ``spinors`` (..., 4, 4) is state ``j``.  ``label_kind`` (shape (...)) is
    "helicity" for p != 0 and "spin_z" at p = 0, where helicity is undefined
    and the spin projection on z labels the pair.
    """

    energies: np.ndarray
    helicities: np.ndarray
    spinors: np.ndarray
    label_kind: np.ndarray


def _state_index(branch, helicity):
    """Position of the (branch, helicity) state in a LabeledEigenstates."""
    return (branch + 1) + (helicity + 1) // 2


def helicity_eigenstates(p, params: PhysicalParams = PhysicalParams(), which: str = "nonrel") -> LabeledEigenstates:
    """Simultaneous eigenstates of the Hamiltonian and the spin projector.

    Within each doubly degenerate energy eigenspace the spin projector
    (Sigma.p_hat, or Sigma_z at p = 0) is diagonalized in the subspace, so
    the returned spinors never depend on how the backend oriented the
    degenerate pair.  Broadcasts over momenta of shape (..., 3).
    """
    p = _as_momenta(p)
    sol = free_spectrum(p, params, which)
    p_mag = np.linalg.norm(p, axis=-1)
    moving = p_mag > 0.0
    direction = np.where(
        moving[..., None], p / np.where(moving, p_mag, 1.0)[..., None], (0.0, 0.0, 1.0)
    )
    spin_op = matrix_dot(direction, [np.kron(I2, s) for s in PAULI])

    labels, rotated = [], []
    for lo, hi in ((0, 2), (2, 4)):
        block = sol.eigenvectors[..., lo:hi]
        proj = np.swapaxes(block, -1, -2).conj() @ spin_op @ block
        block_labels, rot = np.linalg.eigh(proj)
        labels.append(block_labels)
        rotated.append(block @ rot)
    labels = np.concatenate(labels, axis=-1)
    if np.any(np.abs(labels - (-1.0, 1.0, -1.0, 1.0)) > 1e-9):
        raise RuntimeError(f"spin labels did not quantize to -1, +1 per pair: {labels!r}")
    spinors = np.concatenate(rotated, axis=-1)
    helicities = np.rint(labels).astype(int)
    for a in (spinors, helicities):
        a.setflags(write=False)
    return LabeledEigenstates(
        energies=sol.eigenvalues,
        helicities=helicities,
        spinors=spinors,
        label_kind=np.where(moving, "helicity", "spin_z"),
    )


@dataclass(frozen=True, eq=False)
class ExpectationReport:
    """Explicit spinor expectations on one labeled eigenstate."""

    energy: float
    branch: int
    helicity: int
    mean_alpha: np.ndarray
    mean_beta: float
    mean_i_beta_gamma5: float


def expectation_report(
    p,
    params: PhysicalParams = PhysicalParams(),
    which: str = "nonrel",
    branch: int = 1,
    helicity: int = 1,
) -> ExpectationReport:
    """<alpha_i>, <beta>, <i beta gamma5> computed from the spinor itself.

    On an energy eigenstate the anticommutators {H, O} pin these to
    <alpha> = c p / E and <beta> = m0 c^2 / E for both Hamiltonians, plus
    <i beta gamma5> = p^2 / (2 m0 E) for ``nonrel`` (it vanishes for
    ``dirac``).  The function reports the raw spinor values; the identities
    are asserted by the callers and the test suite.
    """
    if branch not in (-1, 1) or helicity not in (-1, 1):
        raise ValueError("branch and helicity must each be +1 or -1")
    labeled = helicity_eigenstates(p, params, which)
    j = _state_index(branch, helicity)
    b = dirac_representation()
    psi = labeled.spinors[..., j]
    mean_alpha = np.stack([expect(psi, a) for a in b.alpha], axis=-1)
    mean_alpha.setflags(write=False)
    return ExpectationReport(
        energy=labeled.energies[..., j],
        branch=branch,
        helicity=helicity,
        mean_alpha=mean_alpha,
        mean_beta=expect(psi, b.beta),
        mean_i_beta_gamma5=expect(psi, b.i_beta_gamma5),
    )


def lorentz_transform(
    e_prime: float,
    p_prime,
    velocity,
    params: PhysicalParams = PhysicalParams(),
) -> tuple[float, np.ndarray]:
    """Boost an (energy, momentum) pair by a frame velocity.

    The momentum line is applied first, then the energy line
    ``E = v.p + E' / gamma``; both hold for negative E' unchanged.
    """
    p_prime = np.asarray(p_prime, dtype=float)
    v = np.asarray(velocity, dtype=float)
    if p_prime.shape != (3,) or v.shape != (3,):
        raise ValueError(
            f"momentum and velocity must be 3-vectors, got shapes {p_prime.shape}, {v.shape}"
        )
    v2 = float(v @ v)
    c2 = params.c**2
    if v2 >= c2:
        raise ValueError(f"superluminal frame velocity: |v|^2 = {v2} >= c^2 = {c2}")
    gamma = 1.0 / np.sqrt(1.0 - v2 / c2)
    if v2 > 0.0:
        parallel = (gamma - 1.0) * v * float(p_prime @ v) / v2
    else:
        parallel = np.zeros(3)
    p = p_prime + parallel + gamma * v * e_prime / c2
    e = float(v @ p) + e_prime / gamma
    return e, p


def correspondence_check(
    p,
    params: PhysicalParams = PhysicalParams(),
    branch=1,
) -> CheckReport:
    """E = v.p + m0 c^2 / gamma with v := <c alpha>, 1/gamma := <beta>.

    Both expectations come from explicit Dirac eigenstates of the requested
    branch (one check per helicity label), so the identity is exercised on
    the negative branch exactly as written, with no sign adjustments.
    Broadcasts over momenta (..., 3) and branches; one diagonalization
    serves both branches, e.g. momenta (n, 1, 3) with branch (-1, 1) give
    residuals of shape (n, 2).
    """
    p = _as_momenta(p)
    branch = np.asarray(branch)
    if not np.all(np.isin(branch, (-1, 1))):
        raise ValueError("branch must be +1 or -1")
    labeled = helicity_eigenstates(p, params, which="dirac")
    b = dirac_representation()
    psi = np.swapaxes(labeled.spinors, -1, -2)  # (..., state, component)
    v = params.c * np.stack([expect(psi, a) for a in b.alpha], axis=-1)
    rhs = np.sum(v * p[..., None, :], axis=-1) + params.m0 * params.c**2 * expect(psi, b.beta)
    resid = np.abs(labeled.energies - rhs) / np.abs(labeled.energies)
    entries = []
    for hel in (-1, 1):
        per_branch = np.where(branch > 0, resid[..., _state_index(1, hel)],
                              resid[..., _state_index(-1, hel)])
        entries.append(entry(f"correspondence_helicity_{hel:+d}", per_branch, 1e-10))
    return CheckReport(entries=tuple(entries))
