"""Free-particle Hamiltonians, their helicity eigenstates, and boosts.

Everything here is in natural units, m0 = c = hbar = 1: energies in units
of m0 c^2, momenta in m0 c, velocities in c.  ``negspin.commands`` converts
to and from other unit systems.  Two 4x4 momentum-space Hamiltonians share
the anticommuting-matrix basis:

* ``dirac``:  alpha.p + beta, eigenvalues +-sqrt(p^2 + 1)
* ``nonrel``: alpha.p + beta + i beta gamma5 (alpha.p)^2 / 2, eigenvalues
  +-(1 + p^2 / 2), i.e. a nonrelativistic dispersion on both the positive
  and the negative branch.

Each eigenvalue is doubly degenerate.  ``helicity_eigenstates`` returns the
``hermitian_eig`` decomposition with each degenerate pair ordered by
helicity (projection of spin on the momentum direction), or by spin-z when
the momentum vanishes.
"""

from __future__ import annotations

import numpy as np

from .clifford import (
    I2,
    PAULI,
    CheckEntry,
    dirac_representation,
    entry,
)
from .matrix_core import EigenDecomposition, expect, hermitian_eig, matrix_dot

__all__ = [
    "closed_form_energies",
    "correspondence_check",
    "hamiltonian",
    "helicity_eigenstates",
    "lorentz_transform",
]

HAMILTONIANS = ("dirac", "nonrel")


def _as_momenta(p) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.ndim < 1 or v.shape[-1] != 3:
        raise ValueError(f"momentum must be a 3-vector or a stack of them, got shape {v.shape}")
    return v


def hamiltonian(p, which: str = "nonrel") -> np.ndarray:
    """The chosen Hamiltonian at momenta p of shape (..., 3), as (..., 4, 4).

    ``dirac``: alpha.p + beta;
    ``nonrel``: alpha.p + beta + i beta gamma5 (alpha.p)^2 / 2.
    """
    if which not in HAMILTONIANS:
        raise ValueError(f"unknown hamiltonian {which!r}; expected one of {HAMILTONIANS}")
    b = dirac_representation()
    ap = matrix_dot(_as_momenta(p), b.alpha)
    h = ap + b.beta
    if which == "nonrel":
        h = h + b.i_beta_gamma5 @ ap @ ap / 2.0
    return h


def closed_form_energies(p_mag, which: str):
    """(negative, positive) branch energies at momentum magnitudes |p|."""
    if which == "dirac":
        e = np.hypot(p_mag, 1.0)
    elif which == "nonrel":
        e = 1.0 + p_mag**2 / 2.0
    else:
        raise ValueError(f"unknown hamiltonian {which!r}; expected one of {HAMILTONIANS}")
    return (-e, e)


def _state_index(branch, helicity):
    """Column of the (branch, helicity) state in ``helicity_eigenstates``."""
    return (branch + 1) + (helicity + 1) // 2


def helicity_eigenstates(p, which: str = "nonrel") -> EigenDecomposition:
    """Simultaneous eigenstates of the Hamiltonian and the spin projector.

    The eigenvalues are ``hermitian_eig``'s, ascending.  Column j of the
    eigenvectors (..., 4, 4) is the state (branch, helicity) = (-, -1),
    (-, +1), (+, -1), (+, +1).  Within each doubly degenerate energy
    eigenspace the spin projector (Sigma.p_hat, or Sigma_z at p = 0, where
    helicity is undefined) is diagonalized in the subspace, so the columns
    never depend on how the backend oriented the degenerate pair.
    Broadcasts over momenta of shape (..., 3).
    """
    p = _as_momenta(p)
    sol = hermitian_eig(hamiltonian(p, which))
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
    spinors.setflags(write=False)
    return EigenDecomposition(eigenvalues=sol.eigenvalues, eigenvectors=spinors)


def lorentz_transform(e_prime: float, p_prime, velocity) -> tuple[float, np.ndarray]:
    """Boost an (energy, momentum) pair by a frame velocity (in units of c).

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
    if v2 >= 1.0:
        raise ValueError(f"superluminal frame velocity: |v|^2/c^2 = {v2} >= 1")
    gamma = 1.0 / np.sqrt(1.0 - v2)
    if v2 > 0.0:
        parallel = (gamma - 1.0) * v * float(p_prime @ v) / v2
    else:
        parallel = np.zeros(3)
    p = p_prime + parallel + gamma * v * e_prime
    e = float(v @ p) + e_prime / gamma
    return e, p


def correspondence_check(p, branch=1) -> tuple[CheckEntry, ...]:
    """E = v.p + 1 / gamma with v := <alpha>, 1/gamma := <beta>.

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
    states = helicity_eigenstates(p, which="dirac")
    b = dirac_representation()
    psi = np.swapaxes(states.eigenvectors, -1, -2)  # (..., state, component)
    v = np.stack([expect(psi, a) for a in b.alpha], axis=-1)
    rhs = np.sum(v * p[..., None, :], axis=-1) + expect(psi, b.beta)
    resid = np.abs(states.eigenvalues - rhs) / np.abs(states.eigenvalues)
    entries = []
    for hel in (-1, 1):
        per_branch = np.where(branch > 0, resid[..., _state_index(1, hel)],
                              resid[..., _state_index(-1, hel)])
        entries.append(entry(f"correspondence_helicity_{hel:+d}", per_branch, 1e-10))
    return tuple(entries)
