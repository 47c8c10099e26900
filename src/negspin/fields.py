"""External-field spectra and the reduction to a two-component wave equation.

Natural units as in ``spectral``, lengths in hbar/(m0 c); a magnetic field
enters as one signed strength lambda = hbar q b / c, in units of (m0 c)^2.
Three problem families:

* uniform magnetic field along z in the symmetric gauge, solved in a
  truncated single-oscillator basis and cross-checked against the closed-form
  level ladder E(k) = 1 + |lambda| k + pz^2 / 2.  The operator only couples
  states of equal conserved index, and each such sector is the free 4x4
  Hamiltonian at a transverse momentum sqrt(2 |lambda| N), so
  ``landau_sectors`` gives the n_max + 1 momenta of ``hamiltonian``'s blocks;
  the tests check the blocks against the dense truncated matrix.  Its negative
  branch mirrors the positive one: the spectrum is paired, E and -E;
* an attractive -Z/r potential on a radial grid (3-point finite differences,
  Dirichlet ends), cross-checked against the closed-form -Z^2/2n^2 ladder.
  Its lowest levels come from Sturm counts of the tridiagonal matrix, O(n)
  each (``matrix_core.tridiagonal_lowest``), so no scipy is loaded.  Only
  the positive branch is solved; no negative-branch level is computed;
* the momentum-space rearrangement chain that eliminates the lower spinor
  and leaves the two-component kinetic-energy relation, verified as exact
  matrix identities at a trial energy.  Each trial is independent, so the
  chain broadcasts over stacks of any length.  Its seeded uniforms come from
  Python's ``random`` (MT19937) as 53-bit doubles, so numpy.random is never
  loaded, and ``reduction_trials`` turns any rows of them into trials.
  ``pauli_reduction_check`` alone normalizes a trial's spinor, and rejects
  a zero one.

Truncated-basis assertions are made on interior oscillator levels only; edge
levels are reported, never tested.  A rejection quotes only ratios that read
the same in every unit system, such as the grid in Bohr radii.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import MIN_OSCILLATOR_LEVELS
from .clifford import I4, PAULI, CheckEntry, dirac_representation, entry
from .matrix_core import hermitian_eig, matrix_dot, residual_norm, tridiagonal_lowest
from .spectral import hamiltonian

# Largest truncation accepted; a cold landau run at this size peaks near 45 MB.
MAX_OSCILLATOR_LEVELS = 10**5
# Empirical accuracy guard for the radial grid: the spacing in Bohr radii,
# spacing * Z (spacing * m0 Z / hbar^2 in any units), must stay below.
GRID_GUARD = 0.05
# 64-bit words per randbytes call of draw_reduction_uniforms, well inside the
# 2^31 - 1 bits one Random.getrandbits call can give
_DRAW_WORDS = 2**16


@dataclass(frozen=True)
class RadialGrid:
    """Uniform Dirichlet grid: nodes r_i = i h, i = 1..n_points, h = r_max/(n_points+1)."""

    r_max: float
    n_points: int

    def __post_init__(self):
        if not self.r_max > 0.0:
            raise ValueError("r_max must be positive")
        if self.n_points < 50:
            raise ValueError("n_points must be at least 50")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.n_points + 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.n_points + 1) * self.spacing


def _check_truncation(n_max: int) -> None:
    if n_max < MIN_OSCILLATOR_LEVELS:
        raise ValueError(
            f"n_max = {n_max} is too coarse to trust any level; need >= {MIN_OSCILLATOR_LEVELS}"
        )
    if n_max > MAX_OSCILLATOR_LEVELS:
        raise ValueError(f"n_max = {n_max} exceeds the largest truncation {MAX_OSCILLATOR_LEVELS}")


def _landau_lambda(lam: float) -> float:
    """The field strength lambda = hbar q b / c, the commutator [Pi_x, Pi_y]
    over i, checked nonzero and finite."""
    if lam == 0.0:
        raise ValueError("field strength lambda = hbar q b / c must be nonzero")
    if not math.isfinite(lam):
        raise ValueError(f"field strength lambda = {lam} is not finite")
    return lam


def landau_sectors(lam: float, pz: float, n_max: int) -> np.ndarray:
    """The truncated Landau operator as the momenta of n_max + 1 free 4x4 blocks, in O(n_max).

    The operator is alpha.Pi + beta + i beta gamma5 (alpha.Pi)^2 / 2 on
    oscillator levels 0..n_max, with (alpha.Pi)^2 the square of the
    truncated alpha.Pi and [Pi_x, Pi_y] = i lam.

    alpha.Pi only couples spin up at level n to spin down at level n + 1
    (lam < 0) or n - 1 (lam > 0), so the basis splits into sectors that never
    meet.  In sector N the spin that sits higher is at level N and the other
    at level N - 1, and the ladder element sqrt(N) and the sign wiring of
    Pi_x and Pi_y combine to k_N alpha_x on every spin-flip entry, with
    k_N = sqrt(2 |lam| N).  So block N is the free ``hamiltonian`` at
    momentum (k_N, 0, pz), in natural spinor order; state
    s of block N is row 4 level + s of the dense (oscillator level) x
    (4-spinor) matrix, level = (N - 1 + [spin of s sits higher]) mod (n_max + 1).
    Returns the momenta (n_max + 1, 3).

    Block 0 (k = 0) holds both edges: the higher spin at level 0, whose
    +-(1 + pz^2/2) pair is the k = 0 level, and the other spin at
    level n_max, whose identical pair is a truncation artifact, since its
    ladder partner at level n_max + 1 was cut away.
    """
    _check_truncation(n_max)
    k = np.sqrt(2.0 * abs(_landau_lambda(lam)) * np.arange(n_max + 1))
    return np.stack([k, np.zeros_like(k), np.full_like(k, pz)], axis=-1)


def landau_levels_analytic(lam: float, pz: float, k_max: int) -> np.ndarray:
    """The positive-branch ladder E(k) = 1 + |lam| k + pz^2/2, k = 0..k_max,
    as an array; omega_c = |lam| is its spacing and -E(k) the other branch."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    return 1.0 + abs(_landau_lambda(lam)) * np.arange(k_max + 1) + pz**2 / 2.0


def coulomb_radial_spectrum(z: float, l: int, grid: RadialGrid, n_levels: int) -> np.ndarray:
    """Lowest levels of 1 - (d^2/dr^2 - l(l+1)/r^2) / 2 - Z/r.

    Z is in units of hbar c and r in hbar/(m0 c), so one Bohr radius is 1/Z.
    3-point finite differences for u = r phi on the Dirichlet grid, solved
    by ``tridiagonal_lowest`` to a few eps ||T||, as LAPACK's stebz.
    Returns the ``n_levels`` ascending positive-branch energies, read-only;
    no negative-branch level is computed.  Rejects grids whose spacing
    reaches 0.05 Bohr radii, where the stencil error is no longer trusted,
    and grids so fine that the diagonal at the first node overflows float64.
    """
    if not z > 0.0:
        raise ValueError("z must be positive")
    if l < 0:
        raise ValueError("l must be nonnegative")
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    if n_levels > grid.n_points:
        raise ValueError(f"n_levels = {n_levels} exceeds the {grid.n_points} grid points")
    h = grid.spacing
    if not h * z < GRID_GUARD:
        needed = grid.r_max * z / GRID_GUARD
        hint = (f"use n_points >= {math.ceil(needed)}" if needed <= 2.0**53
                else "no float64 grid resolves it")
        raise ValueError(
            f"grid too coarse: spacing*m0*Z/hbar^2 = {h * z:.4g} >= {GRID_GUARD}; "
            f"{hint} at r_max = {grid.r_max * z:.6g} Bohr radii"
        )
    two_h2 = 2.0 * h * h
    # the diagonal's largest entry, 2 kin + 1 + l(l+1)/(2 h^2) at the first node
    # r = h, in the order it is built below
    if not (two_h2 > 0.0 and math.isfinite(2.0 * (1.0 / two_h2) + 1.0 + l * (l + 1) / two_h2)):
        raise ValueError(
            f"grid too fine: spacing*m0*c/hbar = {h:.4g}, so the first node's kinetic and "
            "centrifugal terms, in units of m0 c^2, overflow float64"
        )
    r = grid.nodes
    kin = 1.0 / two_h2
    # ((2 kin + 1) + l(l+1)/((2 r) r)) - z/r, built in place in that order:
    # only the nodes and the diagonal are held, and the nodes are dropped
    # before the solve
    diagonal = np.multiply(2.0, r)
    np.multiply(diagonal, r, out=diagonal)
    np.divide(l * (l + 1), diagonal, out=diagonal)
    np.add(2.0 * kin + 1.0, diagonal, out=diagonal)
    np.subtract(diagonal, np.divide(z, r, out=r), out=diagonal)
    del r
    energies = tridiagonal_lowest(diagonal, -kin, n_levels)
    energies.setflags(write=False)
    return energies


def draw_reduction_uniforms(seed: int, trials: int) -> np.ndarray:
    """The (trials, 8) uniforms of ``reduction_trials``, seeded.

    Each is a 53-bit double (w >> 11) 2^-53 from one 64-bit word w of the
    ``randbytes`` stream of Python's ``random.Random(seed)`` (MT19937), read
    little-endian.  The array is allocated before any uniform is drawn, so a
    count too large to hold raises MemoryError at once.
    """
    u = np.empty((trials, 8))
    flat = u.reshape(-1)
    rng = random.Random(seed)
    for start in range(0, flat.size, _DRAW_WORDS):
        words = np.frombuffer(rng.randbytes(8 * min(_DRAW_WORDS, flat.size - start)), "<u8")
        np.multiply(words >> 11, 2.0**-53, out=flat[start:start + words.size])
    return u


def reduction_trials(u: np.ndarray):
    """(momenta (n, 3), potentials (n,), spinors (n, 2)) from the rows of u (n, 8):
    the momentum (3 uniforms on [-2, 2]), the potential (1 on [-1, 1]), then
    two spinor components, each uniform on the complex unit disc from its
    radius^2 and then its angle / 2 pi.  The spinors are not normalized:
    ``pauli_reduction_check`` normalizes them and rejects a zero one."""
    return (-2.0 + 4.0 * u[:, :3], -1.0 + 2.0 * u[:, 3],
            np.sqrt(u[:, 4::2]) * np.exp(1j * (2.0 * np.pi * u[:, 5::2])))


def pauli_reduction_check(p, v0, e_trial, *, phi) -> tuple[CheckEntry, ...]:
    """Verify the elimination chain from the 4x4 wave equation down to the
    two-component kinetic-energy relation, in momentum representation with a
    constant potential v0, in units where m0 c^2 = 1.

    Entries, in chain order:

    * ``rearrange_operator_plus`` / ``rearrange_operator_minus``: moving the
      i beta gamma5 term across turns (E - v0) I - H_free into
      (E - v0) gamma1_proj - (alpha.p + gamma2_op); an operator
      identity at either branch sign of the trial energy.
    * ``eigenvector_satisfies_rearranged``: positive-branch eigenvectors of
      the full Hamiltonian + v0 are annihilated by the rearranged operator
      at the trial energy (this is the entry a wrong e_trial breaks).
    * ``nullspace_dimension`` / ``nullspace_maps_back``: the rearranged
      operator at the trial energy has a 2-dimensional nullspace that lies in
      the trial-energy eigenspace of the full Hamiltonian (the converse
      direction).
    * ``transport_by_gamma2``: left-multiplying by gamma2_op and substituting
      Psi = gamma2_op Phi produces the (I + beta) form of the equation.
    * ``lower_row_elimination``: with chi = -(i + sigma.p) phi the lower
      block row vanishes identically (any energy).
    * ``kinetic_energy_relation``: the upper block row reduces to
      (E - v0 - 1 - p^2/2) phi = 0; its reported residual equals the
      trial-energy error for a normalized phi.

    ``phi`` is the upper 2-spinor, normalized here; a zero one raises
    ValueError.  Broadcasts over stacked momenta (..., 3), v0, e_trial and
    phi (..., 2); each residual then has the broadcast stack shape.
    ``nullspace_maps_back`` is the Frobenius norm of (H - E) V over the
    eigenvectors V of the rearranged operator whose |eigenvalue| lies within
    1e-8 of the least (Hermitian, so these are its least singular values):
    the nullspace, or with an empty one the least |eigenvalue|'s whole
    eigenspace, so it stays finite and fails.  The norm does not change
    with the basis of that eigenspace, and is never below the max-abs entry.
    """
    v0 = np.asarray(v0, dtype=float)[..., None, None]
    e_trial = np.asarray(e_trial, dtype=float)[..., None, None]
    h_full = hamiltonian(p, "nonrel") + v0 * I4
    p = np.asarray(p, dtype=float)
    basis = dirac_representation()
    ap = matrix_dot(p, basis.alpha)
    g1, g2 = basis.gamma1_proj, basis.gamma2_op

    def rearranged(e):
        return (e - v0) * g1 - ap - g2

    def direct(e):
        free = ap + basis.beta + basis.i_beta_gamma5 * ((e - v0) - 1.0)
        return (e - v0) * I4 - free

    entries = []
    op = rearranged(e_trial)
    e_minus = 2.0 * v0 - e_trial
    entries.append(entry("rearrange_operator_plus", residual_norm(op, direct(e_trial)), 1e-12))
    entries.append(
        entry("rearrange_operator_minus",
              residual_norm(rearranged(e_minus), direct(e_minus)), 1e-12)
    )

    solved = hermitian_eig(h_full)
    positive = solved.eigenvalues[..., None, :] > 0.0
    if not np.all(np.any(positive, axis=-1)):
        raise ValueError("the full Hamiltonian has no positive-branch eigenvector")
    entries.append(
        entry("eigenvector_satisfies_rearranged",
              np.max(np.where(positive, np.abs(op @ solved.eigenvectors), 0.0), axis=(-2, -1)),
              1e-12)
    )

    # op is Hermitian, so its singular values are the |eigenvalues|
    null = hermitian_eig(op)
    size = np.abs(null.eigenvalues)
    zero = size < 1e-8
    entries.append(entry("nullspace_dimension", np.abs(np.sum(zero, axis=-1) - 2), 0.5))
    # the whole eigenspace within 1e-8 of the least |eigenvalue|: the
    # nullspace, or the least |eigenvalue|'s where it is empty, so the
    # Frobenius norm does not depend on the basis the solver picks in it
    kept = size - np.min(size, axis=-1, keepdims=True) < 1e-8
    vecs = null.eigenvectors
    maps_back = np.where(kept[..., None, :], h_full @ vecs - e_trial * vecs, 0.0)
    entries.append(entry("nullspace_maps_back", np.linalg.norm(maps_back, axis=(-2, -1)), 1e-10))

    transported = (e_trial - v0) * (I4 + basis.beta) + ap - g2
    entries.append(entry("transport_by_gamma2", residual_norm(transported @ g2, g2 @ op), 1e-12))

    phi = np.asarray(phi, dtype=np.complex128)
    if phi.ndim < 1 or phi.shape[-1] != 2:
        raise ValueError(f"phi must be a 2-spinor or a stack of them, got shape {phi.shape}")
    norm = np.linalg.norm(phi, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("phi must be nonzero")
    phi = phi / norm
    sigma_p = matrix_dot(p, PAULI)
    chi = (-(1j * np.eye(2) + sigma_p) @ phi[..., None])[..., 0]
    psi = np.concatenate(np.broadcast_arrays(phi, chi), axis=-1)
    rows = (transported @ psi[..., None])[..., 0]
    entries.append(entry("lower_row_elimination", np.max(np.abs(rows[..., 2:]), axis=-1), 1e-12))
    entries.append(
        entry("kinetic_energy_relation", np.linalg.norm(rows[..., :2], axis=-1) / 2.0, 1e-10)
    )
    return tuple(entries)
