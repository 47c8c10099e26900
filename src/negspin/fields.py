"""External-field spectra and the reduction to a two-component wave equation.

Three problem families:

* uniform magnetic field along z in the symmetric gauge, solved in a
  truncated single-oscillator basis and cross-checked against the closed-form
  level ladder E(k) = m0 c^2 + hbar omega_c k + pz^2 / 2 m0.  The operator
  only couples states of equal conserved index, so it is built and solved
  sector by sector (``landau_sectors``); the dense matrix is kept as the
  independent oracle the sectors are tested against;
* an attractive -Z/r potential on a radial grid (3-point finite differences,
  Dirichlet ends), cross-checked against the closed-form -Z^2/2n^2 ladder;
* the momentum-space rearrangement chain that eliminates the lower spinor
  and leaves the two-component kinetic-energy relation, verified as exact
  matrix identities at a trial energy.

Negative-branch spectra are energy mirrors of the positive branch throughout.
Truncated-basis assertions are made on interior oscillator levels only; edge
levels are reported, never tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import PAULI, CheckReport, I4, dirac_representation, entry
from .matrix_core import matrix_dot, residual_norm
from .spectral import PhysicalParams, hamiltonian

__all__ = [
    "CoulombSpectrum",
    "LandauLevel",
    "LandauSectors",
    "LandauSpectrum",
    "RadialGrid",
    "UniformBField",
    "coulomb_radial_spectrum",
    "disc_spinor",
    "draw_reduction_trials",
    "landau_hamiltonian_matrix",
    "landau_levels_analytic",
    "landau_sectors",
    "pauli_reduction_check",
    "spectrum_csv",
    "square_identity_check",
]

# Smallest truncation at which even the k = 0 level is trustworthy.
MIN_OSCILLATOR_LEVELS = 8
# Largest truncation accepted; a landau run at this size peaks near 230 MB.
MAX_OSCILLATOR_LEVELS = 10**5
# Empirical accuracy guard for the radial grid: spacing * Z must stay below.
GRID_GUARD = 0.05


@dataclass(frozen=True)
class UniformBField:
    """Field magnitude b > 0 along +z (symmetric gauge is implied)."""

    b: float

    def __post_init__(self):
        if not self.b > 0.0:
            raise ValueError("field magnitude b must be positive")


@dataclass(frozen=True)
class LandauLevel:
    k: int
    energy_plus: float
    energy_minus: float
    multiplicity: int


@dataclass(frozen=True, eq=False)
class LandauSpectrum:
    omega_c: float
    pz: float
    levels: tuple[LandauLevel, ...]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform Dirichlet grid: nodes r_i = i h, i = 1..n_points, h = r_max/(n_points+1)."""

    r_max: float = 60.0
    n_points: int = 6000

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


@dataclass(frozen=True, eq=False)
class CoulombSpectrum:
    z: float
    l: int
    energies_plus: np.ndarray
    energies_minus: np.ndarray


@dataclass(frozen=True, eq=False)
class LandauSectors:
    """Stacked blocks of the Landau operator, one per conserved-index sector.

    State j of block i is the basis state (oscillator level ``levels[i, j]``,
    4-spinor index ``spinors[i, j]``), i.e. row ``4 * level + spinor`` of
    ``landau_hamiltonian_matrix``.  ``alpha_pi`` and ``hamiltonian`` hold the
    (count, m, m) blocks of alpha.Pi and of the full operator.
    """

    levels: np.ndarray
    spinors: np.ndarray
    alpha_pi: np.ndarray
    hamiltonian: np.ndarray


def _check_truncation(n_max: int) -> None:
    if n_max < MIN_OSCILLATOR_LEVELS:
        raise ValueError(
            f"n_max = {n_max} is too coarse to trust any level; need >= {MIN_OSCILLATOR_LEVELS}"
        )
    if n_max > MAX_OSCILLATOR_LEVELS:
        raise ValueError(f"n_max = {n_max} exceeds the largest truncation {MAX_OSCILLATOR_LEVELS}")


def _landau_lambda(field: UniformBField, params: PhysicalParams) -> float:
    """hbar q b / c, the commutator [Pi_x, Pi_y] over i."""
    if params.q == 0.0:
        raise ValueError("charge q must be nonzero for a magnetic problem")
    return params.hbar * params.q * field.b / params.c


def _landau_operator(alpha_pi, beta, i_beta_gamma5, params: PhysicalParams) -> np.ndarray:
    """c alpha.Pi + m0 c^2 beta + i beta gamma5 (alpha.Pi)^2/(2 m0), on any basis."""
    return (
        params.c * alpha_pi
        + params.m0 * params.c**2 * beta
        + i_beta_gamma5 @ alpha_pi @ alpha_pi / (2.0 * params.m0)
    )


def _ladder_down(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)


def _pi_matrices(field: UniformBField, n_max: int, params: PhysicalParams):
    """Truncated kinetic-momentum components from oscillator ladder elements.

    [Pi_x, Pi_y] = i hbar q b / c fixes the sign wiring: for q < 0 the
    lowering operator is (Pi_x + i Pi_y)/sqrt(2|lam|), for q > 0 it is the
    conjugate combination.  Both components are Hermitian by construction.
    """
    lam = _landau_lambda(field, params)
    a = _ladder_down(n_max + 1)
    ad = a.conj().T
    scale = np.sqrt(abs(lam) / 2.0)
    pi_x = scale * (a + ad)
    pi_y = -1j * np.sign(lam) * scale * (a - ad)
    return pi_x, pi_y


def _alpha_pi(field: UniformBField, pz: float, n_max: int, params: PhysicalParams) -> np.ndarray:
    """alpha.Pi on the truncated (oscillator level) x (4-spinor) basis."""
    basis = dirac_representation()
    pi_x, pi_y = _pi_matrices(field, n_max, params)
    identity_osc = np.eye(n_max + 1, dtype=np.complex128)
    return (
        np.kron(pi_x, basis.alpha[0])
        + np.kron(pi_y, basis.alpha[1])
        + np.kron(pz * identity_osc, basis.alpha[2])
    )


def landau_hamiltonian_matrix(
    field: UniformBField,
    pz: float,
    n_max: int,
    params: PhysicalParams = PhysicalParams(),
) -> np.ndarray:
    """Full operator c alpha.Pi + m0 c^2 beta + i beta gamma5 (alpha.Pi)^2/(2 m0).

    Basis ordering is (oscillator level n = 0..n_max) x (4-spinor), the
    4-spinor factor carrying the block convention of the matrix basis (a
    fixed permutation of spin x upper/lower).  (alpha.Pi)^2 is the square of
    the truncated alpha.Pi matrix.  Built densely from oscillator-space
    ladder matrices, at O(n_max^3) cost: it is the independent oracle that
    ``landau_sectors`` is tested against, not a solver path.
    """
    _check_truncation(n_max)
    basis = dirac_representation()
    identity_osc = np.eye(n_max + 1, dtype=np.complex128)
    return _landau_operator(
        _alpha_pi(field, pz, n_max, params),
        np.kron(identity_osc, basis.beta),
        np.kron(identity_osc, basis.i_beta_gamma5),
        params,
    )


# 4-spinor indices of a sector's states: spin up (upper, lower), then spin down
_SECTOR_SPINORS = np.array([0, 2, 1, 3])


def landau_sectors(
    field: UniformBField,
    pz: float,
    n_max: int,
    params: PhysicalParams = PhysicalParams(),
) -> tuple[LandauSectors, LandauSectors]:
    """The operator of ``landau_hamiltonian_matrix``, block by block, in O(n_max).

    alpha.Pi only couples spin up at level n to spin down at level n + 1
    (q < 0) or n - 1 (q > 0).  So sector N, which holds spin up at level N
    and spin down at level N + 1 for q < 0 (the reverse for q > 0), never
    meets another sector, and the truncated (alpha.Pi)^2 is the square of
    each block.  Returns ``(interior, edges)``:

    * ``interior``: the 4x4 sectors N = 0..n_max-1, stacked (n_max, 4, 4);
    * ``edges``: the 2x2 sectors (2, 2, 2), bottom (N = -1, level 0) then
      top (N = n_max, level n_max).  The top one lost its ladder partner at
      level n_max + 1, so its eigenvalues +-(m0 c^2 + pz^2/2m0) are a
      truncation artifact, not the k = 0 level.

    Every element comes from the ladder elements sqrt(n); no
    oscillator-space matrix is formed.
    """
    _check_truncation(n_max)
    lam = _landau_lambda(field, params)
    # level of each sector state relative to N: spin up sits higher for q > 0
    offset = ((_SECTOR_SPINORS % 2 == 0) == (lam > 0)).astype(int)
    interior_levels = np.arange(n_max)[:, None] + offset
    edge_levels = np.array([[0, 0], [n_max, n_max]])
    edge_spinors = np.stack([_SECTOR_SPINORS[offset == 1], _SECTOR_SPINORS[offset == 0]])
    return (
        _sector_blocks(
            interior_levels, np.broadcast_to(_SECTOR_SPINORS, interior_levels.shape), lam, pz, params
        ),
        _sector_blocks(edge_levels, edge_spinors, lam, pz, params),
    )


def _sector_blocks(levels, spinors, lam: float, pz: float, params: PhysicalParams) -> LandauSectors:
    """alpha.Pi and the operator on the stacked blocks of (level, spinor) states."""
    basis = dirac_representation()
    n_row, n_col = levels[..., :, None], levels[..., None, :]
    s_row, s_col = spinors[..., :, None], spinors[..., None, :]
    lower = np.where(n_row == n_col - 1, np.sqrt(n_col), 0.0)  # <n_row| a |n_col>
    raised = np.swapaxes(lower, -1, -2)  # <n_row| a^dagger |n_col>
    scale = np.sqrt(abs(lam) / 2.0)
    alpha_pi = (
        scale * (lower + raised) * basis.alpha[0][s_row, s_col]
        - 1j * np.sign(lam) * scale * (lower - raised) * basis.alpha[1][s_row, s_col]
        + pz * (n_row == n_col) * basis.alpha[2][s_row, s_col]
    )
    hamiltonian = _landau_operator(
        alpha_pi, basis.beta[s_row, s_col], basis.i_beta_gamma5[s_row, s_col], params
    )
    return LandauSectors(levels=levels, spinors=spinors, alpha_pi=alpha_pi, hamiltonian=hamiltonian)


def landau_levels_analytic(
    field: UniformBField,
    pz: float,
    k_max: int,
    params: PhysicalParams = PhysicalParams(),
) -> LandauSpectrum:
    """Closed-form ladder E(k) = m0 c^2 + hbar omega_c k + pz^2/(2 m0).

    omega_c = |q| b / (m0 c).  k = 0 is reached by a single
    (level, spin) combination, every k >= 1 by two, hence the multiplicity.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if params.q == 0.0:
        raise ValueError("charge q must be nonzero for a magnetic problem")
    omega_c = abs(params.q) * field.b / (params.m0 * params.c)
    rest = params.m0 * params.c**2
    axial = pz**2 / (2.0 * params.m0)
    levels = []
    for k in range(k_max + 1):
        e_plus = rest + params.hbar * omega_c * k + axial
        levels.append(
            LandauLevel(
                k=k,
                energy_plus=e_plus,
                energy_minus=-e_plus,
                multiplicity=1 if k == 0 else 2,
            )
        )
    return LandauSpectrum(omega_c=omega_c, pz=pz, levels=tuple(levels))


def square_identity_check(
    field: UniformBField,
    pz: float,
    n_max: int,
    params: PhysicalParams = PhysicalParams(),
) -> CheckReport:
    """H^2 = (m0 c^2 + (alpha.Pi)^2 / 2 m0)^2 and [H, S] = 0 on interior columns.

    Checked sector by sector (``landau_sectors``).  Interior means
    oscillator level n <= n_max - 2; the excluded edge-state count is
    reported as its own entry (residual = count, tolerance = the expected
    2 levels x 4 components).
    """
    square_resid = commute_resid = 0.0
    n_excluded = 0
    for sectors in landau_sectors(field, pz, n_max, params):
        h, a = sectors.hamiltonian, sectors.alpha_pi
        s = params.m0 * params.c**2 * np.eye(h.shape[-1]) + a @ a / (2.0 * params.m0)
        interior = (sectors.levels <= n_max - 2)[..., None, :]
        n_excluded += int(np.sum(~interior))
        square_resid = max(
            square_resid, float(np.max(np.abs(h @ h - s @ s), where=interior, initial=0.0))
        )
        commute_resid = max(
            commute_resid, float(np.max(np.abs(h @ s - s @ h), where=interior, initial=0.0))
        )
    return CheckReport(
        entries=(
            entry("square_identity_interior", square_resid, 1e-10),
            entry("h_s_commutator_interior", commute_resid, 1e-10),
            entry("excluded_edge_states", float(n_excluded), 8.0),
        )
    )


def coulomb_radial_spectrum(
    z: float,
    l: int,
    grid: RadialGrid = RadialGrid(),
    params: PhysicalParams = PhysicalParams(),
    n_levels: int = 3,
) -> CoulombSpectrum:
    """Lowest levels of m0 c^2 - hbar^2/(2 m0) (d^2/dr^2 - l(l+1)/r^2) - Z/r.

    3-point finite differences for u = r phi on the Dirichlet grid.  The
    negative branch is the energy mirror of the positive one.  Rejects grids
    with spacing * Z >= 0.05, where the stencil error is no longer trusted.
    """
    if not z > 0.0:
        raise ValueError("z must be positive")
    if l < 0:
        raise ValueError("l must be nonnegative")
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    h = grid.spacing
    if h * z >= GRID_GUARD:
        needed = grid.r_max * z / GRID_GUARD
        hint = (f"use n_points >= {math.ceil(needed)}" if math.isfinite(needed)
                else "no float64 grid resolves it")
        raise ValueError(
            f"grid too coarse: spacing*Z = {h * z:.4g} >= {GRID_GUARD}; "
            f"{hint} at r_max = {grid.r_max}"
        )
    # imported here: scipy would dominate CLI start-up, and only this solver needs it
    from scipy.linalg import eigh_tridiagonal

    r = grid.nodes
    kin = params.hbar**2 / (2.0 * params.m0 * h * h)
    diagonal = (
        2.0 * kin
        + params.m0 * params.c**2
        + params.hbar**2 * l * (l + 1) / (2.0 * params.m0 * r * r)
        - z / r
    )
    off = np.full(grid.n_points - 1, -kin)
    energies = eigh_tridiagonal(
        diagonal, off, eigvals_only=True, select="i", select_range=(0, n_levels - 1)
    )
    energies.setflags(write=False)
    mirrored = -energies
    mirrored.setflags(write=False)
    return CoulombSpectrum(z=z, l=l, energies_plus=energies, energies_minus=mirrored)


def spectrum_csv(spectrum) -> str:
    """Canonical CSV serialization: k_or_n, E_plus, E_minus, multiplicity."""
    rows = ["k_or_n,E_plus,E_minus,multiplicity"]
    if isinstance(spectrum, LandauSpectrum):
        for lev in spectrum.levels:
            rows.append(
                f"{lev.k},{lev.energy_plus:.17g},{lev.energy_minus:.17g},{lev.multiplicity}"
            )
    elif isinstance(spectrum, CoulombSpectrum):
        for i, (ep, em) in enumerate(zip(spectrum.energies_plus, spectrum.energies_minus)):
            n = spectrum.l + 1 + i
            rows.append(f"{n},{ep:.17g},{em:.17g},1")
    else:
        raise TypeError(f"unsupported spectrum type {type(spectrum)!r}")
    return "\n".join(rows) + "\n"


def _disc_spinor(u: np.ndarray) -> np.ndarray:
    """Normalized spinors from uniforms u[..., k, :] = (radius^2, angle / 2 pi) of component k."""
    comps = np.sqrt(u[..., 0]) * np.exp(1j * (2.0 * np.pi * u[..., 1]))
    norm = np.linalg.norm(comps, axis=-1, keepdims=True)
    if np.any(norm == 0.0):  # pragma: no cover - measure-zero draw
        comps = np.where(norm == 0.0, np.eye(comps.shape[-1])[0], comps)
        norm = np.where(norm == 0.0, 1.0, norm)
    return comps / norm


def disc_spinor(rng: np.random.Generator, size: int) -> np.ndarray:
    """Normalized spinor with components uniform on the complex unit disc.

    Draw order per component: radius^2 then angle, both U[0, 1); the vector
    is normalized afterwards.  Documented so seeded runs are reproducible.
    """
    return _disc_spinor(rng.uniform(size=(size, 2)))


def draw_reduction_trials(rng: np.random.Generator, trials: int):
    """Seeded (momenta (trials, 3), potentials (trials,), spinors (trials, 2)).

    Per trial and in order: the momentum (3 uniforms on [-2, 2]), the
    potential constant (1 uniform on [-1, 1]), then a ``disc_spinor`` of two
    components (4 uniforms).
    """
    u = rng.uniform(size=(trials, 8))
    return -2.0 + 4.0 * u[:, :3], -1.0 + 2.0 * u[:, 3], _disc_spinor(u[:, 4:].reshape(trials, 2, 2))


def pauli_reduction_check(
    p,
    v0,
    e_trial,
    params: PhysicalParams = PhysicalParams(),
    phi: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> CheckReport:
    """Verify the elimination chain from the 4x4 wave equation down to the
    two-component kinetic-energy relation, in momentum representation with a
    constant potential v0.

    Entries, in chain order:

    * ``rearrange_operator_plus`` / ``rearrange_operator_minus``: moving the
      i beta gamma5 term across turns (E - v0) I - H_free into
      (E - v0) gamma1_proj - (c alpha.p + m0 c^2 gamma2_op); an operator
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
    * ``lower_row_elimination``: with chi = -(i m0 c^2 + c sigma.p) phi
      / (m0 c^2) the lower block row vanishes identically (any energy).
    * ``kinetic_energy_relation``: the upper block row reduces to
      (E - v0 - m0 c^2 - p^2/2m0) phi = 0; its reported residual equals the
      trial-energy error for a normalized phi.

    Broadcasts over stacked momenta (..., 3), v0, e_trial and phi (..., 2);
    each residual then has the broadcast stack shape.  With an empty
    nullspace, ``nullspace_maps_back`` is measured on the least-singular
    right vector, so it stays finite and fails.
    """
    v0 = np.asarray(v0, dtype=float)[..., None, None]
    e_trial = np.asarray(e_trial, dtype=float)[..., None, None]
    h_full = hamiltonian(p, params, "nonrel") + v0 * I4
    p = np.asarray(p, dtype=float)
    basis = dirac_representation()
    ap = matrix_dot(p, basis.alpha)
    m0c2 = params.m0 * params.c**2
    g1, g2 = basis.gamma1_proj, basis.gamma2_op

    def rearranged(e):
        return (e - v0) * g1 - params.c * ap - m0c2 * g2

    def direct(e):
        free = (
            params.c * ap
            + m0c2 * basis.beta
            + basis.i_beta_gamma5 * ((e - v0) - m0c2)
        )
        return (e - v0) * I4 - free

    entries = []
    e_minus = 2.0 * v0 - e_trial
    entries.append(
        entry("rearrange_operator_plus",
              residual_norm(rearranged(e_trial), direct(e_trial)), 1e-12)
    )
    entries.append(
        entry("rearrange_operator_minus",
              residual_norm(rearranged(e_minus), direct(e_minus)), 1e-12)
    )

    eigenvalues, eigenvectors = np.linalg.eigh(h_full)
    positive = eigenvalues[..., None, :] > 0.0
    if not np.all(np.any(positive, axis=-1)):
        raise ValueError("the full Hamiltonian has no positive-branch eigenvector")
    op = rearranged(e_trial)
    entries.append(
        entry("eigenvector_satisfies_rearranged",
              np.max(np.where(positive, np.abs(op @ eigenvectors), 0.0), axis=(-2, -1)), 1e-12)
    )

    _, svals, vh = np.linalg.svd(op)
    null_dim = np.sum(svals < 1e-8, axis=-1)
    entries.append(entry("nullspace_dimension", np.abs(null_dim - 2), 0.5))
    # right vectors of the null_dim smallest singular values, at least one
    kept = np.arange(4) >= 4 - np.maximum(null_dim, 1)[..., None]
    vecs = np.swapaxes(vh, -1, -2).conj()
    maps_back = np.abs(h_full @ vecs - e_trial * vecs)
    entries.append(
        entry("nullspace_maps_back",
              np.max(np.where(kept[..., None, :], maps_back, 0.0), axis=(-2, -1)), 1e-10)
    )

    transported = (e_trial - v0) * (I4 + basis.beta) + params.c * ap - m0c2 * g2
    entries.append(
        entry("transport_by_gamma2",
              residual_norm(transported @ g2, g2 @ rearranged(e_trial)), 1e-12)
    )

    if phi is None:
        phi = disc_spinor(rng or np.random.default_rng(0), 2)
    else:
        phi = np.asarray(phi, dtype=np.complex128)
        if phi.ndim < 1 or phi.shape[-1] != 2:
            raise ValueError(f"phi must be a 2-spinor or a stack of them, got shape {phi.shape}")
        norm = np.linalg.norm(phi, axis=-1, keepdims=True)
        if np.any(norm == 0.0):
            raise ValueError("phi must be nonzero")
        phi = phi / norm
    sigma_p = matrix_dot(p, PAULI)
    chi = (-(1j * m0c2 * np.eye(2) + params.c * sigma_p) @ phi[..., None])[..., 0] / m0c2
    psi = np.concatenate(np.broadcast_arrays(phi, chi), axis=-1)
    rows = (transported @ psi[..., None])[..., 0]
    entries.append(entry("lower_row_elimination", np.max(np.abs(rows[..., 2:]), axis=-1), 1e-12))
    entries.append(
        entry("kinetic_energy_relation", np.linalg.norm(rows[..., :2], axis=-1) / 2.0, 1e-10)
    )
    return CheckReport(entries=tuple(entries))
