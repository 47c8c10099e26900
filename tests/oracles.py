"""Test oracles and helpers: the dense truncated Landau operator, the state
map of its sectors and its squared-operator identity, the Coulomb grid solved
by LAPACK, a seeded spinor draw, lookups over tuples of check entries,
and the CSV text of a table written one cell at a time.

The package builds the Landau problem as n_max + 1 free 4x4 blocks, the
``hamiltonian`` at each momentum of ``negspin.fields.landau_sectors``.  The
dense matrix here builds the same operator from oscillator-space ladder
matrices with ``kron`` and its own operator formula, at O(n_max^3) cost,
and is what the blocks are checked against; ``sector_rows`` says where
each block state sits in it.

The package finds the Coulomb grid levels from its own Sturm counts
(``negspin.tridiagonal.tridiagonal_lowest``).  Here the same
finite-difference matrix goes to scipy's ``eigh_tridiagonal`` (LAPACK
stebz), the solver the package used before; scipy is needed by the tests
only.
"""

import numbers

import numpy as np

from negspin.clifford import CheckEntry, dirac_representation, entry
from negspin.fields import (
    RadialGrid,
    _check_truncation,
    _landau_lambda,
    landau_sectors,
)
from negspin.spectral import hamiltonian


def all_passed(entries) -> bool:
    """Whether every entry passed, on every stacked input."""
    return all(bool(np.all(e.passed)) for e in entries)


def entry_named(entries, name: str) -> CheckEntry:
    """The entry called ``name``; KeyError if there is none."""
    for e in entries:
        if e.name == name:
            return e
    raise KeyError(name)


def disc_spinor(rng: np.random.Generator, size: int) -> np.ndarray:
    """Normalized spinor with components uniform on the complex unit disc.

    Draw order per component: radius^2 then angle, both U[0, 1); the vector
    is normalized afterwards.  The fixed spinors of the single-draw tests.
    """
    u = rng.uniform(size=(size, 2))
    comps = np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
    return comps / np.linalg.norm(comps)


def _ladder_down(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)


def _pi_matrices(lam: float, n_max: int):
    """Truncated kinetic-momentum components from oscillator ladder elements.

    [Pi_x, Pi_y] = i lam, lam = hbar q b / c, fixes the sign wiring: for
    lam < 0 the lowering operator is (Pi_x + i Pi_y)/sqrt(2|lam|), for
    lam > 0 it is the conjugate combination.  Both components are Hermitian
    by construction.
    """
    lam = _landau_lambda(lam)
    a = _ladder_down(n_max + 1)
    ad = a.conj().T
    scale = np.sqrt(abs(lam) / 2.0)
    pi_x = scale * (a + ad)
    pi_y = -1j * np.sign(lam) * scale * (a - ad)
    return pi_x, pi_y


def alpha_pi_matrix(lam: float, pz: float, n_max: int) -> np.ndarray:
    """alpha.Pi on the truncated (oscillator level) x (4-spinor) basis."""
    basis = dirac_representation()
    pi_x, pi_y = _pi_matrices(lam, n_max)
    identity_osc = np.eye(n_max + 1, dtype=np.complex128)
    return (
        np.kron(pi_x, basis.alpha[0])
        + np.kron(pi_y, basis.alpha[1])
        + np.kron(pz * identity_osc, basis.alpha[2])
    )


def landau_hamiltonian_matrix(lam: float, pz: float, n_max: int) -> np.ndarray:
    """Full operator alpha.Pi + beta + i beta gamma5 (alpha.Pi)^2 / 2, natural units.

    Basis ordering is (oscillator level n = 0..n_max) x (4-spinor), the
    4-spinor factor carrying the block convention of the matrix basis (a
    fixed permutation of spin x upper/lower).  (alpha.Pi)^2 is the square of
    the truncated alpha.Pi matrix.
    """
    _check_truncation(n_max)
    basis = dirac_representation()
    identity_osc = np.eye(n_max + 1, dtype=np.complex128)
    a = alpha_pi_matrix(lam, pz, n_max)
    return (
        a
        + np.kron(identity_osc, basis.beta)
        + np.kron(identity_osc, basis.i_beta_gamma5) @ a @ a / 2.0
    )


def sector_rows(n_max: int, lam: float) -> np.ndarray:
    """Dense row of state s of Landau block N, as an (n_max + 1, 4) array.

    The row is 4 level + s, with level = (N - 1 + [spin of s sits higher])
    mod (n_max + 1); spin up (s = 0, 2) sits higher for lam > 0, spin down
    (s = 1, 3) for lam < 0.
    """
    higher = (np.arange(4) % 2 == 0) == (lam > 0)
    levels = (np.arange(n_max + 1)[:, None] - 1 + higher) % (n_max + 1)
    return 4 * levels + np.arange(4)


def square_identity_check(lam: float, pz: float, n_max: int) -> tuple[CheckEntry, ...]:
    """H^2 = (1 + (alpha.Pi)^2 / 2)^2 and [H, S] = 0 on interior columns.

    Checked block by block: H at the ``landau_sectors`` momenta, alpha.Pi cut
    from the dense ``alpha_pi_matrix`` at the ``sector_rows`` of each block.
    Interior means oscillator level n <= n_max - 2; the excluded edge-state
    count is reported as its own entry (residual = count, tolerance = the
    expected 2 levels x 4 components).
    """
    h = hamiltonian(landau_sectors(lam, pz, n_max), "nonrel")
    rows = sector_rows(n_max, lam)
    a = alpha_pi_matrix(lam, pz, n_max)[rows[:, :, None], rows[:, None, :]]
    s = np.eye(4) + a @ a / 2.0
    interior = (rows // 4 <= n_max - 2)[:, None, :]
    square_resid = float(np.max(np.abs(h @ h - s @ s), where=interior, initial=0.0))
    commute_resid = float(np.max(np.abs(h @ s - s @ h), where=interior, initial=0.0))
    return (
        entry("square_identity_interior", square_resid, 1e-10),
        entry("h_s_commutator_interior", commute_resid, 1e-10),
        entry("excluded_edge_states", float(np.sum(~interior)), 8.0),
    )


def coulomb_grid_levels(z: float, l: int, grid: RadialGrid,
                        n_levels: int) -> tuple[np.ndarray, float]:
    """Lowest levels of the Coulomb finite-difference matrix from scipy's stebz,
    in natural units.

    Also returns the accuracy bound 4 eps max_i(|d_i| + 2|e|) that two
    bisection solvers of the matrix should agree within.
    """
    from scipy.linalg import eigh_tridiagonal

    r = grid.nodes
    kin = 1.0 / (2.0 * grid.spacing**2)
    diagonal = 2.0 * kin + 1.0 + l * (l + 1) / (2.0 * r * r) - z / r
    levels = eigh_tridiagonal(diagonal, np.full(grid.n_points - 1, -kin), eigvals_only=True,
                              select="i", select_range=(0, n_levels - 1))
    bound = 4.0 * np.finfo(float).eps * float(np.max(np.abs(diagonal) + 2.0 * kin))
    return levels, bound


def csv_cell(value) -> str:
    """One CSV cell by the per-cell rule that ``negspin.cli`` renders whole
    tables by: bools as true/false, integers (numpy's too) in decimal,
    strings as they are, anything else as a float with 17 significant
    digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def csv_text(table) -> str:
    """The CSV text of a header row and the rows after it, cell by cell."""
    return "".join(",".join(csv_cell(cell) for cell in row) + "\n" for row in table)
