"""Magnetic ladder, attractive-potential radial levels, reduction chain.

The library is in natural units, so a field enters as lam = hbar q b / c,
which is q b here; lam = -b is the default charge q = -1.
"""

import cmath
import math
import random

import numpy as np
import pytest

from negspin import commands, fields
from negspin.cli import main
from negspin.clifford import CheckEntry
from negspin.fields import (
    MAX_OSCILLATOR_LEVELS,
    RadialGrid,
    coulomb_radial_spectrum,
    draw_reduction_uniforms,
    landau_levels_analytic,
    landau_sectors,
    pauli_reduction_check,
    reduction_trials,
)
from negspin.matrix_core import STACK_BLOCK, EigenDecomposition, hermitian_eig, residual_norm
from negspin.spectral import hamiltonian
from oracles import (
    all_passed,
    alpha_pi_matrix,
    coulomb_grid_levels,
    disc_spinor,
    entry_named,
    landau_hamiltonian_matrix,
    sector_rows,
    square_identity_check,
)

# upper spinor of the single-draw reduction tests
PHI = disc_spinor(np.random.default_rng(0), 2)

REDUCTION_ENTRY_NAMES = (
    "rearrange_operator_plus",
    "rearrange_operator_minus",
    "eigenvector_satisfies_rearranged",
    "nullspace_dimension",
    "nullspace_maps_back",
    "transport_by_gamma2",
    "lower_row_elimination",
    "kinetic_energy_relation",
)


def test_field_validation():
    for lam in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="not finite"):
            landau_sectors(lam, 0.0, 12)
        with pytest.raises(ValueError, match="not finite"):
            landau_levels_analytic(lam, 0.0, 3)


def test_radial_grid_spacing_and_nodes():
    grid = RadialGrid(r_max=10.0, n_points=99)
    assert grid.spacing == 0.1
    nodes = grid.nodes
    assert len(nodes) == 99
    assert abs(nodes[0] - 0.1) < 1e-15
    assert abs(nodes[-1] - 9.9) < 1e-12


def test_radial_grid_validation():
    # the grid's rules fire first, r_max before n_points, before z is read
    with pytest.raises(ValueError, match="^r_max must be positive$"):
        coulomb_radial_spectrum(0.0, 0, RadialGrid(r_max=0.0, n_points=10), 1)
    with pytest.raises(ValueError, match="^n_points must be at least 50$"):
        coulomb_radial_spectrum(0.0, 0, RadialGrid(r_max=60.0, n_points=10), 1)


def test_landau_matrix_is_hermitian_and_sized():
    h = landau_hamiltonian_matrix(-1.0, 0.5, 12)
    assert h.shape == (52, 52)
    assert residual_norm(h, h.conj().T) == 0.0


def test_landau_matrix_rejects_small_basis():
    with pytest.raises(ValueError):
        landau_hamiltonian_matrix(-1.0, 0.0, 7)


def test_landau_requires_charge():
    # q = 0 gives lam = 0: no magnetic problem
    with pytest.raises(ValueError, match="nonzero"):
        landau_hamiltonian_matrix(0.0, 0.0, 12)
    with pytest.raises(ValueError, match="nonzero"):
        landau_levels_analytic(0.0, 0.0, 3)


def test_analytic_ladder_oracle():
    # b = 1, pz = 0, natural units: omega_c = 1 and E_+(k) = 1 + k, k = 0..3;
    # either charge sign gives the same ladder
    np.testing.assert_allclose(landau_levels_analytic(-1.0, 0.0, 3), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(landau_levels_analytic(1.0, 0.0, 3),
                                  landau_levels_analytic(-1.0, 0.0, 3))


def test_analytic_ladder_with_axial_momentum():
    # rest + k omega_c + pz^2/2, omega_c = |lam| = 2
    np.testing.assert_allclose(landau_levels_analytic(-2.0, 1.0, 2), [1.5, 3.5, 5.5])


@pytest.mark.parametrize("b,pz", [(1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0)])
def test_truncated_matrix_reproduces_interior_levels(b, pz):
    analytic = landau_levels_analytic(-b, pz, 3)
    ev = hermitian_eig(landau_hamiltonian_matrix(-b, pz, 40)).eigenvalues
    for e_plus in analytic:
        assert np.min(np.abs(ev - e_plus)) < 1e-10
        assert np.min(np.abs(ev + e_plus)) < 1e-10


def test_interior_levels_stable_under_larger_basis():
    # adding oscillator levels must not move the resolved ladder
    analytic = landau_levels_analytic(-1.0, 0.5, 2)
    resolved = []
    for n_max in (40, 60):
        ev = hermitian_eig(landau_hamiltonian_matrix(-1.0, 0.5, n_max)).eigenvalues
        resolved.append([float(ev[np.argmin(np.abs(ev - e_plus))])
                         for e_plus in analytic])
    assert np.max(np.abs(np.array(resolved[0]) - resolved[1])) < 1e-6


def test_weak_field_approaches_free_spectrum():
    # at b = 1e-3 the lowest positive level sits within half a ladder step
    # of the free value m0 c^2 + pz^2/2m0
    b = 1e-3
    ev = hermitian_eig(landau_hamiltonian_matrix(-b, 0.4, 20)).eigenvalues
    free_value = 1.0 + 0.4**2 / 2.0
    lowest_positive = float(ev[ev > 0.0][0])
    assert abs(lowest_positive - free_value) < b / 2.0


def test_spectrum_is_globally_paired():
    ev = hermitian_eig(landau_hamiltonian_matrix(-1.0, 0.3, 24)).eigenvalues
    ordered = np.sort(ev)
    assert np.max(np.abs(ordered + ordered[::-1])) < 1e-8


def test_square_identity_report():
    report = square_identity_check(-1.0, 0.0, 40)
    assert all_passed(report)
    assert entry_named(report, "square_identity_interior").residual < 1e-10
    assert entry_named(report, "h_s_commutator_interior").residual < 1e-10
    # two truncation-edge oscillator levels, four components each
    assert entry_named(report, "excluded_edge_states").residual == 8.0


# the sign of lam (of the charge q) decides which spin sits higher in a sector
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_sectors_partition_the_dense_matrix(sign):
    lam, n_max = 1.3 * sign, 13
    dense = landau_hamiltonian_matrix(lam, 0.4, n_max)
    momenta = landau_sectors(lam, 0.4, n_max)
    assert momenta.shape == (n_max + 1, 3)
    blocks = hamiltonian(momenta, "nonrel")
    rows = sector_rows(n_max, lam)
    np.testing.assert_array_equal(np.sort(rows.ravel()), np.arange(dense.shape[0]))
    same_sector = np.zeros(dense.shape, dtype=bool)
    for idx, block in zip(rows, blocks):
        same_sector[np.ix_(idx, idx)] = True
        assert residual_norm(dense[np.ix_(idx, idx)], block) < 1e-14
    # every entry between two different sectors is exactly zero
    assert not np.any(dense[~same_sector])


@pytest.mark.parametrize("n_max", [8, 13, 40, 120])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("pz", [0.0, 0.4])
def test_sector_spectrum_matches_dense_oracle(n_max, sign, pz):
    dense = np.linalg.eigvalsh(landau_hamiltonian_matrix(sign, pz, n_max))
    blocks = hamiltonian(landau_sectors(sign, pz, n_max), "nonrel")
    assert blocks.shape == (n_max + 1, 4, 4)
    blocked = np.sort(hermitian_eig(blocks).eigenvalues.ravel())
    assert np.max(np.abs(blocked - dense)) <= 1e-12


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_top_edge_sector_is_a_truncation_artifact(sign):
    # block 0 holds both edges: the higher spin at level 0 is the k = 0
    # level, and the other spin at level n_max repeats +-E(0) only because
    # its ladder partner at level n_max + 1 was cut away
    blocks = hamiltonian(landau_sectors(2.0 * sign, 0.4, 20), "nonrel")
    np.testing.assert_array_equal(np.sort(sector_rows(20, sign)[0] // 4), [0, 0, 20, 20])
    e0 = 1.0 + 0.4**2 / 2.0
    ev = hermitian_eig(blocks[0]).eigenvalues
    np.testing.assert_allclose(ev, [-e0, -e0, e0, e0], atol=1e-14)
    # every other block lies away from +-E(0)
    assert np.min(np.abs(np.abs(hermitian_eig(blocks[1:]).eigenvalues) - e0)) > 1.0


def test_landau_sectors_validation():
    with pytest.raises(ValueError, match="nonzero"):
        landau_sectors(0.0, 0.0, 12)
    with pytest.raises(ValueError, match="coarse"):
        landau_sectors(-1.0, 0.0, 7)
    with pytest.raises(ValueError, match="largest"):
        landau_sectors(-1.0, 0.0, MAX_OSCILLATOR_LEVELS + 1)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_square_identity_per_sector_matches_dense(sign):
    # the same identity evaluated on the dense oracle, interior columns only
    lam, pz, n_max = 1.5 * sign, 0.4, 16
    report = square_identity_check(lam, pz, n_max)
    assert [(e.name, e.tolerance) for e in report] == [
        ("square_identity_interior", 1e-10),
        ("h_s_commutator_interior", 1e-10),
        ("excluded_edge_states", 8.0),
    ]
    assert all_passed(report)
    assert entry_named(report, "excluded_edge_states").residual == 8.0
    h = landau_hamiltonian_matrix(lam, pz, n_max)
    a = alpha_pi_matrix(lam, pz, n_max)
    s = np.eye(h.shape[0]) + a @ a / 2.0
    interior = np.repeat(np.arange(n_max + 1), 4) <= n_max - 2
    dense_square = np.max(np.abs((h @ h - s @ s)[:, interior]))
    assert dense_square < 1e-10
    assert abs(entry_named(report, "square_identity_interior").residual - dense_square) < 1e-10


def test_coulomb_ground_levels_match_closed_form():
    energies = coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, 6000), 3)
    assert np.all(np.diff(energies) > 0.0)
    for i, e in enumerate(energies):
        n = i + 1
        closed = 1.0 - 1.0 / (2.0 * n * n)
        assert abs(e - closed) / abs(closed) < 1e-3
    with pytest.raises(ValueError):
        energies[0] = 0.0


def test_coulomb_ground_state_frozen_value():
    # finite differences on the coulomb command's default grid land within 2e-5 of 0.5
    ground = coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, 6000), 1)[0]
    assert abs(ground - 0.5000124952) < 1e-8


def test_coulomb_second_order_convergence():
    # halving h (n_points 1499 -> 2999 keeps r_max/(n+1) exact) should cut
    # the ground-state error by about 4
    err = []
    for n_points in (1499, 2999):
        ground = coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, n_points), 1)[0]
        err.append(abs(ground - 0.5))
    ratio = err[0] / err[1]
    assert 3.5 < ratio < 4.5


def test_coulomb_higher_charge_and_angular_momentum():
    ground = coulomb_radial_spectrum(2.0, 0, RadialGrid(40.0, 8000), 1)[0]
    assert abs(ground - (1.0 - 2.0)) < 2e-3
    ground = coulomb_radial_spectrum(1.0, 1, RadialGrid(60.0, 6000), 1)[0]
    # lowest level with l = 1 is n = 2
    assert abs(ground - 0.875) < 1e-4


def test_coulomb_validation():
    with pytest.raises(ValueError):
        coulomb_radial_spectrum(0.0, 0, RadialGrid(60.0, 6000), 1)
    with pytest.raises(ValueError):
        coulomb_radial_spectrum(1.0, -1, RadialGrid(60.0, 6000), 1)
    with pytest.raises(ValueError):
        coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, 6000), 0)


def test_coulomb_level_numbers_stay_exact_float64_integers():
    # the highest level number, l + n_levels, may be 2^53, which float64
    # holds exactly; 2^53 + 1 it does not, so that is rejected
    grid = RadialGrid(60.0, 6000)
    assert len(coulomb_radial_spectrum(1.0, 2**53 - 3, grid, 3)) == 3
    with pytest.raises(ValueError, match=r"^l \+ n_levels exceeds 2\^53:"):
        coulomb_radial_spectrum(1.0, 2**53 - 2, grid, 3)


def test_coulomb_coarse_grid_rejected_with_guidance():
    with pytest.raises(ValueError, match="n_points"):
        coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, 100), 1)


def test_coulomb_too_fine_grid_rejected_before_any_array():
    # 10^14 nodes would not fit in memory: the guard answers first
    with pytest.raises(ValueError, match=r"^grid too fine: spacing\*m0\*c/hbar = 1e-164,"):
        coulomb_radial_spectrum(1.0, 0, RadialGrid(1e-150, 10**14 - 1), 1)


# (z, l, r_max, n_points, n_levels, m0, c, hbar): natural and custom units,
# every grid inside the Bohr-radius guard (spacing * m0 Z / hbar^2 < 0.05)
COULOMB_ORACLE_CASES = [
    (1.0, 0, 60.0, 6000, 3, 1.0, 1.0, 1.0),
    (1.0, 0, 60.0, 6000, 10, 1.0, 1.0, 1.0),
    (0.7, 1, 1.0, 50, 1, 0.5, 2.0, 1.2),
    (2.0, 4, 30.0, 2400, 7, 1.0, 1.0, 1.0),
    (1.3, 10, 20.0, 20000, 10, 2.0, 3.0, 0.7),
    (4.0, 0, 0.5, 1000, 5, 0.3, 137.0, 0.9),
    (0.2, 1, 9.0, 333, 2, 5.0, 0.1, 4.0),
]


@pytest.mark.parametrize("z, l, r_max, n_points, n_levels, m0, c, hbar", COULOMB_ORACLE_CASES)
def test_coulomb_levels_match_lapack_oracle(capsys, z, l, r_max, n_points, n_levels, m0, c, hbar):
    # through the command, which scales Z by hbar c, r by hbar/(m0 c) and the
    # levels by m0 c^2; the oracle solves the same natural-unit matrix
    pytest.importorskip("scipy")
    code = main(["coulomb", "--units", "custom", f"--m0={m0!r}", f"--c={c!r}",
                 f"--hbar={hbar!r}", f"--z={z!r}", "--l", str(l), f"--r-max={r_max!r}",
                 "--n-points", str(n_points), "--n-levels", str(n_levels), "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    # levels past the box's reach fail the closed-form check; the grid levels are still compared
    assert code in (0, 1)
    energies = np.array([float(line.split(",")[1]) for line in lines[1:]])
    grid = RadialGrid(r_max / (hbar / (m0 * c)), n_points)
    expected, bound = coulomb_grid_levels(z / (hbar * c), l, grid, n_levels)
    assert energies.shape == (n_levels,)
    assert np.max(np.abs(energies - m0 * c * c * expected)) <= m0 * c * c * bound


def test_coulomb_level_does_not_depend_on_levels_asked_for():
    three = coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, 6000), 3)
    ten = coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, 6000), 10)
    assert np.array_equal(three, ten[:3])


def test_disc_spinor_is_normalized_and_reproducible():
    a = disc_spinor(np.random.default_rng(42), 2)
    b = disc_spinor(np.random.default_rng(42), 2)
    assert a.shape == (2,)
    assert abs(np.vdot(a, a).real - 1.0) < 1e-12
    np.testing.assert_array_equal(a, b)
    c = disc_spinor(np.random.default_rng(43), 2)
    assert np.max(np.abs(a - c)) > 1e-3


def test_reduction_chain_passes_on_consistent_energy():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = rng.uniform(-2.0, 2.0, 3)
        v0 = float(rng.uniform(-1.0, 1.0))
        phi = disc_spinor(rng, 2)
        e_trial = v0 + 1.0 + float(p @ p) / 2.0
        report = pauli_reduction_check(p, v0, e_trial, phi=phi)
        assert tuple(e.name for e in report) == REDUCTION_ENTRY_NAMES
        assert all_passed(report), [e for e in report if not e.passed]
        for e in report:
            if e.name != "excluded_edge_states":
                assert e.residual < 1e-10 or e.name == "nullspace_dimension"


def test_reduction_chain_flags_wrong_energy():
    p = np.array([0.5, 0.0, -0.25])
    v0 = -0.2
    e_good = v0 + 1.0 + float(p @ p) / 2.0
    report = pauli_reduction_check(p, v0, e_good + 0.2, phi=PHI)
    assert not all_passed(report)
    # the residual of the two-component energy relation is exactly the offset
    assert abs(entry_named(report, "kinetic_energy_relation").residual - 0.2) < 1e-12
    assert not entry_named(report, "eigenvector_satisfies_rearranged").passed
    assert not entry_named(report, "nullspace_dimension").passed
    # an empty nullspace is measured on the least-singular eigenspace: finite, failing
    maps_back = entry_named(report, "nullspace_maps_back")
    assert np.isfinite(maps_back.residual) and not maps_back.passed
    # operator rearrangements hold for any trial energy
    assert entry_named(report, "rearrange_operator_plus").passed
    assert entry_named(report, "transport_by_gamma2").passed
    assert entry_named(report, "lower_row_elimination").passed


@pytest.mark.parametrize("offset", [0.0, 0.2])
def test_nullspace_maps_back_does_not_depend_on_the_eigenbasis(monkeypatch, offset):
    # the rearranged operator's eigenvalues come in degenerate pairs, so a
    # solver may return any orthonormal basis of each pair; mixing every
    # pair by one unitary moves the residual only in roundoff, in the
    # nullspace (offset 0) and in the least-singular pair (offset 0.2)
    p, v0, phi = reduction_trials(draw_reduction_uniforms(0, 3))
    e_trial = v0 + 1.0 + np.sum(p * p, axis=-1) / 2.0 + offset
    mix = np.array([[3.0, 4.0j], [4.0j, 3.0]]) / 5.0
    solves = []

    def mixed(h):
        solved = hermitian_eig(h)
        solves.append(solved)
        if len(solves) == 1:  # the full Hamiltonian
            return solved
        pairs = solved.eigenvalues.reshape(*solved.eigenvalues.shape[:-1], 2, 2)
        assert np.all(np.abs(pairs[..., 0] - pairs[..., 1]) < 1e-12)
        vecs = solved.eigenvectors.copy()
        for pair in (slice(0, 2), slice(2, 4)):
            vecs[..., pair] = vecs[..., pair] @ mix
        return EigenDecomposition(solved.eigenvalues, vecs)

    expected = entry_named(pauli_reduction_check(p, v0, e_trial, phi=phi), "nullspace_maps_back")
    monkeypatch.setattr(fields, "hermitian_eig", mixed)
    got = entry_named(pauli_reduction_check(p, v0, e_trial, phi=phi), "nullspace_maps_back")
    assert len(solves) == 2
    np.testing.assert_allclose(got.residual, expected.residual, rtol=1e-12, atol=1e-14)
    assert got.passed.tolist() == [offset == 0.0] * 3


def test_reduction_chain_at_rest():
    # p = 0: the lower spinor reduces to -i phi and the elimination rows
    # vanish identically
    report = pauli_reduction_check((0.0, 0.0, 0.0), 0.0, 1.0, phi=PHI)
    assert all_passed(report)
    assert entry_named(report, "lower_row_elimination").residual < 1e-14
    assert entry_named(report, "kinetic_energy_relation").residual < 1e-14


def test_reduction_nullspace_dimension_is_two():
    report = pauli_reduction_check((0.1, 0.2, 0.3), 0.0, 1.0 + 0.07, phi=PHI)
    assert entry_named(report, "nullspace_dimension").residual == 0.0


def test_reduction_stack_equals_each_draw():
    p, v0, phi = reduction_trials(draw_reduction_uniforms(8, 12))
    e_trial = v0 + 1.0 + np.sum(p * p, axis=-1) / 2.0
    e_trial[::3] += 0.2  # mix in failing trials
    stacked = pauli_reduction_check(p, v0, e_trial, phi=phi)
    assert tuple(e.name for e in stacked) == REDUCTION_ENTRY_NAMES
    for i in range(12):
        single = pauli_reduction_check(p[i], v0[i], e_trial[i], phi=phi[i])
        for a, b in zip(single, stacked):
            assert a.residual == b.residual[i], a.name
            assert a.passed == b.passed[i], a.name


def test_reduction_draws_follow_documented_order():
    # per trial: momentum (3 uniforms), potential (1), then the two spinor
    # components, not normalized; each uniform a 53-bit double from one
    # 64-bit MT19937 word
    trials = 40
    p, v0, phi = reduction_trials(draw_reduction_uniforms(4, trials))
    rng = random.Random(4)

    def uniform():
        return (rng.getrandbits(64) >> 11) * 2.0**-53

    for i in range(trials):
        assert list(p[i]) == [-2.0 + 4.0 * uniform() for _ in range(3)]
        assert v0[i] == -1.0 + 2.0 * uniform()
        comps = []
        for _ in range(2):
            radius2, turn = uniform(), uniform()
            comps.append(cmath.rect(math.sqrt(radius2), 2.0 * math.pi * turn))
        assert max(abs(a - b) for a, b in zip(phi[i], comps)) <= 1e-15


def test_reduction_draws_do_not_depend_on_chunking(monkeypatch):
    whole = draw_reduction_uniforms(6, 50)
    # 5 words a call: chunks end mid-trial
    monkeypatch.setattr(fields, "_DRAW_WORDS", 5)
    np.testing.assert_array_equal(whole, draw_reduction_uniforms(6, 50))


def test_reduction_trials_are_row_wise():
    # a block of the uniforms gives, bit for bit, the rows of the whole draw
    u = draw_reduction_uniforms(3, 70)
    whole = reduction_trials(u)
    blocks = [reduction_trials(u[start:start + 32]) for start in range(0, 70, 32)]
    for i, part in enumerate(zip(*blocks)):
        np.testing.assert_array_equal(np.concatenate(part), whole[i])


@pytest.mark.parametrize("wrong_energy", [False, True])
@pytest.mark.parametrize("trials", [1, STACK_BLOCK - 1, STACK_BLOCK,
                                    STACK_BLOCK + 1, 2000])
def test_reduction_blocks_match_one_stack(trials, wrong_energy):
    cfg = {"trials": trials, "seed": 11, "wrong_energy": wrong_energy}
    payload = commands.run("reduction", cfg, None)
    p, v0, phi = reduction_trials(draw_reduction_uniforms(11, trials))
    e_trial = v0 + 1.0 + np.sum(p * p, axis=-1) / 2.0 + (0.2 if wrong_energy else 0.0)
    stack = pauli_reduction_check(p, v0, e_trial, phi=phi)
    assert [(c.name, c.tolerance) for c in payload["checks"]] == [
        (e.name, e.tolerance) for e in stack]
    assert [c.residual for c in payload["checks"]] == [np.max(e.residual) for e in stack]
    failed = np.sum(~np.logical_and.reduce([e.passed for e in stack]))
    assert payload["results"]["failed_trials"] == failed


def test_reduction_blocks_carry_a_nan_residual(monkeypatch, capsys):
    # a NaN in the middle block only must still fail its check
    def with_nan(p, v0, e_trial, *, phi):
        chain = pauli_reduction_check(p, v0, e_trial, phi=phi)
        if len(calls) == 1:
            chain = (CheckEntry(chain[0].name, np.full(len(p), np.nan), chain[0].tolerance),
                     *chain[1:])
        calls.append(len(p))
        return chain

    calls = []
    monkeypatch.setattr(commands, "pauli_reduction_check", with_nan)
    code = main(["reduction", "--trials", str(2 * STACK_BLOCK + 1), "--format", "csv"])
    assert calls == [STACK_BLOCK, STACK_BLOCK, 1]
    assert code == 1
    assert "rearrange_operator_plus,nan,9.9999999999999998e-13,false" in capsys.readouterr().out


def test_reduction_zero_spinor_is_rejected_by_the_chain(monkeypatch, capsys):
    # a row whose two radius^2 uniforms are 0 draws phi = 0, which only
    # pauli_reduction_check normalizes, so it is rejected by name
    def zero_spinor_draw(seed, trials):
        u = draw_reduction_uniforms(seed, trials)
        u[1, [4, 6]] = 0.0
        return u

    monkeypatch.setattr(commands, "draw_reduction_uniforms", zero_spinor_draw)
    assert main(["reduction", "--trials", "3"]) == 2
    assert "phi must be nonzero" in capsys.readouterr().err


def test_reduction_phi_validation():
    with pytest.raises(ValueError):
        pauli_reduction_check((0.1, 0.2, 0.3), 0.0, 1.07, phi=np.zeros(2))
    with pytest.raises(ValueError):
        pauli_reduction_check((0.1, 0.2, 0.3), 0.0, 1.07, phi=np.ones(3))
