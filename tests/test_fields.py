"""Magnetic ladder, attractive-potential radial levels, reduction chain."""

import numpy as np
import pytest

from negspin.fields import (
    MAX_OSCILLATOR_LEVELS,
    RadialGrid,
    UniformBField,
    _alpha_pi,
    coulomb_radial_spectrum,
    disc_spinor,
    draw_reduction_trials,
    landau_hamiltonian_matrix,
    landau_levels_analytic,
    landau_sectors,
    pauli_reduction_check,
    spectrum_csv,
    square_identity_check,
)
from negspin.matrix_core import hermitian_eig, residual_norm
from negspin.spectral import PhysicalParams

PARAMS = PhysicalParams()

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
    with pytest.raises(ValueError):
        UniformBField(0.0)
    with pytest.raises(ValueError):
        UniformBField(-1.0)


def test_radial_grid_spacing_and_nodes():
    grid = RadialGrid(r_max=10.0, n_points=99)
    assert grid.spacing == 0.1
    nodes = grid.nodes
    assert len(nodes) == 99
    assert abs(nodes[0] - 0.1) < 1e-15
    assert abs(nodes[-1] - 9.9) < 1e-12


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(r_max=0.0)
    with pytest.raises(ValueError):
        RadialGrid(n_points=10)


def test_landau_matrix_is_hermitian_and_sized():
    h = landau_hamiltonian_matrix(UniformBField(1.0), 0.5, 12, PARAMS)
    assert h.shape == (52, 52)
    assert residual_norm(h, h.conj().T) == 0.0


def test_landau_matrix_rejects_small_basis():
    with pytest.raises(ValueError):
        landau_hamiltonian_matrix(UniformBField(1.0), 0.0, 7, PARAMS)


def test_landau_requires_charge():
    chargeless = PhysicalParams(q=0.0)
    with pytest.raises(ValueError):
        landau_hamiltonian_matrix(UniformBField(1.0), 0.0, 12, chargeless)
    with pytest.raises(ValueError):
        landau_levels_analytic(UniformBField(1.0), 0.0, 3, chargeless)


def test_analytic_ladder_oracle():
    # b = 1, pz = 0, natural units: omega_c = 1 and E_+(k) = 1 + k
    spectrum = landau_levels_analytic(UniformBField(1.0), 0.0, 3, PARAMS)
    assert spectrum.omega_c == 1.0
    assert [lv.k for lv in spectrum.levels] == [0, 1, 2, 3]
    np.testing.assert_allclose([lv.energy_plus for lv in spectrum.levels], [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose([lv.energy_minus for lv in spectrum.levels], [-1.0, -2.0, -3.0, -4.0])
    assert [lv.multiplicity for lv in spectrum.levels] == [1, 2, 2, 2]


def test_analytic_ladder_with_axial_momentum():
    spectrum = landau_levels_analytic(UniformBField(2.0), 1.0, 2, PARAMS)
    assert spectrum.omega_c == 2.0
    # rest + k omega_c + pz^2/2
    np.testing.assert_allclose([lv.energy_plus for lv in spectrum.levels], [1.5, 3.5, 5.5])


@pytest.mark.parametrize("b,pz", [(1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0)])
def test_truncated_matrix_reproduces_interior_levels(b, pz):
    field = UniformBField(b)
    analytic = landau_levels_analytic(field, pz, 3, PARAMS)
    ev = hermitian_eig(landau_hamiltonian_matrix(field, pz, 40, PARAMS)).eigenvalues
    for lv in analytic.levels:
        assert np.min(np.abs(ev - lv.energy_plus)) < 1e-10
        assert np.min(np.abs(ev - lv.energy_minus)) < 1e-10


def test_interior_levels_stable_under_larger_basis():
    # adding oscillator levels must not move the resolved ladder
    field = UniformBField(1.0)
    analytic = landau_levels_analytic(field, 0.5, 2, PARAMS)
    resolved = []
    for n_max in (40, 60):
        ev = hermitian_eig(landau_hamiltonian_matrix(field, 0.5, n_max, PARAMS)).eigenvalues
        resolved.append([float(ev[np.argmin(np.abs(ev - lv.energy_plus))])
                         for lv in analytic.levels])
    assert np.max(np.abs(np.array(resolved[0]) - resolved[1])) < 1e-6


def test_weak_field_approaches_free_spectrum():
    # at b = 1e-3 the lowest positive level sits within half a ladder step
    # of the free value m0 c^2 + pz^2/2m0
    field = UniformBField(1e-3)
    ev = hermitian_eig(landau_hamiltonian_matrix(field, 0.4, 20, PARAMS)).eigenvalues
    free_value = 1.0 + 0.4**2 / 2.0
    lowest_positive = float(ev[ev > 0.0][0])
    assert abs(lowest_positive - free_value) < field.b / 2.0


def test_spectrum_is_globally_paired():
    ev = hermitian_eig(landau_hamiltonian_matrix(UniformBField(1.0), 0.3, 24, PARAMS)).eigenvalues
    ordered = np.sort(ev)
    assert np.max(np.abs(ordered + ordered[::-1])) < 1e-8


def test_square_identity_report():
    report = square_identity_check(UniformBField(1.0), 0.0, 40, PARAMS)
    assert report.overall_pass
    assert report["square_identity_interior"].residual < 1e-10
    assert report["h_s_commutator_interior"].residual < 1e-10
    # two truncation-edge oscillator levels, four components each
    assert report["excluded_edge_states"].residual == 8.0


def _dense_rows(sectors):
    """Row of each sector state in the dense (level x 4-spinor) matrix."""
    return 4 * sectors.levels + sectors.spinors


@pytest.mark.parametrize("q", [-1.0, 1.0])
def test_sectors_partition_the_dense_matrix(q):
    params = PhysicalParams(q=q)
    n_max = 13
    dense = landau_hamiltonian_matrix(UniformBField(1.3), 0.4, n_max, params)
    interior, edges = landau_sectors(UniformBField(1.3), 0.4, n_max, params)
    assert interior.hamiltonian.shape == (n_max, 4, 4)
    assert edges.hamiltonian.shape == (2, 2, 2)
    rows = np.concatenate([_dense_rows(interior).ravel(), _dense_rows(edges).ravel()])
    np.testing.assert_array_equal(np.sort(rows), np.arange(dense.shape[0]))
    same_sector = np.zeros(dense.shape, dtype=bool)
    for sectors in (interior, edges):
        for idx, block in zip(_dense_rows(sectors), sectors.hamiltonian):
            same_sector[np.ix_(idx, idx)] = True
            assert residual_norm(dense[np.ix_(idx, idx)], block) < 1e-14
    # every entry between two different sectors is exactly zero
    assert not np.any(dense[~same_sector])


@pytest.mark.parametrize("n_max", [8, 13, 40, 120])
@pytest.mark.parametrize("q", [-1.0, 1.0])
@pytest.mark.parametrize("pz", [0.0, 0.4])
def test_sector_spectrum_matches_dense_oracle(n_max, q, pz):
    params = PhysicalParams(q=q)
    field = UniformBField(1.0)
    dense = np.linalg.eigvalsh(landau_hamiltonian_matrix(field, pz, n_max, params))
    sectors = landau_sectors(field, pz, n_max, params)
    blocked = np.sort(np.concatenate(
        [hermitian_eig(s.hamiltonian).eigenvalues.ravel() for s in sectors]
    ))
    assert np.max(np.abs(blocked - dense)) <= 1e-12


@pytest.mark.parametrize("q", [-1.0, 1.0])
def test_top_edge_sector_is_a_truncation_artifact(q):
    # the bottom edge is the k = 0 level; the top edge repeats +-E(0) only
    # because its ladder partner at level n_max + 1 was cut away
    params = PhysicalParams(q=q)
    _, edges = landau_sectors(UniformBField(2.0), 0.4, 20, params)
    np.testing.assert_array_equal(edges.levels, [[0, 0], [20, 20]])
    e0 = 1.0 + 0.4**2 / 2.0
    ev = hermitian_eig(edges.hamiltonian).eigenvalues
    np.testing.assert_allclose(ev, [[-e0, e0], [-e0, e0]], atol=1e-14)


def test_landau_sectors_validation():
    with pytest.raises(ValueError, match="q"):
        landau_sectors(UniformBField(1.0), 0.0, 12, PhysicalParams(q=0.0))
    with pytest.raises(ValueError, match="coarse"):
        landau_sectors(UniformBField(1.0), 0.0, 7, PARAMS)
    with pytest.raises(ValueError, match="largest"):
        landau_sectors(UniformBField(1.0), 0.0, MAX_OSCILLATOR_LEVELS + 1, PARAMS)


@pytest.mark.parametrize("q", [-1.0, 1.0])
def test_square_identity_per_sector_matches_dense(q):
    # the same identity evaluated on the dense oracle, interior columns only
    params = PhysicalParams(q=q)
    field, pz, n_max = UniformBField(1.5), 0.4, 16
    report = square_identity_check(field, pz, n_max, params)
    assert [(e.name, e.tolerance) for e in report.entries] == [
        ("square_identity_interior", 1e-10),
        ("h_s_commutator_interior", 1e-10),
        ("excluded_edge_states", 8.0),
    ]
    assert report.overall_pass
    assert report["excluded_edge_states"].residual == 8.0
    h = landau_hamiltonian_matrix(field, pz, n_max, params)
    a = _alpha_pi(field, pz, n_max, params)
    s = np.eye(h.shape[0]) + a @ a / 2.0
    interior = np.repeat(np.arange(n_max + 1), 4) <= n_max - 2
    dense_square = np.max(np.abs((h @ h - s @ s)[:, interior]))
    assert dense_square < 1e-10
    assert abs(report["square_identity_interior"].residual - dense_square) < 1e-10


def test_coulomb_ground_levels_match_closed_form():
    spectrum = coulomb_radial_spectrum(1.0, 0, RadialGrid(), PARAMS, 3)
    assert spectrum.z == 1.0 and spectrum.l == 0
    for i, e in enumerate(spectrum.energies_plus):
        n = i + 1
        closed = 1.0 - 1.0 / (2.0 * n * n)
        assert abs(e - closed) / abs(closed) < 1e-3
    np.testing.assert_allclose(spectrum.energies_minus, -spectrum.energies_plus, atol=1e-12)


def test_coulomb_ground_state_frozen_value():
    # finite differences on the default grid land within 2e-5 of 0.5
    spectrum = coulomb_radial_spectrum(1.0, 0, RadialGrid(), PARAMS, 1)
    assert abs(spectrum.energies_plus[0] - 0.5000124952) < 1e-8


def test_coulomb_second_order_convergence():
    # halving h (n_points 1499 -> 2999 keeps r_max/(n+1) exact) should cut
    # the ground-state error by about 4
    err = []
    for n_points in (1499, 2999):
        spectrum = coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, n_points), PARAMS, 1)
        err.append(abs(spectrum.energies_plus[0] - 0.5))
    ratio = err[0] / err[1]
    assert 3.5 < ratio < 4.5


def test_coulomb_higher_charge_and_angular_momentum():
    spectrum = coulomb_radial_spectrum(2.0, 0, RadialGrid(40.0, 8000), PARAMS, 1)
    assert abs(spectrum.energies_plus[0] - (1.0 - 2.0)) < 2e-3
    spectrum = coulomb_radial_spectrum(1.0, 1, RadialGrid(), PARAMS, 1)
    # lowest level with l = 1 is n = 2
    assert abs(spectrum.energies_plus[0] - 0.875) < 1e-4


def test_coulomb_validation():
    with pytest.raises(ValueError):
        coulomb_radial_spectrum(0.0, 0, RadialGrid(), PARAMS, 1)
    with pytest.raises(ValueError):
        coulomb_radial_spectrum(1.0, -1, RadialGrid(), PARAMS, 1)
    with pytest.raises(ValueError):
        coulomb_radial_spectrum(1.0, 0, RadialGrid(), PARAMS, 0)


def test_coulomb_coarse_grid_rejected_with_guidance():
    with pytest.raises(ValueError, match="n_points"):
        coulomb_radial_spectrum(1.0, 0, RadialGrid(60.0, 100), PARAMS, 1)


def test_spectrum_csv_landau_layout():
    spectrum = landau_levels_analytic(UniformBField(1.0), 0.0, 1, PARAMS)
    lines = spectrum_csv(spectrum).splitlines()
    assert lines[0] == "k_or_n,E_plus,E_minus,multiplicity"
    assert lines[1] == "0,1,-1,1"
    assert lines[2] == "1,2,-2,2"


def test_spectrum_csv_coulomb_layout():
    spectrum = coulomb_radial_spectrum(1.0, 1, RadialGrid(), PARAMS, 2)
    lines = spectrum_csv(spectrum).splitlines()
    assert lines[0] == "k_or_n,E_plus,E_minus,multiplicity"
    # first column is the principal number l + 1 + i
    assert lines[1].startswith("2,")
    assert lines[2].startswith("3,")
    assert lines[1].endswith(",1")


def test_spectrum_csv_rejects_other_types():
    with pytest.raises(TypeError):
        spectrum_csv([1, 2, 3])


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
        report = pauli_reduction_check(p, v0, e_trial, PARAMS, phi=phi)
        assert tuple(e.name for e in report.entries) == REDUCTION_ENTRY_NAMES
        assert report.overall_pass, [e for e in report.entries if not e.passed]
        for e in report.entries:
            if e.name != "excluded_edge_states":
                assert e.residual < 1e-10 or e.name == "nullspace_dimension"


def test_reduction_chain_default_spinor_path():
    p = np.array([0.3, -0.4, 0.5])
    e_trial = 0.1 + 1.0 + float(p @ p) / 2.0
    report = pauli_reduction_check(p, 0.1, e_trial, PARAMS)
    assert report.overall_pass


def test_reduction_chain_flags_wrong_energy():
    p = np.array([0.5, 0.0, -0.25])
    v0 = -0.2
    e_good = v0 + 1.0 + float(p @ p) / 2.0
    report = pauli_reduction_check(p, v0, e_good + 0.2, PARAMS)
    assert not report.overall_pass
    # the residual of the two-component energy relation is exactly the offset
    assert abs(report["kinetic_energy_relation"].residual - 0.2) < 1e-12
    assert not report["eigenvector_satisfies_rearranged"].passed
    assert not report["nullspace_dimension"].passed
    # an empty nullspace is measured on the least-singular vector: finite, failing
    maps_back = report["nullspace_maps_back"]
    assert np.isfinite(maps_back.residual) and not maps_back.passed
    # operator rearrangements hold for any trial energy
    assert report["rearrange_operator_plus"].passed
    assert report["transport_by_gamma2"].passed
    assert report["lower_row_elimination"].passed


def test_reduction_chain_at_rest():
    # p = 0: the lower spinor reduces to -i phi and the elimination rows
    # vanish identically
    report = pauli_reduction_check((0.0, 0.0, 0.0), 0.0, 1.0, PARAMS)
    assert report.overall_pass
    assert report["lower_row_elimination"].residual < 1e-14
    assert report["kinetic_energy_relation"].residual < 1e-14


def test_reduction_nullspace_dimension_is_two():
    report = pauli_reduction_check((0.1, 0.2, 0.3), 0.0, 1.0 + 0.07, PARAMS)
    assert report["nullspace_dimension"].residual == 0.0


def test_reduction_stack_equals_each_draw():
    rng = np.random.default_rng(8)
    p, v0, phi = draw_reduction_trials(rng, 12)
    e_trial = v0 + 1.0 + np.sum(p * p, axis=-1) / 2.0
    e_trial[::3] += 0.2  # mix in failing trials
    stacked = pauli_reduction_check(p, v0, e_trial, PARAMS, phi=phi)
    assert tuple(e.name for e in stacked.entries) == REDUCTION_ENTRY_NAMES
    for i in range(12):
        single = pauli_reduction_check(p[i], v0[i], e_trial[i], PARAMS, phi=phi[i])
        for a, b in zip(single.entries, stacked.entries):
            assert a.residual == b.residual[i], a.name
            assert a.passed == b.passed[i], a.name


def test_reduction_draws_follow_documented_order():
    # per trial: momentum (3 uniforms), potential (1), then the disc spinor
    trials = 40
    p, v0, phi = draw_reduction_trials(np.random.default_rng(4), trials)
    rng = np.random.default_rng(4)
    for i in range(trials):
        np.testing.assert_array_equal(p[i], rng.uniform(-2.0, 2.0, 3))
        assert v0[i] == rng.uniform(-1.0, 1.0)
        assert np.max(np.abs(phi[i] - disc_spinor(rng, 2))) <= 1e-15


def test_reduction_phi_validation():
    with pytest.raises(ValueError):
        pauli_reduction_check((0.1, 0.2, 0.3), 0.0, 1.07, PARAMS, phi=np.zeros(2))
    with pytest.raises(ValueError):
        pauli_reduction_check((0.1, 0.2, 0.3), 0.0, 1.07, PARAMS, phi=np.ones(3))
