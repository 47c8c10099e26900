"""Free-particle spectra, labeled eigenstates, expectation identities, boosts."""

import numpy as np
import pytest

from negspin.clifford import PAULI, dirac_representation
from negspin.matrix_core import residual_norm
from negspin.spectral import (
    PhysicalParams,
    closed_form_energies,
    correspondence_check,
    expectation_report,
    free_spectrum,
    hamiltonian,
    helicity_eigenstates,
    lorentz_transform,
)

PARAMS = PhysicalParams()


def random_momenta(seed, count, scale=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, (count, 3))


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(m0=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(c=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(hbar=0.0)


def test_momentum_shape_validation():
    with pytest.raises(ValueError):
        hamiltonian((1.0, 2.0), PARAMS, "dirac")


def test_unknown_hamiltonian_kind_rejected():
    with pytest.raises(ValueError):
        free_spectrum((0.0, 0.0, 1.0), PARAMS, which="cubic")
    with pytest.raises(ValueError):
        hamiltonian((0.0, 0.0, 1.0), PARAMS, which="cubic")


def test_hamiltonians_are_hermitian():
    for p in random_momenta(3, 10):
        for which in ("dirac", "nonrel"):
            h = hamiltonian(p, PARAMS, which)
            assert residual_norm(h, h.conj().T) < 1e-14


def test_closed_form_oracles():
    # |p| = 1, m0 = c = 1: sqrt(1 + 1) and 1 + 1/2
    em, ep = closed_form_energies(1.0, PARAMS, "dirac")
    assert abs(ep - np.sqrt(2.0)) < 1e-15 and em == -ep
    em, ep = closed_form_energies(1.0, PARAMS, "nonrel")
    assert abs(ep - 1.5) < 1e-15 and em == -ep


def test_free_spectrum_matches_closed_form_both_kinds():
    for which in ("dirac", "nonrel"):
        for p in random_momenta(11, 15):
            sol = free_spectrum(p, PARAMS, which)
            em, ep = closed_form_energies(float(np.linalg.norm(p)), PARAMS, which)
            target = np.array([em, em, ep, ep])
            rel = np.max(np.abs(sol.eigenvalues - target) / np.abs(target))
            assert rel < 1e-12
            assert tuple(sol.branches) == (-1, -1, 1, 1)
            assert sol.which == which


def test_square_of_hamiltonian_is_scalar():
    # both kinds square to E(p)^2 times the identity
    for which in ("dirac", "nonrel"):
        for p in random_momenta(13, 10):
            h = hamiltonian(p, PARAMS, which)
            _, ep = closed_form_energies(float(np.linalg.norm(p)), PARAMS, which)
            assert residual_norm(h @ h, ep**2 * np.eye(4)) < 1e-12 * ep**2


def test_anticommutators_with_hamiltonian():
    """The three operator relations behind the mean-value quotients:
    {H, alpha_i} = 2 c p_i, {H, beta} = 2 m0 c^2, and {H, s} = p^2/m0 with
    s the squared-momentum partner (zero for the square-root kind)."""
    basis = dirac_representation()
    s_op = basis.i_beta_gamma5
    for p in random_momenta(41, 8):
        p2 = float(p @ p)
        for which in ("dirac", "nonrel"):
            h = hamiltonian(p, PARAMS, which)
            for i in range(3):
                anti = h @ basis.alpha[i] + basis.alpha[i] @ h
                assert residual_norm(anti, 2.0 * p[i] * np.eye(4)) < 1e-12
            anti_beta = h @ basis.beta + basis.beta @ h
            assert residual_norm(anti_beta, 2.0 * np.eye(4)) < 1e-12
            anti_s = h @ s_op + s_op @ h
            want = (p2 if which == "nonrel" else 0.0) * np.eye(4)
            assert residual_norm(anti_s, want) < 1e-12


def test_spectrum_with_heavier_mass():
    # |p| = 1, m0 = 2: quadratic branch sits at 2 + 1/4
    heavy = PhysicalParams(m0=2.0)
    sol = free_spectrum((0.0, 0.0, 1.0), heavy, "nonrel")
    np.testing.assert_allclose(sol.eigenvalues, [-2.25, -2.25, 2.25, 2.25], atol=1e-12)


def test_helicity_labels_and_eigenvector_property():
    spin = [np.kron(np.eye(2), s) for s in PAULI]
    for which in ("dirac", "nonrel"):
        for p in random_momenta(17, 8):
            h = hamiltonian(p, PARAMS, which)
            labeled = helicity_eigenstates(p, PARAMS, which)
            assert labeled.label_kind == "helicity"
            assert labeled.spinors.shape == (4, 4)
            assert tuple(labeled.helicities) == (-1, 1, -1, 1)
            phat = p / np.linalg.norm(p)
            sigma_phat = sum(phat[i] * spin[i] for i in range(3))
            for energy, helicity, spinor in zip(
                labeled.energies, labeled.helicities, labeled.spinors.T
            ):
                assert np.max(np.abs(h @ spinor - energy * spinor)) < 1e-12
                hel = np.vdot(spinor, sigma_phat @ spinor).real
                assert abs(hel - helicity) < 1e-9
                assert abs(np.vdot(spinor, spinor) - 1.0) < 1e-12


def test_labeled_states_are_orthonormal():
    for p in random_momenta(43, 5):
        labeled = helicity_eigenstates(p, PARAMS, "nonrel")
        block = labeled.spinors
        overlap = block.conj().T @ block
        assert residual_norm(overlap, np.eye(4)) < 1e-10


def test_zero_momentum_falls_back_to_spin_z():
    labeled = helicity_eigenstates((0.0, 0.0, 0.0), PARAMS, "nonrel")
    assert labeled.label_kind == "spin_z"
    np.testing.assert_allclose(labeled.energies, [-1.0, -1.0, 1.0, 1.0], atol=1e-14)


def test_expectation_oracle_at_unit_momentum():
    # nonrel, p = (0,0,1), positive branch: E = 3/2 and the three mean values
    # are 2/3, 2/3, 1/3; they reassemble E as p.<alpha> + <beta> + p^2/2 <s>
    rep = expectation_report((0.0, 0.0, 1.0), PARAMS, "nonrel", branch=1, helicity=1)
    assert abs(rep.energy - 1.5) < 1e-12
    np.testing.assert_allclose(rep.mean_alpha, [0.0, 0.0, 2.0 / 3.0], atol=1e-12)
    assert abs(rep.mean_beta - 2.0 / 3.0) < 1e-12
    assert abs(rep.mean_i_beta_gamma5 - 1.0 / 3.0) < 1e-12
    reassembled = rep.mean_alpha[2] + rep.mean_beta + 0.5 * rep.mean_i_beta_gamma5
    assert abs(reassembled - rep.energy) < 1e-12


def test_rest_frame_expectations():
    rep = expectation_report((0.0, 0.0, 0.0), PARAMS, "nonrel", branch=1, helicity=1)
    np.testing.assert_allclose(rep.mean_alpha, np.zeros(3), atol=1e-14)
    assert abs(rep.mean_beta - 1.0) < 1e-14


def test_negative_branch_flips_mean_beta():
    rep = expectation_report((0.0, 0.0, 1.0), PARAMS, "nonrel", branch=-1, helicity=1)
    assert abs(rep.energy + 1.5) < 1e-12
    assert abs(rep.mean_beta + 2.0 / 3.0) < 1e-12


def test_expectation_identities_random_momenta():
    """On an eigenstate: <alpha> = c p / E, <beta> = m0 c^2 / E, and the
    squared-momentum operator mean is p^2/(2 m0 E) (zero for the square-root
    dispersion)."""
    for which in ("dirac", "nonrel"):
        for p in random_momenta(23, 12):
            p2 = float(p @ p)
            for branch in (-1, 1):
                for helicity in (-1, 1):
                    rep = expectation_report(p, PARAMS, which, branch, helicity)
                    e = rep.energy
                    assert np.max(np.abs(rep.mean_alpha - p / e)) < 1e-10
                    assert abs(rep.mean_beta - 1.0 / e) < 1e-10
                    want_s = p2 / (2.0 * e) if which == "nonrel" else 0.0
                    assert abs(rep.mean_i_beta_gamma5 - want_s) < 1e-10


def test_expectation_report_validates_labels():
    with pytest.raises(ValueError):
        expectation_report((0.0, 0.0, 1.0), PARAMS, "nonrel", branch=0, helicity=1)
    with pytest.raises(ValueError):
        expectation_report((0.0, 0.0, 1.0), PARAMS, "nonrel", branch=1, helicity=2)


def test_lorentz_transform_rest_frame_oracle():
    e, p = lorentz_transform(1.0, (0.0, 0.0, 0.0), (0.6, 0.0, 0.0), PARAMS)
    assert abs(e - 1.25) < 1e-15
    np.testing.assert_allclose(p, [0.75, 0.0, 0.0], atol=1e-15)


def test_lorentz_transform_negative_energy_mirror():
    # flipping the sign of E' flips both outputs
    e, p = lorentz_transform(-1.0, (0.0, 0.0, 0.0), (0.6, 0.0, 0.0), PARAMS)
    assert abs(e + 1.25) < 1e-15
    np.testing.assert_allclose(p, [-0.75, 0.0, 0.0], atol=1e-15)


def test_lorentz_invariant_preserved():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p_prime = rng.uniform(-2.0, 2.0, 3)
        e_prime = float(rng.uniform(-3.0, 3.0))
        v = rng.uniform(-0.7, 0.7, 3) * 0.8
        e, p = lorentz_transform(e_prime, p_prime, v, PARAMS)
        inv_before = e_prime**2 - float(p_prime @ p_prime)
        inv_after = e**2 - float(p @ p)
        assert abs(inv_after - inv_before) < 1e-10


def test_lorentz_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p_prime = rng.uniform(-1.0, 1.0, 3)
        e_prime = float(rng.uniform(-2.0, 2.0))
        v = rng.uniform(-0.5, 0.5, 3)
        e, p = lorentz_transform(e_prime, p_prime, v, PARAMS)
        e2, p2 = lorentz_transform(e, p, -v, PARAMS)
        assert abs(e2 - e_prime) < 1e-12
        assert np.max(np.abs(p2 - p_prime)) < 1e-12


def test_lorentz_rejects_superluminal_velocity():
    with pytest.raises(ValueError):
        lorentz_transform(1.0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), PARAMS)
    with pytest.raises(ValueError):
        lorentz_transform(1.0, (0.0, 0.0, 0.0), (0.9, 0.9, 0.0), PARAMS)


def test_correspondence_check_both_branches():
    for p in random_momenta(31, 6):
        for branch in (-1, 1):
            report = correspondence_check(p, PARAMS, branch)
            assert len(report.entries) == 2
            assert report.overall_pass
            for e in report.entries:
                assert e.residual < 1e-10
                assert e.name.startswith("correspondence_helicity_")


def test_correspondence_check_at_rest():
    # E = 0 + m0 c^2 with v = <c alpha> = 0
    for branch in (-1, 1):
        assert correspondence_check((0.0, 0.0, 0.0), PARAMS, branch).overall_pass


def test_hamiltonian_stack_equals_each_momentum():
    momenta = random_momenta(51, 6).reshape(2, 3, 3)
    for which in ("dirac", "nonrel"):
        stacked = hamiltonian(momenta, PARAMS, which)
        assert stacked.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(stacked[idx], hamiltonian(momenta[idx], PARAMS, which))


def test_helicity_eigenstates_stack_equals_each_momentum():
    momenta = np.vstack([random_momenta(53, 5), np.zeros(3)])
    for which in ("dirac", "nonrel"):
        stacked = helicity_eigenstates(momenta, PARAMS, which)
        for i, p in enumerate(momenta):
            single = helicity_eigenstates(p, PARAMS, which)
            np.testing.assert_array_equal(stacked.energies[i], single.energies)
            np.testing.assert_array_equal(stacked.helicities[i], single.helicities)
            np.testing.assert_array_equal(stacked.spinors[i], single.spinors)
            assert stacked.label_kind[i] == single.label_kind
    assert list(stacked.label_kind) == ["helicity"] * 5 + ["spin_z"]


def test_correspondence_check_broadcasts_momenta_and_branches():
    momenta = random_momenta(57, 4)
    both = correspondence_check(momenta[:, None, :], PARAMS, np.array([-1, 1]))
    for i, p in enumerate(momenta):
        for k, branch in enumerate((-1, 1)):
            single = correspondence_check(p, PARAMS, branch)
            for a, b in zip(single.entries, both.entries):
                assert a.residual == b.residual[i, k]
    with pytest.raises(ValueError):
        correspondence_check(momenta, PARAMS, 0)
