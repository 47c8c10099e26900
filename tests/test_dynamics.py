"""Branch mixtures, time evolution, and oscillation-frequency extraction."""

import numpy as np
import pytest

from negspin import dynamics
from negspin.clifford import dirac_representation
from negspin.dynamics import (
    dominant_frequency,
    evolve,
    observable_series,
    unit_weights,
)
from negspin.matrix_core import STACK_BLOCK, expect
from negspin.spectral import closed_form_energies, helicity_eigenstates

BASIS = dirac_representation()
P_UNIT = (0.0, 0.0, 1.0)


def state(p, weights):
    """The nonrel eigenstates at ``p`` and the unit weights on them."""
    return helicity_eigenstates(p, "nonrel"), unit_weights(weights)


def test_unit_weights_requires_four_entries():
    with pytest.raises(ValueError, match="exactly 4 weights"):
        unit_weights((1.0, 0.0))


def test_unit_weights_rejects_all_zero():
    with pytest.raises(ValueError, match="nonzero"):
        unit_weights((0.0, 0.0, 0.0, 0.0))


def test_unit_weights_normalizes():
    weights = unit_weights((0.0, 3.0, 0.0, 4.0))
    assert abs(np.sum(np.abs(weights) ** 2) - 1.0) < 1e-12
    np.testing.assert_allclose(weights, [0.0, 0.6, 0.0, 0.8], rtol=1e-15)
    assert weights.dtype == np.complex128


def test_observable_series_rejects_unnormalized_weights():
    states = helicity_eigenstates(P_UNIT, "nonrel")
    with pytest.raises(ValueError, match="norm"):
        observable_series(states, np.array([2.0, 0.0, 0.0, 0.0]), BASIS.alpha[2], 8.0, 16)


def test_observable_series_rejects_a_stacked_decomposition():
    # a state has one momentum; a stack of them is no one state
    states, weights = state(np.array([P_UNIT, (0.0, 0.0, 2.0)]), (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="one momentum"):
        observable_series(states, weights, BASIS.alpha[2], 8.0, 16)


def test_distinct_energies_collapses_degenerate_pairs():
    # the nonrel Hamiltonian has one energy per branch, so the sign of a
    # column's energy names its level: the two members of each degenerate
    # pair sit at the closed-form -E or E
    states = helicity_eigenstates(P_UNIT, "nonrel")
    assert np.sign(states.eigenvalues).tolist() == [-1.0, -1.0, 1.0, 1.0]
    e_minus, e_plus = closed_form_energies(1.0, "nonrel")
    np.testing.assert_allclose(states.eigenvalues, [e_minus, e_minus, e_plus, e_plus],
                               rtol=1e-15)


def test_evolve_matches_single_state_phase():
    states, weights = state(P_UNIT, (0.0, 0.0, 0.0, 1.0))
    t = 0.8
    expected = weights[3] * np.exp(-1j * states.eigenvalues[3] * t) * states.eigenvectors[:, 3]
    np.testing.assert_allclose(evolve(states, weights, t), expected, atol=1e-15)


def test_evolve_preserves_norm():
    states, weights = state(P_UNIT, (0.5, -1.0, 0.25, 2.0))
    for t in np.linspace(0.0, 12.0, 7):
        psi = evolve(states, weights, float(t))
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12


def test_observable_series_grid_and_reality():
    mix = state(P_UNIT, (0.0, 1.0, 0.0, 1.0))
    times, values = observable_series(*mix, BASIS.alpha[2], 8.0, 16)
    assert times.shape == values.shape == (16,)
    assert times[0] == 0.0
    # endpoint excluded: t_k = k t_max / n
    assert abs(times[-1] - 7.5) < 1e-15
    assert values.dtype == np.float64


def test_observable_series_validation():
    mix = state(P_UNIT, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        observable_series(*mix, BASIS.alpha[2], 8.0, 8)
    with pytest.raises(ValueError):
        observable_series(*mix, BASIS.alpha[2], 0.0, 16)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        observable_series(*mix, skew, 8.0, 16)


@pytest.mark.parametrize("n_samples", [STACK_BLOCK - 1, STACK_BLOCK, STACK_BLOCK + 1,
                                       2 * STACK_BLOCK + 1])
def test_observable_series_blocks_match_one_stack(monkeypatch, n_samples):
    # the series is evolved STACK_BLOCK times at a time, and each value is
    # bit for bit that of one stacked evolve and expect over all times
    def counted(states, weights, t):
        calls.append(len(t))
        return evolve(states, weights, t)

    calls = []
    monkeypatch.setattr(dynamics, "evolve", counted)
    states, weights = state((0.3, -0.2, 1.1), (0.4, 1.0, -0.7, 1.2))
    times, values = observable_series(states, weights, BASIS.alpha[0], 37.0, n_samples)
    whole = expect(evolve(states, weights, np.arange(n_samples) * (37.0 / n_samples)), BASIS.alpha[0])
    assert values.tobytes() == whole.tobytes()
    assert times.tobytes() == (np.arange(n_samples) * (37.0 / n_samples)).tobytes()
    full, rest = divmod(n_samples, STACK_BLOCK)
    assert calls == [STACK_BLOCK] * full + ([rest] if rest else [])


def test_identity_observable_gives_unit_series():
    mix = state(P_UNIT, (0.5, 1.0, -0.5, 1.0))
    _, values = observable_series(*mix, np.eye(4), 5.0, 16)
    assert np.max(np.abs(values - 1.0)) < 1e-12


def test_single_eigenstate_series_is_stationary_mean():
    # stationary state: series pinned at the eigenstate expectation p3/E
    mix = state(P_UNIT, (0.0, 0.0, 0.0, 1.0))
    _, values = observable_series(*mix, BASIS.alpha[2], 10.0, 32)
    assert np.max(np.abs(values - 2.0 / 3.0)) < 1e-12


def test_equal_mix_time_average_over_whole_periods():
    # sampled over exactly three periods the cross term sums to zero, so the
    # mean is the weight-average of the two stationary expectations (here 0)
    mix = state(P_UNIT, (0.0, 1.0, 0.0, 1.0))
    t_max = 3.0 * 2.0 * np.pi / 3.0
    _, values = observable_series(*mix, BASIS.alpha[2], t_max, 128)
    mean = float(np.mean(values))
    assert abs(mean) < 1e-12


def test_series_matches_two_level_closed_form():
    """The sampled mean must equal the textbook two-state interference
    formula: sum of diagonal weights plus a single rotating cross term."""
    rng = np.random.default_rng(21)
    states = helicity_eigenstates(P_UNIT, "nonrel")
    (e_lo, e_hi), (psi_lo, psi_hi) = states.eigenvalues[[1, 3]], states.eigenvectors[:, [1, 3]].T
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, 2)
        weights = (0.0, w[0], 0.0, w[1])
        if abs(w[0]) < 1e-6 or abs(w[1]) < 1e-6:
            continue
        unit = unit_weights(weights)
        c1, c2 = unit[[1, 3]]
        obs = BASIS.alpha[2]
        o11 = np.vdot(psi_lo, obs @ psi_lo).real
        o22 = np.vdot(psi_hi, obs @ psi_hi).real
        o12 = np.vdot(psi_lo, obs @ psi_hi)
        times, values = observable_series(states, unit, obs, 10.0, 64)
        for t, value in zip(times, values):
            phase = np.exp(1j * (e_lo - e_hi) * t)
            want = (
                abs(c1) ** 2 * o11
                + abs(c2) ** 2 * o22
                + 2.0 * (np.conj(c1) * c2 * o12 * phase).real
            )
            assert abs(value - want) < 1e-12


def test_dominant_frequency_pure_cosine():
    t = np.arange(256) * (16.0 * np.pi / 3.0 / 256)
    omega, error = dominant_frequency(t, 0.25 + 0.1 * np.cos(3.0 * t))
    assert abs(omega - 3.0) / 3.0 < 1e-13
    # roundoff alone is left in the residuals, and the error says so
    assert error < 1e-13


def test_dominant_frequency_small_amplitude_still_detected():
    # the differences fall to 1e-9 omega dt, so roundoff of the 0.5 level
    # costs about eps / (1e-9 (omega dt)^3) relative
    t = np.arange(256) * (16.0 * np.pi / 3.0 / 256)
    omega, error = dominant_frequency(t, 0.5 + 1e-9 * np.cos(3.0 * t))
    assert abs(omega - 3.0) / 3.0 < 1e-6
    # the standard error sees the roundoff of the 0.5 level and bounds the miss
    assert abs(omega - 3.0) / 3.0 <= error < 1e-6


@pytest.mark.parametrize("n,t_max", [(16, 0.5), (16, 16.5), (64, 66.0), (512, 20.0)])
def test_dominant_frequency_needs_no_whole_period(n, t_max):
    # a quarter period at 16 samples, and steps up to omega dt = 3.09, just
    # below the aliasing limit pi: the recurrence holds at any phase and step
    t = np.arange(n) * (t_max / n)
    omega, error = dominant_frequency(t, 0.1 - 0.3 * np.cos(3.0 * t + 0.4))
    assert abs(omega - 3.0) / 3.0 < 1e-13
    assert error < 1e-6


def test_dominant_frequency_folds_an_aliased_cosine():
    # at omega dt = 2 pi - 1 the samples are those of omega dt = 1
    t = np.arange(64) * 1.0
    omega, error = dominant_frequency(t, np.cos((2.0 * np.pi - 1.0) * t))
    assert abs(omega - 1.0) < 1e-13
    # the fold is exact, so the fit cannot tell: only the sampling rule can
    assert error < 1e-13


def test_dominant_frequency_constant_returns_none():
    t = np.linspace(0.0, 10.0, 128, endpoint=False)
    assert dominant_frequency(t, np.full(128, 0.7)) is None
    # roundoff-level ripple counts as constant too
    ripple = 0.7 + 1e-15 * np.sin(2.0 * t)
    assert dominant_frequency(t, ripple) is None


@pytest.mark.parametrize("x", [[0, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1, 0],
                               [0, 1, 1, 1, 1, 1, 1, 2]])
def test_dominant_frequency_rejects_a_series_that_changes_only_at_its_ends(x):
    # not flat, but every fitted difference is zero: no cosine fits it, and
    # the fit says so by name rather than returning NaN with a warning
    with pytest.raises(ValueError, match="changes only at its ends"):
        dominant_frequency(np.arange(8.0), np.array(x, dtype=float))


def test_dominant_frequency_input_validation():
    # the recurrence needs three differences, and its standard error one
    # row more than the one coefficient it fits
    for n in (3, 4):
        t = np.linspace(0.0, 10.0, n, endpoint=False)
        with pytest.raises(ValueError):
            dominant_frequency(t, np.cos(t))
    t = np.linspace(0.0, 10.0, 128, endpoint=False)
    with pytest.raises(ValueError):
        dominant_frequency(t, np.cos(t)[:-1])
    t = np.linspace(0.0, 10.0, 128, endpoint=False).copy()
    t[40] += 0.02
    with pytest.raises(ValueError):
        dominant_frequency(t, np.cos(t))


def test_branch_mixture_oscillates_at_energy_gap():
    # p = (0,0,1): gap between branches is 2 (1 + 1/2) = 3
    mix = state(P_UNIT, (0.0, 1.0, 0.0, 1.0))
    times, values = observable_series(*mix, BASIS.alpha[2], 20.0, 512)
    omega, error = dominant_frequency(times, values)
    assert abs(omega - 3.0) / 3.0 < 1e-12
    assert error < 1e-12
    # cross-check the recurrence estimate by counting zero crossings
    values = values - np.mean(values)
    crossings = int(np.sum(np.abs(np.diff(np.sign(values))) > 1))
    omega_crossings = np.pi * crossings / 20.0
    assert abs(omega_crossings - omega) / omega < 0.05


def test_gap_approaches_twice_rest_energy_at_small_momentum():
    # gap 2 + p^2 = 2.0001, near the limit 2 m0 c^2 of p -> 0
    mix = state((0.0, 0.0, 0.01), (0.0, 1.0, 0.0, 1.0))
    omega, error = dominant_frequency(*observable_series(*mix, BASIS.alpha[2], 40.0, 512))
    assert abs(omega - 2.0001) / 2.0001 < 1e-12
    assert error < 1e-12


def test_single_eigenstate_shows_no_oscillation():
    mix = state(P_UNIT, (0.0, 0.0, 0.0, 1.0))
    assert dominant_frequency(*observable_series(*mix, BASIS.alpha[2], 20.0, 512)) is None
