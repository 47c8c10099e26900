"""Branch mixtures, time evolution, and oscillation-frequency extraction."""

import numpy as np
import pytest

from negspin.clifford import dirac_representation
from negspin.dynamics import (
    Superposition,
    TrajectorySample,
    dominant_frequency,
    evolve,
    observable_series,
)
from negspin.spectral import PhysicalParams, helicity_eigenstates

PARAMS = PhysicalParams()
BASIS = dirac_representation()
P_UNIT = (0.0, 0.0, 1.0)


def make_series(times, values):
    return tuple(TrajectorySample(float(t), float(v)) for t, v in zip(times, values))


def test_from_weights_requires_four_entries():
    with pytest.raises(ValueError):
        Superposition.from_weights(P_UNIT, (1.0, 0.0), PARAMS)


def test_from_weights_rejects_all_zero():
    with pytest.raises(ValueError):
        Superposition.from_weights(P_UNIT, (0.0, 0.0, 0.0, 0.0), PARAMS)


def test_from_weights_normalizes():
    sup = Superposition.from_weights(P_UNIT, (0.0, 3.0, 0.0, 4.0), PARAMS)
    total = sum(abs(c.coefficient) ** 2 for c in sup.components)
    assert abs(total - 1.0) < 1e-12
    assert len(sup.components) == 2


def test_superposition_rejects_unnormalized_components():
    labeled = helicity_eigenstates(P_UNIT, PARAMS, "nonrel")
    from negspin.dynamics import SuperpositionComponent

    bad = SuperpositionComponent(2.0, labeled.energies[0], labeled.spinors[:, 0])
    with pytest.raises(ValueError):
        Superposition(np.asarray(P_UNIT), (bad,))


def test_distinct_energies_collapses_degenerate_pairs():
    sup = Superposition.from_weights(P_UNIT, (1.0, 1.0, 1.0, 1.0), PARAMS)
    assert sup.distinct_energies() == [-1.5, 1.5]


def test_evolve_matches_single_state_phase():
    sup = Superposition.from_weights(P_UNIT, (0.0, 0.0, 0.0, 1.0), PARAMS)
    comp = sup.components[0]
    t = 0.8
    expected = comp.coefficient * np.exp(-1j * comp.energy * t) * comp.spinor
    np.testing.assert_allclose(evolve(sup, t, PARAMS), expected, atol=1e-15)


def test_evolve_preserves_norm():
    sup = Superposition.from_weights(P_UNIT, (0.5, -1.0, 0.25, 2.0), PARAMS)
    for t in np.linspace(0.0, 12.0, 7):
        psi = evolve(sup, float(t), PARAMS)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12


def test_observable_series_grid_and_reality():
    sup = Superposition.from_weights(P_UNIT, (0.0, 1.0, 0.0, 1.0), PARAMS)
    series = observable_series(sup, BASIS.alpha[2], 8.0, 16, PARAMS)
    assert len(series) == 16
    assert series[0].t == 0.0
    # endpoint excluded: t_k = k t_max / n
    assert abs(series[-1].t - 7.5) < 1e-15
    for s in series:
        assert isinstance(s.value, float)


def test_observable_series_validation():
    sup = Superposition.from_weights(P_UNIT, (0.0, 1.0, 0.0, 1.0), PARAMS)
    with pytest.raises(ValueError):
        observable_series(sup, BASIS.alpha[2], 8.0, 8, PARAMS)
    with pytest.raises(ValueError):
        observable_series(sup, BASIS.alpha[2], 0.0, 16, PARAMS)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        observable_series(sup, skew, 8.0, 16, PARAMS)


def test_identity_observable_gives_unit_series():
    sup = Superposition.from_weights(P_UNIT, (0.5, 1.0, -0.5, 1.0), PARAMS)
    series = observable_series(sup, np.eye(4), 5.0, 16, PARAMS)
    assert max(abs(s.value - 1.0) for s in series) < 1e-12


def test_single_eigenstate_series_is_stationary_mean():
    # stationary state: series pinned at the eigenstate expectation p3/E
    sup = Superposition.from_weights(P_UNIT, (0.0, 0.0, 0.0, 1.0), PARAMS)
    series = observable_series(sup, BASIS.alpha[2], 10.0, 32, PARAMS)
    assert max(abs(s.value - 2.0 / 3.0) for s in series) < 1e-12


def test_equal_mix_time_average_over_whole_periods():
    # sampled over exactly three periods the cross term sums to zero, so the
    # mean is the weight-average of the two stationary expectations (here 0)
    sup = Superposition.from_weights(P_UNIT, (0.0, 1.0, 0.0, 1.0), PARAMS)
    t_max = 3.0 * 2.0 * np.pi / 3.0
    series = observable_series(sup, BASIS.alpha[2], t_max, 128, PARAMS)
    mean = float(np.mean([s.value for s in series]))
    assert abs(mean) < 1e-12


def test_series_matches_two_level_closed_form():
    """The sampled mean must equal the textbook two-state interference
    formula: sum of diagonal weights plus a single rotating cross term."""
    rng = np.random.default_rng(21)
    labeled = helicity_eigenstates(P_UNIT, PARAMS, "nonrel")
    (e_lo, e_hi), (psi_lo, psi_hi) = labeled.energies[[1, 3]], labeled.spinors[:, [1, 3]].T
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, 2)
        weights = (0.0, w[0], 0.0, w[1])
        if abs(w[0]) < 1e-6 or abs(w[1]) < 1e-6:
            continue
        sup = Superposition.from_weights(P_UNIT, weights, PARAMS)
        obs = BASIS.alpha[2]
        c1, c2 = (c.coefficient for c in sup.components)
        o11 = np.vdot(psi_lo, obs @ psi_lo).real
        o22 = np.vdot(psi_hi, obs @ psi_hi).real
        o12 = np.vdot(psi_lo, obs @ psi_hi)
        series = observable_series(sup, obs, 10.0, 64, PARAMS)
        for s in series:
            phase = np.exp(1j * (e_lo - e_hi) * s.t)
            want = (
                abs(c1) ** 2 * o11
                + abs(c2) ** 2 * o22
                + 2.0 * (np.conj(c1) * c2 * o12 * phase).real
            )
            assert abs(s.value - want) < 1e-12


def test_dominant_frequency_pure_cosine():
    t = np.arange(256) * (16.0 * np.pi / 3.0 / 256)
    series = make_series(t, 0.25 + 0.1 * np.cos(3.0 * t))
    omega = dominant_frequency(series)
    assert abs(omega - 3.0) / 3.0 < 1e-5


def test_dominant_frequency_small_amplitude_still_detected():
    t = np.arange(256) * (16.0 * np.pi / 3.0 / 256)
    series = make_series(t, 0.5 + 1e-9 * np.cos(3.0 * t))
    omega = dominant_frequency(series)
    assert abs(omega - 3.0) / 3.0 < 1e-3


def test_dominant_frequency_constant_returns_none():
    t = np.linspace(0.0, 10.0, 128, endpoint=False)
    assert dominant_frequency(make_series(t, np.full(128, 0.7))) is None
    # roundoff-level ripple counts as constant too
    ripple = 0.7 + 1e-15 * np.sin(2.0 * t)
    assert dominant_frequency(make_series(t, ripple)) is None


def test_dominant_frequency_input_validation():
    t = np.linspace(0.0, 10.0, 32, endpoint=False)
    with pytest.raises(ValueError):
        dominant_frequency(make_series(t, np.cos(t)))
    t = np.linspace(0.0, 10.0, 128, endpoint=False).copy()
    t[40] += 0.02
    with pytest.raises(ValueError):
        dominant_frequency(make_series(t, np.cos(t)))


def test_branch_mixture_oscillates_at_energy_gap():
    # p = (0,0,1): gap between branches is 2 (1 + 1/2) = 3
    sup = Superposition.from_weights(P_UNIT, (0.0, 1.0, 0.0, 1.0), PARAMS)
    series = observable_series(sup, BASIS.alpha[2], 20.0, 512, PARAMS)
    omega = dominant_frequency(series)
    assert abs(omega - 3.0) / 3.0 < 0.01
    # cross-check the spectral estimate by counting zero crossings
    values = np.array([s.value for s in series]) - np.mean([s.value for s in series])
    crossings = int(np.sum(np.abs(np.diff(np.sign(values))) > 1))
    omega_crossings = np.pi * crossings / 20.0
    assert abs(omega_crossings - omega) / omega < 0.05


def test_gap_approaches_twice_rest_energy_at_small_momentum():
    sup = Superposition.from_weights((0.0, 0.0, 0.01), (0.0, 1.0, 0.0, 1.0), PARAMS)
    series = observable_series(sup, BASIS.alpha[2], 40.0, 512, PARAMS)
    omega = dominant_frequency(series)
    assert abs(omega - 2.0) / 2.0 < 0.01


def test_single_eigenstate_shows_no_oscillation():
    sup = Superposition.from_weights(P_UNIT, (0.0, 0.0, 0.0, 1.0), PARAMS)
    series = observable_series(sup, BASIS.alpha[2], 20.0, 512, PARAMS)
    assert dominant_frequency(series) is None
