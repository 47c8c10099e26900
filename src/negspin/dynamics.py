"""Time evolution of eigenstate superpositions and oscillation detection.

A state is the ``EigenDecomposition`` of one Hamiltonian at one momentum
(``helicity_eigenstates``) plus one weight per eigenvector column, scaled
to unit norm by ``unit_weights``.  It evolves by pure phases, so any
observable expectation is a trigonometric polynomial in t whose
frequencies are energy differences.  The nonrel Hamiltonian has one
energy per branch, so a mixture of the two branches gives a constant plus
one cosine at E_plus - E_minus, which ``dominant_frequency`` fits with its
standard error, and a single branch gives a constant.  Natural units as in
``spectral``: times in hbar/(m0 c^2), angular frequencies in m0 c^2/hbar.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import EigenDecomposition, expect, residual_norm, stack_blocks

NORMALIZATION_TOL = 1e-12
CONSTANT_AMPLITUDE_TOL = 1e-12
MIN_SAMPLES = 16


def unit_weights(weights) -> np.ndarray:
    """Four weights, one per column of the nonrel ``helicity_eigenstates``
    (ordered by (branch, helicity)), scaled to unit norm."""
    w = np.ascontiguousarray(weights, dtype=np.complex128)
    if w.shape != (4,):
        raise ValueError(f"need exactly 4 weights, got shape {w.shape}")
    if not np.any(w != 0.0):
        raise ValueError("at least one weight must be nonzero")
    # divide out the power of two of the largest weight first: exact, so
    # ordinary weights keep every bit, and tiny ones no longer underflow
    _, exponent = np.frexp(np.max(np.abs(w)))
    w = np.ldexp(w.view(float), -exponent).view(np.complex128)
    return w / np.linalg.norm(w)


def evolve(states: EigenDecomposition, weights: np.ndarray, t) -> np.ndarray:
    """Phase evolution: sum of w_i psi_i exp(-i E_i t) over the nonzero weights.

    ``states`` is one momentum's decomposition, ``psi_i`` its column i.
    ``t`` may be an array of times; the states come back stacked, (..., 4).
    """
    t = np.asarray(t, dtype=float)[..., None]
    return sum(
        weights[i] * states.eigenvectors[:, i] * np.exp(-1j * states.eigenvalues[i] * t)
        for i in np.flatnonzero(weights)
    )


def observable_series(
    states: EigenDecomposition,
    weights: np.ndarray,
    observable: np.ndarray,
    t_max: float,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Expectation of a Hermitian observable at uniform times, as (times, values).

    Samples sit at t_k = k t_max / n_samples, k = 0..n_samples-1 (endpoint
    excluded), so an integer number of oscillation periods averages exactly.
    The state is ``states``, the decomposition at one momentum, weighted by
    ``weights`` of unit norm (``unit_weights``); a stacked decomposition or
    weights whose norm misses 1 by more than 1e-12 raise ValueError.
    The expectation of a Hermitian operator is real; imaginary leakage beyond
    1e-12 would mean a broken observable and raises (see ``expect``).

    The states are evolved and measured in blocks of times (``stack_blocks``),
    so beyond the two returned arrays (16 bytes a sample) the series takes the
    same memory at any ``n_samples``; each value equals, bit for bit, that
    of one stacked ``expect(evolve(states, weights, times), observable)``.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    if states.eigenvectors.shape != (4, 4):
        raise ValueError(f"a series evolves one momentum's eigenstates, got eigenvectors of "
                         f"shape {states.eigenvectors.shape}")
    total = float(np.sum(np.abs(weights * np.linalg.norm(states.eigenvectors, axis=0)) ** 2))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"state norm is {total!r}, expected 1")
    observable = np.asarray(observable, dtype=np.complex128)
    if residual_norm(observable, observable.conj().T) > 1e-12:
        raise ValueError("observable must be Hermitian")
    times = np.arange(n_samples) * (t_max / n_samples)
    return times, stack_blocks(times, lambda t: expect(evolve(states, weights, t), observable),
                               np.empty(n_samples))


def dominant_frequency(times, values) -> tuple[float, float] | None:
    """(omega, relative standard error) of a sampled constant plus one cosine, or None if flat.

    At a uniform step dt the differences d_k of x_k = m + A cos(omega t_k + phi)
    obey d_{k+1} + d_{k-1} = 2 cos(omega dt) d_k (one-mode Prony).  Its
    least-squares coefficient c over the series gives omega in [0, pi / dt],
    so omega dt >= pi aliases.  Its residuals r_k over the m rows give the
    standard error s_c = sqrt(sum r^2 / (m - 1) / (4 sum d_k^2)), and the
    error is s_c / (omega dt sin(omega dt)), infinite where c +- s_c reaches
    +-1: omega dt = 0 or pi within one standard error.  A series within 1e-12
    of its mean is flat.  One that is not flat, but whose fitted differences
    d_1..d_(n-3) are all zero, changes only at its ends; no cosine fits it,
    and it raises ValueError.
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
        raise ValueError(f"times and values must be matching 1-d arrays, got {t.shape} and {x.shape}")
    if len(t) < 5:
        raise ValueError("the fit and its standard error need at least 5 samples")
    dt = float(t[1] - t[0])
    if dt <= 0.0 or np.max(np.abs(np.diff(t) - dt)) > 1e-9 * max(abs(t[-1]), 1.0):
        raise ValueError("samples must be uniformly spaced in time")
    if np.max(np.abs(x - x.mean())) <= CONSTANT_AMPLITUDE_TOL * max(1.0, float(np.max(np.abs(x)))):
        return None
    d = np.diff(x)
    middle, outer = d[1:-1], d[:-2] + d[2:]
    scale = middle @ middle
    if scale == 0.0:
        raise ValueError("the series changes only at its ends: its fitted differences are all "
                         "zero, so no constant plus one cosine fits it")
    cosine = float(np.clip((middle @ outer) / (2.0 * scale), -1.0, 1.0))
    spread = np.linalg.norm(outer - 2.0 * cosine * middle) / np.sqrt(4.0 * scale * (len(middle) - 1))
    step = float(np.arccos(cosine))
    if abs(cosine) + spread >= 1.0:
        return step / dt, np.inf
    return step / dt, float(spread / (step * np.sqrt((1.0 - cosine) * (1.0 + cosine))))
