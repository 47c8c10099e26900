"""Time evolution of eigenstate superpositions and oscillation detection.

A superposition of energy eigenstates at a shared momentum evolves by pure
phases, so any observable expectation is a trigonometric polynomial in t
whose frequencies are energy differences.  The nonrel Hamiltonian has one
energy per branch, so a mixture of the two branches gives a constant plus
one cosine at E_plus - E_minus, which ``dominant_frequency`` fits with its
standard error, and a single branch gives a constant.  Natural units as in
``spectral``: times in hbar/(m0 c^2), angular frequencies in m0 c^2/hbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import expect, residual_norm, stack_blocks
from .spectral import helicity_eigenstates

__all__ = [
    "Superposition",
    "dominant_frequency",
    "evolve",
    "observable_series",
]

NORMALIZATION_TOL = 1e-12
CONSTANT_AMPLITUDE_TOL = 1e-12
MIN_SAMPLES = 16


@dataclass(frozen=True, eq=False)
class Superposition:
    """Weighted eigenstates of one Hamiltonian at one shared momentum.

    Component ``i`` has coefficient ``coefficients[i]``, energy
    ``energies[i]`` and unit-norm eigenvector ``spinors[:, i]`` (shape
    (4, k)); the coefficients satisfy sum |c_i|^2 = 1 within 1e-12.
    """

    coefficients: np.ndarray
    energies: np.ndarray
    spinors: np.ndarray

    def __post_init__(self):
        norms = np.linalg.norm(self.spinors, axis=0)
        total = float(np.sum(np.abs(self.coefficients) ** 2 * norms**2))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"superposition norm is {total!r}, expected 1")

    @classmethod
    def from_weights(cls, p, weights) -> "Superposition":
        """Weights index the four columns of the nonrel ``helicity_eigenstates``,
        ordered by (branch, helicity)."""
        if np.shape(p) != (3,):
            raise ValueError(f"a superposition has one momentum 3-vector, got shape {np.shape(p)}")
        w = np.ascontiguousarray(weights, dtype=np.complex128)
        if w.shape != (4,):
            raise ValueError(f"need exactly 4 weights, got shape {w.shape}")
        kept = w != 0.0
        if not np.any(kept):
            raise ValueError("at least one weight must be nonzero")
        # divide out the power of two of the largest weight first: exact, so
        # ordinary weights keep every bit, and tiny ones no longer underflow
        _, exponent = np.frexp(np.max(np.abs(w)))
        w = np.ldexp(w.view(float), -exponent).view(np.complex128)
        scale = np.linalg.norm(w)
        states = helicity_eigenstates(p, "nonrel")
        return cls(
            coefficients=w[kept] / scale,
            energies=states.eigenvalues[kept],
            spinors=states.eigenvectors[:, kept],
        )


def evolve(sup: Superposition, t) -> np.ndarray:
    """Phase evolution: sum of c_i psi_i exp(-i E_i t).

    ``t`` may be an array of times; the states come back stacked, (..., 4).
    """
    t = np.asarray(t, dtype=float)[..., None]
    return sum(
        c * psi * np.exp(-1j * e * t)
        for c, e, psi in zip(sup.coefficients, sup.energies, sup.spinors.T)
    )


def observable_series(
    sup: Superposition,
    observable: np.ndarray,
    t_max: float,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Expectation of a Hermitian observable at uniform times, as (times, values).

    Samples sit at t_k = k t_max / n_samples, k = 0..n_samples-1 (endpoint
    excluded), so an integer number of oscillation periods averages exactly.
    The expectation of a Hermitian operator is real; imaginary leakage beyond
    1e-12 would mean a broken observable and raises (see ``expect``).

    The states are evolved and measured in blocks of times (``stack_blocks``),
    so beyond the two returned arrays (16 bytes a sample) the series takes the
    same memory at any ``n_samples``; each value equals, bit for bit, that
    of one stacked ``expect(evolve(sup, times), observable)``.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    observable = np.asarray(observable, dtype=np.complex128)
    if residual_norm(observable, observable.conj().T) > 1e-12:
        raise ValueError("observable must be Hermitian")
    times = np.arange(n_samples) * (t_max / n_samples)
    return times, stack_blocks(times, lambda t: expect(evolve(sup, t), observable),
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
