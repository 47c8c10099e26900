"""Time evolution of eigenstate superpositions and oscillation detection.

A superposition of energy eigenstates at a shared momentum evolves by pure
phases, so any observable expectation is a trigonometric polynomial in t
whose frequencies are energy differences.  Mixing the positive and the
negative branch produces the interference oscillation at E_plus - E_minus;
a single eigenstate produces none.  Natural units as in ``spectral``: times
are in hbar/(m0 c^2) and angular frequencies in m0 c^2/hbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import expect, residual_norm
from .spectral import helicity_eigenstates

__all__ = [
    "Superposition",
    "dominant_frequency",
    "evolve",
    "observable_series",
]

NORMALIZATION_TOL = 1e-12
# Relative gap below which two component energies count as one level: the
# members of a degenerate pair differ by a few ulp of |E|.
DEGENERACY_RTOL = 1e-12
# A spectral peak must top the median magnitude by this factor to count.
DETECTION_FLOOR_FACTOR = 10.0
CONSTANT_AMPLITUDE_TOL = 1e-12


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
    def from_weights(cls, p, weights, which: str = "nonrel") -> "Superposition":
        """Weights index the four columns of ``helicity_eigenstates``, ordered
        by (branch, helicity)."""
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
        states = helicity_eigenstates(p, which)
        return cls(
            coefficients=w[kept] / scale,
            energies=states.eigenvalues[kept],
            spinors=states.eigenvectors[:, kept],
        )

    def distinct_energies(self) -> np.ndarray:
        """The component energies, ascending, with those within a relative
        1e-12 of one another merged."""
        found: list[float] = []
        for e in self.energies.tolist():
            if not any(abs(e - f) <= DEGENERACY_RTOL * max(abs(e), abs(f)) for f in found):
                found.append(e)
        return np.sort(found)


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
    """
    if n_samples < 16:
        raise ValueError("n_samples must be at least 16")
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    observable = np.asarray(observable, dtype=np.complex128)
    if residual_norm(observable, observable.conj().T) > 1e-12:
        raise ValueError("observable must be Hermitian")
    times = np.arange(n_samples) * (t_max / n_samples)
    return times, expect(evolve(sup, times), observable)


def _median(x: np.ndarray) -> float:
    """``np.median(x)`` of a 1-d array, from a partition: np.median imports
    numpy.ma on its first call, a cost a cold run would pay for one value."""
    half = len(x) // 2
    if len(x) % 2:
        return float(np.partition(x, half)[half])
    part = np.partition(x, (half - 1, half))
    return float((part[half - 1] + part[half]) / 2.0)


def dominant_frequency(times, values) -> float | None:
    """Angular frequency of the strongest oscillation, or None if there is none.

    The detrended series is Hann-windowed, the magnitude spectrum's largest
    nonzero-frequency peak is refined by quadratic interpolation of the log
    magnitude, and a peak is accepted only above 10x the median spectral
    magnitude.  Callers are expected to span at least 4 periods with at
    least 64 uniform samples.
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
        raise ValueError(f"times and values must be matching 1-d arrays, got {t.shape} and {x.shape}")
    if len(t) < 64:
        raise ValueError("need at least 64 samples")
    dt = t[1] - t[0]
    if dt <= 0.0 or np.max(np.abs(np.diff(t) - dt)) > 1e-9 * max(abs(t[-1]), 1.0):
        raise ValueError("samples must be uniformly spaced in time")
    n = len(x)
    detrended = x - x.mean()
    # roundoff jitter on a flat series survives the spectral floor test, so
    # gate on amplitude relative to the signal level first
    if np.max(np.abs(detrended)) <= CONSTANT_AMPLITUDE_TOL * max(1.0, float(np.max(np.abs(x)))):
        return None
    windowed = detrended * np.hanning(n)
    magnitudes = np.abs(np.fft.rfft(windowed))
    if len(magnitudes) < 3:
        return None
    peak = 1 + int(np.argmax(magnitudes[1:]))
    floor = _median(magnitudes[1:])
    if magnitudes[peak] <= DETECTION_FLOOR_FACTOR * floor:
        return None
    # quadratic refinement on log magnitude around the peak bin
    delta = 0.0
    if 1 <= peak < len(magnitudes) - 1:
        left, mid, right = magnitudes[peak - 1], magnitudes[peak], magnitudes[peak + 1]
        if left > 0.0 and right > 0.0:
            la, lb, lc = np.log(left), np.log(mid), np.log(right)
            denom = la - 2.0 * lb + lc
            if denom != 0.0:
                delta = float(np.clip(0.5 * (la - lc) / denom, -0.5, 0.5))
    return 2.0 * np.pi * (peak + delta) / (n * dt)
