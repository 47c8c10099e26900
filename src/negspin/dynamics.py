"""Time evolution of eigenstate superpositions and oscillation detection.

A superposition of energy eigenstates at a shared momentum evolves by pure
phases, so any observable expectation is a trigonometric polynomial in t
whose frequencies are energy differences over hbar.  Mixing the positive and
the negative branch produces the interference oscillation at
(E_plus - E_minus)/hbar; a single eigenstate produces none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import expect, residual_norm
from .spectral import PhysicalParams, helicity_eigenstates

__all__ = [
    "Superposition",
    "TrajectorySample",
    "dominant_frequency",
    "evolve",
    "observable_series",
]

NORMALIZATION_TOL = 1e-12
# A spectral peak must top the median magnitude by this factor to count.
DETECTION_FLOOR_FACTOR = 10.0
CONSTANT_AMPLITUDE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SuperpositionComponent:
    coefficient: complex
    energy: float
    spinor: np.ndarray


@dataclass(frozen=True, eq=False)
class Superposition:
    """Weighted eigenstates of one Hamiltonian at one shared momentum.

    Spinors are unit-norm eigenvectors; coefficients satisfy
    sum |c_i|^2 = 1 within 1e-12.
    """

    momentum: np.ndarray
    components: tuple[SuperpositionComponent, ...]

    def __post_init__(self):
        total = sum(
            abs(c.coefficient) ** 2 * float(np.linalg.norm(c.spinor)) ** 2
            for c in self.components
        )
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"superposition norm is {total!r}, expected 1")

    @classmethod
    def from_weights(
        cls,
        p,
        weights,
        params: PhysicalParams = PhysicalParams(),
        which: str = "nonrel",
    ) -> "Superposition":
        """Weights index the four labeled eigenstates sorted by (energy, label)."""
        if np.shape(p) != (3,):
            raise ValueError(f"a superposition has one momentum 3-vector, got shape {np.shape(p)}")
        w = np.asarray(weights, dtype=np.complex128)
        if w.shape != (4,):
            raise ValueError(f"need exactly 4 weights, got shape {w.shape}")
        scale = np.linalg.norm(w)
        if scale == 0.0:
            raise ValueError("at least one weight must be nonzero")
        labeled = helicity_eigenstates(p, params, which)
        components = tuple(
            SuperpositionComponent(
                coefficient=complex(wi / scale),
                energy=labeled.energies[j],
                spinor=labeled.spinors[:, j],
            )
            for j, wi in enumerate(w)
            if wi != 0.0
        )
        return cls(momentum=np.asarray(p, dtype=float), components=components)

    def distinct_energies(self, tol: float = 1e-12) -> list[float]:
        found: list[float] = []
        for c in self.components:
            if not any(abs(c.energy - e) <= tol for e in found):
                found.append(c.energy)
        return sorted(found)


def evolve(sup: Superposition, t, params: PhysicalParams = PhysicalParams()) -> np.ndarray:
    """Phase evolution: sum of c_i psi_i exp(-i E_i t / hbar).

    ``t`` may be an array of times; the states come back stacked, (..., 4).
    """
    t = np.asarray(t, dtype=float)[..., None]
    return sum(
        c.coefficient * c.spinor * np.exp(-1j * c.energy * t / params.hbar)
        for c in sup.components
    )


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    value: float


def observable_series(
    sup: Superposition,
    observable: np.ndarray,
    t_max: float,
    n_samples: int,
    params: PhysicalParams = PhysicalParams(),
) -> list[TrajectorySample]:
    """Expectation of a Hermitian observable at uniform times.

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
    values = expect(evolve(sup, times, params), observable)
    return [TrajectorySample(t=t, value=v) for t, v in zip(times.tolist(), values.tolist())]


def dominant_frequency(series: list[TrajectorySample]) -> float | None:
    """Angular frequency of the strongest oscillation, or None if there is none.

    The detrended series is Hann-windowed, the magnitude spectrum's largest
    nonzero-frequency peak is refined by quadratic interpolation of the log
    magnitude, and a peak is accepted only above 10x the median spectral
    magnitude.  Callers are expected to span at least 4 periods with at
    least 64 uniform samples.
    """
    if len(series) < 64:
        raise ValueError("need at least 64 samples")
    t = np.array([s.t for s in series])
    x = np.array([s.value for s in series])
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
    floor = float(np.median(magnitudes[1:]))
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
