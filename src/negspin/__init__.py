"""Operator algebra, spectra and dynamics for a spin-1/2 wave equation
carrying a negative-energy branch.

Functions taking momenta broadcast: a momentum of shape (..., 3) gives
results stacked along the same leading shape, e.g. ``hamiltonian`` returns
(..., 4, 4).

The exported names load on first access (PEP 562), so ``import negspin``
and the command-line front load no numpy.
"""

import importlib

__version__ = "0.1.0"

# Smallest Landau truncation at which even the k = 0 level is trustworthy:
# ``fields`` enforces it and the front's truncation hint quotes it, so it
# lives where both reach it without loading numpy.
MIN_OSCILLATOR_LEVELS = 8

# exported name -> the submodule that defines it
_EXPORTS = {
    "CheckEntry": "clifford",
    "DiracBasis": "clifford",
    "dirac_representation": "clifford",
    "correspondence_check": "spectral",
    "hamiltonian": "spectral",
    "helicity_eigenstates": "spectral",
    "lorentz_transform": "spectral",
}

__all__ = sorted(["__version__", *_EXPORTS])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
