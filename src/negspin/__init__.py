"""Operator algebra, spectra and dynamics for a spin-1/2 wave equation
carrying a negative-energy branch.

Functions taking momenta broadcast: a momentum of shape (..., 3) gives
results stacked along the same leading shape, e.g. ``hamiltonian`` returns
(..., 4, 4).
"""

__version__ = "0.1.0"

from .clifford import CheckEntry, CheckReport, DiracBasis, dirac_representation
from .spectral import (
    PhysicalParams,
    correspondence_check,
    expectation_report,
    free_spectrum,
    hamiltonian,
    helicity_eigenstates,
    lorentz_transform,
)

__all__ = [
    "CheckEntry",
    "CheckReport",
    "DiracBasis",
    "PhysicalParams",
    "__version__",
    "correspondence_check",
    "dirac_representation",
    "expectation_report",
    "free_spectrum",
    "hamiltonian",
    "helicity_eigenstates",
    "lorentz_transform",
]
