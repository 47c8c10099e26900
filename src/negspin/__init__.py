"""Operator algebra, spectra and dynamics for a spin-1/2 wave equation
carrying a negative-energy branch.

Each name is imported from the module that defines it: the operator basis
and checks from ``negspin.clifford``, the eigensolver from
``negspin.matrix_core``, the Coulomb grid's tridiagonal solver from
``negspin.tridiagonal``, free Hamiltonians, eigenstates and boosts from
``negspin.spectral``, fields from ``negspin.fields`` and time evolution
from ``negspin.dynamics``; ``negspin.cli`` is the command line.  The
package itself binds only the two constants below, so ``import negspin``
loads no numpy.

Functions taking momenta broadcast: a momentum of shape (..., 3) gives
results stacked along the same leading shape, e.g. ``hamiltonian`` returns
(..., 4, 4).
"""

__version__ = "0.1.0"

# Smallest Landau truncation at which even the k = 0 level is trustworthy:
# ``fields`` enforces it and the front's truncation hint quotes it, so it
# lives where both reach it without loading numpy.
MIN_OSCILLATOR_LEVELS = 8
