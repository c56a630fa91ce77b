"""Groenewold-matrix dynamics of nonlinear oscillators.

Simulates and compares four dynamical prescriptions for one-degree-of-freedom
Hamiltonians that are polynomial in the harmonic-oscillator Hamiltonian:
exact quantum evolution, first-order semiquantum evolution, classical
(Liouville) evolution, and first-order semiclassical evolution. All four act
on the same object, the Groenewold matrix of the state in the number basis,
so moments, spectra and negativity measures are directly comparable.
"""

from .errors import (
    ConfigError,
    GroenewoldLabError,
    QuadratureNotConverged,
    TailMassExceeded,
    ValidationFailed,
)

__all__ = [
    "ConfigError",
    "GroenewoldLabError",
    "QuadratureNotConverged",
    "TailMassExceeded",
    "ValidationFailed",
]

__version__ = "0.1.0"
