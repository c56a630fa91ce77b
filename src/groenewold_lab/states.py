"""Gaussian phase-space densities and their number-basis matrices.

The initial state is an isotropic Gaussian density on phase space,

    rho(alpha) ~ exp(-kappa |alpha - alpha0|^2),

normalized so its phase-space integral is 1. Its Groenewold matrix G (the
number-basis matrix of the operator whose Weyl transform is 2 pi hbar rho)
is assembled here diagonal by diagonal with radial quadrature:

    G[n+nu, n] = e^(i nu phi0) * 4 kappa *
        integral_0^inf s phi_n^(nu)(4 s^2) e^(-kappa (s-a0)^2)
                       ive(nu, 2 kappa s a0) ds,

where a0 = |alpha0|, phi0 = arg(alpha0), phi_n^(nu) are the orthonormal
radial Laguerre profiles and ive is the scaled Bessel function. Every
factor in the integrand is O(1), so the synthesis is overflow-safe at any
truncation used here.

Closed-form structure (used as a test oracle, recorded here as measured
behavior): G equals the displaced operator (1-z) D(alpha0) z^n D(alpha0)^+
with z = (2 - kappa)/(2 + kappa). Hence kappa = 2 gives exactly the
coherent projector (eigenvalues {1, 0, ...}), kappa < 2 gives a positive
thermal-like operator, and kappa > 2 gives z < 0 with negative eigenvalues
already at t = 0: kappa = 2 is the exact positivity threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, ceil, pi, sqrt

import numpy as np

from .errors import ConfigError, QuadratureNotConverged, TailMassExceeded
from .mathkit import _SERIES_MAX_X, bessel_i_scaled, composite_gauss_legendre_rule, radial_profiles

__all__ = [
    "GaussianState",
    "check_bessel_domain",
    "groenewold_from_gaussian",
    "tail_mass",
]

TAIL_ROWS = 4


@dataclass(frozen=True)
class GaussianState:
    """Isotropic Gaussian density: width parameter kappa, center alpha0."""

    kappa: float
    alpha0: complex

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigError("state.kappa must be positive and finite")
        if not np.isfinite(complex(self.alpha0)):
            raise ConfigError("state.alpha0 must be finite")

    @classmethod
    def from_gamma(cls, gamma: float, q0: float, p0: float, model) -> "GaussianState":
        """Position-momentum parametrization.

        gamma is the energy width of the Gaussian in the oscillator energy
        shell; kappa = hbar omega / gamma^2 and alpha0 is the phase-space
        image of (q0, p0).
        """
        if not (np.isfinite(gamma) and gamma > 0):
            raise ConfigError("state.gamma must be positive and finite")
        kappa = model.hbar * model.omega / gamma**2
        alpha0 = (
            sqrt(model.m * model.omega) * q0 + 1j * p0 / sqrt(model.m * model.omega)
        ) / sqrt(2 * model.hbar)
        return cls(kappa=kappa, alpha0=alpha0)

    def mean_occupation(self) -> float:
        """<|alpha|^2> = |alpha0|^2 + 1/kappa, a constant of all the motions."""
        return abs(self.alpha0) ** 2 + 1.0 / self.kappa


def tail_mass(g: np.ndarray, rows: int = TAIL_ROWS) -> float:
    """Occupation of the last `rows` number states (edge of the basis)."""
    d = np.abs(np.diagonal(g))
    return float(d[-rows:].sum())


def check_bessel_domain(what: str, state: GaussianState, r_max: float) -> None:
    """Raise QuadratureNotConverged if ive(nu, 2 kappa r |alpha0|) on [0, r_max]
    leaves the series domain of bessel_i_scaled.

    The state synthesis and the continuum moment oracle both integrate
    this kernel over a radial rule.
    """
    a0 = abs(complex(state.alpha0))
    top = 2.0 * state.kappa * r_max * a0
    if top > _SERIES_MAX_X:
        raise QuadratureNotConverged(
            f"{what} needs the scaled Bessel kernel at 2 kappa r |alpha0| = "
            f"{top:.4g} (kappa = {state.kappa:.6g}, |alpha0| = {a0:.6g}), above its "
            f"series domain limit {_SERIES_MAX_X:g}; lower kappa or |alpha0|"
        )


def _synthesis_rule(state: GaussianState, n_basis: int, refine: int = 1):
    a0 = abs(state.alpha0)
    smax = a0 + 10.0 / sqrt(state.kappa)
    # radial oscillation wavenumber of the highest profile, uniform in s
    k_s = 4.0 * sqrt(1.5 * n_basis + 1.0)
    h = min(0.2, pi / k_s)
    panels = max(8, ceil(smax / h)) * refine
    return composite_gauss_legendre_rule(0.0, smax, panels, 10)


def _synthesize(state: GaussianState, n_basis: int, rule) -> np.ndarray:
    a0 = abs(state.alpha0)
    phi0 = atan2(state.alpha0.imag, state.alpha0.real) if a0 > 0 else 0.0
    kappa = state.kappa
    s = rule.nodes
    check_bessel_domain("state synthesis", state, float(s.max()))
    x = 4.0 * s * s
    base = rule.weights * s * np.exp(-kappa * (s - a0) ** 2)
    g = np.zeros((n_basis, n_basis), dtype=complex)
    quiet = 0
    for nu in range(n_basis):
        rows = radial_profiles(n_basis - 1 - nu, nu, x)
        bess = bessel_i_scaled(nu, 2.0 * kappa * s * a0)
        col = 4.0 * kappa * (rows @ (base * bess))
        peak = float(np.abs(col).max())
        phase = np.exp(1j * nu * phi0)
        idx = np.arange(n_basis - nu)
        g[idx + nu, idx] = phase * col
        if nu > 0:
            g[idx, idx + nu] = np.conj(phase * col)
        quiet = quiet + 1 if peak < 1e-17 else 0
        if quiet >= 2:
            break
    return g


def groenewold_from_gaussian(
    state: GaussianState,
    n_basis: int,
    tail_tol: float = 1e-10,
) -> np.ndarray:
    """Number-basis matrix of the state's Groenewold operator.

    A plain ndarray, exactly Hermitian by construction (each upper
    diagonal is the conjugate of its lower one) with trace 1 to
    quadrature accuracy; the refined radial rule's result is returned.
    Raises TailMassExceeded when the occupation of the last few basis
    states is above tail_tol, and QuadratureNotConverged when refining the
    radial rule still moves the result or when kappa and |alpha0| put the
    Bessel kernel's argument outside its domain.
    """
    if n_basis < TAIL_ROWS + 2:
        raise ConfigError(f"n_basis must be at least {TAIL_ROWS + 2}")
    coarse = _synthesize(state, n_basis, _synthesis_rule(state, n_basis, refine=1))
    g = _synthesize(state, n_basis, _synthesis_rule(state, n_basis, refine=2))
    drift = float(np.abs(coarse - g).max())
    if drift > 1e-11:
        raise QuadratureNotConverged(
            f"state synthesis drift {drift:.3e} on refinement (> 1e-11)"
        )
    mass = tail_mass(g)
    if mass > tail_tol:
        raise TailMassExceeded(
            f"tail occupation {mass:.3e} exceeds tail_tol {tail_tol:.1e}; "
            f"increase the basis size"
        )
    return g
