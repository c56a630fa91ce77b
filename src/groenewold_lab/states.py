"""Gaussian phase-space densities and their number-basis matrices as sector rows.

The initial state is an isotropic Gaussian density on phase space,

    rho(alpha) ~ exp(-kappa |alpha - alpha0|^2),

normalized so its phase-space integral is 1. Its Groenewold matrix G (the
number-basis matrix of the operator whose Weyl transform is 2 pi hbar rho)
is the displaced thermal operator

    G = (1 - z) D(alpha0) z^n D(alpha0)^+,    z = (2 - kappa)/(2 + kappa),

whose entries are Laguerre polynomials (Cahill & Glauber, Phys. Rev. 177,
1857 (1969)). With a0 = |alpha0|, phi0 = arg(alpha0), w = (1 - z) a0^2
and c = (1 - z) w, diagonal nu of G is

    G[n+nu, n] = e^(i nu phi0) (1 - z) e^(-w) (a0 (1 - z))^nu / sqrt(nu!) * r_n,

    r_0 = 1,  r_1 = (z (1 + nu) + c) / sqrt(1 + nu),
    r_(n+1) = ((z (2n + 1 + nu) + c) r_n - z^2 sqrt(n (n + nu)) r_(n-1))
              / sqrt((n + 1)(n + 1 + nu)),

a recurrence with no division by z, so it holds at kappa = 2 (z = 0, the
coherent projector, eigenvalues {1, 0, ...}) and for kappa > 2 (z < 0,
negative eigenvalues already at t = 0: kappa = 2 is the exact positivity
threshold). For kappa < 2 the operator is positive and thermal-like. The
sector scale is carried in log space, and r_n itself, which peaks near
e^w / sqrt(2 pi w), is scaled by 2^-600 (exact) together with r_(n-1)
whenever it passes 2^600; an entry scaled c times takes the factor
exp(log scale + 600 c ln 2), so w has no limit below the float range of
its inputs, and an entry that is never scaled keeps every bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, exp, inf, lgamma, log, nan, sqrt

import numpy as np

from .errors import ConfigError, QuadratureNotConverged, TailMassExceeded

__all__ = [
    "GaussianState",
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
        image of (q0, p0). ConfigError when gamma^2 or kappa leaves the
        float range.
        """
        if not (np.isfinite(gamma) and gamma > 0):
            raise ConfigError("state.gamma must be positive and finite")
        try:  # gamma**2 overflows or underflows to 0
            kappa = model.hbar * model.omega / gamma**2
        except (OverflowError, ZeroDivisionError):
            kappa = nan
        if not 0.0 < kappa < inf:
            raise ConfigError(
                f"state.gamma = {gamma:.3g} puts kappa = hbar omega / gamma^2 "
                f"outside the float range"
            )
        alpha0 = (
            sqrt(model.m * model.omega) * q0 + 1j * p0 / sqrt(model.m * model.omega)
        ) / sqrt(2 * model.hbar)
        return cls(kappa=kappa, alpha0=alpha0)


def tail_mass(g: list, levels: int = TAIL_ROWS) -> float:
    """Occupation of the last `levels` number states, from sector 0 of the rows g."""
    return float(np.abs(g[0][-levels:]).sum())


def groenewold_from_gaussian(
    state: GaussianState,
    n_basis: int,
    tail_tol: float = 1e-10,
) -> list:
    """The state's Groenewold matrix G as sector rows, in closed form.

    rows[nu][k] = G[k + nu, k] for nu = 0 .. top, sector 0 real; sector
    -nu is the conjugate of sector nu, and no N x N array is built. The
    fill stops after two sectors in a row whose entries all lie below
    1e-17, and trailing exact-zero sectors are dropped, so top is the
    highest sector with a nonzero entry (0 for a centred state). Raises
    TailMassExceeded when the occupation of the last few basis states is
    not within tail_tol or when kappa is so small that z rounds to 1, and
    QuadratureNotConverged when an entry is not finite, which the rescaled
    recurrence leaves only to inputs that are themselves near the float
    range (|alpha0| past it included).
    """
    if n_basis < TAIL_ROWS + 2:
        raise ConfigError(f"n_basis must be at least {TAIL_ROWS + 2}")
    z = (2.0 - state.kappa) / (2.0 + state.kappa)
    if z == 1.0:
        raise TailMassExceeded(
            f"kappa = {state.kappa:.6g} rounds z = (2 - kappa)/(2 + kappa) to 1; raise kappa"
        )
    try:
        a0 = abs(state.alpha0)
    except OverflowError:  # finite parts whose modulus is not: the check below reports it
        a0 = inf
    phi0 = atan2(state.alpha0.imag, state.alpha0.real) if a0 > 0 else 0.0
    w = (1.0 - z) * a0 * a0
    c = (1.0 - z) * w
    rows = []
    quiet = 0
    for nu in range(n_basis):
        # r_n = sqrt(n! nu! / (n+nu)!) z^n L_n^(nu)(-c/z), with r_-1 = 0;
        # each coefficient is divided before it multiplies, and r[n] holds
        # r_n 2^(-600 k), k being the number of rescales at or before n
        r = np.empty(n_basis - nu)
        prev, cur = 0.0, 1.0
        r[0] = cur
        rescales = []
        for n in range(n_basis - nu - 1):
            d = sqrt((n + 1) * (n + 1 + nu))
            prev, cur = cur, (
                (z * (2 * n + 1 + nu) + c) / d * cur - z * z * sqrt(n * (n + nu)) / d * prev
            )
            if abs(cur) > 2.0**600:
                prev *= 2.0**-600
                cur *= 2.0**-600
                rescales.append(n + 1)
            r[n + 1] = cur
        if not np.isfinite(r).all():
            raise QuadratureNotConverged(
                f"state synthesis is not finite in sector nu = {nu}: (1 - z)|alpha0|^2 = "
                f"{w:.4g} (kappa = {state.kappa:.6g}, |alpha0| = {a0:.6g}); lower kappa "
                f"or |alpha0|"
            )
        # (1 - z) e^(-w) |alpha0 (1 - z)|^nu / sqrt(nu!)
        log_scale = log(1.0 - z) - w - 0.5 * lgamma(nu + 1.0)
        if nu:
            log_scale += nu * log(a0 * (1.0 - z)) if a0 > 0 else -inf
        # log_scale + 0.0 keeps the bits of an unscaled entry's factor
        factors = np.array([exp(log_scale + k * 600 * log(2.0)) for k in range(len(rescales) + 1)])
        col = factors[np.searchsorted(rescales, np.arange(r.size), "right")] * r
        peak = float(np.abs(col).max())
        rows.append(np.exp(1j * nu * phi0) * col if nu else col)
        quiet = quiet + 1 if peak < 1e-17 else 0
        if quiet >= 2:
            break
    while len(rows) > 1 and not np.any(rows[-1]):
        rows.pop()
    mass = tail_mass(rows)
    if not mass <= tail_tol:
        raise TailMassExceeded(
            f"tail occupation {mass:.3e} exceeds tail_tol {tail_tol:.1e}; "
            f"increase the basis size"
        )
    return rows
