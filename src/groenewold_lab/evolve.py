"""Time evolution of a Hermitian matrix, given as its sector rows, under the four flows.

The state is g0[nu][k] = G[k + nu, k] for nu = 0 .. top, as
states.groenewold_from_gaussian returns it. Each sector evolves
independently: dg/dt = L g with L from the generators module. G is
Hermitian and L_{-nu} = conj(L_nu), so only the sectors nu >= 0 are
propagated and sector -nu is read as their conjugate. A BlockPropagator
factors L once and reuses the factorization for every requested time.
Every flow is linear and acts on one sector at a time, so a sector that
starts empty stays an exact zero: evolve builds, factors, propagates and
stores only the sectors 0 .. top, one at a time, each factored before
the next is built. Nothing on this path is kept between calls: evolve
looks up all_generator_blocks afresh, and the generators are rebuilt and
factored again on every call. The routes are:

- "diagonal"        a 1-D generator (a sector with no correction: every
                    quantum sector and the frozen nu = 0 sector); the
                    stored phases are that diagonal itself, no eigensolve,
- "unitary"         i L is Hermitian to float precision, so exp(t L) is
                    unitary and comes from one Hermitian eigensolve,
- "diagonalizable"  general eigensolve, accepted when the eigenvector
                    basis V has Frobenius condition number
                    ||V||_F ||V^-1||_F below 1e8.

That product, formed from the V^-1 the route keeps anyway, bounds the
2-norm condition number from above, so the gate is at least as strict
as one on it and needs no SVD. A basis that fails it, or that inv finds
singular (condition number inf), raises ValidationFailed naming the
sector and the number (the CLI exits 2); none of the four flows comes
near the limit. Only factored sectors are checked: an empty sector's
answer is zero whatever its generator. Each route forms all requested
times in one array product, and requests at t = 0 return the initial
vector bit-exactly on every route.

The module also carries a continuum reference that never touches the
number basis: classical_moment_quadrature integrates <alpha^m> under the
Liouville flow of the Gaussian density by a radial Bessel quadrature, an
independent oracle for the matrix route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, QuadratureNotConverged, ValidationFailed
from .generators import all_generator_blocks
from .mathkit import _SERIES_MAX_X, bessel_i_scaled, composite_gauss_legendre_rule
from .model import ModelSpec
from .states import GaussianState

__all__ = [
    "BlockPropagator",
    "Trajectory",
    "check_bessel_domain",
    "classical_moment_quadrature",
    "evolve",
]

_HERMITIAN_TOL = 1e-12
_CONDITION_LIMIT = 1e8


class BlockPropagator:
    """Factored exp(t L) for one sector generator; routes and gate as in the module."""

    def __init__(self, L: np.ndarray):
        L = np.asarray(L, dtype=complex)
        if L.ndim not in (1, 2) or L.size == 0 or L.shape != (len(L),) * L.ndim:
            raise ConfigError("sector generator must be a non-empty diagonal or square matrix")
        self.size = len(L)
        if L.ndim == 1:
            self.route = "diagonal"
            self._d = L.copy()
            return
        scale = float(np.abs(L).max())
        a = 1j * L
        if float(np.abs(a - a.conj().T).max()) <= _HERMITIAN_TOL * max(1.0, scale):
            h = 0.5 * (a + a.conj().T)
            if float(np.abs(h.imag).max()) == 0.0:
                h = h.real  # real symmetric input takes the faster LAPACK path
            w, v = np.linalg.eigh(h)
            self.route = "unitary"
            self._w = w
            self._v = v
            return
        w, v = np.linalg.eig(L)
        try:
            vinv = np.linalg.inv(v)
            with np.errstate(over="ignore"):  # a Jordan block's basis overflows to inf
                cond = float(np.linalg.norm(v) * np.linalg.norm(vinv))
        except np.linalg.LinAlgError:  # exactly singular basis
            cond = np.inf
        if not cond < _CONDITION_LIMIT:
            raise ValidationFailed(
                f"generator eigenvectors have Frobenius condition number {cond:.3e}, "
                f"above the limit {_CONDITION_LIMIT:.0e}"
            )
        self.route = "diagonalizable"
        self._w = w
        self._v = v
        self._vinv = vinv

    def trajectory(self, g0: np.ndarray, times) -> np.ndarray:
        """Rows exp(t L) g0 for each requested time (sorted, finite)."""
        times = _check_times(times)
        g0 = np.asarray(g0, dtype=complex)
        if g0.shape != (self.size,):
            raise ConfigError(
                f"initial sector vector has length {g0.shape}, "
                f"generator is {self.size}x{self.size}"
            )
        if self.route == "diagonal":
            out = np.exp(times[:, None] * self._d) * g0
        elif self.route == "unitary":
            out = (np.exp(-1j * times[:, None] * self._w) * (self._v.conj().T @ g0)) @ self._v.T
        else:
            out = (np.exp(times[:, None] * self._w) * (self._vinv @ g0)) @ self._v.T
        out[times == 0.0] = g0
        return out


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ConfigError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ConfigError("times must be finite")
    if np.any(np.diff(t) < 0.0):
        raise ConfigError("times must be sorted in increasing order")
    return t


@dataclass(frozen=True)
class Trajectory:
    """Sector histories of one Hermitian flow over a common time grid.

    history[nu] for nu = 0 .. top has shape (len(times), N - nu) and holds
    the sub-diagonal G[k + nu, k]. Every flow keeps G Hermitian, so the
    super-diagonal -nu is the conjugate of sector nu: diagonal_history(-nu)
    returns it and matrix() writes it, and every reassembled matrix is
    exactly Hermitian. Only the sectors 0 .. top of the initial rows are
    stored; diagonal_history returns exact zeros for the sectors of the
    matrix above them.
    """

    dynamics: str
    model: ModelSpec
    times: np.ndarray
    dim: int
    history: dict = field(repr=False)

    def diagonal_history(self, nu: int) -> np.ndarray:
        if abs(nu) >= self.dim:
            raise ConfigError(f"sector {nu} lies outside a {self.dim}x{self.dim} matrix")
        rows = self.history.get(abs(nu))
        if rows is None:
            return np.zeros((len(self.times), self.dim - abs(nu)), dtype=complex)
        return np.conj(rows) if nu < 0 else rows

    def matrix(self, index: int) -> np.ndarray:
        """Reassembled full matrix at times[index]."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        k = np.arange(self.dim)
        for nu, history in self.history.items():
            rows = history[index]
            out[k[: self.dim - nu] + nu, k[: self.dim - nu]] = rows
            if nu:
                out[k[: self.dim - nu], k[: self.dim - nu] + nu] = np.conj(rows)
        return out

    def take(self, indices) -> Trajectory:
        """The same flow restricted to times[indices], in the order given."""
        indices = np.asarray(indices, dtype=int)
        return Trajectory(
            dynamics=self.dynamics,
            model=self.model,
            times=self.times[indices],
            dim=self.dim,
            history={nu: rows[indices] for nu, rows in self.history.items()},
        )

    def trace_series(self) -> np.ndarray:
        return self.history[0].sum(axis=1)

    def purity_series(self) -> np.ndarray:
        """Tr G(t)^2 = sum_nu sum_k g_nu g_-nu over the stored nu = -top .. top."""
        top = max(self.history)
        total = np.zeros(len(self.times), dtype=complex)
        for nu in range(-top, top + 1):
            total += (self.diagonal_history(nu) * self.diagonal_history(-nu)).sum(axis=1)
        return total


def _check_rows(g0) -> list:
    """The rows of g0, sector 0 made real, after the checks evolve documents."""
    rows = [np.asarray(row) for row in g0]
    if not rows:
        raise ConfigError("initial state has no sector rows")
    n = len(rows[0]) if rows[0].ndim == 1 else 0
    for nu, row in enumerate(rows):
        if row.shape != (n - nu,) or nu >= n:
            raise ConfigError(f"initial sector {nu} has shape {row.shape}, not ({n - nu},)")
        if not np.isfinite(row).all():
            raise ConfigError(f"initial sector {nu} has an entry that is not finite")
    if np.any(np.imag(rows[0])):
        raise ConfigError("initial sector 0 (the diagonal) must be real")
    return [rows[0].real, *rows[1:]]


def evolve(g0, dynamics: str, model: ModelSpec, times) -> Trajectory:
    """Propagate a Hermitian matrix, given as its sector rows, under one of the four flows.

    ConfigError unless g0 has at least one row, row nu has length N - nu,
    every entry is finite and sector 0 is real. Each row is propagated by
    one BlockPropagator, factored as its generator arrives; sector -nu
    follows by conjugation.
    """
    rows = _check_rows(g0)
    times = _check_times(times)
    blocks = all_generator_blocks(dynamics, model, len(rows[0]), nu_top=len(rows) - 1)
    history: dict[int, np.ndarray] = {}
    for nu, (row, block) in enumerate(zip(rows, blocks)):
        try:
            p = BlockPropagator(block)
        except ValidationFailed as exc:
            raise ValidationFailed(f"{dynamics} sector nu={nu}: {exc}") from None
        history[nu] = p.trajectory(row, times)
    return Trajectory(dynamics, model, times, len(rows[0]), history)


# ---------------------------------------------------------------------------
# Continuum references (no number basis)

def _rate_prime_coeffs(model: ModelSpec) -> np.ndarray:
    hpp = model.classical_symbol().derivative().derivative()
    return (model.omega / model.mu) * np.array([float(c) for c in hpp.coeffs])


def check_bessel_domain(what: str, state: GaussianState, r_max: float) -> None:
    """Raise QuadratureNotConverged if ive(nu, 2 kappa r |alpha0|) on [0, r_max]
    leaves the series domain of bessel_i_scaled.
    """
    a0 = abs(complex(state.alpha0))
    top = 2.0 * state.kappa * r_max * a0
    if top > _SERIES_MAX_X:
        raise QuadratureNotConverged(
            f"{what} needs the scaled Bessel kernel at 2 kappa r |alpha0| = "
            f"{top:.4g} (kappa = {state.kappa:.6g}, |alpha0| = {a0:.6g}), above its "
            f"series domain limit {_SERIES_MAX_X:g}; lower kappa or |alpha0|"
        )


def classical_moment_quadrature(
    m: int,
    state: GaussianState,
    model: ModelSpec,
    t: float,
    *,
    tol: float = 1e-9,
) -> complex:
    """<alpha^m> under the Liouville flow of the Gaussian density.

    The angular integral is a modified Bessel function, leaving a radial
    integrand 2 kappa r^{m+1} e^{-kappa (r-a0)^2} ive(m, 2 kappa r a0)
    e^{-i m t Omega(r^2)} on the 8-sigma support of the Gaussian. Panels
    track the phase derivative so each holds a bounded phase increment;
    the panel count is then doubled and a relative move above tol raises
    QuadratureNotConverged, as does a Bessel argument beyond the series
    domain of bessel_i_scaled. t and m enter only through the phase, so
    m = 0 returns the conserved mass.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ConfigError("moment order m must be a non-negative integer")
    if not np.isfinite(t):
        raise ConfigError("time must be finite")
    kappa = state.kappa
    a0 = abs(complex(state.alpha0))
    phi0 = np.angle(complex(state.alpha0)) if a0 else 0.0
    width = 8.0 / np.sqrt(kappa)
    lo, hi = max(0.0, a0 - width), a0 + width
    # phase derivative d/dr [m t Omega(r^2)] = 2 m t r Omega'(r^2)
    rp = _rate_prime_coeffs(model)
    probe = np.linspace(lo, hi, 257)
    theta_prime = 2.0 * m * abs(t) * probe * np.abs(
        np.polynomial.polynomial.polyval(probe**2, rp)
    )
    panels = max(8, int(np.ceil((hi - lo) * float(theta_prime.max()) / 1.5)))
    panels = min(panels, 4096)

    def integrate(n_panels: int) -> complex:
        rule = composite_gauss_legendre_rule(lo, hi, n_panels, order=12)
        r = rule.nodes
        check_bessel_domain(f"moment m={m} quadrature", state, float(r.max()))
        u = r * r
        phase = np.exp(-1j * m * t * model.classical_rate(u))
        f = (
            2.0
            * kappa
            * r ** (m + 1)
            * np.exp(-kappa * (r - a0) ** 2)
            * bessel_i_scaled(m, 2.0 * kappa * r * a0)
            * phase
        )
        return complex(np.sum(rule.weights * f))

    first = integrate(panels)
    second = integrate(2 * panels)
    if abs(second - first) > tol * max(1.0, abs(second)):
        raise QuadratureNotConverged(
            f"moment m={m} at t={t}: panel doubling moved the integral by "
            f"{abs(second - first):.3e}"
        )
    return np.exp(1j * m * phi0) * second

