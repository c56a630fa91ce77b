"""Time evolution of a Hermitian matrix, given as its sector rows, under the four flows.

The state is g0[nu][k] = G[k + nu, k] for nu = 0 .. top, as
states.groenewold_from_gaussian returns it. Each sector evolves
independently: dg/dt = L g with L from the generators module. G is
Hermitian and L_{-nu} = conj(L_nu), so only the sectors nu >= 0 are
propagated and sector -nu is read as their conjugate. A BlockPropagator
factors L once and reuses the factorization for every requested time.
Every flow is linear and acts on one sector at a time, so a sector that
starts empty stays an exact zero: evolve builds and propagates only the
sectors 0 .. top, one at a time. It keeps every sector's norm series and
the rows of the sectors 0 .. store_top alone (every sector by default),
so a caller that reads only the low sectors and the purity holds three
sectors' rows, not top + 1. Nothing on this path is kept between calls:
evolve looks up all_generator_blocks afresh, and the generators are
rebuilt and factored again on every call.

Above store_top only the purity reads a sector, through its norm, so
evolve holds the sectors whose whole contribution provably moves it by
at most 2^-56 of itself, a sixteenth of the float epsilon and so at most
an eighth of its ulp: the longest suffix of the sectors above store_top
whose bound

    sum 2 S_nu(0) exp(2 mu_nu max|t|)  <=  2^-56 Tr G(0)^2,

where S_nu(0) is the sector's initial norm and mu_nu the Gershgorin bound
on the eigenvalues of (L + L^H)/2 in absolute value, so that
||exp(t L) g||^2 <= exp(2 mu_nu |t|) ||g||^2 for t of either sign. A held
sector's block is built, so the generators' finiteness check still runs
on it, but it is neither factored nor propagated, and its norm series is
S_nu(0) at every time. evolve builds the sectors from top down, each
once, and keeps no block past its own step: a sector is held while the
bound summed down to it stays within the budget, and the first that
breaks it and every sector below are factored as they are built. fig3's
sectors 13-23 are held, so a moments run factors 52 of its 96 sectors.
A run that stores every sector (store_top None) holds none, nor does a
time span whose bound overflows.
The routes are:

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
answer is zero whatever its generator, and a held sector's norm is
bounded without a factorization. Each route forms all requested times in
one array product, and requests at t = 0 return the initial vector
bit-exactly on every route.

The module also carries a continuum reference that never touches the
number basis: classical_moment_quadrature integrates <alpha^m> under the
Liouville flow of the Gaussian density by a radial Bessel quadrature, an
independent oracle for the matrix route. Its kernels live beside it: a
composite Gauss-Legendre rule and the scaled Bessel function
bessel_i_scaled, summed as a power series whose domain stops at
x = _SERIES_MAX_X; check_bessel_domain turns an argument past it into
QuadratureNotConverged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma

import numpy as np

from .errors import ConfigError, QuadratureNotConverged, ValidationFailed
from .generators import all_generator_blocks
from .model import ModelSpec, derivative
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
# the share of the initial purity that the held sectors may move, at most:
# a sixteenth of the float epsilon, so at most an eighth of the purity's ulp
_HELD_SHARE = 2.0**-56


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

    history[nu] has shape (len(times), N - nu) and holds the sub-diagonal
    G[k + nu, k] of a stored sector nu. Every flow keeps G Hermitian, so
    the super-diagonal -nu is the conjugate of sector nu: diagonal_history(-nu)
    returns it and matrix() writes it, and every reassembled matrix is
    exactly Hermitian. norms[nu] holds the norm series
    S_nu(t) = sum_k |G[k + nu, k]|^2 of each sector 0 .. top of the
    initial rows; purity_series reads only these. The sectors below held
    were propagated. The sectors held .. top were held (evolve): not
    propagated, their norms are their t = 0 norms at every time, within
    the bound evolve states of the propagated series.
    The sectors above top are exact zeros, which diagonal_history returns.
    A propagated or held sector whose rows were not stored is not zero:
    diagonal_history, matrix() and sectors() raise ConfigError for it.
    Every flow's sector-0 generator is an exact zero, so history[0], and
    with it the trace, is the initial diagonal at every time.

    Built by hand from a history alone, the trajectory stores every sector
    it propagated and holds none: top is the highest key, and the norms
    are formed from the rows as evolve forms them.
    """

    dynamics: str
    model: ModelSpec
    times: np.ndarray
    dim: int
    history: dict = field(repr=False)
    norms: np.ndarray = field(default=None, repr=False)
    held: int | None = None

    def __post_init__(self):
        if self.norms is None:
            norms = [_sector_norm(nu, self.history[nu]) for nu in range(len(self.history))]
            object.__setattr__(self, "norms", np.array(norms, dtype=float))
        if self.held is None:
            object.__setattr__(self, "held", len(self.norms))

    @property
    def top(self) -> int:
        """The highest propagated sector."""
        return len(self.norms) - 1

    def _unstored(self, nu: int) -> ConfigError:
        if abs(nu) >= self.held:
            return ConfigError(
                f"{self.dynamics} sector {nu} was held at its t = 0 norm, "
                f"not propagated, and has no rows"
            )
        return ConfigError(
            f"{self.dynamics} sector {nu} was propagated but its rows were not stored"
        )

    def diagonal_history(self, nu: int) -> np.ndarray:
        if abs(nu) >= self.dim:
            raise ConfigError(f"sector {nu} lies outside a {self.dim}x{self.dim} matrix")
        rows = self.history.get(abs(nu))
        if rows is None:
            if abs(nu) <= self.top:
                raise self._unstored(nu)
            return np.zeros((len(self.times), self.dim - abs(nu)), dtype=complex)
        return np.conj(rows) if nu < 0 else rows

    def sectors(self) -> list:
        """The rows of the sectors 0 .. top, in order; ConfigError unless all are stored."""
        for nu in range(self.top + 1):
            if nu not in self.history:
                raise self._unstored(nu)
        return [self.history[nu] for nu in range(self.top + 1)]

    def matrix(self, index: int) -> np.ndarray:
        """Reassembled full matrix at times[index]."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        k = np.arange(self.dim)
        for nu, history in enumerate(self.sectors()):
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
            norms=self.norms[:, indices],
            held=self.held,
        )

    def purity_series(self) -> np.ndarray:
        """Tr G(t)^2, the real sum of S_|nu| over nu = -top .. top in that order."""
        total = np.zeros(len(self.times))
        for nu in range(-self.top, self.top + 1):
            total += self.norms[abs(nu)]
        return total


def _sector_norm(nu: int, rows: np.ndarray) -> np.ndarray:
    """S_nu(t) = sum_k g g-bar of one sector's rows: the real part of the
    complex sum of g g on the (real) diagonal and of conj(g) g above it,
    the products sector nu forms with sector -nu in Tr G^2. A complex sum
    adds real parts apart from imaginary ones, so summing these norms
    gives the real part of Tr G^2 summed from those products, bit for
    bit; the imaginary parts are rounding residue."""
    return (rows * rows if nu == 0 else np.conj(rows) * rows).sum(axis=1).real


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


def _growth_rate(L: np.ndarray) -> float:
    """mu with ||exp(t L) g||^2 <= exp(2 mu |t|) ||g||^2 for t of either sign.

    d||g||^2/dt = 2 g^H H g with H = (L + L^H)/2, so mu may be any bound on
    the eigenvalues of H in absolute value. This is Gershgorin's, the largest
    absolute row sum of H, an O(n^2) read of the built block.
    """
    if L.ndim == 1:
        return float(np.abs(L.real).max())
    return 0.5 * float(np.abs(L + L.conj().T).sum(axis=1).max())


def evolve(
    g0, dynamics: str, model: ModelSpec, times, store_top: int | None = None
) -> Trajectory:
    """Propagate a Hermitian matrix, given as its sector rows, under one of the four flows.

    ConfigError unless g0 has at least one row, row nu has length N - nu,
    every entry is finite and sector 0 is real. Each row but the held ones
    is propagated by one BlockPropagator; sector -nu follows by
    conjugation. The rows are stored for the sectors 0 .. store_top alone,
    or for all of them when store_top is None, and every sector's norm
    series is kept for the purity.

    A sector above store_top is held rather than propagated by the rule
    the module docstring states, which caps how far every held sector
    together moves the purity at an eighth of its ulp: its block is still
    built, and so checked for finiteness, but not factored, and its norm
    series is S_nu(0) at every time. The condition-number gate applies to
    the factored sectors alone.
    """
    rows = _check_rows(g0)
    times = _check_times(times)
    top = len(rows) - 1
    # complex, as BlockPropagator.trajectory reads them, so that a held
    # sector's S_nu(0) has the bits a propagated one has at t = 0
    rows = [rows[0], *(np.asarray(row, dtype=complex) for row in rows[1:])]
    initial = [float(_sector_norm(nu, row[None])[0]) for nu, row in enumerate(rows)]
    budget = _HELD_SHARE * (initial[0] + 2.0 * sum(initial[1:]))
    span = max(abs(times[0]), abs(times[-1]))
    history: dict[int, np.ndarray] = {}
    norms = np.empty((len(rows), len(times)))

    def propagate(nu, block):
        try:
            p = BlockPropagator(block)
        except ValidationFailed as exc:
            raise ValidationFailed(f"{dynamics} sector nu={nu}: {exc}") from None
        # a span whose exponentials leave the float range gives inf or NaN
        # rows, which the callers reject; finite rows keep every bit
        with np.errstate(over="ignore", invalid="ignore"):
            out = p.trajectory(rows[nu], times)
            norms[nu] = _sector_norm(nu, out)
        if store_top is None or nu <= store_top:
            history[nu] = out

    # from the top down: a sector above store_top is held while the bound
    # summed over it and the held sectors above it stays within the budget
    # (an inf or NaN term holds nothing); the first that breaks it, and
    # every sector below, is factored as it is built
    block = all_generator_blocks(dynamics, model, len(rows[0]), nu_top=top)
    held, bound = top + 1, 0.0
    for nu in range(top, -1, -1):
        L = block(nu)
        if held == nu + 1 and store_top is not None and nu > store_top:
            with np.errstate(over="ignore", invalid="ignore"):
                term = 2.0 * initial[nu] * np.exp(2.0 * _growth_rate(L) * span)
            if bound + term <= budget:
                held, bound = nu, bound + term
                continue
        propagate(nu, L)
    norms[held:] = np.array(initial[held:])[:, None]
    return Trajectory(dynamics, model, times, len(rows[0]), history, norms, held)


# ---------------------------------------------------------------------------
# Continuum references (no number basis)

_SERIES_MAX_X = 1500.0


def bessel_i_scaled(m: int, x) -> np.ndarray:
    """Exponentially scaled modified Bessel function e^-x I_m(x).

    Parameters
    ----------
    m : int
        Order, m >= 0.
    x : array_like
        Argument(s), real and >= 0. The all-positive power series is summed
        in scaled form, so there is no cancellation and the relative error
        stays near machine precision for x up to ~1500.
    """
    if m < 0:
        raise ValueError("order m must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("argument x must be >= 0")
    if np.any(x > _SERIES_MAX_X):
        raise ValueError(f"argument x above series domain {_SERIES_MAX_X}")

    out = np.zeros(x.shape)
    zero = x == 0.0
    if m == 0:
        out[zero] = 1.0
    xp = x[~zero]
    if xp.size:
        half = 0.5 * xp
        # first term e^-x (x/2)^m / m!, assembled in log space
        term = np.exp(m * np.log(half) - lgamma(m + 1) - xp)
        total = term.copy()
        ratio = half * half
        kmax = int(np.max(half)) + 1
        k = 0
        while True:
            k += 1
            term *= ratio / (k * (k + m))
            total += term
            if k >= kmax and np.all(term <= 1e-18 * total):
                break
        out[~zero] = total
    return out


def composite_gauss_legendre_rule(
    a: float, b: float, panels: int, order: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights: `panels` equal panels, `order` each."""
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_nodes[None, :]).ravel()
    weights = (half[:, None] * base_weights[None, :]).ravel()
    return nodes, weights


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
    # phase derivative d/dr [m t Omega(r^2)] = 2 m t r Omega'(r^2), Omega' = (omega/mu) h''
    hpp = derivative(derivative(model.classical_symbol()))
    rp = (model.omega / model.mu) * np.array([float(c) for c in hpp])
    probe = np.linspace(lo, hi, 257)
    theta_prime = 2.0 * m * abs(t) * probe * np.abs(
        np.polynomial.polynomial.polyval(probe**2, rp)
    )
    panels = max(8, int(np.ceil((hi - lo) * float(theta_prime.max()) / 1.5)))
    panels = min(panels, 4096)

    def integrate(n_panels: int) -> complex:
        r, weights = composite_gauss_legendre_rule(lo, hi, n_panels, order=12)
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
        return complex(np.sum(weights * f))

    first = integrate(panels)
    second = integrate(2 * panels)
    if abs(second - first) > tol * max(1.0, abs(second)):
        raise QuadratureNotConverged(
            f"moment m={m} at t={t}: panel doubling moved the integral by "
            f"{abs(second - first):.3e}"
        )
    return np.exp(1j * m * phi0) * second

