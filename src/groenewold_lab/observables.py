"""Comparison diagnostics for trajectories and their snapshots.

moment_track returns the moments and position-momentum statistics of every
stored time as Moments, one array per quantity, read straight from a
trajectory's sector histories with no matrix reassembled:

    <alpha>     = Tr(G a)   = sum_k sqrt(k+1) G[k+1, k],
    <alpha^2>   = Tr(G a^2) = sum_k sqrt((k+1)(k+2)) G[k+2, k],
    <|alpha|^2> = Tr(G (n + 1/2))  (symmetric ordering).

Widths use the first-principles second-moment formulas

    dq^2 = (hbar / m w) (<|alpha|^2> + Re<alpha^2>) - <q>^2,
    dp^2 = (hbar m w)   (<|alpha|^2> - Re<alpha^2>) - <p>^2.

moment_width_variant evaluates an alternative printed form that replaces
Re<alpha^2> with Re{<alpha>^2} in both widths; it degenerates for
displaced states (the radicand can reach zero or go negative, reported as
NaN), which is why the first-principles form is primary and both are
emitted side by side in the CSV outputs.

Every array entry rounds as the same formula evaluated on Python floats at
that time alone: squares of reals go through C pow (np.float_power), as a
float's x**2 does, not x * x, which rounds apart for about 1 in 1,000
doubles; Re{<alpha>^2} is re*re - im*im, as a complex's z**2 computes it,
not numpy's complex square, which rounds apart for about 1 in 6.

Spectral diagnostics (extreme eigenvalues, squared negativity) share the
eigenvalues of snapshot_spectrum: one full Hermitian solve without
eigenvectors of a reassembled snapshot. The negativity needs the whole
negative spectrum anyway, so no extremal iteration is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationFailed
from .evolve import Trajectory
from .model import ModelSpec

__all__ = [
    "Moments",
    "mean_alpha_series",
    "moment_track",
    "moment_width_variant",
    "snapshot_spectrum",
    "spectrum_extremes",
    "squared_negativity",
]


@dataclass(frozen=True, eq=False)
class Moments:
    """Complex moments plus q/p statistics, one array entry per stored time."""

    t: np.ndarray
    mean_alpha: np.ndarray
    alpha2: np.ndarray
    abs2: np.ndarray
    mean_q: np.ndarray
    mean_p: np.ndarray
    dq: np.ndarray
    dp: np.ndarray


def moment_width_variant(moments: Moments, model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Widths from the variant formula using Re{<alpha>^2}.

    Returns (dq, dp) with NaN where the radicand is negative; for
    displaced Gaussians the radicand crosses zero, making the degeneracy
    of this form visible as data next to the primary widths.
    """
    hbar = model.hbar
    m_omega = model.m * model.omega
    re, im = moments.mean_alpha.real, moments.mean_alpha.imag
    bracket = moments.abs2 - (re * re - im * im)
    var_q = (hbar / m_omega) * bracket - np.float_power(moments.mean_q, 2.0)
    var_p = (hbar * m_omega) * bracket - np.float_power(moments.mean_p, 2.0)
    dq = np.sqrt(np.where(var_q >= 0.0, var_q, np.nan))
    dp = np.sqrt(np.where(var_p >= 0.0, var_p, np.nan))
    return dq, dp


def moment_track(traj: Trajectory) -> Moments:
    """Moments at every stored time of a trajectory, read from sectors 0-2."""
    dim = traj.dim
    mean = mean_alpha_series(traj)
    if dim > 2:
        k2 = np.arange(dim - 2, dtype=float)
        alpha2 = traj.diagonal_history(2) @ np.sqrt((k2 + 1.0) * (k2 + 2.0))
    else:
        alpha2 = np.zeros(len(traj.times), dtype=complex)
    abs2 = np.real(traj.diagonal_history(0) @ (np.arange(dim) + 0.5))
    hbar = traj.model.hbar
    m_omega = traj.model.m * traj.model.omega
    mean_q = math.sqrt(2.0 * hbar / m_omega) * mean.real
    mean_p = math.sqrt(2.0 * hbar * m_omega) * mean.imag
    var_q = (hbar / m_omega) * (abs2 + alpha2.real) - np.float_power(mean_q, 2.0)
    var_p = (hbar * m_omega) * (abs2 - alpha2.real) - np.float_power(mean_p, 2.0)
    # a negative variance reads 0; -0.0 and NaN pass, as through max(v, 0.0)
    return Moments(
        t=traj.times,
        mean_alpha=mean,
        alpha2=alpha2,
        abs2=abs2,
        mean_q=mean_q,
        mean_p=mean_p,
        dq=np.sqrt(np.where(var_q < 0.0, 0.0, var_q)),
        dp=np.sqrt(np.where(var_p < 0.0, 0.0, var_p)),
    )


def mean_alpha_series(traj: Trajectory) -> np.ndarray:
    """<alpha>(t) along a trajectory, one complex value per time."""
    if traj.dim < 2:
        return np.zeros(len(traj.times), dtype=complex)
    k = np.arange(traj.dim - 1, dtype=float)
    return traj.diagonal_history(1) @ np.sqrt(k + 1.0)


def snapshot_spectrum(traj: Trajectory, index: int) -> np.ndarray:
    """Ascending eigenvalues of traj.matrix(index), from one eigenvalue-only solve.

    The snapshot is Hermitian by construction (matrix() writes sector -nu
    as the conjugate of sector nu); ValidationFailed names the dynamics,
    the time and the first sector whose stored row there is not finite.
    """
    for nu, rows in enumerate(traj.sectors()):
        if not np.isfinite(rows[index]).all():
            raise ValidationFailed(
                f"{traj.dynamics} snapshot at t = {traj.times[index]:.17g} has an entry "
                f"in sector {nu} that is not finite"
            )
    return np.linalg.eigvalsh(traj.matrix(index))


def spectrum_extremes(w, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k largest (descending) and k smallest (ascending) of the ascending
    eigenvalues w, as snapshot_spectrum returns them."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ConfigError("k must be an integer")
    if not 1 <= k <= len(w):
        raise ConfigError(f"k must lie in [1, {len(w)}]")
    return w[::-1][:k].copy(), w[:k].copy()


def squared_negativity(w) -> float:
    """Sum of the squared negative eigenvalues in w; 0 for positive semidefinite.

    inf, without a numpy warning, where the sum passes the float range (a
    negative eigenvalue past about 1e154); cli.run rejects it.
    """
    neg = w[w < 0.0]
    with np.errstate(over="ignore"):
        return float(neg @ neg)
