"""Phase-space fields and their file formats.

wigner_field synthesizes the phase-space symbol of every matrix a
trajectory holds on a rectangular grid, diagonal by diagonal, from the
stored sector rows: sector nu contributes a radial profile (a Laguerre
series evaluated by the three-term recurrence in the degree) times the
angular phasor e^(-i nu phi). The radial weight
x^(nu/2) e^(-x/2) / sqrt(nu!) is fused into one exponential so high
sectors neither overflow nor underflow on the way to an order-one value.
Each profile is evaluated once per distinct x = 4|alpha|^2 and gathered
back; being elementwise in x, it is bit-equal to a per-point evaluation.
All times render together: each sector runs the recurrence once and
accumulates every time's coefficients against it, and each field stays
bit-equal to rendering its time alone.

Each time's series stops once its remaining coefficients cannot move a
field value. The Wigner function of every dyad |n><m| is bounded by
1/(pi hbar) (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)), so every
radial function |rho_k^(nu)| <= 2. A sector row drops its columns k whose
tail sum_{j >= k} |g_j| is at most 2^-100 s, s being the largest |entry|
its time stores in any sector, and dropped columns count as zero
coefficients. Together they move a field value by at most
(2 + 4 top) 2^-100 s / (2 pi hbar), top being the highest stored sector,
plus the rounding they would have caused: about 2e-29 for fig2, whose
rows keep at most 20 of their 128 columns, while a thermal diagonal 0.9^n
keeps all of them.

Fields carry their own mass (Riemann sum times cell area) and a boolean
mask of the strictly negative cells. A state whose support leaks off the
grid is reported with BoundaryMassWarning, never an error.

File formats: binary PGM (P5, maxval 255) with the affine value map

    gray = clip(round(128 + 127 * value / vscale), 0, 255),

vscale = max|value| (stored in a '# vscale=' header comment, so the map
inverts to value ~ (gray - 128) / 127 * vscale), a 0/255 PGM for the
negative mask, and a CSV matrix with '#' header lines, one grid row per
line, 17 significant digits, each row written by one '%.17g' format call
(the same bytes as formatting value by value).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolve import Trajectory, whorl_field
from .model import ModelSpec
from .states import GaussianState

__all__ = [
    "DEFAULT_GRID",
    "BoundaryMassWarning",
    "PhaseField",
    "whorl_phase_field",
    "wigner_field",
    "write_field_csv",
    "write_mask_pgm",
    "write_pgm",
]

DEFAULT_GRID = (-4.0, 4.0, -4.0, 4.0, 256, 256)

_BOUNDARY_MASS_LIMIT = 1e-4

# a row's columns whose tail sum of |coefficients| is at most this times the
# largest |entry| of its time are dropped; see the module docstring
_TAIL_FLOOR = 2.0**-100


class BoundaryMassWarning(UserWarning):
    """The grid clips a non-negligible part of the state."""


@dataclass(frozen=True)
class PhaseField:
    """A real field on a rectangular position-momentum grid.

    values[i, j] is the field at (q = qs[j], p = ps[i]); the mask marks
    strictly negative cells; total_mass is the Riemann sum times the cell
    area.
    """

    grid: tuple[float, float, float, float, int, int]
    values: np.ndarray
    negative_mask: np.ndarray
    total_mass: float

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        q_min, q_max, p_min, p_max, nq, npts = self.grid
        return np.linspace(q_min, q_max, nq), np.linspace(p_min, p_max, npts)


def _check_grid(grid) -> tuple[float, float, float, float, int, int]:
    try:
        q_min, q_max, p_min, p_max, nq, npts = grid
    except (TypeError, ValueError):
        raise ConfigError(
            "grid must be (q_min, q_max, p_min, p_max, nq, np)"
        ) from None
    for name, count in (("nq", nq), ("np", npts)):
        if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 2:
            raise ConfigError(f"grid {name} must be an integer >= 2")
    vals = (float(q_min), float(q_max), float(p_min), float(p_max))
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError("grid bounds must be finite")
    if not (vals[0] < vals[1] and vals[2] < vals[3]):
        raise ConfigError("grid bounds must satisfy q_min < q_max and p_min < p_max")
    return vals[0], vals[1], vals[2], vals[3], int(nq), int(npts)


def _package(values: np.ndarray, grid) -> PhaseField:
    q_min, q_max, p_min, p_max, nq, npts = grid
    cell = (q_max - q_min) / (nq - 1) * (p_max - p_min) / (npts - 1)
    mass = float(values.sum() * cell)
    boundary = (
        np.abs(values[0, :]).sum()
        + np.abs(values[-1, :]).sum()
        + np.abs(values[1:-1, 0]).sum()
        + np.abs(values[1:-1, -1]).sum()
    ) * cell
    if boundary > _BOUNDARY_MASS_LIMIT:
        warnings.warn(
            f"boundary carries |mass| {boundary:.3e} > {_BOUNDARY_MASS_LIMIT:.0e}; "
            f"the grid clips the state",
            BoundaryMassWarning,
            stacklevel=3,
        )
    return PhaseField(
        grid=grid,
        values=values,
        negative_mask=values < 0.0,
        total_mass=mass,
    )


def _series_cut(rows: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """rows with the columns past each row's cut set to zero, up to the deepest cut.

    Row f keeps the columns k whose tail sum_{j >= k} |rows[f, j]| is not
    at most floor[f]: it exceeds it or is NaN. Summed from the end, the
    tails never decrease towards column 0 and stay NaN once NaN, so the
    kept columns are a prefix of the row; a row that keeps none is all
    zeros.
    """
    tail = np.cumsum(np.abs(rows)[:, ::-1], axis=1)[:, ::-1]
    kept = ~(tail <= floor[:, None])
    return np.where(kept, rows, 0.0)[:, : kept.sum(axis=1).max(initial=0)]


def _sector_profile(diags: np.ndarray, nu: int, x: np.ndarray) -> np.ndarray:
    """Radial sum_k diags[f, k] rho_k^(nu)(x) on flat x >= 0, one row per f.

    rho_k^(nu)(x) = 2 (-1)^k sqrt(k!/(k+nu)!) x^(nu/2) e^(-x/2) L_k^(nu)(x),
    evaluated as weight(x) * sum_k diags[f, k] (-1)^k binom(k+nu, k)^(-1/2)
    L_k^(nu)(x) with the weight exponent fused against 1/sqrt(nu!).

    The recurrence in k runs once for all rows. Each row accumulates the
    real and imaginary parts of its terms apart, in order of k; that is
    bit-equal to accumulating the complex terms row by row, as the product
    of a complex coefficient and a real Laguerre value has exactly those
    parts. A row's zero coefficient adds +0.0 in place of its term (0 * inf
    would put NaN where the Laguerre values overflow), which leaves the sum
    bit-equal to skipping it: a sum that starts at +0.0 is never -0.0.

    The recurrence runs to the last column of diags, which wigner_field
    cuts to the deepest column any row keeps (_series_cut). Every
    |rho_k^(nu)| <= 2, so the columns zeroed past a row's cut, whose
    |coefficients| sum to at most its floor, move its profile by at most
    twice that floor.
    """
    if nu == 0:
        weight = 2.0 * np.exp(-0.5 * x)
    else:
        exponent = np.full_like(x, -np.inf)
        pos = x > 0.0
        exponent[pos] = 0.5 * nu * np.log(x[pos]) - 0.5 * x[pos] - 0.5 * math.lgamma(nu + 1)
        weight = 2.0 * np.exp(exponent)
    rows, depth = diags.shape
    acc = np.zeros((2 * rows, x.size))  # real parts above imaginary parts
    term = np.empty_like(acc)
    l_prev = np.zeros_like(x)
    l_cur = np.ones_like(x)
    coef = 1.0
    for k in range(depth):
        if k > 0:
            l_prev, l_cur = l_cur, ((2 * k - 1 + nu - x) * l_cur - (k - 1 + nu) * l_prev) / k
            coef *= -math.sqrt(k / (k + nu))
        live = diags[:, k] != 0.0
        if not live.any():
            continue
        c = coef * diags[:, k]
        np.multiply(np.concatenate((c.real, c.imag))[:, None], l_cur, out=term)
        term[~np.concatenate((live, live))] = 0.0
        acc += term
    profiles = np.empty((rows, x.size), dtype=complex)
    profiles.real = acc[:rows]
    profiles.imag = acc[rows:]
    profiles *= weight
    return profiles


def wigner_field(traj: Trajectory, grid=DEFAULT_GRID) -> list[PhaseField]:
    """Phase-space symbols over 2 pi hbar of a trajectory's matrices, on a grid.

    Returns one PhaseField per stored time, in the trajectory's order,
    under its model's units. The sector rows are read as they are stored,
    with no matrix reassembled: only the real part of the diagonal and
    the lower diagonals, so each field is the real symbol of the Hermitian
    matrix the rows stand for. Mass approximates the trace.

    Radial profiles are computed on the distinct x = 4|alpha|^2 only (a
    symmetric grid has about a sixth as many as points, since np.abs is
    exact under sign flips and the q <-> p swap) and gathered back before
    the per-point phasor; equal x give bit-equal profiles, so this is exact.
    Each sector runs its radial recurrence once for every time it holds,
    and a time whose sector is empty skips it, so every field is bit-equal
    to rendering its time alone.

    Each time's series drops the columns whose tail sum of |coefficients|
    is at most 2^-100 s, s being the largest |entry| that time stores
    (a time with a non-finite entry drops only zeros); a sector row left
    with none is empty. Every dyad's Wigner function is
    bounded by 1/(pi hbar), so this moves a field value by at most
    (2 + 4 top) 2^-100 s / (2 pi hbar), top being the highest stored
    sector, plus the rounding the dropped terms would have caused.
    """
    grid = _check_grid(grid)
    q_min, q_max, p_min, p_max, nq, npts = grid
    qs = np.linspace(q_min, q_max, nq)
    ps = np.linspace(p_min, p_max, npts)
    hbar = traj.model.hbar
    scale = math.sqrt(traj.model.m * traj.model.omega)
    alpha = (scale * qs[None, :] + 1j * ps[:, None] / scale) / math.sqrt(2.0 * hbar)
    x = (4.0 * np.abs(alpha) ** 2).ravel()
    xu, inv = np.unique(x, return_inverse=True)
    radius = np.abs(alpha).ravel()
    phasor = np.ones_like(x, dtype=complex)
    nonzero = radius > 0.0
    phasor[nonzero] = (alpha.ravel()[nonzero] / radius[nonzero]).conj()
    peak = np.max([np.abs(rows).max(axis=1) for rows in traj.history.values()], axis=0)
    # a time with a non-finite entry keeps every nonzero column, so a
    # non-finite coefficient reaches its field
    floor = np.where(np.isfinite(peak), _TAIL_FLOOR * peak, 0.0)
    diag = _series_cut(np.real(traj.history[0]).astype(complex), floor)
    profiles = _sector_profile(diag, 0, xu)
    totals = [profile[inv].real.astype(float) for profile in profiles]
    power = np.ones_like(phasor)
    for nu in range(1, len(traj.history)):
        power = power * phasor
        rows = _series_cut(traj.history[nu], floor)
        filled = np.flatnonzero(rows.any(axis=1))
        if filled.size == 0:
            continue
        for f, profile in zip(filled, _sector_profile(rows[filled], nu, xu)):
            totals[f] += 2.0 * (power * profile[inv]).real
    fields = []
    for total in totals:  # a loop, not a comprehension, keeps _package's stacklevel
        total /= 2.0 * math.pi * hbar
        fields.append(_package(total.reshape(npts, nq), grid))
    return fields


def whorl_phase_field(
    state: GaussianState, model: ModelSpec, t: float, grid=DEFAULT_GRID
) -> PhaseField:
    """Classical continuum density at time t, packaged like wigner_field."""
    grid = _check_grid(grid)
    q_min, q_max, p_min, p_max, nq, npts = grid
    qs = np.linspace(q_min, q_max, nq)
    ps = np.linspace(p_min, p_max, npts)
    return _package(whorl_field(state, model, t, qs, ps), grid)


# ---------------------------------------------------------------------------
# File formats


def _gray_map(values: np.ndarray) -> tuple[np.ndarray, float]:
    vscale = float(np.abs(values).max())
    if vscale == 0.0:
        vscale = 1.0
    gray = np.clip(np.rint(128.0 + 127.0 * values / vscale), 0.0, 255.0)
    return gray.astype(np.uint8), vscale


def write_pgm(field: PhaseField, path) -> None:
    """Binary PGM of the field under the documented affine map."""
    gray, vscale = _gray_map(field.values)
    rows, cols = gray.shape
    header = f"P5\n# vscale={vscale:.17g}\n{cols} {rows}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(gray.tobytes())


def write_mask_pgm(field: PhaseField, path) -> None:
    """Binary PGM of the negative mask: 255 where negative, 0 elsewhere."""
    gray = np.where(field.negative_mask, np.uint8(255), np.uint8(0))
    rows, cols = gray.shape
    header = f"P5\n{cols} {rows}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(gray.tobytes())


def write_field_csv(field: PhaseField, path, provenance: str = "") -> None:
    """CSV matrix of the field, one grid row (fixed p) per line."""
    q_min, q_max, p_min, p_max, nq, npts = field.grid
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write(f"# grid q_min={q_min:.17g} q_max={q_max:.17g} nq={nq}\n")
        fh.write(f"# grid p_min={p_min:.17g} p_max={p_max:.17g} np={npts}\n")
        fh.write(f"# total_mass={field.total_mass:.17g}\n")
        line = ",".join(["%.17g"] * field.values.shape[1]) + "\n"
        for row in field.values.tolist():
            fh.write(line % tuple(row))
