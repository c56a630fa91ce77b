"""Phase-space fields and their file formats.

This module owns the field grid (q_min, q_max, p_min, p_max, nq, np): its
check (_check_grid, which the CLI also calls for outputs.field.grid), its
map (q, p) -> alpha = (sqrt(m omega) q + i p / sqrt(m omega)) / sqrt(2 hbar)
(_alpha), and both kinds of field drawn on it: wigner_field, the symbol of
a trajectory's matrices, and whorl_phase_field, the classically evolved
continuum density.

wigner_field synthesizes the phase-space symbol of every matrix a
trajectory holds on a rectangular grid, diagonal by diagonal, from the
stored sector rows: sector nu contributes a radial profile (a Laguerre
series evaluated by the three-term recurrence in the degree) times the
angular phasor e^(-i nu phi). The radial weight
x^(nu/2) e^(-x/2) / sqrt(nu!) is fused into one exponential so high
sectors neither overflow nor underflow on the way to an order-one value,
and Laguerre values past 2^600 are scaled down exactly (_sector_profile).
Each profile is evaluated once per distinct x = 4|alpha|^2 and gathered
back; being elementwise in x, it is bit-equal to a per-point evaluation.
All times render together: each sector runs the recurrence once and
accumulates every time's coefficients against it, and each field stays
bit-equal to rendering its time alone.

A render works in a bounded working set. It holds the returned fields
(8 bytes per grid point and time), the phasor and its running power
e^(-i nu phi) (16 bytes per point each), each point's index into the
distinct radii (8 bytes per point), one sector's profiles on those radii,
and buffers of fixed size: the recurrence runs on blocks of radii, and
the gather, phasor product and sum on blocks of points (_step), each value
computed by the same operations as on the whole grid. For fig2's four
times that peaks at about 83 bytes per point on large grids (1.3 GiB at
4096 x 4096) and 6.6 MiB at 256 x 256 (numpy 2.4, traced).

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
line, each value written exactly as '%.17g' writes it.

The CSV is formatted by a numpy kernel, 16 grid rows at a time. For each
cell it takes E = floor(log10|x|) and forms |x| 10^(16 - E) as a
double-double: Dekker's exact product of |x| and the double nearest
10^(16 - E), plus |x| times the rest of that power. The sum carries an
error of about 1e-14 on a value near 1e17, so its integer part I and
fraction f are exact up to that; an I outside [1e16, 1e17) steps E by
one and is recomputed. The 17 digits are D = I + (f > 1/2), with
D = 1e17 read as 1e16 at E + 1, which is '%.17g''s correctly rounded
significand, and E picks its notation: scientific for E < -4 or E >= 17,
trailing zeros dropped, an exponent of at least two digits. Where that
argument does not hold, the cell is formatted by '%.17g' itself:
|f - 1/2| < 1e-7 (ties, which '%.17g' rounds half to even); f within
1e-7 of an integer while I is 1e16 or 1e17 - 1 (the decade is in doubt);
an I still outside [1e16, 1e17); and |x| outside [1e-250, 1e250), zero,
NaN and +-inf.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolve import Trajectory
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

# points per grid axis at most: a 4096 x 4096 field holds 16.8 million
# values, 134 MB per time as floats and about 400 MB as CSV text
MAX_GRID_POINTS = 4096

_BOUNDARY_MASS_LIMIT = 1e-4

# a row's columns whose tail sum of |coefficients| is at most this times the
# largest |entry| of its time are dropped; see the module docstring
_TAIL_FLOOR = 2.0**-100

# values a blocked pass works on at a time, summed over its rows (_step)
_BLOCK = 2**15


class BoundaryMassWarning(UserWarning):
    """The grid clips a non-negligible part of the state."""


@dataclass(frozen=True)
class PhaseField:
    """A real field on a rectangular position-momentum grid.

    values[i, j] is the field at the j-th q node and the i-th p node of the
    grid, each axis evenly spaced from its min to its max; the mask marks
    strictly negative cells; total_mass is the Riemann sum times the cell
    area.
    """

    grid: tuple[float, float, float, float, int, int]
    values: np.ndarray
    negative_mask: np.ndarray
    total_mass: float


def is_finite_real(v) -> bool:
    """Whether v is a real number, not a bool, in the float range (so not NaN,
    not +-inf and not an int too large for a float)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    return bool(abs(v) <= sys.float_info.max)


def _check_grid(grid) -> tuple[float, float, float, float, int, int]:
    """grid as float bounds and int counts, or ConfigError with the message
    the CLI prints for outputs.field.grid."""
    if not isinstance(grid, (list, tuple)) or len(grid) != 6:
        raise ConfigError("must be [q_min, q_max, p_min, p_max, nq, np]")
    for i, v in enumerate(grid):
        if not is_finite_real(v):
            raise ConfigError(f"entry {i} must be a finite number")
    q_min, q_max, p_min, p_max, nq, npts = grid
    if not (q_min < q_max and p_min < p_max):
        raise ConfigError("needs q_min < q_max and p_min < p_max")
    for i in (4, 5):
        if not isinstance(grid[i], numbers.Integral) or grid[i] < 2:
            raise ConfigError(f"entry {i} must be an integer >= 2")
        if grid[i] > MAX_GRID_POINTS:
            raise ConfigError(f"entry {i} must be at most {MAX_GRID_POINTS}")
    return float(q_min), float(q_max), float(p_min), float(p_max), int(nq), int(npts)


def _alpha(model: ModelSpec, grid) -> np.ndarray:
    """alpha[i, j] at (q = qs[j], p = ps[i]) on a checked grid, in model's units."""
    q_min, q_max, p_min, p_max, nq, npts = grid
    qs = np.linspace(q_min, q_max, nq)
    ps = np.linspace(p_min, p_max, npts)
    scale = math.sqrt(model.m * model.omega)
    alpha = scale * qs[None, :] + 1j * ps[:, None] / scale
    alpha /= math.sqrt(2.0 * model.hbar)
    return alpha


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


def _sector_profile(diags: np.ndarray, nu: int, x: np.ndarray, out=None) -> np.ndarray:
    """Radial sum_k diags[f, k] rho_k^(nu)(x) on flat x >= 0, one row per f.

    The profiles are written to out, a complex array of shape
    (len(diags), x.size), when one is given; wigner_field passes the same
    array for every sector, so no sector allocates its profiles anew.

    rho_k^(nu)(x) = 2 (-1)^k sqrt(k!/(k+nu)!) x^(nu/2) e^(-x/2) L_k^(nu)(x),
    evaluated as weight(x) * sum_k diags[f, k] (-1)^k binom(k+nu, k)^(-1/2)
    L_k^(nu)(x) with the weight exponent fused against 1/sqrt(nu!).

    Every step is elementwise in x, so x is taken in blocks of _step values
    and only the returned profiles grow with x. In each block the
    recurrence in k runs once for all rows. Each row accumulates the real
    and imaginary parts of its terms apart, in order of k; that is bit-equal
    to accumulating the complex terms row by row, as the product of a
    complex coefficient and a real Laguerre value has exactly those parts.
    A row's zero coefficient adds +0.0 in place of its term (0 * inf would
    put NaN where the Laguerre values overflow), which leaves the sum
    bit-equal to skipping it: a sum that starts at +0.0 is never -0.0.

    Far out, L_k^(nu)(x) passes the float range while the weight
    underflows, so where |L_k| > 2^600 both recurrence values and the
    partial sums of rows with terms still to come are scaled by 2^-600
    (exact). A row rescaled c times gets weight 2 exp(exponent + 600 c ln 2)
    there, as if its time rendered alone; other points keep every bit.

    The recurrence runs to the last column of diags, which wigner_field
    cuts to the deepest column any row keeps (_series_cut). Every
    |rho_k^(nu)| <= 2, so the columns zeroed past a row's cut, whose
    |coefficients| sum to at most its floor, move its profile by at most
    twice that floor.
    """
    rows, depth = diags.shape
    coefs = np.empty(depth)
    coef = 1.0
    for k in range(depth):
        if k > 0:
            coef *= -math.sqrt(k / (k + nu))
        coefs[k] = coef
    c = coefs * diags
    terms = np.concatenate((c.real, c.imag))  # real parts above imaginary parts
    live = diags != 0.0
    dead = ~np.concatenate((live, live))
    # the rows with terms still to come at each k
    ahead = np.logical_or.accumulate(live[:, ::-1], axis=1)[:, ::-1]
    ahead = np.concatenate((ahead, ahead))
    any_live = live.any(axis=0)
    any_dead = dead.any(axis=0)
    size = _step(x.size, rows)
    acc = np.empty((2 * rows, size))
    term = np.empty_like(acc)
    profiles = np.empty((rows, x.size), dtype=complex) if out is None else out
    for start in range(0, x.size, size):
        xs = x[start : start + size]
        n = xs.size
        if nu == 0:
            exponent = -0.5 * xs
        else:
            exponent = np.full_like(xs, -np.inf)
            pos = xs > 0.0
            exponent[pos] = 0.5 * nu * np.log(xs[pos]) - 0.5 * xs[pos] - 0.5 * math.lgamma(nu + 1)
        a, t = acc[:, :n], term[:, :n]
        lp, lc = np.zeros(n), np.ones(n)
        a.fill(0.0)
        rescaled = None
        for k in range(depth):
            if k > 0:
                lp, lc = lc, ((2 * k - 1 + nu - xs) * lc - (k - 1 + nu) * lp) / k
                big = np.abs(lc) > 2.0**600
                if big.any():
                    on = ahead[:, k]
                    lp[big] *= 2.0**-600
                    lc[big] *= 2.0**-600
                    a[np.ix_(on, big)] *= 2.0**-600
                    if rescaled is None:
                        rescaled = np.zeros((rows, n), dtype=int)
                    rescaled[np.ix_(on[:rows], big)] += 1
            if not any_live[k]:
                continue
            np.multiply(terms[:, k, None], lc, out=t)
            if any_dead[k]:
                t[dead[:, k]] = 0.0
            a += t
        if rescaled is not None and rescaled.any():
            # exponent + 0.0 keeps the bits of an unscaled weight
            weight = 2.0 * np.exp(exponent + rescaled * (600 * math.log(2.0)))
        else:
            weight = 2.0 * np.exp(exponent)
        out = profiles[:, start : start + n]
        out.real = a[:rows]
        out.imag = a[rows:]
        out *= weight
    return profiles


def _step(size: int, rows: int) -> int:
    """Length of the near-equal blocks that cover `size` values, few enough
    that a block of `rows` rows holds at most _BLOCK values (or one per row)."""
    count = max(-(-size * rows // _BLOCK), 1)
    return max(-(-size // count), 1)


def wigner_field(traj: Trajectory, grid=DEFAULT_GRID) -> list[PhaseField]:
    """Phase-space symbols over 2 pi hbar of a trajectory's matrices, on a grid.

    Returns one PhaseField per stored time, in the trajectory's order,
    under its model's units. The sector rows are read as they are stored
    (traj.sectors(), so every propagated sector must be stored),
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

    The working set is the one the module docstring describes: the
    fields, phasor, running power and radius index grow with the grid,
    one sector's profiles with its distinct radii, and nothing else.

    Each time's series drops the columns whose tail sum of |coefficients|
    is at most 2^-100 s, s being the largest |entry| that time stores
    (a time with a non-finite entry drops only zeros); a sector row left
    with none is empty. Every dyad's Wigner function is
    bounded by 1/(pi hbar), so this moves a field value by at most
    (2 + 4 top) 2^-100 s / (2 pi hbar), top being the highest stored
    sector, plus the rounding the dropped terms would have caused.
    """
    grid = _check_grid(grid)
    nq, npts = grid[4], grid[5]
    phasor = _alpha(traj.model, grid).ravel()
    radius = np.abs(phasor)
    x = radius**2
    x *= 4.0
    # e^(-i phi) = conj(alpha / |alpha|), built in alpha's buffer; 1 at the origin
    nonzero = radius > 0.0
    np.divide(phasor, radius, out=phasor, where=nonzero)
    np.conjugate(phasor, out=phasor)
    phasor[~nonzero] = 1.0
    del radius, nonzero
    xu, inv = np.unique(x, return_inverse=True)
    del x
    sectors = traj.sectors()
    peak = np.max([np.abs(rows).max(axis=1) for rows in sectors], axis=0)
    # a time with a non-finite entry keeps every nonzero column, so a
    # non-finite coefficient reaches its field
    floor = np.where(np.isfinite(peak), _TAIL_FLOOR * peak, 0.0)
    times = peak.size
    values = np.empty((times, phasor.size))
    store = np.empty((times, xu.size), dtype=complex)  # one sector's profiles
    diag = _series_cut(np.real(sectors[0]).astype(complex), floor)
    np.take(_sector_profile(diag, 0, xu, store).real, inv, axis=1, out=values, mode="clip")
    power = np.ones_like(phasor)
    size = _step(phasor.size, times)
    gathered = np.empty(times * size, dtype=complex)
    for nu in range(1, len(sectors)):
        rows = _series_cut(sectors[nu], floor)
        filled = np.flatnonzero(rows.any(axis=1))
        if filled.size == 0:
            power *= phasor
            continue
        profiles = _sector_profile(rows[filled], nu, xu, store[: filled.size])
        for start in range(0, phasor.size, size):
            block = slice(start, start + size)
            pw = power[block]
            pw *= phasor[block]
            n = pw.size
            # values[f] += 2 Re(power * profile[inv]) for each filled row f
            g = gathered[: filled.size * n].reshape(filled.size, n)
            np.take(profiles, inv[block], axis=1, out=g, mode="clip")
            np.multiply(pw, g, out=g)
            s = g.real
            np.multiply(s, 2.0, out=s)
            for f, term in zip(filled, s):
                values[f, block] += term
    del phasor, power, inv, store, gathered
    values /= 2.0 * math.pi * traj.model.hbar
    fields = []
    for total in values:  # a loop, not a comprehension, keeps _package's stacklevel
        fields.append(_package(total.reshape(npts, nq), grid))
    return fields


def whorl_phase_field(
    state: GaussianState, model: ModelSpec, t: float, grid=DEFAULT_GRID
) -> PhaseField:
    """Classically evolved Gaussian density at time t, packaged like wigner_field.

    Every phase-space point rotates at the radius-dependent rate
    Omega(|alpha|^2), so the density at time t is the initial Gaussian
    kappa e^{-kappa |alpha e^{+i Omega t} - alpha0|^2} / (2 pi hbar),
    evaluated pointwise; |alpha| is conserved, the origin is a fixed
    point, and the map is area-preserving so the mass stays 1. No number
    basis is involved, so the field is an independent oracle for the
    classical matrix route.
    """
    grid = _check_grid(grid)
    if not np.isfinite(t):
        raise ConfigError("time must be finite")
    alpha = _alpha(model, grid)
    rotated = alpha * np.exp(1j * model.classical_rate(np.abs(alpha) ** 2) * t)
    kappa = state.kappa
    values = (
        kappa
        / (2.0 * np.pi * model.hbar)
        * np.exp(-kappa * np.abs(rotated - complex(state.alpha0)) ** 2)
    )
    return _package(values, grid)


# ---------------------------------------------------------------------------
# File formats

_CSV_BLOCK_ROWS = 16
# the kernel formats |x| in [_CSV_LOW, _CSV_HIGH); the rest goes to '%.17g'
_CSV_LOW, _CSV_HIGH = 1e-250, 1e250
# a fraction this close to 1/2, or to an integer at a decade edge, goes to '%.17g'
_CSV_MARGIN = 1e-7
# decimal exponents the tables cover, with room for log10 to be one off
_E_MIN, _E_MAX = -256, 256
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


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
    """CSV matrix of the field, one grid row (fixed p) per line.

    Each value is written as '%.17g' writes it, byte for byte, by the
    kernel the module docstring describes, _CSV_BLOCK_ROWS rows at a
    time; the cells that kernel cannot prove exact go to '%.17g' itself.
    """
    q_min, q_max, p_min, p_max, nq, npts = field.grid
    values = np.asarray(field.values, dtype=float)
    header = ""
    if provenance:
        header += f"# {provenance}\n"
    header += f"# grid q_min={q_min:.17g} q_max={q_max:.17g} nq={nq}\n"
    header += f"# grid p_min={p_min:.17g} p_max={p_max:.17g} np={npts}\n"
    header += f"# total_mass={field.total_mass:.17g}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for start in range(0, values.shape[0], _CSV_BLOCK_ROWS):
            fh.write(_csv_rows(values[start : start + _CSV_BLOCK_ROWS]))


def _words(slots: np.ndarray) -> np.ndarray:
    """Rows of 8 byte slots as little-endian words, so slot k is bits 8k to 8k+7."""
    return np.ascontiguousarray(slots, dtype=np.uint8).view("<u8")[..., 0]


@functools.cache
def _csv_tables() -> tuple[np.ndarray, ...]:
    """Tables for _csv_rows, built on first use.

    Indexed by E - _E_MIN: hi + lo is 10^(16 - E) to about 2^-106
    relative; lead holds E's '0.000' in slots 1 to 5 and exp its 'e+XX'
    in slots 0 to 4 of a word, NUL where E's notation has none; point is
    the digit a decimal point follows in fixed notation. Indexed by 0 to
    9999: quad holds the four digits in slots 0, 2, 4, 6 and zeros their
    count of trailing zeros (4 for 0). keep[j, s] masks the digits of
    quad word j (digits 4j + 1 to 4j + 4) up to digit s.
    """
    exps = range(_E_MIN, _E_MAX + 1)
    hi = np.empty(len(exps))
    lo = np.empty(len(exps))
    lead = np.zeros((len(exps), 8), dtype=np.uint8)
    exp = np.zeros((len(exps), 8), dtype=np.uint8)
    point = np.zeros(len(exps), dtype=np.int64)
    for i, e in enumerate(exps):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi[i] = num / den  # int / int rounds correctly, as does the line below
        h_num, h_den = float(hi[i]).as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
        if -4 <= e < 0:
            text = b"0." + b"0" * (-1 - e)
            lead[i, 1 : 1 + len(text)] = np.frombuffer(text, dtype=np.uint8)
        elif 0 <= e < 17:
            point[i] = e
        else:
            text = b"e%+03d" % e
            if len(text) == 4:
                text = text[:2] + b"\0" + text[2:]
            exp[i, :5] = np.frombuffer(text, dtype=np.uint8)
    q = np.arange(10000)
    quad = np.zeros((10000, 8), dtype=np.uint8)
    quad[:, 0::2] = q[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    zeros = sum(q % 10**k == 0 for k in range(1, 5))
    keep = np.zeros((4, 17, 8), dtype=np.uint8)
    digit = 4 * np.arange(4)[:, None, None] + 1 + np.arange(4)
    keep[:, :, 0::2] = np.where(digit <= np.arange(17)[:, None], 0xFF, 0)
    return hi, lo, _words(lead), _words(exp), point, _words(quad), zeros, _words(keep)


def _scaled(a: np.ndarray, e: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """Integer part I and fraction f of a * 10^(16 - e), to about 1e-14.

    a * hi is taken exactly as p plus its rounding error (Dekker's
    product, Numer. Math. 18, 224 (1971), with Veltkamp's split, as numpy
    has no fused multiply-add); a * lo is added to the error.
    """
    h, l = hi[e - _E_MIN], lo[e - _E_MIN]
    p = a * h
    a1, a2 = _split(a)
    h1, h2 = _split(h)
    err = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2
    whole = np.floor(p)
    rest = (p - whole) + (err + a * l)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


def _csv_rows(values: np.ndarray) -> bytes:
    """The CSV lines of a block of rows, each ','.join('%.17g' % v) + '\\n'.

    A cell is 48 byte slots, written as six words: sign | '0.000' lead |
    17 digits, each followed by an optional point | 'e+XXX' | separator,
    then two spare slots. Slots a cell does not use hold NUL, which
    bytes.translate squeezes out. The cells that the module docstring
    sends to '%.17g' overwrite their slots with its bytes.
    """
    hi, lo, lead, exp, point, quad, zeros, keep = _csv_tables()
    cols = values.shape[1]
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= _CSV_LOW) & (a < _CSV_HIGH)  # false on NaN
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e, hi, lo)
    # log10 can miss the decade by one next to a power of ten
    step = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        whole[moved], frac[moved] = _scaled(a[moved], e[moved], hi, lo)
    near_int = (frac < _CSV_MARGIN) | (frac > 1.0 - _CSV_MARGIN)
    fast &= (whole >= 10**16) & (whole < 10**17) & (np.abs(frac - 0.5) >= _CSV_MARGIN)
    fast &= ~(near_int & ((whole == 10**16) | (whole == 10**17 - 1)))
    digits = np.where(fast, whole + (frac > 0.5), 10**16)
    top = digits == 10**17
    digits[top] = 10**16
    e[top] += 1
    e[~fast] = 0
    i = e - _E_MIN

    first, rest = np.divmod(digits, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    quads = [*np.divmod(upper, 10**4), *np.divmod(lower, 10**4)]
    trailing = zeros[quads[3]]
    for n, q in enumerate(quads[2::-1], 1):
        trailing += np.where(trailing == 4 * n, zeros[q], 0)
    last = 16 - trailing  # the last nonzero digit; digit 0 is never zero
    at = point[i]
    shown = np.maximum(last, at)
    words = np.empty((x.size, 6), dtype="<u8")
    words[:, 0] = lead[i] | (first.astype("<u8") + ord("0")) << 48
    words[:, 0] |= np.signbit(x).astype("<u8") * ord("-")
    for j, q in enumerate(quads):
        words[:, 1 + j] = quad[q] & keep[j, shown]
    words[:, 5] = exp[i] | ord(",") << 40
    words[cols - 1 :: cols, 5] ^= (ord(",") ^ ord("\n")) << 40
    slots = words.view(np.uint8)
    dot = np.flatnonzero((last > at) & (lead[i] == 0))
    slots[dot, 7 + 2 * at[dot]] = ord(".")
    for k in np.flatnonzero(~fast):
        text = b"%.17g" % x[k]
        slots[k, :45] = 0
        slots[k, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return slots.tobytes().translate(None, b"\0")
