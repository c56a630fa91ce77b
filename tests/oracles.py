"""Reference code that only the tests use.

The package builds every sector generator with one function,
generators.all_generator_blocks. The routes it does not take, and the
closed forms the tests pin it against, live here:

- sector reads one generator sector from the production builder as a
  square block (square turns a 1-D uncorrected sector into one), blocks
  lists the builder's sectors 0 .. top in order, and
  rung builds one correction rung C_j (commutator route) or D_j
  (Moyal-Galerkin route, D_0 being the Galerkin Poisson generator) on one
  sector with the production engines, pad and node count, D_j from a
  per-run D_j builder made for that one sector;
- quantum_block, the quantum sector generator from
  ModelSpec.level_frequencies, one spectrum per sector;
- the sl(2) sector blocks X1, X2, X3, P and the orthogonal U below, U from
  hermitian_eig, a Hermitian eigendecomposition after check_hermitian, the
  scan for max|A - A^H| that sector_rows runs too;
- classical_block_analytic, the closed-form Liouville generator;
- coherent_density and wigner_dyad_symbol, exact states and dyad symbols;
- stacked_trajectory, a Trajectory holding given Hermitian matrices as its
  times, which is how the tests hand a matrix to wigner_field or
  moment_track;
- purity_by_sector_products, Tr G(t)^2 summed from the products of each
  sector's rows with those of its conjugate sector, the reference for
  Trajectory.purity_series, which reads only the per-sector norms;
- sector_rows, the sector rows 0 .. top that evolve takes, read from a
  Hermitian test matrix, and dense, the matrix reassembled from them;
- laguerre_orthonormal_bare, one orthonormal Laguerre family at a time,
  the reference for the stacked families of generators._laguerre_families
  that the Moyal sectors read; radial_profiles, the weighted orthonormal
  Laguerre functions on the same recurrence; and groenewold_by_quadrature,
  the initial state by Bessel-weighted radial quadrature, a route
  independent of the closed form in states;
- wigner_field_pointwise, the field synthesis that runs every sector's
  radial recurrence on every grid point rather than once per distinct x,
  one matrix at a time (sector_profile_rowwise), each sector row cut where
  its tail of coefficients drops to TAIL_FLOOR times the matrix's largest
  |entry| (series_cut) as production cuts it; wigner_field_full_depth,
  the same synthesis with no cut, and the sum of the moduli of its sector
  terms at each point, which bounds every partial sum of the field;
- whorl_field_pointwise, the classical whorl density on meshgrid axes, the
  reference for render.whorl_phase_field's grid map;
- thermal_field, the closed-form field of a geometric diagonal c z^n, and
  the bound its truncation to n < N moves a field value by;
- field_csv_pointwise, the field CSV written one '%.17g' call per value,
  the reference for render.write_field_csv's vectorized formatter;
- break_time, the first split of two first-moment curves;
- moments_by_time, the q/p statistics and both width forms recomputed
  one time at a time on Python floats, the reference for the columns of
  observables.moment_track and moment_width_variant;
- lie_poisson_flow, the classical limit of the sector algebra: the
  su(1,1) Lie-Poisson flow of a function Q of J = (J1, J2, J3);
- interior and rel_interior, a block without its edge rows and the
  scale-relative residual on it.

Superoperators act on number-basis matrices G by left and right ladder
multiplication. Because every Hamiltonian here is a function of the number
operator, all four dynamics preserve the diagonal index nu = row - column,
and on the sector spanned by the dyads |n+nu><n| the relevant
superoperators restrict to real tridiagonal matrices:

    X1 = diag(n + (|nu|+1)/2)                     (symmetric, diagonal)
    X2[n, n+1] = X2[n+1, n] = sqrt((n+1)(n+|nu|+1))/2   (symmetric)
    X3[n, n+1] = -X3[n+1, n] = sqrt((n+1)(n+|nu|+1))/2  (antisymmetric)
    P = X1 + X2

with commutation relations [X2, X1] = X3, [X3, X2] = X1, [X3, X1] = X2
holding exactly in the infinite basis and on the interior of a truncated
block. With X+- = X2 +- X1 the shifts X3 X+- = X+- (X3 +- 1) hold, so the
orthogonal matrix U = exp(theta X3) with theta = log(7/3)/4 rescales
U X+- U^T = (7/3)^(+-1/4) X+-. That gives the similarity identity used to
diagonalize the sextic semiquantum generator:

    U (3(X1 X2 + X2 X1)/2 - (X1 - X2)^2) U^T = (sqrt(21)/4)(X+^2 - X-^2),

where the right side equals (sqrt(21)/2)(X1 X2 + X2 X1). A commonly quoted
variant with (X+^2 - X-^2)/4 = X1 X2 + X2 X1 overstates that factor by two;
the forms implemented here are verified as matrix identities in the tests.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from groenewold_lab import generators
from groenewold_lab.errors import ConfigError, ValidationFailed
from groenewold_lab.evolve import Trajectory, bessel_i_scaled, composite_gauss_legendre_rule
from groenewold_lab.generators import all_generator_blocks
from groenewold_lab.model import derivative
from groenewold_lab.observables import mean_alpha_series

THETA = math.log(7.0 / 3.0) / 4.0


def sector(dynamics, model, nu, n):
    """Generator of one dynamics on sector nu, size n, from all_generator_blocks,
    as a square block."""
    anu = abs(nu)
    block = square(all_generator_blocks(dynamics, model, n + anu, nu_top=anu)(anu))
    return np.conj(block) if nu < 0 else block


def blocks(dynamics, model, n, top=None) -> list:
    """The generators of the sectors 0 .. top (default n - 1) of an n-level
    basis from all_generator_blocks, in sector order."""
    top = n - 1 if top is None else top
    block = all_generator_blocks(dynamics, model, n, nu_top=top)
    return [block(nu) for nu in range(top + 1)]


def square(block: np.ndarray) -> np.ndarray:
    """A sector generator as a square block: a sector with no correction
    arrives as its 1-D diagonal."""
    return np.diag(block) if block.ndim == 1 else block


def quantum_block(nu, model, n):
    """Diagonal commutator generator -i (E_{k+|nu|} - E_k) / hbar on sector nu, size n."""
    block = np.diag(-1j * model.level_frequencies(abs(nu), n))
    return np.conj(block) if nu < 0 else block


def rung(engine, model, j, nu, n):
    """C_j (engine "hilbert") or D_j (engine "moyal") on sector nu >= 0, size n.

    Built by that engine for nmax = n + nu on the pad and node count that
    all_generator_blocks uses: the pair list on nmax + 2j levels, the
    Gauss-Laguerre rule on 2 nmax + 16 nodes.
    """
    if engine == "hilbert":
        pairs = generators.hilbert_correction_pairs(model, j, n + nu + 2 * j)
        return generators.nu_block_from_pairs(pairs, nu, n)
    if engine == "moyal":
        return generators._moyal_sectors(model, j, n + nu, 2 * (n + nu) + 16)(nu)
    raise ValueError(f"unknown engine {engine!r}")


def interior(a: np.ndarray, guard: int) -> np.ndarray:
    """Top-left block with `guard` rows and columns removed.

    Products of truncated banded matrices are corrupted near the edge;
    identities are asserted on this interior only.
    """
    if guard < 0:
        raise ValueError("guard must be >= 0")
    n = a.shape[0] - guard
    if n <= 0:
        raise ValueError("guard swallows the whole block")
    return a[:n, :n]


def rel_interior(a, b, guard):
    # scale-relative residual: block entries grow with basis size, so the
    # identity gates normalize by the reference magnitude (floor 1)
    w = min(guard, a.shape[0] - 1)
    diff = np.abs(interior(a - b, w)).max()
    return float(diff / max(1.0, np.abs(interior(b, w)).max()))


def x_blocks(nu: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrictions of X1, X2, X3 to the nu sector, size n."""
    anu = abs(nu)
    k = np.arange(n, dtype=float)
    off = np.sqrt((k[:-1] + 1.0) * (k[:-1] + anu + 1.0)) / 2.0
    x1 = np.diag(k + (anu + 1.0) / 2.0)
    x2 = np.diag(off, 1) + np.diag(off, -1)
    x3 = np.diag(off, 1) - np.diag(off, -1)
    return x1, x2, x3


def p_block(nu: int, n: int) -> np.ndarray:
    """Tridiagonal P = X1 + X2 on the nu sector."""
    x1, x2, _ = x_blocks(nu, n)
    return x1 + x2


def check_hermitian(a, tol: float = 1e-10) -> None:
    """Raise ValidationFailed unless max|A - A^H| <= tol * max(1, max|A|).

    A matrix with a NaN entry fails: its deviation compares False.
    """
    a = np.asarray(a)
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    dev = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if not dev <= tol * scale:
        raise ValidationFailed(
            f"matrix not hermitian: deviation {dev:.3e} > {tol:.1e} * scale {scale:.3e}"
        )


def hermitian_eig(a, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix, after check_hermitian.

    Returns (eigenvalues ascending, eigenvector columns).
    """
    a = np.asarray(a)
    check_hermitian(a, tol)
    return np.linalg.eigh(a)


def u_block(nu: int, n: int) -> np.ndarray:
    """Orthogonal U = exp(theta X3) via eigendecomposition of i X3.

    X3 is real antisymmetric, so i X3 is Hermitian with real spectrum and
    exp(theta X3) = V exp(-i theta lambda) V^+ is real orthogonal to
    rounding; the real part is returned.
    """
    _, _, x3 = x_blocks(nu, n)
    lam, vec = hermitian_eig(1j * x3)
    u = (vec * np.exp(-1j * THETA * lam)) @ vec.conj().T
    return u.real


def classical_block_analytic(nu: int, model, n: int) -> np.ndarray:
    """Liouville generator in closed form: -i nu omega h'(P/2).

    The radial symbol derivative h'(u) evaluated on the tridiagonal
    multiplication operator u -> P/2; exact in the infinite basis,
    edge-corrupted like any truncated polynomial of a banded matrix.
    """
    half_p = p_block(nu, n) / 2.0
    acc = np.zeros((n, n))
    coeffs = derivative(model.classical_symbol())
    for k, c in enumerate(coeffs):
        if c:
            acc = acc + float(c) * np.linalg.matrix_power(half_p, k)
    sign = 1j if nu < 0 else -1j
    return sign * abs(nu) * (model.omega / model.mu) * acc


def coherent_density(alpha0: complex, n_basis: int) -> np.ndarray:
    """Exact coherent-state projector |alpha0><alpha0| in the number basis."""
    v = np.empty(n_basis, dtype=complex)
    v[0] = np.exp(-abs(alpha0) ** 2 / 2.0)
    for n in range(1, n_basis):
        v[n] = v[n - 1] * alpha0 / math.sqrt(n)
    return np.outer(v, v.conj())


def stacked_trajectory(mats, model):
    """A Trajectory holding the given Hermitian matrices as its times 0, 1, ..."""
    mats = [np.asarray(g, dtype=complex) for g in mats]
    dim = mats[0].shape[0]
    history = {nu: np.stack([np.diagonal(g, -nu) for g in mats]) for nu in range(dim)}
    times = np.arange(len(mats), dtype=float)
    return Trajectory("quantum", model, times, dim, history)


def purity_by_sector_products(traj) -> np.ndarray:
    """Tr G(t)^2 = sum_nu sum_k g_nu g_-nu over nu = -top .. top, read from
    the rows of a trajectory that stores every sector it propagated."""
    top = max(traj.history)
    total = np.zeros(len(traj.times), dtype=complex)
    for nu in range(-top, top + 1):
        total += (traj.diagonal_history(nu) * traj.diagonal_history(-nu)).sum(axis=1)
    return total


def sector_rows(m) -> list:
    """Sector rows of a Hermitian matrix, as groenewold_from_gaussian returns them.

    rows[nu][k] = m[k + nu, k] for nu = 0 .. top, sector 0 real, top the
    highest sector with a nonzero entry (0 when m is diagonal).
    """
    m = np.asarray(m)
    check_hermitian(m)
    top = next((nu for nu in range(len(m) - 1, 0, -1) if np.any(np.diagonal(m, -nu))), 0)
    return [np.diagonal(m).real.copy()] + [np.diagonal(m, -nu).copy() for nu in range(1, top + 1)]


def dense(rows) -> np.ndarray:
    """The Hermitian matrix whose sector rows 0 .. top are rows."""
    n = len(rows[0])
    out = np.zeros((n, n), dtype=complex)
    k = np.arange(n)
    for nu, row in enumerate(rows):
        out[k[nu:], k[: n - nu]] = row
        out[k[: n - nu], k[nu:]] = np.conj(row)
    return out


def _orthonormal_recurrence(rows: np.ndarray, nu: int, x: np.ndarray) -> None:
    """Fill rows 1.. of the orthonormal Laguerre family given row 0.

    Jacobi-matrix form: p_{n+1} = ((x - a_n) p_n - b_n p_{n-1}) / b_{n+1}
    with a_n = 2n + nu + 1 and b_n = sqrt(n (n + nu)).
    """
    nmax = rows.shape[0] - 1
    if nmax >= 1:
        rows[1] = (x - (nu + 1.0)) * rows[0] / np.sqrt(nu + 1.0)
    for n in range(1, nmax):
        bn = np.sqrt(n * (n + nu))
        bn1 = np.sqrt((n + 1.0) * (n + 1 + nu))
        rows[n + 1] = ((x - (2 * n + nu + 1.0)) * rows[n] - bn * rows[n - 1]) / bn1


def laguerre_orthonormal_bare(nmax: int, nu: int, x) -> np.ndarray:
    """Rows (-1)^n sqrt(n!/(n+nu)!) L_n^(nu)(x), without the weight factor.

    Combined with a Gauss quadrature rule for the weight x^nu e^-x these
    rows are discretely orthonormal; use them when the weight lives in the
    quadrature rule instead of in the integrand.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = np.empty((nmax + 1, x.size))
    rows[0] = np.exp(-0.5 * math.lgamma(nu + 1))
    _orthonormal_recurrence(rows, nu, x)
    return rows


def radial_profiles(nmax: int, nu: int, x) -> np.ndarray:
    """Orthonormal radial profiles phi_n^(nu)(x) for n = 0..nmax.

    phi_n(x) = (-1)^n sqrt(n!/(n+nu)!) x^(nu/2) e^(-x/2) L_n^(nu)(x).
    The rows satisfy integral_0^inf phi_m phi_n dx = delta_mn, so every
    entry is O(1); this is the overflow-safe route to number-basis radial
    functions at large n and nu.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = np.empty((nmax + 1, x.size))
    phi0 = np.zeros(x.size)
    pos = x > 0
    phi0[pos] = np.exp(0.5 * nu * np.log(x[pos]) - 0.5 * x[pos] - 0.5 * math.lgamma(nu + 1))
    if nu == 0:
        phi0[~pos] = 1.0
    rows[0] = phi0
    _orthonormal_recurrence(rows, nu, x)
    return rows


def groenewold_by_quadrature(state, n_basis: int) -> np.ndarray:
    """Groenewold matrix of a Gaussian state by radial quadrature.

    Diagonal by diagonal,

        G[n+nu, n] = e^(i nu phi0) * 4 kappa *
            integral_0^inf s phi_n^(nu)(4 s^2) e^(-kappa (s-a0)^2)
                           ive(nu, 2 kappa s a0) ds,

    on a composite Gauss-Legendre rule over [0, a0 + 10/sqrt(kappa)] with
    40 nodes per oscillation of the highest profile. Every factor is O(1),
    and bessel_i_scaled raises ValueError once 2 kappa s a0 passes its
    series domain (1500). Sectors stop, as in the closed form, after two
    in a row whose entries all lie below 1e-17.
    """
    a0 = abs(state.alpha0)
    phi0 = math.atan2(state.alpha0.imag, state.alpha0.real) if a0 > 0 else 0.0
    kappa = state.kappa
    smax = a0 + 10.0 / math.sqrt(kappa)
    # radial oscillation wavenumber of the highest profile, uniform in s
    h = min(0.2, math.pi / (4.0 * math.sqrt(1.5 * n_basis + 1.0)))
    s, weights = composite_gauss_legendre_rule(0.0, smax, 2 * max(8, math.ceil(smax / h)), 10)
    x = 4.0 * s * s
    base = weights * s * np.exp(-kappa * (s - a0) ** 2)
    g = np.zeros((n_basis, n_basis), dtype=complex)
    quiet = 0
    for nu in range(n_basis):
        rows = radial_profiles(n_basis - 1 - nu, nu, x)
        bess = bessel_i_scaled(nu, 2.0 * kappa * s * a0)
        col = np.exp(1j * nu * phi0) * 4.0 * kappa * (rows @ (base * bess))
        idx = np.arange(n_basis - nu)
        g[idx + nu, idx] = col
        g[idx, idx + nu] = np.conj(col)
        quiet = quiet + 1 if np.abs(col).max() < 1e-17 else 0
        if quiet >= 2:
            break
    return g


def wigner_dyad_symbol(n: int, m: int, q, p, model) -> np.ndarray:
    """Weyl symbol of the dyad |n><m| at phase-space points (q, p).

    In the complex coordinate alpha = (sqrt(m w) q + i p / sqrt(m w)) /
    sqrt(2 hbar) the symbol is 2 e^(i (m - n) phi) phi_k^(|n-m|)(4 |alpha|^2)
    with k = min(n, m); in particular the vacuum dyad gives the positive
    Gaussian 2 e^(-2 |alpha|^2) and diagonal dyads take the value 2 (-1)^n
    at the origin. These symbols are mutually orthogonal with weight
    dq dp / (2 pi hbar), which is what makes diagonal-by-diagonal synthesis
    and projection exact.
    """
    if n < 0 or m < 0:
        raise ConfigError("dyad indices must be nonnegative")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    scale = math.sqrt(model.m * model.omega)
    alpha = (scale * q + 1j * p / scale) / math.sqrt(2.0 * model.hbar)
    x = 4.0 * np.abs(alpha) ** 2
    nu = abs(n - m)
    k = min(n, m)
    radial = radial_profiles(k, nu, np.atleast_1d(x).ravel())[k]
    radial = radial.reshape(np.shape(x))
    if nu == 0:
        out = 2.0 * radial + 0j
    else:
        phi = np.angle(alpha)
        out = 2.0 * radial * np.exp(1j * (m - n) * phi)
    return out if out.shape else complex(out)


TAIL_FLOOR = 2.0**-100


def series_cut(diag, floor: float) -> np.ndarray:
    """diag up to its last entry k whose tail sum_{j >= k} |diag[j]| is not at most floor.

    The tail is summed from the end one term at a time, so it rounds as
    a running sum does, and a NaN tail is kept; a row whose whole sum is
    at most floor is cut to nothing.
    """
    mags = np.abs(diag)
    tail = 0.0
    for k in range(len(diag) - 1, -1, -1):
        tail = tail + mags[k]
        if not tail <= floor:
            return diag[: k + 1]
    return diag[:0]


def sector_profile_rowwise(diag, nu, x) -> np.ndarray:
    """One matrix's radial profile of sector nu, as render._sector_profile.

    The complex terms are accumulated in one complex array, recurrence and
    all, for this diagonal alone; the production profile runs the
    recurrence once for several diagonals and adds real and imaginary parts
    apart, which must agree with this bit for bit.
    """
    if nu == 0:
        weight = 2.0 * np.exp(-0.5 * x)
    else:
        exponent = np.full_like(x, -np.inf)
        pos = x > 0.0
        exponent[pos] = 0.5 * nu * np.log(x[pos]) - 0.5 * x[pos] - 0.5 * math.lgamma(nu + 1)
        weight = 2.0 * np.exp(exponent)
    acc = np.zeros(x.shape, dtype=complex)
    l_prev = np.zeros_like(x)
    l_cur = np.ones_like(x)
    coef = 1.0
    for k in range(len(diag)):
        if k > 0:
            l_prev, l_cur = l_cur, ((2 * k - 1 + nu - x) * l_cur - (k - 1 + nu) * l_prev) / k
            coef *= -math.sqrt(k / (k + nu))
        if diag[k] != 0.0:
            acc += (coef * diag[k]) * l_cur
    return weight * acc


def sector_terms_pointwise(g, model, grid, full_depth: bool = False):
    """Each nonzero sector's term in the field sum of g, and its modulus, per grid point.

    Yields pairs of flat arrays in order of nu, sector 0 first: Re of its
    profile and |profile|, then 2 Re(e^(-i nu phi) profile) and 2 |profile|
    for each higher sector whose row the cut leaves nonzero. Each sector
    row is cut where its tail of |coefficients| drops to TAIL_FLOOR times
    the largest |entry| of g, as render.wigner_field cuts it; full_depth,
    or a non-finite entry, keeps every nonzero coefficient.
    """
    g = np.asarray(g, dtype=complex)
    peak = np.abs(np.tril(g)).max()
    floor = TAIL_FLOOR * peak if math.isfinite(peak) and not full_depth else 0.0
    q_min, q_max, p_min, p_max, nq, npts = grid
    qs = np.linspace(q_min, q_max, nq)
    ps = np.linspace(p_min, p_max, npts)
    scale = math.sqrt(model.m * model.omega)
    alpha = (scale * qs[None, :] + 1j * ps[:, None] / scale) / math.sqrt(2.0 * model.hbar)
    x = (4.0 * np.abs(alpha) ** 2).ravel()
    radius = np.abs(alpha).ravel()
    phasor = np.ones_like(x, dtype=complex)
    nonzero = radius > 0.0
    phasor[nonzero] = (alpha.ravel()[nonzero] / radius[nonzero]).conj()
    diag0 = series_cut(np.real(np.diagonal(g)).astype(complex), floor)
    profile = sector_profile_rowwise(diag0, 0, x)
    yield profile.real.astype(float), np.abs(profile)
    power = np.ones_like(phasor)
    for nu in range(1, g.shape[0]):
        power = power * phasor
        diag = series_cut(np.diagonal(g, offset=-nu), floor)
        if np.any(diag):
            profile = sector_profile_rowwise(diag, nu, x)
            yield 2.0 * (power * profile).real, 2.0 * np.abs(profile)


def wigner_field_pointwise(g, model, grid) -> np.ndarray:
    """Values of render.wigner_field with each radial profile evaluated per point.

    Same float operations in the same order as the production path, which
    evaluates each profile once per distinct x and gathers it back and
    accumulates several matrices' profiles at once, so the two agree bit
    for bit; sector_terms_pointwise says where the series are cut.
    """
    terms = sector_terms_pointwise(g, model, grid)
    total, _ = next(terms)
    for term, _ in terms:
        total = total + term
    return (total / (2.0 * math.pi * model.hbar)).reshape(grid[5], grid[4])


def wigner_field_full_depth(g, model, grid) -> tuple[np.ndarray, np.ndarray]:
    """The field of g with every series at full depth, and its rounding scale.

    The scale is the sum of the moduli of the sector terms at each point:
    every sector term and every partial sum of the field is within it in
    magnitude, so one rounding of any of them moves the field by at most
    about its ulp. Both are divided by 2 pi hbar, as the field is.
    """
    total = scale = 0.0
    for term, modulus in sector_terms_pointwise(g, model, grid, full_depth=True):
        total = total + term
        scale = scale + modulus
    norm = 2.0 * math.pi * model.hbar
    return (total / norm).reshape(grid[5], grid[4]), (scale / norm).reshape(grid[5], grid[4])


def whorl_field_pointwise(state, model, t, qs, ps) -> np.ndarray:
    """Values of render.whorl_phase_field on the axes qs and ps, by meshgrid.

    W(qs[j], ps[i]) at [i, j]: the initial Gaussian at alpha rotated by
    e^(+i Omega(|alpha|^2) t), with alpha formed on np.meshgrid axes rather
    than render._alpha's broadcast ones, so the two agree bit for bit.
    """
    s = np.sqrt(model.m * model.omega)
    qgrid, pgrid = np.meshgrid(qs, ps)
    alpha = (s * qgrid + 1j * pgrid / s) / np.sqrt(2.0 * model.hbar)
    rotated = alpha * np.exp(1j * model.classical_rate(np.abs(alpha) ** 2) * t)
    kappa = state.kappa
    return (
        kappa
        / (2.0 * np.pi * model.hbar)
        * np.exp(-kappa * np.abs(rotated - complex(state.alpha0)) ** 2)
    )


def thermal_field(c: float, z: float, n_basis: int, model, grid):
    """Field of the diagonal matrix c z^n (n < n_basis, 0 < z < 1) on a grid,
    in closed form, and the most the levels n >= n_basis move a value.

    The symbol of |n><n| is 2 (-1)^n e^(-x/2) L_n(x), x = 4|alpha|^2, so the
    Laguerre generating function sums the infinite diagonal to
    2 c / (1 + z) exp(-x (1 - z) / (2 (1 + z))); each dropped level moves
    the symbol by at most 2 c z^n. Both are over 2 pi hbar.
    """
    q_min, q_max, p_min, p_max, nq, npts = grid
    s = np.sqrt(model.m * model.omega)
    qgrid, pgrid = np.meshgrid(np.linspace(q_min, q_max, nq), np.linspace(p_min, p_max, npts))
    x = 4.0 * np.abs((s * qgrid + 1j * pgrid / s) / np.sqrt(2.0 * model.hbar)) ** 2
    scale = 2.0 * c / (2.0 * np.pi * model.hbar)
    values = scale / (1.0 + z) * np.exp(-x * (1.0 - z) / (2.0 * (1.0 + z)))
    return values, scale * z**n_basis / (1.0 - z)


def field_csv_pointwise(field, path, provenance: str = "") -> None:
    """The CSV that render.write_field_csv writes, formatting one value at a time."""
    q_min, q_max, p_min, p_max, nq, npts = field.grid
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write(f"# grid q_min={q_min:.17g} q_max={q_max:.17g} nq={nq}\n")
        fh.write(f"# grid p_min={p_min:.17g} p_max={p_max:.17g} np={npts}\n")
        fh.write(f"# total_mass={field.total_mass:.17g}\n")
        for row in field.values.tolist():
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def break_time(traj_a, traj_b, threshold: float) -> float:
    """First shared time with |<alpha>_A - <alpha>_B| > threshold.

    Returns +inf when the first moments never split past the threshold
    on the stored grid. The value is grid-resolution limited: a guide,
    not a sharp quantity.
    """
    if not (isinstance(threshold, (int, float)) and math.isfinite(threshold) and threshold > 0):
        raise ConfigError("threshold must be a positive finite number")
    ta, tb = traj_a.times, traj_b.times
    if len(ta) != len(tb) or not np.array_equal(ta, tb):
        raise ConfigError("trajectories must share one time grid")
    gap = np.abs(mean_alpha_series(traj_a) - mean_alpha_series(traj_b))
    over = np.flatnonzero(gap > threshold)
    if over.size == 0:
        return math.inf
    return float(ta[over[0]])


def moments_by_time(moments, model) -> dict:
    """mean_q, mean_p, dq, dp, dq_paper and dp_paper of a Moments, each
    recomputed one time at a time on Python floats from its mean_alpha,
    alpha2 and abs2 columns.

    The primary widths clip a negative variance to 0 with max(v, 0.0),
    which passes -0.0 and NaN unchanged; the variant widths, from
    Re{<alpha>^2} by Python's complex z**2, are NaN where the radicand is
    negative.
    """
    hbar = model.hbar
    m_omega = model.m * model.omega
    cols: dict = {name: [] for name in ("mean_q", "mean_p", "dq", "dp", "dq_paper", "dp_paper")}
    for a, a2, abs2 in zip(
        moments.mean_alpha.tolist(), moments.alpha2.tolist(), moments.abs2.tolist()
    ):
        mean_q = math.sqrt(2.0 * hbar / m_omega) * a.real
        mean_p = math.sqrt(2.0 * hbar * m_omega) * a.imag
        var_q = (hbar / m_omega) * (abs2 + a2.real) - mean_q**2
        var_p = (hbar * m_omega) * (abs2 - a2.real) - mean_p**2
        bracket = abs2 - (a**2).real
        paper_q = (hbar / m_omega) * bracket - mean_q**2
        paper_p = (hbar * m_omega) * bracket - mean_p**2
        cols["mean_q"].append(mean_q)
        cols["mean_p"].append(mean_p)
        cols["dq"].append(math.sqrt(max(var_q, 0.0)))
        cols["dp"].append(math.sqrt(max(var_p, 0.0)))
        cols["dq_paper"].append(math.sqrt(paper_q) if paper_q >= 0.0 else math.nan)
        cols["dp_paper"].append(math.sqrt(paper_p) if paper_p >= 0.0 else math.nan)
    return {name: np.array(values) for name, values in cols.items()}


def lie_poisson_flow(grad_q, k: float, t_end: float, escape: float = 1e8):
    """Integrate dJ/dt = {J, Q} from J = (k, 0, 0) on the su(1,1) hyperboloid.

    The brackets are {J1, J2} = J3, {J2, J3} = -J1 and {J3, J1} = J2, so
    J1^2 - J2^2 - J3^2 (= k^2 at the start) is a Casimir. grad_q(J)
    returns (dQ/dJ1, dQ/dJ2, dQ/dJ3). solve_ivp runs at rtol 1e-10 and
    atol 1e-12 and stops at t_end or when max|J| passes escape. Returns
    (t, J), J of shape (3, len(t)), the last column being where it stopped.
    """

    def rhs(_, j):
        q1, q2, q3 = grad_q(j)
        return [q2 * j[2] - q3 * j[1], -q1 * j[2] - q3 * j[0], q1 * j[1] + q2 * j[0]]

    def escaped(_, j):
        return np.abs(j).max() - escape

    escaped.terminal = True
    sol = solve_ivp(rhs, (0.0, t_end), [k, 0.0, 0.0], rtol=1e-10, atol=1e-12, events=escaped)
    return sol.t, sol.y
