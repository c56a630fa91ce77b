"""Evolution generators for the four dynamics, one diagonal sector at a time.

Every Hamiltonian here is a polynomial in the harmonic number operator, so
all four dynamics act sector by sector on the diagonals of the Groenewold
matrix: dg/dt = L g with g the nu-th diagonal. The four families:

  quantum        exact commutator flow; diagonal generator built from the
                 spectrum, -i (E_{n+|nu|} - E_n) / hbar.
  classical      the Liouville flow of the Weyl symbol, written in Hilbert
                 space as the quantum commutator plus an inverse-sinc ladder
                 of correction superoperators C_j (j = 1 .. K-1) built from
                 ladder-derivative commutators; the ladder terminates
                 because derivatives of order 2K of the Hamiltonian are
                 scalars.
  semiquantum-j  quantum plus the first j rungs of that ladder; j = K-1
                 reaches classical.
  semiclassical-j classical plus the first j rungs of the Moyal ladder D_j
                 (Galerkin matrices of the higher Moyal terms on the dyad
                 symbols); j = K-1 reaches quantum.

Two independent correction engines are implemented. The commutator route
builds C_j as superoperator pair lists on a padded basis and restricts
them to one diagonal sector. Every ladder product and ladder derivative
of h(n) has one nonzero diagonal, so a pair member is carried as the
one-offset matrix (d, v), M[r, r - d] = v[r] with v[r] = 0 wherever
r - d leaves the basis: a product is one elementwise product plus a
shift, and a pair adds to one diagonal of a sector block. Each entry of
a truncated dense product of such matrices is one rounded product (the
other terms are exact zeros), so the result is bit-exact against dense
matrices. The Moyal-Galerkin route applies the odd derivative terms of
the Moyal bracket to the dyad symbols in closed form (a symbolic radial
jet per sector) and projects back with a generalized Gauss-Laguerre rule
that integrates the resulting polynomial integrands exactly. A jet starts
from the float coefficients of the model's exact h(u) and is carried as
coefficient arrays, which numpy.polynomial.polynomial differentiates
(polyder), adds (polyadd), multiplies by u (polymulx) and evaluates
(polyval) at the nodes. The tests
compare both engines, rung by rung, with each other and with the
analytic tridiagonal Liouville generator.

all_generator_blocks, the one builder of sector generators, builds one
sector at a time: each C_j pair list (on a basis padded by exactly the 2j
levels a sector entry reads) and D_1's h-jets once per call, and each D_1
sector from one stacked Laguerre recurrence on a generalized Gauss-Laguerre
rule that checks itself: gauss_genlaguerre_rule raises
QuadratureNotConverged when its nodes or weights are not finite or the
weights miss their exact sum Gamma(nu + 1). The rule is a numpy port of
scipy.special.roots_genlaguerre that gives scipy's nodes and weights bit
for bit, so no run imports scipy. The builder's comments give both sizes.
The module keeps nothing between calls: the dynamics that share the C_1
and C_2 rungs each rebuild them. rung_count says which rungs each
dynamics needs.

The nu = 0 sector is frozen under all four dynamics (every generator is a
multiple of nu), so its generator is the quantum one, an exact zero, and
no correction is built for it; the engines themselves are cross-checked
against that statement in the tests. A sector with no correction is
yielded as its 1-D diagonal, only a corrected one as a square block.
Blocks are built for nu >= 0 only; the block for -nu is the complex
conjugate of the block for nu.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import comb, exp, factorial, floor, inf, lgamma, log

import numpy as np

from .errors import ConfigError, QuadratureNotConverged, ValidationFailed
from .model import ModelSpec

__all__ = [
    "DYNAMICS",
    "all_generator_blocks",
    "hilbert_correction_pairs",
    "nu_block_from_pairs",
    "rung_count",
]

DYNAMICS = ("quantum", "semiquantum1", "classical", "semiclassical1")

# x / sin(x) = 1 + x^2/6 + 7 x^4/360 + 31 x^6/15120 + ...
_INVERSE_SINC = {1: Fraction(1, 6), 2: Fraction(7, 360), 3: Fraction(31, 15120)}


# ---------------------------------------------------------------------------
# commutator (Hilbert-space) correction engine

def _mul(x: tuple, y: tuple) -> tuple:
    """Product of one-offset matrices: (XY)[r, r - dx - dy] = vx[r] vy[r - dx]."""
    (dx, vx), (dy, vy) = x, y
    s = abs(dx)
    return dx + dy, vx * np.pad(vy, s)[s - dx : s - dx + len(vy)]


def _commutator(x: tuple, y: tuple) -> tuple:
    """xy - yx, which again has the single offset dx + dy."""
    (d, xy), (_, yx) = _mul(x, y), _mul(y, x)
    return d, xy - yx


def _lowering_raising(msize: int) -> tuple:
    """a and a^dag on the msize-level basis as one-offset matrices."""
    root = np.sqrt(np.arange(float(msize)))
    return (-1, np.append(root[1:], 0.0)), (1, root)


def _h_derivative(h: tuple, n_up: int, n_down: int) -> tuple:
    """Mixed ladder derivative of a one-offset matrix: n_up raising, n_down lowering."""
    a, adag = _lowering_raising(len(h[1]))
    out = h
    for _ in range(n_up):
        out = _commutator(out, adag)
    for _ in range(n_down):
        out = _commutator(a, out)
    return out


def hilbert_correction_pairs(model: ModelSpec, j: int, msize: int) -> list:
    """Pair list (L, R, c) with C_j(G) = sum c * L G R on the padded basis.

    L and R are one-offset matrices (d, v), M[r, r - d] = v[r]. Their
    products are formed entry by entry as one rounded product each, which
    is what the dense truncated matrix product gives, bit for bit.
    """
    if j < 1:
        raise ConfigError("correction order j must be >= 1 (j = 0 is the commutator)")
    if j not in _INVERSE_SINC:
        raise ConfigError(f"inverse-sinc coefficients tabulated through j = {max(_INVERSE_SINC)}")
    a, adag = _lowering_raising(msize)
    h = (0, model.eigenvalues(msize))
    pref = complex((-1) ** j * float(_INVERSE_SINC[j]) / 4**j / (1j * model.hbar))
    one = (0, np.ones(msize))
    pairs = []
    for i in range(2 * j + 1):
        hd = _h_derivative(h, n_up=i, n_down=2 * j - i)
        gpairs = [(one, one, 1.0 + 0j)]
        for _ in range(2 * j - i):  # raising derivatives of G
            gpairs = [t for (l, r, c) in gpairs for t in ((l, _mul(r, adag), c), (_mul(adag, l), r, -c))]
        for _ in range(i):  # lowering derivatives of G
            gpairs = [t for (l, r, c) in gpairs for t in ((_mul(a, l), r, c), (l, _mul(r, a), -c))]
        coef = pref * comb(2 * j, i) * (-1) ** i
        for l, r, c in gpairs:
            pairs.append((_mul(hd, l), r, coef * c))
            pairs.append((l, _mul(r, hd), -coef * c))
    return pairs


def nu_block_from_pairs(pairs: list, nu: int, n: int) -> np.ndarray:
    """Restrict a one-offset superoperator pair list to one diagonal sector.

    For S(G) = sum L G R acting within the sector g_k = G[k+nu, k], the
    sector matrix is S[m, k] = sum L[m+nu, k+nu] R[k, m]. With L = (d, vl)
    and R = (-d, vr) a term lives on the one diagonal k = m - d, where it
    is vl[m+nu] vr[m-d]; a pair whose offsets do not cancel leaves the
    sector. Pairs are added in list order, so each entry sums the same
    rounded terms in the same order as the dense Hadamard contraction
    sum c * (L[nu:, nu:] * R.T), and the block is bit-identical to it.
    Each pair adds through a strided view of its diagonal; |d| >= n has none.
    """
    if nu < 0:
        raise ConfigError("sector restriction expects nu >= 0; conjugate for nu < 0")
    out = np.zeros((n, n), dtype=complex)
    flat = out.reshape(-1)
    for (dl, vl), (dr, vr), c in pairs:
        if len(vl) < nu + n:
            raise ConfigError("pair matrices too small for the requested sector")
        m = n - abs(dl)
        if dl + dr or m <= 0:
            continue
        r0 = max(0, dl)
        diag = flat[r0 * (n + 1) - dl :: n + 1][:m]  # out[r, r - dl] for r >= r0
        diag += c * (vl[r0 + nu : r0 + nu + m] * vr[r0 - dl : r0 - dl + m])
    return out


# ---------------------------------------------------------------------------
# Moyal-Galerkin correction engine

def _acc(d: dict, key, c: np.ndarray):
    if not np.any(c):
        return
    prev = d.get(key)
    d[key] = c.copy() if prev is None else np.polynomial.polynomial.polyadd(prev, c)


def _gder(sh, c, family: bool):
    """Radial derivative of the carried profile.

    Plain polynomials differentiate termwise. Family profiles are
    polynomial multiples of B_sh(u) = e^(-2u) L_{n-sh}^(nu+sh)(4u), whose
    derivative is B_sh' = -2 B_sh - 4 B_{sh+1}; the family index stays
    symbolic in n, which is what makes one jet serve every basis dyad.
    """
    poly = np.polynomial.polynomial
    if not family:
        return [(sh, poly.polyder(c))]
    return [(sh, poly.polyadd(poly.polyder(c), -2.0 * c)), (sh + 1, -4.0 * c)]


def _jet_dalpha(terms: dict, family: bool) -> dict:
    out: dict = {}
    for (k, sh), c in terms.items():
        for sh2, c2 in _gder(sh, c, family):
            _acc(out, (k + 1, sh2), c2 if k >= 0 else np.polynomial.polynomial.polymulx(c2))
        if k < 0:
            _acc(out, (k + 1, sh), (-k) * c)
    return out


def _jet_dalphabar(terms: dict, family: bool) -> dict:
    out: dict = {}
    for (k, sh), c in terms.items():
        if k > 0:
            for sh2, c2 in _gder(sh, c, family):
                _acc(out, (k - 1, sh2), np.polynomial.polynomial.polymulx(c2))
            _acc(out, (k - 1, sh), k * c)
        else:
            for sh2, c2 in _gder(sh, c, family):
                _acc(out, (k - 1, sh2), c2)
    return out


# The rule is scipy.special.roots_genlaguerre's algorithm, operation by
# operation, so its nodes and weights are scipy's to the bit (the tests
# compare every rule the Moyal sectors of N = 48, 128 and 163 use). Its
# special functions are ports of the cephes routines scipy evaluates: each
# rounds as they do, where math.lgamma and a plain factorial do not. They
# run on Python floats, whose exp, log and pow are the C library's, as in
# the compiled routines, and cover the arguments the rule and _moyal_sectors
# pass, from 1 up to a few thousand.

_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.0)
_GAMMA_STIR = (7.87311395793093628397e-4, -2.29549961613378126380e-4, -2.68132617805781232825e-3,
               3.47222221605458667310e-3, 8.33333333333482257126e-2)
_MAXGAM = 171.624376956302725


def _polevl(x: float, coef: tuple) -> float:
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _lgam(x: float) -> float:
    """log Gamma(x) for 0 < x < 1e8 as cephes lgam: the log of a product
    below 13, a Stirling series from there."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return log(z)
        x += p - 2.0
        return log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    q = (x - 0.5) * log(x) - x + 0.91893853320467274178  # log sqrt(2 pi)
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def _gamma(x: float) -> float:
    """Gamma(x) for x >= 1 as cephes Gamma: a product and a rational
    approximation up to 33, Stirling's formula above, inf from _MAXGAM."""
    if x > 33.0:
        if x >= _MAXGAM:
            return inf
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _GAMMA_STIR)
        y = exp(x)
        if x > 143.01608:  # split the power so it cannot overflow
            v = pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = pow(x, x - 0.5) / y
        return 2.50662827463100050242 * y * w  # sqrt(2 pi)
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _binom(n: float, k: int) -> float:
    """(n choose k) for an integer 0 <= k <= n, as scipy's binom forms it: a
    product of fewer than 20 factors, else 1/(n + 1)/B(n - k + 1, k + 1)."""
    kx = k
    if n == floor(n) and k > n / 2:
        kx = n - k  # the shorter product of the symmetric pair
    if kx < 20:
        num = den = 1.0
        for i in range(1, 1 + int(kx)):
            num *= i + n - kx
            den *= i
            if abs(num) > 1e50:
                num /= den
                den = 1.0
        return num / den
    a, b = max(1 + n - k, 1.0 + k), min(1 + n - k, 1.0 + k)
    if a + b > _MAXGAM:
        beta = exp(_lgam(a) + (_lgam(b) - _lgam(a + b)))
    else:  # scipy multiplies by 1/Gamma(a + b); a quotient rounds otherwise
        beta = _gamma(a) * (1.0 / _gamma(a + b)) * _gamma(b)
    return 1 / (n + 1) / beta if beta else inf


def _genlaguerre_pair(n: int, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L_{n-1}^(alpha)(x) and L_n^(alpha)(x), n >= 3, as scipy's eval_genlaguerre forms each.

    Its recurrence for L_n runs through the one for L_{n-1}, so one pass
    gives both: d = -x/(k + alpha + 1) p + k/(k + alpha + 1) d, p += d,
    scaled by (n + alpha choose n) at the end.
    """
    negx = -x
    d = negx / (alpha + 1.0)
    p = d + 1.0
    t = np.empty_like(x)
    for k in range(1, n):
        if k == n - 1:
            prev = p.copy()
        c = k + alpha + 1.0
        np.divide(negx, c, out=t)
        t *= p
        d *= k / c
        d += t
        p += d
    return _binom(n - 1 + alpha, n - 1) * prev, _binom(n + alpha, n) * p


def _roots_genlaguerre(order: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """scipy.special.roots_genlaguerre(order, alpha), bit for bit, for order >= 3
    and alpha >= 0, unchecked: a broken rule comes back with its non-finite entries.

    Golub-Welsch nodes, the eigenvalues of the Jacobi matrix (eigvalsh of
    the dense matrix and scipy's banded solver both end in LAPACK dsterf),
    each refined by one Newton step; weights 1/(L_{n-1}(x) L_n'(x)),
    log-normalized and scaled to sum to Gamma(alpha + 1).
    """
    if order < 3 or not alpha >= 0.0:
        raise ValueError("the rule needs order >= 3 and alpha >= 0")
    k = np.arange(order, dtype=float)
    jacobi = np.diag(2 * k + alpha + 1)
    jacobi[range(1, order), range(order - 1)] = -np.sqrt(k[1:] * (k[1:] + alpha))
    with np.errstate(all="ignore"):
        nodes = np.linalg.eigvalsh(jacobi)
        fm, f = _genlaguerre_pair(order, alpha, nodes)
        df = (order * f - (order + alpha) * fm) / nodes
        nodes -= f / df
        fm = _genlaguerre_pair(order, alpha, nodes)[0]
        # fm and df span many decades: scale each to mid-range before the product
        log_fm, log_df = np.log(np.abs(fm)), np.log(np.abs(df))
        fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
        df /= np.exp((log_df.max() + log_df.min()) / 2.0)
        weights = 1.0 / (fm * df)
        weights *= _gamma(alpha + 1.0) / weights.sum()
    return nodes, weights


def gauss_genlaguerre_rule(order: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the generalized Gauss-Laguerre rule for weight x^alpha e^-x.

    The rule is _roots_genlaguerre's, which is scipy's. Nodes whose weight
    underflows to zero are dropped; the corresponding integrand tail is
    below float64 resolution for every integrand used here (all decay at
    least as fast as the weight). The rule checks itself:
    QuadratureNotConverged is raised when a node or weight is not finite
    (the first broken rule of 344 nodes is alpha = 148, of 362 nodes
    alpha = 13, which fig3's semiclassical1 meets at N = 173), or when the
    kept weights miss their exact sum Gamma(alpha + 1) by more than 1e-10
    relative (usable rules: 1.3e-13).
    """
    nodes, weights = _roots_genlaguerre(order, alpha)
    with np.errstate(all="ignore"):
        bad = np.count_nonzero(~np.isfinite([nodes, weights]))
        keep = weights > 0.0
        miss = abs(np.expm1(np.log(weights[keep].sum()) - lgamma(alpha + 1.0)))
    if bad or not miss <= 1e-10:
        raise QuadratureNotConverged(
            f"generalized Gauss-Laguerre rule with {order} nodes for alpha = {alpha:g}: "
            f"{bad} non-finite nodes or weights, weight sum off Gamma(alpha + 1) by {miss:.3e}"
        )
    return nodes[keep], weights[keep]


def _laguerre_families(nu: int, count: int, rows: int, x: np.ndarray) -> np.ndarray:
    """Rows out[n, f] = (-1)^n sqrt(n!/(n+a)!) L_n^(a)(x), a = nu + f, n < rows.

    Without the weight factor, they are orthonormal on a Gauss rule for x^a e^-x.
    One run of p_{n+1} = ((x - a_n) p_n - b_n p_{n-1}) / b_{n+1}, a_n = 2n + a + 1,
    b_n = sqrt(n (n + a)), fills every family, each as its own run would.
    """
    a = np.arange(nu, nu + count, dtype=float)[:, None]
    out = np.empty((rows, count, x.size))
    out[0] = np.array([np.exp(-0.5 * lgamma(k + 1)) for k in range(nu, nu + count)])[:, None]
    if rows >= 2:
        out[1] = (x - (a + 1.0)) * out[0] / np.sqrt(a + 1.0)
    for n in range(1, rows - 1):
        bn = np.sqrt(n * (n + a))
        bn1 = np.sqrt((n + 1.0) * (n + 1 + a))
        out[n + 1] = ((x - (2 * n + a + 1.0)) * out[n] - bn * out[n - 1]) / bn1
    return out


def _moyal_sectors(model: ModelSpec, j: int, nmax: int, q_nodes: int):
    """Galerkin matrix of the j-th odd Moyal term on sector nu, as a function of nu > 0.

    The h-jets and log k! table, which no sector changes, are built once;
    each sector has its own rule, w-jets and Laguerre families nu .. nu + s.
    """
    s = 2 * j + 1
    h_coeffs = np.array([float(c) for c in model.classical_symbol()])
    hjets = []
    for i in range(s + 1):
        hjet = {(0, 0): h_coeffs}
        for step in [_jet_dalphabar] * (s - i) + [_jet_dalpha] * i:
            hjet = step(hjet, family=False)
        hjets.append(hjet)
    log_fact = np.array([_lgam(k + 1.0) for k in range(nmax)])  # log k!, as scipy's gammaln
    pref = 1j * model.omega / model.mu / (4**j * factorial(s))
    polyval = np.polynomial.polynomial.polyval

    def sector(nu: int) -> np.ndarray:
        n = nmax - nu
        x, weights = gauss_genlaguerre_rule(q_nodes, alpha=float(nu))
        u = x / 4.0
        sqw = np.sqrt(weights)
        lag = _laguerre_families(nu, s + 1, n, x)
        prof: dict = {}
        for i, hjet in enumerate(hjets):
            coef = comb(s, i) * (-1.0) ** i
            wjet = {(nu, 0): np.array([1.0])}
            for step in [_jet_dalpha] * (s - i) + [_jet_dalphabar] * i:
                wjet = step(wjet, family=True)
            for (kh, _), ch in hjet.items():
                for (kw, sh), cw in wjet.items():
                    if kh + kw != nu:
                        raise ValidationFailed(
                            f"jet bookkeeping lost the sector index: {kh} + {kw} != {nu}"
                        )
                    vals = polyval(u, ch) * polyval(u, cw)
                    if kh * kw < 0:
                        vals = vals * u ** min(abs(kh), abs(kw))
                    prof[sh] = prof[sh] + coef * vals if sh in prof else coef * vals
        r = np.zeros((n, len(x)))
        for sh, vals in prof.items():
            if sh < n:
                rowcoef = (-1.0) ** sh * np.exp(0.5 * (log_fact[sh:n] - log_fact[: n - sh]))
                r[sh:, :] += rowcoef[:, None] * (lag[: n - sh, sh] * (vals * sqw)[None, :])
        return pref * ((lag[:, 0] * sqw) @ r.T)

    return sector


# ---------------------------------------------------------------------------
# sector generators, one at a time

def rung_count(dynamics: str, K: int) -> int:
    """Number of commutator rungs C_j that one dynamics adds for a degree-K model.

    classical and semiclassical1 need the whole ladder, j = 1 .. K - 1;
    semiquantum1 needs C_1 and quantum none. ConfigError for an unknown
    dynamics, or when the ladder passes the tabulated inverse-sinc terms.
    """
    if dynamics not in DYNAMICS:
        raise ConfigError(f"unknown dynamics {dynamics!r}; choose from {DYNAMICS}")
    if dynamics == "quantum":
        return 0
    if dynamics == "semiquantum1":
        return min(1, K - 1)
    top = max(_INVERSE_SINC)
    if K - 1 > top:
        raise ConfigError(
            f"K = {K} needs inverse-sinc corrections through j = {K - 1} "
            f"for {dynamics}, but they are tabulated through j = {top} (K <= {top + 1})"
        )
    return K - 1


def all_generator_blocks(
    dynamics: str,
    model: ModelSpec,
    nmax: int,
    nu_top: int | None = None,
) -> Iterator[np.ndarray]:
    """Sector generators for nu = 0 .. nu_top (default nmax-1), sizes nmax - nu.

    The arguments and the spectrum are checked, and the C_j pair lists and
    the D_1 jets built, at the call. The returned iterator then builds each
    sector's generator when it is asked for it: the quantum diagonal
    -i (E_{k+nu} - E_k) / hbar from one spectrum E_0 .. E_{nmax-1}, plus
    the C_j sector blocks in order of j, plus D_1 for semiclassical1. A
    sector with no correction (nu = 0, every quantum sector, every sector
    of a K = 1 model) is yielded as that 1-D diagonal. evolve passes the
    top sector of its rows (23 for fig3's state at N = 128) and factors
    each generator as it arrives, so no whole-run list is held. A generator
    with an entry that is not finite raises ValidationFailed naming the
    dynamics and the sector (sector 0, at the call, for a bad spectrum).
    """
    j_top = rung_count(dynamics, model.K)
    if nmax < 1:
        raise ConfigError("block size must be at least 1")
    if nu_top is None:
        nu_top = nmax - 1
    if not 0 <= nu_top <= nmax - 1:
        raise ConfigError("nu_top must lie in [0, nmax - 1]")
    with np.errstate(over="ignore", invalid="ignore"):  # checked before any route uses it
        e = model.eigenvalues(nmax)
    if not np.isfinite(e).all():
        raise ValidationFailed(
            f"{dynamics} sector nu=0: generator has an entry that is not finite "
            f"(E_n is past the float range from n = {np.flatnonzero(~np.isfinite(e))[0]})"
        )
    # Each C_j pair list is built on nmax + 2j levels. A product of
    # one-offset matrices reads each factor one index above or below the
    # last, and a pair member carries at most 2j lowering factors: those of
    # the h derivative and those of the G derivative together. So the
    # sector rows below nmax read h and the ladder values only at indices
    # below nmax + 2j, where they equal the untruncated values, and a
    # larger pad adds rows that no entry reads. The reach comes from the
    # offsets alone, not from the values of h, so it holds for every model;
    # with 2j - 1 rows the last row's deepest lowering path runs into the
    # truncated edge. The frozen nu = 0 sector needs no rung.
    if nu_top == 0:
        j_top = 0
    # A finite spectrum can still overflow in the ladder products (fig3 with
    # b[3] = 1e302); the pairs and each sector are built with numpy's
    # warnings off, and a sector that reads such an entry is not finite and
    # is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [hilbert_correction_pairs(model, j, nmax + 2 * j) for j in range(1, j_top + 1)]
    # On sector nu, n = nmax - nu, the D_j integrands for the weight
    # x^nu e^-x are polynomials of degree at most 2n + K - 3: 2(n - 1) from
    # the two Laguerre rows, K - 1 from the jets, because the 2j + 2 Moyal
    # terms share their top-degree part, (-2u)^s h^(s)(u) times the dyad
    # with s = 2j + 1, and their binomial signs sum to zero. So n + K/2 - 1
    # nodes, rounded up, are exact. The 2 nmax + 16 nodes used here keep the
    # blocks bit-identical to the node-doubled build they replaced until the
    # benchmark references are re-recorded (ROADMAP item 1).
    moyal = None
    if dynamics == "semiclassical1" and j_top:
        moyal = _moyal_sectors(model, 1, nmax, 2 * nmax + 16)

    def sectors():
        for nu in range(nu_top + 1):
            n = nmax - nu
            block = -1j * ((e[nu:] - e[:n]) / model.hbar)  # the quantum diagonal
            if nu and (pairs or moyal):  # every correction is zero on nu = 0
                with np.errstate(over="ignore", invalid="ignore"):
                    block = np.diag(block) + sum(nu_block_from_pairs(p, nu, n) for p in pairs)
                    if moyal:
                        block = block + moyal(nu)
            if not np.isfinite(block).all():
                raise ValidationFailed(
                    f"{dynamics} sector nu={nu}: generator has an entry that is not finite"
                )
            yield block

    return sectors()
