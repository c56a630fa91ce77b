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
that integrates the resulting polynomial integrands exactly. The tests
compare both engines, rung by rung, with each other and with the
analytic tridiagonal Liouville generator.

all_generator_blocks, the one builder of sector generators, builds one
sector at a time: each C_j pair list once per call, on a basis padded by
exactly the 2j levels a sector entry reads, and each D_j sector on a
generalized Gauss-Laguerre rule that checks itself in
gauss_genlaguerre_rule; the builder's comments give both sizes. The
module keeps nothing between calls: the dynamics that share the C_1 and
C_2 rungs each rebuild them. rung_count says which rungs each dynamics
needs.

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
from math import comb, factorial

import numpy as np

from .errors import ConfigError, ValidationFailed
from .mathkit import gauss_genlaguerre_rule, laguerre_orthonormal_bare
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

def _pder(c: np.ndarray) -> np.ndarray:
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(0)


def _pmulx(c: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], c))


def _padd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # aligned coefficient sum; naive a + b would broadcast, not pad
    out = np.zeros(max(len(a), len(b)))
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def _acc(d: dict, key, c: np.ndarray):
    if len(c) == 0 or not np.any(c):
        return
    prev = d.get(key)
    d[key] = c.copy() if prev is None else _padd(prev, c)


def _gder(sh, c, family: bool):
    """Radial derivative of the carried profile.

    Plain polynomials differentiate termwise. Family profiles are
    polynomial multiples of B_sh(u) = e^(-2u) L_{n-sh}^(nu+sh)(4u), whose
    derivative is B_sh' = -2 B_sh - 4 B_{sh+1}; the family index stays
    symbolic in n, which is what makes one jet serve every basis dyad.
    """
    if not family:
        return [(sh, _pder(c))]
    out = [(sh, _padd(_pder(c), -2.0 * c))]
    out.append((sh + 1, -4.0 * c))
    return out


def _jet_dalpha(terms: dict, family: bool) -> dict:
    out: dict = {}
    for (k, sh), c in terms.items():
        for sh2, c2 in _gder(sh, c, family):
            _acc(out, (k + 1, sh2), c2 if k >= 0 else _pmulx(c2))
        if k < 0:
            _acc(out, (k + 1, sh), (-k) * c)
    return out


def _jet_dalphabar(terms: dict, family: bool) -> dict:
    out: dict = {}
    for (k, sh), c in terms.items():
        if k > 0:
            for sh2, c2 in _gder(sh, c, family):
                _acc(out, (k - 1, sh2), _pmulx(c2))
            _acc(out, (k - 1, sh), k * c)
        else:
            for sh2, c2 in _gder(sh, c, family):
                _acc(out, (k - 1, sh2), c2)
    return out


def _polyval(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(x, c)


def _moyal_sector(model: ModelSpec, j: int, nu: int, n: int, q_nodes: int) -> np.ndarray:
    """Galerkin matrix of the j-th odd Moyal term on sector nu (nu > 0)."""
    from scipy.special import gammaln  # only semiclassical1 runs pay its import

    s = 2 * j + 1
    h_coeffs = np.array([float(c) for c in model.classical_symbol().coeffs])
    rule = gauss_genlaguerre_rule(q_nodes, alpha=float(nu))
    x = rule.nodes
    u = x / 4.0
    sqw = np.sqrt(rule.weights)
    lag = laguerre_orthonormal_bare(n - 1, nu, x)
    vm = lag * sqw
    prof: dict = {}
    for i in range(s + 1):
        coef = comb(s, i) * (-1.0) ** i
        hjet = {(0, 0): h_coeffs}
        for _ in range(s - i):
            hjet = _jet_dalphabar(hjet, family=False)
        for _ in range(i):
            hjet = _jet_dalpha(hjet, family=False)
        wjet = {(nu, 0): np.array([1.0])}
        for _ in range(s - i):
            wjet = _jet_dalpha(wjet, family=True)
        for _ in range(i):
            wjet = _jet_dalphabar(wjet, family=True)
        for (kh, _), ch in hjet.items():
            for (kw, sh), cw in wjet.items():
                if kh + kw != nu:
                    raise ValidationFailed(
                        f"jet bookkeeping lost the sector index: {kh} + {kw} != {nu}"
                    )
                vals = _polyval(ch, u) * _polyval(cw, u)
                if kh * kw < 0:
                    vals = vals * u ** min(abs(kh), abs(kw))
                prev = prof.get(sh)
                prof[sh] = coef * vals if prev is None else prev + coef * vals
    r = np.zeros((n, len(x)))
    idx = np.arange(n, dtype=float)
    for sh, vals in prof.items():
        if sh >= n:
            continue
        rows = lag if sh == 0 else laguerre_orthonormal_bare(n - 1 - sh, nu + sh, x)
        rowcoef = (-1.0) ** sh * np.exp(
            0.5 * (gammaln(idx[sh:] + 1.0) - gammaln(idx[sh:] - sh + 1.0))
        )
        r[sh:, :] += rowcoef[:, None] * (rows * (vals * sqw)[None, :])
    pref = 1j * model.omega / model.mu / (4**j * factorial(s))
    return pref * (vm @ r.T)


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

    The arguments are checked, and the spectrum and the C_j pair lists
    built, at the call. The returned iterator then builds each sector's
    generator when it is asked for it: the quantum diagonal
    -i (E_{k+nu} - E_k) / hbar from one spectrum E_0 .. E_{nmax-1}, plus
    the C_j sector blocks in order of j, plus D_1 for semiclassical1. A
    sector with no correction (nu = 0, every quantum sector, every sector
    of a K = 1 model) is yielded as that 1-D diagonal. evolve passes the
    top sector of its rows (23 for fig3's state at N = 128) and factors
    each generator as it arrives, so no whole-run list is held.
    """
    j_top = rung_count(dynamics, model.K)
    if nmax < 1:
        raise ConfigError("block size must be at least 1")
    if nu_top is None:
        nu_top = nmax - 1
    if not 0 <= nu_top <= nmax - 1:
        raise ConfigError("nu_top must lie in [0, nmax - 1]")
    e = model.eigenvalues(nmax)
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
    pairs = [hilbert_correction_pairs(model, j, nmax + 2 * j) for j in range(1, j_top + 1)]
    # On sector nu, n = nmax - nu, the D_j integrands for the weight
    # x^nu e^-x are polynomials of degree at most 2n + K - 3: 2(n - 1) from
    # the two Laguerre rows, K - 1 from the jets, because the 2j + 2 Moyal
    # terms share their top-degree part, (-2u)^s h^(s)(u) times the dyad
    # with s = 2j + 1, and their binomial signs sum to zero. So n + K/2 - 1
    # nodes, rounded up, are exact. The 2 nmax + 16 nodes used here keep the
    # blocks bit-identical to the node-doubled build they replaced until the
    # benchmark references are re-recorded (ROADMAP item 1).
    q_nodes = 2 * nmax + 16
    moyal = dynamics == "semiclassical1" and model.K > 1

    def sectors():
        for nu in range(nu_top + 1):
            n = nmax - nu
            block = -1j * ((e[nu:] - e[:n]) / model.hbar)  # the quantum diagonal
            if nu and (pairs or moyal):  # every correction is zero on nu = 0
                block = np.diag(block) + sum(nu_block_from_pairs(p, nu, n) for p in pairs)
                if moyal:
                    block = block + _moyal_sector(model, 1, nu, n, q_nodes)
            yield block

    return sectors()
