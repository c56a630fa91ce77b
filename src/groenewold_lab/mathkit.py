"""Numerical kernels shared across the package.

Hand-authored special functions (scaled Bessel I and the orthonormal
associated Laguerre family), the only ones used at runtime, plus Gaussian
quadrature rules: numpy supplies Gauss-Legendre nodes, scipy the
generalized Gauss-Laguerre nodes. scipy is imported inside
gauss_genlaguerre_rule, so only a run that builds a Moyal rung
(semiclassical1) loads it.

Scaling conventions, chosen so that every array touched at runtime stays
inside float64 range even at basis size N = 128:

* ``bessel_i_scaled(m, x)``   -> e^-x I_m(x), always in [0, 1].
* ``laguerre_orthonormal_bare`` -> (-1)^n sqrt(n!/(n+nu)!) L_n^(nu)(x),
                                 discretely orthonormal under a Gauss rule
                                 for the weight x^nu e^-x.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .errors import QuadratureNotConverged

__all__ = [
    "QuadratureRule",
    "bessel_i_scaled",
    "composite_gauss_legendre_rule",
    "gauss_genlaguerre_rule",
    "is_finite_real",
    "laguerre_orthonormal_bare",
]

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
    rows[0] = np.exp(-0.5 * lgamma(nu + 1))
    _orthonormal_recurrence(rows, nu, x)
    return rows


def is_finite_real(v) -> bool:
    """Whether v is a real number, not a bool, in the float range (so not NaN,
    not +-inf and not an int too large for a float)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    return bool(abs(v) <= sys.float_info.max)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule."""

    nodes: np.ndarray
    weights: np.ndarray


def composite_gauss_legendre_rule(
    a: float, b: float, panels: int, order: int = 10
) -> QuadratureRule:
    """Composite Gauss-Legendre rule: `panels` equal panels, `order` each."""
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_nodes[None, :]).ravel()
    weights = (half[:, None] * base_weights[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights)


def gauss_genlaguerre_rule(order: int, alpha: float) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for weight x^alpha e^-x on [0, inf).

    Nodes whose weight underflows to zero are dropped; the corresponding
    integrand tail is below float64 resolution for every integrand used
    here (all decay at least as fast as the weight). The rule checks
    itself: QuadratureNotConverged is raised when a node or weight is not
    finite (scipy's first broken rule of 344 nodes is alpha = 148, of 362
    nodes alpha = 13, which fig3's semiclassical1 meets at N = 173), or
    when the kept weights miss their exact sum Gamma(alpha + 1) by more
    than 1e-10 relative (usable rules: 1.3e-13).
    """
    from scipy.special import roots_genlaguerre  # only semiclassical1 runs pay its import

    with np.errstate(all="ignore"):
        nodes, weights = roots_genlaguerre(order, alpha)
        bad = np.count_nonzero(~np.isfinite([nodes, weights]))
        keep = weights > 0.0
        miss = abs(np.expm1(np.log(weights[keep].sum()) - lgamma(alpha + 1.0)))
    if bad or not miss <= 1e-10:
        raise QuadratureNotConverged(
            f"generalized Gauss-Laguerre rule with {order} nodes for alpha = {alpha:g}: "
            f"{bad} non-finite nodes or weights, weight sum off Gamma(alpha + 1) by {miss:.3e}"
        )
    return QuadratureRule(nodes=nodes[keep], weights=weights[keep])
