"""Per-diagonal blocks of the sl(2) superoperator algebra.

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

from __future__ import annotations

from math import log

import numpy as np

from .mathkit import hermitian_eig

__all__ = [
    "THETA",
    "interior",
    "p_block",
    "u_block",
    "x_blocks",
]

THETA = log(7.0 / 3.0) / 4.0


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
