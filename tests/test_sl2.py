"""Matrix diagonals and the sl(2) superoperator restrictions.

Oracle notes. Tridiagonal entries below follow from the ladder action on
dyads |n+nu><n|: left/right lowering takes e_n to sqrt(n(n+nu)) e_{n-1},
left/right raising to sqrt((n+1)(n+nu+1)) e_{n+1}. Frozen numbers
(P entries at nu=0 and nu=1, the coherent-state first diagonal) were
derived by hand from those rules before being pinned here; algebraic
identities are asserted on guarded interiors since truncated banded
products are corrupted near the edge.
"""

from math import lgamma

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre

from oracles import (
    THETA,
    coherent_density,
    interior,
    lie_poisson_flow,
    p_block,
    u_block,
    x_blocks,
)


class TestDecompose:
    def test_coherent_first_diagonal_closed_form(self):
        # coherent state at alpha0 = 1/2: <n+1|G|n> = e^(-1/4) (1/2)^(2n+1)
        # / sqrt(n! (n+1)!), derived from the projector's amplitudes
        n_basis = 10
        g = coherent_density(0.5, n_basis)
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1, n_basis))))
        n = np.arange(n_basis - 1)
        expect = np.exp(-0.25) * 0.5 ** (2 * n + 1) / np.sqrt(fact[:-1] * fact[1:])
        assert np.allclose(np.diagonal(g, offset=-1), expect, atol=1e-15)


class TestBlockEntries:
    def test_p_entries_nu_one(self):
        p = p_block(1, 6)
        assert p[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert p[0, 1] == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
        assert p[1, 1] == pytest.approx(2.0, abs=1e-15)

    def test_p_diagonal_nu_zero(self):
        p = p_block(0, 8)
        assert np.allclose(np.diagonal(p), np.arange(8) + 0.5, atol=1e-15)
        assert p[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_general_entries(self):
        for nu in (0, 1, 2, 5):
            x1, x2, x3 = x_blocks(nu, 7)
            n = np.arange(7)
            assert np.allclose(np.diagonal(x1), n + (nu + 1) / 2, atol=1e-15)
            off = np.sqrt((n[:-1] + 1) * (n[:-1] + nu + 1)) / 2
            assert np.allclose(np.diagonal(x2, 1), off, atol=1e-15)
            assert np.allclose(np.diagonal(x2, -1), off, atol=1e-15)
            assert np.allclose(np.diagonal(x3, 1), off, atol=1e-15)
            assert np.allclose(np.diagonal(x3, -1), -off, atol=1e-15)

    def test_negative_nu_equals_positive(self):
        for f in (p_block, u_block):
            assert np.array_equal(f(-3, 10), f(3, 10))

    def test_interior_guard(self):
        a = np.arange(36.0).reshape(6, 6)
        assert interior(a, 2).shape == (4, 4)
        assert np.array_equal(interior(a, 0), a)
        with pytest.raises(ValueError):
            interior(a, 6)
        with pytest.raises(ValueError):
            interior(a, -1)


class TestAlgebra:
    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 7])
    def test_commutation_relations(self, nu):
        n, w = 40, 2
        x1, x2, x3 = x_blocks(nu, n)
        for lhs, rhs in (
            (x2 @ x1 - x1 @ x2, x3),
            (x3 @ x2 - x2 @ x3, x1),
            (x3 @ x1 - x1 @ x3, x2),
        ):
            assert np.abs(interior(lhs - rhs, w)).max() < 1e-12

    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_ladder_shift_identities(self, nu):
        # X3 X+- = X+- (X3 +- 1), so U = exp(theta X3) rescales X+-
        n, w = 40, 2
        x1, x2, x3 = x_blocks(nu, n)
        for sign in (1, -1):
            xs = x2 + sign * x1
            lhs = x3 @ xs
            rhs = xs @ (x3 + sign * np.eye(n))
            assert np.abs(interior(lhs - rhs, w)).max() < 1e-12

    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_u_is_orthogonal(self, nu):
        u = u_block(nu, 64)
        assert np.abs(u @ u.T - np.eye(64)).max() < 1e-10

    @pytest.mark.parametrize("nu", [1, 2])
    def test_u_rescales_ladder_combinations(self, nu):
        n, w = 96, 40
        x1, x2, _ = x_blocks(nu, n)
        u = u_block(nu, n)
        for sign, scale in ((1, (7 / 3) ** 0.25), (-1, (7 / 3) ** -0.25)):
            xs = x2 + sign * x1
            got = interior(u @ xs @ u.T, w)
            assert np.abs(got - scale * interior(xs, w)).max() < 1e-8

    @pytest.mark.parametrize("nu", [0, 1, 2, 4])
    def test_quadratic_form_identities(self, nu):
        # M = 3(X1X2+X2X1)/2 - (X1-X2)^2 equals 3X+^2/4 - 7X-^2/4, and
        # X+^2 - X-^2 equals 2(X1X2+X2X1); both exact up to edge effects
        n, w = 40, 4
        x1, x2, _ = x_blocks(nu, n)
        xp, xm = x2 + x1, x2 - x1
        anti = x1 @ x2 + x2 @ x1
        m = 1.5 * anti - (x1 - x2) @ (x1 - x2)
        assert np.abs(interior(m - (0.75 * xp @ xp - 1.75 * xm @ xm), w)).max() < 1e-12
        assert np.abs(interior(xp @ xp - xm @ xm - 2 * anti, w)).max() < 1e-12

    @pytest.mark.parametrize("nu", [1, 2])
    def test_similarity_diagonalizes_quadratic_form(self, nu):
        # U M U^T = (sqrt(21)/4)(X+^2 - X-^2) = (sqrt(21)/2)(X1X2+X2X1),
        # tridiagonal with zero diagonal
        n, w = 128, 64
        x1, x2, _ = x_blocks(nu, n)
        u = u_block(nu, n)
        m = 1.5 * (x1 @ x2 + x2 @ x1) - (x1 - x2) @ (x1 - x2)
        got = interior(u @ m @ u.T, w)
        xp, xm = x2 + x1, x2 - x1
        want = interior(np.sqrt(21) / 4 * (xp @ xp - xm @ xm), w)
        assert np.abs(got - want).max() < 1e-8
        assert np.abs(np.diagonal(got)).max() < 1e-8

    def test_theta_value(self):
        assert THETA == pytest.approx(np.log(7 / 3) / 4, abs=0)


def laguerre_polynomial_parts(nu: int, count: int, x: np.ndarray) -> np.ndarray:
    """p_k(x) for k = 0 .. count - 1, where the Laguerre function is
    phi_k^nu(x) = (-1)^k sqrt(k!/(k+nu)!) x^(nu/2) e^(-x/2) L_k^nu(x)
                = x^(nu/2) e^(-x/2) p_k(x).

    The p_k are orthonormal for the weight x^nu e^(-x), by DLMF 18.9.13
    scaled to them: sqrt((k+1)(k+1+nu)) p_(k+1)
    = (x - 2k - 1 - nu) p_k - sqrt(k (k+nu)) p_(k-1).
    """
    p = np.empty((count, x.size))
    p[0] = np.exp(-0.5 * lgamma(nu + 1.0))
    prev = np.zeros(x.size)
    for k in range(count - 1):
        p[k + 1] = ((x - 2 * k - 1 - nu) * p[k] - np.sqrt(k * (k + nu)) * prev) / np.sqrt(
            (k + 1) * (k + 1 + nu)
        )
        prev = p[k]
    return p


def laguerre_gauss_rule(nu: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss rule for the weight x^nu e^(-x): scipy's nodes after
    two Newton steps on p_m, and the Christoffel weights 1 / sum_k p_k^2.
    scipy's own nodes and weights carry errors of about 5e-13 into the
    matrices below; these carry about 6e-14."""
    x, _ = roots_genlaguerre(m, nu)
    for _ in range(2):
        p = laguerre_polynomial_parts(nu, m + 1, x)
        # x p_m' = m p_m + sqrt(m (m+nu)) p_(m-1), from DLMF 18.9.14
        x = x - x * p[m] / (m * p[m] + np.sqrt(m * (m + nu)) * p[m - 1])
    p = laguerre_polynomial_parts(nu, m, x)
    return x, 1.0 / (p * p).sum(axis=0)


class TestLaguerreRealization:
    """On the Laguerre functions phi_k^nu of x = 4|alpha|^2 the sector
    operators act as differential operators: X1 + X2 is multiplication by
    x/2, X1^2 - X2^2 + (2 - nu^2)/4 is -d/dx x^2 d/dx, D = X1 - X2 is
    -2 d/dx x d/dx + nu^2/(2x), and so X1 = -d/dx x d/dx + x/4 + nu^2/(4x),
    the Laguerre operator. This is the discrete-series realization of
    su(1,1) (Bargmann, Ann. Math. 48, 568 (1947)). Every Galerkin matrix is
    formed by Gauss quadrature that is exact for its polynomial integrands."""

    N_FUNCTIONS = 12

    @staticmethod
    def parts(nu, n, x):
        """p_k and q_k = x^(1 - nu/2) e^(x/2) phi_k' at x, for k < n."""
        p = laguerre_polynomial_parts(nu, n, x)
        # x^(1 - nu/2) e^(x/2) phi_k' = (nu/2 - x/2) p_k + x p_k'
        #                             = (nu/2 - x/2 + k) p_k + sqrt(k (k+nu)) p_(k-1)
        k = np.arange(n)[:, None]
        lower = np.vstack([np.zeros(x.size), p[:-1]])
        return p, ((nu - x) / 2 + k) * p + np.sqrt(k * (k + nu)) * lower

    @classmethod
    def galerkin(cls, nu, n):
        # 2n - 1 >= the degree 2n of the largest integrand q_j q_k below
        x, w = laguerre_gauss_rule(nu, n + 1)
        p, q = cls.parts(nu, n, x)
        half_x = (p * (w * x / 2)) @ p.T
        # integral of x^2 phi_j' phi_k' dx, which is <phi_j, -(x^2 phi_k')'>
        stiffness = (q * w) @ q.T
        return p, w, half_x, stiffness

    @pytest.mark.parametrize("nu", [0, 1, 2, 5])
    def test_polynomial_parts_follow_the_definition(self, nu):
        n = self.N_FUNCTIONS
        x = np.linspace(0.1, 30.0, 7)
        k = np.arange(n)[:, None]
        scale = (-1.0) ** k * np.exp(0.5 * (gammaln(k + 1.0) - gammaln(k + nu + 1.0)))
        want = scale * eval_genlaguerre(k, nu, x)
        got = laguerre_polynomial_parts(nu, n, x)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        p, w, _, _ = self.galerkin(nu, n)
        assert np.abs((p * w) @ p.T - np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize("nu", [0, 1, 2, 5])
    def test_half_x_is_x1_plus_x2(self, nu):
        n = self.N_FUNCTIONS
        _, _, half_x, _ = self.galerkin(nu, n)
        x1, x2, _ = x_blocks(nu, n)
        assert np.abs(half_x - (x1 + x2)).max() <= 1e-12

    @pytest.mark.parametrize("nu", [0, 1, 2, 5])
    def test_minus_d_x2_d_is_x1_squared_minus_x2_squared(self, nu):
        # the products are taken on a block padded by 2 rows, then cropped,
        # so no entry misses a term of the tridiagonal products
        n = self.N_FUNCTIONS
        _, _, _, stiffness = self.galerkin(nu, n)
        x1, x2, _ = x_blocks(nu, n + 2)
        want = (x1 @ x1 - x2 @ x2)[:n, :n] + (2 - nu * nu) / 4 * np.eye(n)
        assert np.abs(stiffness - want).max() <= 1e-12

    @classmethod
    def inverse_x_forms(cls, nu, n):
        """The integrals of x phi_j' phi_k' and of phi_j phi_k / x. For the
        weight x^(nu - 1) e^(-x) their integrands are q_j q_k and p_j p_k, of
        degree at most 2n, so n + 2 Gauss nodes are exact. For nu = 0,
        q_k(0) = 0 makes q_j q_k / x a polynomial for the weight e^(-x), and
        the second integral, which diverges, is returned as zeros: it enters
        D and X1 times nu^2."""
        x, w = laguerre_gauss_rule(max(nu - 1, 0), n + 2)
        p, q = cls.parts(nu, n, x)
        if nu == 0:
            return (q * (w / x)) @ q.T, np.zeros((n, n))
        return (q * w) @ q.T, (p * w) @ p.T

    @pytest.mark.parametrize("nu", [0, 1, 2, 5])
    def test_x1_minus_x2_is_minus_2_d_x_d_plus_nu_squared_over_2x(self, nu):
        n = self.N_FUNCTIONS
        gradient, inverse_x = self.inverse_x_forms(nu, n)
        x1, x2, _ = x_blocks(nu, n)
        d = 2 * gradient + nu * nu / 2 * inverse_x
        assert np.abs(d - (x1 - x2)).max() <= 1e-12

    @pytest.mark.parametrize("nu", [0, 1, 2, 5])
    def test_x1_is_the_laguerre_operator(self, nu):
        n = self.N_FUNCTIONS
        _, _, half_x, _ = self.galerkin(nu, n)
        gradient, inverse_x = self.inverse_x_forms(nu, n)
        x1, _, _ = x_blocks(nu, n)
        laguerre = gradient + half_x / 2 + nu * nu / 4 * inverse_x
        assert np.abs(laguerre - x1).max() <= 1e-12
        assert np.array_equal(x1, np.diag(np.arange(n) + (nu + 1) / 2))


def grad_semiquantum1(j):
    """Q = -(J1^2 + J2^2)/4 + (5/4) J1 J2."""
    return -j[0] / 2 + 1.25 * j[1], -j[1] / 2 + 1.25 * j[0], 0.0


def grad_classical(j):
    """Q = (3/16)(J1 + J2)^2."""
    s = 0.375 * (j[0] + j[1])
    return s, s, 0.0


def grad_semiclassical1(j):
    """Q = (3/16)(J1 + J2)^2 + (3/8)(J1^2 - J2^2)."""
    s = 0.375 * (j[0] + j[1])
    return s + 0.75 * j[0], s - 0.75 * j[1], 0.0


class TestLiePoissonLimit:
    """The classical limit of fig3's sector generators, in units of t nu.

    With J1 = X1, J2 = X2 and J3 = i X3 the sector algebra is su(1,1), and
    i L / nu of semiquantum1, classical and semiclassical1 on the sextic is
    a quadratic Q(J) plus a constant. Its Lie-Poisson flow from
    J = (k, 0, 0), k = (nu + 1)/2, escapes to infinity in finite time for
    semiquantum1's indefinite Q and stays finite for the other two; the
    pinned values were reproduced with lie_poisson_flow to 1e-3 relative.
    These tests pin that classical mechanism. They do not prove, or
    disprove, that any truncated generator converges to a self-adjoint one.
    """

    @pytest.mark.parametrize("k, t_escape", [(1.0, 1.3267), (3.5, 0.3790)])
    def test_semiquantum1_escapes_in_finite_time(self, k, t_escape):
        t, j = lie_poisson_flow(grad_semiquantum1, k, 50.0)
        assert np.abs(j[:, -1]).max() == pytest.approx(1e8, rel=1e-6)
        assert t[-1] == pytest.approx(t_escape, rel=1e-3)

    @pytest.mark.parametrize(
        "grad, t_end, k, peak",
        [
            (grad_classical, 50.0, 1.0, 176.78),
            (grad_classical, 50.0, 3.5, 7540.1),
            (grad_semiclassical1, 5.0, 1.0, 5.378),
            (grad_semiclassical1, 5.0, 3.5, 1.408e4),
        ],
    )
    def test_bounded_flows_stay_finite_on_the_hyperboloid(self, grad, t_end, k, peak):
        t, j = lie_poisson_flow(grad, k, t_end)
        assert t[-1] == t_end
        assert np.abs(j).max() == pytest.approx(peak, rel=1e-3)
        casimir = j[0] ** 2 - j[1] ** 2 - j[2] ** 2
        assert np.abs(casimir - k * k).max() <= 1e-8 * k * k
