"""Tests for the numerical kernels, each of which lives beside its one caller:
the scaled Bessel function and the composite Gauss-Legendre rule in evolve
(the continuum moment oracle), the orthonormal Laguerre family and the
generalized Gauss-Laguerre rule in generators (the Moyal rungs).

Oracles: frozen 18-digit mpmath values for the hand-authored special
functions, scipy.special as an independent second route, and exactness /
orthonormality identities for the quadrature rules and recurrence families.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import binom, eval_genlaguerre, gamma, gammaln, ive, roots_genlaguerre

from groenewold_lab.errors import QuadratureNotConverged
from groenewold_lab.evolve import bessel_i_scaled, composite_gauss_legendre_rule
from groenewold_lab import generators
from groenewold_lab.generators import _laguerre_families, gauss_genlaguerre_rule
from oracles import laguerre_orthonormal_bare, radial_profiles

# mpmath (dps=40) values of e^-x I_m(x)
BESSEL_SCALED_ORACLE = [
    (0, 1.0, 0.465759607593640437),
    (0, 0.5, 0.645035270449150068),
    (1, 2.5, 0.206584649531266554),
    (3, 10.0, 0.0798303610298405173),
    (7, 0.125, 6.52611656853769844e-13),
    (40, 300.0, 0.0016002898291930657),
    (128, 60.0, 2.40773387394865893e-50),
    (2, 650.0, 0.015602696138838347),
]

# mpmath values of phi_n^(nu)(x) = (-1)^n sqrt(n!/(n+nu)!) x^(nu/2) e^(-x/2) L_n^(nu)(x)
RADIAL_PROFILE_ORACLE = [
    (128, 127, 500.0, 0.02718088883079132),
    (0, 0, 0.0, 1.0),
    (3, 2, 4.0, 0.0806983714856676625),
    (64, 64, 256.0, 0.00880774321766892819),
    (128, 0, 33.0, -0.0514957147734966427),
]


class TestBesselIScaled:
    @pytest.mark.parametrize("m,x,expected", BESSEL_SCALED_ORACLE)
    def test_frozen_oracle(self, m, x, expected):
        value = bessel_i_scaled(m, x)[0]
        assert np.allclose(value, expected, rtol=1e-13, atol=0.0)

    def test_against_scipy_grid(self):
        xs = np.linspace(0.0, 600.0, 241)
        for m in [0, 1, 2, 5, 17, 64, 128]:
            ours = bessel_i_scaled(m, xs)
            ref = ive(m, xs)
            assert np.allclose(ours, ref, rtol=1e-12, atol=1e-300)

    def test_zero_argument(self):
        assert bessel_i_scaled(0, 0.0)[0] == 1.0
        assert bessel_i_scaled(3, 0.0)[0] == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_i_scaled(0, -0.5)
        with pytest.raises(ValueError):
            bessel_i_scaled(0, 1e9)

    @given(
        m=st.integers(min_value=1, max_value=60),
        x=st.floats(min_value=0.01, max_value=400.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, m, x):
        # I_{m-1}(x) - I_{m+1}(x) = (2m/x) I_m(x), unchanged by e^-x scaling
        lo = bessel_i_scaled(m - 1, x)[0]
        hi = bessel_i_scaled(m + 1, x)[0]
        mid = bessel_i_scaled(m, x)[0]
        scale = max(abs(lo), abs(hi), abs(2 * m / x * mid), 1e-300)
        assert abs(lo - hi - 2 * m / x * mid) <= 1e-12 * scale


class TestRadialProfiles:
    @pytest.mark.parametrize("n,nu,x,expected", RADIAL_PROFILE_ORACLE)
    def test_frozen_oracle(self, n, nu, x, expected):
        rows = radial_profiles(n, nu, np.array([x]))
        assert np.allclose(rows[n, 0], expected, rtol=1e-9, atol=1e-15)

    def test_small_n_direct_formula(self):
        xs = np.linspace(0.1, 30.0, 19)
        for nu in [0, 1, 2, 5]:
            rows = radial_profiles(6, nu, xs)
            for n in range(7):
                norm = math.sqrt(
                    math.factorial(n) / math.factorial(n + nu)
                )
                ref = (
                    (-1.0) ** n
                    * norm
                    * xs ** (nu / 2)
                    * np.exp(-xs / 2)
                    * eval_genlaguerre(n, nu, xs)
                )
                assert np.allclose(rows[n], ref, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("nu", [0, 1, 4, 13])
    def test_orthonormality(self, nu):
        # small nmax so a uniform composite rule resolves the zero clustering
        nmax = 12
        nodes, weights = composite_gauss_legendre_rule(0.0, 4 * nmax + 2 * nu + 90.0, 300, 12)
        rows = radial_profiles(nmax, nu, nodes)
        gram = (rows * weights) @ rows.T
        assert np.allclose(gram, np.eye(nmax + 1), atol=1e-10)

    @pytest.mark.parametrize("nu", [0, 3, 60, 127])
    def test_weighted_matches_bare_route(self, nu):
        # radial_profiles == x^(nu/2) e^(-x/2) * bare rows, large n and nu
        nmax = 128
        x = np.linspace(0.5, 700.0, 173)
        weighted = radial_profiles(nmax, nu, x)
        factor = np.exp(0.5 * nu * np.log(x) - 0.5 * x)
        bare = _laguerre_families(nu, 1, nmax + 1, x)[:, 0] * factor
        assert np.allclose(weighted, bare, rtol=0.0, atol=1e-12)

    def test_bare_discrete_orthonormality(self):
        # bare rows + genLaguerre weights: V V^T = I up to machine precision
        nmax, nu = 64, 9
        nodes, weights = gauss_genlaguerre_rule(nmax + 12, float(nu))
        rows = _laguerre_families(nu, 1, nmax + 1, nodes)[:, 0]
        v = rows * np.sqrt(weights)
        assert np.allclose(v @ v.T, np.eye(nmax + 1), atol=1e-12)

    def test_bare_large_nu_stable(self):
        nmax, nu = 128, 127
        nodes, weights = gauss_genlaguerre_rule(nmax + 16, float(nu))
        rows = _laguerre_families(nu, 1, nmax + 1, nodes)[:, 0]
        assert np.all(np.isfinite(rows))
        v = rows * np.sqrt(weights)
        assert np.allclose(v @ v.T, np.eye(nmax + 1), atol=1e-10)

    @pytest.mark.parametrize(
        "nmax, nu, q_nodes",
        [pytest.param(128, nu, 272, id=f"fig3-nu{nu}") for nu in range(1, 24)]
        + [pytest.param(129, 127, 144, id="nu127")],
    )
    def test_stacked_families_are_the_single_runs(self, nmax, nu, q_nodes):
        # the four families of a D_1 sector (orders nu .. nu + 3) from one
        # stacked run equal four runs of the one-family recurrence, bit for
        # bit, on the sector's rule nodes: fig3's sectors at N = 128 on
        # their 2 N + 16 nodes, and the large-nu case above
        nodes, _ = gauss_genlaguerre_rule(q_nodes, float(nu))
        n = nmax - nu
        stacked = _laguerre_families(nu, 4, n, nodes)
        for f in range(4):
            assert np.array_equal(stacked[:, f], laguerre_orthonormal_bare(n - 1, nu + f, nodes))


class TestQuadrature:
    def test_legendre_polynomial_exactness(self):
        nodes, weights = composite_gauss_legendre_rule(-1.0, 2.0, 1, 6)
        # one panel of 6 nodes is exact for degree <= 11
        for p in range(12):
            exact = (2.0 ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            assert np.allclose(weights @ nodes**p, exact, rtol=1e-13)

    def test_composite_smooth_integral(self):
        nodes, weights = composite_gauss_legendre_rule(0.0, np.pi, 16, 10)
        assert np.allclose(weights @ np.sin(nodes), 2.0, rtol=1e-13)

    def test_genlaguerre_moments(self):
        alpha = 3.5
        nodes, weights = gauss_genlaguerre_rule(12, alpha)
        for k in range(10):
            exact = math.exp(math.lgamma(alpha + k + 1))
            assert np.allclose(weights @ nodes**k, exact, rtol=1e-12)

    def test_genlaguerre_rule_rejects_broken_scipy_rule(self):
        # the rule, scipy's, has non-finite nodes or weights at 344 nodes
        # for alpha = 148, the first rule of N = 164 that fails;
        # semiclassical1 meets it only when the state fills sector 148
        with pytest.raises(QuadratureNotConverged, match="344 nodes for alpha = 148"):
            gauss_genlaguerre_rule(344, 148.0)

    # the semiclassical1 rules of N = 48, 128 and 163 (2N + 16 nodes, alpha =
    # nu for every sector), plus the rules that break: 344 nodes at alpha =
    # 148 (N = 164) and 364 nodes at alpha = 1 (N = 174, every state); N = 48
    # reaches B(a, b) through Gamma, the others through log-gamma, and
    # alpha >= 33 takes Gamma(alpha + 1) through Stirling's formula
    @pytest.mark.parametrize(
        "cases",
        [[(2 * n + 16, nu) for nu in range(n)] for n in (48, 128, 163)]
        + [[(344, 148), (364, 1), (12, 3.5)]],
        ids=["N48", "N128", "N163", "broken"],
    )
    def test_genlaguerre_rule_is_scipys_bit_for_bit(self, cases):
        for order, alpha in cases:
            nodes, weights = generators._roots_genlaguerre(order, float(alpha))
            with np.errstate(all="ignore"):
                want_nodes, want_weights = roots_genlaguerre(order, float(alpha))
            assert np.array_equal(nodes, want_nodes, equal_nan=True), (order, alpha)
            assert np.array_equal(weights, want_weights, equal_nan=True), (order, alpha)

    def test_cephes_ports_match_scipy_bit_for_bit(self):
        # the log-factorials of the Moyal rows (math.lgamma differs from
        # gammaln at most integers here), Gamma(alpha + 1), which weights
        # every rule (a plain factorial misses from alpha = 33 on), and the
        # Laguerre scale (n + alpha choose n)
        xs = [float(x) for x in range(1, 2000)] + [x / 8.0 for x in range(1, 200)]
        assert [generators._lgam(x) for x in xs] == list(gammaln(xs))
        xs = [float(x) for x in range(1, 180)] + [x / 8.0 for x in range(8, 1400)]
        assert [generators._gamma(x) for x in xs] == list(gamma(xs))
        pairs = [(n + alpha, n) for n in range(3, 400, 3) for alpha in [*range(200), 0.5, 3.5]]
        assert [generators._binom(n, k) for n, k in pairs] == [binom(n, k) for n, k in pairs]

    def test_genlaguerre_pair_is_scipys_eval_genlaguerre(self):
        x = np.linspace(0.0, 900.0, 301)
        for n, alpha in [(3, 0.0), (20, 2.0), (272, 23.0), (342, 3.5)]:
            fm, f = generators._genlaguerre_pair(n, alpha, x)
            assert np.array_equal(fm, eval_genlaguerre(n - 1, alpha, x))
            assert np.array_equal(f, eval_genlaguerre(n, alpha, x))

    def test_genlaguerre_rule_usable_through_n_163(self):
        # every sector rule of N = 163 passes the check, so semiclassical1
        # runs at N = 163 whichever sectors the state fills
        for nu in range(163):
            nodes, weights = gauss_genlaguerre_rule(2 * 163 + 16, float(nu))
            assert np.all(np.isfinite(nodes)) and np.all(weights > 0.0)
