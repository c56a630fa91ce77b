"""Tests for the model layer: star powers, number expansion, spectra.

Oracles: hand-derived exact star powers of u (checked with rational
arithmetic, so equality is exact), and closed-form spectra for the
quartic and sextic models.
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groenewold_lab.errors import ConfigError
from groenewold_lab.model import (
    ModelSpec,
    derivative,
    number_coefficients,
    weyl_expansion_matrix,
)

F = Fraction


class TestStarProduct:
    def test_u_star_powers(self):
        # row k of the expansion matrix is u^{*k}, the symbol of (n + 1/2)^k
        a = weyl_expansion_matrix(4)
        assert a[0] == [F(1), 0, 0, 0, 0]
        assert a[1] == [0, F(1), 0, 0, 0]
        assert a[2] == [F(-1, 4), 0, F(1), 0, 0]  # u * u = u^2 - 1/4
        assert a[3] == [0, F(-5, 4), 0, F(1), 0]
        # hand-derived: u^{*4} = u^4 - (7/2) u^2 + 5/16
        assert a[4] == [F(5, 16), 0, F(-7, 2), 0, F(1)]


class TestWeylExpansion:
    def test_matrix_entries(self):
        a = weyl_expansion_matrix(3)
        assert a[2][0] == F(-1, 4) and a[2][2] == F(1)
        assert a[3][1] == F(-5, 4) and a[3][3] == F(1)
        # parity: entries vanish unless k - j is even
        for k in range(4):
            for j in range(4):
                if (k - j) % 2 == 1:
                    assert a[k][j] == 0

    def test_diagonal_expectations_reproduce_number_powers(self):
        # independent of the star product: <n|Op(u^j)|n> integrates u^j
        # against the number-state Wigner function,
        #   2 (-1)^n int_0^inf u^j e^(-2u) L_n(4u) du
        #   = 2 (-1)^n sum_i C(n, i) (-4)^i / i! * (i + j)! / 2^(i + j + 1),
        # so the rows of A must give <n|(n + 1/2)^k|n> = (n + 1/2)^k
        def op_diag(j, n):
            total = sum(
                F(comb(n, i) * (-4) ** i * factorial(i + j), factorial(i) * 2 ** (i + j + 1))
                for i in range(n + 1)
            )
            return 2 * (-1) ** n * total

        a = weyl_expansion_matrix(8)
        for k in range(9):
            for n in range(9):
                got = sum(a[k][j] * op_diag(j, n) for j in range(k + 1))
                assert got == (n + F(1, 2)) ** k

    def test_number_coefficients_quartic(self):
        c = number_coefficients((0, 0, 1), F(1, 2))
        assert c == (F(1, 16), F(0), F(1))
        c = number_coefficients((0, 0, 1), F(1, 4))
        assert c == (F(1, 64), F(0), F(1))

    def test_number_coefficients_sextic(self):
        c = number_coefficients((0, 0, 0, 1), F(1, 2))
        # c1 = 5 mu^2 / 4 = 5/16
        assert c == (F(0), F(5, 16), F(0), F(1))

    def test_number_coefficients_linear(self):
        assert number_coefficients((0, 1), F(1, 3)) == (F(0), F(1))
        assert number_coefficients((2, 5), F(1, 7)) == (F(2), F(5))

    @given(
        b=st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=100),
            min_size=2,
            max_size=9,
        ),
        mu=st.fractions(min_value=F(1, 1000), max_value=4, max_denominator=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_through_symbols(self, b, mu):
        # re-expanding c over the star powers, the rows of the expansion
        # matrix, must reproduce b[j] mu^j exactly, for every K <= 8
        c = number_coefficients(b, mu)
        a = weyl_expansion_matrix(len(b) - 1)
        for j, bj in enumerate(b):
            assert sum(c[k] * mu**k * a[k][j] for k in range(len(b))) == bj * mu**j


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec(b=(1.0,), mu=0.5)
        with pytest.raises(ConfigError):
            ModelSpec(b=(0.0, 0.0), mu=0.5)
        with pytest.raises(ConfigError):
            ModelSpec(b=(0.0, 1.0), mu=-1.0)
        with pytest.raises(ConfigError):
            ModelSpec.create(b=(0, 1))
        with pytest.raises(ConfigError):
            ModelSpec.create(b=(0, 1), mu=0.5, hbar=0.5)

    def test_hbar_mu_relation(self):
        m1 = ModelSpec.create(b=(0, 0, 1), mu=0.5, omega=2.0, E=3.0)
        assert m1.hbar == pytest.approx(0.5 * 3.0 / 2.0, rel=1e-15)
        m2 = ModelSpec.create(b=(0, 0, 1), hbar=0.75, omega=2.0, E=3.0)
        assert m2.mu == pytest.approx(0.5, rel=1e-15)

    def test_quartic_spectrum(self):
        # E_n = mu hbar omega (n^2 + n + 1/2)
        model = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5)
        n = np.arange(6, dtype=float)
        expected = 0.5 * model.hbar * 1.0 * (n**2 + n + 0.5)
        assert np.allclose(model.eigenvalues(6), expected, rtol=1e-14, atol=0)

    def test_sextic_spectrum(self):
        # E_n = mu^2 hbar omega (n^3 + 3n^2/2 + 2n + 3/4)
        model = ModelSpec(b=(0.0, 0.0, 0.0, 1.0), mu=0.5)
        n = np.arange(7, dtype=float)
        expected = 0.25 * model.hbar * (n**3 + 1.5 * n**2 + 2 * n + 0.75)
        assert np.allclose(model.eigenvalues(7), expected, rtol=1e-14, atol=0)

    def test_harmonic_spectrum(self):
        model = ModelSpec(b=(0.0, 1.0), mu=0.3, omega=2.0)
        n = np.arange(5, dtype=float)
        assert np.allclose(
            model.eigenvalues(5), model.hbar * 2.0 * (n + 0.5), rtol=1e-14, atol=0
        )

    def test_classical_rate(self):
        u = np.linspace(0.0, 5.0, 11)
        quartic = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5)
        assert np.allclose(quartic.classical_rate(u), 2 * 0.5 * u, rtol=1e-14)
        sextic = ModelSpec(b=(0.0, 0.0, 0.0, 1.0), mu=0.25)
        assert np.allclose(sextic.classical_rate(u), 3 * 0.0625 * u**2, rtol=1e-14)
        harmonic = ModelSpec(b=(0.0, 1.0), mu=0.3, omega=1.7)
        assert np.allclose(harmonic.classical_rate(u), 1.7, rtol=1e-14)

    def test_level_frequencies(self):
        model = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5)
        # (E_{n+nu} - E_n)/hbar = mu omega ((n+nu)^2 + (n+nu) - n^2 - n)
        n = np.arange(4, dtype=float)
        nu = 2
        expected = 0.5 * ((n + nu) ** 2 + (n + nu) - n**2 - n)
        assert np.allclose(model.level_frequencies(nu, 4), expected, rtol=1e-13)
        assert np.allclose(
            model.level_frequencies(-nu, 4), expected, rtol=1e-13
        )

    def test_number_coefficients_keys_on_b_and_mu(self):
        base = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5)
        other_mu = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.25)
        other_b = ModelSpec(b=(0.0, 1.0, 1.0), mu=0.5)
        for model in (base, other_mu, other_b):
            exact = tuple(float(c) for c in number_coefficients(model.b, model.mu))
            assert model.number_coefficients() == exact
        assert base.number_coefficients() != other_mu.number_coefficients()
        assert base.number_coefficients() != other_b.number_coefficients()
        assert number_coefficients([0, 0, 1], 0.5) == number_coefficients((0, 0, 1), 0.5)

    def test_symbol_polynomial_eval(self):
        # h's exact coefficients b[k] mu^k and their exact derivatives
        assert ModelSpec(b=(1.0, 0.0, 2.0), mu=0.5).classical_symbol() == (F(1), F(0), F(1, 2))
        assert derivative((F(1), F(0), F(2))) == (F(0), F(4))
        assert derivative((F(3),)) == (F(0),)
        # K = 1: h' is the constant b[1] mu and h'' the constant 0
        h = ModelSpec(b=(0.0, 1.0), mu=0.3).classical_symbol()
        assert h == (F(0), F(0.3))
        assert derivative(h) == (F(0.3),)
        assert derivative(derivative(h)) == (F(0),)
        # classical_rate bit for bit against a Horner loop over h's exact
        # coefficients, signed zeros included, at u = 0 and below
        u = np.concatenate(([0.0, -0.0, 1e-300, -1e-300, 1e10], np.linspace(-5.0, 45.0, 301)))
        models = [
            ModelSpec(b=(0.0, 1.0), mu=0.3, omega=1.7),
            ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5),
            ModelSpec(b=(0.0, 0.0, 0.0, 1.0), mu=0.25),
            ModelSpec(b=(0.3, -0.2, 0.5, -0.1), mu=0.37, m=2.0, omega=0.7, E=3.0),
            ModelSpec(b=(0.0, 0.1, 0.0, -0.4, 0.0, 1.0), mu=0.2),
        ]
        for model in models:
            horner = np.zeros_like(u)
            for c in reversed(derivative(model.classical_symbol())):
                horner = horner * u + float(c)
            want = (model.omega / model.mu) * horner
            assert model.classical_rate(u).tobytes() == want.tobytes()
