"""Tests for Gaussian state synthesis.

Oracles: the exact coherent projector at kappa = 2; the displaced thermal
operator (1-z) D(alpha0) z^n D(alpha0)^+ with z = (2-kappa)/(2+kappa),
built independently via the matrix exponential of the displacement
generator on an enlarged basis; and the Bessel-weighted radial quadrature
of the phase-space density (oracles.groenewold_by_quadrature).
"""

import numpy as np
import pytest
from scipy.linalg import expm

from groenewold_lab.errors import ConfigError, QuadratureNotConverged, TailMassExceeded
from groenewold_lab.model import ModelSpec
from groenewold_lab.states import (
    GaussianState,
    groenewold_from_gaussian,
    tail_mass,
)
from oracles import coherent_density, dense, groenewold_by_quadrature, wigner_dyad_symbol


def displaced_thermal_oracle(kappa: float, alpha0: complex, n_basis: int) -> np.ndarray:
    """Closed-form Groenewold matrix via displacement on an enlarged basis."""
    z = (2.0 - kappa) / (2.0 + kappa)
    m = n_basis + 60
    a = np.diag(np.sqrt(np.arange(1, m)), 1)
    d = expm(alpha0 * a.conj().T - np.conj(alpha0) * a)
    core = (1.0 - z) * np.diag(z ** np.arange(m))
    full = d @ core @ d.conj().T
    return full[:n_basis, :n_basis]


NBASIS = 48
FIG3_STATE = GaussianState(kappa=2.0, alpha0=0.5)
FIG4_STATE = GaussianState(kappa=1.0, alpha0=1 / np.sqrt(2.0))


class TestCoherentLimit:
    @pytest.mark.parametrize("alpha0", [0.5, 0.3 + 0.4j, -0.25 + 0.6j])
    def test_kappa_two_gives_coherent_projector(self, alpha0):
        state = GaussianState(kappa=2.0, alpha0=alpha0)
        g = dense(groenewold_from_gaussian(state, NBASIS))
        ref = coherent_density(alpha0, NBASIS)
        assert np.abs(g - ref).max() < 1e-12

    def test_vacuum(self):
        state = GaussianState(kappa=2.0, alpha0=0.0)
        g = dense(groenewold_from_gaussian(state, 12))
        ref = np.zeros((12, 12), dtype=complex)
        ref[0, 0] = 1.0
        assert np.abs(g - ref).max() < 1e-13


class TestDisplacedThermalOracle:
    @pytest.mark.parametrize(
        "kappa,alpha0",
        [
            (1.0, 0.5),
            (1.0, 1 / np.sqrt(2.0)),
            (3.0, 0.5),
            (4.0, 0.4 + 0.3j),
        ],
    )
    def test_matches_closed_form(self, kappa, alpha0):
        state = GaussianState(kappa=kappa, alpha0=alpha0)
        g = dense(groenewold_from_gaussian(state, NBASIS))
        ref = displaced_thermal_oracle(kappa, alpha0, NBASIS)
        assert np.abs(g - ref).max() < 1e-13

    def test_purity_closed_form(self):
        # Tr G^2 = kappa / 2 for every isotropic Gaussian
        for kappa in [1.0, 2.0, 3.0]:
            state = GaussianState(kappa=kappa, alpha0=0.45)
            g = dense(groenewold_from_gaussian(state, NBASIS))
            assert abs(np.trace(g @ g).real - kappa / 2.0) < 1e-11

    def test_positivity_threshold(self):
        # kappa < 2: positive spectrum; kappa > 2: negative eigenvalues at t=0
        below = np.linalg.eigvalsh(
            dense(groenewold_from_gaussian(GaussianState(1.5, 0.5), NBASIS))
        )
        above = np.linalg.eigvalsh(
            dense(groenewold_from_gaussian(GaussianState(3.0, 0.5), NBASIS))
        )
        assert below.min() > -1e-12
        assert above.min() < -1e-3


class TestQuadratureOracle:
    @pytest.mark.parametrize("state", [FIG3_STATE, FIG4_STATE], ids=["fig3", "fig4"])
    def test_matches_radial_quadrature(self, state):
        g = dense(groenewold_from_gaussian(state, 128))
        assert np.abs(g - groenewold_by_quadrature(state, 128)).max() < 1e-14


class TestStopRule:
    # sectors stop after two in a row below 1e-17; without the rule the
    # closed form resolves entries down to underflow and fills every sector
    @pytest.mark.parametrize("state", [FIG3_STATE, FIG4_STATE], ids=["fig3", "fig4"])
    @pytest.mark.parametrize("n_basis", [128, 1024])
    def test_top_filled_sector(self, state, n_basis):
        rows = groenewold_from_gaussian(state, n_basis)
        assert len(rows) - 1 == 23
        assert np.abs(rows[22]).max() < 1e-17
        assert np.abs(rows[21]).max() >= 1e-17

    def test_centred_state_keeps_sector_zero_only(self):
        # sectors 1 and 2 are exact zeros and stop the fill; both are dropped
        rows = groenewold_from_gaussian(GaussianState(kappa=1.5, alpha0=0.0), NBASIS)
        assert len(rows) == 1


class TestInvariants:
    @pytest.mark.parametrize("kappa,alpha0", [(2.0, 0.5), (1.0, 0.7), (2.5, 0.2 + 0.5j)])
    def test_trace_one(self, kappa, alpha0):
        g = dense(groenewold_from_gaussian(GaussianState(kappa, alpha0), NBASIS))
        assert abs(np.trace(g).real - 1.0) < 1e-12
        assert abs(np.trace(g).imag) < 1e-14

    def test_hermitian_exactly(self):
        g = dense(groenewold_from_gaussian(GaussianState(1.2, 0.3 + 0.6j), NBASIS))
        assert np.array_equal(g, g.conj().T)

    @pytest.mark.parametrize("kappa,alpha0", [(2.0, 0.5), (1.0, 1 / np.sqrt(2.0))])
    def test_first_and_second_moments(self, kappa, alpha0):
        g = dense(groenewold_from_gaussian(GaussianState(kappa, alpha0), NBASIS))
        a = np.diag(np.sqrt(np.arange(1, NBASIS)), 1)
        mean_alpha = np.trace(g @ a)
        assert abs(mean_alpha - alpha0) < 1e-11
        mean_alpha2 = np.trace(g @ (a @ a))
        assert abs(mean_alpha2 - alpha0**2) < 1e-11
        nhalf = np.diag(np.arange(NBASIS) + 0.5)
        occ = np.trace(g @ nhalf).real
        assert abs(occ - (abs(alpha0) ** 2 + 1.0 / kappa)) < 1e-11


class TestGuards:
    def test_tail_mass_exceeded(self):
        with pytest.raises(TailMassExceeded):
            groenewold_from_gaussian(GaussianState(1.0, 2.0), 8)
        # z = (2 - kappa)/(2 + kappa) rounds to 1, where log(1 - z) is undefined
        with pytest.raises(TailMassExceeded, match="kappa = 1e-17 rounds z"):
            groenewold_from_gaussian(GaussianState(1e-17, 0.5), 8)

    def test_recurrence_rescales_past_the_float_range(self):
        # z = 0 at kappa = 2, so (1 - z)|alpha0|^2 = 27.5^2 = 756: r_n peaks
        # near e^756 / sqrt(2 pi 756), past the largest float, and is rescaled
        rows = groenewold_from_gaussian(GaussianState(2.0, 27.5), 1400)
        assert len(rows) - 1 == 463
        g = dense(rows)
        assert abs(np.trace(g).real - 1.0) < 1e-13
        assert np.abs(g - coherent_density(27.5, 1400)).max() < 1e-14

    def test_non_finite_recurrence_raises(self):
        # (1 - z)|alpha0|^2 is not a float here, so no rescaling can help;
        # in the second state neither is |alpha0|, though both its parts are
        for alpha0 in (1e200, complex(1.5e308, 1.5e308)):
            with pytest.raises(QuadratureNotConverged, match="not finite in sector nu = 0"):
                groenewold_from_gaussian(GaussianState(2.0, alpha0), 8)

    def test_below_the_limit_runs(self):
        # (1 - z)|alpha0|^2 = 289, while the radial quadrature would need its
        # Bessel kernel at 2 kappa s |alpha0| = 1637, past its domain (1500)
        g = dense(groenewold_from_gaussian(GaussianState(2.0, 17.0), 512))
        assert abs(np.trace(g).real - 1.0) < 1e-14
        assert np.abs(g - coherent_density(17.0, 512)).max() < 1e-13

    def test_tail_mass_function(self):
        g = [np.ones(10)]
        assert tail_mass(g) == pytest.approx(4.0)

    def test_basis_too_small(self):
        with pytest.raises(ConfigError):
            groenewold_from_gaussian(GaussianState(2.0, 0.5), 4)

    def test_state_validation(self):
        with pytest.raises(ConfigError):
            GaussianState(kappa=0.0, alpha0=0.5)
        with pytest.raises(ConfigError):
            GaussianState(kappa=-1.0, alpha0=0.5)
        with pytest.raises(ConfigError):
            GaussianState.from_gamma(0.0, 0.5, 0.0, ModelSpec.quartic(mu=0.5))

    def test_from_gamma_roundtrip(self):
        model = ModelSpec.quartic(mu=0.5)  # hbar = 1/2
        gamma = np.sqrt(model.hbar * model.omega / 2.0)  # kappa = 2
        state = GaussianState.from_gamma(gamma, 0.5, 0.0, model)
        assert state.kappa == pytest.approx(2.0, rel=1e-14)
        # alpha0 = sqrt(m omega / 2 hbar) q0 = q0 at hbar = 1/2
        assert state.alpha0 == pytest.approx(0.5 + 0.0j, rel=1e-14)


class TestDyadSymbol:
    def test_vacuum_symbol_is_gaussian(self):
        model = ModelSpec.quartic(mu=0.5)  # hbar = 1/2
        q = np.linspace(-2, 2, 9)
        p = np.linspace(-2, 2, 9)
        qq, pp = np.meshgrid(q, p)
        w = wigner_dyad_symbol(0, 0, qq, pp, model)
        alpha2 = (qq**2 * model.m * model.omega + pp**2 / (model.m * model.omega)) / (
            2 * model.hbar
        )
        assert np.allclose(w, 2.0 * np.exp(-2.0 * alpha2), atol=1e-13)
        assert np.abs(w.imag).max() == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_diagonal_value_at_origin(self, n):
        model = ModelSpec.sextic(mu=0.5)
        assert wigner_dyad_symbol(n, n, 0.0, 0.0, model) == pytest.approx(
            2.0 * (-1.0) ** n, abs=1e-14
        )

    def test_offdiagonal_vanishes_at_origin(self):
        model = ModelSpec.quartic(mu=0.5)
        assert wigner_dyad_symbol(2, 0, 0.0, 0.0, model) == 0.0

    def test_angular_dependence(self):
        model = ModelSpec.quartic(mu=0.5)
        # hbar = 1/2, m = omega = 1: alpha = q + i p
        r = 0.7
        base = wigner_dyad_symbol(3, 1, r, 0.0, model)
        for phi in (0.3, 1.1, 2.0, -0.8):
            got = wigner_dyad_symbol(3, 1, r * np.cos(phi), r * np.sin(phi), model)
            assert got == pytest.approx(base * np.exp(1j * (1 - 3) * phi), abs=1e-13)

    def test_hermitian_conjugation(self):
        model = ModelSpec.quartic(mu=0.5)
        a = wigner_dyad_symbol(4, 1, 0.6, -0.3, model)
        b = wigner_dyad_symbol(1, 4, 0.6, -0.3, model)
        assert b == pytest.approx(np.conj(a), abs=1e-14)

    def test_trace_orthogonality_by_quadrature(self):
        from groenewold_lab.evolve import composite_gauss_legendre_rule
        model = ModelSpec.quartic(mu=0.5)
        nodes, weights = composite_gauss_legendre_rule(-5.0, 5.0, 24, 10)
        qq, pp = np.meshgrid(nodes, nodes)
        ww = np.outer(weights, weights)
        pairs = [(0, 0), (1, 1), (1, 0), (2, 0), (2, 1), (3, 3), (6, 4)]
        symbols = {
            nm: wigner_dyad_symbol(nm[0], nm[1], qq, pp, model) for nm in pairs
        }
        for i, nm in enumerate(pairs):
            for nm2 in pairs[i:]:
                got = np.sum(symbols[nm] * np.conj(symbols[nm2]) * ww) / (
                    2 * np.pi * model.hbar
                )
                want = 1.0 if nm == nm2 else 0.0
                assert got == pytest.approx(want, abs=1e-9)

    def test_unit_mass_of_diagonal_dyads(self):
        from groenewold_lab.evolve import composite_gauss_legendre_rule
        model = ModelSpec.quartic(mu=0.5)
        nodes, weights = composite_gauss_legendre_rule(-5.0, 5.0, 24, 10)
        qq, pp = np.meshgrid(nodes, nodes)
        ww = np.outer(weights, weights)
        for n in (0, 1, 3):
            w = wigner_dyad_symbol(n, n, qq, pp, model)
            mass = np.sum(w.real * ww) / (2 * np.pi * model.hbar)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_negative_index_rejected(self):
        model = ModelSpec.quartic(mu=0.5)
        with pytest.raises(ConfigError):
            wigner_dyad_symbol(-1, 0, 0.0, 0.0, model)


class TestReturnedRows:
    def test_real_diagonal_and_lower_sectors(self):
        rows = groenewold_from_gaussian(GaussianState(kappa=2.0, alpha0=0.5), NBASIS)
        assert type(rows) is list
        assert [row.shape for row in rows] == [(NBASIS - nu,) for nu in range(len(rows))]
        assert rows[0].dtype == float
        assert all(row.dtype == complex for row in rows[1:])
        assert rows[0].sum() == pytest.approx(1.0, abs=1e-10)
        assert tail_mass(rows) < 1e-10
