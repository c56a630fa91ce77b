"""Generator construction: dual routes, ladder closure, structure checks.

Oracle notes. The quartic spectrum gives the diagonal quantum generator in
closed form, -i mu omega nu (2n + nu + 1). The classical generator has the
analytic tridiagonal form -i nu omega h'(P/2) (radial multiplication is
the Jacobi matrix P/2), which pins the commutator route, the Galerkin
route, and the frozen scale factors: P for the quartic model, (3/4) P^2
for the sextic. Ladder sums are checked in both directions against the
exact endpoints (quantum diagonal, analytic classical). A fully
independent position-momentum derivative route rebuilds the first
correction and must agree with the ladder-derivative route.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groenewold_lab import generators
from groenewold_lab.errors import (
    ConfigError,
    GuardInsufficient,
    QuadratureNotConverged,
)
from groenewold_lab.generators import (
    DYNAMICS,
    all_generator_blocks,
    classical_block,
    classical_block_analytic,
    cross_validate,
    hilbert_correction_block,
    hilbert_correction_pairs,
    moyal_correction_block,
    nu_block_from_pairs,
    quantum_block,
    semiclassical_block,
    semiquantum_block,
)
from groenewold_lab.model import ModelSpec
from groenewold_lab.sl2 import interior, p_block, x_blocks

QUARTIC = ModelSpec.quartic(mu=0.5)
SEXTIC = ModelSpec.sextic(mu=0.5)
HARMONIC = ModelSpec.harmonic(mu=0.5)
MIXED = ModelSpec(b=(0.0, 1.0 / 3.0, 0.5, 1.0), mu=0.4)
NMAX = 40


def dense(pair):
    """The square matrix M with M[r, r - d] = v[r] of a one-offset pair (d, v)."""
    d, v = pair
    rows = np.arange(max(0, d), min(len(v), len(v) + d))
    out = np.zeros((len(v), len(v)))
    out[rows, rows - d] = v[rows]
    return out


def rel_interior(a, b, guard):
    w = min(guard, a.shape[0] - 1)
    diff = np.abs(interior(a - b, w)).max()
    return diff / max(1.0, np.abs(interior(b, w)).max())


class TestQuantumBlock:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_quartic_closed_form(self, nu):
        n = 12
        block = quantum_block(nu, QUARTIC, n)
        k = np.arange(n)
        want = -1j * QUARTIC.mu * QUARTIC.omega * nu * (2 * k + nu + 1)
        assert np.allclose(np.diagonal(block), want, atol=1e-13)
        assert np.abs(block - np.diag(np.diagonal(block))).max() == 0.0

    def test_negative_nu_conjugates(self):
        assert np.array_equal(quantum_block(-2, SEXTIC, 9), np.conj(quantum_block(2, SEXTIC, 9)))

    def test_nu_zero_is_exactly_zero(self):
        assert np.abs(quantum_block(0, SEXTIC, 9)).max() == 0.0


class TestClassicalThreeRoutes:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_quartic_is_minus_i_nu_mu_omega_p(self, nu):
        n = NMAX - nu
        want = -1j * nu * QUARTIC.mu * QUARTIC.omega * p_block(nu, n)
        assert rel_interior(classical_block(nu, QUARTIC, n), want, 16) < 1e-10
        assert rel_interior(classical_block_analytic(nu, QUARTIC, n), want, 16) < 1e-12
        assert rel_interior(moyal_correction_block(nu, QUARTIC, n, j=0), want, 16) < 1e-10

    @pytest.mark.parametrize("nu", [1, 2])
    def test_sextic_scale_is_three_quarters(self, nu):
        n = NMAX - nu
        p = p_block(nu, n)
        want = -0.75j * nu * SEXTIC.mu**2 * SEXTIC.omega * (p @ p)
        assert rel_interior(classical_block(nu, SEXTIC, n), want, 16) < 1e-10
        assert rel_interior(moyal_correction_block(nu, SEXTIC, n, j=0), want, 16) < 1e-10
        # the unit-scale variant is wrong by construction
        wrong = want / 0.75
        assert rel_interior(classical_block(nu, SEXTIC, n), wrong, 16) > 1e-2

    @pytest.mark.parametrize("model", [QUARTIC, SEXTIC, MIXED], ids=["quartic", "sextic", "mixed"])
    def test_commutator_equals_analytic_equals_galerkin(self, model):
        nu, n = 1, NMAX - 1
        analytic = classical_block_analytic(nu, model, n)
        assert rel_interior(classical_block(nu, model, n), analytic, 16) < 1e-9
        assert rel_interior(moyal_correction_block(nu, model, n, j=0), analytic, 16) < 1e-9

    def test_nu_zero_classical_is_zero(self):
        assert np.abs(classical_block(0, SEXTIC, 20)).max() == 0.0


class TestLadderClosure:
    @pytest.mark.parametrize("model", [QUARTIC, SEXTIC, MIXED], ids=["quartic", "sextic", "mixed"])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_hilbert_ladder_reaches_classical(self, model, nu):
        n = NMAX - nu
        total = quantum_block(nu, model, n)
        for j in range(1, model.K):
            total = total + hilbert_correction_block(nu, model, n, j)
        assert rel_interior(total, classical_block_analytic(nu, model, n), 16) < 1e-8

    @pytest.mark.parametrize("model", [QUARTIC, SEXTIC, MIXED], ids=["quartic", "sextic", "mixed"])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_moyal_ladder_reaches_quantum(self, model, nu):
        n = NMAX - nu
        total = classical_block(nu, model, n)
        for j in range(1, model.K):
            total = total + moyal_correction_block(nu, model, n, j)
        assert rel_interior(total, quantum_block(nu, model, n), 16) < 1e-8

    def test_ladders_terminate(self):
        # derivatives of order 2K of the Hamiltonian are scalars
        assert np.abs(hilbert_correction_block(1, QUARTIC, 16, j=2)).max() == 0.0
        assert np.abs(hilbert_correction_block(1, SEXTIC, 16, j=3)).max() == 0.0
        assert np.abs(moyal_correction_block(1, QUARTIC, 16, j=2)).max() == 0.0
        assert np.abs(moyal_correction_block(1, HARMONIC, 16, j=1)).max() == 0.0


class TestSemiDynamics:
    @pytest.mark.parametrize("nu", [1, 2])
    def test_sextic_semiquantum_sl2_form(self, nu):
        n = NMAX - nu
        x1, x2, _ = x_blocks(nu, n)
        m = 1.5 * (x1 @ x2 + x2 @ x1) - (x1 - x2) @ (x1 - x2)
        want = -1j * nu * SEXTIC.mu**2 * SEXTIC.omega * m
        got = semiquantum_block(nu, SEXTIC, n, j=1)
        assert rel_interior(got, want, 16) < 1e-8

    def test_quartic_semiquantum_is_classical(self):
        n = NMAX - 1
        got = semiquantum_block(1, QUARTIC, n, j=1)
        assert np.array_equal(got, classical_block(1, QUARTIC, n))

    def test_semiquantum_order_zero_is_quantum(self):
        assert np.array_equal(semiquantum_block(2, SEXTIC, 12, j=0), quantum_block(2, SEXTIC, 12))

    def test_semiquantum_saturates_to_classical(self):
        n = 20
        sat = semiquantum_block(1, SEXTIC, n, j=7)
        assert np.array_equal(sat, classical_block(1, SEXTIC, n))

    def test_quartic_semiclassical_is_quantum(self):
        n = NMAX - 1
        got = semiclassical_block(1, QUARTIC, n, j=1)
        assert rel_interior(got, quantum_block(1, QUARTIC, n), 16) < 1e-8

    def test_harmonic_all_dynamics_coincide(self):
        n = 16
        want = quantum_block(1, HARMONIC, n)
        assert np.allclose(np.diagonal(want), -1j * HARMONIC.omega, atol=1e-14)
        for block in (
            classical_block(1, HARMONIC, n),
            semiquantum_block(1, HARMONIC, n, j=1),
            semiclassical_block(1, HARMONIC, n, j=1),
        ):
            assert np.abs(block - want).max() < 1e-12

    @pytest.mark.parametrize("model", [QUARTIC, SEXTIC], ids=["quartic", "sextic"])
    def test_antihermitian_structure(self, model):
        nu, n = 2, 30
        for block in (
            quantum_block(nu, model, n),
            classical_block(nu, model, n),
            semiquantum_block(nu, model, n, j=1),
        ):
            h = interior(1j * block / nu, 8)
            assert np.abs(h - h.conj().T).max() / max(1.0, np.abs(h).max()) < 1e-10


class TestEngineInternals:
    def test_raw_engine_nu_zero_residual(self):
        # structural zero for the frozen sector; the raw contraction must
        # agree to rounding
        pairs = hilbert_correction_pairs(SEXTIC, 1, 48)
        raw = nu_block_from_pairs(pairs, 0, 24)
        scale = np.abs(nu_block_from_pairs(pairs, 1, 24)).max()
        assert np.abs(raw).max() < 1e-10 * max(1.0, scale)

    def test_negative_nu_blocks_conjugate(self):
        for f in (
            lambda nu: hilbert_correction_block(nu, SEXTIC, 14, j=1),
            lambda nu: moyal_correction_block(nu, SEXTIC, 14, j=1),
            lambda nu: classical_block(nu, SEXTIC, 14),
            lambda nu: semiclassical_block(nu, SEXTIC, 14, j=1),
        ):
            assert np.allclose(f(-2), np.conj(f(2)), atol=0, rtol=0)

    def test_pure_fourth_derivatives_vanish_for_quartic(self):
        # the symbol is degree 2 in each of alpha, conj(alpha), so the
        # pure fourth ladder derivatives vanish and the balanced one is a
        # scalar; this is why the second correction dies for the quartic
        from groenewold_lab.generators import _h_derivative

        msize = 40
        h = (0, QUARTIC.eigenvalues(msize))
        inner = np.s_[: msize - 8, : msize - 8]
        pure_up = dense(_h_derivative(h, 4, 0))
        pure_down = dense(_h_derivative(h, 0, 4))
        assert np.abs(pure_up[inner]).max() < 1e-10
        assert np.abs(pure_down[inner]).max() < 1e-10
        balanced = dense(_h_derivative(h, 2, 2))
        want = 4.0 * QUARTIC.E * QUARTIC.mu**2
        assert np.abs(balanced[inner] - want * np.eye(msize - 8)).max() < 1e-10

    @pytest.mark.parametrize(
        "model, j, msize",
        [(SEXTIC, 1, 48), (SEXTIC, 2, 64), (QUARTIC, 1, 56)],
        ids=["sextic-j1", "sextic-j2", "quartic-j1"],
    )
    def test_one_offset_restriction_matches_dense_contraction(self, model, j, msize):
        # oracle: densify every returned pair and contract it the way the
        # engine once did, a Hadamard product of the two sector windows
        pairs = hilbert_correction_pairs(model, j, msize)
        dense_pairs = [(dense(l), dense(r), c) for l, r, c in pairs]
        for nu in range(msize):
            n = msize - nu
            want = np.zeros((n, n), dtype=complex)
            for l, r, c in dense_pairs:
                want += c * (l[nu : nu + n, nu : nu + n] * r[:n, :n].T)
            assert np.array_equal(nu_block_from_pairs(pairs, nu, n), want)

    @pytest.mark.parametrize("model", [QUARTIC, SEXTIC], ids=["quartic", "sextic"])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_position_momentum_route_matches_ladder_route(self, model, nu):
        # rebuild the first correction from (q, p) derivatives:
        # T1 = (hbar / 24 i) ([H_qq, G_pp] - 2 [H_qp, G_qp] + [H_pp, G_qq])
        n = 24
        msize = n + nu + 24
        hbar = model.hbar
        a = np.diag(np.sqrt(np.arange(1.0, msize)), 1)
        adag = a.T.copy()
        qmat = np.sqrt(hbar / 2.0) * (a + adag)
        pmat = 1j * np.sqrt(hbar / 2.0) * (adag - a)
        h = np.diag(model.eigenvalues(msize)).astype(complex)

        def d_q(mat):
            return (1j / hbar) * (pmat @ mat - mat @ pmat)

        def d_p(mat):
            return (-1j / hbar) * (qmat @ mat - mat @ qmat)

        def g_pairs(n_p, n_q):
            pairs = [(np.eye(msize, dtype=complex), np.eye(msize, dtype=complex), 1.0 + 0j)]
            for _ in range(n_p):
                pairs = [
                    t
                    for (l, r, c) in pairs
                    for t in (
                        (qmat @ l, r, -c * 1j / hbar),
                        (l, r @ qmat, c * 1j / hbar),
                    )
                ]
            for _ in range(n_q):
                pairs = [
                    t
                    for (l, r, c) in pairs
                    for t in (
                        (pmat @ l, r, c * 1j / hbar),
                        (l, r @ pmat, -c * 1j / hbar),
                    )
                ]
            return pairs

        pref = (1.0 / 6.0) / (1j * hbar) * (hbar / 2.0) ** 2
        got = np.zeros((n, n), dtype=complex)
        for i in range(3):
            hd = h
            for _ in range(2 - i):
                hd = d_q(hd)
            for _ in range(i):
                hd = d_p(hd)
            coef = pref * [1, -2, 1][i]
            for l, r, c in g_pairs(2 - i, i):
                # sector restriction of G -> L G R: S[m, k] = L[m+nu, k+nu] R[k, m]
                for left, right, w in ((hd @ l, r, coef * c), (l, r @ hd, -coef * c)):
                    got += w * (left[nu : nu + n, nu : nu + n] * right[:n, :n].T)
        want = hilbert_correction_block(nu, model, n, j=1)
        assert rel_interior(got, want, 8) < 1e-9


class TestGuards:
    def test_guard_insufficient_without_padding(self):
        with pytest.raises(GuardInsufficient):
            hilbert_correction_block(1, QUARTIC, 16, j=1, guard=1, pad=0)

    def test_quadrature_not_converged_with_starved_rule(self):
        with pytest.raises(QuadratureNotConverged):
            moyal_correction_block(1, SEXTIC, 24, j=1, q_nodes=5)

    def test_bad_orders_rejected(self):
        with pytest.raises(ConfigError):
            hilbert_correction_block(1, QUARTIC, 8, j=0)
        with pytest.raises(ConfigError):
            semiquantum_block(1, QUARTIC, 8, j=-1)
        with pytest.raises(ConfigError):
            moyal_correction_block(1, QUARTIC, 8, j=-1)
        with pytest.raises(ConfigError):
            quantum_block(1, QUARTIC, 0)
        with pytest.raises(ConfigError):
            nu_block_from_pairs([], -1, 4)


class TestDispatch:
    def test_unknown_dynamics_rejected(self):
        with pytest.raises(ConfigError):
            all_generator_blocks("stochastic", QUARTIC, 8)

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_all_blocks_match_single_blocks(self, dynamics):
        # one checked builder per engine makes both, so they agree bit for bit
        single_block = {
            "quantum": quantum_block,
            "classical": classical_block,
            "semiquantum1": lambda nu, model, n: semiquantum_block(nu, model, n, j=1),
            "semiclassical1": lambda nu, model, n: semiclassical_block(nu, model, n, j=1),
        }[dynamics]
        nmax = 24
        blocks = all_generator_blocks(dynamics, SEXTIC, nmax)
        assert len(blocks) == nmax
        for nu in (0, 1, 5):
            n = nmax - nu
            assert blocks[nu].shape == (n, n)
            assert np.array_equal(blocks[nu], single_block(nu, SEXTIC, n))

    def test_shared_rungs_built_once(self):
        # semiquantum1 builds C_1; classical reuses it and builds C_2;
        # semiclassical1 reuses both
        generators._hilbert_rungs.cache_clear()
        for dynamics in ("semiquantum1", "classical", "semiclassical1"):
            all_generator_blocks(dynamics, SEXTIC, 16)
        info = generators._hilbert_rungs.cache_info()
        assert (info.misses, info.hits) == (2, 3)
        # every caller gets the same arrays, so none may write to them
        assert not any(b.flags.writeable for b in generators._hilbert_rungs(SEXTIC, 1, 16, 15, 16))

    def test_frozen_sector_for_every_dynamics(self):
        for dynamics in DYNAMICS:
            blocks = all_generator_blocks(dynamics, SEXTIC, 16)
            assert np.abs(blocks[0]).max() == 0.0


class TestCrossValidate:
    def test_quartic_report(self):
        report = cross_validate(1, QUARTIC, 32)
        assert report.passed
        assert report.leading_coefficient == pytest.approx(1.0, abs=1e-9)
        assert report.residuals["classical_commutator_vs_analytic"] < 1e-8
        assert report.residuals["moyal_ladder_vs_quantum"] < 1e-8

    def test_sextic_report_records_three_quarters(self):
        report = cross_validate(1, SEXTIC, 32)
        assert report.passed
        assert report.leading_coefficient == pytest.approx(0.75, abs=1e-9)
        assert any("3/4" in note for note in report.notes)
        assert report.residuals["semiquantum1_vs_sl2_form"] < 1e-8

    def test_harmonic_report(self):
        report = cross_validate(2, HARMONIC, 20)
        assert report.passed
        assert report.residuals["harmonic_all_dynamics_coincide"] < 1e-12

    def test_mixed_model_report(self):
        report = cross_validate(2, MIXED, 28)
        assert report.passed
        assert report.leading_coefficient is None

    def test_frozen_sector_rejected(self):
        with pytest.raises(ConfigError):
            cross_validate(0, QUARTIC, 16)


@st.composite
def small_models(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    body = [
        draw(
            st.floats(
                min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
            )
        )
        for _ in range(k)
    ]
    mu = draw(st.floats(min_value=0.1, max_value=0.5))
    return ModelSpec(b=tuple(body) + (1.0,), mu=mu)


class TestPropertyLadder:
    @settings(max_examples=8, deadline=None)
    @given(small_models())
    def test_random_model_ladder_closure(self, model):
        nu, n, guard = 1, 18, 6
        assert (
            rel_interior(
                classical_block(nu, model, n),
                classical_block_analytic(nu, model, n),
                guard,
            )
            < 1e-7
        )
        total = classical_block(nu, model, n)
        for j in range(1, model.K):
            total = total + moyal_correction_block(nu, model, n, j)
        assert rel_interior(total, quantum_block(nu, model, n), guard) < 1e-6
