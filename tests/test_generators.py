"""Generator construction: dual routes, ladder closure, structure checks.

Oracle notes. The quartic spectrum gives the diagonal quantum generator in
closed form, -i mu omega nu (2n + nu + 1). The classical generator has the
analytic tridiagonal form -i nu omega h'(P/2) (radial multiplication is
the Jacobi matrix P/2), which pins the commutator route, the Galerkin
route, and the frozen scale factors: P for the quartic model, (3/4) P^2
for the sextic. Ladder sums are checked in both directions against the
exact endpoints (quantum diagonal, analytic classical). A fully
independent position-momentum derivative route rebuilds the first
correction and must agree with the ladder-derivative route. Sectors and
rungs come from the production builders through tests/oracles.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groenewold_lab import generators
from groenewold_lab.errors import ConfigError, QuadratureNotConverged
from groenewold_lab.generators import (
    DYNAMICS,
    all_generator_blocks,
    hilbert_correction_pairs,
    nu_block_from_pairs,
    rung_count,
)
from groenewold_lab.model import ModelSpec
from oracles import (
    classical_block_analytic,
    interior,
    p_block,
    quantum_block,
    rel_interior,
    rung,
    sector,
    square,
    x_blocks,
)

QUARTIC = ModelSpec.quartic(mu=0.5)
SEXTIC = ModelSpec.sextic(mu=0.5)
HARMONIC = ModelSpec.harmonic(mu=0.5)
MIXED = ModelSpec(b=(0.0, 1.0 / 3.0, 0.5, 1.0), mu=0.4)
NMAX = 40
MODELS = (("quartic", QUARTIC), ("sextic", SEXTIC), ("mixed", MIXED))
# model, nu, n of each sector that the removed in-package cross-check bounded
CROSS_CASES = (("quartic", QUARTIC, 1, 32), ("sextic", SEXTIC, 1, 32), ("mixed", MIXED, 2, 28))


def sizes(*nus):
    """(nu, NMAX - nu) for each nu, then the cross-check's (1, 32)."""
    cases = [pytest.param(nu, NMAX - nu, id=str(nu)) for nu in nus]
    return cases + [pytest.param(1, 32, id="1-n32")]


def ladder_cases():
    cases = [
        pytest.param(m, nu, NMAX - nu, id=f"{nu}-{name}") for nu in (1, 2) for name, m in MODELS
    ]
    return cases + [
        pytest.param(m, nu, n, id=f"{nu}-{name}-n{n}") for name, m, nu, n in CROSS_CASES
    ]


def assert_classical_routes_agree(model, nu, n):
    """Commutator and Galerkin classical routes both equal the analytic form."""
    analytic = classical_block_analytic(nu, model, n)
    assert rel_interior(sector("classical", model, nu, n), analytic, 16) < 1e-9
    assert rel_interior(rung("moyal", model, 0, nu, n), analytic, 16) < 1e-9


def assert_harmonic_dynamics_coincide(nu, n):
    """For K = 1 the four dynamics share the diagonal generator -i nu omega."""
    want = quantum_block(nu, HARMONIC, n)
    assert np.allclose(np.diagonal(want), -1j * nu * HARMONIC.omega, atol=1e-14)
    for dynamics in ("classical", "semiquantum1", "semiclassical1"):
        assert np.abs(sector(dynamics, HARMONIC, nu, n) - want).max() < 1e-12


def dense(pair):
    """The square matrix M with M[r, r - d] = v[r] of a one-offset pair (d, v)."""
    d, v = pair
    rows = np.arange(max(0, d), min(len(v), len(v) + d))
    out = np.zeros((len(v), len(v)))
    out[rows, rows - d] = v[rows]
    return out


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

    @pytest.mark.parametrize("model", [QUARTIC, SEXTIC, MIXED], ids=["quartic", "sextic", "mixed"])
    def test_builder_reads_one_spectrum_bit_exactly(self, model):
        # all_generator_blocks slices one spectrum; the oracle asks
        # level_frequencies for each sector's own, the same operations
        for nu, block in enumerate(all_generator_blocks("quantum", model, NMAX)):
            assert np.array_equal(square(block), quantum_block(nu, model, NMAX - nu))


class TestClassicalThreeRoutes:
    @pytest.mark.parametrize("nu, n", sizes(1, 2, 3))
    def test_quartic_is_minus_i_nu_mu_omega_p(self, nu, n):
        want = -1j * nu * QUARTIC.mu * QUARTIC.omega * p_block(nu, n)
        assert rel_interior(sector("classical", QUARTIC, nu, n), want, 16) < 1e-10
        assert rel_interior(classical_block_analytic(nu, QUARTIC, n), want, 16) < 1e-12
        assert rel_interior(rung("moyal", QUARTIC, 0, nu, n), want, 16) < 1e-10

    @pytest.mark.parametrize("nu, n", sizes(1, 2))
    def test_sextic_scale_is_three_quarters(self, nu, n):
        p = p_block(nu, n)
        want = -0.75j * nu * SEXTIC.mu**2 * SEXTIC.omega * (p @ p)
        assert rel_interior(sector("classical", SEXTIC, nu, n), want, 16) < 1e-10
        assert rel_interior(rung("moyal", SEXTIC, 0, nu, n), want, 16) < 1e-10
        # the unit-scale variant is wrong by construction
        wrong = want / 0.75
        assert rel_interior(sector("classical", SEXTIC, nu, n), wrong, 16) > 1e-2

    @pytest.mark.parametrize(
        "model, nu, n",
        [pytest.param(m, 1, NMAX - 1, id=name) for name, m in MODELS]
        + [pytest.param(m, nu, n, id=f"{name}-{nu}-n{n}") for name, m, nu, n in CROSS_CASES],
    )
    def test_commutator_equals_analytic_equals_galerkin(self, model, nu, n):
        assert_classical_routes_agree(model, nu, n)

    def test_nu_zero_classical_is_zero(self):
        assert np.abs(sector("classical", SEXTIC, 0, 20)).max() == 0.0


class TestLadderClosure:
    @pytest.mark.parametrize("model", [QUARTIC, SEXTIC, MIXED], ids=["quartic", "sextic", "mixed"])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_hilbert_ladder_reaches_classical(self, model, nu):
        n = NMAX - nu
        total = quantum_block(nu, model, n)
        for j in range(1, model.K):
            total = total + rung("hilbert", model, j, nu, n)
        assert rel_interior(total, classical_block_analytic(nu, model, n), 16) < 1e-8

    @pytest.mark.parametrize("model, nu, n", ladder_cases())
    def test_moyal_ladder_reaches_quantum(self, model, nu, n):
        total = sector("classical", model, nu, n)
        for j in range(1, model.K):
            total = total + rung("moyal", model, j, nu, n)
        assert rel_interior(total, quantum_block(nu, model, n), 16) < 1e-8

    def test_ladders_terminate(self):
        # derivatives of order 2K of the Hamiltonian are scalars, so the
        # Moyal rung D_K vanishes identically and the commutator rung C_K
        # cancels to rounding
        for model in (QUARTIC, SEXTIC):
            c_k = rung("hilbert", model, model.K, 1, 16)
            assert np.abs(c_k).max() < 1e-9 * np.abs(rung("hilbert", model, 1, 1, 16)).max()
        assert np.abs(rung("moyal", QUARTIC, 2, 1, 16)).max() == 0.0
        assert np.abs(rung("moyal", HARMONIC, 1, 1, 16)).max() == 0.0


class TestSemiDynamics:
    @pytest.mark.parametrize("nu, n", sizes(1, 2))
    def test_sextic_semiquantum_sl2_form(self, nu, n):
        x1, x2, _ = x_blocks(nu, n)
        m = 1.5 * (x1 @ x2 + x2 @ x1) - (x1 - x2) @ (x1 - x2)
        want = -1j * nu * SEXTIC.mu**2 * SEXTIC.omega * m
        got = sector("semiquantum1", SEXTIC, nu, n)
        assert rel_interior(got, want, 16) < 1e-8

    def test_quartic_semiquantum_is_classical(self):
        n = NMAX - 1
        got = sector("semiquantum1", QUARTIC, 1, n)
        assert np.array_equal(got, sector("classical", QUARTIC, 1, n))

    def test_quartic_semiclassical_is_quantum(self):
        n = NMAX - 1
        got = sector("semiclassical1", QUARTIC, 1, n)
        assert rel_interior(got, quantum_block(1, QUARTIC, n), 16) < 1e-8

    def test_harmonic_all_dynamics_coincide(self):
        assert_harmonic_dynamics_coincide(1, 16)

    @pytest.mark.parametrize(
        "model, nu, n",
        [pytest.param(m, 2, 30, id=name) for name, m in MODELS]
        + [pytest.param(m, nu, n, id=f"{name}-{nu}-n{n}") for name, m, nu, n in CROSS_CASES],
    )
    def test_antihermitian_structure(self, model, nu, n):
        for dynamics in ("quantum", "classical", "semiquantum1"):
            h = interior(1j * sector(dynamics, model, nu, n) / nu, 8)
            assert np.abs(h - h.conj().T).max() / max(1.0, np.abs(h).max()) < 1e-10


class TestEngineInternals:
    def test_raw_engine_nu_zero_residual(self):
        # structural zero for the frozen sector; the raw contraction must
        # agree to rounding
        pairs = hilbert_correction_pairs(SEXTIC, 1, 48)
        raw = nu_block_from_pairs(pairs, 0, 24)
        scale = np.abs(nu_block_from_pairs(pairs, 1, 24)).max()
        assert np.abs(raw).max() < 1e-10 * max(1.0, scale)

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
        [(SEXTIC, 1, 48), (SEXTIC, 2, 64), (QUARTIC, 1, 56),
         (SEXTIC, 1, 1), (SEXTIC, 2, 2), (SEXTIC, 2, 3)],
        ids=["sextic-j1", "sextic-j2", "quartic-j1", "sextic-j1-n1", "sextic-j2-n2", "sextic-j2-n3"],
    )
    def test_one_offset_restriction_matches_dense_contraction(self, model, j, msize):
        # oracle: densify every returned pair and contract it the way the
        # engine once did, a Hadamard product of the two sector windows; the
        # tiny bases put most pair offsets at or beyond the block size
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
        want = rung("hilbert", model, 1, nu, n)
        assert rel_interior(got, want, 8) < 1e-9


# the models on which the exact 2j pad and the exact Moyal rule are pinned,
# with every rung j <= K - 1
RUNG_MODELS = (
    ("sextic-fig3", SEXTIC),
    ("sextic-fig4", ModelSpec.sextic(mu=0.25)),
    ("quartic", QUARTIC),
    ("mixed-k3", ModelSpec(b=(0.3, -0.2, 0.5, 0.1), mu=0.25)),
    ("k4", ModelSpec(b=(0.0, 0.0, 0.0, 0.0, 1.0), mu=0.2)),
)
RUNG_CASES = [
    pytest.param(m, j, id=f"{name}-j{j}") for name, m in RUNG_MODELS for j in range(1, m.K)
]


def rungs_on_pad(model, j, nmax, pad):
    """C_j on every sector nu = 1 .. nmax - 1 from the public pair list on nmax + pad levels."""
    pairs = hilbert_correction_pairs(model, j, nmax + pad)
    return [nu_block_from_pairs(pairs, nu, nmax - nu) for nu in range(1, nmax)]


class TestExactPad:
    @pytest.mark.parametrize("model, j", RUNG_CASES)
    def test_rungs_need_exactly_2j_rows(self, model, j):
        # the production rung is bit for bit what the earlier pad-doubling
        # check built on 8 K j + 8 rows and on twice that plus 8; one row
        # fewer than 2j changes some sector, so the reach is tight
        nmax = 48
        got = [rung("hilbert", model, j, nu, nmax - nu) for nu in range(1, nmax)]
        pad = 8 * model.K * j + 8
        for wide in (pad, 2 * pad + 8):
            want = rungs_on_pad(model, j, nmax, wide)
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        short = rungs_on_pad(model, j, nmax, 2 * j - 1)
        assert not all(np.array_equal(g, w) for g, w in zip(got, short, strict=True))

    def test_classical_builds_each_rung_once(self, monkeypatch):
        calls = []

        def counted(model, j, msize):
            calls.append((j, msize))
            return hilbert_correction_pairs(model, j, msize)

        monkeypatch.setattr(generators, "hilbert_correction_pairs", counted)
        all_generator_blocks("classical", SEXTIC, 20)
        assert calls == [(1, 22), (2, 24)]


def moyal_gap(got, model, j, nodes_over_nmax):
    """Largest relative gap of the rungs from _moyal_sectors on nmax + nodes_over_nmax nodes."""
    nmax = len(got) + 1
    moyal = generators._moyal_sectors(model, j, nmax, nmax + nodes_over_nmax)
    gaps = []
    for nu, block in enumerate(got, start=1):
        want = moyal(nu)
        gaps.append(np.abs(block - want).max() / max(1.0, np.abs(want).max()))
    return max(gaps)


class TestExactRule:
    @pytest.mark.parametrize("model, j", RUNG_CASES)
    def test_moyal_rungs_are_exact_and_built_once(self, model, j, monkeypatch):
        # the integrands have degree <= 2n + K - 3, so nmax + 16 nodes are
        # already exact and the production rule on 2 nmax + 16 agrees to
        # rounding (measured 1.1e-12 at most); 20 nodes fewer leave the low
        # sectors short of the n + K/2 - 1 nodes they need, and the rung
        # misses by order one (measured 1.02 at least)
        nmax = 48
        calls = []
        build = generators._moyal_sectors

        def counted(model, j, nmax, q_nodes):
            moyal = build(model, j, nmax, q_nodes)
            return lambda nu: calls.append(nu) or moyal(nu)

        monkeypatch.setattr(generators, "_moyal_sectors", counted)
        got = [rung("moyal", model, j, nu, nmax - nu) for nu in range(1, nmax)]
        assert calls == list(range(1, nmax))
        assert moyal_gap(got, model, j, 16) < 1e-11
        assert moyal_gap(got, model, j, -4) > 0.5

    def test_d1_setup_is_built_once_per_call(self, monkeypatch):
        # fig3's semiclassical1 build (N = 128, sectors 0-23) makes the
        # float symbol and its 4 h-jets (3 derivative steps each) once, not
        # once per sector (23 symbols, 92 h-jets), and one stacked run of
        # the four Laguerre families, orders nu .. nu + 3, per sector
        symbols, h_steps, families = [], [], []
        symbol, dalpha, dalphabar, stacked = (
            ModelSpec.classical_symbol,
            generators._jet_dalpha,
            generators._jet_dalphabar,
            generators._laguerre_families,
        )

        def h_counted(step):
            def counted(terms, family):
                if not family:  # a step of an h-jet; w-jets carry the family
                    h_steps.append(1)
                return step(terms, family)

            return counted

        def families_counted(nu, count, rows, x):
            families.append((nu, count, rows))
            return stacked(nu, count, rows, x)

        monkeypatch.setattr(ModelSpec, "classical_symbol", lambda m: symbols.append(1) or symbol(m))
        monkeypatch.setattr(generators, "_jet_dalpha", h_counted(dalpha))
        monkeypatch.setattr(generators, "_jet_dalphabar", h_counted(dalphabar))
        monkeypatch.setattr(generators, "_laguerre_families", families_counted)
        blocks = all_generator_blocks("semiclassical1", SEXTIC, 128, nu_top=23)
        assert (len(symbols), len(h_steps), families) == (1, 4 * 3, [])
        for _ in blocks:
            pass
        assert (len(symbols), len(h_steps)) == (1, 4 * 3)
        assert families == [(nu, 4, 128 - nu) for nu in range(1, 24)]


class TestGuards:
    def test_semiclassical1_basis_ceiling(self):
        # even the sector-1 rule of N = 174 (364 nodes) is broken, in the
        # port as in scipy's roots_genlaguerre; below that, the ceiling depends on the sectors
        # the state fills (fig3's state, sectors 0-23: N = 172)
        with pytest.raises(QuadratureNotConverged, match="364 nodes for alpha = 1:"):
            list(all_generator_blocks("semiclassical1", SEXTIC, 174, nu_top=1))

    def test_bad_orders_rejected(self):
        # all_generator_blocks checks its arguments at the call: no case
        # here advances the iterator it returns
        with pytest.raises(ConfigError):
            hilbert_correction_pairs(QUARTIC, 0, 8)
        with pytest.raises(ConfigError):
            hilbert_correction_pairs(QUARTIC, 4, 8)
        with pytest.raises(ConfigError, match="block size"):
            all_generator_blocks("quantum", QUARTIC, 0)
        with pytest.raises(ConfigError):
            nu_block_from_pairs([], -1, 4)
        with pytest.raises(ConfigError):
            all_generator_blocks("classical", QUARTIC, 8, nu_top=8)
        with pytest.raises(ConfigError, match="nu_top"):
            all_generator_blocks("semiclassical1", QUARTIC, 8, nu_top=-1)
        # K = 5: the full ladder passes the tabulated inverse-sinc terms
        k5 = ModelSpec(b=(0.0,) * 5 + (1.0,), mu=0.2)
        assert rung_count("semiquantum1", k5.K) == 1
        with pytest.raises(ConfigError, match="tabulated through j = 3"):
            all_generator_blocks("classical", k5, 8)


class TestDispatch:
    def test_unknown_dynamics_rejected(self):
        # at the call, like every argument check
        with pytest.raises(ConfigError):
            all_generator_blocks("stochastic", QUARTIC, 8)

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_all_blocks_match_single_blocks(self, dynamics):
        # stopping at nu_top, as moment runs do, leaves every block it
        # builds bit for bit unchanged
        nmax = 24
        blocks = list(all_generator_blocks(dynamics, SEXTIC, nmax))
        assert len(blocks) == nmax
        for nu_top in (0, 1, 5):
            top = list(all_generator_blocks(dynamics, SEXTIC, nmax, nu_top=nu_top))
            assert len(top) == nu_top + 1
            for nu, block in enumerate(top):
                assert square(block).shape == (nmax - nu, nmax - nu)
                assert np.array_equal(block, blocks[nu])

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_uncorrected_sectors_arrive_as_diagonals(self, dynamics):
        # nu = 0, every quantum sector and every sector of a K = 1 model
        # carry no correction: 1-D, the rest square
        sextic = [block.ndim for block in all_generator_blocks(dynamics, SEXTIC, 12)]
        corrected = dynamics != "quantum"
        assert sextic == [1] + [2 if corrected else 1] * 11
        assert [block.ndim for block in all_generator_blocks(dynamics, HARMONIC, 12)] == [1] * 12

    def test_frozen_sector_for_every_dynamics(self):
        for dynamics in DYNAMICS:
            blocks = list(all_generator_blocks(dynamics, SEXTIC, 16))
            assert np.abs(blocks[0]).max() == 0.0


class TestCrossValidate:
    def test_harmonic_report(self):
        # the harmonic sector nu=2, n=20: both classical routes, and all
        # four dynamics, reduce to the exact diagonal generator
        assert_classical_routes_agree(HARMONIC, 2, 20)
        assert_harmonic_dynamics_coincide(2, 20)


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
        classical = sector("classical", model, nu, n)
        assert rel_interior(classical, classical_block_analytic(nu, model, n), guard) < 1e-7
        total = classical
        for j in range(1, model.K):
            total = total + rung("moyal", model, j, nu, n)
        assert rel_interior(total, quantum_block(nu, model, n), guard) < 1e-6
