"""Propagation routes, trajectories, and the continuum Liouville oracles.

Frozen facts used below. The quantum flow multiplies each matrix entry by
e^{-i (E_m - E_n) t / hbar}, an entrywise closed form valid for any
initial matrix. The quartic spectrum is mu hbar omega (n^2 + n + 1/2),
so every quantum sector recurs exactly at T = 2 pi / (mu omega); the
sextic analog recurs at 4 pi / (mu^2 omega). The classical Gaussian
moments have a one-dimensional radial Bessel reduction, with
<alpha>(0) = alpha0, <alpha^2>(0) = alpha0^2, mass identically 1, and
<alpha>(t) = alpha0 e^{-i omega t} for the harmonic model at any width.
"""

import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from groenewold_lab import evolve as evolve_module
from groenewold_lab.errors import ConfigError, QuadratureNotConverged, ValidationFailed
from groenewold_lab.evolve import (
    BlockPropagator,
    classical_moment_quadrature,
    evolve,
)
from groenewold_lab import generators
from groenewold_lab.generators import DYNAMICS, all_generator_blocks
from groenewold_lab.model import ModelSpec
from groenewold_lab.observables import mean_alpha_series, snapshot_spectrum
from groenewold_lab.render import BoundaryMassWarning, whorl_phase_field, wigner_field
from groenewold_lab.states import GaussianState, groenewold_from_gaussian
from oracles import blocks, classical_block_analytic, dense, purity_by_sector_products, sector_rows

QUARTIC = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5)
SEXTIC = ModelSpec(b=(0.0, 0.0, 0.0, 1.0), mu=0.5)
SEXTIC_SMALL_HBAR = ModelSpec(b=(0.0, 0.0, 0.0, 1.0), mu=0.25)
HARMONIC = ModelSpec(b=(0.0, 1.0), mu=0.5)
FIG3_STATE = GaussianState(kappa=2.0, alpha0=0.5)
FIG4_STATE = GaussianState(kappa=1.0, alpha0=2.0**-0.5)
CENTRED_STATE = GaussianState(kappa=2.0, alpha0=0.0)


def mean_alpha(traj, index):
    g1 = traj.diagonal_history(1)[index]
    return complex(np.sum(np.sqrt(np.arange(1, len(g1) + 1)) * g1))


class TestBlockPropagator:
    def test_identity_route(self):
        # the zero generator (the frozen nu = 0 sector), given as its
        # diagonal, takes the diagonal route, and exp(0 t) g is g bit for bit
        # for the real vectors that sector holds, signed zeros included
        p = BlockPropagator(np.zeros(4))
        assert p.route == "diagonal"
        g = np.array([1.0, -0.0, 2.5, 0.0]) + 0j
        out = p.trajectory(g, [0.0, 2.0])
        for row in out:
            assert np.array_equal(row, g)
            assert np.array_equal(np.signbit(row.real), np.signbit(g.real))
            assert np.array_equal(np.signbit(row.imag), np.signbit(g.imag))

    def test_empty_generator_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            BlockPropagator(np.zeros((0, 0)))
        with pytest.raises(ConfigError, match="non-empty"):
            BlockPropagator(np.zeros(0))

    def test_diagonal_route(self):
        d = np.array([-1j, -3j, -7j])
        p = BlockPropagator(d)
        assert p.route == "diagonal"
        g = np.array([1.0, 2.0, 3.0], dtype=complex)
        out = p.trajectory(g, [0.4])[0]
        assert np.abs(out - np.exp(0.4 * d) * g).max() < 1e-15

    def test_unitary_route(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = h + h.conj().T
        p = BlockPropagator(-1j * h)
        assert p.route == "unitary"
        g = rng.normal(size=6) + 1j * rng.normal(size=6)
        times = [0.3, 1.7]
        for t, row in zip(times, p.trajectory(g, times)):
            assert np.abs(row - expm(-1j * h * t) @ g).max() < 1e-12
            assert abs(np.linalg.norm(row) - np.linalg.norm(g)) < 1e-12

    def test_diagonalizable_route(self):
        L = np.array([[0.0, 1.0], [-2.0, -3.0]], dtype=complex)
        p = BlockPropagator(L)
        assert p.route == "diagonalizable"
        g = np.array([1.0, -1.0], dtype=complex)
        times = [0.5, 2.0]
        for t, row in zip(times, p.trajectory(g, times)):
            assert np.abs(row - expm(L * t) @ g).max() < 1e-10

    def test_defective_generator_rejected(self):
        # a Jordan block has no eigenvector basis at all; its near-parallel
        # eigenvectors overflow the Frobenius product, silently
        L = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationFailed, match="condition number"):
                BlockPropagator(L)

    def test_singular_eigenvector_basis_rejected(self):
        # inv cannot invert this nilpotent block's eigenvector basis at all:
        # an infinite condition number, not a LinAlgError
        with pytest.raises(ValidationFailed, match="condition number inf"):
            BlockPropagator(np.diag(np.ones(5), 1))

    @pytest.mark.parametrize("dynamics", ["classical", "semiclassical1"])
    def test_frobenius_gate_bounds_the_two_norm_condition(self, dynamics):
        # ||V||_F ||V^-1||_F lies in [cond_2(V), n cond_2(V)], so the gate
        # on it is at least as strict as one on cond_2; fig3's sectors pass
        factored = [BlockPropagator(L) for L in blocks(dynamics, SEXTIC, 48)]
        general = [p for p in factored if p.route == "diagonalizable"]
        assert len(general) >= 30
        for p in general:
            frobenius = np.linalg.norm(p._v) * np.linalg.norm(p._vinv)
            cond = np.linalg.cond(p._v)
            assert cond <= frobenius * (1 + 1e-9)
            assert frobenius <= len(p._v) * cond * (1 + 1e-9)  # near-unitary V reaches n
            assert frobenius < 1e8

    # i L of semiquantum1 and classical is Hermitian by construction, yet on
    # fig3's filled sectors (N = 128, nu = 1 .. 23) the 1e-12 test sends
    # semiquantum1's nu = 1 (off by 1.15e-12 relative) and all 23 classical
    # sectors to general eig; the closed-form generators should flip these
    @pytest.mark.xfail(strict=True, reason="rounding misses the Hermitian test (ROADMAP item 2)")
    @pytest.mark.parametrize("dynamics", ["semiquantum1", "classical"])
    def test_hermitian_flows_take_the_unitary_route(self, dynamics):
        filled = blocks(dynamics, SEXTIC, 128, top=23)
        assert [BlockPropagator(L).route for L in filled[1:]] == ["unitary"] * 23

    @pytest.mark.parametrize("dynamics", ["classical", "semiclassical1"])
    def test_general_route_runs_no_svd(self, monkeypatch, dynamics):
        def forbidden(*args, **kwargs):
            raise AssertionError("the diagonalizable route ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(np.linalg, "cond", forbidden)
        g0 = groenewold_from_gaussian(FIG3_STATE, 48)
        traj = evolve(g0, dynamics, SEXTIC, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(traj.diagonal_history(1)))

    def test_time_zero_bit_exact_on_every_route(self):
        rng = np.random.default_rng(3)
        gens = [
            np.zeros(5, dtype=complex),
            -1j * np.arange(1.0, 6.0),
            -1j * np.eye(5) - np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1),
        ]
        g = rng.normal(size=5) + 1j * rng.normal(size=5)
        for L in gens:
            out = BlockPropagator(L).trajectory(g, [0.0, 0.7])
            assert np.array_equal(out[0], g)

    def test_group_property(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(8, 8))
        h = h + h.T
        p = BlockPropagator(-1j * h)
        g = rng.normal(size=8) + 1j * rng.normal(size=8)
        two_step = p.trajectory(p.trajectory(g, [0.6])[0], [1.1])[0]
        direct = p.trajectory(g, [1.7])[0]
        assert np.abs(two_step - direct).max() < 1e-10

    def test_shape_and_time_validation(self):
        p = BlockPropagator(np.zeros((3, 3)))
        with pytest.raises(ConfigError):
            p.trajectory(np.zeros(2), [0.0])
        with pytest.raises(ConfigError):
            p.trajectory(np.zeros(3), [1.0, 0.5])
        with pytest.raises(ConfigError):
            p.trajectory(np.zeros(3), [np.inf])
        with pytest.raises(ConfigError):
            p.trajectory(np.zeros(3), [])
        with pytest.raises(ConfigError):
            BlockPropagator(np.zeros((2, 3)))

    def test_factored_sector_does_not_keep_its_generator(self):
        # one generator of each route: diagonal, unitary, diagonalizable
        upper, lower = np.diag(np.ones(4), 1), np.diag(np.ones(4), -1)
        routes = []
        for make in (
            lambda: -1j * np.arange(1.0, 6.0),
            lambda: -1j * (upper + lower),
            lambda: -1j * np.eye(5) - upper + 0.5 * lower,
        ):
            L = make()
            alive = weakref.ref(L)
            p = BlockPropagator(L)
            del L
            assert alive() is None, p.route
            assert p.trajectory(np.ones(5), [0.0, 0.5]).shape == (2, 5)
            routes.append(p.route)
        assert routes == ["diagonal", "unitary", "diagonalizable"]


class TestEvolve:
    def test_quantum_entrywise_closed_form_any_input(self):
        rng = np.random.default_rng(5)
        n = 12
        freqs = SEXTIC.eigenvalues(n) / SEXTIC.hbar
        phase = freqs[:, None] - freqs[None, :]
        g0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g0 = g0 + g0.conj().T
        traj = evolve(sector_rows(g0), "quantum", SEXTIC, [0.0, 0.7, 1.3])
        for i, t in enumerate([0.0, 0.7, 1.3]):
            want = np.exp(-1j * phase * t) * g0
            assert np.abs(traj.matrix(i) - want).max() < 1e-12

    def test_quartic_quantum_recurrence(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 96)
        T = 2.0 * np.pi / (QUARTIC.mu * QUARTIC.omega)
        traj = evolve(g0, "quantum", QUARTIC, [0.0, T])
        assert np.abs(traj.matrix(1) - traj.matrix(0)).max() < 1e-9

    def test_sextic_quantum_recurrence(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 64)
        T = 4.0 * np.pi / (SEXTIC.mu**2 * SEXTIC.omega)
        traj = evolve(g0, "quantum", SEXTIC, [0.0, T])
        assert np.abs(traj.matrix(1) - traj.matrix(0)).max() < 1e-9

    def test_quartic_classical_does_not_recur(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 64)
        T = 2.0 * np.pi / (QUARTIC.mu * QUARTIC.omega)
        traj = evolve(g0, "classical", QUARTIC, [0.0, T])
        g1 = traj.diagonal_history(1)
        rel = np.linalg.norm(g1[1] - g1[0]) / np.linalg.norm(g1[0])
        assert rel > 0.1

    def test_conservation_suite(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 48)
        times = np.linspace(0.0, np.pi, 5)
        for dynamics in ("quantum", "classical", "semiquantum1"):
            traj = evolve(g0, dynamics, SEXTIC, times)
            tr = traj.history[0].sum(axis=1)
            assert np.abs(tr - tr[0]).max() == 0.0
            assert np.abs(tr[0] - 1.0) < 1e-10
            pur = traj.purity_series()
            assert abs(pur[0] - FIG3_STATE.kappa / 2.0) < 1e-10
            assert np.abs(pur - pur[0]).max() < 1e-8
            for i in range(len(times)):
                m = traj.matrix(i)
                assert np.array_equal(m, m.conj().T)
            occ = (traj.diagonal_history(0) * (np.arange(48) + 0.5)).sum(axis=1)
            assert np.abs(occ - occ[0]).max() < 1e-12

    def test_purity_matches_dense_trace(self):
        rng = np.random.default_rng(9)
        g0 = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        traj = evolve(sector_rows(g0 + g0.conj().T), "quantum", QUARTIC, [0.0, 0.9])
        for i in (0, 1):
            m = traj.matrix(i)
            assert abs(traj.purity_series()[i] - np.trace(m @ m)) < 1e-12

    # FIG3_STATE fills sectors 0-23 at N = 32; the empty ones are never
    # propagated, and the filled ones are propagated from the top down
    def test_one_propagation_per_sector(self, monkeypatch):
        seen = []
        original = BlockPropagator.trajectory

        def counting(self, g0, times):
            seen.append(len(g0))
            return original(self, g0, times)

        monkeypatch.setattr(BlockPropagator, "trajectory", counting)
        g0 = groenewold_from_gaussian(FIG3_STATE, 32)
        evolve(g0, "semiquantum1", QUARTIC, [0.0, 0.8])
        assert seen == [32 - nu for nu in range(23, -1, -1)]

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_only_filled_sectors_are_built(self, monkeypatch, dynamics):
        # the oracle propagates every sector of the full build; evolve builds
        # and stores sectors 0-23, the ones FIG3_STATE fills, and must match
        # it bit for bit there, with exact zeros read above
        n = 48
        g0 = groenewold_from_gaussian(FIG3_STATE, n)
        times = np.linspace(0.0, np.pi, 5)
        asked = []

        def recording(*args, nu_top):
            asked.append(nu_top)
            return all_generator_blocks(*args, nu_top=nu_top)

        monkeypatch.setattr(evolve_module, "all_generator_blocks", recording)
        traj = evolve(g0, dynamics, SEXTIC, times)
        assert asked == [23]
        assert len(traj.history) == 24
        full = dense(g0)
        for nu, block in enumerate(blocks(dynamics, SEXTIC, n)):
            g = np.diagonal(full, offset=-nu)
            want = BlockPropagator(block).trajectory(g if nu else g.real, times)
            if nu < 24:
                assert np.array_equal(traj.history[nu], want)
            else:
                assert not np.any(want)
                for signed in (nu, -nu):
                    zeros = traj.diagonal_history(signed)
                    assert zeros.shape == (len(times), n - nu) and not np.any(zeros)

    def test_centred_state_builds_no_correction_rung(self, monkeypatch):
        # a Gaussian centred at the origin fills sector 0 only, which every
        # flow freezes, so semiclassical1 needs neither C_j nor D_j
        built = []
        pairs, moyal = generators.hilbert_correction_pairs, generators._moyal_sectors
        monkeypatch.setattr(
            generators, "hilbert_correction_pairs", lambda *a: built.append("C") or pairs(*a)
        )
        monkeypatch.setattr(generators, "_moyal_sectors", lambda *a: built.append("D") or moyal(*a))
        g0 = groenewold_from_gaussian(GaussianState(kappa=2.0, alpha0=0.0), 32)
        traj = evolve(g0, "semiclassical1", SEXTIC, [0.0, 0.8, 1.6])
        assert built == []
        assert len(traj.history) == 1
        assert np.array_equal(traj.history[0], np.tile(g0[0], (3, 1)))
        for nu in range(1, 32):
            for signed in (nu, -nu):
                zeros = traj.diagonal_history(signed)
                assert zeros.shape == (3, 32 - nu) and not np.any(zeros)

    @pytest.mark.parametrize("dynamics", ["classical", "semiclassical1"])
    def test_each_sector_is_factored_before_the_next_is_built(self, monkeypatch, dynamics):
        # FIG3_STATE fills sectors 0-23 at N = 32: semiclassical1's D_1
        # setup is made once, at the call, then from sector 23 down each
        # sector's C_1 and C_2 (and D_1) blocks are built and factored
        # before the next sector's are, and sector 0 is factored last with
        # no rung built
        events = []
        block_of, moyal_of, factor = (
            generators.nu_block_from_pairs, generators._moyal_sectors, BlockPropagator.__init__
        )

        def built_c(pairs, nu, n):
            events.append(("C", nu))
            return block_of(pairs, nu, n)

        def built_d(model, j, nmax, q_nodes):
            events.append(("D setup", nmax))
            moyal = moyal_of(model, j, nmax, q_nodes)
            return lambda nu: events.append(("D", nu)) or moyal(nu)

        def factored(self, L):
            events.append(("factor", 32 - len(L)))
            factor(self, L)

        monkeypatch.setattr(generators, "nu_block_from_pairs", built_c)
        monkeypatch.setattr(generators, "_moyal_sectors", built_d)
        monkeypatch.setattr(BlockPropagator, "__init__", factored)
        g0 = groenewold_from_gaussian(FIG3_STATE, 32)
        evolve(g0, dynamics, SEXTIC, [0.0, 0.8])
        rungs = ["C", "C", "D"] if dynamics == "semiclassical1" else ["C", "C"]
        want = [("D setup", 32)] if dynamics == "semiclassical1" else []
        for nu in range(23, 0, -1):
            want += [(r, nu) for r in rungs] + [("factor", nu)]
        want += [("factor", 0)]
        assert events == want

    @pytest.mark.parametrize("dynamics", ["classical", "semiclassical1"])
    def test_holds_few_blocks_beyond_its_history(self, dynamics):
        # the flow at N = 128 (sectors 0-23 filled) holds at most a fixed
        # handful of N x N complex blocks besides the history it returns:
        # measured 7.8 (classical) and 11.1 (semiclassical1) blocks, where
        # whole-run lists of sector blocks took 80 and 119; a run at N = 16
        # first warms up what a first run sets up once
        n, times = 128, np.linspace(0.0, np.pi, 5)
        evolve(groenewold_from_gaussian(FIG3_STATE, 16), dynamics, SEXTIC, times)
        g0 = groenewold_from_gaussian(FIG3_STATE, n)
        tracemalloc.start()
        try:
            traj = evolve(g0, dynamics, SEXTIC, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        history = sum(rows.nbytes for rows in traj.history.values())
        assert peak - history <= 16 * n * n * np.dtype(complex).itemsize

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_last_sector_of_one_entry_matches_its_exponential(self, dynamics):
        # alpha0 = 1e-3 fills every sector at N = 6, so the 1 x 1 block of
        # nu = 5 is factored; a corrected one is a square block with an
        # exactly zero real part, takes the unitary route and still gives
        # exp(t L) g bit for bit
        g0 = groenewold_from_gaussian(GaussianState(kappa=2.0, alpha0=1e-3), 6, tail_tol=1e-6)
        times = np.array([0.0, 0.3, 1.7, 5.0])
        traj = evolve(g0, dynamics, SEXTIC, times)
        (last,) = np.ravel(all_generator_blocks(dynamics, SEXTIC, 6)(5))
        assert len(g0) == 6 and last.real == 0.0
        assert np.array_equal(traj.history[5], np.exp(times[:, None] * last) * g0[5])

    def test_quantum_flow_holds_no_square_block(self):
        # the quantum flow is diagonal on every sector, so at N = 2048
        # (sectors 0-23 filled) it holds a few N-length rows besides the
        # history it returns: measured 12.6, where a dense initial matrix
        # and N x N diagonal blocks took about 6,000 (3 N x N arrays)
        n, times = 2048, np.linspace(0.0, np.pi, 5)
        evolve(groenewold_from_gaussian(FIG3_STATE, 16), "quantum", SEXTIC, times)
        g0 = groenewold_from_gaussian(FIG3_STATE, n)
        tracemalloc.start()
        try:
            traj = evolve(g0, "quantum", SEXTIC, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        history = sum(rows.nbytes for rows in traj.history.values())
        assert peak - history <= 32 * n * np.dtype(complex).itemsize

    @pytest.mark.parametrize("dynamics", ["quantum", "classical", "semiquantum1", "semiclassical1"])
    def test_upper_diagonals_are_conjugates(self, dynamics):
        # FIG3_STATE fills sectors 0-23 of 32, so 24-31 are read as zeros
        g0 = groenewold_from_gaussian(FIG3_STATE, 32)
        times = [0.0, 0.4, 1.1]
        traj = evolve(g0, dynamics, QUARTIC, times)
        for nu in range(1, 32):
            assert np.array_equal(traj.diagonal_history(-nu), np.conj(traj.diagonal_history(nu)))
        for i in range(len(times)):
            m = traj.matrix(i)
            assert np.array_equal(m, m.conj().T)
        top = len(g0) - 1
        assert top == 23
        assert len(traj.history) == top + 1 and sorted(traj.history) == list(range(top + 1))
        for nu in range(top + 1, 32):
            assert not np.any(traj.diagonal_history(nu)) and not np.any(traj.diagonal_history(-nu))

    @pytest.mark.parametrize(
        "g0, message",
        [
            pytest.param([], "no sector rows", id="no-rows"),
            pytest.param([np.ones(4), np.ones(4)], "sector 1 has shape (4,)", id="wrong-length"),
            pytest.param(np.eye(4), "sector 1 has shape (4,)", id="square-matrix"),
            pytest.param([np.ones(4) + 1e-3j], "sector 0 (the diagonal) must be real", id="complex-0"),
            pytest.param([np.ones(3), [0.1, np.nan]], "sector 1 has an entry that is not finite", id="nan"),
        ],
    )
    def test_row_format_rejected(self, g0, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            evolve(g0, "classical", QUARTIC, [0.0, 1.0])

    def test_evolve_group_property(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 48)
        a = evolve(g0, "classical", QUARTIC, [0.6])
        b = evolve(sector_rows(a.matrix(0)), "classical", QUARTIC, [1.1])
        c = evolve(g0, "classical", QUARTIC, [1.7])
        assert np.abs(b.matrix(0) - c.matrix(0)).max() < 1e-10

    def test_input_validation(self):
        g0 = sector_rows(np.eye(4))
        with pytest.raises(ConfigError):
            evolve(g0, "quantum", QUARTIC, [1.0, 0.0])
        with pytest.raises(ConfigError):
            evolve(g0, "stochastic", QUARTIC, [0.0])
        traj = evolve(g0, "quantum", QUARTIC, [0.0])
        assert traj.diagonal_history(-3).shape == (1, 1)
        with pytest.raises(ConfigError):
            traj.diagonal_history(-4)

    @staticmethod
    def jordan_in_sector_one(monkeypatch):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        asked = []

        def defective(*args, nu_top):
            asked.append(nu_top)
            return lambda nu: [np.zeros(3), jordan, np.zeros(1)][nu]

        monkeypatch.setattr(evolve_module, "all_generator_blocks", defective)
        return asked

    def test_ill_conditioned_sector_named(self, monkeypatch):
        asked = self.jordan_in_sector_one(monkeypatch)
        g0 = np.eye(3, dtype=complex)
        g0[1, 0] = g0[0, 1] = 0.25  # sector 1 filled, so its generator is factored
        with pytest.raises(ValidationFailed, match="classical sector nu=1: .*condition number"):
            evolve(sector_rows(g0), "classical", QUARTIC, [0.0, 1.0])
        assert asked == [1]

    def test_defective_block_in_empty_sector_is_not_factored(self, monkeypatch):
        # the exact answer in an empty sector is zero whatever its generator
        asked = self.jordan_in_sector_one(monkeypatch)
        traj = evolve(sector_rows(np.eye(3)), "classical", QUARTIC, [0.0, 1.0])
        assert asked == [0]
        assert not np.any(traj.diagonal_history(1)) and not np.any(traj.diagonal_history(2))


class TestStoredSectors:
    """evolve stores the rows of the sectors 0 .. store_top and every
    propagated sector's norm, from which the purity is summed."""

    # fig3's and fig4's models and states at the presets' N, a K = 2 model,
    # and a centred state, which fills sector 0 alone (top = 0)
    @pytest.mark.parametrize("model, state, n", [
        pytest.param(SEXTIC, FIG3_STATE, 128, id="fig3"),
        pytest.param(SEXTIC_SMALL_HBAR, FIG4_STATE, 128, id="fig4"),
        pytest.param(QUARTIC, FIG3_STATE, 48, id="quartic"),
        pytest.param(SEXTIC, CENTRED_STATE, 32, id="centred"),
    ])
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_purity_is_bit_identical_to_the_sector_products(self, dynamics, model, state, n):
        g0 = groenewold_from_gaussian(state, n)
        times = np.linspace(0.0, np.pi, 9)
        full = evolve(g0, dynamics, model, times)
        low = evolve(g0, dynamics, model, times, store_top=2)
        # the products' imaginary parts, rounding residue, are not summed
        want = purity_by_sector_products(full).real
        assert np.array_equal(full.purity_series(), want)
        assert np.array_equal(low.purity_series(), want)
        assert np.array_equal(low.take([6, 0]).purity_series(), want[[6, 0]])
        assert low.top == full.top == len(g0) - 1

    def test_nan_in_an_upper_sector_reaches_the_purity(self, monkeypatch):
        # a NaN propagated into sector 5, whose rows a store_top = 2 run drops
        original = BlockPropagator.trajectory

        def poisoned(self, g0, times):
            out = original(self, g0, times)
            if self.size == 48 - 5:
                out[1, 3] = np.nan
            return out

        monkeypatch.setattr(BlockPropagator, "trajectory", poisoned)
        g0 = groenewold_from_gaussian(FIG3_STATE, 48)
        times = [0.0, 0.5, 1.0]
        low = evolve(g0, "classical", SEXTIC, times, store_top=2)
        purity = low.purity_series()
        assert sorted(low.history) == [0, 1, 2]
        assert np.isnan(purity[1]) and np.isfinite(purity[[0, 2]]).all()
        want = purity_by_sector_products(evolve(g0, "classical", SEXTIC, times)).real
        assert np.array_equal(purity, want, equal_nan=True)

    def test_store_top_keeps_the_low_rows_and_every_norm(self):
        # FIG3_STATE fills sectors 0-23 of 32: 3-12 are propagated but not
        # stored, 13-23 are held, and all of them raise; 24-31 are exact zeros
        g0 = groenewold_from_gaussian(FIG3_STATE, 32)
        times = [0.0, 0.4, 1.1]
        full = evolve(g0, "semiquantum1", QUARTIC, times)
        low = evolve(g0, "semiquantum1", QUARTIC, times, store_top=2)
        assert sorted(low.history) == [0, 1, 2] and low.top == 23
        assert low.held == 13 and full.held == 24
        for nu in range(3):
            assert np.array_equal(low.history[nu], full.history[nu])
        # the factored sectors' norms are the full run's bit for bit; a held
        # sector's is its t = 0 norm, within its bound of the full run's
        assert np.array_equal(low.norms[:13], full.norms[:13])
        assert np.array_equal(low.norms[13:], np.repeat(full.norms[13:, :1], 3, axis=1))
        bounds = held_bounds(g0, "semiquantum1", QUARTIC, 1.1)
        assert np.all(np.abs(low.norms[13:] - full.norms[13:]) <= bounds[13:, None])
        assert 2.0 * bounds[13:].sum() <= 2.0**-56 * full.purity_series()[0]
        for trajectory in (low, low.take([2, 0])):
            assert trajectory.held == 13
            for nu in range(3, 24):
                for signed in (nu, -nu):
                    with pytest.raises(ConfigError) as exc:
                        trajectory.diagonal_history(signed)
                    if nu < 13:
                        assert str(exc.value) == (
                            f"semiquantum1 sector {signed} was propagated but its rows were not stored"
                        )
                    else:
                        assert str(exc.value) == (
                            f"semiquantum1 sector {signed} was held at its t = 0 norm, "
                            "not propagated, and has no rows"
                        )
            for nu in range(24, 32):
                for signed in (nu, -nu):
                    zeros = trajectory.diagonal_history(signed)
                    assert zeros.shape == (len(trajectory.times), 32 - nu) and not np.any(zeros)
            for read in (
                lambda: trajectory.matrix(0),
                trajectory.sectors,
                lambda: snapshot_spectrum(trajectory, 0),
                lambda: wigner_field(trajectory),
            ):
                with pytest.raises(ConfigError, match="sector 3 was propagated"):
                    read()

    def test_store_top_caps_at_the_filled_sectors(self):
        g0 = groenewold_from_gaussian(CENTRED_STATE, 32)
        traj = evolve(g0, "classical", SEXTIC, [0.0, 0.8], store_top=2)
        assert sorted(traj.history) == [0] and traj.top == 0
        assert not np.any(traj.diagonal_history(1)) and not np.any(traj.diagonal_history(-2))
        g0 = groenewold_from_gaussian(FIG3_STATE, 32)
        traj = evolve(g0, "classical", SEXTIC, [0.0, 0.8], store_top=23)
        assert sorted(traj.history) == list(range(24))
        assert np.array_equal(traj.matrix(1), evolve(g0, "classical", SEXTIC, [0.0, 0.8]).matrix(1))

    def test_moments_store_peaks_under_half_the_full_store(self):
        # fig3 at 512 times: every sector's rows take 23 MB, the sectors
        # 0-2 take 3 MB; measured peaks of 6.9 MB and 25.2 MB under the flow
        # whose generator build takes the most memory; a run at N = 16 first
        # warms up what a first run sets up once
        n, times = 128, np.linspace(0.0, np.pi, 512)
        evolve(groenewold_from_gaussian(FIG3_STATE, 16), "semiclassical1", SEXTIC, times)
        g0 = groenewold_from_gaussian(FIG3_STATE, n)
        peaks = []
        for store_top in (2, None):
            tracemalloc.start()
            try:
                traj = evolve(g0, "semiclassical1", SEXTIC, times, store_top=store_top)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del traj
        assert peaks[0] < 0.5 * peaks[1]


def held_bounds(g0, dynamics, model, span) -> np.ndarray:
    """S_nu(0) exp(2 mu_nu span) per sector, mu_nu the largest absolute row
    sum of (L + L^H)/2: the most the exact flow moves each sector's norm
    over times of modulus up to span."""
    out = []
    for nu, block in enumerate(blocks(dynamics, model, len(g0[0]), top=len(g0) - 1)):
        block = np.diag(block) if block.ndim == 1 else block
        h = 0.5 * (block + block.conj().T)
        mu = max(np.abs(h[i]).sum() for i in range(len(h)))
        out.append(np.sum(np.abs(g0[nu]) ** 2) * np.exp(2.0 * mu * span))
    return np.array(out)


def factored_sectors(monkeypatch, n) -> list:
    """The sectors, in factorization order, of the BlockPropagators built
    on an n-level basis from here on."""
    factored = []
    original = BlockPropagator.__init__

    def record(self, L):
        original(self, L)
        factored.append(n - self.size)

    monkeypatch.setattr(BlockPropagator, "__init__", record)
    return factored


class TestHeldSectors:
    """Above store_top, evolve holds the longest suffix of the sectors
    whose bound sum 2 S_nu(0) exp(2 mu_nu max|t|) is at most 2^-56 of the
    initial purity: built, not factored, norm S_nu(0) at every time."""

    @pytest.mark.parametrize("model, state, n, held", [
        pytest.param(SEXTIC, FIG3_STATE, 128, 13, id="fig3"),
        pytest.param(SEXTIC_SMALL_HBAR, FIG4_STATE, 128, 13, id="fig4"),
        pytest.param(QUARTIC, FIG3_STATE, 48, 13, id="quartic"),
    ])
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_the_held_set_is_the_longest_suffix_within_the_bound(
        self, monkeypatch, dynamics, model, state, n, held
    ):
        g0 = groenewold_from_gaussian(state, n)
        times = np.linspace(0.0, np.pi, 5)
        factored = factored_sectors(monkeypatch, n)
        traj = evolve(g0, dynamics, model, times, store_top=2)
        assert traj.held == held and traj.top == len(g0) - 1 == 23
        assert sorted(factored) == list(range(held))
        initial = [np.sum(np.abs(row) ** 2) for row in g0]
        assert np.array_equal(traj.norms[held:], np.repeat(traj.norms[held:, :1], 5, axis=1))
        assert np.allclose(traj.norms[held:, 0], initial[held:], rtol=1e-14, atol=0.0)
        # within the budget, and the next sector down would break it
        terms = 2.0 * held_bounds(g0, dynamics, model, np.pi)
        budget = 2.0**-56 * (initial[0] + 2.0 * sum(initial[1:]))
        assert terms[held:].sum() <= budget < terms[held - 1:].sum()

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_a_run_that_stores_every_sector_factors_every_sector(self, monkeypatch, dynamics):
        g0 = groenewold_from_gaussian(FIG3_STATE, 48)
        factored = factored_sectors(monkeypatch, 48)
        for store_top in (None, 23, 30):
            del factored[:]
            traj = evolve(g0, dynamics, QUARTIC, [0.0, 1.0], store_top=store_top)
            assert factored == list(range(23, -1, -1)) and traj.held == 24
            assert sorted(traj.history) == list(range(24))

    def test_a_long_span_or_a_wide_state_holds_fewer_sectors(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 64)
        short = evolve(g0, "classical", SEXTIC, [0.0, np.pi], store_top=2)
        long = evolve(g0, "classical", SEXTIC, [0.0, 1e6], store_top=2)
        assert short.held == 13 and short.top + 1 - long.held < short.top + 1 - short.held
        wide = groenewold_from_gaussian(GaussianState(kappa=0.5, alpha0=0.5), 64)
        traj = evolve(wide, "classical", SEXTIC, [0.0, np.pi], store_top=2)
        assert traj.top + 1 - traj.held < short.top + 1 - short.held

    # sector 1, 2 and 3 entries and sector 3's generator. Growing: sectors
    # 1 and 2 are phases whose terms would leave room in the budget, but
    # sector 3's real diagonal grows its term to 2e-24 e^20, over the
    # budget, so it and every sector below are factored. Boundary: every
    # sector is a phase; sector 3 is held, and sector 2's term fits the
    # budget alone but not with sector 3's, so it is factored. Either way
    # the builder is called once and builds each sector once, top down.
    @pytest.mark.parametrize("entries, top_block, factored_want, held", [
        pytest.param((1e-10, 1e-11, 1e-12), np.array([10.0]), [3, 2, 1, 0], 4, id="growing"),
        pytest.param((1e-3, 1e-9, 2.0**0.5 * 1e-9), np.array([-1j]), [2, 1, 0], 3, id="boundary"),
    ])
    def test_each_sector_is_built_once(
        self, monkeypatch, entries, top_block, factored_want, held
    ):
        g0 = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
        for nu, value in enumerate(entries, start=1):
            g0[nu, 0] = g0[0, nu] = value
        rows = sector_rows(g0)
        phases = [np.zeros(4), -1j * np.arange(1.0, 4.0), -2j * np.arange(1.0, 3.0), top_block]
        asked, built = [], []

        def phase_blocks(*args, nu_top):
            asked.append(nu_top)
            return lambda nu: built.append(nu) or phases[nu]

        monkeypatch.setattr(evolve_module, "all_generator_blocks", phase_blocks)
        factored = factored_sectors(monkeypatch, 4)
        low = evolve(rows, "classical", QUARTIC, [0.0, 0.5, 1.0], store_top=0)
        assert asked == [3] and built == [3, 2, 1, 0]
        assert factored == factored_want and low.held == held
        full = evolve(rows, "classical", QUARTIC, [0.0, 0.5, 1.0])
        assert np.array_equal(low.norms[:held], full.norms[:held])
        assert np.array_equal(low.norms[held:], np.repeat(full.norms[held:, :1], 3, axis=1))
        assert sorted(low.history) == [0]

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_an_overflowing_span_holds_nothing_and_warns_nothing(self, monkeypatch, dynamics):
        # the quantum generator is a pure phase, mu = 0 on every sector, so
        # its bound does not grow with the span and it holds as at t = pi
        g0 = groenewold_from_gaussian(FIG3_STATE, 32)
        factored = factored_sectors(monkeypatch, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = evolve(g0, dynamics, QUARTIC, [0.0, 1e300], store_top=2)
        held = 13 if dynamics == "quantum" else 24
        assert traj.held == held and sorted(factored) == list(range(held))


class TestBasisSizeDependence:
    """fig3's <alpha> curves at N = 128 against N = 256.

    The state is synthesized at N = 64 and zero-padded, so both runs start
    from the same matrix. Classical converges in N; semiquantum1 does not:
    its i L on sector 1 is indefinite, with eigenvalues that grow like N^2.
    """

    @pytest.fixture(scope="class")
    def gaps(self):
        g64 = groenewold_from_gaussian(FIG3_STATE, 64)
        times = np.linspace(0.0, np.pi, 64)
        out = {}
        for dynamics in ("semiquantum1", "classical"):
            curves = []
            for n in (128, 256):
                g0 = [np.pad(row, (0, n - 64)) for row in g64]
                traj = evolve(g0, dynamics, SEXTIC, times)
                curves.append(mean_alpha_series(traj))
            gap = np.abs(curves[0] - curves[1])
            out[dynamics] = (times[np.flatnonzero(gap > 1e-6)[0]], gap.max())
        return out

    @staticmethod
    def sector_one_spectrum(dynamics):
        ih = 1j * all_generator_blocks(dynamics, SEXTIC, 128, nu_top=1)(1)
        return np.linalg.eigvalsh(0.5 * (ih + ih.conj().T))

    def test_semiquantum1_depends_on_n_early(self, gaps):
        t_star, worst = gaps["semiquantum1"]
        assert t_star < 0.2  # measured 0.150
        assert worst > 0.1  # measured 0.87
        w = self.sector_one_spectrum("semiquantum1")
        assert w.min() < 0.0 < w.max()  # measured [-2.55e4, 1.09e4]

    def test_classical_converges_until_later(self, gaps):
        t_star, worst = gaps["classical"]
        assert t_star > 0.6  # measured 0.698
        assert worst < 1e-2  # measured 5.3e-3
        assert self.sector_one_spectrum("classical").min() > 0.0  # measured 8.0e-5


class TestClassicalMomentQuadrature:
    def test_initial_moments(self):
        state = GaussianState(kappa=2.0, alpha0=0.5 + 0.25j)
        assert abs(classical_moment_quadrature(1, state, QUARTIC, 0.0) - state.alpha0) < 1e-12
        assert abs(classical_moment_quadrature(2, state, QUARTIC, 0.0) - state.alpha0**2) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 1.3, 7.0])
    def test_mass_is_conserved(self, t):
        state = GaussianState(kappa=1.0, alpha0=1.0 / np.sqrt(2.0))
        assert abs(classical_moment_quadrature(0, state, SEXTIC, t) - 1.0) < 1e-12

    def test_harmonic_rotation_any_width(self):
        state = GaussianState(kappa=0.7, alpha0=0.4 - 0.3j)
        for t in (0.5, 2.0):
            want = state.alpha0 * np.exp(-1j * HARMONIC.omega * t)
            assert abs(classical_moment_quadrature(1, state, HARMONIC, t) - want) < 1e-12

    def test_centered_state_has_zero_first_moment(self):
        state = GaussianState(kappa=2.0, alpha0=0.0)
        assert abs(classical_moment_quadrature(1, state, QUARTIC, 0.7)) < 1e-12

    def test_matrix_route_agrees_quartic(self):
        # two independent routes: Fock-basis propagation vs Bessel quadrature
        g0 = groenewold_from_gaussian(FIG3_STATE, 96)
        times = [0.5, 1.0, 1.5]
        traj = evolve(g0, "classical", QUARTIC, times)
        for i, t in enumerate(times):
            oracle = classical_moment_quadrature(1, FIG3_STATE, QUARTIC, t)
            assert abs(mean_alpha(traj, i) - oracle) < 1e-6

    def test_matrix_route_agrees_sextic_where_truncation_holds(self):
        # the sextic whorl climbs the number ladder fast: a basis of 96
        # resolves the flow to t ~ 0.5 only, and the residual at later t
        # is truncation, not disagreement; it dies as the basis grows
        g0 = groenewold_from_gaussian(FIG3_STATE, 96)
        traj = evolve(g0, "classical", SEXTIC, [0.5, 1.5])
        oracle_early = classical_moment_quadrature(1, FIG3_STATE, SEXTIC, 0.5)
        assert abs(mean_alpha(traj, 0) - oracle_early) < 1e-6
        oracle_late = classical_moment_quadrature(1, FIG3_STATE, SEXTIC, 1.5)
        coarse = abs(mean_alpha(traj, 1) - oracle_late)
        assert coarse > 1e-5
        wide = 512
        g1 = groenewold_from_gaussian(FIG3_STATE, wide)[1]
        # crop a padded closed-form generator: matrix powers of the
        # truncated tridiagonal are edge-corrupted, interior-exact
        block = classical_block_analytic(1, SEXTIC, wide + 7)[: wide - 1, : wide - 1]
        prop = BlockPropagator(block)
        value = np.sqrt(np.arange(1.0, wide)) @ prop.trajectory(g1, [1.5])[0]
        fine = abs(value - oracle_late)
        assert fine < 1e-6
        assert fine < coarse / 50.0

    def test_riemann_lebesgue_decay(self):
        late = [classical_moment_quadrature(1, FIG3_STATE, QUARTIC, t) for t in (35.0, 40.0)]
        assert max(abs(v) for v in late) < 1e-2
        assert abs(classical_moment_quadrature(1, FIG3_STATE, QUARTIC, 0.0)) > 0.4

    def test_bessel_domain_raises(self):
        # 2 kappa r |alpha0| reaches about 2.4e3 on the radial rule, past
        # the scaled Bessel series domain (1500)
        with pytest.raises(QuadratureNotConverged, match=r"kappa = 60, \|alpha0\| = 4\).*1500"):
            classical_moment_quadrature(1, GaussianState(60.0, 4.0), QUARTIC, 1.0)

    def test_unresolvable_phase_raises(self):
        with pytest.raises(QuadratureNotConverged):
            classical_moment_quadrature(2, FIG3_STATE, QUARTIC, 1.0e6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            classical_moment_quadrature(-1, FIG3_STATE, QUARTIC, 0.0)
        with pytest.raises(ConfigError):
            classical_moment_quadrature(1.5, FIG3_STATE, QUARTIC, 0.0)
        with pytest.raises(ConfigError):
            classical_moment_quadrature(1, FIG3_STATE, QUARTIC, np.inf)


def whorl_node(model, t, q, p):
    """The whorl density at the point (q, p) alone, as the [0, 0] node of a 2x2 grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryMassWarning)  # the grid clips the state
        return whorl_phase_field(FIG3_STATE, model, t, (q, q + 1.0, p, p + 1.0, 2, 2)).values[0, 0]


class TestWhorlField:
    def test_mass_is_one(self):
        qs = np.linspace(-4.0, 4.0, 513)
        cell = (qs[1] - qs[0]) ** 2
        for t in (0.0, np.pi / 4.0, np.pi):
            w = whorl_phase_field(FIG3_STATE, QUARTIC, t, (-4.0, 4.0, -4.0, 4.0, 513, 513)).values
            assert abs(float(w.sum()) * cell - 1.0) < 1e-8

    def test_origin_is_fixed_point(self):
        grid = (-4.0, 4.0, -4.0, 4.0, 9, 9)
        w0 = whorl_phase_field(FIG3_STATE, QUARTIC, 0.0, grid).values
        wt = whorl_phase_field(FIG3_STATE, QUARTIC, 2.7, grid).values
        assert w0[4, 4] == wt[4, 4]

    def test_harmonic_whorl_is_rigid_rotation(self):
        t = 1.1
        qs = np.array([0.3, -0.8, 1.7])
        ps = np.array([0.5, 0.2, -1.4])
        s = np.sqrt(HARMONIC.m * HARMONIC.omega)
        for p in ps:
            for q in qs:
                alpha = (s * q + 1j * p / s) / np.sqrt(2.0 * HARMONIC.hbar)
                rot = alpha * np.exp(1j * HARMONIC.omega * t)
                q2 = np.sqrt(2.0 * HARMONIC.hbar) * rot.real / s
                p2 = np.sqrt(2.0 * HARMONIC.hbar) * rot.imag * s
                wt = whorl_node(HARMONIC, t, q, p)
                w0 = whorl_node(HARMONIC, 0.0, q2, p2)
                assert abs(wt - w0) < 1e-12

    def test_radius_is_invariant_under_the_flow_map(self):
        qs = np.linspace(-3.0, 3.0, 41)
        grid = (-3.0, 3.0, -3.0, 3.0, 41, 41)
        w_sum = whorl_phase_field(FIG3_STATE, SEXTIC, 0.9 + 1.3, grid).values
        # composing the rotation in two stages is the same map because the
        # rotation rate depends only on the conserved radius
        s = np.sqrt(SEXTIC.m * SEXTIC.omega)
        qg, pg = np.meshgrid(qs, qs)
        alpha = (s * qg + 1j * pg / s) / np.sqrt(2.0 * SEXTIC.hbar)
        u = np.abs(alpha) ** 2
        rate = SEXTIC.classical_rate(u)
        stage = alpha * np.exp(1j * rate * 0.9) * np.exp(1j * rate * 1.3)
        kappa = FIG3_STATE.kappa
        w_two = kappa / (2.0 * np.pi * SEXTIC.hbar) * np.exp(
            -kappa * np.abs(stage - FIG3_STATE.alpha0) ** 2
        )
        assert np.abs(w_sum - w_two).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            whorl_phase_field(FIG3_STATE, QUARTIC, np.nan, (-1.0, 1.0, -1.0, 1.0, 2, 2))
