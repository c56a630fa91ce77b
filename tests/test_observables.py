"""Moment, spectrum, negativity and break-time diagnostics.

Oracles: dense-trace contractions with an explicitly built ladder matrix,
closed forms for coherent and Gaussian states, and exact spectra of pure
states. Qualitative orderings (break times, negativity gaps) assert the
signs and inequalities the physics fixes, not tabulated values.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groenewold_lab.errors import ConfigError, ValidationFailed
from groenewold_lab.evolve import Trajectory, evolve
from groenewold_lab.generators import DYNAMICS
from groenewold_lab.model import ModelSpec
from groenewold_lab.observables import (
    Moments,
    mean_alpha_series,
    moment_track,
    moment_width_variant,
    snapshot_spectrum,
    spectrum_extremes,
    squared_negativity,
)
from groenewold_lab.states import GaussianState, groenewold_from_gaussian
from oracles import break_time, coherent_density, dense, moments_by_time, stacked_trajectory

QUARTIC = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5)
SEXTIC = ModelSpec(b=(0.0, 0.0, 0.0, 1.0), mu=0.5)
HARMONIC = ModelSpec(b=(0.0, 1.0), mu=0.5)
QUARTIC_SMALL_HBAR = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.25)
SEXTIC_SMALL_HBAR = ModelSpec(b=(0.0, 0.0, 0.0, 1.0), mu=0.25)

FIG3_STATE = GaussianState(kappa=2.0, alpha0=0.5)
FIG4_STATE = GaussianState(kappa=1.0, alpha0=1.0 / math.sqrt(2.0))


def ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def snapshot(g, model) -> Moments:
    """Moments of one matrix, read as a one-time trajectory: each column's one entry."""
    track = moment_track(stacked_trajectory([g], model))
    return Moments(**{c.name: getattr(track, c.name)[0] for c in dataclasses.fields(Moments)})


def spectrum_of(g) -> np.ndarray:
    """Eigenvalues of one Hermitian matrix, read as a one-time trajectory."""
    return snapshot_spectrum(stacked_trajectory([g], QUARTIC), 0)


class TestMoments:
    def test_coherent_closed_forms(self):
        g = coherent_density(0.5, 40)
        rec = snapshot(g, QUARTIC)
        assert abs(rec.mean_alpha - 0.5) < 1e-13
        assert abs(rec.abs2 - 0.75) < 1e-13
        assert abs(rec.alpha2 - 0.25) < 1e-13

    def test_gaussian_symmetric_second_moment(self):
        # <|alpha|^2> = |alpha0|^2 + 1/kappa, exactly, for any width
        for state, want in ((FIG3_STATE, 0.75), (FIG4_STATE, 1.5)):
            g = groenewold_from_gaussian(state, 64)
            rec = snapshot(dense(g), QUARTIC)
            assert abs(rec.abs2 - want) < 1e-12
            assert abs(rec.mean_alpha - state.alpha0) < 1e-12

    def test_vacuum_widths(self):
        g = coherent_density(0.0, 16)
        rec = snapshot(g, QUARTIC)  # hbar = mu E / omega = 1/2
        assert rec.mean_alpha == 0.0
        assert rec.mean_q == 0.0 and rec.mean_p == 0.0
        assert abs(rec.dq - 0.5) < 1e-14
        assert abs(rec.dp - 0.5) < 1e-14

    def test_displaced_coherent_statistics(self):
        g = coherent_density(0.3 + 0.4j, 48)
        rec = snapshot(g, SEXTIC)
        assert abs(rec.mean_q - 0.3) < 1e-12
        assert abs(rec.mean_p - 0.4) < 1e-12
        # coherent widths are displacement independent
        assert abs(rec.dq - 0.5) < 1e-12
        assert abs(rec.dp - 0.5) < 1e-12

    def test_units_enter_widths(self):
        model = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5, m=4.0, omega=2.0)  # hbar = 1/4
        rec = snapshot(coherent_density(0.0, 16), model)
        assert abs(rec.dq - math.sqrt(model.hbar / (2.0 * 4.0 * 2.0))) < 1e-14
        assert abs(rec.dp - math.sqrt(model.hbar * 4.0 * 2.0 / 2.0)) < 1e-14

    def test_dense_trace_route(self):
        rng = np.random.default_rng(7)
        dim = 23
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        g = 0.5 * (raw + raw.conj().T)
        g = g / np.trace(g).real
        a = ladder(dim)
        rec = snapshot(g, QUARTIC)
        assert abs(rec.mean_alpha - np.trace(g @ a)) < 1e-12
        assert abs(rec.alpha2 - np.trace(g @ a @ a)) < 1e-12
        num = np.diag(np.arange(dim) + 0.5)
        assert abs(rec.abs2 - np.trace(g @ num).real) < 1e-12

    def test_small_matrices(self):
        one = np.array([[1.0]])
        rec = snapshot(one, HARMONIC)
        assert rec.mean_alpha == 0.0 and rec.alpha2 == 0.0
        assert abs(rec.abs2 - 0.5) < 1e-15
        two = np.diag([0.25, 0.75]).astype(complex)
        rec2 = snapshot(two, HARMONIC)
        assert rec2.alpha2 == 0.0
        assert abs(rec2.abs2 - (0.25 * 0.5 + 0.75 * 1.5)) < 1e-14

    def test_rejects_non_square(self):
        # a trajectory, the only input of the moment path, starts from a square matrix
        with pytest.raises(ConfigError):
            moment_track(evolve(np.ones((2, 3)), "quantum", QUARTIC, [0.0]))

    @given(
        kappa=st.floats(0.5, 4.0),
        re=st.floats(-0.8, 0.8),
        im=st.floats(-0.8, 0.8),
    )
    @settings(max_examples=20, deadline=None)
    def test_invariants_on_gaussian_family(self, kappa, re, im):
        state = GaussianState(kappa=kappa, alpha0=complex(re, im))
        rec = snapshot(dense(groenewold_from_gaussian(state, 72)), QUARTIC)
        assert rec.dq >= 0.0 and rec.dp >= 0.0
        assert rec.abs2 >= abs(rec.mean_alpha) ** 2


class TestWidthVariant:
    def test_matches_primary_at_origin(self):
        rec = snapshot(coherent_density(0.0, 16), QUARTIC)
        dq, dp = moment_width_variant(rec, QUARTIC)
        assert abs(dq - rec.dq) < 1e-14
        assert abs(dp - rec.dp) < 1e-14

    def test_degenerates_for_displaced_states(self):
        # real displacement beyond 1/2 drives the q radicand negative
        rec = snapshot(coherent_density(0.6, 48), QUARTIC)
        dq, dp = moment_width_variant(rec, QUARTIC)
        assert math.isnan(dq)
        assert abs(dp - 0.5) < 1e-12
        # imaginary displacement makes Re{<alpha>^2} negative, inflating
        # the variant dq (true width 0.5) while dp lands on 0.5 again
        rec2 = snapshot(coherent_density(0.6j, 48), QUARTIC)
        dq2, dp2 = moment_width_variant(rec2, QUARTIC)
        assert abs(dq2 - math.sqrt(0.61)) < 1e-12
        assert abs(dp2 - 0.5) < 1e-12

    def test_primary_widths_stay_finite_there(self):
        rec = snapshot(coherent_density(0.6, 48), QUARTIC)
        assert abs(rec.dq - 0.5) < 1e-12
        assert abs(rec.dp - 0.5) < 1e-12


class TestMomentTrack:
    def test_harmonic_rotation(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 32)
        times = np.linspace(0.0, 2.0, 9)
        for dynamics in ("quantum", "classical"):
            traj = evolve(g0, dynamics, HARMONIC, times)
            series = mean_alpha_series(traj)
            want = FIG3_STATE.alpha0 * np.exp(-1j * times)
            assert np.abs(series - want).max() < 1e-12

    def test_works_in_moments_mode(self):
        # the moment sectors nu <= 2 alone give every record, bit for bit
        g0 = groenewold_from_gaussian(FIG3_STATE, 24)
        traj = evolve(g0, "classical", QUARTIC, [0.0, 0.5])
        low = Trajectory(
            traj.dynamics, traj.model, traj.times, traj.dim,
            {nu: traj.history[nu] for nu in range(3)},
        )
        track = moment_track(low)
        full = moment_track(traj)
        assert isinstance(track, Moments) and len(track.t) == 2
        for column in dataclasses.fields(Moments):
            assert np.array_equal(getattr(track, column.name), getattr(full, column.name))


def assert_same_floats(got, want):
    """Equal entry by entry, NaN matching NaN and each zero its sign."""
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# fig3's and fig4's models and states, and a state displaced off the real axis
COLUMN_CASES = [
    pytest.param(SEXTIC, FIG3_STATE, id="fig3"),
    pytest.param(SEXTIC_SMALL_HBAR, FIG4_STATE, id="fig4"),
    pytest.param(SEXTIC, GaussianState(kappa=1.5, alpha0=0.4 + 0.3j), id="fig3-complex"),
    pytest.param(SEXTIC_SMALL_HBAR, GaussianState(kappa=1.5, alpha0=-0.5 + 0.6j), id="fig4-complex"),
]


class TestMomentColumns:
    """Every column repeats, bit for bit, the per-time float formulas."""

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    @pytest.mark.parametrize("model, state", COLUMN_CASES)
    def test_columns_match_the_scalar_formulas(self, model, state, dynamics):
        g0 = groenewold_from_gaussian(state, 48)
        traj = evolve(g0, dynamics, model, np.linspace(0.0, math.pi, 64))
        track = moment_track(traj)
        want = moments_by_time(track, model)
        assert np.array_equal(track.t, traj.times)
        assert np.array_equal(track.mean_alpha, mean_alpha_series(traj))
        for name in ("mean_q", "mean_p", "dq", "dp"):
            assert_same_floats(getattr(track, name), want[name])
        dq_paper, dp_paper = moment_width_variant(track, model)
        assert_same_floats(dq_paper, want["dq_paper"])
        assert_same_floats(dp_paper, want["dp_paper"])

    def test_clipping_keeps_signed_zeros_and_nan(self):
        # hand-made rows whose variances are positive, negative and NaN: a
        # negative primary variance reads 0, a negative variant radicand NaN
        rows = {
            0: np.array([[0.25, 0.75], [0.5, 0.5], [np.nan, 0.5]], dtype=complex),
            1: np.array([[0.0], [1.0], [0.0]], dtype=complex),
        }
        traj = Trajectory("quantum", HARMONIC, np.arange(3.0), 2, rows)
        # zero moments with abs2 = -0.0 make every variant radicand -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            track = moment_track(traj)
            signed = dataclasses.replace(
                track, mean_alpha=np.zeros(3, dtype=complex), abs2=np.full(3, -0.0),
                mean_q=np.zeros(3), mean_p=np.zeros(3),
            )
            variants = [moment_width_variant(m, HARMONIC) for m in (track, signed)]
        assert track.dq[1] == 0.0 and np.isnan(track.dq[2])
        assert np.isnan(variants[0][0][1]) and variants[0][1][1] == 0.0
        assert np.signbit(variants[1][0]).all() and not np.isnan(variants[1][0]).any()
        want = moments_by_time(track, HARMONIC)
        for name in ("dq", "dp"):
            assert_same_floats(getattr(track, name), want[name])
        for m, (dq_paper, dp_paper) in zip((track, signed), variants):
            want = moments_by_time(m, HARMONIC)
            assert_same_floats(dq_paper, want["dq_paper"])
            assert_same_floats(dp_paper, want["dp_paper"])

    def test_squares_round_as_python_floats(self):
        # a Python float's x**2 is C pow, which rounds apart from x * x for
        # about 1 in 1,000 doubles with glibc; at this x both widths show it
        x = 0.5509191621786698
        rows = {0: np.array([[8.0 * x * x, 0.0]], dtype=complex), 1: np.array([[x]], dtype=complex)}
        track = moment_track(Trajectory("quantum", HARMONIC, np.zeros(1), 2, rows))
        dq_paper, _ = moment_width_variant(track, HARMONIC)
        want = moments_by_time(track, HARMONIC)
        assert track.mean_q[0] == x
        assert_same_floats(track.dq, want["dq"])
        assert_same_floats(dq_paper, want["dq_paper"])


@pytest.fixture(scope="module")
def fig3_flows():
    """fig3's state at N = 48 under each of the four flows, at several times."""
    g0 = groenewold_from_gaussian(FIG3_STATE, 48)
    return {d: evolve(g0, d, SEXTIC, [0.0, 0.75, 1.5, 3.0]) for d in DYNAMICS}


class TestSnapshotSpectrum:
    def test_snapshots_are_hermitian_by_construction(self, fig3_flows):
        # the property that lets snapshot_spectrum skip a hermiticity scan
        for traj in fig3_flows.values():
            for i in range(len(traj.times)):
                g = traj.matrix(i)
                assert np.array_equal(g, g.conj().T)

    def test_bit_equal_to_dense_eigensolve(self, fig3_flows):
        for traj in fig3_flows.values():
            for i in range(len(traj.times)):
                rows = [traj.history[nu][i] for nu in range(len(traj.history))]
                want = np.linalg.eigvalsh(dense(rows))
                assert np.array_equal(snapshot_spectrum(traj, i), want)

    @pytest.mark.parametrize("sector", [0, 5])
    def test_non_finite_row_raises(self, fig3_flows, sector):
        traj = fig3_flows["semiquantum1"].take([0, 2])
        traj.history[sector] = traj.history[sector].copy()
        traj.history[sector][1, 3] = np.nan
        assert np.isfinite(snapshot_spectrum(traj, 0)).all()
        with pytest.raises(ValidationFailed) as exc:
            snapshot_spectrum(traj, 1)
        assert str(exc.value) == (
            f"semiquantum1 snapshot at t = 1.5 has an entry in sector "
            f"{sector} that is not finite"
        )


class TestSpectrumExtremes:
    def test_projector_pattern(self):
        g = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        top, bottom = spectrum_extremes(spectrum_of(g), 2)
        assert np.allclose(top, [1.0, 0.0], atol=1e-15)
        assert np.allclose(bottom, [0.0, 0.0], atol=1e-15)

    def test_quantum_evolution_keeps_pure_spectrum(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 48)
        for t in (0.7, 2.4):
            traj = evolve(g0, "quantum", SEXTIC, [t])
            top, bottom = spectrum_extremes(snapshot_spectrum(traj, 0), 2)
            assert abs(top[0] - 1.0) < 1e-9
            assert abs(top[1]) < 1e-9
            assert abs(bottom[0]) < 1e-9 and abs(bottom[1]) < 1e-9

    def test_classical_evolution_turns_negative(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        traj = evolve(g0, "classical", SEXTIC, [1.0])
        _, bottom = spectrum_extremes(snapshot_spectrum(traj, 0), 1)
        assert bottom[0] < 0.0

    def test_validation(self):
        w = spectrum_of(np.diag([1.0, 0.0]))
        with pytest.raises(ConfigError):
            spectrum_extremes(w, 0)
        with pytest.raises(ConfigError):
            spectrum_extremes(w, 3)
        with pytest.raises(ConfigError):
            spectrum_extremes(w, 1.5)


class TestSquaredNegativity:
    def test_coherent_projector_zero(self):
        assert squared_negativity(spectrum_of(coherent_density(0.5, 32))) < 1e-14

    def test_quantum_trajectory_stays_zero(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 64)
        traj = evolve(g0, "quantum", SEXTIC, [0.5, 1.0, 2.0])
        for i in range(3):
            assert squared_negativity(snapshot_spectrum(traj, i)) < 1e-12

    def test_classical_evolution_generates_negativity(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        traj = evolve(g0, "classical", SEXTIC, [1.0])
        assert squared_negativity(snapshot_spectrum(traj, 0)) > 1e-4

    def test_semiclassical_tracks_classical_negativity(self):
        # at t = 2 the first-order ladder neighbors order as the flows do:
        # semiclassical-1 sits nearer classical than semiquantum-1 does
        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        values = {}
        for dynamics in ("classical", "semiquantum1", "semiclassical1"):
            traj = evolve(g0, dynamics, SEXTIC, [2.0])
            values[dynamics] = squared_negativity(snapshot_spectrum(traj, 0))
        gap_sc = abs(values["semiclassical1"] - values["classical"])
        gap_sq = abs(values["semiquantum1"] - values["classical"])
        assert gap_sc < gap_sq

    def test_explicit_spectrum(self):
        g = np.diag([0.9, 0.4, -0.2, -0.1])
        assert abs(squared_negativity(spectrum_of(g)) - 0.05) < 1e-15

    def test_overflow_reads_inf_without_warning(self):
        # a numpy RuntimeWarning fails this test
        assert squared_negativity(np.array([-1e200, -1.0, 0.5])) == math.inf


class TestBreakTime:
    def test_identical_trajectories_never_break(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 32)
        traj = evolve(g0, "quantum", QUARTIC, np.linspace(0.0, 1.0, 8))
        assert break_time(traj, traj, 0.1) == math.inf

    def test_smaller_hbar_breaks_later(self):
        times = np.linspace(0.0, np.pi, 64)
        pairs = []
        for model, state in ((QUARTIC, FIG3_STATE), (QUARTIC_SMALL_HBAR, FIG4_STATE)):
            g0 = groenewold_from_gaussian(state, 96)
            quantum = evolve(g0, "quantum", model, times)
            classical = evolve(g0, "classical", model, times)
            pairs.append(break_time(quantum, classical, 0.1))
        large_hbar, small_hbar = pairs
        # halving hbar keeps the gap under threshold through pi: sentinel
        assert math.isfinite(large_hbar) and large_hbar < np.pi
        assert small_hbar > large_hbar

    def test_first_order_ladder_asymmetry(self):
        # semiclassical-1 follows quantum longer than semiquantum-1
        # follows classical at the small-hbar operating point
        times = np.linspace(0.0, np.pi, 64)
        g0 = groenewold_from_gaussian(FIG4_STATE, 96)
        runs = {
            d: evolve(g0, d, SEXTIC_SMALL_HBAR, times)
            for d in ("quantum", "classical", "semiquantum1", "semiclassical1")
        }
        bt_sc = break_time(runs["semiclassical1"], runs["quantum"], 0.1)
        bt_sq = break_time(runs["semiquantum1"], runs["classical"], 0.1)
        assert bt_sc > bt_sq

    def test_grid_mismatch_rejected(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 16)
        a = evolve(g0, "quantum", QUARTIC, [0.0, 1.0])
        b = evolve(g0, "quantum", QUARTIC, [0.0, 2.0])
        with pytest.raises(ConfigError):
            break_time(a, b, 0.1)
        c = evolve(g0, "quantum", QUARTIC, [0.0, 1.0, 2.0])
        with pytest.raises(ConfigError):
            break_time(a, c, 0.1)

    def test_threshold_validation(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 16)
        traj = evolve(g0, "quantum", QUARTIC, [0.0, 1.0])
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                break_time(traj, traj, bad)
