"""Moment, spectrum, negativity and break-time diagnostics.

Oracles: dense-trace contractions with an explicitly built ladder matrix,
closed forms for coherent and Gaussian states, and exact spectra of pure
states. Qualitative orderings (break times, negativity gaps) assert the
signs and inequalities the physics fixes, not tabulated values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groenewold_lab.errors import ConfigError, ValidationFailed
from groenewold_lab.evolve import Trajectory, evolve
from groenewold_lab.model import ModelSpec
from groenewold_lab.observables import (
    MomentRecord,
    mean_alpha_series,
    moment_track,
    moment_width_variant,
    spectrum_extremes,
    squared_negativity,
)
from groenewold_lab.states import GaussianState, groenewold_from_gaussian
from oracles import break_time, coherent_density, dense, stacked_trajectory

QUARTIC = ModelSpec.quartic(mu=0.5)
SEXTIC = ModelSpec.sextic(mu=0.5)
HARMONIC = ModelSpec.harmonic(mu=0.5)
QUARTIC_SMALL_HBAR = ModelSpec.quartic(mu=0.25)
SEXTIC_SMALL_HBAR = ModelSpec.sextic(mu=0.25)

FIG3_STATE = GaussianState(kappa=2.0, alpha0=0.5)
FIG4_STATE = GaussianState(kappa=1.0, alpha0=1.0 / math.sqrt(2.0))


def ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def snapshot(g, model) -> MomentRecord:
    """Moments of one matrix, read as a one-time trajectory."""
    return moment_track(stacked_trajectory([g], model))[0]


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
        model = ModelSpec.quartic(mu=0.5, m=4.0, omega=2.0)  # hbar = 1/4
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
        assert len(track) == 2
        assert isinstance(track[0], MomentRecord)
        assert track == moment_track(traj)


class TestSpectrumExtremes:
    def test_projector_pattern(self):
        g = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        top, bottom = spectrum_extremes(g, 2)
        assert np.allclose(top, [1.0, 0.0], atol=1e-15)
        assert np.allclose(bottom, [0.0, 0.0], atol=1e-15)

    def test_quantum_evolution_keeps_pure_spectrum(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 48)
        for t in (0.7, 2.4):
            traj = evolve(g0, "quantum", SEXTIC, [t])
            top, bottom = spectrum_extremes(traj.matrix(0), 2)
            assert abs(top[0] - 1.0) < 1e-9
            assert abs(top[1]) < 1e-9
            assert abs(bottom[0]) < 1e-9 and abs(bottom[1]) < 1e-9

    def test_classical_evolution_turns_negative(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        traj = evolve(g0, "classical", SEXTIC, [1.0])
        _, bottom = spectrum_extremes(traj.matrix(0), 1)
        assert bottom[0] < 0.0

    def test_validation(self):
        g = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ConfigError):
            spectrum_extremes(g, 0)
        with pytest.raises(ConfigError):
            spectrum_extremes(g, 3)
        with pytest.raises(ConfigError):
            spectrum_extremes(g, 1.5)
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationFailed):
            spectrum_extremes(skew, 1)


class TestSquaredNegativity:
    def test_coherent_projector_zero(self):
        assert squared_negativity(coherent_density(0.5, 32)) < 1e-14

    def test_quantum_trajectory_stays_zero(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 64)
        traj = evolve(g0, "quantum", SEXTIC, [0.5, 1.0, 2.0])
        for i in range(3):
            assert squared_negativity(traj.matrix(i)) < 1e-12

    def test_classical_evolution_generates_negativity(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        traj = evolve(g0, "classical", SEXTIC, [1.0])
        assert squared_negativity(traj.matrix(0)) > 1e-4

    def test_semiclassical_tracks_classical_negativity(self):
        # at t = 2 the first-order ladder neighbors order as the flows do:
        # semiclassical-1 sits nearer classical than semiquantum-1 does
        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        values = {}
        for dynamics in ("classical", "semiquantum1", "semiclassical1"):
            traj = evolve(g0, dynamics, SEXTIC, [2.0])
            values[dynamics] = squared_negativity(traj.matrix(0))
        gap_sc = abs(values["semiclassical1"] - values["classical"])
        gap_sq = abs(values["semiquantum1"] - values["classical"])
        assert gap_sc < gap_sq

    def test_explicit_spectrum(self):
        g = np.diag([0.9, 0.4, -0.2, -0.1])
        assert abs(squared_negativity(g) - 0.05) < 1e-15


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
