"""Phase-space field synthesis and file formats.

Oracles: closed-form fields for the vacuum, the first excited dyad and
Gaussian states; the continuum whorl route for classically evolved
matrices; grid quadrature against matrix moments and the radial Bessel
oracle (three-way consistency).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groenewold_lab import render
from groenewold_lab.errors import ConfigError
from groenewold_lab.evolve import BlockPropagator, classical_moment_quadrature, evolve
from groenewold_lab.model import ModelSpec
from groenewold_lab.observables import moment_track
from groenewold_lab.render import (
    DEFAULT_GRID,
    BoundaryMassWarning,
    PhaseField,
    whorl_phase_field,
    wigner_field,
    write_field_csv,
    write_mask_pgm,
    write_pgm,
)
from groenewold_lab.states import GaussianState, groenewold_from_gaussian
from oracles import (
    classical_block_analytic,
    coherent_density,
    dense,
    field_csv_pointwise,
    stacked_trajectory,
    thermal_field,
    whorl_field_pointwise,
    wigner_field_full_depth,
    wigner_field_pointwise,
)

QUARTIC = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5)
SEXTIC = ModelSpec(b=(0.0, 0.0, 0.0, 1.0), mu=0.5)
FIG3_STATE = GaussianState(kappa=2.0, alpha0=0.5)
HBAR = QUARTIC.hbar
# far enough out that the unweighted Laguerre values of a 256-level basis
# pass the float range
WIDE_GRID = (-60.0, 60.0, -60.0, 60.0, 13, 13)


def grid_axes(field: PhaseField):
    q_min, q_max, p_min, p_max, nq, npts = field.grid
    return np.linspace(q_min, q_max, nq), np.linspace(p_min, p_max, npts)


def alpha_grid(field: PhaseField, model: ModelSpec) -> np.ndarray:
    qs, ps = grid_axes(field)
    scale = math.sqrt(model.m * model.omega)
    return (scale * qs[None, :] + 1j * ps[:, None] / scale) / math.sqrt(2.0 * model.hbar)


def cell_area(field: PhaseField) -> float:
    q_min, q_max, p_min, p_max, nq, npts = field.grid
    return (q_max - q_min) / (nq - 1) * (p_max - p_min) / (npts - 1)


def field_of(g, model=QUARTIC, grid=DEFAULT_GRID) -> PhaseField:
    """The field of one matrix, rendered as a one-time trajectory."""
    return wigner_field(stacked_trajectory([g], model), grid)[0]


@pytest.fixture(scope="module")
def fig2_trajectory():
    """fig2's quantum flow at t = pi/4 alone: quartic, mu = 1/2, N = 128."""
    g0 = groenewold_from_gaussian(FIG3_STATE, 128)
    return evolve(g0, "quantum", QUARTIC, [math.pi / 4.0])


@pytest.fixture(scope="module")
def fig2_fields():
    """fig2's four quantum fields and their trajectory, as the preset renders them."""
    g0 = groenewold_from_gaussian(FIG3_STATE, 128)
    traj = evolve(g0, "quantum", QUARTIC, [math.pi / 4.0 * i for i in range(1, 5)])
    return traj, wigner_field(traj, DEFAULT_GRID)


class TestDistinctRadii:
    """wigner_field evaluates each radial profile once per distinct x."""

    def test_fig2_field_bit_equal_to_pointwise(self, fig2_trajectory):
        (field,) = wigner_field(fig2_trajectory, DEFAULT_GRID)
        want = wigner_field_pointwise(fig2_trajectory.matrix(0), QUARTIC, DEFAULT_GRID)
        assert np.array_equal(field.values, want)

    # few radii repeat here, so nearly every point is its own profile entry;
    # 13 x 7 is smaller than one block, and 257 x 131 is covered by two
    # blocks of points and of radii, neither a power of two long
    @pytest.mark.parametrize(
        "nq, npts",
        [pytest.param(97, 131, id="97x131"), pytest.param(13, 7, id="13x7"),
         pytest.param(257, 131, id="257x131")],
    )
    def test_asymmetric_grid_bit_equal_to_pointwise(self, fig2_trajectory, nq, npts):
        grid = (-3.1, 4.7, -2.3, 5.9, nq, npts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryMassWarning)
            (field,) = wigner_field(fig2_trajectory, grid)
        assert field.values.shape == (npts, nq)
        want = wigner_field_pointwise(fig2_trajectory.matrix(0), QUARTIC, grid)
        assert np.array_equal(field.values, want)

    def test_anisotropic_scale_bit_equal_to_pointwise(self):
        model = ModelSpec(b=(0.0, 0.0, 1.0), mu=0.5, m=2.0, omega=0.7)
        g0 = groenewold_from_gaussian(GaussianState(kappa=1.5, alpha0=0.4 + 0.3j), 64)
        traj = evolve(g0, "quantum", model, [0.9])
        grid = (-4.0, 4.0, -4.0, 4.0, 96, 80)
        (field,) = wigner_field(traj, grid)
        assert np.array_equal(field.values, wigner_field_pointwise(traj.matrix(0), model, grid))

    def test_profiles_see_only_distinct_radii(self, fig2_trajectory, monkeypatch):
        sizes = []
        profile = render._sector_profile

        def counting(diag, nu, x, out=None):
            sizes.append(x.size)
            return profile(diag, nu, x, out)

        monkeypatch.setattr(render, "_sector_profile", counting)
        (field,) = wigner_field(fig2_trajectory, DEFAULT_GRID)
        alpha = alpha_grid(field, QUARTIC)
        distinct = np.unique(4.0 * np.abs(alpha) ** 2).size
        # sign flips and the q <-> p swap leave 9,742 of the 65,536 radii
        # (numpy 2.4); the exact count rests on linspace rounding
        assert distinct < field.values.size // 6
        assert len(sizes) == 24  # nonzero sectors of fig2's matrix
        assert set(sizes) == {distinct}


class TestBatchedRender:
    """wigner_field renders every time of a trajectory in one pass per sector."""

    GRID = (-4.0, 4.0, -3.5, 4.5, 72, 80)

    def check_batch(self, fields, mats, model):
        assert len(fields) == len(mats)
        for field, g in zip(fields, mats):
            alone = field_of(g, model, self.GRID)
            assert np.array_equal(field.values, alone.values)
            assert np.array_equal(field.negative_mask, alone.negative_mask)
            assert field.total_mass == alone.total_mass
            assert np.array_equal(field.values, wigner_field_pointwise(g, model, self.GRID))

    def test_trajectory_times_bit_equal_to_one_at_a_time(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 64)
        times = [0.0, 0.4, 1.1, 2.5]
        traj = evolve(g0, "quantum", QUARTIC, times).take([3, 1, 2])
        assert np.array_equal(traj.times, [2.5, 0.4, 1.1])
        fields = wigner_field(traj, self.GRID)
        self.check_batch(fields, [traj.matrix(i) for i in range(3)], QUARTIC)

    def test_empty_upper_sectors_beside_filled_ones(self):
        # the vacuum fills one entry of sector 0 and no other sector, so the
        # batch skips rows within a sector and whole sectors of one time only
        mats = [
            coherent_density(0.3 + 0.2j, 24),
            coherent_density(0.0, 24),
            coherent_density(-0.5 + 0.1j, 24),
        ]
        assert not np.any(np.tril(mats[1], -1))
        fields = wigner_field(stacked_trajectory(mats, QUARTIC), self.GRID)
        self.check_batch(fields, mats, QUARTIC)

    def test_zero_terms_skipped_per_time(self):
        # far out on a wide grid the unweighted Laguerre values of a
        # 256-level basis pass the float range and are rescaled; the
        # vacuum's zero coefficients there are skipped, as they are when it
        # renders alone, the thermal state keeps 101 columns and the 0.9^n
        # diagonal all 256, and every field is finite and matches its
        # closed form within the truncation bound and rounding
        n = 256
        vacuum = np.zeros((n, n), dtype=complex)
        vacuum[0, 0] = 1.0
        diagonals = [(0.5, 0.5), (1.0, 0.9)]  # c z^n
        mats = [vacuum] + [np.diag(c * z ** np.arange(n)).astype(complex) for c, z in diagonals]
        fields = wigner_field(stacked_trajectory(mats, QUARTIC), WIDE_GRID)
        alone = [field_of(g, QUARTIC, WIDE_GRID) for g in mats]
        for field, one in zip(fields, alone):
            assert np.isfinite(field.values).all()
            assert np.array_equal(field.values, one.values)
        for field, (c, z) in zip(fields[1:], diagonals):
            want, tail = thermal_field(c, z, n, QUARTIC, WIDE_GRID)
            assert np.abs(field.values - want).max() <= tail + 1e-14

    def test_working_set_stays_bounded(self, fig2_fields):
        # fig2's four fields on a 512 x 512 grid: 8 MiB of returned values,
        # a traced peak of 23.4 MiB (numpy 2.4), where rendering each sector
        # on the whole grid at once peaked at 45.8 MiB
        import tracemalloc

        traj, _ = fig2_fields
        grid = (-4.0, 4.0, -4.0, 4.0, 512, 512)
        tracemalloc.start()
        try:
            fields = wigner_field(traj, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fields) == 4
        assert peak < 30 * 2**20


class TestSeriesCut:
    """Each time's Laguerre series stops once its tail cannot move a field value."""

    GRID = (-10.0, 10.0, -10.0, 10.0, 61, 61)

    @staticmethod
    def check_within_bound(field, g, model, grid):
        # the documented bound, plus one rounding of the sum over sectors
        filled = [nu for nu in range(len(g)) if np.diagonal(g, -nu).any()]
        top = max(filled)
        peak = np.abs(np.tril(g)).max()
        bound = (2 + 4 * top) * 2.0**-100 * peak / (2.0 * math.pi * model.hbar)
        full, scale = wigner_field_full_depth(g, model, grid)
        assert np.all(np.abs(field.values - full) <= bound + np.spacing(scale))

    def test_fig2_fields_within_bound_of_full_depth(self, fig2_fields):
        traj, fields = fig2_fields
        for i, field in enumerate(fields):
            self.check_within_bound(field, traj.matrix(i), QUARTIC, DEFAULT_GRID)

    @pytest.mark.parametrize("ratio", [0.9, 0.5])
    def test_thermal_diagonal_within_bound_of_full_depth(self, ratio):
        g = np.diag((1.0 - ratio) * ratio ** np.arange(128.0)).astype(complex)
        self.check_within_bound(field_of(g, QUARTIC, self.GRID), g, QUARTIC, self.GRID)

    def test_cut_adapts_to_the_state(self, fig2_fields, monkeypatch):
        depths = []
        profile = render._sector_profile

        def recording(diags, nu, x, out=None):
            depths.append(diags.shape[1])
            return profile(diags, nu, x, out)

        monkeypatch.setattr(render, "_sector_profile", recording)
        traj, _ = fig2_fields
        wigner_field(traj, self.GRID)
        # fig2's coefficients fall below 1e-30 by k = 20
        assert max(depths) <= 21
        depths.clear()
        # the tail of 0.5^n from k = 101 on, 2^-100 less rounding, is past the cut
        for ratio, kept in ((0.9, 128), (0.5, 101)):
            g = np.diag(ratio ** np.arange(128.0)).astype(complex)
            field_of(g, QUARTIC, self.GRID)
            assert depths.pop() == kept

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_entry_is_not_cut(self, poison):
        # the coherent state's entries at n = 20 lie far below the floor,
        # so only the poisoned entry keeps its column; the NaN also makes
        # the time's largest |entry| NaN
        g = coherent_density(0.3, 24)
        g[20, 20] = poison
        with np.errstate(all="ignore"):
            field = field_of(g, QUARTIC, self.GRID)
            want = wigner_field_pointwise(g, QUARTIC, self.GRID)
        assert not np.isfinite(field.values).all()
        assert np.array_equal(field.values, want, equal_nan=True)

    def test_radial_functions_bounded_by_two(self):
        # |rho_k^nu(x)| = 2 sqrt(k!/(k+nu)!) x^(nu/2) e^(-x/2) |L_k^nu(x)| <= 2,
        # the dyad-Wigner bound the cut rests on, by a 50-digit recurrence
        import mpmath

        peak = 0.0
        with mpmath.workdps(50):
            for nu in (0, 1, 2, 3, 5, 8, 13, 21, 34, 60):
                for x in map(mpmath.mpf, np.geomspace(1e-3, 900.0, 60)):
                    weight = 2 * x ** (nu / 2) * mpmath.exp(-x / 2) / mpmath.sqrt(mpmath.factorial(nu))
                    l_prev, l_cur = mpmath.mpf(0), mpmath.mpf(1)
                    for k in range(121):
                        if k > 0:
                            l_prev, l_cur = l_cur, ((2 * k - 1 + nu - x) * l_cur - (k - 1 + nu) * l_prev) / k
                            weight *= mpmath.sqrt(mpmath.mpf(k) / (k + nu))
                        peak = max(peak, abs(weight * l_cur))
        assert peak <= 2
        assert peak > 1.999  # nu = k = 0 at the smallest x: 2 e^(-x/2)


class TestWignerField:
    @pytest.mark.parametrize("nu", [0, 3])
    def test_far_profile_matches_high_precision_sum(self, nu):
        # a 256-term 0.9^k series far out, where the unweighted Laguerre
        # values pass the float range and are rescaled, against the same
        # recurrence carried with its weight at 60 digits
        import mpmath

        coeffs = 0.9 ** np.arange(256.0)
        x = np.array([888.9, 1111.1, 1600.0, 3000.0])
        got = render._sector_profile(coeffs[None, :].astype(complex), nu, x)[0]
        want = []
        with mpmath.workdps(60):
            for xv in map(mpmath.mpf, x):
                w = 2 * xv ** (mpmath.mpf(nu) / 2) * mpmath.exp(-xv / 2) / mpmath.sqrt(mpmath.factorial(nu))
                l_prev, l_cur, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
                for k, c in enumerate(coeffs):
                    if k > 0:
                        l_prev, l_cur = l_cur, ((2 * k - 1 + nu - xv) * l_cur - (k - 1 + nu) * l_prev) / k
                        w *= -mpmath.sqrt(mpmath.mpf(k) / (k + nu))
                    total += mpmath.mpf(float(c)) * w * l_cur
                want.append(float(total))
        assert np.all(got.imag == 0.0)
        # the values run down to about 1e-291 at x = 3000
        assert np.abs(got.real / np.array(want) - 1.0).max() < 1e-12

    def test_vacuum_closed_form(self):
        field = field_of(coherent_density(0.0, 24))
        alpha = alpha_grid(field, QUARTIC)
        want = np.exp(-2.0 * np.abs(alpha) ** 2) / (math.pi * HBAR)
        assert np.abs(field.values - want).max() < 1e-12
        assert not field.negative_mask.any()
        assert abs(field.total_mass - 1.0) < 1e-6

    def test_first_excited_dyad(self):
        g = np.zeros((8, 8), dtype=complex)
        g[1, 1] = 1.0
        field = field_of(g)
        alpha = alpha_grid(field, QUARTIC)
        u = np.abs(alpha) ** 2
        want = (4.0 * u - 1.0) * np.exp(-2.0 * u) / (math.pi * HBAR)
        assert np.abs(field.values - want).max() < 1e-12
        # deep negative dip near the origin, and the mask is exactly the sign set
        assert field.values.min() < -0.99 / (math.pi * HBAR)
        assert field.negative_mask.any()
        assert np.array_equal(field.negative_mask, field.values < 0.0)

    def test_gaussian_matches_continuum_at_t0(self):
        # the kappa=1 state is twice as wide, so it needs a larger window
        # before the clipped tail mass drops under the unit-mass tolerance
        wide = (-5.0, 5.0, -5.0, 5.0, 256, 256)
        for state, grid in (
            (FIG3_STATE, DEFAULT_GRID),
            (GaussianState(kappa=1.0, alpha0=2.0**-0.5), wide),
        ):
            g = dense(groenewold_from_gaussian(state, 96))
            field = field_of(g, QUARTIC, grid)
            whorl = whorl_phase_field(state, QUARTIC, 0.0, grid)
            assert np.abs(field.values - whorl.values).max() < 1e-10
            assert abs(field.total_mass - 1.0) < 1e-6

    def test_off_diagonal_coherence_renders(self):
        # superposition dyad |0><1| + |1><0| against the explicit symbol
        g = np.zeros((6, 6), dtype=complex)
        g[0, 1] = 0.5
        g[1, 0] = 0.5
        field = field_of(g)
        alpha = alpha_grid(field, QUARTIC)
        want = 2.0 * np.real(alpha) * np.exp(-2.0 * np.abs(alpha) ** 2) / (math.pi * HBAR)
        assert np.abs(field.values - want).max() < 1e-12

    def test_quantum_negative_regions_appear(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 96)
        for model in (QUARTIC, SEXTIC):
            traj = evolve(g0, "quantum", model, [math.pi / 4.0])
            (field,) = wigner_field(traj, (-4.0, 4.0, -4.0, 4.0, 128, 128))
            assert field.negative_mask.any()
            assert abs(field.total_mass - 1.0) < 1e-6

    def test_mass_conserved_across_dynamics(self):
        g0 = groenewold_from_gaussian(FIG3_STATE, 96)
        small = (-4.0, 4.0, -4.0, 4.0, 128, 128)
        for dynamics in ("quantum", "classical", "semiquantum1", "semiclassical1"):
            traj = evolve(g0, dynamics, QUARTIC, [0.0, 1.2])
            masses = [field.total_mass for field in wigner_field(traj, small)]
            assert abs(masses[0] - 1.0) < 1e-6
            assert abs(masses[1] - masses[0]) < 1e-6

    def test_classical_field_matches_whorl(self):
        # matrix synthesis vs continuum density, interior pointwise
        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        for t, tol in ((math.pi / 4.0, 1e-5), (math.pi / 2.0, 2e-5)):
            traj = evolve(g0, "classical", QUARTIC, [t])
            (field,) = wigner_field(traj)
            whorl = whorl_phase_field(FIG3_STATE, QUARTIC, t, DEFAULT_GRID)
            nq = DEFAULT_GRID[4]
            inner = slice(nq // 8, nq - nq // 8)
            gap = np.abs(field.values[inner, inner] - whorl.values[inner, inner]).max()
            assert gap < tol

    def test_classical_field_matches_whorl_late_time(self):
        # By t=pi the sector-nu radial profile winds at wavenumber ~2*r*nu*t,
        # so sectors past nu~6 outrun a 128-mode Laguerre basis and the
        # pointwise field error plateaus near 1e-3 even though low-moment
        # traces stay converged.  A 768-mode basis restores pointwise
        # agreement; sectors above nu=32 carry weight below 1e-12 for this
        # state and may be skipped outright.
        t = math.pi
        grid = (-4.0, 4.0, -4.0, 4.0, 160, 160)
        whorl = whorl_phase_field(FIG3_STATE, QUARTIC, t, grid)
        nq = grid[4]
        inner = slice(nq // 8, nq - nq // 8)

        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        traj = evolve(g0, "classical", QUARTIC, [t])
        (coarse_field,) = wigner_field(traj, grid)
        coarse = np.abs(coarse_field.values[inner, inner] - whorl.values[inner, inner]).max()

        dim, nu_top = 768, 32
        gw = dense(groenewold_from_gaussian(FIG3_STATE, dim))
        gt = np.zeros((dim, dim), dtype=complex)
        for nu in range(nu_top + 1):
            block = classical_block_analytic(nu, QUARTIC, dim - nu + 8)[: dim - nu, : dim - nu]
            row = BlockPropagator(block).trajectory(np.diagonal(gw, offset=-nu), [t])[0]
            gt[np.arange(nu, dim), np.arange(dim - nu)] = row
            if nu:
                gt[np.arange(dim - nu), np.arange(nu, dim)] = np.conj(row)
        field = field_of(gt, QUARTIC, grid)
        fine = np.abs(field.values[inner, inner] - whorl.values[inner, inner]).max()

        assert fine < 1e-5
        assert fine < coarse / 50.0

    def test_three_way_moment_consistency(self):
        # matrix trace, grid quadrature of the field, Bessel quadrature
        t = 1.0
        g0 = groenewold_from_gaussian(FIG3_STATE, 128)
        traj = evolve(g0, "classical", QUARTIC, [t])
        (trace_mean,) = moment_track(traj).mean_alpha
        (field,) = wigner_field(traj)
        alpha = alpha_grid(field, QUARTIC)
        grid_mean = (field.values * alpha).sum() * cell_area(field) / (2.0 * HBAR)
        oracle = classical_moment_quadrature(1, FIG3_STATE, QUARTIC, t)
        assert abs(trace_mean - oracle) < 1e-6
        assert abs(grid_mean - oracle) < 1e-6
        assert abs(grid_mean - trace_mean) < 1e-6

    def test_boundary_warning(self):
        g = coherent_density(1.5, 48)
        with pytest.warns(BoundaryMassWarning):
            field_of(g, QUARTIC, (-1.0, 1.0, -1.0, 1.0, 64, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field_of(g, QUARTIC, (-4.5, 4.5, -4.5, 4.5, 64, 64))

    def test_grid_validation(self):
        g = coherent_density(0.0, 8)
        for bad in (
            (0.0, 1.0, 0.0, 1.0, 8),
            (1.0, -1.0, -1.0, 1.0, 8, 8),
            (-1.0, 1.0, 1.0, -1.0, 8, 8),
            (-1.0, 1.0, -1.0, 1.0, 1, 8),
            (-1.0, 1.0, -1.0, 1.0, 8.5, 8),
            (-np.inf, 1.0, -1.0, 1.0, 8, 8),
        ):
            with pytest.raises(ConfigError):
                field_of(g, QUARTIC, bad)


class TestWhorlPhaseField:
    def test_matches_raw_field(self):
        # the deliberately tight window clips the state, so the boundary
        # warning is expected here; the point is bit-exact value pass-through
        grid = (-3.0, 3.0, -2.0, 2.0, 48, 32)
        with pytest.warns(BoundaryMassWarning):
            field = whorl_phase_field(FIG3_STATE, SEXTIC, 0.7, grid)
        qs = np.linspace(-3.0, 3.0, 48)
        ps = np.linspace(-2.0, 2.0, 32)
        want = whorl_field_pointwise(FIG3_STATE, SEXTIC, 0.7, qs, ps)
        assert np.array_equal(field.values, want)
        assert field.values.shape == (32, 48)

    def test_mass_and_mask(self):
        field = whorl_phase_field(FIG3_STATE, QUARTIC, math.pi / 2.0)
        assert abs(field.total_mass - 1.0) < 1e-6
        assert not field.negative_mask.any()


class TestFileFormats:
    def test_pgm_layout_and_determinism(self, tmp_path):
        field = whorl_phase_field(FIG3_STATE, QUARTIC, 0.3, (-4.0, 4.0, -4.0, 4.0, 40, 24))
        path = tmp_path / "field.pgm"
        write_pgm(field, path)
        raw = path.read_bytes()
        header, payload = raw.split(b"255\n", 1)
        assert header.startswith(b"P5\n# vscale=")
        assert b"40 24\n" in header
        assert len(payload) == 40 * 24
        write_pgm(field, tmp_path / "again.pgm")
        assert (tmp_path / "again.pgm").read_bytes() == raw

    def test_pgm_affine_map_inverts(self, tmp_path):
        field = field_of(coherent_density(0.3, 24), QUARTIC, (-4.0, 4.0, -4.0, 4.0, 32, 32))
        path = tmp_path / "map.pgm"
        write_pgm(field, path)
        raw = path.read_bytes()
        lines = raw.split(b"\n", 4)
        vscale = float(lines[1].decode().split("=", 1)[1])
        gray = np.frombuffer(lines[4], dtype=np.uint8).reshape(32, 32).astype(float)
        approx = (gray - 128.0) / 127.0 * vscale
        assert np.abs(approx - field.values).max() <= vscale / 127.0

    def test_mask_pgm_binary_values(self, tmp_path):
        g = np.zeros((8, 8), dtype=complex)
        g[1, 1] = 1.0
        field = field_of(g, QUARTIC, (-3.0, 3.0, -3.0, 3.0, 16, 16))
        path = tmp_path / "mask.pgm"
        write_mask_pgm(field, path)
        raw = path.read_bytes()
        payload = raw.split(b"255\n", 1)[1]
        values = set(np.frombuffer(payload, dtype=np.uint8).tolist())
        assert values == {0, 255}
        grid_mask = np.frombuffer(payload, dtype=np.uint8).reshape(16, 16) == 255
        assert np.array_equal(grid_mask, field.negative_mask)

    def test_csv_rows_match_per_value_format(self, tmp_path):
        values = np.array([
            [-0.0, 5e-324, 1e308, 0.1],
            [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0 * 1e-300, 1.2345678901234567e-5],
        ])
        field = PhaseField((-1.0, 1.0, -1.0, 1.0, 4, 2), values, values < 0.0, 0.0)
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        body = [ln for ln in path.read_bytes().split(b"\n") if not ln.startswith(b"#")]
        want = [",".join(f"{v:.17g}" for v in row).encode("ascii") for row in values.tolist()]
        assert body == want + [b""]
        assert body[0].startswith(b"-0,4.9406564584124654e-324,")

    def test_csv_round_trip(self, tmp_path):
        field = whorl_phase_field(FIG3_STATE, QUARTIC, 0.9, (-4.0, 4.0, -4.0, 4.0, 24, 16))
        path = tmp_path / "field.csv"
        write_field_csv(field, path, provenance="unit test")
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert header[0] == "# unit test"
        assert len(body) == 16
        parsed = np.array([[float(tok) for tok in ln.split(",")] for ln in body])
        assert np.array_equal(parsed, field.values)


def csv_bytes(write, values: np.ndarray, folder) -> bytes:
    """The bytes write puts in a field CSV of values, on a grid of their shape."""
    rows, cols = values.shape
    field = PhaseField((-1.0, 1.0, -1.0, 1.0, cols, rows), values, values < 0.0, 0.25)
    path = folder / f"{write.__name__}.csv"
    write(field, path, provenance="csv kernel")
    return path.read_bytes()


def assert_csv_matches_pointwise(values, folder) -> None:
    got = csv_bytes(write_field_csv, values, folder)
    want = csv_bytes(field_csv_pointwise, values, folder)
    assert got.split(b"\n") == want.split(b"\n")
    assert got == want


def as_rows(values, cols: int = 7) -> np.ndarray:
    """values padded with 1.0 to full rows of cols."""
    values = np.asarray(values, dtype=float).ravel()
    return np.concatenate((values, np.ones(-values.size % cols))).reshape(-1, cols)


class TestCsvKernel:
    """write_field_csv against one '%.17g' call per value, byte for byte."""

    def test_fig1_and_fig2_fields(self, fig2_fields, tmp_path):
        _, quantum = fig2_fields
        times = [math.pi / 4.0 * i for i in range(1, 5)]
        classical = [whorl_phase_field(FIG3_STATE, QUARTIC, t) for t in times]
        for field in classical + quantum:
            assert_csv_matches_pointwise(field.values, tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
            elements=st.floats(),
        )
    )
    def test_any_floats(self, values, tmp_path_factory):
        assert_csv_matches_pointwise(values, tmp_path_factory.mktemp("csv"))

    @pytest.mark.parametrize("shape", [(2, 4), (17, 3), (33, 5)])
    def test_row_count_off_the_block_size(self, shape, tmp_path):
        rng = np.random.default_rng(sum(shape))
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        assert_csv_matches_pointwise(values, tmp_path)

    def test_every_fallback_branch(self, tmp_path):
        rng = np.random.default_rng(17)
        # m/4 >= 1e15 has 18 significant digits ending in 5: a tie at 17,
        # which '%.17g' rounds half to even
        m = rng.integers(2**51, 2**52, 4000) | 1
        ties = np.array([1e15 + 0.25, 1e15 + 0.75, 1125899906842623.75])
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        edges = np.array([1e-5, 1e16, 1e17, 99999999999999999.0])
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
        values = np.concatenate([m / 4.0, ties, special])
        for centre in (powers, edges):
            values = np.concatenate(
                [values, centre, np.nextafter(centre, 0.0), np.nextafter(centre, np.inf)]
            )
        values = np.concatenate([values, -values])
        assert_csv_matches_pointwise(as_rows(values), tmp_path)
        body = csv_bytes(write_field_csv, as_rows(ties[:2], 2), tmp_path).split(b"\n")[-2]
        assert body == b"1000000000000000.2,1000000000000000.8"
