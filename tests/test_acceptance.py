"""Acceptance gate: eleven pinned criteria, one test and one PASS line each.

Scope: basis size 128, four dynamics, quartic and sextic models at the
bundled figure parameters. Each test prints one
"[ACCEPTANCE] criterion N: PASS" line on success (visible with -s; the
-v test names carry the same numbering).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from groenewold_lab import cli
from groenewold_lab.evolve import BlockPropagator, classical_moment_quadrature, evolve
from groenewold_lab.model import ModelSpec, number_coefficients
from groenewold_lab.observables import mean_alpha_series, snapshot_spectrum, squared_negativity
from groenewold_lab.states import GaussianState, groenewold_from_gaussian
from oracles import (
    break_time,
    classical_block_analytic,
    interior,
    p_block,
    quantum_block,
    rel_interior,
    rung,
    sector,
    u_block,
    x_blocks,
)

QUARTIC = ModelSpec.quartic(mu=0.5)
SEXTIC = ModelSpec.sextic(mu=0.5)
QUARTIC_SMALL = ModelSpec.quartic(mu=0.25)
SEXTIC_SMALL = ModelSpec.sextic(mu=0.25)
FIG3_STATE = GaussianState(kappa=2.0, alpha0=0.5)
FIG4_STATE = GaussianState(kappa=1.0, alpha0=2.0**-0.5)
N = 128
ALL_DYNAMICS = ("quantum", "semiquantum1", "classical", "semiclassical1")


def passed(number: int, message: str) -> None:
    print(f"[ACCEPTANCE] criterion {number}: PASS - {message}")


@pytest.fixture(scope="module")
def g0_fig3():
    return groenewold_from_gaussian(FIG3_STATE, N)


@pytest.fixture(scope="module")
def g0_fig4():
    return groenewold_from_gaussian(FIG4_STATE, N)


@pytest.fixture(scope="module")
def sextic_trajs(g0_fig3):
    times = np.linspace(0.0, math.pi, 64)
    return {d: evolve(g0_fig3, d, SEXTIC, times) for d in ALL_DYNAMICS}


def test_criterion_01_quantization_gates():
    quartic = number_coefficients((0, 0, 1), Fraction(1, 2))
    sextic = number_coefficients((0, 0, 0, 1), Fraction(1, 2))
    mu2 = Fraction(1, 2) ** 2
    assert abs(float(quartic[0] - mu2 / 4)) <= 1e-14
    assert abs(float(sextic[1] - 5 * mu2 / 4)) <= 1e-14
    passed(1, "c0 = mu^2/4 (quadratic power) and c1 = 5 mu^2/4 (cubic power), exact")


def test_criterion_02_quartic_classical_identity():
    n, guard = 96, 16
    worst = 0.0
    for nu in (1, 2, 3):
        got = sector("classical", QUARTIC, nu, n)
        want = -1j * nu * QUARTIC.mu * QUARTIC.omega * p_block(nu, n)
        worst = max(worst, rel_interior(got, want, guard))
    assert worst <= 1e-10
    passed(2, f"commutator-route block equals -i nu mu omega P, residual {worst:.2e}")


def test_criterion_03_ladder_closure_both_directions():
    # commutator-route roundoff grows ~ n^4 eps for the sextic, so the
    # identity gate runs where the route is trustworthy
    n, guard = 64, 16
    worst_down = worst_up = 0.0
    for model in (QUARTIC, SEXTIC):
        for nu in (1, 2):
            analytic = classical_block_analytic(nu, model, n + 8)[:n, :n]
            down = sector("classical", model, nu, n)
            worst_down = max(worst_down, rel_interior(down, analytic, guard))
            up = down.copy()
            for j in range(1, model.K):
                up = up + rung("moyal", model, j, nu, n)
            q = quantum_block(nu, model, n)
            worst_up = max(worst_up, rel_interior(up, q, guard))
    assert worst_down <= 1e-8
    assert worst_up <= 1e-8
    passed(
        3,
        f"quantum+corrections vs classical {worst_down:.2e}, "
        f"classical+corrections vs quantum {worst_up:.2e}",
    )


def test_criterion_04_sl2_suite():
    n, w = 64, 2
    for nu in (1, 2):
        x1, x2, x3 = x_blocks(nu, n)
        for lhs, rhs in (
            (x2 @ x1 - x1 @ x2, x3),
            (x3 @ x2 - x2 @ x3, x1),
            (x3 @ x1 - x1 @ x3, x2),
        ):
            assert np.abs(interior(lhs - rhs, w)).max() <= 1e-12
        for sign in (1, -1):
            xs = x2 + sign * x1
            shift = x3 @ xs - xs @ (x3 + sign * np.eye(n))
            assert np.abs(interior(shift, w)).max() <= 1e-12
        u = u_block(nu, n)
        assert np.abs(u @ u.T - np.eye(n)).max() <= 1e-8
        m = 1.5 * (x1 @ x2 + x2 @ x1) - (x1 - x2) @ (x1 - x2)
        xp, xm = x2 + x1, x2 - x1
        wide = n // 2 - 4
        got = interior(u @ m @ u.T, wide)
        want = interior(math.sqrt(21) / 4 * (xp @ xp - xm @ xm), wide)
        assert np.abs(got - want).max() <= 1e-8
    passed(4, "commutation, ladder shifts, U orthogonality, sqrt(21) similarity")


def test_criterion_05_quantum_recurrence(g0_fig3):
    worst = 0.0
    for model, period in (
        (QUARTIC, 2.0 * math.pi / (QUARTIC.mu * QUARTIC.omega)),
        (SEXTIC, 4.0 * math.pi / (SEXTIC.mu**2 * SEXTIC.omega)),
    ):
        traj = evolve(g0_fig3, "quantum", model, [0.0, period])
        gap = float(np.abs(traj.matrix(1) - traj.matrix(0)).max())
        worst = max(worst, gap)
    assert worst <= 1e-9
    passed(5, f"state returns at T = 2pi/(mu omega), 4pi/(mu^2 omega); gap {worst:.2e}")


def test_criterion_06_classical_two_path_oracle(g0_fig3):
    times = np.linspace(0.0, math.pi, 64)

    traj = evolve(g0_fig3, "classical", QUARTIC, times)
    matrix_route = mean_alpha_series(traj)
    quad_route = np.array(
        [classical_moment_quadrature(1, FIG3_STATE, QUARTIC, t) for t in times]
    )
    quartic_dev = float(np.abs(matrix_route - quad_route).max())
    assert quartic_dev <= 1e-6

    # the sextic whorl winds fast enough that the first-moment tail needs
    # a few thousand radial modes by t = pi; the block route stays exact
    # once the basis holds the state, so sector 1 runs in a wide basis
    wide = 4096
    block = classical_block_analytic(1, SEXTIC, wide + 7)[: wide - 1, : wide - 1]
    prop = BlockPropagator(block)
    weights = np.sqrt(np.arange(1.0, wide))
    g1 = groenewold_from_gaussian(FIG3_STATE, wide)[1]
    sextic_matrix = prop.trajectory(g1, times) @ weights
    sextic_quad = np.array(
        [classical_moment_quadrature(1, FIG3_STATE, SEXTIC, t) for t in times]
    )
    sextic_dev = float(np.abs(sextic_matrix - sextic_quad).max())
    assert sextic_dev <= 1e-6
    passed(
        6,
        f"matrix vs Bessel quadrature <alpha>(t), 64 points in [0, pi]: "
        f"quartic {quartic_dev:.2e}, sextic {sextic_dev:.2e}",
    )


def test_criterion_07_conservation_suite(sextic_trajs):
    occ = np.arange(N) + 0.5
    worst = {"trace": 0.0, "purity": 0.0, "herm": 0.0, "abs2": 0.0}
    for name, traj in sextic_trajs.items():
        trace_err = float(np.abs(traj.history[0].sum(axis=1) - 1.0).max())
        assert trace_err <= 1e-10, name
        worst["trace"] = max(worst["trace"], trace_err)

        for i in range(len(traj.times)):
            m = traj.matrix(i)
            assert np.array_equal(m, m.conj().T), name
            worst["herm"] = max(worst["herm"], float(np.abs(m - m.conj().T).max()))

        abs2 = traj.diagonal_history(0).real @ occ
        abs2_drift = float(np.abs(abs2 - abs2[0]).max())
        assert abs2_drift <= 1e-8, name
        worst["abs2"] = max(worst["abs2"], abs2_drift)

        # all four flows are unitary, semiclassical1 included (i D1 is real symmetric)
        purity = traj.purity_series().real
        drift = float(np.abs(purity - purity[0]).max())
        assert drift <= 1e-8, name
        worst["purity"] = max(worst["purity"], drift)
    passed(
        7,
        "trace {trace:.1e}, hermiticity {herm:.1e}, purity drift {purity:.1e}, "
        "occupation drift {abs2:.1e}".format(**worst),
    )


def test_criterion_08_qualitative_orderings(g0_fig3, g0_fig4, sextic_trajs):
    times = np.linspace(0.0, math.pi, 64)

    # (a) quartic quantum-vs-classical with threshold 0.1: the smaller
    # effective hbar never separates inside the window (break_time returns
    # +inf, the documented sentinel), the larger one separates near t=1.1
    pairs = {}
    for tag, model, g0 in (
        ("large", QUARTIC, g0_fig3),
        ("small", QUARTIC_SMALL, g0_fig4),
    ):
        tq = evolve(g0, "quantum", model, times)
        tc = evolve(g0, "classical", model, times)
        pairs[tag] = break_time(tq, tc, 0.1)
    assert math.isfinite(pairs["large"])
    assert pairs["small"] > pairs["large"]

    # (b) sextic at the kappa=1, mu=1/4 operating point: the first
    # semiclassical flow shadows quantum for longer than the first
    # semiquantum flow shadows classical
    fig4 = {d: evolve(g0_fig4, d, SEXTIC_SMALL, times) for d in ALL_DYNAMICS}
    bt_sc = break_time(fig4["semiclassical1"], fig4["quantum"], 0.1)
    bt_sq = break_time(fig4["semiquantum1"], fig4["classical"], 0.1)
    assert bt_sc > bt_sq

    # (c) spectrum resemblance: semiclassical negativity stays closer to
    # classical than semiquantum does
    probe_times = [1.0, 2.0, 3.0]
    probe = {
        d: evolve(g0_fig3, d, SEXTIC, probe_times)
        for d in ("classical", "semiquantum1", "semiclassical1")
    }
    for i in range(len(probe_times)):
        s_cl = squared_negativity(snapshot_spectrum(probe["classical"], i))
        s_sq = squared_negativity(snapshot_spectrum(probe["semiquantum1"], i))
        s_sc = squared_negativity(snapshot_spectrum(probe["semiclassical1"], i))
        assert abs(s_sc - s_cl) < abs(s_sq - s_cl)
    passed(
        8,
        f"(a) break {pairs['large']:.3f} vs never within window; "
        f"(b) SC-Q {bt_sc if math.isfinite(bt_sc) else 'inf'} > SQ-CL {bt_sq:.3f}; "
        f"(c) |sqneg_SC - sqneg_CL| < |sqneg_SQ - sqneg_CL| at t = 1, 2, 3",
    )


def test_criterion_09_negativity_emergence(g0_fig3):
    classical = evolve(g0_fig3, "classical", SEXTIC, [1.0])
    quantum = evolve(g0_fig3, "quantum", SEXTIC, [1.0])
    neg_cl = squared_negativity(snapshot_spectrum(classical, 0))
    neg_q = squared_negativity(snapshot_spectrum(quantum, 0))
    assert neg_cl > 0.0
    assert neg_q <= 1e-12
    passed(9, f"classical sqneg {neg_cl:.3e} > 0 by t = 1, quantum {neg_q:.1e}")


def test_criterion_10_linear_degeneracy():
    model = ModelSpec.harmonic(mu=0.5)
    g0 = groenewold_from_gaussian(FIG3_STATE, 48)
    times = np.linspace(0.0, 2.0 * math.pi, 16)
    want = 0.5 * np.exp(-1j * model.omega * times)
    worst = 0.0
    for name in ALL_DYNAMICS:
        traj = evolve(g0, name, model, times)
        dev = float(np.abs(mean_alpha_series(traj) - want).max())
        worst = max(worst, dev)
    assert worst <= 1e-10
    passed(10, f"all four dynamics reduce to alpha0 e^(-i omega t), dev {worst:.2e}")


def test_criterion_11_preset_determinism(tmp_path):
    def strip(path):
        if path.suffix == ".pgm":
            return path.read_bytes()
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]

    for preset in ("fig1", "fig6"):
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{preset}_{attempt}"
            assert cli.main(["run", "--preset", preset, "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert strip(outs[0] / name) == strip(outs[1] / name), name
    passed(11, "fig1 and fig6 reruns byte-identical after '#' header stripping")
