"""Driver behavior: schema errors, exit codes, artifact formats, determinism.

The happy path uses a linear model so every dynamics is exactly the same
rotation, making moment columns checkable against a closed form.
"""

import copy
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import groenewold_lab
from groenewold_lab import cli
from groenewold_lab import evolve as evolve_module
from groenewold_lab.errors import ConfigError
from groenewold_lab.evolve import BlockPropagator
from groenewold_lab.model import ModelSpec
from groenewold_lab.render import DEFAULT_GRID, BoundaryMassWarning, whorl_phase_field, wigner_field
from groenewold_lab.states import GaussianState
from oracles import coherent_density, stacked_trajectory

BASE = {
    "model": {"b": [0.0, 1.0], "mu": 0.5},
    "state": {"kappa": 2.0, "alpha0_re": 0.5, "alpha0_im": 0.0},
    "truncation": {"N": 32, "tail_tol": 1e-10},
    "dynamics": ["quantum", "semiquantum1", "classical", "semiclassical1"],
    "times": {"t0": 0.0, "t1": 1.5, "steps": 4},
    "outputs": {
        "moments": True,
        "spectrum": {"k": 2},
        "negativity": True,
        "field": {"grid": [-3.0, 3.0, -3.0, 3.0, 32, 32], "time_list": [0.75]},
        "validate": True,
    },
}


K5_B = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

HUGE = 10**400  # 401 digits: math.isfinite raises OverflowError on it


def write_config(tmp_path, mutate=None, name="cfg.json"):
    raw = copy.deepcopy(BASE)
    if mutate:
        mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return path


def run_cli(config_path, out_dir):
    return cli.main(["run", str(config_path), "--out", str(out_dir)])


def data_lines(path):
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


def rows_of(path):
    header, *rest = data_lines(path)
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in rest]


class TestSchemaErrors:
    def check_fails(self, tmp_path, capsys, mutate, needle):
        path = write_config(tmp_path, mutate)
        code = run_cli(path, tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 1
        assert needle in err
        assert not (tmp_path / "out").exists()

    def test_unknown_top_key(self, tmp_path, capsys):
        self.check_fails(tmp_path, capsys, lambda r: r.update(extra=1), "config.extra: unknown key")

    def test_unknown_model_key(self, tmp_path, capsys):
        self.check_fails(
            tmp_path, capsys, lambda r: r["model"].update(junk=1), "model.junk: unknown key"
        )

    def test_missing_times(self, tmp_path, capsys):
        self.check_fails(
            tmp_path, capsys, lambda r: r.pop("times"), "missing required key 'times'"
        )

    def test_empty_dynamics(self, tmp_path, capsys):
        self.check_fails(
            tmp_path, capsys, lambda r: r.update(dynamics=[]), "must be a non-empty array"
        )

    def test_unknown_dynamics(self, tmp_path, capsys):
        self.check_fails(
            tmp_path, capsys, lambda r: r.update(dynamics=["quantum", "magic"]), "magic"
        )

    def test_duplicate_dynamics(self, tmp_path, capsys):
        self.check_fails(
            tmp_path,
            capsys,
            lambda r: r.update(dynamics=["quantum", "quantum"]),
            "must be unique",
        )

    def test_mu_and_hbar_both(self, tmp_path, capsys):
        self.check_fails(
            tmp_path,
            capsys,
            lambda r: r["model"].update(hbar=0.5),
            "exactly one of 'mu' and 'hbar'",
        )

    def test_k_inconsistent_with_b(self, tmp_path, capsys):
        self.check_fails(
            tmp_path, capsys, lambda r: r["model"].update(K=3), "inconsistent with b"
        )

    def test_non_numeric_b_entry(self, tmp_path, capsys):
        self.check_fails(
            tmp_path,
            capsys,
            lambda r: r["model"].update(b=[0.0, "x"]),
            "entry 1 must be a finite number",
        )

    def test_spectrum_k_exceeds_basis(self, tmp_path, capsys):
        self.check_fails(
            tmp_path,
            capsys,
            lambda r: r["outputs"]["spectrum"].update(k=64),
            "must not exceed truncation.N",
        )

    def test_bad_field_grid(self, tmp_path, capsys):
        self.check_fails(
            tmp_path,
            capsys,
            lambda r: r["outputs"]["field"].update(grid=[3.0, -3.0, -3.0, 3.0, 32, 32]),
            "q_min < q_max",
        )

    def test_empty_time_list(self, tmp_path, capsys):
        self.check_fails(
            tmp_path,
            capsys,
            lambda r: r["outputs"]["field"].update(time_list=[]),
            "non-empty array of times",
        )

    @pytest.mark.parametrize(
        "times", ([0.75, 0.75], [1.0, 1.0000000000001, 1.0]), ids=("exact", "12g")
    )
    def test_field_times_naming_one_file_rejected(self, tmp_path, capsys, times):
        # the files of a field are named by t to 12 significant digits,
        # so two such times would overwrite each other's output
        config = write_config(tmp_path, lambda r: r["outputs"]["field"].update(time_list=times))
        line = next(
            i for i, text in enumerate(config.read_text().splitlines(), 1) if '"time_list"' in text
        )
        out = tmp_path / "out"
        for argv in (["--out", str(out)], ["--validate-only"]):
            assert cli.main(["run", str(config), *argv]) == 1
            err = capsys.readouterr().err
            assert f"cfg.json:{line}: outputs.field.time_list" in err
            assert "entries 0 and 1" in err and "12 significant digits" in err
        assert not out.exists()

    def test_t1_before_t0(self, tmp_path, capsys):
        self.check_fails(
            tmp_path, capsys, lambda r: r["times"].update(t1=-1.0), "must be >= t0"
        )

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "model": ,\n}\n')
        code = run_cli(path, tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 1
        assert "cfg.json:2" in err and "invalid JSON" in err

    def test_schema_error_cites_the_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            "{\n"
            '  "model": {"b": [0.0, 1.0], "mu": 0.5},\n'
            '  "state": {"kappa": -2.0, "alpha0_re": 0.5},\n'
            '  "dynamics": ["quantum"],\n'
            '  "times": {"t0": 0.0, "t1": 1.0, "steps": 2},\n'
            '  "outputs": {"moments": true}\n'
            "}\n"
        )
        code = run_cli(path, tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 1
        assert "cfg.json:3: state.kappa: must be positive" in err

    @pytest.mark.parametrize("dynamics", ["classical", "semiclassical1"])
    def test_k5_full_ladder_rejected_at_model_b(self, tmp_path, capsys, dynamics):
        # K - 1 = 4 inverse-sinc corrections, one more than are tabulated
        def k5(raw):
            raw["model"]["b"] = K5_B
            raw["dynamics"] = ["quantum", dynamics]
        self.check_fails(tmp_path, capsys, k5, "cfg.json:3: model.b: K = 5 needs")
        config = write_config(tmp_path, k5)
        assert cli.main(["run", str(config), "--validate-only"]) == 1
        err = capsys.readouterr().err
        assert "cfg.json:3: model.b: K = 5 needs" in err
        assert dynamics in err and "tabulated through j = 3" in err

    # a JSON integer past the float range, where a finite number is wanted:
    # the path the error names and its message
    @pytest.mark.parametrize(
        "mutate, path, message",
        [
            pytest.param(lambda r: r["model"].update(mu=HUGE), "model.mu", "must be", id="mu"),
            pytest.param(lambda r: r["model"].update(b=[0.0, HUGE]), "model.b", "entry 1 must be", id="b"),
            pytest.param(lambda r: r["times"].update(t1=HUGE), "times.t1", "must be", id="t1"),
            pytest.param(
                lambda r: r["outputs"]["field"].update(time_list=[HUGE]),
                "outputs.field.time_list", "entry 0 must be", id="time-list",
            ),
            pytest.param(
                lambda r: r["outputs"]["field"].update(grid=[-3.0, HUGE, -3.0, 3.0, 32, 32]),
                "outputs.field.grid", "entry 1 must be", id="grid-bound",
            ),
        ],
    )
    def test_integer_past_float_range_is_not_finite(self, tmp_path, capsys, mutate, path, message):
        config = write_config(tmp_path, mutate)
        key = '"%s"' % path.rsplit(".", 1)[-1]
        line = next(i for i, text in enumerate(config.read_text().splitlines(), 1) if key in text)
        want = f"error: {config}:{line}: {path}: {message} a finite number\n"
        assert cli.main(["run", str(config), "--validate-only"]) == 1
        assert capsys.readouterr().err == want
        assert run_cli(config, tmp_path / "out") == 1
        assert capsys.readouterr().err == want
        assert not (tmp_path / "out").exists()

    def test_k5_without_full_ladder_is_valid(self, tmp_path, capsys):
        def k5(raw):
            raw["model"]["b"] = K5_B
            raw["dynamics"] = ["quantum", "semiquantum1"]
            raw["outputs"].pop("field")
        config = write_config(tmp_path, k5)
        assert cli.main(["run", str(config), "--validate-only"]) == 0
        assert "config ok: K=5" in capsys.readouterr().out
        assert run_cli(config, tmp_path / "out") == 0
        assert {r["dynamics"] for r in rows_of(tmp_path / "out" / "moments.csv")} == {
            "quantum", "semiquantum1"
        }

    @pytest.mark.parametrize("guard", [-1, "x"], ids=["negative", "string"])
    def test_bad_guard_rejected(self, tmp_path, capsys, guard):
        def bad(raw):
            raw["truncation"]["guard"] = guard
        self.check_fails(tmp_path, capsys, bad, "cfg.json:17: truncation.guard: must be")

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["run", str(path), "--preset", "fig1"]) == 1
        assert cli.main(["run"]) == 1
        err = capsys.readouterr().err
        assert "exactly one" in err

    def test_unknown_preset(self, tmp_path, capsys):
        assert cli.main(["run", "--preset", "fig99"]) == 1
        err = capsys.readouterr().err
        assert "unknown preset" in err and "fig1" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


# each bad outputs.field.grid, and the message the CLI prints for it after
# the config path and line
BAD_GRIDS = [
    pytest.param(["-4", 4.0, -4.0, 4.0, 32, 32], "entry 0 must be a finite number", id="text-bound"),
    pytest.param([-4.0, True, -4.0, 4.0, 32, 32], "entry 1 must be a finite number", id="bool-bound"),
    pytest.param([-4.0, 4.0, "a", 4.0, 32, 32], "entry 2 must be a finite number", id="letter-bound"),
    pytest.param([-4.0, 4.0, -4.0, None, 32, 32], "entry 3 must be a finite number", id="null-bound"),
    pytest.param([math.nan, 4.0, -4.0, 4.0, 32, 32], "entry 0 must be a finite number", id="nan-bound"),
    pytest.param([-4.0, 4.0, -4.0, 4.0, 32.0, 32], "entry 4 must be an integer >= 2", id="float-count"),
    pytest.param([-4.0, 4.0, -4.0, 4.0, 32, 1], "entry 5 must be an integer >= 2", id="count-one"),
    pytest.param(
        [-4.0, 4.0, -4.0, 4.0, 32], "must be [q_min, q_max, p_min, p_max, nq, np]", id="five-entries"
    ),
    pytest.param(
        [4.0, -4.0, -4.0, 4.0, 32, 32], "needs q_min < q_max and p_min < p_max", id="q-reversed"
    ),
    pytest.param([4.0, 4.0, -4.0, 4.0, 32, 32], "needs q_min < q_max and p_min < p_max", id="q-equal"),
]


class TestFieldGrid:
    """render._check_grid is the one grid check, for the library and the CLI alike."""

    @pytest.mark.parametrize("grid, message", BAD_GRIDS)
    def test_library_and_cli_reject_alike(self, tmp_path, capsys, grid, message):
        model = ModelSpec.quartic(mu=0.5)
        state = GaussianState(kappa=2.0, alpha0=0.5)
        traj = stacked_trajectory([coherent_density(0.5, 8)], model)
        with pytest.raises(ConfigError, match=re.escape(message)):
            wigner_field(traj, grid)
        with pytest.raises(ConfigError, match=re.escape(message)):
            whorl_phase_field(state, model, 0.0, grid)
        path = write_config(tmp_path, lambda r: r["outputs"]["field"].update(grid=grid))
        line = next(
            i for i, text in enumerate(path.read_text().splitlines(), 1) if '"grid"' in text
        )
        assert run_cli(path, tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: outputs.field.grid: {message}\n"
        )

    def test_null_grid_renders_on_the_default_grid(self, tmp_path):
        def classical_field(raw):
            raw["dynamics"] = ["classical"]
            raw["outputs"] = {"field": {"grid": None, "time_list": [0.75]}}
        path = write_config(tmp_path, classical_field)
        assert cli.validate_config(cli._Doc(path.read_text(), str(path))).field_grid == DEFAULT_GRID
        assert run_cli(path, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "field_classical_0.75.csv").read_text().splitlines()
        assert "# grid q_min=-4 q_max=4 nq=256" in lines
        assert "# grid p_min=-4 p_max=4 np=256" in lines
        assert len(data_lines(tmp_path / "out" / "field_classical_0.75.csv")) == 256


@pytest.fixture(scope="module")
def happy_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_happy")
    config = tmp / "cfg.json"
    config.write_text(json.dumps(BASE, indent=2))
    out = tmp / "out"
    code = cli.main(["run", str(config), "--out", str(out)])
    return code, out


class TestRunOutputs:
    def test_exit_zero_and_files(self, happy_run):
        code, out = happy_run
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert "moments.csv" in names
        assert "spectrum.csv" in names
        assert "negativity.csv" in names
        assert "validate.csv" in names
        for dyn in BASE["dynamics"]:
            for suffix in (".pgm", ".csv", "_mask.pgm"):
                assert f"field_{dyn}_0.75{suffix}" in names

    def test_header_and_provenance(self, happy_run):
        _, out = happy_run
        head = (out / "moments.csv").read_text().splitlines()[:4]
        assert head[0].startswith("# groenewold-lab")
        assert head[1].startswith("# config sha256: ")
        assert head[2].startswith("# generated: ")
        assert head[3].startswith("# tolerances: ")

    def test_moments_match_rotation(self, happy_run):
        # linear model: every dynamics is alpha0 e^{-i t}
        _, out = happy_run
        rows = rows_of(out / "moments.csv")
        assert len(rows) == 16
        header = data_lines(out / "moments.csv")[0]
        assert header == (
            "t,dynamics,re_alpha,im_alpha,re_alpha2,im_alpha2,abs2,q,p,"
            "dq,dp,dq_paper,dp_paper,trace_err,purity"
        )
        for row in rows:
            t = float(row["t"])
            assert abs(float(row["re_alpha"]) - 0.5 * math.cos(t)) < 1e-10
            assert abs(float(row["im_alpha"]) + 0.5 * math.sin(t)) < 1e-10
            assert abs(float(row["abs2"]) - 0.75) < 1e-10
            assert abs(float(row["purity"]) - 1.0) < 1e-8
            assert float(row["trace_err"]) < 1e-10

    def test_spectrum_of_pure_state(self, happy_run):
        _, out = happy_run
        header = data_lines(out / "spectrum.csv")[0]
        assert header == "t,dynamics,lambda_max1,lambda_max2,lambda_min1,lambda_min2"
        for row in rows_of(out / "spectrum.csv"):
            assert abs(float(row["lambda_max1"]) - 1.0) < 1e-8
            assert abs(float(row["lambda_max2"])) < 1e-8
            assert abs(float(row["lambda_min1"])) < 1e-8

    def test_negativity_stays_zero(self, happy_run):
        _, out = happy_run
        for row in rows_of(out / "negativity.csv"):
            assert float(row["sqneg"]) < 1e-12

    def test_validation_residuals_small(self, happy_run):
        _, out = happy_run
        for row in rows_of(out / "validate.csv"):
            for col in ("trace_err", "herm_err", "purity_drift", "abs2_drift"):
                assert float(row[col]) < 1e-10

    def test_field_pgm_layout(self, happy_run):
        _, out = happy_run
        blob = (out / "field_quantum_0.75.pgm").read_bytes()
        assert blob.startswith(b"P5\n# vscale=")
        assert b"\n32 32\n255\n" in blob
        assert len(blob.split(b"255\n", 1)[1]) == 32 * 32
        mask = (out / "field_classical_0.75_mask.pgm").read_bytes()
        assert mask.startswith(b"P5\n32 32\n255\n")
        assert set(mask.split(b"255\n", 1)[1]) <= {0, 255}


class TestDeterminism:
    def test_rerun_identical_after_header_strip(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli(config, out) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            first, second = outs[0] / name, outs[1] / name
            if name.endswith(".pgm"):
                assert first.read_bytes() == second.read_bytes()
            else:
                assert data_lines(first) == data_lines(second)


class TestMergedLoop:
    """One evolve per dynamics feeds every output a run requests."""

    OUTPUTS = {
        "moments": True,
        "validate": True,
        "spectrum": {"k": 2},
        "negativity": True,
        # 0.75 lies off the row grid 0, 0.5, 1, 1.5; 1.0 lies on it
        "field": {"grid": [-3.0, 3.0, -3.0, 3.0, 24, 24], "time_list": [0.75, 1.0]},
    }

    @staticmethod
    def quartic_run(tmp_path, tag, outputs):
        def mutate(raw):
            raw["model"]["b"] = [0.0, 0.0, 1.0]
            raw["dynamics"] = ["quantum", "classical"]
            raw["outputs"] = outputs
        out = tmp_path / tag
        assert run_cli(write_config(tmp_path, mutate, name=f"{tag}.json"), out) == 0
        return out

    def test_all_outputs_match_one_output_runs(self, tmp_path):
        merged = self.quartic_run(tmp_path, "all", self.OUTPUTS)
        names = sorted(p.name for p in merged.iterdir())
        assert len(names) == 4 + 2 * 2 * 3
        seen = []
        for key, value in self.OUTPUTS.items():
            alone = self.quartic_run(tmp_path, key, {key: value})
            for path in alone.iterdir():
                seen.append(path.name)
                if path.suffix == ".pgm":
                    assert path.read_bytes() == (merged / path.name).read_bytes()
                else:
                    assert data_lines(path) == data_lines(merged / path.name)
        assert sorted(seen) == names

    def test_previous_trajectory_released_before_next_evolve(self, tmp_path, monkeypatch):
        # one trajectory in memory at a time bounds the run's peak memory
        evolve = cli.evolve
        refs = []

        def tracked(g0, name, model, times):
            assert all(ref() is None for ref in refs), f"a trajectory outlives {name}'s start"
            traj = evolve(g0, name, model, times)
            refs.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(cli, "evolve", tracked)
        assert run_cli(write_config(tmp_path), tmp_path / "out") == 0
        assert len(refs) == len(BASE["dynamics"])


class TestLegacyGuard:
    def test_guard_is_accepted_and_inert(self, tmp_path):
        # truncation.guard no longer sets anything: with it at 0, at 16 or
        # left out, a sextic run (rungs C_1 and C_2) writes the same bytes
        # apart from the '#' lines, which carry the config's sha256; the
        # sextic flow spreads the state past BASE's 6 x 6 grid by t = 0.75,
        # and each run warns of that alike
        outs, clipped = [], []
        for guard in (0, 16, None):
            def sextic(raw):
                raw["model"]["b"] = [0.0, 0.0, 0.0, 1.0]
                if guard is not None:
                    raw["truncation"]["guard"] = guard
            out = tmp_path / f"guard-{guard}"
            with pytest.warns(BoundaryMassWarning) as caught:
                assert run_cli(write_config(tmp_path, sextic, name=f"{guard}.json"), out) == 0
            clipped.append([str(w.message) for w in caught])
            outs.append(out)
        assert clipped[0] == clipped[1] == clipped[2]
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 16
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                first, other = outs[0] / name, out / name
                if name.endswith(".pgm"):
                    assert first.read_bytes() == other.read_bytes()
                else:
                    assert data_lines(first) == data_lines(other)


class TestExitCodes:
    def test_validation_gate_exits_two(self, tmp_path, monkeypatch, capsys):
        # force the gate with a tolerance no residual can meet, since residuals
        # are >= 0 and may be exactly 0; only the residual table is written so
        # the failure is inspectable but not mistakable for results
        monkeypatch.setitem(cli.TOLERANCES, "trace_err", -1.0)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        assert "validation failed" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["validate.csv"]

    def test_nan_history_exits_two(self, tmp_path, monkeypatch, capsys):
        # a NaN residual fails the gate instead of comparing False against it;
        # no spectrum or negativity, whose eigensolvers reject a NaN matrix
        evolve = cli.evolve

        def poisoned(g0, name, model, times, **kwargs):
            traj = evolve(g0, name, model, times, **kwargs)
            traj.history[0][-1, 0] = np.nan
            return traj

        monkeypatch.setattr(cli, "evolve", poisoned)
        outputs = {"moments": True, "validate": True}
        config = write_config(tmp_path, lambda r: r.update(outputs=outputs))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        assert "validation failed: quantum trace_err = nan" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["validate.csv"]

    @staticmethod
    def poison_history(monkeypatch, rows):
        evolve = cli.evolve

        def poisoned(g0, name, model, times, **kwargs):
            traj = evolve(g0, name, model, times, **kwargs)
            traj.history[0][rows, 0] = np.nan
            return traj

        monkeypatch.setattr(cli, "evolve", poisoned)

    @pytest.mark.parametrize("outputs", [{"spectrum": {"k": 2}}, {"negativity": True}])
    def test_nan_snapshot_exits_two(self, tmp_path, monkeypatch, capsys, outputs):
        # both eigensolver callers check the snapshot, which a NaN fails
        self.poison_history(monkeypatch, -1)
        config = write_config(tmp_path, lambda r: r.update(outputs=outputs))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        err = capsys.readouterr().err
        assert "validation failed: matrix not hermitian: deviation nan" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_nan_field_exits_two(self, tmp_path, monkeypatch, capsys):
        self.poison_history(monkeypatch, slice(None))
        outputs = {"field": BASE["outputs"]["field"]}
        config = write_config(tmp_path, lambda r: r.update(outputs=outputs))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        err = capsys.readouterr().err
        assert "validation failed: quantum field at t = 0.75 is not finite" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("diag, code", [
        (0.5 ** np.arange(1.0, 257.0), 0),
        (0.9 ** np.arange(256.0), 2),
    ], ids=["thermal", "slow"])
    def test_wide_grid_field_finite_only_past_the_cut(self, tmp_path, monkeypatch, capsys, diag, code):
        # on this grid the Laguerre values of a 256-level basis overflow; the
        # thermal diagonal 0.5^(n+1) cuts its series at k = 100 first and
        # renders, the 0.9^n diagonal keeps every column and is refused
        evolve = cli.evolve

        def diagonal(g0, name, model, times, **kwargs):
            traj = evolve(g0, name, model, times, **kwargs)
            rows = np.tile(diag.astype(complex), (len(times), 1))
            traj.history.clear()
            traj.history[0] = rows
            return traj

        monkeypatch.setattr(cli, "evolve", diagonal)

        def mutate(raw):
            raw["truncation"]["N"] = 256
            raw["dynamics"] = ["quantum"]
            raw["outputs"] = {
                "field": {"grid": [-60.0, 60.0, -60.0, 60.0, 13, 13], "time_list": [0.75]}
            }

        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run_cli(write_config(tmp_path, mutate), out) == code
        err = capsys.readouterr().err
        if code:
            assert "validation failed: quantum field at t = 0.75 is not finite" in err
            assert list(out.iterdir()) == []
        else:
            assert len(list(out.glob("field_quantum_*.csv"))) == 1

    def test_nan_field_with_validate_trips_the_gate_first(self, tmp_path, monkeypatch, capsys):
        # the conservation gate still reports first and keeps its validate.csv
        self.poison_history(monkeypatch, slice(None))
        outputs = {"field": BASE["outputs"]["field"], "validate": True}
        config = write_config(tmp_path, lambda r: r.update(outputs=outputs))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        err = capsys.readouterr().err
        assert "validation failed: quantum trace_err = nan" in err
        assert "not finite" not in err
        assert sorted(p.name for p in out.iterdir()) == ["validate.csv"]

    def test_ill_conditioned_generator_exits_two(self, tmp_path, monkeypatch, capsys):
        from groenewold_lab import evolve as evolve_module

        def defective(dynamics, model, nmax, **kwargs):
            blocks = [np.zeros((nmax - nu, nmax - nu)) for nu in range(nmax)]
            blocks[1] = np.diag(np.ones(nmax - 2), 1)  # nilpotent: no eigenvector basis
            return blocks

        monkeypatch.setattr(evolve_module, "all_generator_blocks", defective)
        assert run_cli(write_config(tmp_path), tmp_path / "out") == 2
        assert "sector nu=1" in capsys.readouterr().err

    def test_truncation_failure_exits_three(self, tmp_path, capsys):
        def widen(raw):
            raw["state"]["alpha0_re"] = 3.0
            raw["truncation"]["N"] = 16
        config = write_config(tmp_path, widen)
        assert run_cli(config, tmp_path / "out") == 3
        assert "truncation failure" in capsys.readouterr().err

    @staticmethod
    def coherent_config(tmp_path, alpha0, n_basis):
        raw = {
            "model": {"K": 2, "b": [0, 0, 1], "mu": 0.5},
            "state": {"kappa": 2, "alpha0_re": alpha0},
            "truncation": {"N": n_basis},
            "dynamics": ["quantum"],
            "times": {"t0": 0, "t1": 1, "steps": 3},
            "outputs": {"moments": True, "validate": True},
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
        return config

    def test_wide_coherent_state_runs(self, tmp_path, capsys):
        # a radial-quadrature synthesis would need its Bessel kernel at
        # 2 kappa s |alpha0| = 1637 here, past its series domain (1500);
        # the closed form has no such domain
        config = self.coherent_config(tmp_path, 17, 512)
        assert cli.main(["run", str(config), "--validate-only"]) == 0
        assert run_cli(config, tmp_path / "out") == 0
        for row in rows_of(tmp_path / "out" / "validate.csv"):
            assert float(row["trace_err"]) < 1e-14

    def test_recurrence_overflow_exits_three(self, tmp_path, capsys):
        # (1 - z)|alpha0|^2 = 756 is past the closed form's float range (714)
        config = self.coherent_config(tmp_path, 27.5, 1400)
        assert cli.main(["run", str(config), "--validate-only"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("truncation failure: state synthesis overflows")
        assert "kappa = 2" in err and "|alpha0| = 27.5" in err and "limit of about 714" in err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        # --out names an existing regular file, so the directory cannot be made
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["run", "--preset", "fig1", "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:") and str(taken) in err

    @staticmethod
    def fig3_semiclassical1(tmp_path, n_basis):
        preset = resources.files("groenewold_lab").joinpath("presets", "fig3.json")
        raw = json.loads(preset.read_text(encoding="ascii"))
        raw["truncation"]["N"] = n_basis
        raw["dynamics"] = ["semiclassical1"]
        raw["times"]["steps"] = 8
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
        return config

    # fig3's state fills sectors 0-23, so semiclassical1 needs the Moyal rules
    # of 2N + 16 nodes for alpha = 1 .. 23 only; scipy's rule of 362 nodes
    # (N = 173) is broken at alpha = 13
    @pytest.mark.parametrize("n_basis, code", [(172, 0), (173, 3)])
    def test_semiclassical1_ceiling_set_by_filled_sectors(self, tmp_path, capsys, n_basis, code):
        assert run_cli(self.fig3_semiclassical1(tmp_path, n_basis), tmp_path / "out") == code
        if code:
            assert "362 nodes for alpha = 13:" in capsys.readouterr().err

    @pytest.mark.parametrize("n_basis, code", [(172, 0), (173, 3)])
    def test_validate_only_builds_the_moyal_rules(self, tmp_path, capsys, n_basis, code):
        config = self.fig3_semiclassical1(tmp_path, n_basis)
        assert cli.main(["run", str(config), "--validate-only"]) == code
        out = capsys.readouterr()
        if code:
            assert "truncation failure" in out.err and "362 nodes for alpha = 13:" in out.err
        else:
            assert "config ok" in out.out

    def test_validate_only_writes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out), "--validate-only"]) == 0
        assert "config ok" in capsys.readouterr().out
        assert not out.exists()

    def test_validate_only_catches_truncation(self, tmp_path, capsys):
        def widen(raw):
            raw["state"]["alpha0_re"] = 3.0
            raw["truncation"]["N"] = 16
        config = write_config(tmp_path, widen)
        assert cli.main(["run", str(config), "--validate-only"]) == 3


class TestStartup:
    # scipy is imported only where a Moyal rung is built, so the CLI and every
    # run without semiclassical1 start without it; the version string comes
    # from the package itself, so importlib.metadata is never loaded; the
    # CSV formatter's tables are built on the first field written, not at import
    PROBE = (
        "import sys\n"
        "from groenewold_lab import cli, render\n"
        "assert 'scipy' not in sys.modules, 'import groenewold_lab.cli loaded scipy'\n"
        "assert 'importlib.metadata' not in sys.modules, 'the CLI loaded importlib.metadata'\n"
        "assert render._csv_tables.cache_info().currsize == 0, 'the CLI import built CSV tables'\n"
        "code = cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )

    @pytest.mark.parametrize(
        "dynamics, loads_scipy",
        [(["quantum"], False), (["quantum", "semiquantum1", "classical"], False),
         (["semiclassical1"], True)],
    )
    def test_scipy_loaded_only_for_moyal_rungs(self, tmp_path, dynamics, loads_scipy):
        def quartic(raw):
            raw["model"]["b"] = [0.0, 0.0, 1.0]
            raw["dynamics"] = dynamics
        config = write_config(tmp_path, quartic)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, str(config), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"0 {loads_scipy}"


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps these names in a traced run, and a name it
    # cannot find leaves its span metrics at 0; resolve each the way its
    # install() does, patching nothing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr_path, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []
    # the propagate hook reads g0 as the second positional argument
    assert list(inspect.signature(BlockPropagator.trajectory).parameters) == ["self", "g0", "times"]


def test_version_matches_pyproject():
    # no tomllib before Python 3.11, so the one version line is read by pattern
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    found = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert found and groenewold_lab.__version__ == found.group(1)


class TestPresets:
    def test_all_presets_validate(self, capsys):
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
            assert cli.main(["run", "--preset", name, "--validate-only"]) == 0

    @staticmethod
    def spy_builds(monkeypatch, module):
        built = []
        real = module.all_generator_blocks

        def spy(name, *args, **kwargs):
            built.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(module, "all_generator_blocks", spy)
        return built

    # run evolves a dynamics only for rows or for fields drawn from its
    # matrices; fig1's classical fields are whorl densities, built from none
    @pytest.mark.parametrize("preset, dynamics", [
        ("fig1", []),
        ("fig2", ["quantum"]),
        ("fig3", ["quantum", "semiquantum1", "classical", "semiclassical1"]),
    ])
    def test_validate_only_builds_what_run_builds(self, monkeypatch, capsys, preset, dynamics):
        built = self.spy_builds(monkeypatch, cli)
        assert cli.main(["run", "--preset", preset, "--validate-only"]) == 0
        assert built == dynamics

    @pytest.mark.parametrize("preset, dynamics", [("fig1", []), ("fig2", ["quantum"])])
    def test_run_builds_for_its_evolved_dynamics_only(
        self, tmp_path, monkeypatch, capsys, preset, dynamics
    ):
        built = self.spy_builds(monkeypatch, evolve_module)
        assert cli.main(["run", "--preset", preset, "--out", str(tmp_path)]) == 0
        assert built == dynamics

    def test_fig1_writes_whorl_fields(self, tmp_path):
        out = tmp_path / "fig1"
        assert cli.main(["run", "--preset", "fig1", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 12
        pgms = [f for f in files if f.endswith(".pgm") and not f.endswith("_mask.pgm")]
        assert len(pgms) == 4
        # classical density never goes negative: masks are all black
        for name in files:
            if name.endswith("_mask.pgm"):
                payload = (out / name).read_bytes().split(b"255\n", 1)[1]
                assert set(payload) == {0}
