"""Driver behavior: schema errors, exit codes, artifact formats, determinism.

The happy path uses a linear model so every dynamics is exactly the same
rotation, making moment columns checkable against a closed form.
"""

import copy
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import groenewold_lab
from groenewold_lab import cli
from groenewold_lab import evolve as evolve_module
from groenewold_lab.errors import ConfigError
from groenewold_lab.evolve import BlockPropagator, Trajectory
from groenewold_lab.model import ModelSpec
from groenewold_lab.render import (
    DEFAULT_GRID,
    MAX_GRID_POINTS,
    BoundaryMassWarning,
    whorl_phase_field,
    wigner_field,
)
from groenewold_lab.states import GaussianState, groenewold_from_gaussian
from oracles import coherent_density, stacked_trajectory, thermal_field

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


def write_fig3(tmp_path, mutate):
    """fig3's preset, changed in place by mutate, written as tmp_path/cfg.json."""
    preset = resources.files("groenewold_lab").joinpath("presets", "fig3.json")
    raw = json.loads(preset.read_text(encoding="ascii"))
    mutate(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


def src_env(**values):
    """This environment with the checkout's src/ on PYTHONPATH; a None value unsets its variable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for key, value in values.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def run_cli(config_path, out_dir):
    return cli.main(["run", str(config_path), "--out", str(out_dir)])


def data_lines(path):
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


def rows_of(path):
    header, *rest = data_lines(path)
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in rest]


def synthesized_trace_err(path):
    """The trace error of the initial state, from the one '#' line every row CSV carries."""
    prefix = "# synthesized state trace_err: "
    (value,) = [ln[len(prefix):] for ln in path.read_text().splitlines() if ln.startswith(prefix)]
    return float(value)


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
        "times",
        ([0.75, 0.75], [1.0, 1.0000000000001, 1.0], [0.0, -0.0]),
        ids=("exact", "12g", "signed-zero"),
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

    @pytest.mark.parametrize("steps", [1, 3])
    def test_time_span_past_float_range_exits_one(self, tmp_path, capsys, steps):
        # t1 - t0 overflows to inf, so the grid would hold non-finite times
        config = write_config(
            tmp_path, lambda r: r["times"].update(t0=-1e308, t1=1e308, steps=steps)
        )
        line = next(i for i, text in enumerate(config.read_text().splitlines(), 1) if '"t1"' in text)
        want = f"error: {config}:{line}: times.t1: t1 - t0 must be a finite number\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(config), "--validate-only"]) == 1
            assert capsys.readouterr().err == want
            assert run_cli(config, tmp_path / "out") == 1
            assert capsys.readouterr().err == want
        assert not (tmp_path / "out").exists()

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "model": ,\n}\n')
        code = run_cli(path, tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 1
        assert "cfg.json:2" in err and "invalid JSON" in err

    def test_schema_error_cites_the_line(self, tmp_path, capsys):
        # the whole stderr line: a schema error inside "state" names its
        # location once, in either form of the state
        cases = [
            ('{"kappa": -2.0, "alpha0_re": 0.5}', "state.kappa: must be positive"),
            ('{"gamma": 0.5, "q0": 0.5}', "state: missing required key 'p0'"),
        ]
        path = tmp_path / "cfg.json"
        for state, message in cases:
            path.write_text(
                "{\n"
                '  "model": {"b": [0.0, 1.0], "mu": 0.5},\n'
                f'  "state": {state},\n'
                '  "dynamics": ["quantum"],\n'
                '  "times": {"t0": 0.0, "t1": 1.0, "steps": 2},\n'
                '  "outputs": {"moments": true}\n'
                "}\n"
            )
            code = run_cli(path, tmp_path / "out")
            err = capsys.readouterr().err
            assert code == 1
            assert err == f"error: {path}:3: {message}\n"

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

    # fig3 made schema-valid but past the float range: b[3] mu^3 (mu), and
    # hbar = mu E / omega (E, omega), which ModelSpec rejects at construction;
    # a gamma whose square is 0, subnormal (kappa = inf) or past the range,
    # which from_gamma rejects
    @pytest.mark.parametrize("mutate, key, message", [
        pytest.param(
            lambda r: r["model"].update(mu=1e200), "model",
            "model: b and mu give a symbol coefficient", id="mu",
        ),
        pytest.param(
            lambda r: r["model"].update(E=1e300, mu=1e10), "model",
            "model: hbar = mu E / omega = inf is not", id="E",
        ),
        pytest.param(
            lambda r: r["model"].update(omega=1e-300, mu=1e10), "model",
            "model: hbar = mu E / omega = inf is not", id="omega",
        ),
        pytest.param(
            lambda r: r.update(state={"gamma": 1e-200, "q0": 0.0, "p0": 0.0}), "state",
            "state: state.gamma = 1e-200 puts kappa", id="gamma-zero",
        ),
        pytest.param(
            lambda r: r.update(state={"gamma": 1e-160, "q0": 0.0, "p0": 0.0}), "state",
            "state: state.gamma = 1e-160 puts kappa", id="gamma-subnormal",
        ),
        pytest.param(
            lambda r: r.update(state={"gamma": 1e200, "q0": 0.0, "p0": 0.0}), "state",
            "state: state.gamma = 1e+200 puts kappa", id="gamma-large",
        ),
    ])
    def test_derived_float_past_the_range_exits_one(self, tmp_path, capsys, mutate, key, message):
        config = write_fig3(tmp_path, mutate)
        lines = config.read_text().splitlines()
        line = next(i for i, text in enumerate(lines, 1) if f'"{key}"' in text)
        out = tmp_path / "out"
        for argv in (["--out", str(out)], ["--validate-only"]):
            assert cli.main(["run", str(config), *argv]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {config}:{line}: {message}")
            assert "Traceback" not in err
        assert not out.exists()

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


def set_grid_count(index, value):
    def mutate(raw):
        raw["outputs"]["field"]["grid"][index] = value
    return mutate


# each size a config may ask for: how to set it, the key the error names,
# the largest value accepted and the messages for a value past it and for
# a 401-digit value (a grid entry is first read as a finite number)
SIZE_LIMITS = [
    pytest.param(
        lambda v: lambda r: r["truncation"].update(N=v), "truncation.N", cli.MAX_N,
        f"must be at most {cli.MAX_N}", f"must be at most {cli.MAX_N}", id="N",
    ),
    pytest.param(
        lambda v: lambda r: r["times"].update(steps=v), "times.steps", cli.MAX_STEPS,
        f"must be at most {cli.MAX_STEPS}", f"must be at most {cli.MAX_STEPS}", id="steps",
    ),
    pytest.param(
        lambda v: set_grid_count(4, v), "outputs.field.grid", MAX_GRID_POINTS,
        f"entry 4 must be at most {MAX_GRID_POINTS}", "entry 4 must be a finite number", id="nq",
    ),
    pytest.param(
        lambda v: set_grid_count(5, v), "outputs.field.grid", MAX_GRID_POINTS,
        f"entry 5 must be at most {MAX_GRID_POINTS}", "entry 5 must be a finite number", id="np",
    ),
]


class TestSizeLimits:
    """Oversize N, steps and grid counts are schema errors, not numpy failures."""

    @staticmethod
    def config(tmp_path, setter, value):
        # quantum only and a centred state, so a run at the limit builds
        # nothing larger than its diagonal sector rows
        def mutate(raw):
            raw["state"]["alpha0_re"] = 0.0
            raw["dynamics"] = ["quantum"]
            setter(value)(raw)
        return write_config(tmp_path, mutate)

    @pytest.mark.parametrize("setter, path, limit, over, huge", SIZE_LIMITS)
    @pytest.mark.parametrize("excess", ["huge", "limit+1"])
    def test_oversize_exits_one(self, tmp_path, capsys, setter, path, limit, over, huge, excess):
        value, message = (HUGE, huge) if excess == "huge" else (limit + 1, over)
        config = self.config(tmp_path, setter, value)
        key = '"%s"' % path.rsplit(".", 1)[-1]
        line = next(i for i, text in enumerate(config.read_text().splitlines(), 1) if key in text)
        want = f"error: {config}:{line}: {path}: {message}\n"
        assert cli.main(["run", str(config), "--validate-only"]) == 1
        assert capsys.readouterr().err == want
        assert run_cli(config, tmp_path / "out") == 1
        assert capsys.readouterr().err == want
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setter, path, limit, over, huge", SIZE_LIMITS)
    def test_limit_validates(self, tmp_path, capsys, setter, path, limit, over, huge):
        config = self.config(tmp_path, setter, limit)
        assert cli.main(["run", str(config), "--validate-only"]) == 0
        assert capsys.readouterr().out.startswith("config ok:")

    # one dynamics' eight 4096 x 4096 fields hold exactly MAX_FIELD_VALUES
    # values (1 GiB as floats), as do two dynamics' four; validated only,
    # never run
    @pytest.mark.parametrize(
        "dynamics, times, code",
        [(["quantum"], 8, 0), (["quantum"], 9, 1), (["quantum", "classical"], 4, 0),
         (["quantum", "classical"], 5, 1)],
        ids=["1x8", "1x9", "2x4", "2x5"],
    )
    def test_field_values_cap(self, tmp_path, capsys, dynamics, times, code):
        assert 8 * MAX_GRID_POINTS**2 == cli.MAX_FIELD_VALUES

        def mutate(raw):
            raw["state"]["alpha0_re"] = 0.0
            raw["dynamics"] = dynamics
            raw["outputs"]["field"] = {
                "grid": [-3.0, 3.0, -3.0, 3.0, MAX_GRID_POINTS, MAX_GRID_POINTS],
                "time_list": [0.25 * (i + 1) for i in range(times)],
            }

        config = write_config(tmp_path, mutate)
        assert cli.main(["run", str(config), "--validate-only"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            return
        line = next(
            i for i, text in enumerate(config.read_text().splitlines(), 1) if '"time_list"' in text
        )
        values = len(dynamics) * times * MAX_GRID_POINTS**2
        assert err == (
            f"error: {config}:{line}: outputs.field.time_list: {len(dynamics)} dynamics x "
            f"{times} times x {MAX_GRID_POINTS} x {MAX_GRID_POINTS} grid points is {values} "
            f"field values, above the limit of {cli.MAX_FIELD_VALUES} (1 GiB as floats); "
            f"ask for fewer times or a coarser grid\n"
        )
        with pytest.raises(ConfigError):
            cli.validate_config(cli._Doc(config.read_text(), str(config)))

    def test_limits_lie_far_above_the_presets(self):
        # N = 4096 is the largest basis the tests run
        assert cli.MAX_N >= 4 * 4096
        for n in range(1, 7):
            preset = resources.files("groenewold_lab").joinpath("presets", f"fig{n}.json")
            raw = json.loads(preset.read_text(encoding="ascii"))
            assert 100 * raw["truncation"]["N"] <= cli.MAX_N
            assert 1000 * raw["times"]["steps"] <= cli.MAX_STEPS
            grid = raw["outputs"].get("field", {}).get("grid") or DEFAULT_GRID
            assert 16 * max(grid[4:]) <= MAX_GRID_POINTS


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
        for name in ("moments.csv", "validate.csv", "spectrum.csv", "negativity.csv"):
            head = (out / name).read_text().splitlines()[:6]
            assert head[0].startswith("# groenewold-lab")
            assert head[1].startswith("# config sha256: ")
            assert head[2].startswith("# generated: ")
            assert head[3] == (
                "# tolerances: trace_err=1e-10 purity_drift=1e-08 (checked, outputs.validate on)"
            )
            assert head[4].startswith("# synthesized state trace_err: ")
            assert not head[5].startswith("#")
            assert synthesized_trace_err(out / name) == synthesized_trace_err(out / "moments.csv")

    def test_moments_match_rotation(self, happy_run):
        # linear model: every dynamics is alpha0 e^{-i t}
        _, out = happy_run
        rows = rows_of(out / "moments.csv")
        assert len(rows) == 16
        header = data_lines(out / "moments.csv")[0]
        assert header == (
            "t,dynamics,re_alpha,im_alpha,re_alpha2,im_alpha2,abs2,q,p,"
            "dq,dp,dq_paper,dp_paper,purity"
        )
        assert synthesized_trace_err(out / "moments.csv") < 1e-10
        for row in rows:
            t = float(row["t"])
            assert abs(float(row["re_alpha"]) - 0.5 * math.cos(t)) < 1e-10
            assert abs(float(row["im_alpha"]) + 0.5 * math.sin(t)) < 1e-10
            assert abs(float(row["abs2"]) - 0.75) < 1e-10
            assert abs(float(row["purity"]) - 1.0) < 1e-8

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
        assert data_lines(out / "validate.csv")[0] == "t,dynamics,purity_drift"
        rows = rows_of(out / "validate.csv")
        assert len(rows) == 16
        for row in rows:
            assert float(row["purity_drift"]) < 1e-10
        assert synthesized_trace_err(out / "validate.csv") < 1e-10

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

    def test_each_field_time_renders_its_own_time(self, tmp_path):
        # field times on the row grid, between row times and before t0 are
        # each looked up in the union of times; no row moves
        field = {"grid": [-3.0, 3.0, -3.0, 3.0, 24, 24], "time_list": [1.0, 0.75, -0.5]}
        merged = self.quartic_run(tmp_path, "merged", {"moments": True, "field": field})
        alone = self.quartic_run(tmp_path, "rows", {"moments": True})
        assert data_lines(merged / "moments.csv") == data_lines(alone / "moments.csv")
        cfg = cli.validate_config(cli._Doc((tmp_path / "merged.json").read_text(), "merged.json"))
        g0 = groenewold_from_gaussian(cfg.state, cfg.n_basis, tail_tol=cfg.tail_tol)
        for t in field["time_list"]:
            traj = evolve_module.evolve(g0, "quantum", cfg.model, [t])
            want = wigner_field(traj, cfg.field_grid)[0].values
            got = np.loadtxt(merged / f"field_quantum_{t:.12g}.csv", delimiter=",")
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15), t

    def test_previous_trajectory_released_before_next_evolve(self, tmp_path, monkeypatch):
        # one trajectory in memory at a time bounds the run's peak memory
        evolve = cli.evolve
        refs = []

        def tracked(g0, name, model, times, **kwargs):
            assert all(ref() is None for ref in refs), f"a trajectory outlives {name}'s start"
            traj = evolve(g0, name, model, times, **kwargs)
            refs.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(cli, "evolve", tracked)
        assert run_cli(write_config(tmp_path), tmp_path / "out") == 0
        assert len(refs) == len(BASE["dynamics"])

    def test_one_eigensolve_per_dynamics_and_row_time(self, tmp_path, monkeypatch):
        # spectrum and negativity read the same eigenvalues
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert run_cli(write_config(tmp_path), tmp_path / "out") == 0
        rows = len(BASE["dynamics"]) * BASE["times"]["steps"]
        assert calls == [(32, 32)] * rows

    def test_purity_drift_measured_from_t0(self, tmp_path):
        # a field time before t0 is evolved first, yet the drift of each
        # dynamics is taken against its purity at t0, so that row reads 0
        def mutate(raw):
            raw["model"]["b"] = [0.0, 0.0, 0.0, 1.0]
            raw["truncation"]["N"] = 48
            raw["dynamics"] = ["classical", "semiclassical1"]
            raw["times"] = {"t0": 0.0, "t1": 1.0, "steps": 3}
            raw["outputs"] = {
                "validate": True,
                "field": {"grid": [-3.0, 3.0, -3.0, 3.0, 8, 8], "time_list": [-0.5]},
            }
        out = tmp_path / "out"
        with pytest.warns(BoundaryMassWarning):
            assert run_cli(write_config(tmp_path, mutate), out) == 0
        rows = rows_of(out / "validate.csv")
        assert [(row["t"], row["dynamics"]) for row in rows[::3]] == [
            ("0", "classical"), ("0", "semiclassical1"),
        ]
        for row in rows[::3]:
            assert row["purity_drift"] == "0"


class TestStoredSectors:
    """A run stores the rows of the sectors its outputs read, from one rule."""

    FIELD = {"grid": [-3.0, 3.0, -3.0, 3.0, 8, 8], "time_list": [0.75]}

    @pytest.mark.parametrize("outputs, every", [
        ({"moments": True}, ()),
        ({"validate": True}, ()),
        ({"moments": True, "validate": True}, ()),
        ({"spectrum": {"k": 2}}, tuple(BASE["dynamics"])),
        ({"negativity": True, "moments": True}, tuple(BASE["dynamics"])),
        ({"field": FIELD}, ("quantum", "semiquantum1", "semiclassical1")),
        # classical fields are the whorl density, which reads no sector
        ({"field": FIELD, "moments": True}, ("quantum", "semiquantum1", "semiclassical1")),
    ])
    @pytest.mark.parametrize("alpha0", [0.5, 0.0], ids=["displaced", "centred"])
    def test_outputs_choose_the_stored_sectors(self, tmp_path, monkeypatch, outputs, every, alpha0):
        # BASE's state fills sectors 0-23 of 32, a centred one sector 0 alone
        evolve = cli.evolve
        stored = {}

        def recording(g0, name, model, times, **kwargs):
            traj = evolve(g0, name, model, times, **kwargs)
            stored[name] = (sorted(traj.history), traj.top)
            return traj

        def mutate(raw):
            raw["state"]["alpha0_re"] = alpha0
            raw["outputs"] = outputs

        monkeypatch.setattr(cli, "evolve", recording)
        assert run_cli(write_config(tmp_path, mutate), tmp_path / "out") == 0
        assert stored
        for name, (sectors, top) in stored.items():
            assert top == (23 if alpha0 else 0)
            last = top if name in every else min(2, top)
            assert sectors == list(range(last + 1)), name


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
        # force the purity gate with a tolerance no drift can meet, since
        # drifts are >= 0 and may be exactly 0; only the drift table is
        # written so the failure is inspectable but not mistakable for results
        monkeypatch.setitem(cli.TOLERANCES, "purity_drift", -1.0)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        err = capsys.readouterr().err
        assert re.search(r"validation failed: \w+ purity_drift = \S+ at t = \S+ \(tolerance -1e\+00\)", err)
        assert sorted(p.name for p in out.iterdir()) == ["validate.csv"]
        assert len(rows_of(out / "validate.csv")) == 16

    @staticmethod
    def loose_tail_config(tmp_path, validate):
        # tail_tol = 1 lets a basis of 16 levels hold |alpha0|^2 = 9, which
        # leaves about 2e-2 of the trace outside it
        def loose(raw):
            raw["state"]["alpha0_re"] = 3.0
            raw["truncation"].update(N=16, tail_tol=1.0)
            raw["outputs"] = {"moments": True, "validate": validate}
        return write_config(tmp_path, loose)

    def test_synthesized_trace_gate_exits_two_before_evolving(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("a dynamics was evolved after the trace check failed")

        monkeypatch.setattr(cli, "evolve", unreachable)
        config = self.loose_tail_config(tmp_path, validate=True)
        out = tmp_path / "out"
        for argv in (["--out", str(out)], ["--validate-only"]):
            assert cli.main(["run", str(config), *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("validation failed: synthesized state trace_err = 2.")
            assert "(tolerance 1e-10)" in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_synthesized_trace_is_checked_only_with_validate(self, tmp_path):
        # the trace gate is a validation output; without it the run keeps
        # its moments, whose '#' line reports the same loss, and whose
        # tolerances line says that no gate checked it
        out = tmp_path / "out"
        assert run_cli(self.loose_tail_config(tmp_path, validate=False), out) == 0
        assert 1e-2 < synthesized_trace_err(out / "moments.csv") < 1e-1
        (tolerances,) = [
            ln for ln in (out / "moments.csv").read_text().splitlines()
            if ln.startswith("# tolerances: ")
        ]
        assert tolerances == (
            "# tolerances: trace_err=1e-10 purity_drift=1e-08 (not checked, outputs.validate off)"
        )

    @staticmethod
    def poison_propagation(monkeypatch, rows, sector):
        # a NaN in one sector's propagated rows of BASE's basis, before evolve
        # forms that sector's norm, so it reaches the purity as a real one would
        trajectory = BlockPropagator.trajectory

        def poisoned(self, g0, times):
            out = trajectory(self, g0, times)
            if self.size == BASE["truncation"]["N"] - sector:
                out[rows, 0] = np.nan
            return out

        monkeypatch.setattr(BlockPropagator, "trajectory", poisoned)

    def nan_history_run(self, tmp_path, monkeypatch, capsys, sector):
        # a NaN drift fails the gate instead of comparing False against it;
        # no spectrum or negativity, whose eigensolve rejects a NaN snapshot
        self.poison_propagation(monkeypatch, -1, sector)
        outputs = {"moments": True, "validate": True}
        config = write_config(tmp_path, lambda r: r.update(outputs=outputs))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        assert "validation failed: quantum purity_drift = nan at t = 1.5" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["validate.csv"]
        drifts = [row["purity_drift"] for row in rows_of(out / "validate.csv")]
        assert drifts[3::4] == ["nan"] * 4 and "nan" not in drifts[0:3]

    def test_nan_history_exits_two(self, tmp_path, monkeypatch, capsys):
        # the frozen sector 0
        self.nan_history_run(tmp_path, monkeypatch, capsys, 0)

    def test_nan_in_upper_sector_exits_two(self, tmp_path, monkeypatch, capsys):
        # a propagated sector, which the retired trace and |alpha|^2 gates
        # never read, and whose rows a moments run does not store
        self.nan_history_run(tmp_path, monkeypatch, capsys, 3)

    @staticmethod
    def poison_history(monkeypatch, rows, sector=0):
        evolve = cli.evolve

        def poisoned(g0, name, model, times, **kwargs):
            traj = evolve(g0, name, model, times, **kwargs)
            traj.history[sector][rows, 0] = np.nan
            return traj

        monkeypatch.setattr(cli, "evolve", poisoned)

    def nan_snapshot_run(self, tmp_path, monkeypatch, capsys, outputs, sector):
        # the one eigensolve behind both outputs checks the snapshot's rows
        self.poison_history(monkeypatch, -1, sector)
        config = write_config(tmp_path, lambda r: r.update(outputs=outputs))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        err = capsys.readouterr().err
        assert (
            f"validation failed: quantum snapshot at t = 1.5 has an entry in sector {sector} "
            "that is not finite"
        ) in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("outputs", [{"spectrum": {"k": 2}}, {"negativity": True}])
    def test_nan_snapshot_exits_two(self, tmp_path, monkeypatch, capsys, outputs):
        self.nan_snapshot_run(tmp_path, monkeypatch, capsys, outputs, 0)

    @pytest.mark.parametrize("outputs", [{"spectrum": {"k": 2}}, {"negativity": True}])
    def test_nan_snapshot_in_upper_sector_exits_two(self, tmp_path, monkeypatch, capsys, outputs):
        self.nan_snapshot_run(tmp_path, monkeypatch, capsys, outputs, 3)

    def test_nan_field_exits_two(self, tmp_path, monkeypatch, capsys):
        self.poison_history(monkeypatch, slice(None))
        outputs = {"field": BASE["outputs"]["field"]}
        config = write_config(tmp_path, lambda r: r.update(outputs=outputs))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        err = capsys.readouterr().err
        assert "validation failed: quantum field at t = 0.75 is not finite" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("c, z", [(0.5, 0.5), (1.0, 0.9)], ids=["thermal", "slow"])
    def test_wide_grid_field_matches_closed_form(self, tmp_path, monkeypatch, c, z):
        # on this grid the unweighted Laguerre values of a 256-level basis
        # pass the float range; the thermal diagonal 0.5^(n+1) cuts its
        # series at k = 100, the 0.9^n diagonal keeps every column, and
        # both render finite fields that match their closed forms
        evolve = cli.evolve
        n, grid = 256, (-60.0, 60.0, -60.0, 60.0, 13, 13)

        def diagonal(g0, name, model, times, **kwargs):
            traj = evolve(g0, name, model, times, **kwargs)
            rows = np.tile(c * z ** np.arange(n, dtype=complex), (len(times), 1))
            return Trajectory(traj.dynamics, traj.model, traj.times, traj.dim, {0: rows})

        monkeypatch.setattr(cli, "evolve", diagonal)

        def mutate(raw):
            raw["truncation"]["N"] = n
            raw["dynamics"] = ["quantum"]
            raw["outputs"] = {"field": {"grid": list(grid), "time_list": [0.75]}}

        out = tmp_path / "out"
        assert run_cli(write_config(tmp_path, mutate), out) == 0
        values = np.array([
            [float(v) for v in line.split(",")]
            for line in data_lines(out / "field_quantum_0.75.csv")
        ])
        want, tail = thermal_field(c, z, n, ModelSpec.harmonic(mu=0.5), grid)
        assert np.abs(values - want).max() <= tail + 1e-14

    def test_nan_field_with_validate_trips_the_gate_first(self, tmp_path, monkeypatch, capsys):
        # the purity gate still reports first and keeps its validate.csv
        self.poison_propagation(monkeypatch, slice(None), 0)
        outputs = {"field": BASE["outputs"]["field"], "validate": True}
        config = write_config(tmp_path, lambda r: r.update(outputs=outputs))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        err = capsys.readouterr().err
        assert "validation failed: quantum purity_drift = nan" in err
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

    # schema-valid states that no basis holds: a kappa so small that
    # z = (2 - kappa)/(2 + kappa) rounds to 1, in either form of the state,
    # and an alpha0 whose modulus is past the float range
    @pytest.mark.parametrize("state, message", [
        ({"kappa": 1e-17, "alpha0_re": 0.5}, "kappa = 1e-17 rounds z"),
        ({"gamma": 1e9, "q0": 0.0, "p0": 0.0}, "kappa = 5e-19 rounds z"),
        (
            {"kappa": 2.0, "alpha0_re": 1.5e308, "alpha0_im": 1.5e308},
            "state synthesis is not finite",
        ),
    ], ids=["kappa", "gamma", "alpha0"])
    def test_unsynthesizable_state_exits_three(self, tmp_path, capsys, state, message):
        config = write_config(tmp_path, lambda raw: raw.update(state=state))
        out = tmp_path / "out"
        for argv in (["--out", str(out)], ["--validate-only"]):
            assert cli.main(["run", str(config), *argv]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"truncation failure: {message}")
            assert "Traceback" not in err
        assert list(out.iterdir()) == []

    # fig3 with b[3] = 1e308: every coefficient is finite, but E_n overflows
    # from n = 2, so sector 0's generator already is not finite. With
    # b[3] = 1e302, E_n is finite on the basis, but the ladder products of
    # the C_j rungs overflow, so sector 1, the first with a correction, is
    # not finite. A numpy RuntimeWarning fails these tests.
    @pytest.mark.parametrize("dynamics, b3, nu", [
        ("quantum", 1e308, 0),
        ("classical", 1e308, 0),
        ("semiquantum1", 1e302, 1),
        ("classical", 1e302, 1),
        ("semiclassical1", 1e302, 1),
    ], ids=["quantum", "classical", "semiquantum1-rung", "classical-rung", "semiclassical1-rung"])
    def test_non_finite_generator_exits_two(self, tmp_path, capsys, dynamics, b3, nu):
        def overflow(raw):
            raw["model"]["b"] = [0.0, 0.0, 0.0, b3]
            raw["dynamics"] = [dynamics]
            raw["outputs"] = {"moments": True}
        config = write_fig3(tmp_path, overflow)
        out = tmp_path / "out"
        for argv in (["--out", str(out)], ["--validate-only"]):
            assert cli.main(["run", str(config), *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"validation failed: {dynamics} sector nu={nu}: generator has an entry that is not finite"
            )
            assert err.count("\n") == 1
        assert not (out / "moments.csv").exists()

    # fig3's classical flow out to t = 1e13 or 1e15: exp(t w) of a generator
    # eigenvalue with a positive real part leaves the float range, so the
    # moment rows are not finite, and nothing is held. A numpy
    # RuntimeWarning fails these tests.
    @pytest.mark.parametrize("t1", [1e13, 1e15])
    def test_non_finite_moments_exit_two(self, tmp_path, capsys, t1):
        def far(raw):
            raw["dynamics"] = ["classical"]
            raw["times"]["t1"] = t1
            raw["outputs"] = {"moments": True}
        out = tmp_path / "out"
        assert run_cli(write_fig3(tmp_path, far), out) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"validation failed: classical moments at t = \S+ are not finite\n", err)
        assert list(out.iterdir()) == []

    # fig3 out to t1 = 1e15 with the negativity on: the negative eigenvalues
    # of a semiquantum1 snapshot pass 1e154, so their squares overflow, and
    # a later snapshot leaves the float range. A numpy RuntimeWarning fails
    # this test.
    def test_far_negativity_exits_two_without_warning(self, tmp_path, capsys):
        def far(raw):
            raw["times"]["t1"] = 1e15
            raw["outputs"] = {"negativity": True}
        out = tmp_path / "out"
        assert run_cli(write_fig3(tmp_path, far), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failed: ") and err.count("\n") == 1
        assert not (out / "negativity.csv").exists()

    def test_overflowing_negativity_exits_two(self, tmp_path, monkeypatch, capsys):
        # a finite spectrum whose squared negative eigenvalue passes the float range
        real = cli.snapshot_spectrum

        def far_negative(traj, index):
            w = real(traj, index)
            w[0] = -1e200
            return w

        monkeypatch.setattr(cli, "snapshot_spectrum", far_negative)
        config = write_config(tmp_path, lambda raw: raw.update(outputs={"negativity": True}))
        out = tmp_path / "out"
        assert run_cli(config, out) == 2
        err = capsys.readouterr().err
        assert err == "validation failed: quantum negativity at t = 0 is not finite\n"
        assert list(out.iterdir()) == []

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
        assert synthesized_trace_err(tmp_path / "out" / "validate.csv") < 1e-14
        for row in rows_of(tmp_path / "out" / "validate.csv"):
            assert float(row["purity_drift"]) < 1e-8

    def test_state_past_the_float_range_validates(self, tmp_path, capsys):
        # (1 - z)|alpha0|^2 = 756: the synthesis recurrence passes the float
        # range there and is rescaled, so the state fits and validates
        config = self.coherent_config(tmp_path, 27.5, 1400)
        assert cli.main(["run", str(config), "--validate-only"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("config ok:")

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        # --out names an existing regular file, so the directory cannot be made
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["run", "--preset", "fig1", "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:") and str(taken) in err

    @staticmethod
    def fig3_semiclassical1(tmp_path, n_basis):
        def mutate(raw):
            raw["truncation"]["N"] = n_basis
            raw["dynamics"] = ["semiclassical1"]
            raw["times"]["steps"] = 8
        return write_fig3(tmp_path, mutate)

    # fig3's state fills sectors 0-23, so semiclassical1 needs the Moyal rules
    # of 2N + 16 nodes for alpha = 1 .. 23 only; the rule of 362 nodes
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
    # no run imports scipy, semiclassical1's Moyal rungs included: their
    # Gauss-Laguerre rule is built in numpy; the version string comes from the
    # package itself, so importlib.metadata is never loaded; the CSV
    # formatter's tables are built on the first field written, not at import.
    # The probe counts the Gauss-Laguerre rules the run builds, so the
    # semiclassical1 case is known to have built its Moyal rungs. The config
    # digest comes from CPython's built-in SHA-256, so OpenSSL (_hashlib) is
    # loaded neither by the import nor by the run.
    PROBE = (
        "import sys\n"
        "from groenewold_lab import cli, generators, render\n"
        "assert 'scipy' not in sys.modules, 'import groenewold_lab.cli loaded scipy'\n"
        "assert '_hashlib' not in sys.modules, 'import groenewold_lab.cli loaded OpenSSL'\n"
        "assert 'importlib.metadata' not in sys.modules, 'the CLI loaded importlib.metadata'\n"
        "assert render._csv_tables.cache_info().currsize == 0, 'the CLI import built CSV tables'\n"
        "rules = []\n"
        "build = generators.gauss_genlaguerre_rule\n"
        "def counted(order, alpha):\n"
        "    rules.append((order, alpha))\n"
        "    return build(order, alpha)\n"
        "generators.gauss_genlaguerre_rule = counted\n"
        "code = cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "assert '_hashlib' not in sys.modules, 'the run loaded OpenSSL'\n"
        "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules), bool(rules))\n"
    )

    @pytest.mark.parametrize(
        "dynamics, moyal",
        [(["quantum"], False), (["quantum", "semiquantum1", "classical"], False),
         (["semiclassical1"], True)],
    )
    def test_scipy_loaded_only_for_moyal_rungs(self, tmp_path, dynamics, moyal):
        # the name predates the numpy rule: scipy is now loaded for no run,
        # whether or not it builds Moyal rungs (moyal)
        def quartic(raw):
            raw["model"]["b"] = [0.0, 0.0, 1.0]
            raw["dynamics"] = dynamics
        config = write_config(tmp_path, quartic)
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, str(config), str(tmp_path / "out")],
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"0 False {moyal}"

    def test_no_source_file_imports_scipy(self):
        package = Path(cli.__file__).resolve().parent
        importing = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
        sources = sorted(package.rglob("*.py"))
        assert sources
        assert [p.name for p in sources if importing.search(p.read_text(encoding="utf-8"))] == []


class TestConfigDigest:
    # the '# config sha256:' line is SHA-256 of the config's canonical JSON,
    # whichever module computes it
    @staticmethod
    def canonical_sha256(raw):
        text = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    @staticmethod
    def preset_text(name):
        preset = resources.files("groenewold_lab").joinpath("presets", f"{name}.json")
        return preset.read_text(encoding="ascii")

    def test_fig3_header_digest(self, tmp_path, capsys):
        out = tmp_path / "fig3"
        assert cli.main(["run", "--preset", "fig3", "--out", str(out)]) == 0
        expected = self.canonical_sha256(json.loads(self.preset_text("fig3")))
        # the value every earlier version printed for fig3
        assert expected == "feda4dbfd3f0c20f891c4541c9a899751fc27893910ffb4dab0f08f773718978"
        for name in ("moments.csv", "validate.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines.count(f"# config sha256: {expected}") == 1, name

    # a build without CPython's built-in SHA-256 module falls back to
    # hashlib, which loads OpenSSL, and prints the same digest
    FALLBACK = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from groenewold_lab import cli\n"
        "cfg = cli.validate_config(cli._Doc(sys.stdin.read(), 'fig3'))\n"
        "print(cfg.sha256, '_hashlib' in sys.modules)\n"
    )

    def test_fallback_to_hashlib(self):
        text = self.preset_text("fig3")
        done = subprocess.run(
            [sys.executable, "-c", self.FALLBACK], input=text,
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digest = self.canonical_sha256(json.loads(text))
        assert done.stdout.splitlines()[-1] == f"{digest} True"


class TestBlasThreadTimeout:
    # cli sets OPENBLAS_THREAD_TIMEOUT before the package's first numpy
    # import, since OpenBLAS reads it only when numpy loads it. The probe
    # prints the variables named on its command line as they were when
    # numpy was first imported, in a fresh interpreter that imports cli.
    PROBE = (
        "import json, os, sys\n"
        "seen = {}\n"
        "class Probe:\n"
        "    @staticmethod\n"
        "    def find_spec(name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.update((k, os.environ.get(k)) for k in sys.argv[1:])\n"
        "        return None\n"
        "sys.meta_path.insert(0, Probe)\n"
        "import groenewold_lab.cli\n"
        "print(json.dumps(seen))\n"
    )
    # the benchmark's 1e-12 references hold at the default thread count,
    # so the program must leave both thread variables unset
    VARIABLES = ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

    def env_at_numpy_import(self, timeout):
        env = src_env(OPENBLAS_THREAD_TIMEOUT=timeout, OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None)
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, *self.VARIABLES],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    @pytest.mark.parametrize("timeout, seen", [(None, cli.OPENBLAS_THREAD_TIMEOUT), ("28", "28")],
                             ids=["unset", "user-set"])
    def test_timeout_is_set_before_numpy_loads(self, timeout, seen):
        assert self.env_at_numpy_import(timeout) == {
            "OPENBLAS_THREAD_TIMEOUT": seen, "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None,
        }

    def test_timeout_moves_no_output_bit(self, tmp_path):
        # 28 is OpenBLAS's own default spin
        for name, timeout in (("stock", "28"), ("default", None)):
            done = subprocess.run(
                [sys.executable, "-m", "groenewold_lab.cli", "run", "--preset", "fig3",
                 "--out", str(tmp_path / name)],
                env=src_env(OPENBLAS_THREAD_TIMEOUT=timeout), capture_output=True, text=True,
                timeout=300,
            )
            assert done.returncode == 0, done.stderr
        for csv in ("moments.csv", "validate.csv"):
            assert data_lines(tmp_path / "stock" / csv) == data_lines(tmp_path / "default" / csv)


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


def test_readme_layout_names_every_module():
    # README's "Library layout" table has one row per module of the package
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("## Library layout", 1)[1]
    rows = re.findall(r"^\| `(\w+)` +\|", section.split("\n## ", 1)[0], re.MULTILINE)
    modules = [p.stem for p in Path(groenewold_lab.__file__).parent.glob("*.py")]
    assert sorted(rows) == sorted(m for m in modules if m != "__init__")


def test_readme_output_columns_match_the_written_headers(happy_run):
    # README's "Output files" bullets list each row CSV's columns, wrapped
    # over lines; a format change has to change them too
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("### Output files", 1)[1]
    section = section.split("\n### ", 1)[0]
    _, out = happy_run
    for name in ("moments.csv", "validate.csv", "negativity.csv"):
        (listed,) = re.findall(r"^- `%s`: `([^`]*)`" % re.escape(name), section, re.MULTILINE)
        columns = [c.strip() for c in listed.split(",")]
        assert columns == data_lines(out / name)[0].split(","), name


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

    def test_physical_state_form_matches_fig3(self, tmp_path, capsys):
        # gamma = 0.5, q0 = 0.5, p0 = 0 is kappa = 2, alpha0 = 0.5 exactly
        # in fig3's model (hbar = 0.5), so the rows keep every byte
        preset = resources.files("groenewold_lab").joinpath("presets", "fig3.json")
        raw = json.loads(preset.read_text(encoding="ascii"))
        assert raw["state"] == {"kappa": 2.0, "alpha0_re": 0.5, "alpha0_im": 0.0}
        raw["times"]["steps"] = 8
        outs = []
        for name, state in [("kappa", raw["state"]), ("gamma", {"gamma": 0.5, "q0": 0.5, "p0": 0.0})]:
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({**raw, "state": state}))
            outs.append(tmp_path / name)
            assert cli.main(["run", str(config), "--out", str(outs[-1])]) == 0
        for f in ("moments.csv", "validate.csv"):
            assert data_lines(outs[0] / f) == data_lines(outs[1] / f)

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
