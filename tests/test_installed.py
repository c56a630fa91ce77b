"""The bundled presets fig1-fig6 as the imported copy of the package runs them.

Run from outside the checkout with pyproject.toml's pythonpath cleared, the
suite imports the installed copy, and the last test here, skipped on src/,
compares the installed console script with the checkout's src/:

    cd /tmp && python -m pytest <checkout>/tests -o pythonpath= -q

The preset runs themselves are conftest.py's session fixture runs, which
the rest of the suite shares.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from groenewold_lab import cli
from conftest import PRESETS, variant

CHECKOUT = Path(__file__).resolve().parents[1]


def data_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_fig1_and_fig2_write_their_field_files(runs):
    times = ("0.785398163397", "1.57079632679", "2.35619449019", "3.14159265359")
    for run, dynamics in (("fig1", "classical"), ("fig2", "quantum")):
        names = sorted(f"field_{dynamics}_{t}{end}" for t in times for end in (".pgm", ".csv", "_mask.pgm"))
        assert sorted(p.name for p in (runs / run).iterdir()) == names
        assert all((runs / run / name).stat().st_size > 0 for name in names)
    # the classical whorl density never goes negative: fig1's masks are all black
    for mask in (runs / "fig1").glob("*_mask.pgm"):
        assert set(mask.read_bytes().split(b"255\n", 1)[1]) == {0}


def test_fig3_version_line_and_headers(runs):
    found = re.search(r'^version = "([^"]+)"$', (CHECKOUT / "pyproject.toml").read_text(), re.MULTILINE)
    moments = runs / "fig3" / "moments.csv"
    assert found and f"# groenewold-lab {found.group(1)}" in moments.read_text().splitlines()
    columns = "t,dynamics,re_alpha,im_alpha,re_alpha2,im_alpha2,abs2,q,p,dq,dp,dq_paper,dp_paper,purity"
    assert data_lines(moments)[0] == columns
    assert data_lines(runs / "fig3" / "validate.csv")[0] == "t,dynamics,purity_drift"


@pytest.mark.parametrize("csv", ["fig3/moments.csv", "fig3/validate.csv", "fig4/moments.csv",
                                 "fig4/validate.csv", "fig5/spectrum.csv", "fig6/negativity.csv"])
def test_row_csv_reports_the_synthesized_trace_once(runs, csv):
    lines = (runs / csv).read_text().splitlines()
    assert sum(line.startswith("# synthesized state trace_err: ") for line in lines) == 1


def test_fig5_with_negativity_reproduces_fig5_and_fig6(runs):
    # spectra and negativity read one shared eigensolve per dynamics and row time
    assert data_lines(runs / "fig5-neg" / "spectrum.csv") == data_lines(runs / "fig5" / "spectrum.csv")
    for dynamics in ("classical", "semiquantum1", "semiclassical1"):
        fig6, fig5 = (
            [line for line in data_lines(runs / run / "negativity.csv") if line.split(",")[1] == dynamics]
            for run in ("fig6", "fig5-neg")
        )
        assert len(fig6) == 64 and fig6 == fig5, dynamics


def test_fig3_with_a_spectrum_reproduces_fig3(runs):
    # the spectrum stores and factors every sector, where fig3 stores the
    # sectors 0-2 and holds the top ones, so this guards the purity bits
    for csv in ("moments.csv", "validate.csv"):
        assert data_lines(runs / "fig3-spec" / csv) == data_lines(runs / "fig3" / csv), csv


@pytest.mark.skipif(Path(cli.__file__).resolve().parent == CHECKOUT / "src" / "groenewold_lab",
                    reason="compares the installed copy with src/, and src/ is the one imported")
def test_console_script_matches_src(tmp_path):
    script = shutil.which("groenewold-lab")
    assert script, "no groenewold-lab console script on PATH"

    def widen(raw):  # the blocked field synthesis then runs many blocks of points and radii
        raw["outputs"]["field"]["grid"][4:] = [1024, 1024]
    sources = {name: ["--preset", name] for name in PRESETS}
    sources["fig2-1024"] = [str(variant(tmp_path, "fig2", widen))]
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning,error::UserWarning")
    for name, source in sources.items():
        installed, src = tmp_path / name, tmp_path / f"{name}-src"
        for command, out, run_env in (
            ([script], installed, env),
            ([sys.executable, "-m", "groenewold_lab.cli"], src, dict(env, PYTHONPATH=str(CHECKOUT / "src"))),
        ):
            done = subprocess.run([*command, "run", *source, "--out", str(out)],
                                  env=run_env, capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, done.stderr
        files = sorted(p.name for p in installed.iterdir())
        assert files == sorted(p.name for p in src.iterdir()), name
        for f in files:
            if f.endswith(".csv"):
                assert data_lines(installed / f) == data_lines(src / f), f"{name}/{f}"
            else:
                assert (installed / f).read_bytes() == (src / f).read_bytes(), f"{name}/{f}"
