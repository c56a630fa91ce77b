"""Fixtures shared across the test modules.

runs holds one run of each bundled preset, fig1-fig6, plus fig5 with the
negativity added and fig3 with a spectrum added, made once per session
with every RuntimeWarning and UserWarning (BoundaryMassWarning too) an
error. A test that compares a fresh run with it still compares two runs.
"""

import json
import warnings
from importlib import resources

import pytest

from groenewold_lab import cli

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


def variant(tmp, name, edit):
    """The bundled preset name, changed in place by edit, written in tmp."""
    preset = resources.files("groenewold_lab").joinpath("presets", f"{name}.json")
    raw = json.loads(preset.read_text(encoding="ascii"))
    edit(raw)
    path = tmp / f"{name}-variant.json"
    path.write_text(json.dumps(raw, indent=2), encoding="ascii")
    return path


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """The output directory of each run, named by preset, fig5-neg and fig3-spec."""
    tmp = tmp_path_factory.mktemp("presets")
    sources = {name: ["--preset", name] for name in PRESETS}
    sources["fig5-neg"] = [str(variant(tmp, "fig5", lambda raw: raw["outputs"].update(negativity=True)))]
    sources["fig3-spec"] = [str(variant(tmp, "fig3", lambda raw: raw["outputs"].update(spectrum={"k": 2})))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", UserWarning)
        for name, source in sources.items():
            assert cli.main(["run", *source, "--out", str(tmp / name)]) == 0, name
    return tmp
