"""Experiment driver: JSON config in, CSV/PGM artifacts out.

A run parses one config (file or bundled preset), evolves the requested
dynamics over a shared time grid, and writes row-oriented CSVs plus
phase-space field files. All floats print with 17 significant digits and
every run-varying datum lives in '#' header comments, so outputs are
byte-identical across runs once those lines are stripped.

Exit codes: 0 success, 1 config schema error (line-precise), 2 validation
failure (conservation residuals over tolerance, a sector generator too
ill-conditioned to factor, a non-Hermitian or non-finite snapshot for the
eigensolvers, or a non-finite field), 3 quadrature or truncation failure
(state does not fit the basis).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    GroenewoldLabError,
    QuadratureNotConverged,
    TailMassExceeded,
    ValidationFailed,
)
from .evolve import evolve
from .generators import DYNAMICS, all_generator_blocks, rung_count
from .mathkit import is_finite_real
from .model import ModelSpec
from .observables import moment_track, moment_width_variant, spectrum_extremes, squared_negativity
from .render import (
    DEFAULT_GRID,
    _check_grid,
    whorl_phase_field,
    wigner_field,
    write_field_csv,
    write_mask_pgm,
    write_pgm,
)
from .states import GaussianState, groenewold_from_gaussian

TOLERANCES = {
    "trace_err": 1e-10,
    "herm_err": 1e-10,
    "purity_drift": 1e-8,
    "abs2_drift": 1e-8,
}


# ---------------------------------------------------------------------------
# Config document: raw text retained so schema errors can cite a line

class _Doc:
    def __init__(self, text: str, name: str):
        self.text = text
        self.name = name

    def line_of(self, path: str) -> int | None:
        """Line of the key named by a dotted path, by sequential search."""
        pos = 0
        line = None
        for part in path.split("."):
            if part.isdigit() or part == "config":
                continue
            m = re.search(r'"%s"\s*:' % re.escape(part), self.text[pos:])
            if m is None:
                continue
            line = self.text.count("\n", 0, pos + m.start()) + 1
            pos += m.end()
        return line

    def fail(self, path: str, message: str):
        line = self.line_of(path)
        where = f"{self.name}:{line}" if line else self.name
        raise ConfigError(f"{where}: {path}: {message}")


def _parse_json(doc: _Doc) -> dict:
    try:
        raw = json.loads(doc.text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{doc.name}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{doc.name}:1: top level must be a JSON object")
    return raw


# ---------------------------------------------------------------------------
# Schema checks

def _check_keys(doc: _Doc, obj, path: str, allowed, required=()):
    if not isinstance(obj, dict):
        doc.fail(path, "must be a JSON object")
    for key in obj:
        if key not in allowed:
            doc.fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            doc.fail(path, f"missing required key '{key}'")


def _real(doc: _Doc, obj, path: str, key: str, default=None, positive=False):
    if key not in obj:
        return default
    v = obj[key]
    if not is_finite_real(v):
        doc.fail(f"{path}.{key}", "must be a finite number")
    if positive and v <= 0:
        doc.fail(f"{path}.{key}", "must be positive")
    return float(v)


def _integer(doc: _Doc, obj, path: str, key: str, default=None, minimum=None):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        doc.fail(f"{path}.{key}", "must be an integer")
    if minimum is not None and v < minimum:
        doc.fail(f"{path}.{key}", f"must be at least {minimum}")
    return v


def _flag(doc: _Doc, obj, path: str, key: str) -> bool:
    v = obj.get(key, False)
    if not isinstance(v, bool):
        doc.fail(f"{path}.{key}", "must be true or false")
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    state: GaussianState
    n_basis: int
    tail_tol: float
    dynamics: tuple
    times: tuple
    moments: bool
    spectrum_k: int | None
    negativity: bool
    field_grid: tuple | None
    field_times: tuple
    validate: bool
    sha256: str


def _build_model(doc: _Doc, raw: dict) -> ModelSpec:
    obj = raw["model"]
    _check_keys(doc, obj, "model", ("K", "b", "mu", "hbar", "m", "omega", "E"), ("b",))
    b = obj["b"]
    if not isinstance(b, list) or not b:
        doc.fail("model.b", "must be a non-empty array of numbers")
    for i, v in enumerate(b):
        if not is_finite_real(v):
            doc.fail("model.b", f"entry {i} must be a finite number")
    k_given = _integer(doc, obj, "model", "K", minimum=1)
    if k_given is not None and k_given != len(b) - 1:
        doc.fail("model.K", f"inconsistent with b (expected {len(b) - 1})")
    if ("mu" in obj) == ("hbar" in obj):
        doc.fail("model", "specify exactly one of 'mu' and 'hbar'")
    mu = _real(doc, obj, "model", "mu", positive=True)
    hbar = _real(doc, obj, "model", "hbar", positive=True)
    m = _real(doc, obj, "model", "m", default=1.0, positive=True)
    omega = _real(doc, obj, "model", "omega", default=1.0, positive=True)
    energy = _real(doc, obj, "model", "E", default=1.0, positive=True)
    try:
        return ModelSpec.create(b, mu=mu, hbar=hbar, m=m, omega=omega, E=energy)
    except ConfigError as exc:
        doc.fail("model", str(exc))


def _build_state(doc: _Doc, raw: dict, model: ModelSpec) -> GaussianState:
    obj = raw["state"]
    if not isinstance(obj, dict):
        doc.fail("state", "must be a JSON object")
    physical = "gamma" in obj or "q0" in obj or "p0" in obj
    try:
        if physical:
            _check_keys(doc, obj, "state", ("gamma", "q0", "p0"), ("gamma", "q0", "p0"))
            gamma = _real(doc, obj, "state", "gamma", positive=True)
            q0 = _real(doc, obj, "state", "q0")
            p0 = _real(doc, obj, "state", "p0")
            return GaussianState.from_gamma(gamma, q0, p0, model)
        _check_keys(doc, obj, "state", ("kappa", "alpha0_re", "alpha0_im"), ("kappa", "alpha0_re"))
        kappa = _real(doc, obj, "state", "kappa", positive=True)
        re_part = _real(doc, obj, "state", "alpha0_re")
        im_part = _real(doc, obj, "state", "alpha0_im", default=0.0)
        return GaussianState(kappa, complex(re_part, im_part))
    except ConfigError as exc:
        doc.fail("state", str(exc))


def _time_stem(t: float) -> str:
    """The part of a field file name that names its time."""
    return f"{t:.12g}"


def _build_outputs(doc: _Doc, raw: dict, n_basis: int):
    obj = raw["outputs"]
    _check_keys(
        doc, obj, "outputs", ("moments", "spectrum", "negativity", "field", "validate")
    )
    moments = _flag(doc, obj, "outputs", "moments")
    negativity = _flag(doc, obj, "outputs", "negativity")
    validate = _flag(doc, obj, "outputs", "validate")

    spectrum_k = None
    spec = obj.get("spectrum", False)
    if spec is not False:
        if not isinstance(spec, dict):
            doc.fail("outputs.spectrum", "must be false or an object {\"k\": ...}")
        _check_keys(doc, spec, "outputs.spectrum", ("k",), ("k",))
        spectrum_k = _integer(doc, spec, "outputs.spectrum", "k", minimum=1)
        if spectrum_k > n_basis:
            doc.fail("outputs.spectrum.k", f"must not exceed truncation.N = {n_basis}")

    field_grid = None
    field_times: tuple = ()
    fld = obj.get("field", False)
    if fld is not False:
        if not isinstance(fld, dict):
            doc.fail("outputs.field", "must be false or an object")
        _check_keys(doc, fld, "outputs.field", ("grid", "time_list"), ("time_list",))
        grid = fld.get("grid")
        try:
            field_grid = DEFAULT_GRID if grid is None else _check_grid(grid)
        except ConfigError as exc:
            doc.fail("outputs.field.grid", str(exc))
        tl = fld["time_list"]
        if not isinstance(tl, list) or not tl:
            doc.fail("outputs.field.time_list", "must be a non-empty array of times")
        for i, v in enumerate(tl):
            if not is_finite_real(v):
                doc.fail("outputs.field.time_list", f"entry {i} must be a finite number")
        field_times = tuple(float(v) for v in tl)
        first: dict[str, int] = {}
        for i, t in enumerate(field_times):
            tag = _time_stem(t)
            if tag in first:
                doc.fail(
                    "outputs.field.time_list",
                    f"entries {first[tag]} and {i} both write field files named by "
                    f"t = {tag} (times are named to 12 significant digits)",
                )
            first[tag] = i

    return moments, spectrum_k, negativity, field_grid, field_times, validate


def validate_config(doc: _Doc) -> ExperimentConfig:
    """Parse and schema-check one config document."""
    raw = _parse_json(doc)
    _check_keys(
        doc, raw, "config",
        ("model", "state", "truncation", "dynamics", "times", "outputs"),
        ("model", "state", "dynamics", "times", "outputs"),
    )

    model = _build_model(doc, raw)
    state = _build_state(doc, raw, model)

    trunc = raw.get("truncation", {})
    _check_keys(doc, trunc, "truncation", ("N", "guard", "tail_tol"))
    n_basis = _integer(doc, trunc, "truncation", "N", default=128, minimum=8)
    # still checked so that older configs validate, but nothing reads it
    _integer(doc, trunc, "truncation", "guard", minimum=0)
    tail_tol = _real(doc, trunc, "truncation", "tail_tol", default=1e-10, positive=True)

    dyn = raw["dynamics"]
    if not isinstance(dyn, list) or not dyn:
        doc.fail("dynamics", "must be a non-empty array")
    for name in dyn:
        if name not in DYNAMICS:
            doc.fail("dynamics", f"unknown dynamics {name!r} (choose from {', '.join(DYNAMICS)})")
    if len(set(dyn)) != len(dyn):
        doc.fail("dynamics", "entries must be unique")
    for name in dyn:
        try:
            rung_count(name, model.K)
        except ConfigError as exc:
            doc.fail("model.b", str(exc))

    times_obj = raw["times"]
    _check_keys(doc, times_obj, "times", ("t0", "t1", "steps"), ("t0", "t1", "steps"))
    t0 = _real(doc, times_obj, "times", "t0")
    t1 = _real(doc, times_obj, "times", "t1")
    steps = _integer(doc, times_obj, "times", "steps", minimum=1)
    if t1 < t0:
        doc.fail("times.t1", "must be >= t0")
    times = tuple(float(v) for v in np.linspace(t0, t1, steps))

    moments, spectrum_k, negativity, field_grid, field_times, validate = _build_outputs(
        doc, raw, n_basis
    )

    sha = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("ascii")
    ).hexdigest()

    return ExperimentConfig(
        model=model,
        state=state,
        n_basis=n_basis,
        tail_tol=tail_tol,
        dynamics=tuple(dyn),
        times=times,
        moments=moments,
        spectrum_k=spectrum_k,
        negativity=negativity,
        field_grid=field_grid,
        field_times=field_times,
        validate=validate,
        sha256=sha,
    )


# ---------------------------------------------------------------------------
# Execution

def _fmt(value) -> str:
    return f"{value:.17g}"


def _header_lines(cfg: ExperimentConfig) -> list[str]:
    tol = " ".join(f"{k}={v:.0e}" for k, v in TOLERANCES.items())
    return [
        f"# groenewold-lab {__version__}",
        f"# config sha256: {cfg.sha256}",
        f"# generated: {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        f"# tolerances: {tol}",
    ]


def _write_csv(path: Path, cfg: ExperimentConfig, columns: list[str], rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in _header_lines(cfg):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
            fh.write("\n")


def _needs_rows(cfg: ExperimentConfig) -> bool:
    return bool(cfg.moments or cfg.spectrum_k or cfg.negativity or cfg.validate)


def _evolved(cfg: ExperimentConfig, name: str) -> bool:
    """Whether run evolves a dynamics: for rows, or for fields drawn from its
    matrices. Classical fields are the continuum whorl density instead."""
    return _needs_rows(cfg) or (bool(cfg.field_times) and name != "classical")


def run(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Execute one validated config, writing artifacts into out_dir.

    Each dynamics is evolved once over the union of the row and field
    times, and its trajectory is released before the next one is evolved.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    g0 = groenewold_from_gaussian(cfg.state, cfg.n_basis, tail_tol=cfg.tail_tol)

    union = sorted(set(cfg.times) | set(cfg.field_times))
    row_idx = [union.index(t) for t in cfg.times]
    field_idx = [union.index(t) for t in cfg.field_times]
    need_rows = _needs_rows(cfg)

    validate_rows: list = []
    moment_rows: list = []
    spectrum_rows: list = []
    negativity_rows: list = []
    fields: list = []  # (dynamics, t, PhaseField)
    worst = None
    for name in cfg.dynamics:
        whorl = name == "classical"
        if whorl:
            # exact continuum whorl density: no basis truncation at late times
            for t in cfg.field_times:
                field = whorl_phase_field(cfg.state, cfg.model, t, cfg.field_grid)
                fields.append((name, t, field))
        if not _evolved(cfg, name):
            continue
        traj = evolve(g0, name, cfg.model, union)
        if need_rows:
            records = moment_track(traj)
            trace_err = np.abs(traj.trace_series() - 1.0)
            purity = traj.purity_series().real
            for t, i in zip(cfg.times, row_idx):
                r = records[i]
                if cfg.validate:
                    values = {
                        "trace_err": trace_err[i],
                        "herm_err": 0.0,  # a Trajectory is Hermitian by construction
                        "purity_drift": abs(purity[i] - purity[0]),
                        "abs2_drift": abs(r.abs2 - records[0].abs2),
                    }
                    validate_rows.append([t, name, *values.values()])
                    for metric, value in values.items():
                        failed = not value <= TOLERANCES[metric]
                        if failed and (worst is None or value > worst[0]):
                            worst = (value, name, metric, t)
                if cfg.moments:
                    dq_paper, dp_paper = moment_width_variant(r, cfg.model)
                    moment_rows.append([
                        r.t, name,
                        r.mean_alpha.real, r.mean_alpha.imag,
                        r.alpha2.real, r.alpha2.imag,
                        r.abs2, r.mean_q, r.mean_p, r.dq, r.dp,
                        dq_paper, dp_paper,
                        trace_err[i], purity[i],
                    ])
                if cfg.spectrum_k or cfg.negativity:
                    snapshot = traj.matrix(i)
                    if cfg.spectrum_k:
                        maxes, mins = spectrum_extremes(snapshot, cfg.spectrum_k)
                        spectrum_rows.append([t, name, *maxes, *mins])
                    if cfg.negativity:
                        negativity_rows.append([t, name, squared_negativity(snapshot)])
        if cfg.field_times and not whorl:
            rendered = wigner_field(traj.take(field_idx), cfg.field_grid)
            fields += [(name, t, field) for t, field in zip(cfg.field_times, rendered)]
        del traj  # released before the next dynamics is evolved

    written: list[Path] = []

    if cfg.validate:
        path = out_dir / "validate.csv"
        _write_csv(
            path, cfg,
            ["t", "dynamics", "trace_err", "herm_err", "purity_drift", "abs2_drift"],
            validate_rows,
        )
        written.append(path)
        if worst is not None:
            value, name, metric, t = worst
            print(
                f"validation failed: {name} {metric} = {value:.3e} at t = {t:.6g} "
                f"(tolerance {TOLERANCES[metric]:.0e})",
                file=sys.stderr,
            )
            print(f"wrote {path}")
            return 2

    # after the conservation gate, which then keeps its validate.csv, and
    # before any output below is written
    for name, t, field in fields:
        if not np.all(np.isfinite(field.values)):
            raise ValidationFailed(f"{name} field at t = {_fmt(t)} is not finite")

    if cfg.moments:
        path = out_dir / "moments.csv"
        _write_csv(
            path, cfg,
            ["t", "dynamics", "re_alpha", "im_alpha", "re_alpha2", "im_alpha2",
             "abs2", "q", "p", "dq", "dp", "dq_paper", "dp_paper",
             "trace_err", "purity"],
            moment_rows,
        )
        written.append(path)

    if cfg.spectrum_k:
        k = cfg.spectrum_k
        columns = ["t", "dynamics"]
        columns += [f"lambda_max{j}" for j in range(1, k + 1)]
        columns += [f"lambda_min{j}" for j in range(1, k + 1)]
        path = out_dir / "spectrum.csv"
        _write_csv(path, cfg, columns, spectrum_rows)
        written.append(path)

    if cfg.negativity:
        path = out_dir / "negativity.csv"
        _write_csv(path, cfg, ["t", "dynamics", "sqneg"], negativity_rows)
        written.append(path)

    for name, t, field in fields:
        stem = f"field_{name}_{_time_stem(t)}"
        provenance = (
            f"groenewold-lab {__version__} config sha256: {cfg.sha256} "
            f"dynamics={name} t={_fmt(t)}"
        )
        pgm = out_dir / f"{stem}.pgm"
        csv = out_dir / f"{stem}.csv"
        mask = out_dir / f"{stem}_mask.pgm"
        write_pgm(field, pgm)
        write_field_csv(field, csv, provenance=provenance)
        write_mask_pgm(field, mask)
        written += [pgm, csv, mask]

    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for validation failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _load_source(args) -> _Doc:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("provide exactly one of <config.json> or --preset NAME")
    if args.preset is not None:
        base = resources.files("groenewold_lab").joinpath("presets")
        ref = base.joinpath(f"{args.preset}.json")
        try:
            text = ref.read_text(encoding="ascii")
        except FileNotFoundError:
            names = sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
            raise ConfigError(
                f"unknown preset {args.preset!r} (available: {', '.join(names)})"
            ) from None
        return _Doc(text, f"preset:{args.preset}")
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    return _Doc(text, str(path))


def main(argv=None) -> int:
    parser = _Parser(prog="groenewold-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("config", nargs="?", help="path to a JSON config file")
    runp.add_argument("--out", default=".", help="output directory (default: current)")
    runp.add_argument("--preset", help="bundled preset name (fig1..fig6)")
    runp.add_argument(
        "--validate-only", action="store_true",
        help="check the config and the basis fit and build the generators, write nothing",
    )
    args = parser.parse_args(argv)

    try:
        doc = _load_source(args)
        cfg = validate_config(doc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.validate_only:
            g0 = groenewold_from_gaussian(cfg.state, cfg.n_basis, tail_tol=cfg.tail_tol)
            top = len(g0) - 1
            for name in cfg.dynamics:
                if _evolved(cfg, name):  # what run builds, Moyal rules included
                    for _ in all_generator_blocks(name, cfg.model, cfg.n_basis, nu_top=top):
                        pass
            print(
                f"config ok: K={cfg.model.K} N={cfg.n_basis} "
                f"dynamics={','.join(cfg.dynamics)} steps={len(cfg.times)}"
            )
            return 0
        return run(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailed as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2
    except (TailMassExceeded, QuadratureNotConverged) as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return 3
    except GroenewoldLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
