"""Experiment driver: JSON config in, CSV/PGM artifacts out.

A run parses one config (file or bundled preset), evolves the requested
dynamics over a shared time grid, and writes row-oriented CSVs plus
phase-space field files. All floats print with 17 significant digits and
every run-varying datum lives in '#' header comments, so outputs are
byte-identical across reruns once those lines are stripped. That holds per
host, OpenBLAS kernel and BLAS thread count; across them the non-quantum
rows move by up to about 5e-12 (README, Output files). The module sets
OPENBLAS_THREAD_TIMEOUT before it imports numpy, so OpenBLAS's idle
workers sleep soon after each call; that moves no output. The thread count
is left alone, a value the user set wins, and a caller that imported numpy
first sees no change.

The synthesized state's trace error |Tr G - 1| is computed once, before any
dynamics is evolved, and every row CSV reports it in one '#' line: every
flow keeps sector 0 fixed, so the trace cannot move after t = 0. With
outputs.validate on it is also checked against its tolerance. The one gate
per row is the purity drift from t0, the only conserved quantity here that
reads every sector (through its norm). A moments/validate run stores the
sectors 0-2 and lets evolve hold the top sectors whose whole contribution
moves the purity by at most 2^-56 of itself: built, so their generators
are still checked for finiteness, but not factored, so the
condition-number gate reads only the factored sectors. Spectra and
negativity share one eigensolve per dynamics and row time.

The '# config sha256:' line, and the provenance line of every field CSV,
hold the SHA-256 of the config's canonical JSON (sorted keys, no
whitespace). It is computed with CPython's built-in SHA-256 module
(_sha2, or _sha256 before Python 3.12), not hashlib, whose sha256 loads
OpenSSL, which no other part of a run needs: 3.6 MB of a fig3 run's
42 MB peak RSS (README, Memory). The digest is the same either way, and
a build without the built-in module falls back to hashlib.

Exit codes: 0 success, else the exit_code of the error class raised: 1 config
schema error (line-precise) or an unwritable output, 2 validation failure
(the synthesized trace or a purity drift over tolerance, a sector generator
that is not finite or too ill-conditioned to factor, or a non-finite snapshot,
moments row, squared negativity or field), 3 quadrature or truncation failure
(state does not fit the basis).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

# hashlib's sha256 loads OpenSSL, 3.6 MB of a run's peak RSS; CPython's
# built-in module gives the same digest without it
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

# After each BLAS call OpenBLAS's idle workers busy-wait for 2^28 cycles
# (about 0.1 s) before they sleep, which nearly doubles the CPU time of a
# fig3 run. 2^18 cycles (about 0.1 ms) lets them sleep between calls; a
# shorter wait saves little more CPU and has more calls wake them. The
# wait does not change how work is split across threads, so no output
# moves. OpenBLAS reads the variable when numpy first loads it, so it is
# set here, before the package's first numpy import; a value already set
# wins, and the thread count is left alone.
OPENBLAS_THREAD_TIMEOUT = "18"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", OPENBLAS_THREAD_TIMEOUT)

import numpy as np

from . import __version__
from .errors import ConfigError, GroenewoldLabError, ValidationFailed
from .evolve import evolve
from .generators import DYNAMICS, all_generator_blocks, rung_count
from .model import ModelSpec
from .observables import moment_track, moment_width_variant, snapshot_spectrum
from .observables import spectrum_extremes, squared_negativity
from .render import (
    DEFAULT_GRID,
    _check_grid,
    is_finite_real,
    whorl_phase_field,
    wigner_field,
    write_field_csv,
    write_mask_pgm,
    write_pgm,
)
from .states import GaussianState, groenewold_from_gaussian

TOLERANCES = {
    "trace_err": 1e-10,  # of the synthesized state, checked once
    "purity_drift": 1e-8,  # checked at every row time
}

# Upper limits on the sizes a config may ask for (README, Config schema):
# far above every preset, and below the sizes whose arrays no ordinary
# machine can hold, so a mistyped size ends in a schema error
MAX_N = 16384
MAX_STEPS = 100_000
# field values a run holds before it writes them: dynamics x field times x
# nq x np, 1 GiB as floats
MAX_FIELD_VALUES = 2**27


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


def _integer(doc: _Doc, obj, path: str, key: str, default=None, minimum=None, maximum=None):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        doc.fail(f"{path}.{key}", "must be an integer")
    if minimum is not None and v < minimum:
        doc.fail(f"{path}.{key}", f"must be at least {minimum}")
    if maximum is not None and v > maximum:
        doc.fail(f"{path}.{key}", f"must be at most {maximum}")
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
    if "gamma" in obj or "q0" in obj or "p0" in obj:
        _check_keys(doc, obj, "state", ("gamma", "q0", "p0"), ("gamma", "q0", "p0"))
        gamma = _real(doc, obj, "state", "gamma", positive=True)
        q0 = _real(doc, obj, "state", "q0")
        p0 = _real(doc, obj, "state", "p0")
        make, args = GaussianState.from_gamma, (gamma, q0, p0, model)
    else:
        _check_keys(doc, obj, "state", ("kappa", "alpha0_re", "alpha0_im"), ("kappa", "alpha0_re"))
        kappa = _real(doc, obj, "state", "kappa", positive=True)
        re_part = _real(doc, obj, "state", "alpha0_re")
        im_part = _real(doc, obj, "state", "alpha0_im", default=0.0)
        make, args = GaussianState, (kappa, complex(re_part, im_part))
    try:  # only the state's own checks: a schema error above is already located
        return make(*args)
    except ConfigError as exc:
        doc.fail("state", str(exc))


def _time_stem(t: float) -> str:
    """The part of a field file name that names its time; -0.0 names 0's files."""
    return f"{t + 0.0:.12g}"


def _build_outputs(doc: _Doc, raw: dict, n_basis: int, dynamics: int):
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
        values = dynamics * len(field_times) * field_grid[4] * field_grid[5]
        if values > MAX_FIELD_VALUES:
            doc.fail(
                "outputs.field.time_list",
                f"{dynamics} dynamics x {len(field_times)} times x {field_grid[4]} x "
                f"{field_grid[5]} grid points is {values} field values, above the "
                f"limit of {MAX_FIELD_VALUES} (1 GiB as floats); ask for fewer times "
                f"or a coarser grid",
            )

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
    n_basis = _integer(doc, trunc, "truncation", "N", default=128, minimum=8, maximum=MAX_N)
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
    steps = _integer(doc, times_obj, "times", "steps", minimum=1, maximum=MAX_STEPS)
    if t1 < t0:
        doc.fail("times.t1", "must be >= t0")
    if not math.isfinite(t1 - t0):
        doc.fail("times.t1", "t1 - t0 must be a finite number")
    times = tuple(float(v) for v in np.linspace(t0, t1, steps))

    moments, spectrum_k, negativity, field_grid, field_times, validate = _build_outputs(
        doc, raw, n_basis, len(dyn)
    )

    sha = sha256(
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


def _header_lines(cfg: ExperimentConfig, trace_err: float) -> list[str]:
    """The '#' block every row CSV of one run starts with. Its tolerances
    line says whether outputs.validate ran the gates they belong to."""
    gates = "checked, outputs.validate on" if cfg.validate else "not checked, outputs.validate off"
    tol = " ".join(f"{k}={v:.0e}" for k, v in TOLERANCES.items()) + f" ({gates})"
    return [
        f"# groenewold-lab {__version__}",
        f"# config sha256: {cfg.sha256}",
        f"# generated: {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        f"# tolerances: {tol}",
        f"# synthesized state trace_err: {_fmt(trace_err)}",
    ]


def _write_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
            fh.write("\n")


def _evolved(cfg: ExperimentConfig, name: str) -> bool:
    """Whether run evolves a dynamics: for rows, or for fields drawn from its
    matrices. Classical fields are the continuum whorl density instead."""
    rows = cfg.moments or cfg.spectrum_k or cfg.negativity or cfg.validate
    return bool(rows) or (bool(cfg.field_times) and name != "classical")


def _store_top(cfg: ExperimentConfig, name: str) -> int | None:
    """The highest sector whose rows run stores for a dynamics, None for
    every sector. Moments read the sectors 0-2 and the purity each
    sector's norm, which evolve keeps for every sector, holding the top
    ones at their t = 0 norms within its bound (2^-56 of the purity); a
    spectrum, the negativity and a Wigner field read every sector's rows,
    so with None nothing is held and every sector is factored."""
    wigner = bool(cfg.field_times) and name != "classical"
    return None if cfg.spectrum_k or cfg.negativity or wigner else 2


def _synthesize(cfg: ExperimentConfig):
    """The initial sector rows and their trace error |Tr G - 1|. With
    outputs.validate on, ValidationFailed when that error is over its
    tolerance: the basis holds too little of the state."""
    g0 = groenewold_from_gaussian(cfg.state, cfg.n_basis, tail_tol=cfg.tail_tol)
    trace_err = abs(float(g0[0].sum()) - 1.0)
    tol = TOLERANCES["trace_err"]
    if cfg.validate and not trace_err <= tol:
        raise ValidationFailed(
            f"synthesized state trace_err = {trace_err:.3e} (tolerance {tol:.0e}); "
            f"increase truncation.N or lower truncation.tail_tol"
        )
    return g0, trace_err


def run(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Execute one validated config, writing artifacts into out_dir.

    Each dynamics is evolved once over the union of the row and field
    times, and its trajectory is released before the next one is evolved.
    It stores the rows of the sectors its outputs read (_store_top): the
    sectors 0-2 when only moments and validate are on, every sector for a
    spectrum, the negativity or a Wigner field; the purity comes from the
    norms evolve keeps for every sector. With the sectors 0-2 stored,
    evolve holds the top sectors whose bound keeps their whole effect on
    the purity within 2^-56 of it, unfactored, at their t = 0 norms; so
    the condition-number gate reads only the factored sectors. A purity
    drift over tolerance raises ValidationFailed after validate.csv; a
    non-finite moments row, squared negativity or field raises it after
    that gate and before moments.csv or any later file is written.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    g0, trace_err = _synthesize(cfg)

    union = sorted(set(cfg.times) | set(cfg.field_times))
    index = {t: i for i, t in enumerate(union)}
    row_idx = [index[t] for t in cfg.times]
    field_idx = [index[t] for t in cfg.field_times]

    validate_rows: list = []
    moment_rows: list = []
    spectrum_rows: list = []
    negativity_rows: list = []
    fields: list = []  # (dynamics, t, PhaseField)
    for name in cfg.dynamics:
        whorl = name == "classical"
        if whorl:
            # exact continuum whorl density: no basis truncation at late times
            for t in cfg.field_times:
                field = whorl_phase_field(cfg.state, cfg.model, t, cfg.field_grid)
                fields.append((name, t, field))
        if not _evolved(cfg, name):
            continue
        traj = evolve(g0, name, cfg.model, union, store_top=_store_top(cfg, name))
        # a trajectory that left the float range gives non-finite purities
        # and moments, which the gates below reject; finite ones warn nothing
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.validate or cfg.moments:
                purity = traj.purity_series()
            if cfg.validate:
                drift = np.abs(purity[row_idx] - purity[row_idx[0]])
                validate_rows += ([t, name, d] for t, d in zip(cfg.times, drift))
            if cfg.moments:
                m = moment_track(traj)
                dq_paper, dp_paper = moment_width_variant(m, cfg.model)
                columns = (
                    m.t, m.mean_alpha.real, m.mean_alpha.imag, m.alpha2.real, m.alpha2.imag,
                    m.abs2, m.mean_q, m.mean_p, m.dq, m.dp, dq_paper, dp_paper, purity,
                )
                moment_rows += (
                    [t, name, *rest] for t, *rest in zip(*(c[row_idx] for c in columns))
                )
        if cfg.spectrum_k or cfg.negativity:
            for t, i in zip(cfg.times, row_idx):
                w = snapshot_spectrum(traj, i)
                if cfg.spectrum_k:
                    maxes, mins = spectrum_extremes(w, cfg.spectrum_k)
                    spectrum_rows.append([t, name, *maxes, *mins])
                if cfg.negativity:
                    negativity_rows.append([t, name, squared_negativity(w)])
        if cfg.field_times and not whorl:
            rendered = wigner_field(traj.take(field_idx), cfg.field_grid)
            fields += [(name, t, field) for t, field in zip(cfg.field_times, rendered)]
        del traj  # released before the next dynamics is evolved

    written: list[Path] = []
    header = _header_lines(cfg, trace_err)

    if cfg.validate:
        path = out_dir / "validate.csv"
        _write_csv(path, header, ["t", "dynamics", "purity_drift"], validate_rows)
        written.append(path)
        tol = TOLERANCES["purity_drift"]
        failed = [row for row in validate_rows if not row[2] <= tol]  # NaN fails too
        if failed:
            t, name, drift = max(failed, key=lambda row: np.nan_to_num(row[2], nan=np.inf))
            print(f"wrote {path}")
            raise ValidationFailed(
                f"{name} purity_drift = {drift:.3e} at t = {t:.6g} (tolerance {tol:.0e})"
            )

    # after the purity gate, which then keeps its validate.csv, and
    # before any output below is written
    for t, name, *values in moment_rows:
        # dq_paper and dp_paper, values[9:11], are NaN where their radicand is negative
        if not np.all(np.isfinite(values[:9] + values[11:])):
            raise ValidationFailed(f"{name} moments at t = {_fmt(t)} are not finite")
    for t, name, sqneg in negativity_rows:
        if not math.isfinite(sqneg):
            raise ValidationFailed(f"{name} negativity at t = {_fmt(t)} is not finite")
    for name, t, field in fields:
        if not np.all(np.isfinite(field.values)):
            raise ValidationFailed(f"{name} field at t = {_fmt(t)} is not finite")

    if cfg.moments:
        path = out_dir / "moments.csv"
        _write_csv(
            path, header,
            ["t", "dynamics", "re_alpha", "im_alpha", "re_alpha2", "im_alpha2",
             "abs2", "q", "p", "dq", "dp", "dq_paper", "dp_paper", "purity"],
            moment_rows,
        )
        written.append(path)

    if cfg.spectrum_k:
        k = cfg.spectrum_k
        columns = ["t", "dynamics"]
        columns += [f"lambda_max{j}" for j in range(1, k + 1)]
        columns += [f"lambda_min{j}" for j in range(1, k + 1)]
        path = out_dir / "spectrum.csv"
        _write_csv(path, header, columns, spectrum_rows)
        written.append(path)

    if cfg.negativity:
        path = out_dir / "negativity.csv"
        _write_csv(path, header, ["t", "dynamics", "sqneg"], negativity_rows)
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
        cfg = validate_config(_load_source(args))
        if args.validate_only:
            g0, _ = _synthesize(cfg)
            top = len(g0) - 1
            for name in cfg.dynamics:
                if _evolved(cfg, name):  # what run builds, Moyal rules included
                    for _ in all_generator_blocks(name, cfg.model, cfg.n_basis, nu_top=top):
                        pass
            print(
                f"config ok: K={cfg.model.K} N={cfg.n_basis} "
                f"dynamics={','.join(cfg.dynamics)} steps={len(cfg.times)}"
            )
        else:
            run(cfg, Path(args.out))
        return 0
    except GroenewoldLabError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
