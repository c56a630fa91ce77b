"""Output checks for one benchmark run.

check_outputs() returns a list of problems; an empty list means the run's
outputs are correct. It checks, in order:

- the expected files exist with the expected row counts;
- quantum <alpha>(t) against the closed-form coherent-state sum built from
  ModelSpec.level_frequencies, which shares no code with states,
  generators or evolve;
- phase covariance against the committed phase-0 reference: <alpha> turns
  by e^{i phi}, <alpha^2> by e^{2 i phi}; abs2, purity, spectra and
  squared negativity do not change, and fields match after undoing the
  quarter turns with rot90;
- every field PGM and mask against the gray map of its own CSV.

classical_alpha_gap() is reported, never gated: the basis-truncation gap
of the classical flow against the continuum quadrature oracle.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Agreement measured at the phase-0 reference is about 1e-14; these gates
# sit two orders above it and far below any change a corruption makes.
CLOSED_FORM_TOL = 1e-12
COVARIANCE_TOL = 1e-12
FIELD_SUM_TOL = 1e-9  # fsum over 65,536 cells, each within ~1e-15
FIELD_STRIDE = 8

MOMENT_COLUMNS = ("re_alpha", "im_alpha", "re_alpha2", "im_alpha2", "abs2", "purity")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of one CLI CSV, '#' lines skipped."""
    lines = [ln for ln in path.read_text(encoding="ascii").splitlines() if not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def table(path: Path) -> dict[str, dict[str, np.ndarray]]:
    """Per dynamics, each numeric column as an array in file order."""
    columns, rows = read_csv(path)
    out: dict[str, dict[str, list]] = {}
    for row in rows:
        cols = out.setdefault(row[1], {c: [] for c in columns if c != "dynamics"})
        for name, cell in zip(columns, row):
            if name != "dynamics":
                cols[name].append(float(cell))
    return {d: {c: np.array(v) for c, v in cols.items()} for d, cols in out.items()}


def read_field_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def read_pgm(path: Path) -> tuple[np.ndarray, float | None]:
    """Pixels and the vscale header (None when absent) of a binary PGM."""
    data = path.read_bytes()
    fields: list[bytes] = []
    vscale = None
    pos = 0
    while len(fields) < 4:
        end = data.index(b"\n", pos)
        line = data[pos:end]
        pos = end + 1
        if line.startswith(b"#"):
            if line.startswith(b"# vscale="):
                vscale = float(line[len(b"# vscale="):])
            continue
        fields += line.split()
    if fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError(f"{path.name}: not an 8-bit binary PGM")
    cols, rows = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(data[pos:], dtype=np.uint8)
    if pixels.size != rows * cols:
        raise ValueError(f"{path.name}: {pixels.size} pixels, header says {rows}x{cols}")
    return pixels.reshape(rows, cols), vscale


def unrotate(values: np.ndarray, turns: int) -> np.ndarray:
    """The phase-0 field from a field whose alpha0 was turned by `turns` quarter turns.

    values[i, j] sits at (q_j, p_i) on a grid symmetric about the origin,
    so a quarter turn of the state is one np.rot90 of the array.
    """
    return np.rot90(values, turns)


def field_summary(values: np.ndarray) -> dict:
    """What the reference keeps of one field: a strided subgrid and invariants."""
    flat = values.ravel().tolist()
    return {
        "sub": values[::FIELD_STRIDE, ::FIELD_STRIDE].tolist(),
        "sum": math.fsum(flat),
        "abs_sum": math.fsum(abs(v) for v in flat),
        "max": float(values.max()),
        "min": float(values.min()),
    }


def coherent_mean_alpha(model_cfg: dict, alpha0: complex, times, n_levels: int) -> np.ndarray:
    """Quantum <alpha>(t) of a coherent state: alpha0 sum_n P(n) e^{-i w_n t}.

    P(n) is the Poisson weight of |alpha0|^2 and w_n = (E_{n+1} - E_n)/hbar
    from ModelSpec.level_frequencies.
    """
    from groenewold_lab.model import ModelSpec

    model = ModelSpec.create(model_cfg["b"], mu=model_cfg["mu"])
    freq = model.level_frequencies(1, n_levels)
    lam = abs(alpha0) ** 2
    n = np.arange(n_levels)
    log_p = -lam + n * math.log(lam) - np.array([math.lgamma(k + 1.0) for k in n])
    weights = np.exp(log_p)
    t = np.asarray(times, dtype=float)
    return alpha0 * (np.exp(-1j * np.outer(t, freq)) @ weights)


def classical_alpha_gap(cfg: dict, out_dir: Path) -> float:
    """max_t |<alpha>_classical - quadrature oracle| on the run's time grid."""
    from groenewold_lab.evolve import classical_moment_quadrature
    from groenewold_lab.model import ModelSpec
    from groenewold_lab.states import GaussianState

    cols = table(out_dir / "moments.csv")["classical"]
    model = ModelSpec.create(cfg["model"]["b"], mu=cfg["model"]["mu"])
    st = cfg["state"]
    state = GaussianState(st["kappa"], complex(st["alpha0_re"], st["alpha0_im"]))
    got = cols["re_alpha"] + 1j * cols["im_alpha"]
    oracle = np.array([classical_moment_quadrature(1, state, model, t) for t in cols["t"]])
    return float(np.abs(got - oracle).max())


def _expect_rows(problems: list, path: Path, n_rows: int) -> bool:
    if not path.is_file():
        problems.append(f"missing {path.name}")
        return False
    _, rows = read_csv(path)
    if len(rows) != n_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_rows}")
        return False
    return True


def _gap(problems: list, what: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape}, reference {want.shape}")
        return
    err = float(np.abs(got - want).max()) if got.size else 0.0
    if not err <= tol:  # also catches NaN
        problems.append(f"{what}: off by {err:.3e} (tolerance {tol:.0e})")


def _check_moments(problems, cfg, path, phasor, reference):
    cols_by_dyn = table(path)
    for dyn, ref_rows in reference.get("moments", {}).items():
        cols = cols_by_dyn.get(dyn)
        if cols is None:
            problems.append(f"moments.csv: no rows for {dyn}")
            continue
        ref = np.array(ref_rows)
        alpha = cols["re_alpha"] + 1j * cols["im_alpha"]
        alpha2 = cols["re_alpha2"] + 1j * cols["im_alpha2"]
        _gap(problems, f"{dyn} <alpha> covariance", alpha, phasor * (ref[:, 0] + 1j * ref[:, 1]),
             COVARIANCE_TOL)
        _gap(problems, f"{dyn} <alpha^2> covariance", alpha2,
             phasor**2 * (ref[:, 2] + 1j * ref[:, 3]), COVARIANCE_TOL)
        _gap(problems, f"{dyn} abs2 invariance", cols["abs2"], ref[:, 4], COVARIANCE_TOL)
        _gap(problems, f"{dyn} purity invariance", cols["purity"], ref[:, 5], COVARIANCE_TOL)
    quantum = cols_by_dyn.get("quantum")
    if quantum is not None:
        st = cfg["state"]
        exact = coherent_mean_alpha(cfg["model"], complex(st["alpha0_re"], st["alpha0_im"]),
                                    quantum["t"], cfg["truncation"]["N"])
        _gap(problems, "quantum <alpha> closed form",
             quantum["re_alpha"] + 1j * quantum["im_alpha"], exact, CLOSED_FORM_TOL)


def _value_rows(cols: dict) -> np.ndarray:
    """Every column but t, one row per time."""
    return np.array([v for c, v in cols.items() if c != "t"]).T


def _check_invariant_table(problems, path, reference_rows):
    cols_by_dyn = table(path)
    for dyn, ref_rows in reference_rows.items():
        cols = cols_by_dyn.get(dyn)
        if cols is None:
            problems.append(f"{path.name}: no rows for {dyn}")
            continue
        _gap(problems, f"{path.name} {dyn} invariance", _value_rows(cols), np.array(ref_rows),
             COVARIANCE_TOL)


def _check_field(problems, out_dir, stem, turns, ref, grid):
    csv, pgm, mask = (out_dir / f"{stem}{sfx}" for sfx in (".csv", ".pgm", "_mask.pgm"))
    for path in (csv, pgm, mask):
        if not path.is_file():
            problems.append(f"missing {path.name}")
            return
    values = read_field_csv(csv)
    if values.shape != (grid[5], grid[4]):
        problems.append(f"{csv.name}: shape {values.shape}, expected {(grid[5], grid[4])}")
        return
    vscale = float(np.abs(values).max()) or 1.0
    gray = np.clip(np.rint(128.0 + 127.0 * values / vscale), 0.0, 255.0).astype(np.uint8)
    try:
        pixels, header_vscale = read_pgm(pgm)
        mask_pixels, _ = read_pgm(mask)
    except ValueError as exc:
        problems.append(str(exc))
        return
    if header_vscale != vscale or not np.array_equal(pixels, gray):
        problems.append(f"{pgm.name}: does not match the gray map of {csv.name}")
    if not np.array_equal(mask_pixels, np.where(values < 0.0, 255, 0).astype(np.uint8)):
        problems.append(f"{mask.name}: does not mark the negative cells of {csv.name}")
    if ref is None:
        return
    base = field_summary(unrotate(values, turns))
    _gap(problems, f"{stem} rot90 covariance", base["sub"], ref["sub"], COVARIANCE_TOL)
    for key in ("max", "min"):
        _gap(problems, f"{stem} {key}", base[key], ref[key], COVARIANCE_TOL)
    for key in ("sum", "abs_sum"):
        _gap(problems, f"{stem} {key}", base[key], ref[key], FIELD_SUM_TOL)


def check_outputs(
    workload, cfg: dict, out_dir: Path, phasor: complex, turns: int, reference: dict | None
) -> list[str]:
    """Problems found in one run's outputs; an empty list means correct.

    reference is the committed phase-0 reference of the workload; None
    skips the covariance checks (used while writing that reference).
    """
    problems: list[str] = []
    outs = workload.outputs
    n_rows = len(workload.dynamics) * workload.steps
    ref = reference or {}
    if outs.get("validate"):
        _expect_rows(problems, out_dir / "validate.csv", n_rows)
    if outs.get("moments") and _expect_rows(problems, out_dir / "moments.csv", n_rows):
        _check_moments(problems, cfg, out_dir / "moments.csv", phasor, ref)
    for name, key in (("spectrum.csv", "spectrum"), ("negativity.csv", "negativity")):
        if outs.get(key) and _expect_rows(problems, out_dir / name, n_rows):
            _check_invariant_table(problems, out_dir / name, ref.get(key, {}))
    grid = outs.get("field", {}).get("grid")
    for stem in workload.field_stems():
        _check_field(problems, out_dir, stem, turns, ref.get("fields", {}).get(stem), grid)
    return problems


def make_reference(workload, out_dir: Path) -> dict:
    """The phase-0 reference of a workload from one run's outputs."""
    ref: dict = {}
    outs = workload.outputs
    if outs.get("moments"):
        by_dyn = table(out_dir / "moments.csv")
        ref["moments"] = {
            d: np.array([cols[c] for c in MOMENT_COLUMNS]).T.tolist() for d, cols in by_dyn.items()
        }
    for name, key in (("spectrum.csv", "spectrum"), ("negativity.csv", "negativity")):
        if outs.get(key):
            ref[key] = {d: _value_rows(cols).tolist() for d, cols in table(out_dir / name).items()}
    stems = workload.field_stems()
    if stems:
        ref["fields"] = {s: field_summary(read_field_csv(out_dir / f"{s}.csv")) for s in stems}
    return ref
