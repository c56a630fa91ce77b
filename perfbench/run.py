"""Benchmark of the groenewold-lab command-line runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/ directory and nothing is installed.

--trace 0 measures end to end. It times the set-up (a fresh interpreter
that imports groenewold_lab.cli and validates the workload's config)
SETUP_REPEATS times, then runs `groenewold-lab run` in a fresh process,
back to back, until S seconds have passed (at least once). Each run is
timed from spawn to exit; CPU time and peak memory come from wait4.

--trace 1 repeats the untraced runs and adds one traced run in a fresh
process (perfbench/spans.py), whose spans give the per-layer metrics,
followed by one more untraced run. trace.overhead_s is the traced run's
wall time minus the mean of the untraced runs just before and after it.
Span targets that could not be patched are printed to standard error.

Every run's outputs are checked (perfbench/checks.py) after its clock has
stopped. Runs go one at a time, with the program's default thread
settings: the benchmark sets no thread variable and records those it sees.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (medians). The full record, with
quartiles, sample counts, per-run check results and the machine
fingerprint, goes to .perfbench-work/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path[:0] = [str(BENCH), str(SRC)]
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SETUP_REPEATS = 7

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

THREAD_VARIABLES = (
    "GROENEWOLD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

CLI = "import sys; from groenewold_lab.cli import main; sys.exit(main())"
SETUP = (
    "import sys; from pathlib import Path; "
    "from groenewold_lab.cli import _Doc, validate_config; "
    "p = Path(sys.argv[1]); validate_config(_Doc(p.read_text(encoding='utf-8'), str(p)))"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def per_layer_units() -> dict[str, str]:
    units = {}
    for prefix in map(spans.metric_prefix, spans.SPAN_NAMES):
        units[f"{prefix}_s"] = "s"
        units[f"{prefix}_calls"] = "count"
    units["cli.workers"] = "count"
    for route in spans.ROUTES:
        units[f"evolve.route_{route}"] = "count"
    units["evolve.nonzero_sector_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["check.classical_alpha_gap"] = "abs"
    return units


# ---------------------------------------------------------------------------
# processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_process(cmd: list[str], log: Path) -> dict:
    """Run one process to exit: wall seconds from spawn, CPU seconds and peak MB from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


# ---------------------------------------------------------------------------
# machine fingerprint

def _blas_threads() -> dict:
    """Threads each bundled OpenBLAS would use, asked of the library itself."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[Path(lib).name] = fn()
                    break
    return out


def fingerprint() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


# ---------------------------------------------------------------------------
# measurement

def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def load_reference(name: str) -> dict:
    path = BENCH / "reference" / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"missing reference {path.relative_to(ROOT)}")
    return json.loads(path.read_text(encoding="ascii"))


def _run_and_check(cmd, out, workload, cfg, phasor, turns, reference) -> dict:
    rec = timed_process(cmd, out.with_suffix(".log"))
    if rec["code"] != 0:
        rec["problems"] = [f"exit code {rec['code']}"]
        return rec
    try:
        rec["problems"] = checks.check_outputs(workload, cfg, out, phasor, turns, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rec["problems"] = [f"unreadable output: {exc!r}"]
    return rec


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a workload; returns the full record."""
    if not (SRC / "groenewold_lab" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    workload = WORKLOADS[name]
    reference = load_reference(name)
    cfg, phasor, turns = make_config(workload, seed)

    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2), encoding="ascii")

    setup = []
    if not trace:
        for i in range(SETUP_REPEATS):
            rec = timed_process([sys.executable, "-c", SETUP, str(cfg_path)],
                                run_dir / f"setup{i}.log")
            if rec["code"] != 0:
                raise BenchError(f"set-up exited {rec['code']}; see {run_dir}/setup{i}.log")
            setup.append(rec["wall_s"])

    runs = []

    def untraced_run() -> None:
        out = run_dir / f"run{len(runs)}"
        cmd = [sys.executable, "-c", CLI, "run", str(cfg_path), "--out", str(out)]
        runs.append(_run_and_check(cmd, out, workload, cfg, phasor, turns, reference))

    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        untraced_run()

    traced = None
    if trace:
        out = run_dir / "traced"
        spans_path = run_dir / "spans.json"
        cmd = [sys.executable, str(BENCH / "spans.py"), str(spans_path),
               "run", str(cfg_path), "--out", str(out)]
        traced = _run_and_check(cmd, out, workload, cfg, phasor, turns, reference)
        # the traced run is bracketed by untraced ones, so a linear drift in
        # host speed cancels out of trace.overhead_s
        untraced_run()

    checked = [r for r in runs + [traced] if r is not None]
    good = next((run_dir / f"run{i}" for i, r in enumerate(runs) if not r["problems"]), None)
    gap = 0.0  # reported with the per-layer metrics; 0 where there is no classical flow
    if trace and good is not None and "classical" in workload.dynamics:
        gap = checks.classical_alpha_gap(cfg, good)

    samples = {
        "run_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    if setup:
        samples["setup_s"] = setup
    summary = {k: {**summarize(v), "unit": END_TO_END_UNITS[k]} for k, v in samples.items()}
    failed = sum(1 for r in checked if r["problems"])
    summary["failed_share"] = {"value": failed / len(checked), "n": len(checked), "unit": "ratio"}

    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "alpha0": [cfg["state"]["alpha0_re"], cfg["state"]["alpha0_im"]],
        "quarter_turns": turns,
        "fingerprint": fingerprint(),
        "attempted": len(checked),
        "failed": failed,
        "problems": {f"run{i}": r["problems"] for i, r in enumerate(runs) if r["problems"]},
        "samples": samples,
        "summary": summary,
    }
    if traced is not None:
        if traced["problems"]:
            record["problems"]["traced"] = traced["problems"]
        if spans_path.is_file():
            data = json.loads(spans_path.read_text(encoding="ascii"))
        else:  # the traced process died before writing; its problems say why
            data = {"spans": [], "owner_thread": None, "missing": ["no spans written"]}
        layers = spans.layer_metrics(data["spans"], data["owner_thread"])
        neighbours = (runs[-2]["wall_s"] + runs[-1]["wall_s"]) / 2
        layers["trace.overhead_s"] = traced["wall_s"] - neighbours
        layers["check.classical_alpha_gap"] = gap
        record["traced_run_s"] = traced["wall_s"]
        record["missing_spans"] = data["missing"]
        record["per_layer"] = layers

    for i in range(len(runs)):
        shutil.rmtree(run_dir / f"run{i}", ignore_errors=True)
    shutil.rmtree(run_dir / "traced", ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1), encoding="ascii")
    return record


def result_line(record: dict) -> dict:
    if record["trace"]:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": record["summary"][k]["median"], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for key, stats in record["summary"].items():
        value = stats.get("median", stats.get("value"))
        print(f"{args.workload} {key}: {value:.6g} {stats['unit']} (n={stats['n']})",
              file=sys.stderr)
    for problem_run, problems in record["problems"].items():
        print(f"{problem_run}: {'; '.join(problems)}", file=sys.stderr)
    if record.get("missing_spans"):
        print(f"perfbench: spans not installed, their metrics read 0: "
              f"{', '.join(record['missing_spans'])}", file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
