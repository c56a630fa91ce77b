"""Tests of the benchmark's own code: spans, seeded configs and output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import ALPHA0_ABS, WORKLOADS, Workload, make_config  # noqa: E402


def _span(id_, name, start, end, parent=None, thread=1):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "thread": thread}


# ---------------------------------------------------------------------------
# span arithmetic

def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(1, 5), (3, 8), (9, 12)], 0, 10) == 8
    assert spans.union_length([], 0, 10) == 0
    assert spans.union_length([(-5, 2), (11, 20)], 0, 10) == 2


def test_self_time_with_children_overlapping_on_two_threads():
    spans_ = [
        _span(0, "cli.run", 0.0, 10.0, thread=1),
        _span(1, "generators.build", 1.0, 5.0, parent=0, thread=2),
        _span(2, "generators.build", 3.0, 8.0, parent=0, thread=3),
        _span(3, "model.number_coefficients", 2.0, 3.0, parent=1, thread=2),
    ]
    own = spans.self_times(spans_)
    # the two builds overlap on [3, 5]: the parent loses [1, 8] once, not 4 + 5
    assert own == {0: 3.0, 1: 3.0, 2: 5.0, 3: 1.0}
    metrics = spans.layer_metrics(spans_, owner_thread=1)
    assert metrics["cli.run_self_s"] == 3.0
    assert metrics["generators.build_s"] == 8.0
    assert metrics["generators.build_calls"] == 2
    assert metrics["cli.workers"] == 2


def test_unreached_spans_read_zero():
    metrics = spans.layer_metrics([_span(0, "cli.run", 0.0, 1.0)], owner_thread=1)
    assert metrics["render.field_calls"] == 0
    assert metrics["render.field_s"] == 0
    assert metrics["evolve.route_unitary"] == 0
    assert metrics["evolve.nonzero_sector_share"] == 0.0
    assert metrics["cli.workers"] == 1
    assert set(metrics) | {"trace.overhead_s", "check.classical_alpha_gap"} == set(
        run.per_layer_units())


def test_tracer_parents_worker_spans_to_the_waiting_span():
    tracer = spans.Tracer()
    both_inside = threading.Barrier(2, timeout=5)

    def work():
        with tracer.span("generators.build"):
            both_inside.wait()
            time.sleep(0.02)

    with tracer.span("cli.run") as root:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    builds = [s for s in tracer.spans if s["name"] == "generators.build"]
    assert [s["parent"] for s in builds] == [root["id"], root["id"]]
    assert len({s["thread"] for s in builds}) == 2
    own = spans.self_times(tracer.spans)
    union = spans.union_length([(s["start"], s["end"]) for s in builds], root["start"], root["end"])
    assert own[root["id"]] == pytest.approx(root["end"] - root["start"] - union)
    assert sum(s["end"] - s["start"] for s in builds) > union  # they overlapped
    assert spans.layer_metrics(tracer.spans, tracer.owner_thread)["cli.workers"] == 2


def test_wrapped_method_records_route_and_nonzero_sectors():
    class Prop:
        def __init__(self, L):
            self.route = "unitary"

        def trajectory(self, g0, times):
            return g0

    tracer = spans.Tracer()
    Prop.__init__ = tracer.wrap("evolve.factorize", Prop.__init__, after=spans._record_route)
    Prop.trajectory = tracer.wrap("evolve.propagate", Prop.trajectory,
                                  before=spans._record_nonzero)
    p = Prop(None)
    p.trajectory(np.zeros(3), [0.0])
    p.trajectory(g0=np.ones(3), times=[0.0])
    metrics = spans.layer_metrics(tracer.spans, tracer.owner_thread)
    assert metrics["evolve.route_unitary"] == 1
    assert metrics["evolve.propagate_calls"] == 2
    assert metrics["evolve.nonzero_sector_share"] == 0.5


# ---------------------------------------------------------------------------
# seeded configs

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_gives_the_same_config_every_time(name):
    w = WORKLOADS[name]
    for seed in (0, 1, 17, 2**40):
        assert make_config(w, seed) == make_config(w, seed)
    configs = {json.dumps(make_config(w, s)[0], sort_keys=True) for s in range(12)}
    assert len(configs) > 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_only_the_phase_of_alpha0(name):
    w = WORKLOADS[name]
    for seed in range(8):
        cfg, phasor, turns = make_config(w, seed)
        state = cfg.pop("state")
        base = dict(w.config)
        base_state = base.pop("state")
        assert cfg == base
        assert state["kappa"] == base_state["kappa"]
        alpha0 = complex(state["alpha0_re"], state["alpha0_im"])
        assert abs(alpha0) == pytest.approx(ALPHA0_ABS, rel=1e-15)
        assert alpha0 == phasor * ALPHA0_ABS
        if w.quarter_turns:
            assert turns in range(4) and phasor == 1j**turns
        else:
            assert turns == -1


# ---------------------------------------------------------------------------
# output checks

def _write_csv(path: Path, columns, rows):
    lines = ["# header line", ",".join(columns)]
    lines += [",".join(c if isinstance(c, str) else f"{c:.17g}" for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _outputs_from_reference(out: Path, workload: Workload, reference: dict, phasor: complex):
    """CLI-shaped outputs of a run at `phasor`, rebuilt from the phase-0 reference."""
    out.mkdir()
    times = np.linspace(0.0, np.pi, workload.steps)
    moment_cols = ["t", "dynamics", *checks.MOMENT_COLUMNS]
    rows = []
    for dyn in workload.dynamics:
        for t, (ra, ia, ra2, ia2, abs2, purity) in zip(times, reference["moments"][dyn]):
            a = phasor * complex(ra, ia)
            a2 = phasor**2 * complex(ra2, ia2)
            rows.append([t, dyn, a.real, a.imag, a2.real, a2.imag, abs2, purity])
    _write_csv(out / "moments.csv", moment_cols, rows)
    _write_csv(out / "validate.csv", ["t", "dynamics"], [row[:2] for row in rows])
    for key, name, cols in (("spectrum", "spectrum.csv",
                             ["lambda_max1", "lambda_max2", "lambda_min1", "lambda_min2"]),
                            ("negativity", "negativity.csv", ["sqneg"])):
        if key in reference:
            rows_k = [[t, dyn, *vals] for dyn in workload.dynamics
                      for t, vals in zip(times, reference[key][dyn])]
            _write_csv(out / name, ["t", "dynamics", *cols], rows_k)


@pytest.mark.parametrize("name", ["dynamics4", "double_n"])
def test_check_passes_on_rotated_reference_and_fails_when_corrupted(name, tmp_path):
    w = WORKLOADS[name]
    reference = run.load_reference(name)
    cfg, phasor, turns = make_config(w, 3)
    out = tmp_path / "out"
    _outputs_from_reference(out, w, reference, phasor)
    assert checks.check_outputs(w, cfg, out, phasor, turns, reference) == []

    # a wrong phase fails the covariance check
    assert checks.check_outputs(w, cfg, out, phasor * 1j, turns, reference)

    # one moment off by 1e-9 fails
    path = out / "moments.csv"
    good = path.read_text()
    lines = good.splitlines()
    cells = lines[10].split(",")
    cells[6] = f"{float(cells[6]) + 1e-9:.17g}"  # abs2
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_outputs(w, cfg, out, phasor, turns, reference)
    assert any("abs2" in p for p in problems)

    # a dropped row fails the row count
    path.write_text("\n".join(good.splitlines()[:-1]) + "\n")
    assert any("rows" in p for p in checks.check_outputs(w, cfg, out, phasor, turns, reference))

    # a missing file fails
    path.unlink()
    assert "missing moments.csv" in checks.check_outputs(w, cfg, out, phasor, turns, reference)


def test_quantum_closed_form_catches_a_wrong_quantum_curve(tmp_path):
    w = WORKLOADS["dynamics4"]
    reference = run.load_reference("dynamics4")
    cfg, phasor, turns = make_config(w, 5)
    out = tmp_path / "out"
    # output and reference wrong alike: covariance holds, only the closed form sees it
    wrong = json.loads(json.dumps(reference))
    wrong["moments"]["quantum"][20][0] += 1e-9
    _outputs_from_reference(out, w, wrong, phasor)
    problems = checks.check_outputs(w, cfg, out, phasor, turns, wrong)
    assert len(problems) == 1
    assert problems[0].startswith("quantum <alpha> closed form")


def test_field_check_rotates_and_catches_corrupt_files(tmp_path):
    from groenewold_lab.render import PhaseField, write_field_csv, write_mask_pgm, write_pgm

    grid = [-1.0, 1.0, -1.0, 1.0, 24, 24]
    w = Workload(
        name="tiny",
        why="test",
        config={"dynamics": ["quantum"], "times": {"steps": 2},
                "outputs": {"field": {"grid": grid, "time_list": [0.5]}}},
        quarter_turns=True,
    )
    rng = np.random.default_rng(0)
    base = rng.normal(size=(24, 24))
    stem = w.field_stems()[0]

    def write(out: Path, values):
        out.mkdir()
        field = PhaseField(grid=tuple(grid), values=values, negative_mask=values < 0.0,
                           total_mass=float(values.sum()))
        write_pgm(field, out / f"{stem}.pgm")
        write_field_csv(field, out / f"{stem}.csv")
        write_mask_pgm(field, out / f"{stem}_mask.pgm")

    write(tmp_path / "ref", base)
    reference = checks.make_reference(w, tmp_path / "ref")
    for turns in range(4):
        out = tmp_path / f"turn{turns}"
        write(out, np.rot90(base, -turns))
        assert checks.check_outputs(w, w.config, out, 1j**turns, turns, reference) == []
    out = tmp_path / "turn1"
    assert checks.check_outputs(w, w.config, out, 1j, 2, reference)  # wrong turn count

    # one cell off the reference subgrid, changed in the CSV only
    csv = out / f"{stem}.csv"
    text = csv.read_text()
    values = checks.read_field_csv(csv)
    values[3, 5] += 1e-6
    csv.write_text("".join(ln + "\n" for ln in text.splitlines() if ln.startswith("#"))
                   + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values))
    problems = checks.check_outputs(w, w.config, out, 1j, 1, reference)
    assert any(p.endswith(" sum: off by 1.000e-06 (tolerance 1e-09)") for p in problems)

    # one flipped pixel in the PGM
    out = tmp_path / "turn2"
    pgm = out / f"{stem}.pgm"
    data = bytearray(pgm.read_bytes())
    data[-1] ^= 0xFF
    pgm.write_bytes(bytes(data))
    assert any("does not match" in p for p in checks.check_outputs(
        w, w.config, out, -1, 2, reference))


# ---------------------------------------------------------------------------
# contract of the result line

def test_benchmark_json_names_match_the_metrics_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


def test_nonzero_exit_and_unreadable_output_count_as_failed(tmp_path):
    w = WORKLOADS["dynamics4"]
    cfg, phasor, turns = make_config(w, 1)
    out = tmp_path / "out"
    rec = run._run_and_check([sys.executable, "-c", "raise SystemExit(3)"], out, w, cfg,
                             phasor, turns, None)
    assert rec["problems"] == ["exit code 3"]
    out.mkdir()
    (out / "validate.csv").write_text("t,dynamics\n" + "0,quantum\n" * 256)
    (out / "moments.csv").write_text("t,dynamics,re_alpha\n" + "0,quantum,oops\n" * 256)
    rec = run._run_and_check([sys.executable, "-c", "pass"], out, w, cfg, phasor, turns, None)
    assert rec["code"] == 0
    assert rec["problems"][0].startswith("unreadable output:")
