"""Regenerate the committed phase-0 references the output checks compare against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once with alpha0 real (phase 0) and writes
perfbench/reference/<workload>.json. Regenerate only in a change that
means to alter the program's numbers, and say by how much they moved.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, CLI, WORK, timed_process
from workloads import WORKLOADS
import checks


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        run_dir = WORK / f"reference-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(workload.config, indent=2), encoding="ascii")
        out = run_dir / "out"
        rec = timed_process([sys.executable, "-c", CLI, "run", str(cfg_path), "--out", str(out)],
                            run_dir / "run.log")
        problems = [f"exit code {rec['code']}"] if rec["code"] else checks.check_outputs(
            workload, workload.config, out, 1.0, 0, None)
        if problems:
            print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(checks.make_reference(workload, out)) + "\n", encoding="ascii")
        print(f"wrote {path.relative_to(BENCH.parent)} ({rec['wall_s']:.1f} s run)")
        shutil.rmtree(run_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
