"""Run every workload and print each end-to-end metric by name, unit and sample count.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1,2,3] [--trace] [--write FILE]

For each workload and seed it makes one benchmark run of BENCHMARK.json's
run_seconds (run.py's measure, output checks included) and prints, per end-to-end metric, the median
and quartiles of every sample pooled over the seeds, the sample count,
and the spread of the per-run medians (interquartile range over median,
the figure the bounds in BENCHMARK.json are set against). failed_share
counts runs that exited nonzero or failed a check. --trace adds one
traced run per workload and prints its per-layer metrics and any span
target that could not be patched. --write saves
the whole table as JSON. Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import (END_TO_END_UNITS, ROOT, WORKLOADS, BenchError, fingerprint, measure,
                 per_layer_units, summarize)


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def report(names: list[str], seeds: list[int], seconds: float, trace: bool) -> dict:
    table: dict = {}
    for name in names:
        records = [measure(name, seed, seconds, False) for seed in seeds]
        row = {}
        for key, unit in END_TO_END_UNITS.items():
            pooled = [v for r in records for v in r["samples"][key]]
            medians = [r["summary"][key]["median"] for r in records]
            row[key] = {**summarize(pooled), "unit": unit, "spread": spread(medians),
                        "run_medians": medians}
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        row["failed_share"] = {"value": failed / attempted, "n": attempted, "unit": "ratio"}
        row["problems"] = {f"seed{r['seed']}": r["problems"] for r in records if r["problems"]}
        if trace:
            traced = measure(name, seeds[0], seconds, True)
            row["per_layer"] = traced["per_layer"]
            row["missing_spans"] = traced["missing_spans"]
        table[name] = row
        _print_row(name, row)
    return {"seeds": seeds, "seconds": seconds, "fingerprint": fingerprint(), "workloads": table}


def _print_row(name: str, row: dict) -> None:
    for key in (*END_TO_END_UNITS, "failed_share"):
        st = row[key]
        value = st.get("median", st.get("value"))
        line = f"{name:10} {key:13} {value:12.6g} {st['unit']:6} n={st['n']}"
        if "q1" in st:
            line += f"  q1={st['q1']:.6g} q3={st['q3']:.6g}"
        if st.get("spread") is not None:
            line += f"  spread={st['spread']:.4f}"
        print(line, flush=True)
    units = per_layer_units()
    for key, value in row.get("per_layer", {}).items():
        print(f"{name:10} {key:34} {value:12.6g} {units[key]}", flush=True)
    if row.get("missing_spans"):
        print(f"{name:10} spans not installed, their metrics read 0: "
              f"{', '.join(row['missing_spans'])}", flush=True)
    for run_name, problems in row["problems"].items():
        print(f"{name:10} FAILED {run_name}: {'; '.join(problems)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds (default 1)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", help="save the table as JSON to this file")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    try:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
        result = report(names, seeds, seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.write:
        with open(args.write, "w", encoding="ascii") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 1 if any(row["failed_share"]["value"] for row in result["workloads"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
