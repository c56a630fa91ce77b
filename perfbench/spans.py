"""In-memory spans around the program's layer boundaries.

The tracer wraps public functions at the module where the program looks
each name up (for example groenewold_lab.cli.wigner_field), so a traced
run executes the same code as an untraced one. Each span records name,
start, end, parent and thread id. A span's parent is the innermost open
span on its own thread; a span on a worker thread with nothing open there
is parented to the innermost open span of the thread that installed the
tracer, which is the one waiting on the workers.

Self time is a span's duration minus the union of its children's
intervals, so children running side by side on several threads are not
subtracted twice.

Run as a script it is the traced benchmark process: it installs the
spans, calls groenewold_lab.cli.main in-process with the remaining
arguments, writes the spans as JSON and exits with main's return code:

    python3 perfbench/spans.py SPANS.json run CONFIG.json --out DIR
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

ROUTES = ("identity", "diagonal", "unitary", "diagonalizable", "stepping")

# (module, attribute path, span name); methods are patched on their class.
TARGETS = (
    ("groenewold_lab.cli", "validate_config", "cli.config"),
    ("groenewold_lab.cli", "run", "cli.run"),
    ("groenewold_lab.cli", "groenewold_from_gaussian", "states.synthesis"),
    ("groenewold_lab.model", "ModelSpec.number_coefficients", "model.number_coefficients"),
    ("groenewold_lab.evolve", "all_generator_blocks", "generators.build"),
    ("groenewold_lab.evolve", "BlockPropagator.__init__", "evolve.factorize"),
    ("groenewold_lab.evolve", "BlockPropagator.trajectory", "evolve.propagate"),
    ("groenewold_lab.evolve", "Trajectory.matrix", "evolve.matrix"),
    ("groenewold_lab.cli", "moment_track", "observables.moments"),
    ("groenewold_lab.cli", "moment_width_variant", "observables.moments"),
    ("groenewold_lab.cli", "spectrum_extremes", "observables.spectra"),
    ("groenewold_lab.cli", "squared_negativity", "observables.negativity"),
    ("groenewold_lab.cli", "wigner_field", "render.field"),
    ("groenewold_lab.cli", "whorl_phase_field", "render.field"),
    ("groenewold_lab.cli", "write_pgm", "render.write"),
    ("groenewold_lab.cli", "write_field_csv", "render.write"),
    ("groenewold_lab.cli", "write_mask_pgm", "render.write"),
)

SPAN_NAMES = (
    "cli.config", "cli.run", "states.synthesis", "model.number_coefficients",
    "generators.build", "evolve.factorize", "evolve.propagate", "evolve.matrix",
    "observables.moments", "observables.spectra", "observables.negativity",
    "render.field", "render.write",
)


def metric_prefix(name: str) -> str:
    """cli.run's self time is orchestration and CSV output: cli.run_self_s."""
    return "cli.run_self" if name == "cli.run" else name


class Tracer:
    """Collects spans from any thread; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.owner_thread = threading.get_ident()
        self._owner_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        elif self._owner_stack:
            parent = self._owner_stack[-1]["id"]
        else:
            parent = None
        rec = {"id": next(self._ids), "name": name, "parent": parent,
               "thread": threading.get_ident(), "start": time.perf_counter()}
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if before is not None:
                    before(rec, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args)
                return result

        return traced


def _record_route(rec, args):
    rec["route"] = args[0].route


def _record_nonzero(rec, args, kwargs):
    g0 = args[1] if len(args) > 1 else kwargs.get("g0")
    rec["nonzero"] = bool(np.any(g0))


_HOOKS = {
    "evolve.factorize": {"after": _record_route},
    "evolve.propagate": {"before": _record_nonzero},
}


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; names that no longer exist go to tracer.missing."""
    for module_name, path, name in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, tracer.wrap(name, fn, **_HOOKS.get(name, {})))


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - union_length(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def layer_metrics(spans: list[dict], owner_thread: int) -> dict[str, float]:
    """Per-layer metrics: self seconds and calls per span name, routes, workers, sectors.

    Every metric is present; a span that was never reached reads 0.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        prefix = metric_prefix(name)
        hits = [s for s in spans if s["name"] == name]
        out[f"{prefix}_s"] = sum(own[s["id"]] for s in hits)
        out[f"{prefix}_calls"] = len(hits)
    routes = [s.get("route") for s in spans if s["name"] == "evolve.factorize"]
    for route in ROUTES:
        out[f"evolve.route_{route}"] = routes.count(route)
    propagated = [s["nonzero"] for s in spans if s["name"] == "evolve.propagate"]
    out["evolve.nonzero_sector_share"] = sum(propagated) / len(propagated) if propagated else 0.0
    workers = {s["thread"] for s in spans
               if not s["name"].startswith("cli.") and s["thread"] != owner_thread}
    out["cli.workers"] = max(1, len(workers))
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from groenewold_lab import cli

    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump({"owner_thread": tracer.owner_thread, "missing": tracer.missing,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
