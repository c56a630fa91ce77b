"""The benchmark's workloads and the seeded configs they generate.

A seed picks only the phase of the initial displacement alpha0. Every
flow commutes with a phase rotation, so the work done does not depend on
the seed while the output values do: <alpha> turns by e^{i phi},
<alpha^2> by e^{2 i phi}, and rotation-invariant quantities stay put.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass

ALPHA0_ABS = 0.5
PI = 3.141592653589793

_SEXTIC = {"K": 3, "b": [0.0, 0.0, 0.0, 1.0], "mu": 0.5}
_QUARTIC = {"K": 2, "b": [0.0, 0.0, 1.0], "mu": 0.5}
_TIMES = {"t0": 0.0, "t1": PI, "steps": 64}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # phase-0 config; the seed rotates alpha0 only
    quarter_turns: bool  # True: phases are multiples of pi/2 (fields stay on the grid)

    @property
    def dynamics(self) -> list[str]:
        return list(self.config["dynamics"])

    @property
    def steps(self) -> int:
        return self.config["times"]["steps"]

    @property
    def outputs(self) -> dict:
        return self.config["outputs"]

    def field_stems(self) -> list[str]:
        fld = self.outputs.get("field")
        if not fld:
            return []
        return [f"field_{d}_{t:.12g}" for d in self.dynamics for t in fld["time_list"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dynamics4",
            why="fig3: all four dynamics at N=128; generator build and factorization dominate, "
                "and the default thread pool runs 4 workers",
            config={
                "model": _SEXTIC,
                "state": {"kappa": 2.0, "alpha0_re": ALPHA0_ABS, "alpha0_im": 0.0},
                "truncation": {"N": 128, "guard": 16, "tail_tol": 1e-10},
                "dynamics": ["quantum", "semiquantum1", "classical", "semiclassical1"],
                "times": _TIMES,
                "outputs": {"moments": True, "validate": True},
            },
            quarter_turns=False,
        ),
        Workload(
            name="fields",
            why="fig2: four 256x256 quantum Wigner fields; render dominates and generators, "
                "evolve and the thread pool are bypassed",
            config={
                "model": _QUARTIC,
                "state": {"kappa": 2.0, "alpha0_re": ALPHA0_ABS, "alpha0_im": 0.0},
                "truncation": {"N": 128, "guard": 16, "tail_tol": 1e-10},
                "dynamics": ["quantum"],
                "times": {"t0": 0.0, "t1": PI, "steps": 5},
                "outputs": {
                    "field": {
                        "grid": [-4.0, 4.0, -4.0, 4.0, 256, 256],
                        "time_list": [PI / 4, PI / 2, 3 * PI / 4, PI],
                    }
                },
            },
            quarter_turns=True,
        ),
        Workload(
            name="double_n",
            why="fig3 classical flow at N=256 with spectra and negativity: the problem-size "
                "axis, full snapshots and Hermitian eigensolves",
            config={
                "model": _SEXTIC,
                "state": {"kappa": 2.0, "alpha0_re": ALPHA0_ABS, "alpha0_im": 0.0},
                "truncation": {"N": 256, "guard": 16, "tail_tol": 1e-10},
                "dynamics": ["classical"],
                "times": _TIMES,
                "outputs": {
                    "moments": True,
                    "validate": True,
                    "spectrum": {"k": 2},
                    "negativity": True,
                },
            },
            quarter_turns=False,
        ),
    )
}

_QUARTER = [(ALPHA0_ABS, 0.0), (0.0, ALPHA0_ABS), (-ALPHA0_ABS, 0.0), (0.0, -ALPHA0_ABS)]


def phase_of_seed(workload: Workload, seed: int) -> tuple[float, float, int]:
    """(alpha0_re, alpha0_im, quarter turns) for a seed; turns is -1 off the quarter grid."""
    rng = random.Random(seed)
    if workload.quarter_turns:
        turns = rng.randrange(4)
        re, im = _QUARTER[turns]
        return re, im, turns
    phi = 2.0 * math.pi * rng.random()
    return ALPHA0_ABS * math.cos(phi), ALPHA0_ABS * math.sin(phi), -1


def make_config(workload: Workload, seed: int) -> tuple[dict, complex, int]:
    """Config for a seed, the unit phasor e^{i phi} and the quarter turns (or -1)."""
    re, im, turns = phase_of_seed(workload, seed)
    cfg = copy.deepcopy(workload.config)
    cfg["state"]["alpha0_re"] = re
    cfg["state"]["alpha0_im"] = im
    return cfg, complex(re, im) / ALPHA0_ABS, turns
