"""The benchmark's workloads: which shipped config each one runs, and how.

Every workload runs a shipped config from `configs/` through the `framesim`
command line, as a user would.  By default the time step is raised by
STEP_SCALE (0.004 -> 1/60, still inside the anti-aliasing bound of both
configs) and `checkpoint_every` lowered by the same factor, so each run makes
6/25 of the shipped steps.  Grids, masses, checkpoint times, phases and call
structure stay as shipped; only the number of steps per propagation shrinks.
This keeps one collision run near 40 s, so that a full set of timed runs
fits the benchmark's time budget.  `--full` runs the configs exactly as
shipped (about 140 s, 75 s and 50 s) to regenerate the baseline numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# dt is multiplied and checkpoint_every divided by this factor.
STEP_SCALE = Fraction(25, 6)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    """Shipped config, relative to the checkout root."""
    full_counts: dict
    """Exact work counts of the shipped config run as-is."""
    sweep_values: tuple[float, ...] | None = None
    workers: int = 1

    def command(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        """`framesim` arguments for one run."""
        if self.sweep_values is None:
            return ["run", config_path, "--out", out_dir, "--seed", str(seed)]
        values = ",".join(f"{v:g}" for v in self.sweep_values)
        return [
            "sweep", config_path, "--param", "center_of_mass.masses",
            "--values", values, "--out", out_dir, "--seed", str(seed),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="collision",
            why="shipped 3-mass collision: mass-independent propagations repeat "
            "per mass, 2-4 MB states at the L2 size",
            config="configs/collision.json",
            full_counts={
                "dynamics.amp_steps": 1_774_656_000,
                "scenarios.dup_amp_steps": 789_504_000,
                "dynamics.evolve_calls": 12,
            },
        ),
        Workload(
            name="measurement",
            why="shipped measurement: one mass, an 8 MB 4-factor state with three "
            "FFT axes, no repeated propagation",
            config="configs/position_measurement.json",
            full_counts={
                "dynamics.amp_steps": 540_864_000,
                "scenarios.dup_amp_steps": 0,
                "dynamics.evolve_calls": 6,
            },
        ),
        Workload(
            name="mass-sweep",
            why="collision swept over 2 masses in 2 worker processes: repeats "
            "cross processes, both cores busy",
            config="configs/collision.json",
            sweep_values=(100.0, 10000.0),
            workers=2,
            full_counts={
                "dynamics.amp_steps": 1_183_104_000,
                "scenarios.dup_amp_steps": 394_752_000,
                "dynamics.evolve_calls": 8,
            },
        ),
    )
}


# Workloads left out of BENCHMARK.json, and why.  They still run by name.
DROPPED = {
    "mass-sweep": "its two worker processes keep both cores busy; on a 2-vCPU "
    "virtual machine shared with other tenants its run time drifted by a third "
    "within half an hour, more than a bound can absorb; collision runs the same "
    "code on one core",
}


def derive_config(raw: dict, full: bool) -> dict:
    """The config a workload runs: shipped as-is, or with fewer, longer steps."""
    raw = json.loads(json.dumps(raw))
    if not full:
        raw["dt"] = float(Fraction(raw["dt"]).limit_denominator(10**6) * STEP_SCALE)
        every = Fraction(raw["checkpoint_every"]) / STEP_SCALE
        if every.denominator != 1:
            raise ValueError("checkpoint_every does not scale to a whole number")
        raw["checkpoint_every"] = int(every)
    return raw


def steps_of(raw: dict) -> int:
    """Steps per propagation, as the scenarios compute them."""
    return int(round(raw["schedule"]["t_final"] / raw["dt"]))


def expected_counts(workload: Workload, raw: dict, full_raw: dict) -> dict:
    """Exact counts for `raw`, scaled from the shipped counts by the step ratio.

    Every propagation of a workload makes the same number of steps, so the
    amplitude-step counts scale exactly with it; the call count does not.
    """
    ratio = Fraction(steps_of(raw), steps_of(full_raw))
    out = {}
    for key, value in workload.full_counts.items():
        scaled = value * ratio if key != "dynamics.evolve_calls" else Fraction(value)
        if scaled.denominator != 1:
            raise ValueError(f"{key} does not scale to a whole number")
        out[key] = int(scaled)
    return out


def load_config(root: Path, workload: Workload) -> dict:
    with open(root / workload.config, encoding="utf-8") as fh:
        return json.load(fh)
