"""Spans around framesim's layer boundaries, recorded from outside the package.

`install` replaces framesim functions with wrappers at every name they are
called through.  `scenarios`, `frames` and `cli` bind imported names at load
time, so a function is wrapped where it is looked up (for example
`framesim.scenarios.evolve_exact` and, for the calls inside
`evolve_factorized`, `framesim.dynamics.evolve_exact`), never only where it
is defined.

Each span records its name, layer, start, end, parent span, run id and,
where the first argument is a state, its shape; propagations add their
steps, work and input fingerprint.  Spans stay in memory.  A process writes its finished spans to the trace
directory whenever its outermost span closes: for the launcher that is the
call to `cli.main`; for a sweep's pool worker it is the `_sweep_worker` call
around one `run_scenario`, so the spans are on disk before the pool can
terminate the worker.  After a fork the child starts an empty span list,
and its outermost spans name the span that was open in the parent.

`summarize` turns the span files of one traced run into per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

CM, INTERNAL = "A_cm", "A_int"
FREE_PARTICLES = ("S", "b")
PROFILE_PROBE = np.linspace(-30.0, 30.0, 601)


class Recorder:
    """In-memory spans of one process, written out when its root span ends."""

    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self._reset(parent=None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, parent):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.root_parent = parent
        self.count = 0
        self.flushes = 0

    def _after_fork(self):
        self._reset(parent=self.stack[-1]["id"] if self.stack else self.root_parent)

    def open(self, name: str, layer: str, **attrs) -> dict:
        self.count += 1
        parent = self.stack[-1]["id"] if self.stack else self.root_parent
        span = {
            "id": f"{self.pid}.{self.count}",
            "parent": parent,
            "run": self.run_id,
            "pid": self.pid,
            "name": name,
            "layer": layer,
            **attrs,
            "start": time.monotonic(),
        }
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self.spans.append(span)
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        if not self.spans:
            return
        self.flushes += 1
        path = self.out_dir / f"spans-{self.pid}-{self.flushes}.json"
        path.write_text(json.dumps(self.spans))
        self.spans = []


# ---------------------------------------------------------------------------
# What each wrapped call records
# ---------------------------------------------------------------------------

def _hamiltonian_digest(digest, space, h) -> None:
    digest.update(repr(sorted(h.kinetic.items())).encode())
    for label in sorted(h.potentials):
        spec = h.potentials[label]
        grid = space.factor(label).grid
        values = spec(grid.positions()) if callable(spec) else spec
        digest.update(label.encode() + np.asarray(values, float).tobytes())
    if h.internal is not None:
        label, matrix = h.internal
        digest.update(label.encode() + np.asarray(matrix, complex).tobytes())
    ia = h.interaction
    if ia is not None:
        digest.update(repr((ia.subject, ia.level, ia.anchor, ia.anchor_position)).encode())
        digest.update(np.asarray(ia.coupling, complex).tobytes())
        digest.update(np.asarray(ia.profile(PROFILE_PROBE), float).tobytes())
    digest.update(repr(h.hbar).encode())


def fingerprint(psi0, h, dt, steps) -> str:
    """Digest of everything that determines an `evolve_exact` propagation."""
    digest = hashlib.sha256()
    digest.update(repr((psi0.space, float(dt), int(steps))).encode())
    digest.update(np.ascontiguousarray(psi0.amplitudes).tobytes())
    _hamiltonian_digest(digest, psi0.space, h)
    return digest.hexdigest()


def _evolve_attrs(psi0, h, dt, steps, *args, **kwargs) -> dict:
    labels = psi0.space.labels
    if CM in labels and INTERNAL in labels:
        phase = "exact" if any(p in labels for p in FREE_PARTICLES) else "compounds"
    else:
        phase = "factorized"
    return {
        "shape": list(psi0.space.dims),
        "steps": int(steps),
        "amp_steps": int(psi0.amplitudes.size) * int(steps),
        "fingerprint": fingerprint(psi0, h, dt, steps),
        "default_phase": phase,
    }


def _evolve_result(result) -> dict:
    return {"checkpoint_bytes": sum(s.amplitudes.nbytes for _, s in result.trajectory)}


def _mass_attrs(cfg, mass, *args, **kwargs) -> dict:
    return {"mass": float(mass)}


# (name in framesim.scenarios, span name, layer, phase).  The private helpers
# in the second list are skipped if a later version no longer has them.
_SCENARIO_FUNCTIONS = [
    ("run_collision", "scenarios.run_collision", "scenarios", None),
    ("run_position_measurement", "scenarios.run_position_measurement", "scenarios", None),
    ("detect_partition", "scenarios.detect_partition", "scenarios", "partition"),
    ("evolve_factorized", "dynamics.evolve_factorized", "dynamics", "factorized"),
    ("factorization_residual", "dynamics.factorization_residual", "dynamics", None),
    ("fidelity_deficit", "dynamics.fidelity_deficit", "dynamics", "diagnostics"),
    ("total_energy", "dynamics.diag", "dynamics", "diagnostics"),
    ("interaction_energy", "dynamics.diag", "dynamics", "diagnostics"),
    ("lift_to_auxiliary", "frames.lift", "frames", None),
    ("extract_relative_state", "frames.extract", "frames", "frames"),
    ("transform_to_intrinsic", "frames.transform", "frames", "frames"),
    ("mixed_density_matrix", "frames.density", "frames", "frames"),
    ("reduced_density_matrix", "frames.density", "frames", "frames"),
    ("trace_distance", "frames.density", "frames", "frames"),
    ("schmidt_decompose", "schmidt.decompose", "schmidt", "frames"),
]
_PRIVATE_SCENARIO_FUNCTIONS = [
    ("_collision_residual", "scenarios.residual", "scenarios", "residual"),
    ("_check_three_periods", "scenarios.three_periods", "scenarios", "diagnostics"),
    ("_energy_drift", "scenarios.energy_drift", "scenarios", "diagnostics"),
]
HILBERT_FUNCTIONS = (
    "make_gaussian", "tensor_product", "superpose", "inner_product", "position_marginal",
)


def _wrapped(rec: Recorder, original, name: str, layer: str, phase=None,
             before=None, after=None):
    """`original` inside a span; `before`/`after` add attributes to the span."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        attrs = before(*args, **kwargs) if before else {}
        if phase is not None:
            attrs["phase"] = phase
        space = getattr(args[0], "space", None) if args else None
        if space is not None:
            attrs.setdefault("shape", list(space.dims))
        span = rec.open(name, layer, **attrs)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            span.update(after(result))
        return result

    return wrapper


def _wrap(rec: Recorder, owner, attr: str, name: str, layer: str, **kw) -> None:
    setattr(owner, attr, _wrapped(rec, getattr(owner, attr), name, layer, **kw))


def install(rec: Recorder) -> None:
    """Wrap framesim's layer boundaries; call before `cli.main` runs."""
    from framesim import cli, dynamics, frames, scenarios, schmidt

    for attr, name, layer, phase in _SCENARIO_FUNCTIONS:
        _wrap(rec, scenarios, attr, name, layer, phase=phase)
    for attr, name, layer, phase in _PRIVATE_SCENARIO_FUNCTIONS:
        if hasattr(scenarios, attr):
            _wrap(rec, scenarios, attr, name, layer, phase=phase)
    if hasattr(scenarios, "_collision_point"):
        _wrap(rec, scenarios, "_collision_point", "scenarios.mass_point", "scenarios",
              before=_mass_attrs)
    for module in (scenarios, dynamics):
        _wrap(rec, module, "evolve_exact", "dynamics.evolve_exact", "dynamics",
              before=_evolve_attrs, after=_evolve_result)
    _wrap(rec, frames, "schmidt_decompose", "schmidt.decompose", "schmidt")
    for module in (scenarios, frames):
        for attr in HILBERT_FUNCTIONS:
            if hasattr(module, attr):
                _wrap(rec, module, attr, f"hilbert.{attr}", "hilbert")
    _wrap(rec, schmidt.BranchSampler, "draw_many", "schmidt.sample", "schmidt",
          phase="frames")
    config = scenarios.ScenarioConfig
    config.from_dict = classmethod(
        _wrapped(rec, config.from_dict.__func__, "scenarios.config", "scenarios")
    )
    _wrap(rec, cli, "run_scenario", "scenarios.run_scenario", "scenarios")
    _wrap(rec, cli, "_execute", "cli.execute", "cli")
    _wrap(rec, cli, "_sweep_worker", "cli.sweep_worker", "cli")
    _wrap(rec, cli, "main", "cli.main", "cli")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def load_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems with span structure: unknown parents, children outside parents."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"{s['id']} {s['name']} ends before it starts")
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"{s['id']} {s['name']} has unknown parent {s['parent']}")
        elif parent is not None and not (
            parent["start"] <= s["start"] and s["end"] <= parent["end"]
        ):
            problems.append(f"{s['id']} {s['name']} lies outside its parent {parent['name']}")
    return problems


def phase_of(span: dict, by_id: dict) -> str | None:
    """The phase a span belongs to: its own, an ancestor's, or its default."""
    node = span
    while node is not None:
        if "phase" in node:
            return node["phase"]
        node = by_id.get(node["parent"])
    return span.get("default_phase")


PHASES = ("exact", "residual", "factorized", "frames", "diagnostics", "compounds")


def phase_totals(spans: list[dict], by_id: dict) -> dict[str, float]:
    """Seconds per phase, counting only the outermost span of each phase."""
    totals = dict.fromkeys(PHASES + ("partition",), 0.0)
    for s in spans:
        phase = phase_of(s, by_id)
        if phase is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is not None and phase_of(parent, by_id) == phase:
            continue
        totals[phase] += s["end"] - s["start"]
    return totals


def _under(span: dict, ancestor_id: str, by_id: dict) -> bool:
    node = by_id.get(span["parent"])
    while node is not None:
        if node["id"] == ancestor_id:
            return True
        node = by_id.get(node["parent"])
    return False


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced workload run."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def layer_self(layer):
        return sum(own[s["id"]] for s in spans if s["layer"] == layer)

    evolves = named("dynamics.evolve_exact")
    amp_steps = sum(s["amp_steps"] for s in evolves)
    groups = defaultdict(list)
    for s in evolves:
        groups[s["fingerprint"]].append(s["amp_steps"])
    dup = sum(sum(v[1:]) for v in groups.values())
    evolve_s = sum(s["end"] - s["start"] for s in evolves)
    phases = phase_totals(spans, by_id)
    hilbert = [s for s in spans if s["layer"] == "hilbert"]
    frames = [s for s in spans if s["layer"] == "frames"]
    metrics = {
        "dynamics.evolve_s": evolve_s,
        "dynamics.evolve_calls": len(evolves),
        "dynamics.amp_steps": amp_steps,
        "dynamics.ns_per_amp_step": 1e9 * evolve_s / amp_steps if amp_steps else 0.0,
        "dynamics.diag_s": total("dynamics.diag"),
        "dynamics.diag_calls": len(named("dynamics.diag")),
        "dynamics.checkpoint_bytes": sum(s["checkpoint_bytes"] for s in evolves),
        "scenarios.run_s": total("scenarios.run_scenario"),
        "scenarios.self_s": layer_self("scenarios"),
        "scenarios.config_s": total("scenarios.config"),
        "scenarios.mass_points": len(named("scenarios.mass_point"))
        + len(named("scenarios.run_position_measurement")),
        "scenarios.dup_amp_steps": dup,
        "scenarios.useful_ratio": 1.0 - dup / amp_steps if amp_steps else 1.0,
    }
    for phase in PHASES:
        metrics[f"scenarios.phase.{phase}_s"] = phases[phase]
    metrics.update({
        "scenarios.partition_s": phases["partition"],
        "frames.extract_s": total("frames.extract"),
        "frames.transform_s": total("frames.transform"),
        "frames.density_s": total("frames.density"),
        "frames.calls": len(frames),
        "schmidt.decompose_s": total("schmidt.decompose"),
        "schmidt.decompose_calls": len(named("schmidt.decompose")),
        "schmidt.sample_s": total("schmidt.sample"),
        "hilbert.s": sum(s["end"] - s["start"] for s in hilbert),
        "hilbert.calls": len(hilbert),
        "cli.self_s": layer_self("cli"),
    })
    return metrics


def phase_table(spans: list[dict]) -> list[str]:
    """Rows of the baseline phase table for one traced run."""
    by_id = {s["id"]: s for s in spans}
    rows = []
    for point in sorted(
        (s for s in spans if s["name"] == "scenarios.mass_point"), key=lambda s: s["start"]
    ):
        inside = [point] + [s for s in spans if _under(s, point["id"], by_id)]
        t = phase_totals(inside, by_id)
        rows.append(
            f"phase collision mass {point['mass']:g}: exact {t['exact']:.2f} s, "
            f"residual {t['residual']:.2f} s, factorized {t['factorized']:.2f} s, "
            f"frames+density {t['frames']:.3f} s, diagnostics {t['diagnostics']:.3f} s, "
            f"total {point['end'] - point['start']:.2f} s"
        )
    for run in (s for s in spans if s["name"] == "scenarios.run_position_measurement"):
        evolve = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "dynamics.evolve_exact" and _under(s, run["id"], by_id)
        )
        run_s = run["end"] - run["start"]
        rows.append(
            f"phase measurement: {run_s:.2f} s, of which evolve_exact "
            f"{evolve:.2f} s ({100.0 * evolve / run_s:.1f}%)"
        )
    return rows
