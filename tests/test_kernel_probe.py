"""The benchmark reaches into framesim by name.  Its kernel probe
(`perfbench/launch.py --kernel`) finds each shipped array shape by
intercepting the first propagation of that shape in a shipped run, and its
tracer (`perfbench/spans.py`) wraps functions at the names they are called
through.  A change to the scenarios that removes such a propagation or
renames such a function would make `perfbench/run.py --trace 1` fail; these
tests catch it here."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_launch():
    spec = importlib.util.spec_from_file_location(
        "perfbench_launch", ROOT / "perfbench" / "launch.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("shape, config", [
    ("128x2x512", "configs/collision.json"),
    ("256x2x512", "configs/collision.json"),
    ("64x2x64x64", "configs/position_measurement.json"),
])
def test_kernel_probe_finds_shipped_shape(shape, config):
    # Propagations of other shapes run zero steps inside _capture.
    _, (psi0, h, dt) = load_launch()._capture(ROOT / config, shape)
    assert "x".join(map(str, psi0.space.dims)) == shape
    assert dt > 0.0


def test_tracer_installs(tmp_path):
    # In a process of its own: install rebinds names in the framesim modules.
    code = "import sys, spans; spans.install(spans.Recorder(sys.argv[1], 'probe'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


TRACED_RUN = """
import sys, spans
from framesim import cli
spans.install(spans.Recorder(sys.argv[1], "guard"))
sys.exit(cli.main(["run", sys.argv[2], "--out", sys.argv[3]]))
"""


@pytest.mark.parametrize("scenario", ["collision", "measurement"])
def test_traced_run_records_what_the_tracer_reads(tmp_path, scenario):
    # The tracer reads its span attributes from the arguments and results of
    # the names it wraps while a run is under way.
    from conftest import fast_collision_dict, fast_measurement_dict

    raw = fast_collision_dict() if scenario == "collision" else fast_measurement_dict()
    config, trace = tmp_path / "config.json", tmp_path / "trace"
    config.write_text(json.dumps(raw))
    trace.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(trace), str(config), str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    spans = [s for path in sorted(trace.glob("spans-*.json"))
             for s in json.loads(path.read_text())]
    evolves = [s for s in spans if s["name"] == "dynamics.evolve_exact"]
    assert evolves and all(s["checkpoint_bytes"] > 0 for s in evolves)
    points = [s["mass"] for s in spans if s["name"] == "scenarios.mass_point"]
    assert points == (raw["center_of_mass"]["masses"] if scenario == "collision" else [])


def test_kernel_probe_times_the_anchor_resolved_step():
    # The 256x2x512 probe times the residual window's step on the grid: the
    # coupling g(x - X) anchored to the window's positions, which no kinetic
    # term moves.
    _, (psi0, h, _) = load_launch()._capture(ROOT / "configs/collision.json", "256x2x512")
    assert psi0.space.has("A_cm")
    assert h.interaction.anchor == "A_cm"
    assert "A_cm" not in h.kinetic
