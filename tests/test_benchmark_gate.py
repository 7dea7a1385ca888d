"""The benchmark's correctness gate, run on the benchmark's own configs.

`perfbench/run.py` times each workload on a derived config (fewer, longer
steps) and checks every run with `perfbench/gate.py`, whose seed-free
fields must match `perfbench/references.json` within its RTOL of 1e-6.
These tests run the same configs and the same check in the suite, so a
change that moves a reported field past the gate fails here first.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from framesim.cli import EXIT_OK, cmd_run

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["collision", "measurement"])
def test_benchmark_config_passes_the_gate(workload, tmp_path):
    gate, workloads = load_perfbench("gate"), load_perfbench("workloads")
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    spec = workloads.WORKLOADS[workload]
    raw = workloads.derive_config(workloads.load_config(ROOT, spec), full=False)
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(raw))
    assert cmd_run(str(config), str(out)) == EXIT_OK
    assert gate.check(out, raw["dt"], references[workload], None) == []
