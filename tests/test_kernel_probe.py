"""The benchmark's kernel probe (`perfbench/launch.py --kernel`) finds each
shipped array shape by intercepting the first propagation of that shape in
a shipped run.  A change to the scenarios that removes such a propagation
would make `perfbench/run.py --trace 1` fail; this catches it here."""

from __future__ import annotations

import importlib.util
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
