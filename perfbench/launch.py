"""Child process of the benchmark: runs the `framesim` command line from source.

    python3 perfbench/launch.py --src SRC [--mark FILE] [--probe]
        [--trace-dir DIR --run-id ID] -- <framesim arguments>
    python3 perfbench/launch.py --src SRC --kernel OUT.json

`--mark` appends the CLOCK_MONOTONIC time of each entry into `run_scenario`
to FILE, from whichever process makes it (sweep workers included), so the
benchmark can measure set-up time.  `--probe` ends the run right there
with a simulation error (exit code 4): it measures set-up alone.
`--trace-dir` records spans (see spans.py).  `--kernel` times one split
step on each shipped array shape and writes ms per step as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

# Shipped array shapes and the shipped config whose run propagates each.
KERNEL_SHAPES = {
    "128x2x512": "configs/collision.json",
    "256x2x512": "configs/collision.json",
    "64x2x64x64": "configs/position_measurement.json",
}
KERNEL_STEPS = (2, 18)
KERNEL_REPEATS = 3


def _install_mark(cli, mark: str, probe: bool) -> None:
    from framesim.errors import PropagationError

    original = cli.run_scenario

    @functools.wraps(original)
    def marked(cfg):
        # time.monotonic is CLOCK_MONOTONIC on Linux: comparable across processes.
        with open(mark, "a", encoding="utf-8") as fh:
            fh.write(f"{time.monotonic()!r}\n")
        if probe:
            raise PropagationError("set-up probe: stopped at run_scenario")
        return original(cfg)

    cli.run_scenario = marked


class _Captured(Exception):
    def __init__(self, call):
        self.call = call


def _capture(config: Path, shape: str):
    """(psi0, h, dt) of the first propagation of `shape` in a shipped run.

    Propagations of other shapes return their initial state at once, so the
    scenario reaches the wanted one in well under a second.
    """
    from framesim import dynamics, scenarios

    original = dynamics.evolve_exact

    def capture(psi0, h, dt, steps, checkpoint_every=100):
        if "x".join(map(str, psi0.space.dims)) == shape:
            raise _Captured((psi0, h, dt))
        return original(psi0, h, dt, 0, checkpoint_every)

    scenarios.evolve_exact = dynamics.evolve_exact = capture
    try:
        raw = json.loads(config.read_text())
        scenarios.run_scenario(scenarios.ScenarioConfig.from_dict(raw))
    except _Captured as found:
        return original, found.call
    finally:
        scenarios.evolve_exact = dynamics.evolve_exact = original
    raise RuntimeError(f"no propagation of shape {shape} in {config}")


def kernel(root: Path) -> dict[str, float]:
    """Milliseconds per split step on each shipped shape.

    Each shape is propagated for each of KERNEL_STEPS steps, best of
    KERNEL_REPEATS; the difference of the two times, per step, leaves out
    the per-call set-up.
    """
    out = {}
    for shape, config in KERNEL_SHAPES.items():
        evolve, (psi0, h, dt) = _capture(root / config, shape)
        best = []
        for steps in KERNEL_STEPS:
            times = []
            for _ in range(KERNEL_REPEATS):
                started = time.perf_counter()
                evolve(psi0, h, dt, steps, steps)
                times.append(time.perf_counter() - started)
            best.append(min(times))
        lo, hi = KERNEL_STEPS
        out[shape] = 1e3 * (best[1] - best[0]) / (hi - lo)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--mark")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-dir")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--kernel")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if args.kernel:
        root = Path(args.src).parent
        Path(args.kernel).write_text(json.dumps(kernel(root)))
        return 0

    from framesim import cli

    if args.trace_dir:
        import spans

        rec = spans.Recorder(args.trace_dir, args.run_id)
        spans.install(rec)
    if args.mark:
        _install_mark(cli, args.mark, args.probe)
    return cli.main(args.argv)


if __name__ == "__main__":
    sys.exit(main())
