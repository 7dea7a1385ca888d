"""End-to-end benchmark of the `framesim` command line, with an optional traced run.

    python3 perfbench/run.py --workload collision --seed 1 --seconds 50 --trace 0

Run from a checkout of the repository; the program is run from its `src/`.
Each timed run is a fresh `framesim` process, as a user would start it
(workloads.py says which).  A run of the benchmark repeats that process
while another one still fits in `--seconds` (at least once), then starts
SETUP_PROBES more that stop at the entry into `run_scenario`.

End-to-end metrics (`--trace 0`), medians over the processes of one run:
  run_s        wall seconds from launching a process to its exit
  setup_s      seconds from launch to the first entry into `run_scenario`
               (interpreter start, imports, config load and validation;
               for a sweep also the worker pool start)
  peak_rss_mb  peak resident set of the process tree, from wait4's rusage:
               the largest of the CLI process and its pool workers
Every timed process goes through the correctness gate (gate.py); failures
count in `failed` against `attempted` and in the printed fail_frac.

`--trace 1` runs the workload once untraced and once traced (spans.py),
times one split step per shipped shape in another process, and prints the
per-layer metrics and the baseline phase table.  `--full` runs the shipped
configs as-is; `--record` stores the first run's seed-free reports as the
reference values in references.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import spans
from workloads import (
    DROPPED, WORKLOADS, Workload, derive_config, expected_counts, load_config,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 10
# Every process of one run is killed at this deadline, so a run ends in time.
RUN_DEADLINE_S = 170.0
FULL_DEADLINE_S = 1800.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Sample:
    code: int
    run_s: float
    setup_s: float | None
    rss_mb: float
    out: Path
    problems: list[str] = field(default_factory=list)


class Bench:
    """One benchmark run of one workload, in its own scratch directory."""

    def __init__(self, workload: Workload, raw: dict, seed: int, work: Path,
                 deadline_s: float = RUN_DEADLINE_S):
        self.workload = workload
        self.raw = raw
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + deadline_s
        self.count = 0
        work.mkdir(parents=True)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(raw, indent=2))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(dict.fromkeys(THREAD_VARS, "1"))
        env["FRAMESIM_WORKERS"] = str(workload.workers)
        self.env = env

    def path(self, prefix: str) -> Path:
        """A new, numbered path in the scratch directory."""
        self.count += 1
        return self.work / f"{prefix}-{self.count}"

    def spawn(self, args: list[str]) -> tuple[int, float, float, float]:
        """Run launch.py to completion: (exit code, start, seconds, peak RSS MB)."""
        log = self.path("log")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("the run's deadline has passed")
        with open(log, "wb") as fh:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), "--src", str(ROOT / "src"), *args],
                cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        return proc.returncode, started, elapsed, usage.ru_maxrss / 1024.0

    def _framesim(self, out: Path, extra: list[str]) -> Sample:
        mark = self.path("mark")
        argv = self.workload.command(str(self.config), str(out), self.seed)
        code, started, elapsed, rss = self.spawn(["--mark", str(mark), *extra, "--", *argv])
        setup = None
        if mark.exists():
            setup = min(float(t) for t in mark.read_text().split()) - started
        return Sample(code, elapsed, setup, rss, out)

    def probe(self) -> float | None:
        """Seconds of set-up before `run_scenario`, from a probe process."""
        sample = self._framesim(self.path("probe"), ["--probe"])
        return sample.setup_s

    def run(self, reference, baseline, trace_dir: Path | None = None, tamper=None) -> Sample:
        """One timed `framesim` process, then its correctness gate."""
        out = self.path("out")
        extra = ["--trace-dir", str(trace_dir), "--run-id", out.name] if trace_dir else []
        sample = self._framesim(out, extra)
        if tamper is not None:
            tamper(out)
        if sample.code != 0:
            sample.problems.append(f"framesim exited with code {sample.code}")
        verify, _, _, _ = self.spawn(["--", "verify", str(out)])
        if verify != 0:
            sample.problems.append(f"framesim verify exited with code {verify}")
        sample.problems += gate.check(out, self.raw["dt"], reference, baseline)
        if sample.setup_s is None:
            sample.problems.append("run_scenario was never entered")
        return sample


def _kill_group(pgid: int) -> None:
    """Kill what is left of a launched process group and wait until it is gone."""
    give_up = time.monotonic() + 10.0
    while time.monotonic() < give_up:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _report_bytes(out: Path) -> list[bytes]:
    return [p.read_bytes() for p in gate.report_paths(out)]


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def machine_facts(seed: int) -> dict:
    import numpy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft": "pocketfft" if hasattr(numpy.fft, "_pocketfft") else "unknown",
        "seed": seed,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                facts[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(bench: Bench, seconds: float, reference, tamper=None) -> tuple[dict, list[Sample]]:
    """Timed runs for `seconds`, then set-up probes: the end-to-end metrics."""
    bench.probe()  # warm-up: bytecode and file caches, as a user's later runs see them
    samples: list[Sample] = []
    baseline = None
    started = time.monotonic()
    while True:
        sample = bench.run(reference, baseline, tamper=tamper)
        samples.append(sample)
        if baseline is None:
            baseline = _report_bytes(sample.out)
        typical = statistics.median(s.run_s for s in samples)
        if time.monotonic() - started + typical > seconds:
            break
    setups = [s.setup_s for s in samples]
    setups += [bench.probe() for _ in range(SETUP_PROBES)]
    setups = [s for s in setups if s is not None]
    metrics = {
        "run_s": _stats([s.run_s for s in samples]),
        "setup_s": _stats(setups),
        "peak_rss_mb": _stats([s.rss_mb for s in samples]),
    }
    counts = {"run_s": len(samples), "setup_s": len(setups), "peak_rss_mb": len(samples)}
    units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for name, (med, q1, q3) in metrics.items():
        print(f"{name}: median {med:.4f} {units[name]} (q1 {q1:.4f}, q3 {q3:.4f}, "
              f"n={counts[name]})")
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    return {name: _metric(v[0], units[name]) for name, v in metrics.items()}, samples


def trace(bench: Bench, reference, full_raw: dict) -> tuple[dict, list[Sample], list[str]]:
    """One untraced and one traced run, plus kernel timings: per-layer metrics."""
    bench.probe()
    plain = bench.run(reference, None)
    trace_dir = bench.work / "trace"
    trace_dir.mkdir()
    traced = bench.run(reference, _report_bytes(plain.out), trace_dir=trace_dir)
    kernel_out = bench.work / "kernel.json"
    code, _, _, _ = bench.spawn(["--kernel", str(kernel_out)])
    all_spans = spans.load_spans(trace_dir)
    problems = spans.check_nesting(all_spans)
    if code != 0:
        problems.append(f"kernel timing exited with code {code}")
    if not all_spans:
        problems.append("the traced run recorded no spans")
    if problems:
        return {}, [plain, traced], problems
    kernel = json.loads(kernel_out.read_text())
    layer = spans.summarize(all_spans)
    for shape, ms in kernel.items():
        layer[f"dynamics.step_ms.{shape}"] = ms
    manifests = [p.with_name("manifest.json") for p in gate.report_paths(plain.out)]
    scenario_s = sum(json.loads(m.read_text())["timings"]["run_seconds"]
                     for m in manifests if m.exists())
    layer["cli.report_bytes"] = sum(len(b) for b in _report_bytes(traced.out))
    layer["cli.sweep.parallel_eff"] = scenario_s / (bench.workload.workers * plain.run_s)
    layer["trace.overhead"] = traced.run_s / plain.run_s - 1.0

    for row in spans.phase_table(all_spans):
        print(row)
    for shape, ms in kernel.items():
        print(f"kernel {shape}: {ms:.2f} ms per step")
    expected = expected_counts(bench.workload, bench.raw, full_raw)
    moved = {k: (layer[k], v) for k, v in expected.items() if layer[k] != v}
    print("exact counts " + ("match the counts recorded with the benchmark" if not moved
                             else f"moved from the recorded counts (now, then): {moved}"))
    return layer, [plain, traced], []


# Per-layer metrics of a traced run: unit and which direction is better.
PER_LAYER = {
    "dynamics.evolve_s": ("s", "lower"),
    "dynamics.evolve_calls": ("count", "lower"),
    "dynamics.amp_steps": ("count", "lower"),
    "dynamics.ns_per_amp_step": ("ns", "lower"),
    "dynamics.step_ms.128x2x512": ("ms", "lower"),
    "dynamics.step_ms.256x2x512": ("ms", "lower"),
    "dynamics.step_ms.64x2x64x64": ("ms", "lower"),
    "dynamics.diag_s": ("s", "lower"),
    "dynamics.diag_calls": ("count", "lower"),
    "dynamics.checkpoint_bytes": ("B", "lower"),
    "scenarios.run_s": ("s", "lower"),
    "scenarios.self_s": ("s", "lower"),
    "scenarios.config_s": ("s", "lower"),
    "scenarios.mass_points": ("count", "higher"),
    "scenarios.dup_amp_steps": ("count", "lower"),
    "scenarios.useful_ratio": ("ratio", "higher"),
    "scenarios.phase.exact_s": ("s", "lower"),
    "scenarios.phase.residual_s": ("s", "lower"),
    "scenarios.phase.factorized_s": ("s", "lower"),
    "scenarios.phase.frames_s": ("s", "lower"),
    "scenarios.phase.diagnostics_s": ("s", "lower"),
    "scenarios.phase.compounds_s": ("s", "lower"),
    "scenarios.partition_s": ("s", "lower"),
    "frames.extract_s": ("s", "lower"),
    "frames.transform_s": ("s", "lower"),
    "frames.density_s": ("s", "lower"),
    "frames.calls": ("count", "lower"),
    "schmidt.decompose_s": ("s", "lower"),
    "schmidt.decompose_calls": ("count", "lower"),
    "schmidt.sample_s": ("s", "lower"),
    "hilbert.s": ("s", "lower"),
    "hilbert.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "cli.sweep.parallel_eff": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="run the shipped config as-is (baseline regeneration)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's seed-free reports as the reference")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "framesim").is_dir() or not (ROOT / workload.config).is_file():
        print(f"perfbench: no framesim sources or {workload.config} under {ROOT}",
              file=sys.stderr)
        return 2
    full_raw = load_config(ROOT, workload)
    raw = derive_config(full_raw, args.full)
    key = f"{workload.name}@full" if args.full else workload.name
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reference = None if args.record else references.get(key)
    if reference is None and not args.record:
        print(f"perfbench: no reference values for {key} in {REFERENCES.name}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    bench = Bench(workload, raw, args.seed, work,
                  deadline_s=FULL_DEADLINE_S if args.full else RUN_DEADLINE_S)
    try:
        return _report(args, bench, reference, references, full_raw, key)
    except TimeoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _report(args, bench: Bench, reference, references: dict, full_raw: dict, key: str) -> int:
    """Run the benchmark and print its result lines; the JSON result is last."""
    raw = bench.raw
    print(f"perfbench {key}: dt {raw['dt']:.6g}, checkpoint_every "
          f"{raw['checkpoint_every']}, seed {args.seed}, {args.seconds:g} s")
    print("machine: " + json.dumps(machine_facts(args.seed), sort_keys=True))
    for name, why in DROPPED.items():
        print(f"dropped from the timed workloads: {name} ({why})")
    if args.trace:
        metrics, samples, problems = trace(bench, reference, full_raw)
        if problems:
            for line in problems:
                print(f"perfbench: trace: {line}", file=sys.stderr)
            return 1
        metrics = {k: _metric(metrics[k], unit) for k, (unit, _) in PER_LAYER.items()}
    else:
        metrics, samples = measure(bench, args.seconds, reference)
    failed = sum(1 for s in samples if s.problems)
    for i, s in enumerate(samples, 1):
        for line in s.problems:
            print(f"run {i} failed the gate: {line}")
    print(f"fail_frac: {failed}/{len(samples)} = {failed / len(samples):g} (ratio)")
    if args.record:
        references[key] = gate.seed_free(gate.load_reports(samples[0].out))
        REFERENCES.write_text(json.dumps(references, sort_keys=True) + "\n")
        print(f"recorded reference values for {key}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
