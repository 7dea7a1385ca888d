"""Command-line front end: run scenarios, sweep parameters, verify outputs.

Configs are JSON documents validated against the scenario schema; reports
are JSON-lines record streams; plot tables are comma-separated files with a
one-line header.  A manifest records the canonical config digest, seeds,
tool version, output paths, a digest of the report bytes, wall-clock
timings, and the BLAS thread settings (BLAS_THREAD_VARS).  Reports contain
no timestamps, so identical configs, seeds and BLAS threads reproduce
byte-identical report files; timings live only in the manifest.
A sweep runs the config once per value, each run as `run` does it, and
builds its tables from the records the runs return (SWEEP_COLUMNS).

Exit codes: 0 success, 2 config parse error, 3 validation error (also bad
sweep values or FRAMESIM_WORKERS), 4 runtime simulation error (including a
numpy LinAlgError or a MemoryError during the run, and a sweep worker that
dies), 5 verification failure (missing, corrupt, or inconsistent reports).

The environment variable FRAMESIM_WORKERS selects the sweep worker-pool
size, a positive integer; unset or 1 means sequential execution.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from numpy.linalg import LinAlgError

from . import __version__
from .errors import FrameSimError, PropagationError, ValidationError
from .scenarios import ScenarioConfig, run_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4
EXIT_VERIFY = 5

REPORT_NAME = "report.jsonl"
MANIFEST_NAME = "manifest.json"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBABILITY_SUM_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
HERMITICITY_LIMIT = 1e-10


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def canonical_config_text(raw: dict) -> str:
    """Sorted-key compact JSON form used for hashing."""
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def _sha256(data: bytes) -> str:
    """Hex sha256 of data.  hashlib is imported on first use, not with the
    module: it loads libcrypto (about 3.6 MiB resident), which a run needs
    only after the simulation, and so past its memory peak."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def config_digest(raw: dict) -> str:
    return _sha256(canonical_config_text(raw).encode("utf-8"))


def _write_report(out_dir: Path, records: list[dict]) -> tuple[Path, str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / REPORT_NAME
    lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(payload)
    return path, _sha256(payload)


def _write_manifest(out_dir: Path, manifest: dict) -> Path:
    manifest = {**manifest, "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _peak_rss_mb() -> float | None:
    """The process's peak resident set so far in MB (KiB / 1024, as
    getrusage counts it on Linux), or None where there is no `resource`
    module."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS counts ru_maxrss in bytes, Linux in KiB.
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(map(_format_number, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Config loading and overrides
# ---------------------------------------------------------------------------

def _load_config_dict(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise json.JSONDecodeError("top-level config must be an object", "", 0)
    return raw


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_override(raw: dict, dotted_key: str, value) -> None:
    """Set a nested config entry addressed by a dotted path."""
    parts = dotted_key.split(".")
    node = raw
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ValidationError(f"unknown config key {dotted_key!r}")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ValidationError(f"unknown config key {dotted_key!r}")
    node[parts[-1]] = value


def _prepare_config(
    config_path: str, overrides: list[str], seed: int | None
) -> tuple[dict, ScenarioConfig]:
    raw = _load_config_dict(config_path)
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        apply_override(raw, key.strip(), _parse_override_value(value.strip()))
    if seed is not None:
        apply_override(raw, "seeds.branch", int(seed))
    return raw, ScenarioConfig.from_dict(raw)


def _checked(prepare, *args):
    """prepare(*args) and exit 0, or None and exit 2 (config parse error) or 3
    (validation error) after one stderr line.  Every command prepares this
    way, so a bad input ends before any simulation starts."""
    try:
        return prepare(*args), EXIT_OK
    except (json.JSONDecodeError, OSError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

# A run that fails with one of these ends with exit 4 and one stderr line.
SIMULATION_ERRORS = (FrameSimError, LinAlgError, MemoryError)


def _simulation_error(exc: BaseException) -> int:
    detail = exc if isinstance(exc, FrameSimError) else f"{type(exc).__name__}: {exc}"
    print(f"simulation error: {detail}", file=sys.stderr)
    return EXIT_RUNTIME


def _execute(raw: dict, cfg: ScenarioConfig, out_dir: Path) -> tuple[dict, list[dict]]:
    """Run one scenario into out_dir; return its manifest and report records."""
    started = time.perf_counter()
    report = run_scenario(cfg)
    elapsed = time.perf_counter() - started
    peak_rss_mb = _peak_rss_mb()
    records = report.to_records()
    report_path, digest = _write_report(out_dir, records)
    manifest = {
        "tool_version": __version__,
        "config_digest": config_digest(raw),
        "config": raw,
        "seeds": [cfg.seeds.branch],
        "outputs": {"report": report_path.name},
        "report_digest": digest,
        "timings": {"run_seconds": elapsed},
        "resources": {"peak_rss_mb": peak_rss_mb},
    }
    _write_manifest(out_dir, manifest)
    return manifest, records


def cmd_run(config_path: str, out_dir: str, overrides: list[str] | None = None,
            seed: int | None = None) -> int:
    prepared, code = _checked(_prepare_config, config_path, overrides or [], seed)
    if code:
        return code
    try:
        _execute(*prepared, Path(out_dir))
    except SIMULATION_ERRORS as exc:
        return _simulation_error(exc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# The sweep table columns of each scenario: the record that holds them, and
# per column the record field it takes.  A list field gives the run's last
# mass, in config order.
SWEEP_COLUMNS = {
    "collision_summary": {
        name: name + "s" for name in ("fidelity_deficit", "residual_norm", "trace_distance")
    },
    "measurement": {
        name: name for name in ("coefficient_error", "overlap_weight", "absorbed_mass")
    },
}


def _sweep_worker(args: tuple[dict, ScenarioConfig, str]) -> tuple[dict, list[dict]]:
    raw, cfg, scenario_dir = args
    return _execute(raw, cfg, Path(scenario_dir))


def _sweep_jobs(
    config_path: str, param: str, values: list, out_dir: str, seed: int | None
) -> tuple[list[float], list[tuple[dict, ScenarioConfig, str]], int]:
    """The sweep's values, one (config, its decoded form, run directory) job
    per value, and the worker count; every value is decoded and validated
    once, before anything runs."""
    try:
        values = [float(v) for v in values]
    except ValueError as exc:
        raise ValidationError(f"bad sweep values: {exc}") from None
    raw_base, _ = _prepare_config(config_path, [], seed)
    if not values:
        raise ValidationError("sweep needs at least one value")
    setting = os.environ.get("FRAMESIM_WORKERS", "") or "1"
    if not setting.isdecimal() or int(setting) < 1:
        raise ValidationError(
            f"FRAMESIM_WORKERS must be a positive integer, got {setting!r}"
        )
    jobs = []
    for i, value in enumerate(values):
        raw = json.loads(json.dumps(raw_base))
        # Sweeping the heavy mass replaces the whole sweep list; the
        # packet dispersion then rescales as 1/sqrt(mass) per run.
        apply_override(raw, param, [value] if param == "center_of_mass.masses" else value)
        cfg = ScenarioConfig.from_dict(raw)
        jobs.append((raw, cfg, str(Path(out_dir) / f"run-{i:03d}")))
    return values, jobs, int(setting)


def _sweep_results(jobs: list[tuple[dict, ScenarioConfig, str]], workers: int) -> list:
    """_sweep_worker of each job, in a process pool when workers > 1.  A dead
    pool worker is a simulation error; an error cancels unstarted jobs."""
    if workers == 1:
        return [_sweep_worker(job) for job in jobs]
    # Imported here, so that runs and sequential sweeps do not pay for it.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(min(workers, len(jobs)))
    try:
        return list(pool.map(_sweep_worker, jobs))
    except BrokenProcessPool as exc:
        raise PropagationError(f"{type(exc).__name__}: {exc}")
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_sweep(
    config_path: str, param: str, values: list, out_dir: str, seed: int | None = None
) -> int:
    """Run the config once per value of param (numbers, or their text)."""
    prepared, code = _checked(_sweep_jobs, config_path, param, values, out_dir, seed)
    if code:
        return code
    values, jobs, workers = prepared
    try:
        results = _sweep_results(jobs, workers)
    except SIMULATION_ERRORS as exc:
        return _simulation_error(exc)

    rows = []
    for value, (_, records) in zip(values, results):
        rec = next(r for r in records if r["record"] in SWEEP_COLUMNS)
        columns = SWEEP_COLUMNS[rec["record"]]
        cells = [rec[field] for field in columns.values()]
        rows.append([value] + [c[-1] if isinstance(c, list) else c for c in cells])
    base = Path(out_dir)
    _write_table(base / "summary.csv", [param, *columns], rows)
    for col, name in enumerate(columns, start=1):
        _write_table(base / "plots" / f"{name}.csv", [param, name],
                     [[row[0], row[col]] for row in rows])
    sweep_manifest = {
        "tool_version": __version__,
        "sweep_param": param,
        "values": values,
        "runs": [Path(run_dir).name for *_, run_dir in jobs],
        "run_digests": [manifest["report_digest"] for manifest, _ in results],
        "outputs": {"summary": "summary.csv"},
    }
    _write_manifest(base, sweep_manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_probability_list(name: str, values: list) -> list[str]:
    problems = []
    if any(v < -1e-12 for v in values):
        problems.append(f"{name} contains negative entries")
    if abs(sum(values) - 1.0) > PROBABILITY_SUM_TOL:
        problems.append(f"{name} sums to {sum(values)!r}, not 1")
    return problems


def _non_finite(name: str) -> float:
    """json's parse_constant hook: NaN and +-Infinity pass every check below
    (each comparison with them is false), so they make a report corrupt."""
    raise ValueError(f"non-finite number {name}")


def _verify_record(rec: dict) -> list[str]:
    problems = []
    kind = rec.get("record")
    if kind == "collision_point":
        problems += _check_probability_list(
            "branch_probabilities", rec["branch_probabilities"]
        )
        eigs = rec["rho_eigenvalues"]
        if abs(sum(eigs) - 1.0) > PROBABILITY_SUM_TOL:
            problems.append("rho_eigenvalues do not sum to 1")
        if min(eigs) < EIGENVALUE_FLOOR:
            problems.append("rho_eigenvalues contain a negative eigenvalue")
        if abs(rec["rho_trace"] - 1.0) > PROBABILITY_SUM_TOL:
            problems.append("rho_trace differs from 1")
        if rec["rho_hermiticity_error"] > HERMITICITY_LIMIT:
            problems.append("rho_hermiticity_error exceeds the limit")
    elif kind == "collision_summary":
        d = rec["trace_distances"]
        recomputed = all(b <= a for a, b in zip(d, d[1:]))
        if bool(rec["trace_distance_non_increasing"]) != recomputed:
            problems.append("trace_distance monotonicity flag is inconsistent")
        f = rec["fidelity_deficits"]
        if bool(rec["fidelity_strictly_decreasing"]) != all(
            b < a for a, b in zip(f, f[1:])
        ):
            problems.append("fidelity monotonicity flag is inconsistent")
        r = rec["residual_norms"]
        if bool(rec["residual_strictly_decreasing"]) != all(
            b < a for a, b in zip(r, r[1:])
        ):
            problems.append("residual monotonicity flag is inconsistent")
    elif kind == "measurement":
        problems += _check_probability_list(
            "outcome_probabilities", rec["outcome_probabilities"]
        )
        problems += _check_probability_list(
            "empirical_frequencies", rec["empirical_frequencies"]
        )
        if sum(rec["outcome_counts"]) != rec["trials"]:
            problems.append("outcome_counts do not sum to trials")
    elif kind == "partition":
        if rec["found"]:
            total = sum(c**2 for c in rec["c_coefficients"])
            total += sum(d**2 for d in rec["d_coefficients"])
            if abs(total - 1.0) > PROBABILITY_SUM_TOL:
                problems.append("partition coefficient weights do not sum to 1")
    return problems


def cmd_verify(out_dir: str) -> int:
    base = Path(out_dir)
    reports = sorted(base.rglob(REPORT_NAME))
    if not reports:
        print("verification failed: no reports found", file=sys.stderr)
        return EXIT_VERIFY
    failures = []
    for report_path in reports:
        manifest_path = report_path.parent / MANIFEST_NAME
        label = str(report_path.relative_to(base))
        if not manifest_path.exists():
            failures.append(f"{label}: missing manifest")
            continue
        try:
            manifest = json.loads(manifest_path.read_text())
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not an object")
            payload = report_path.read_bytes()
            records = [
                json.loads(line, parse_constant=_non_finite)
                for line in payload.decode("utf-8").splitlines() if line
            ]
        except (ValueError, OSError) as exc:  # JSON and UTF-8 decode errors are ValueErrors
            failures.append(f"{label}: corrupt report or manifest ({exc})")
            continue
        digest = _sha256(payload)
        if digest != manifest.get("report_digest"):
            failures.append(f"{label}: report digest mismatch")
        for i, rec in enumerate(records):
            try:
                problems = _verify_record(rec)
            except (AttributeError, LookupError, TypeError, ValueError) as exc:
                problems = [f"malformed ({type(exc).__name__}: {exc})"]
            failures += [f"{label}: record {i}: {problem}" for problem in problems]
    if failures:
        for line in failures:
            print(f"verification failed: {line}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verified {len(reports)} report(s): all invariants hold")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framesim",
        description="Collision and measurement experiments for a microscopic "
        "system coupled to a heavy apparatus.",
    )
    parser.add_argument("--version", action="version", version=f"framesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE")
    run_p.add_argument("--seed", type=int, default=None)

    sweep_p = sub.add_parser("sweep", help="run one config over a list of values")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--seed", type=int, default=None)

    verify_p = sub.add_parser("verify", help="re-check invariants of stored reports")
    verify_p.add_argument("out_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.overrides, args.seed)
    if args.command == "sweep":
        values = [v for v in args.values.split(",") if v.strip()]
        return cmd_sweep(args.config, args.param, values, args.out, args.seed)
    return cmd_verify(args.out_dir)


def entry_point() -> None:
    raise SystemExit(main())
