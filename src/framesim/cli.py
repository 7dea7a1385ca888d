"""Command-line front end: run scenarios, sweep parameters, verify outputs.

Configs are JSON documents validated against the scenario schema; reports
are JSON-lines record streams; plot tables are comma-separated files with a
one-line header.  A manifest records the canonical config digest, seeds,
tool version, output paths, a digest of the report bytes, and wall-clock
timings.  Reports contain no timestamps, so identical configs and seeds
reproduce byte-identical report files; timings live only in the manifest.

Exit codes: 0 success, 2 config parse error, 3 validation error, 4 runtime
simulation error (including a numpy LinAlgError or a MemoryError during the
run), 5 verification failure (missing, corrupt, or inconsistent reports).

The environment variable FRAMESIM_WORKERS selects the sweep worker-pool
size, a positive integer; unset or 1 means sequential execution.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from numpy.linalg import LinAlgError

from . import __version__
from .errors import FrameSimError, ValidationError
from .scenarios import ScenarioConfig, run_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4
EXIT_VERIFY = 5

REPORT_NAME = "report.jsonl"
MANIFEST_NAME = "manifest.json"

PROBABILITY_SUM_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
HERMITICITY_LIMIT = 1e-10


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _plain(value):
    """Coerce report values to JSON-serializable python scalars/containers."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool):
        return value
    if hasattr(value, "item"):
        return _plain(value.item())
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    return value


def canonical_config_text(raw: dict) -> str:
    """Sorted-key, normalized-number JSON form used for hashing."""
    return json.dumps(_plain(raw), sort_keys=True, separators=(",", ":"))


def config_digest(raw: dict) -> str:
    return hashlib.sha256(canonical_config_text(raw).encode("utf-8")).hexdigest()


def _dump_records(records: list[dict]) -> bytes:
    lines = [
        json.dumps(_plain(rec), sort_keys=True, separators=(",", ":"))
        for rec in records
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_report(out_dir: Path, records: list[dict]) -> tuple[Path, str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / REPORT_NAME
    payload = _dump_records(records)
    path.write_bytes(payload)
    return path, hashlib.sha256(payload).hexdigest()


def _write_manifest(out_dir: Path, manifest: dict) -> Path:
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(_plain(manifest), sort_keys=True, indent=2) + "\n")
    return path


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_number(v) for v in row))
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


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

# A run that fails with one of these ends with exit 4 and one stderr line.
SIMULATION_ERRORS = (FrameSimError, LinAlgError, MemoryError)


def _simulation_error(exc: BaseException) -> int:
    detail = exc if isinstance(exc, FrameSimError) else f"{type(exc).__name__}: {exc}"
    print(f"simulation error: {detail}", file=sys.stderr)
    return EXIT_RUNTIME


def _execute(raw: dict, cfg: ScenarioConfig, out_dir: Path) -> dict:
    started = time.perf_counter()
    report = run_scenario(cfg)
    elapsed = time.perf_counter() - started
    records = report.to_records()
    report_path, digest = _write_report(out_dir, records)
    manifest = {
        "tool_version": __version__,
        "config_digest": config_digest(raw),
        "config": _plain(raw),
        "seeds": [cfg.seeds.branch],
        "outputs": {"report": report_path.name},
        "report_digest": digest,
        "timings": {"run_seconds": elapsed},
    }
    _write_manifest(out_dir, manifest)
    return manifest


def cmd_run(
    config_path: str,
    out_dir: str,
    overrides: list[str] | None = None,
    seed: int | None = None,
) -> int:
    try:
        raw, cfg = _prepare_config(config_path, overrides or [], seed)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        _execute(raw, cfg, Path(out_dir))
    except SIMULATION_ERRORS as exc:
        return _simulation_error(exc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_worker(args: tuple[dict, str]) -> dict:
    raw, scenario_dir = args
    cfg = ScenarioConfig.from_dict(raw)
    return _execute(raw, cfg, Path(scenario_dir))


def _summary_fields(record_stream: list[dict]) -> dict:
    """Pull the per-run summary numbers used in sweep tables."""
    out = {"fidelity_deficit": None, "residual_norm": None, "trace_distance": None}
    for rec in record_stream:
        if rec.get("record") == "collision_summary":
            out["fidelity_deficit"] = rec["fidelity_deficits"][-1]
            out["residual_norm"] = rec["residual_norms"][-1]
            out["trace_distance"] = rec["trace_distances"][-1]
        elif rec.get("record") == "collision_point":
            out["fidelity_deficit"] = rec["fidelity_deficit"]
            out["residual_norm"] = rec["residual_norm"]
            out["trace_distance"] = rec["trace_distance"]
    return out


def cmd_sweep(
    config_path: str,
    param: str,
    values: list[float],
    out_dir: str,
    seed: int | None = None,
) -> int:
    try:
        raw_base, _ = _prepare_config(config_path, [], seed)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not values:
        print("validation error: sweep needs at least one value", file=sys.stderr)
        return EXIT_VALIDATION
    setting = os.environ.get("FRAMESIM_WORKERS", "") or "1"
    workers = int(setting) if setting.isdecimal() else 0
    if workers < 1:
        print(f"validation error: FRAMESIM_WORKERS must be a positive integer, "
              f"got {setting!r}", file=sys.stderr)
        return EXIT_VALIDATION

    jobs = []
    try:
        for i, value in enumerate(values):
            raw = json.loads(json.dumps(raw_base))
            # Sweeping the heavy mass replaces the whole sweep list; the
            # packet dispersion then rescales as 1/sqrt(mass) per run.
            if param == "center_of_mass.masses":
                apply_override(raw, param, [value])
            else:
                apply_override(raw, param, value)
            ScenarioConfig.from_dict(raw)  # validate before launching anything
            jobs.append((raw, str(Path(out_dir) / f"run-{i:03d}")))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if workers > 1:
            from multiprocessing import Pool

            with Pool(workers) as pool:
                manifests = pool.map(_sweep_worker, jobs)
        else:
            manifests = [_sweep_worker(job) for job in jobs]
    except SIMULATION_ERRORS as exc:
        return _simulation_error(exc)

    base = Path(out_dir)
    summary_rows = []
    for i, value in enumerate(values):
        report_path = base / f"run-{i:03d}" / REPORT_NAME
        records = [
            json.loads(line) for line in report_path.read_text().splitlines() if line
        ]
        fields = _summary_fields(records)
        summary_rows.append(
            [
                value,
                fields["fidelity_deficit"],
                fields["residual_norm"],
                fields["trace_distance"],
            ]
        )
    header = [param, "fidelity_deficit", "residual_norm", "trace_distance"]
    clean_rows = [
        [v if v is not None else float("nan") for v in row] for row in summary_rows
    ]
    _write_table(base / "summary.csv", header, clean_rows)
    for col, name in ((1, "fidelity_deficit"), (2, "residual_norm"), (3, "trace_distance")):
        _write_table(
            base / "plots" / f"{name}.csv",
            [param, name],
            [[row[0], row[col]] for row in clean_rows],
        )
    sweep_manifest = {
        "tool_version": __version__,
        "sweep_param": param,
        "values": list(values),
        "runs": [f"run-{i:03d}" for i in range(len(values))],
        "run_digests": [m["report_digest"] for m in manifests],
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
            payload = report_path.read_bytes()
            records = [
                json.loads(line) for line in payload.decode("utf-8").splitlines() if line
            ]
        except (json.JSONDecodeError, OSError) as exc:
            failures.append(f"{label}: corrupt report or manifest ({exc})")
            continue
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest.get("report_digest"):
            failures.append(f"{label}: report digest mismatch")
        for i, rec in enumerate(records):
            for problem in _verify_record(rec):
                failures.append(f"{label}: record {i}: {problem}")
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
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            print(f"validation error: bad sweep values: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        return cmd_sweep(args.config, args.param, values, args.out, args.seed)
    return cmd_verify(args.out_dir)


def entry_point() -> None:
    raise SystemExit(main())
