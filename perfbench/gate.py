"""Correctness gate for one workload run's output directory.

A run passes when `framesim` and `framesim verify` both exit 0, its report
fields meet the acceptance bounds of the test suite, its seed-independent
fields match the reference values recorded in `references.json`, and its
report bytes equal those of the other runs with the same seed.  Problems
are returned as strings; nothing here raises on a bad report.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

NORM_DRIFT_BOUND = 1e-9
# Acceptance bound at the shipped dt; Strang splitting's energy error is
# second order in dt, so the bound scales with (dt / SHIPPED_DT)^2.
ENERGY_DRIFT_BOUND = 1e-6
SHIPPED_DT = 0.004
RESIDUAL_SLOPE_BOUND = -0.8
TRACE_DISTANCE_BOUND = 1e-3
SCHMIDT_IDENTITY_BOUND = 1e-10
BRANCH_DEFICIT_BOUND = 1e-6
COMPOUND_OVERLAP_BOUND = 1e-3
# Allowed distance of an empirical frequency from its probability, in
# binomial standard deviations.  At 5 sigma a correct run trips it about
# once in 1.7 million; the tests' 3 sigma would trip once in 370.
FREQUENCY_SIGMAS = 5.0
# Reference comparison: |value - reference| <= RTOL * |reference| + ATOL.
# Rounding-only changes to the arithmetic stay far inside it; ATOL absorbs
# fields that are pure rounding noise (norm drift, identity distances).
RTOL = 1e-6
ATOL = 1e-12
# Fields drawn by the branch sampler, which depend on the workload seed.
SEED_FIELDS = {"empirical_frequencies", "outcome_counts"}

REPORT = "report.jsonl"


def report_paths(out_dir: Path) -> list[Path]:
    """The report of a `run`, or the per-value reports of a `sweep`."""
    single = out_dir / REPORT
    return [single] if single.exists() else sorted(out_dir.glob(f"run-*/{REPORT}"))


def load_reports(out_dir: Path) -> list[list[dict]]:
    return [
        [json.loads(line) for line in path.read_text().splitlines() if line]
        for path in report_paths(out_dir)
    ]


def _bounds(reports: list[list[dict]], dt: float) -> list[str]:
    problems = []
    energy_bound = ENERGY_DRIFT_BOUND * (dt / SHIPPED_DT) ** 2
    records = [r for recs in reports for r in recs]
    points = [r for r in records if r["record"] == "collision_point"]
    measurements = [r for r in records if r["record"] == "measurement"]
    for rec in points + measurements:
        if rec["norm_drift"] > NORM_DRIFT_BOUND:
            problems.append(f"norm drift {rec['norm_drift']:.3e} > {NORM_DRIFT_BOUND:g}")
        if rec["energy_drift"] > energy_bound:
            problems.append(f"energy drift {rec['energy_drift']:.3e} > {energy_bound:.3g}")
    if points:
        points.sort(key=lambda p: p["mass"])
        deficits = [p["fidelity_deficit"] for p in points]
        residuals = [p["residual_norm"] for p in points]
        if not all(b < a for a, b in zip(deficits, deficits[1:])):
            problems.append(f"fidelity deficits not strictly decreasing: {deficits}")
        if not all(b < a for a, b in zip(residuals, residuals[1:])):
            problems.append(f"residual norms not strictly decreasing: {residuals}")
        if len(points) > 1:
            masses = [p["mass"] for p in points]
            slope = float(np.polyfit(np.log(masses), np.log(residuals), 1)[0])
            if slope > RESIDUAL_SLOPE_BOUND:
                problems.append(f"residual slope {slope:.3f} > {RESIDUAL_SLOPE_BOUND}")
        if points[-1]["trace_distance"] > TRACE_DISTANCE_BOUND:
            problems.append(f"trace distance {points[-1]['trace_distance']:.3e} at the "
                            f"heaviest mass > {TRACE_DISTANCE_BOUND:g}")
        worst = max(p["schmidt_identity_distance"] for p in points)
        if worst > SCHMIDT_IDENTITY_BOUND:
            problems.append(f"Schmidt identity distance {worst:.3e} > {SCHMIDT_IDENTITY_BOUND:g}")
    for rec in measurements:
        worst = max(rec["branch_b_fidelity_deficits"][:2])
        if worst > BRANCH_DEFICIT_BOUND:
            problems.append(f"branch deficit {worst:.3e} > {BRANCH_DEFICIT_BOUND:g}")
        if rec["compound_overlap"] > COMPOUND_OVERLAP_BOUND:
            problems.append(f"compound overlap {rec['compound_overlap']:.3e} > "
                            f"{COMPOUND_OVERLAP_BOUND:g}")
        n = rec["trials"]
        for p, f in zip(rec["outcome_probabilities"], rec["empirical_frequencies"]):
            limit = FREQUENCY_SIGMAS * math.sqrt(p * (1.0 - p) / n)
            if abs(f - p) > limit:
                problems.append(f"frequency {f} is {abs(f - p):.4f} from {p:.4f} "
                                f"(> {FREQUENCY_SIGMAS:g} sigma = {limit:.4f})")
    return problems


def seed_free(reports: list[list[dict]]) -> list[list[dict]]:
    """Reports without the fields that depend on the workload seed."""
    return [[{k: v for k, v in rec.items() if k not in SEED_FIELDS} for rec in recs]
            for recs in reports]


def _compare(value, ref, path: str, problems: list[str]) -> None:
    if isinstance(ref, dict) and isinstance(value, dict):
        if set(value) != set(ref):
            problems.append(f"{path}: keys {sorted(set(value) ^ set(ref))} differ")
            return
        for key in ref:
            _compare(value[key], ref[key], f"{path}.{key}", problems)
    elif isinstance(ref, list) and isinstance(value, list):
        if len(value) != len(ref):
            problems.append(f"{path}: length {len(value)} != {len(ref)}")
            return
        for i, (v, r) in enumerate(zip(value, ref)):
            _compare(v, r, f"{path}[{i}]", problems)
    elif (isinstance(ref, (int, float)) and not isinstance(ref, bool)
          and isinstance(value, (int, float)) and not isinstance(value, bool)):
        if not abs(value - ref) <= RTOL * abs(ref) + ATOL:
            problems.append(f"{path}: {value!r} differs from reference {ref!r}")
    elif value != ref:
        problems.append(f"{path}: {value!r} differs from reference {ref!r}")


def check(out_dir: Path, dt: float, reference, baseline: list[bytes] | None) -> list[str]:
    """Problems with one finished run's reports (exit codes are checked by the caller).

    `reference` is the recorded seed-free report list, or None to skip that
    check; `baseline` is the report bytes of an earlier run with the same
    seed, or None for the first run.
    """
    paths = report_paths(out_dir)
    if not paths:
        return ["no report written"]
    try:
        reports = load_reports(out_dir)
        problems = _bounds(reports, dt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"report unreadable or incomplete: {exc!r}"]
    if reference is not None:
        _compare(seed_free(reports), reference, "report", problems)
    if baseline is not None and [p.read_bytes() for p in paths] != baseline:
        problems.append("report bytes differ from an earlier run with the same seed")
    return problems
