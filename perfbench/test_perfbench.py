"""Tests of the benchmark itself, on a shrunken collision config.

    python3 -m pytest perfbench

The shrunken config keeps the collision's structure (two masses, so the
mass-independent propagations repeat) on small grids and 300 steps; one
run takes about two seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gate
import run
import spans
from workloads import DROPPED, WORKLOADS, Workload, derive_config, load_config, steps_of

ROOT = Path(__file__).resolve().parent.parent


def counts_for(raw: dict, sweep_values=None) -> dict:
    """Exact work counts that follow from a config's shapes and steps."""
    steps = steps_of(raw)
    levels = raw["internal"]["dim"]
    cm = raw["center_of_mass"]
    if raw["scenario"] == "collision":
        masses = len(sweep_values or cm["masses"])
        light = raw["particle"]["grid"]["points"]
        exact = cm["points"] * levels * light
        residual = cm["residual_points"] * levels * light
        relative = levels * light
        per_mass = exact + residual + relative + cm["points"]
        return {
            "dynamics.amp_steps": masses * per_mass * steps,
            "scenarios.dup_amp_steps": (masses - 1) * (residual + relative) * steps,
            "dynamics.evolve_calls": 4 * masses,
        }
    a = raw["measurement"]["a"]["grid"]["points"]
    b = raw["measurement"]["b"]["grid"]["points"]
    compound = cm["points"] * levels * a
    return {
        "dynamics.amp_steps": (compound * b + cm["points"] + 2 * b + 2 * compound) * steps,
        "scenarios.dup_amp_steps": 0,
        "dynamics.evolve_calls": 6,
    }


def tiny_collision() -> dict:
    raw = load_config(ROOT, WORKLOADS["collision"])
    raw["dt"] = 0.02
    raw["checkpoint_every"] = 25
    raw["schedule"]["t_initial"] = 0.5
    raw["center_of_mass"].update(
        masses=[100.0, 1000.0], points=64, half_width_sigmas=8.0, residual_points=32
    )
    raw["particle"]["grid"]["points"] = 256
    raw["particle"]["mass"] = 2.0
    raw["particle"]["packet"]["p0"] = 10.0
    return raw


def tiny_workload(**changes) -> Workload:
    base = replace(WORKLOADS["collision"], name="tiny", **changes)
    return replace(base, full_counts=counts_for(tiny_collision(), base.sweep_values))


def _bench(tmp_path, name, workload, seed=5) -> run.Bench:
    return run.Bench(workload, tiny_collision(), seed, tmp_path / name)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    bench = _bench(tmp_path_factory.mktemp("ref"), "work", tiny_workload())
    sample = bench.run(None, None)
    assert not sample.problems, sample.problems
    return gate.seed_free(gate.load_reports(sample.out))


def test_shipped_counts_follow_from_shapes():
    for workload in WORKLOADS.values():
        raw = load_config(ROOT, workload)
        assert counts_for(raw, workload.sweep_values) == workload.full_counts
        scaled = derive_config(raw, full=False)
        assert steps_of(scaled) * 25 == steps_of(raw) * 6


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name not in DROPPED
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_end_to_end_metrics_and_gate(tmp_path, reference, capsys):
    bench = _bench(tmp_path, "work", tiny_workload())
    metrics, samples = run.measure(bench, 0, reference)
    assert set(metrics) == {"run_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())
    assert len(samples) == 1 and not samples[0].problems
    assert 0 < metrics["setup_s"]["value"] < metrics["run_s"]["value"]
    assert "n=11" in capsys.readouterr().out  # one timed run and ten set-up probes


def test_corrupted_report_is_a_failed_run(tmp_path, reference):
    def corrupt(out):
        path = out / "report.jsonl"
        path.write_bytes(path.read_bytes()[:-40])

    bench = _bench(tmp_path, "work", tiny_workload())
    _, samples = run.measure(bench, 0, reference, tamper=corrupt)
    assert len(samples) == 1
    assert any("unreadable" in p for p in samples[0].problems)
    assert any("verify exited" in p for p in samples[0].problems)


def test_reference_mismatch_is_a_failed_run(tmp_path, reference):
    moved = json.loads(json.dumps(reference))
    moved[0][0]["fidelity_deficit"] *= 1.0 + 1e-5
    bench = _bench(tmp_path, "work", tiny_workload())
    _, samples = run.measure(bench, 0, moved)
    assert any("fidelity_deficit" in p for p in samples[0].problems)


def _traced(tmp_path, name, workload, reference):
    bench = _bench(tmp_path, name, workload)
    layer, samples, problems = run.trace(bench, reference, tiny_collision())
    assert not problems, problems
    assert all(not s.problems for s in samples), [s.problems for s in samples]
    return layer, spans.load_spans(bench.work / "trace")


EXACT = ("dynamics.evolve_calls", "dynamics.amp_steps", "dynamics.diag_calls",
         "dynamics.checkpoint_bytes", "scenarios.mass_points", "scenarios.dup_amp_steps",
         "frames.calls", "schmidt.decompose_calls", "hilbert.calls", "cli.report_bytes")


def test_traced_counts_are_exact_and_spans_nest(tmp_path, reference):
    workload = tiny_workload()
    first, first_spans = _traced(tmp_path, "a", workload, reference)
    second, _ = _traced(tmp_path, "b", workload, reference)
    assert set(first) == set(run.PER_LAYER)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    for key, value in workload.full_counts.items():
        assert first[key] == value, key
    assert first["scenarios.mass_points"] == 2
    assert spans.check_nesting(first_spans) == []
    names = {s["name"] for s in first_spans}
    assert {"cli.main", "cli.execute", "scenarios.run_scenario", "scenarios.mass_point",
            "scenarios.residual", "dynamics.evolve_factorized", "frames.transform",
            "schmidt.decompose", "hilbert.tensor_product"} <= names
    for phase in ("exact", "residual", "factorized", "frames", "diagnostics"):
        assert first[f"scenarios.phase.{phase}_s"] > 0, phase
    assert 0 < first["scenarios.useful_ratio"] < 1


def test_sweep_workers_flush_their_spans(tmp_path):
    workload = tiny_workload(sweep_values=(100.0, 1000.0), workers=2)
    layer, all_spans = _traced(tmp_path, "sweep", workload, None)
    workers = {s["pid"] for s in all_spans if s["name"] == "cli.sweep_worker"}
    assert len(workers) == 2
    assert layer["scenarios.dup_amp_steps"] == workload.full_counts["scenarios.dup_amp_steps"]
    assert spans.check_nesting(all_spans) == []


def test_self_time_subtracts_covered_children():
    tree = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 4.0},
        {"id": "b", "parent": "p", "start": 3.0, "end": 6.0},
    ]
    assert spans.self_times(tree) == {"p": 5.0, "a": 3.0, "b": 3.0}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collision", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
