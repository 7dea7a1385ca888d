from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import framesim as fs
from framesim.errors import PropagationError, ValidationError
from framesim.hilbert import Factor, Grid, Space, StateVector, make_gaussian, tensor_product
from framesim.scenarios import (
    PartitionGeometry,
    ScenarioConfig,
    detect_partition,
    run_collision,
    run_position_measurement,
)

from conftest import fast_collision_dict, fast_measurement_dict
from oracles import binomial_3sigma


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make_raw",
    [
        pytest.param(fast_collision_dict, id="collision"),
        pytest.param(fast_measurement_dict, id="measurement"),
    ],
)
def test_config_round_trips_through_dict(make_raw):
    raw = make_raw()
    cfg = ScenarioConfig.from_dict(raw)
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_config_rejects_unnormalized_coefficients():
    raw = fast_measurement_dict()
    raw["measurement"]["coefficients"] = {"real": [0.9, 0.9], "imag": [0.0, 0.0]}
    with pytest.raises(ValidationError, match=r"sum \|c_l\|\^2 = 1"):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_bad_schedule():
    raw = fast_collision_dict()
    raw["schedule"] = {"t_initial": 2.0, "t_interaction": 1.0, "t_final": 6.0}
    with pytest.raises(ValidationError, match="strictly increasing"):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_nonpositive_mass():
    raw = fast_collision_dict()
    raw["center_of_mass"]["masses"] = [100.0, -5.0]
    with pytest.raises(ValidationError, match="positive"):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_unknown_scenario():
    raw = fast_collision_dict()
    raw["scenario"] = "teleportation"
    with pytest.raises(ValidationError, match="unknown scenario"):
        ScenarioConfig.from_dict(raw)


def test_config_rejects_mismatched_dt():
    raw = fast_collision_dict()
    raw["dt"] = 0.0131
    with pytest.raises(ValidationError, match="integer multiple"):
        ScenarioConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# collision scenario
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def zero_coupling_report():
    raw = fast_collision_dict()
    raw["coupling"]["strength"] = 0.0
    return run_collision(ScenarioConfig.from_dict(raw))


def test_zero_coupling_single_branch(zero_coupling_report):
    point = zero_coupling_report.points[0]
    assert len(point.branch_probabilities) == 1
    assert point.branch_probabilities[0] == pytest.approx(1.0, abs=1e-10)
    assert point.trace_distance <= 1e-10
    assert point.branch_entropy == pytest.approx(0.0, abs=1e-12)


def test_zero_coupling_contracts(zero_coupling_report):
    point = zero_coupling_report.points[0]
    assert point.interaction_initial == 0.0
    assert point.interaction_final == 0.0
    assert point.residual_norm <= 1e-12
    assert point.fidelity_deficit <= 1e-10
    assert point.overlap_weight == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def fast_collision_report():
    return run_collision(ScenarioConfig.from_dict(fast_collision_dict()))


def test_collision_point_invariants(fast_collision_report):
    point = fast_collision_report.points[0]
    assert abs(sum(point.branch_probabilities) - 1.0) <= 1e-10
    assert point.schmidt_identity_distance <= 1e-10
    assert abs(point.rho_trace - 1.0) <= 1e-10
    assert point.rho_hermiticity_error <= 1e-10
    assert min(point.rho_eigenvalues) >= -1e-10
    assert point.interaction_initial < 1e-8
    assert point.interaction_final < 1e-8
    assert point.norm_drift <= 1e-9
    assert len(point.branch_probabilities) == 2


SCHEMA = Path(__file__).resolve().parent.parent / "SCHEMA.md"


def schema_keys(record: str) -> set[str]:
    """The keys SCHEMA.md lists for a report record: the backticked names in
    the first paragraph under its heading, plus the `record` tag."""
    section = SCHEMA.read_text().split(f"### `{record}`", 1)[1].split("\n", 1)[1]
    return set(re.findall(r"`(\w+)`", section.strip().split("\n\n", 1)[0])) | {"record"}


def test_collision_records_are_serializable(fast_collision_report):
    records = fast_collision_report.to_records()
    text = json.dumps(records)
    assert "collision_summary" in text
    for rec in records:
        assert set(rec) == schema_keys(rec["record"])


def test_measurement_records_are_serializable(fast_measurement_report):
    records = fast_measurement_report.to_records()
    json.dumps(records)
    assert [rec["record"] for rec in records] == ["measurement", "partition"]
    for rec in records:
        assert set(rec) == schema_keys(rec["record"])


def test_collision_rejects_overlapping_start(no_propagation):
    raw = fast_collision_dict()
    raw["particle"]["packet"]["r0"] = 0.0
    cfg = ScenarioConfig.from_dict(raw)
    with pytest.raises(PropagationError, match="not negligible at the start"):
        run_collision(cfg)


def test_collision_checks_every_start_before_propagating(no_propagation):
    # At r0 = -8 the narrow packet of mass 1e4 starts uncoupled (|<H_c>| ~ 1e-15),
    # while the wide packet of mass 1 already overlaps the particle (~ 4e-6).
    raw = fast_collision_dict()
    raw["particle"]["packet"]["r0"] = -8.0
    raw["center_of_mass"]["masses"] = [1e4, 1.0]
    cfg = ScenarioConfig.from_dict(raw)
    with pytest.raises(PropagationError, match="not negligible at the start"):
        run_collision(cfg)


def test_collision_propagates_residual_once(monkeypatch):
    # Every propagation is cut to two steps: enough for the residual window,
    # whose anchor positions already overlap the particle, to pick up
    # anchor dependence.
    calls = Counter()
    original = fs.dynamics.evolve_exact

    def short(psi0, h, dt, steps, checkpoint_every=100):
        calls[psi0.space.dims, h.kinetic.get("A_cm")] += 1
        return original(psi0, h, dt, min(steps, 2), checkpoint_every)

    monkeypatch.setattr("framesim.scenarios.evolve_exact", short)
    monkeypatch.setattr("framesim.dynamics.evolve_exact", short)
    raw = fast_collision_dict()
    raw["center_of_mass"]["masses"] = [100.0, 1000.0, 10000.0]
    cfg = ScenarioConfig.from_dict(raw)
    report = run_collision(cfg)
    cm = cfg.center_of_mass
    assert calls[(cm.residual_points, 2, 512), None] == 1
    for mass in cm.masses:
        assert calls[(cm.points, 2, 512), mass] == 1
    scaled = [p.residual_norm * p.mass for p in report.points]
    assert scaled[0] > 0.0
    assert scaled == pytest.approx([scaled[0]] * 3, rel=1e-12)


def test_collision_requires_collision_config():
    cfg = ScenarioConfig.from_dict(fast_measurement_dict())
    with pytest.raises(ValidationError, match="scenario"):
        run_collision(cfg)


# ---------------------------------------------------------------------------
# partition detection
# ---------------------------------------------------------------------------

def grid_pair_state(a_center: float, b_center: float) -> StateVector:
    grid_a = Grid(32, -8.0, 8.0)
    grid_b = Grid(64, -24.0, 24.0)
    a = make_gaussian(grid_a, fs.GaussianParams(r0=a_center, p0=0.0, sigma=1.5, mass=1.0), "a")
    b = make_gaussian(grid_b, fs.GaussianParams(r0=b_center, p0=0.0, sigma=2.25, mass=1.0), "b")
    q = fs.level_state("A_int", [0.6, 0.8])
    return tensor_product([q, a, b])


def test_partition_found_for_separated_supports():
    psi = grid_pair_state(0.0, 12.0)
    report = detect_partition(psi, PartitionGeometry(-5.0, 5.0, 1e-4))
    assert report.found
    assert report.absorbed == ("a",)
    assert report.free == ("b",)
    assert report.leakage < 1e-4
    assert report.weight_check == pytest.approx(1.0, abs=1e-8)


def test_partition_none_for_delocalized_state():
    psi = grid_pair_state(0.0, 0.0)  # both particles near the heavy system
    report = detect_partition(psi, PartitionGeometry(-5.0, 5.0, 1e-4))
    assert not report.found
    assert report.leakage > 1e-4
    assert report.c_coefficients == []


def test_partition_leakage_matches_quadrature_loop():
    rng = np.random.default_rng(13)
    grid_a = Grid(8, -4.0, 4.0)
    grid_b = Grid(8, -8.0, 8.0)
    space = Space(
        (Factor.level("A_int", 2), Factor.coordinate("a", grid_a), Factor.coordinate("b", grid_b))
    )
    psi = StateVector(
        space, rng.standard_normal(space.dims) + 1j * rng.standard_normal(space.dims)
    ).normalized()
    geometry = PartitionGeometry(-2.0, 2.0, 2.0)  # eps > 1 accepts the first split
    report = detect_partition(psi, geometry)
    assert report.absorbed == ("a",)
    xa, xb = grid_a.positions(), grid_b.positions()
    vol = space.volume_element
    leak = 0.0
    for q in range(2):
        for i in range(8):
            for j in range(8):
                a_in = -2.0 <= xa[i] <= 2.0
                b_in = -2.0 <= xb[j] <= 2.0
                if not (a_in and not b_in):
                    leak += abs(psi.amplitudes[q, i, j]) ** 2 * vol
    assert report.leakage == pytest.approx(leak, abs=1e-10)
    assert report.weight_check == pytest.approx(1.0, abs=1e-8)


def test_partition_requires_two_coordinates():
    grid = Grid(32, -8.0, 8.0)
    psi = tensor_product(
        [
            fs.level_state("A_int", [1.0, 0.0]),
            make_gaussian(grid, fs.GaussianParams(r0=0, p0=0, sigma=1.5, mass=1.0), "a"),
        ]
    )
    with pytest.raises(ValidationError, match="two coordinate"):
        detect_partition(psi, PartitionGeometry(-2.0, 2.0, 1e-4))


# ---------------------------------------------------------------------------
# position measurement
# ---------------------------------------------------------------------------

def test_measurement_schmidt_structure(fast_measurement_report):
    rep = fast_measurement_report
    # coefficients across the (compound | probe) cut equal the initial weights
    assert rep.coefficient_error <= 1e-6
    assert rep.compound_overlap <= 1e-3
    assert rep.overlap_weight >= 0.999


def test_measurement_outcome_statistics(fast_measurement_report):
    rep = fast_measurement_report
    assert abs(sum(rep.empirical_frequencies) - 1.0) <= 1e-12
    for prob, freq in zip(rep.outcome_probabilities, rep.empirical_frequencies):
        assert abs(freq - prob) <= binomial_3sigma(prob, rep.trials)


def test_measurement_branch_probe_states(fast_measurement_report):
    rep = fast_measurement_report
    assert max(rep.branch_b_fidelity_deficits[:2]) <= 1e-6


def test_measurement_absorption_and_partition(fast_measurement_report):
    rep = fast_measurement_report
    assert rep.absorption_declared
    assert rep.absorbed_mass >= 1.0 - 1e-4
    assert rep.partition.found
    assert rep.partition.absorbed == ("a",)
    assert rep.partition.free == ("b",)
    assert rep.partition.leakage < 1e-4
    assert rep.free_particle_coupling == 0.0


def test_measurement_is_deterministic(fast_measurement_report):
    again = run_position_measurement(ScenarioConfig.from_dict(fast_measurement_dict()))
    assert again.to_records() == fast_measurement_report.to_records()


def test_measurement_single_component_is_certain():
    raw = fast_measurement_dict()
    raw["measurement"]["coefficients"] = {"real": [1.0, 0.0], "imag": [0.0, 0.0]}
    raw["seeds"]["trials"] = 500
    rep = run_position_measurement(ScenarioConfig.from_dict(raw))
    assert rep.outcome_counts[0] == 500
    assert rep.outcome_counts[1] == 0
    assert rep.branch_b_fidelity_deficits[0] <= 1e-6


def test_measurement_rejects_overlapping_components():
    raw = fast_measurement_dict()
    for packet in raw["measurement"]["a"]["packets"]:
        packet["r0"] = 0.8
    raw["measurement"]["a"]["trap"]["centers"] = [0.8, 0.8]
    with pytest.raises(PropagationError, match="not separated"):
        run_position_measurement(ScenarioConfig.from_dict(raw))
