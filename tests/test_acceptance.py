"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest -s tests/test_acceptance.py` to see all
lines as they complete)."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import framesim as fs
from framesim.cli import EXIT_OK, cmd_run
from framesim.hilbert import (
    Factor,
    Space,
    StateVector,
    level_state,
    make_gaussian,
    tensor_product,
)
from framesim.scenarios import run_collision, run_position_measurement

from conftest import CONFIG_DIR, COUPLING_K, INTERNAL_H, load_config_dict
from oracles import (
    binomial_3sigma,
    dense_evolve,
    expect_momentum,
    expect_position,
    free_gaussian_width,
    momentum_std,
    position_std,
)


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {name}: {status} ({detail})")
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def shipped_collision():
    from framesim.scenarios import ScenarioConfig

    cfg = ScenarioConfig.from_dict(load_config_dict("collision.json"))
    started = time.perf_counter()
    rep = run_collision(cfg)
    return rep, time.perf_counter() - started


@pytest.fixture(scope="module")
def shipped_measurement():
    from framesim.scenarios import ScenarioConfig

    cfg = ScenarioConfig.from_dict(load_config_dict("position_measurement.json"))
    started = time.perf_counter()
    rep = run_position_measurement(cfg)
    return rep, time.perf_counter() - started, cfg


def test_criterion_1_propagator_oracle_equivalence():
    rng = np.random.default_rng(2024)
    grid = fs.Grid(8, -4.0, 4.0)
    space = Space((Factor.coordinate("S", grid), Factor.level("q", 2)))
    amps = rng.standard_normal(space.dims) + 1j * rng.standard_normal(space.dims)
    psi0 = StateVector(space, amps).normalized()
    k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = fs.HamiltonianSpec(
        kinetic={"S": 1.7},
        potentials={"S": rng.standard_normal(8)},
        internal=("q", INTERNAL_H / 3.0),
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(1.2, 0.9),
            level="q",
            coupling=(k + k.conj().T) / 2,
            anchor=None,
            anchor_position=0.0,
        ),
    )
    started = time.perf_counter()
    res = fs.evolve_exact(psi0, h, 1e-3, 1000, 1000)
    ref = dense_evolve(psi0, h, 1.0)
    deficit = fs.fidelity_deficit(res.final, ref)
    elapsed = time.perf_counter() - started
    report(
        1,
        "propagator matches dense matrix exponential",
        deficit <= 1e-6 and elapsed < 1.0,
        f"fidelity deficit {deficit:.3e} (<= 1e-6), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_unitarity_and_energy():
    started = time.perf_counter()
    grid_s = fs.Grid(256, -20.0, 20.0)
    grid_cm = fs.Grid(64, -1.6, 1.6)
    psi_s = make_gaussian(grid_s, fs.GaussianParams(r0=-2.0, p0=10.0, sigma=1.0, mass=4.0), "S")
    phi_cm = make_gaussian(grid_cm, fs.GaussianParams(r0=0.0, p0=0.0, sigma=0.2, mass=100.0), "A_cm")
    phi_int = level_state("A_int", [1.0, 0.0])
    psi0 = tensor_product([psi_s, phi_cm, phi_int])
    h = fs.HamiltonianSpec(
        kinetic={"S": 4.0, "A_cm": 100.0},
        internal=("A_int", INTERNAL_H),
        interaction=fs.Interaction(
            subject="S",
            anchor="A_cm",
            profile=fs.gaussian_profile(2.0, 0.5),
            level="A_int",
            coupling=COUPLING_K,
        ),
    )
    res = fs.evolve_exact(psi0, h, 1e-3, 1000, 100)
    e0 = fs.total_energy(psi0, h)
    energy_drift = max(
        abs(fs.total_energy(state, h) - e0) for _, state in res.trajectory
    ) / abs(e0)
    elapsed = time.perf_counter() - started
    report(
        2,
        "norm and energy over 10^3 steps on 256 x 64 x 2",
        res.norm_drift <= 1e-9 and energy_drift <= 1e-6 and elapsed < 60.0,
        f"norm drift {res.norm_drift:.3e} (<= 1e-9), energy drift "
        f"{energy_drift:.3e} (<= 1e-6), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_gaussian_contract():
    grid = fs.Grid(256, -16.0, 16.0)
    sigma, mass = 1.0, 2.0
    params = fs.GaussianParams(r0=1.5, p0=2.0, sigma=sigma, mass=mass)
    psi = make_gaussian(grid, params, "S")
    x_err = abs(expect_position(psi, "S") - 1.5)
    p_err = abs(expect_momentum(psi, "S") - 2.0)
    # amplitude-convention velocity dispersion: hbar / (sigma * mass)
    xi_measured = momentum_std(psi, "S") * math.sqrt(2.0) / mass
    xi_err = abs(xi_measured - params.xi) / params.xi
    free = fs.evolve_exact(psi, fs.HamiltonianSpec(kinetic={"S": mass}), 1e-3, 1000, 1000)
    width = position_std(free.final, "S") * math.sqrt(2.0)
    width_err = abs(width - free_gaussian_width(sigma, mass, 1.0, 1.0)) / width
    report(
        3,
        "wavepacket centers, dispersion, and spreading law",
        x_err <= 1e-8 and p_err <= 1e-8 and xi_err <= 1e-6 and width_err <= 1e-6,
        f"<x> err {x_err:.1e} (<= 1e-8), <p> err {p_err:.1e} (<= 1e-8), "
        f"xi rel err {xi_err:.1e} (<= 1e-6), spreading rel err {width_err:.1e} (<= 1e-6)",
    )


def test_criterion_4_factorization_limit(shipped_collision):
    rep, elapsed = shipped_collision
    deficits = rep.fidelity_deficits
    residuals = rep.residual_norms
    slope = float(np.polyfit(np.log(rep.masses), np.log(residuals), 1)[0])
    ok = (
        rep.fidelity_strictly_decreasing
        and rep.residual_strictly_decreasing
        and slope <= -0.8
        and elapsed < 300.0
    )
    report(
        4,
        "factorization deficit and residual shrink with mass",
        ok,
        f"deficits {[f'{d:.3e}' for d in deficits]}, residuals "
        f"{[f'{r:.3e}' for r in residuals]}, residual slope {slope:.3f} (<= -0.8), "
        f"sweep runtime {elapsed:.0f}s (< 300s)",
    )


def test_criterion_5_schmidt_identity(shipped_collision):
    rep, _ = shipped_collision
    distances = [p.schmidt_identity_distance for p in rep.points]
    rng = np.random.default_rng(99)
    grid = fs.Grid(16, -4.0, 4.0)
    space = Space((Factor.coordinate("x", grid), Factor.level("q", 3)))
    for seed in range(3):
        amps = rng.standard_normal(space.dims) + 1j * rng.standard_normal(space.dims)
        psi = StateVector(space, amps).normalized()
        ens = fs.transform_to_intrinsic(psi, fs.Bipartition(["x"], ["q"]))
        mixed = fs.mixed_density_matrix(ens, ["x"])
        reduced = fs.reduced_density_matrix(psi, ["x"])
        distances.append(fs.trace_distance(mixed, reduced))
    worst = max(distances)
    report(
        5,
        "branch-ensemble density matrix equals the partial trace",
        worst <= 1e-10,
        f"worst trace distance {worst:.3e} (<= 1e-10) over {len(distances)} states",
    )


def test_criterion_6_density_matrix_equivalence(shipped_collision):
    rep, _ = shipped_collision
    heaviest = rep.points[-1]
    ok = heaviest.trace_distance <= 1e-3 and rep.trace_distance_non_increasing
    report(
        6,
        "mixed-state density matrix converges to the reduced one",
        ok,
        f"trace distances {[f'{d:.3e}' for d in rep.trace_distances]}, "
        f"at mass {heaviest.mass:g}: {heaviest.trace_distance:.3e} (<= 1e-3), "
        f"non-increasing {rep.trace_distance_non_increasing}",
    )


def test_criterion_7_measurement_statistics(shipped_measurement):
    rep, elapsed, _ = shipped_measurement
    p_small = min(rep.outcome_probabilities)
    idx = rep.outcome_probabilities.index(p_small)
    freq = rep.empirical_frequencies[idx]
    ci = binomial_3sigma(0.3, rep.trials)
    branch_worst = max(rep.branch_b_fidelity_deficits[:2])
    ok = (
        abs(freq - 0.3) <= ci
        and branch_worst <= 1e-6
        and rep.compound_overlap <= 1e-3
        and elapsed < 300.0
    )
    report(
        7,
        "outcome statistics and per-branch probe states",
        ok,
        f"freq {freq:.4f} in 0.3 +/- {ci:.4f}, branch deficit {branch_worst:.2e} "
        f"(<= 1e-6), compound overlap {rep.compound_overlap:.2e} (<= 1e-3), "
        f"runtime {elapsed:.0f}s (< 300s)",
    )


def test_criterion_8_deterministic_reports(tmp_path):
    config = str(CONFIG_DIR / "position_measurement.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cmd_run(config, str(out1))
    code2 = cmd_run(config, str(out2))
    bytes1 = (out1 / "report.jsonl").read_bytes()
    bytes2 = (out2 / "report.jsonl").read_bytes()
    ok = code1 == EXIT_OK and code2 == EXIT_OK and bytes1 == bytes2
    report(
        8,
        "repeated runs produce byte-identical reports",
        ok,
        f"exit codes ({code1}, {code2}), report bytes equal: {bytes1 == bytes2}, "
        f"{len(bytes1)} bytes",
    )
