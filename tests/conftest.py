from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import framesim as fs
from framesim.hilbert import level_state, make_gaussian, tensor_product
from framesim.scenarios import ScenarioConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

COUPLING_K = np.array([[0.3, 1.0], [1.0, -0.3]])
INTERNAL_H = np.array([[0.0, 0.0], [0.0, 6.0]])


def load_config_dict(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


@pytest.fixture(scope="session")
def collision_config() -> ScenarioConfig:
    return ScenarioConfig.from_dict(load_config_dict("collision.json"))


@pytest.fixture(scope="session")
def measurement_config() -> ScenarioConfig:
    return ScenarioConfig.from_dict(load_config_dict("position_measurement.json"))


def fast_collision_dict() -> dict:
    """Shipped collision narrowed to one mass and a coarser step."""
    raw = load_config_dict("collision.json")
    raw["center_of_mass"]["masses"] = [100.0]
    raw["dt"] = 0.012
    raw["checkpoint_every"] = 100
    raw["seeds"]["trials"] = 2000
    return raw


def fast_measurement_dict() -> dict:
    """Shipped measurement with a shorter run and fewer draws."""
    raw = load_config_dict("position_measurement.json")
    raw["dt"] = 0.008
    raw["checkpoint_every"] = 25
    raw["schedule"] = {"t_initial": 0.25, "t_interaction": 0.5, "t_final": 1.0}
    raw["seeds"]["trials"] = 2000
    return raw


@pytest.fixture()
def no_propagation(monkeypatch):
    """Fail the test if anything reaches a scenario propagation."""

    def refuse(*args, **kwargs):
        raise AssertionError("evolve_exact was called")

    monkeypatch.setattr("framesim.scenarios.evolve_exact", refuse)


@pytest.fixture(scope="session")
def fast_measurement_report():
    from framesim.scenarios import run_position_measurement

    cfg = ScenarioConfig.from_dict(fast_measurement_dict())
    return run_position_measurement(cfg)


class MiniCollision:
    """Small exact-vs-factorized collision used across test modules.

    Holds, per heavy mass: the exact propagation, the freely evolved heavy
    packet, the factorized product state (that packet times the relative
    state, propagated once for every mass) and the Hamiltonian, on grids
    small enough that the whole sweep runs in seconds.
    """

    def __init__(self):
        self.hbar = 1.0
        self.masses = (1e2, 1e3, 1e4)
        self.sigma_ref = 2.0
        self.dt = 4e-3
        self.steps = 800
        self.grid_s = fs.Grid(256, -14.0, 14.0)
        self.psi_s = make_gaussian(
            self.grid_s,
            fs.GaussianParams(r0=-6.0, p0=12.0, sigma=1.0, mass=4.0),
            "S",
        )
        self.phi_int = level_state("A_int", [1.0, 0.0])
        self.relative = fs.evolve_factorized(
            tensor_product([self.phi_int, self.psi_s]), self.hamiltonian(None),
            self.dt, self.steps,
        )
        self.runs = {}
        for mass in self.masses:
            self.runs[mass] = self._run(mass)

    def hamiltonian(self, mass: float | None) -> fs.HamiltonianSpec:
        """The collision H; with no mass it has no center-of-mass kinetic term."""
        cm = {} if mass is None else {"A_cm": mass}
        return fs.HamiltonianSpec(
            kinetic={**cm, "S": 4.0},
            internal=("A_int", INTERNAL_H),
            interaction=fs.Interaction(
                subject="S",
                anchor="A_cm",
                profile=fs.gaussian_profile(2.0, 0.5),
                level="A_int",
                coupling=COUPLING_K,
            ),
            hbar=self.hbar,
        )

    def _run(self, mass: float):
        params = fs.GaussianParams.scaled(mass, self.sigma_ref)
        half = 10.0 * params.sigma
        grid_cm = fs.Grid(128, -half, half)
        phi_cm = make_gaussian(grid_cm, params, "A_cm")
        psi0 = fs.lift_to_auxiliary(self.phi_int, self.psi_s, params, grid_cm)
        h = self.hamiltonian(mass)
        exact = fs.evolve_exact(psi0, h, self.dt, self.steps, self.steps)
        h_cm = fs.HamiltonianSpec(kinetic={"A_cm": mass}, hbar=self.hbar)
        free_cm = fs.evolve_exact(phi_cm, h_cm, self.dt, self.steps, self.steps).final
        return {"exact": exact, "free_cm": free_cm, "h": h, "params": params,
                "factorized": tensor_product([free_cm, self.relative])}

    def parametric_relative(self):
        """Relative state with explicit heavy-coordinate dependence."""
        grid_w = fs.Grid(128, -12.0, 12.0)
        amps = np.full(128, 1.0 / np.sqrt(24.0))
        flat = fs.StateVector(
            fs.Space((fs.Factor.coordinate("A_cm", grid_w),)), amps
        )
        psi0 = tensor_product([flat, self.phi_int, self.psi_s])
        h = fs.HamiltonianSpec(
            kinetic={"S": 4.0},
            internal=("A_int", INTERNAL_H),
            interaction=fs.Interaction(
                subject="S",
                anchor="A_cm",
                profile=fs.gaussian_profile(2.0, 0.5),
                level="A_int",
                coupling=COUPLING_K,
            ),
            hbar=self.hbar,
        )
        return fs.evolve_exact(psi0, h, self.dt, self.steps, self.steps).final


@pytest.fixture(scope="session")
def mini_collision() -> MiniCollision:
    return MiniCollision()
