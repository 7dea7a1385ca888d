from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import framesim as fs
from framesim.errors import SpaceMismatchError, ValidationError
from framesim.hilbert import (
    Factor,
    Space,
    StateVector,
    level_state,
    make_gaussian,
    position_std,
    tensor_product,
)

from conftest import COUPLING_K, INTERNAL_H
from oracles import dense_evolve, dense_hamiltonian, free_gaussian_width


def random_state(space: Space, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(space.dims) + 1j * rng.standard_normal(space.dims)
    return StateVector(space, amps).normalized()


def random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def small_coupled_system(seed: int):
    rng = np.random.default_rng(seed)
    grid = fs.Grid(8, -4.0, 4.0)
    space = Space((Factor.coordinate("S", grid), Factor.level("q", 2)))
    h = fs.HamiltonianSpec(
        kinetic={"S": 1.3},
        potentials={"S": rng.standard_normal(8)},
        internal=("q", random_hermitian(rng, 2)),
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(0.9, 1.1),
            level="q",
            coupling=random_hermitian(rng, 2),
            anchor=None,
            anchor_position=0.3,
        ),
        hbar=1.0,
    )
    return random_state(space, seed + 1), h


def anchored_coupled_system(seed: int):
    """8x8x2: the coupling profile depends on S - A_cm, with a potential on S."""
    rng = np.random.default_rng(seed)
    space = Space((
        Factor.coordinate("A_cm", fs.Grid(8, -2.0, 2.0)),
        Factor.coordinate("S", fs.Grid(8, -4.0, 4.0)),
        Factor.level("q", 2),
    ))
    h = fs.HamiltonianSpec(
        kinetic={"A_cm": 7.0, "S": 1.3},
        potentials={"S": rng.standard_normal(8)},
        internal=("q", random_hermitian(rng, 2)),
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(0.9, 1.1),
            level="q",
            coupling=random_hermitian(rng, 2),
            anchor="A_cm",
        ),
    )
    return random_state(space, seed + 1), h


def test_free_gaussian_spreading_matches_analytic():
    grid = fs.Grid(256, -16.0, 16.0)
    sigma, mass, t = 1.0, 1.0, 1.0
    psi = make_gaussian(grid, fs.GaussianParams(r0=0.0, p0=0.0, sigma=sigma, mass=mass), "S")
    h = fs.HamiltonianSpec(kinetic={"S": mass})
    res = fs.evolve_exact(psi, h, 1e-3, 1000, 250)
    measured = position_std(res.final, "S") * math.sqrt(2)
    assert measured == pytest.approx(free_gaussian_width(sigma, mass, 1.0, t), rel=1e-6)


def test_unitarity_over_long_run():
    psi, h = small_coupled_system(0)
    res = fs.evolve_exact(psi, h, 1e-3, 2000, 100)
    assert res.norm_drift <= 1e-9


@pytest.mark.parametrize("seed", [1, 2])
def test_matches_dense_oracle_on_small_space(seed):
    psi, h = small_coupled_system(seed)
    res = fs.evolve_exact(psi, h, 1e-3, 500, 500)
    ref = dense_evolve(psi, h, 0.5)
    assert fs.fidelity_deficit(res.final, ref) <= 1e-6


def test_matches_dense_oracle_two_grids():
    rng = np.random.default_rng(9)
    g1 = fs.Grid(8, -3.0, 3.0)
    g2 = fs.Grid(8, -5.0, 5.0)
    space = Space((Factor.coordinate("x", g1), Factor.coordinate("y", g2)))
    psi = random_state(space, 10)
    h = fs.HamiltonianSpec(
        kinetic={"x": 1.0, "y": 2.5},
        potentials={"x": rng.standard_normal(8), "y": rng.standard_normal(8)},
    )
    res = fs.evolve_exact(psi, h, 1e-3, 1000, 1000)
    ref = dense_evolve(psi, h, 1.0)
    assert fs.fidelity_deficit(res.final, ref) <= 1e-6


def test_time_reversal_recovers_initial_state():
    psi, h = small_coupled_system(3)
    forward = fs.evolve_exact(psi, h, 1e-3, 800, 800)
    back = fs.evolve_exact(forward.final, h, -1e-3, 800, 800)
    assert fs.fidelity_deficit(back.final, psi) <= 1e-8


def test_energy_is_conserved():
    psi, h = small_coupled_system(4)
    res = fs.evolve_exact(psi, h, 1e-3, 1000, 100)
    e0 = fs.total_energy(psi, h)
    drifts = [abs(fs.total_energy(s, h) - e0) for _, s in res.trajectory]
    assert max(drifts) / abs(e0) <= 1e-6


@pytest.mark.parametrize("system", [small_coupled_system, anchored_coupled_system])
def test_diagnostic_hamiltonian_matches_dense_oracle(system):
    psi, h = system(11)
    v = psi.amplitudes.ravel()
    dv = psi.space.volume_element
    full = dense_hamiltonian(psi.space, h)
    coupling = full - dense_hamiltonian(psi.space, replace(h, interaction=None))
    energy = np.vdot(v, full @ v).real * dv
    assert fs.total_energy(psi, h) == pytest.approx(energy, rel=1e-10)
    coupling_energy = np.vdot(v, coupling @ v).real * dv
    assert fs.interaction_energy(psi, h) == pytest.approx(coupling_energy, rel=1e-10)


@pytest.mark.parametrize("system", [small_coupled_system, anchored_coupled_system])
def test_checkpoint_diagnostics_match_recomputation(system):
    psi, h = system(12)
    res = fs.evolve_exact(psi, h, 1e-3, 300, 100)
    assert len(res.energies) == len(res.couplings) == len(res.trajectory) == 4
    for (_, state), energy, coupling in zip(res.trajectory, res.energies, res.couplings):
        assert energy == pytest.approx(fs.total_energy(state, h), rel=1e-12, abs=1e-12)
        assert coupling == pytest.approx(fs.interaction_energy(state, h), rel=1e-12, abs=1e-12)


def criterion_2_system():
    """The coupled collision Hamiltonian of acceptance criterion 2, on small grids."""
    grid_s = fs.Grid(64, -10.0, 10.0)
    grid_cm = fs.Grid(64, -1.6, 1.6)
    psi_s = make_gaussian(grid_s, fs.GaussianParams(r0=-2.0, p0=4.0, sigma=1.0, mass=4.0), "S")
    phi_cm = make_gaussian(grid_cm, fs.GaussianParams(r0=0.0, p0=0.0, sigma=0.2, mass=100.0), "A_cm")
    psi0 = tensor_product([psi_s, phi_cm, level_state("A_int", [1.0, 0.0])])
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
    return psi0, h


def test_checkpoints_do_not_change_merged_propagation():
    psi0, h = criterion_2_system()
    dt, steps = 1e-3, 300
    every = fs.evolve_exact(psi0, h, dt, steps, checkpoint_every=1)
    once = fs.evolve_exact(psi0, h, dt, steps, checkpoint_every=steps)
    assert fs.fidelity_deficit(every.final, once.final) <= 1e-12
    assert [t for t, _ in every.trajectory] == [n * dt for n in range(steps + 1)]
    assert [t for t, _ in once.trajectory] == [0.0, steps * dt]
    # A stored state is a whole step: restarting from it matches running on.
    sparse = fs.evolve_exact(psi0, h, dt, steps, checkpoint_every=steps // 3)
    assert [t for t, _ in sparse.trajectory] == [n * dt for n in (0, 100, 200, 300)]
    _, mid = sparse.trajectory[2]
    rest = fs.evolve_exact(mid, h, dt, steps - 200, checkpoint_every=steps)
    assert fs.fidelity_deficit(rest.final, once.final) <= 1e-12
    assert fs.fidelity_deficit(mid, every.trajectory[200][1]) <= 1e-12


def test_cfl_violation_is_rejected():
    psi, h = small_coupled_system(5)
    with pytest.raises(ValidationError, match="anti-aliasing"):
        fs.evolve_exact(psi, h, 10.0, 1, 1)


def test_space_mismatch_between_state_and_hamiltonian():
    psi = level_state("q", [1.0, 0.0])
    h = fs.HamiltonianSpec(kinetic={"S": 1.0})
    with pytest.raises(ValidationError):
        fs.evolve_exact(psi, h, 1e-3, 1, 1)


def test_non_hermitian_coupling_is_rejected():
    grid = fs.Grid(8, -4.0, 4.0)
    space = Space((Factor.coordinate("S", grid), Factor.level("q", 2)))
    psi = random_state(space, 6)
    h = fs.HamiltonianSpec(
        kinetic={"S": 1.0},
        interaction=fs.Interaction(
            subject="S",
            profile=fs.gaussian_profile(1.0, 1.0),
            level="q",
            coupling=np.array([[0.0, 1.0], [0.5, 0.0]]),
        ),
    )
    with pytest.raises(ValidationError, match="Hermitian"):
        fs.evolve_exact(psi, h, 1e-3, 1, 1)


def test_factorized_equals_exact_without_coupling():
    grid_cm = fs.Grid(64, -2.0, 2.0)
    grid_s = fs.Grid(64, -8.0, 8.0)
    params = fs.GaussianParams(r0=0.0, p0=0.0, sigma=0.2, mass=100.0)
    phi_cm = make_gaussian(grid_cm, params, "A_cm")
    phi_int = level_state("A_int", [1.0, 0.5j])
    psi_s = make_gaussian(grid_s, fs.GaussianParams(r0=-2.0, p0=3.0, sigma=0.8, mass=1.0), "S")
    h = fs.HamiltonianSpec(
        kinetic={"A_cm": 100.0, "S": 1.0},
        internal=("A_int", INTERNAL_H),
        hbar=1.0,
    )
    psi0 = tensor_product([phi_cm, phi_int, psi_s])
    exact = fs.evolve_exact(psi0, h, 2e-3, 500, 500)
    fact = fs.evolve_factorized(phi_cm, tensor_product([phi_int, psi_s]), h, 2e-3, 500, 500)
    assert fs.fidelity_deficit(exact.final, fact.final) <= 1e-12


def test_factorized_initial_condition_is_exact_product():
    grid_cm = fs.Grid(64, -2.0, 2.0)
    params = fs.GaussianParams(r0=0.0, p0=0.0, sigma=0.2, mass=100.0)
    phi_cm = make_gaussian(grid_cm, params, "A_cm")
    psi1 = level_state("A_int", [0.8, 0.6])
    h = fs.HamiltonianSpec(kinetic={"A_cm": 100.0}, internal=("A_int", INTERNAL_H))
    fact = fs.evolve_factorized(phi_cm, psi1, h, 1e-3, 0, 1)
    ref = tensor_product([phi_cm, psi1])
    assert fs.fidelity_deficit(fact.final, ref) <= 1e-14


def test_factorized_deficit_shrinks_with_mass(mini_collision):
    deficits = []
    for mass in mini_collision.masses:
        run = mini_collision.runs[mass]
        deficits.append(fs.fidelity_deficit(run["exact"].final, run["factorized"].final))
    assert deficits[0] > deficits[1] > deficits[2]
    # deficit ~ c / mass: the log-log slope should be close to -1
    slope = np.polyfit(np.log(mini_collision.masses), np.log(deficits), 1)[0]
    assert slope <= -0.8
    c = max(d * m for d, m in zip(deficits, mini_collision.masses))
    for d, m in zip(deficits, mini_collision.masses):
        assert d <= c / m * 1.0000001


def test_deficit_small_at_heavy_mass(mini_collision):
    run = mini_collision.runs[1e4]
    deficit = fs.fidelity_deficit(run["exact"].final, run["factorized"].final)
    assert deficit < 1e-3


def test_residual_zero_for_cm_independent_state():
    grid = fs.Grid(64, -2.0, 2.0)
    flat = StateVector(
        Space((Factor.coordinate("A_cm", grid), Factor.level("q", 2))),
        np.ones((64, 2)),
    ).normalized()
    assert fs.factorization_residual(flat, 100.0) <= 1e-12


def test_residual_zero_without_coupling():
    grid_cm = fs.Grid(64, -2.0, 2.0)
    grid_s = fs.Grid(64, -8.0, 8.0)
    flat = StateVector(
        Space((Factor.coordinate("A_cm", grid_cm),)), np.ones(64)
    ).normalized()
    psi_s = make_gaussian(grid_s, fs.GaussianParams(r0=-2.0, p0=3.0, sigma=0.8, mass=1.0), "S")
    psi0 = tensor_product([flat, psi_s])
    h = fs.HamiltonianSpec(kinetic={"S": 1.0})
    res = fs.evolve_exact(psi0, h, 2e-3, 400, 100)
    for _, state in res.trajectory:
        assert fs.factorization_residual(state, 100.0) <= 1e-12


def test_residual_halves_when_mass_doubles(mini_collision):
    psi1 = mini_collision.parametric_relative()
    r1 = fs.factorization_residual(psi1, 1e3)
    r2 = fs.factorization_residual(psi1, 2e3)
    assert r2 == pytest.approx(r1 / 2, rel=0.1)
    assert r1 > 0.0


def test_residual_requires_cm_factor():
    psi = level_state("q", [1.0, 0.0])
    with pytest.raises(ValidationError, match="center-of-mass"):
        fs.factorization_residual(psi, 100.0)


def test_fidelity_deficit_basics():
    a = level_state("q", [1.0, 0.0])
    b = level_state("q", [0.0, 1.0])
    assert fs.fidelity_deficit(a, a) == pytest.approx(0.0, abs=1e-12)
    assert fs.fidelity_deficit(a, b) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(SpaceMismatchError):
        fs.fidelity_deficit(a, level_state("r", [1.0, 0.0]))
