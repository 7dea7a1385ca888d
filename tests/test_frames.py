from __future__ import annotations

import math

import numpy as np
import pytest

import framesim as fs
from framesim.errors import PropagationError, ValidationError
from framesim.hilbert import (
    Factor,
    Space,
    StateVector,
    level_state,
    make_gaussian,
    tensor_product,
)

from conftest import INTERNAL_H, fast_collision_dict
from oracles import (
    brute_reduced_density,
    dense_trace_distance,
    expect_momentum,
    expect_position,
    purity,
)


def random_state(space: Space, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(space.dims) + 1j * rng.standard_normal(space.dims)
    return StateVector(space, amps).normalized()


@pytest.fixture()
def lifted():
    grid_cm = fs.Grid(64, -2.0, 2.0)
    grid_s = fs.Grid(64, -8.0, 8.0)
    params = fs.GaussianParams(r0=0.0, p0=0.0, sigma=0.2, mass=100.0)
    phi_int = level_state("A_int", [0.8, 0.6j])
    psi_s = make_gaussian(grid_s, fs.GaussianParams(r0=-2.0, p0=2.0, sigma=0.8, mass=1.0), "S")
    psi = fs.lift_to_auxiliary(phi_int, psi_s, params, grid_cm)
    return psi, phi_int, psi_s, params, grid_cm


def test_lift_is_normalized_product(lifted):
    psi, _, _, _, _ = lifted
    assert abs(psi.norm - 1.0) < 1e-12
    res = fs.schmidt_decompose(psi, fs.Bipartition(["S"], ["A_cm", "A_int"]))
    assert res.rank == 1


def test_lift_centers_at_rest(lifted):
    psi, _, _, _, _ = lifted
    assert abs(expect_position(psi, "A_cm")) < 1e-10
    assert abs(expect_momentum(psi, "A_cm")) < 1e-10


def test_extract_inverts_lift_at_time_zero(lifted):
    psi, phi_int, psi_s, params, grid_cm = lifted
    phi_cm = make_gaussian(grid_cm, params, "A_cm")
    extraction = fs.extract_relative_state(psi, phi_cm)
    assert extraction.overlap_weight == pytest.approx(1.0, abs=1e-12)
    ref = tensor_product([phi_int, psi_s])
    assert fs.fidelity_deficit(extraction.state, ref) <= 1e-12


def test_extract_without_coupling_matches_independent_evolution(lifted):
    psi, phi_int, psi_s, params, grid_cm = lifted
    h = fs.HamiltonianSpec(
        kinetic={"A_cm": params.mass, "S": 1.0},
        internal=("A_int", INTERNAL_H),
    )
    dt, steps = 2e-3, 500
    final = fs.evolve_exact(psi, h, dt, steps, steps).final
    phi_cm_t = fs.evolve_exact(
        make_gaussian(grid_cm, params, "A_cm"),
        fs.HamiltonianSpec(kinetic={"A_cm": params.mass}), dt, steps, steps,
    ).final
    extraction = fs.extract_relative_state(final, phi_cm_t)
    phi_int_t = fs.evolve_exact(
        phi_int, fs.HamiltonianSpec(kinetic={}, internal=("A_int", INTERNAL_H)),
        dt, steps, steps,
    ).final
    psi_s_t = fs.evolve_exact(
        psi_s, fs.HamiltonianSpec(kinetic={"S": 1.0}), dt, steps, steps
    ).final
    ref = tensor_product([phi_int_t, psi_s_t])
    assert extraction.overlap_weight == pytest.approx(1.0, abs=1e-10)
    assert fs.fidelity_deficit(extraction.state, ref) <= 1e-8


def test_extract_overlap_near_one_for_heavy_mass(mini_collision):
    run = mini_collision.runs[1e4]
    extraction = fs.extract_relative_state(run["exact"].final, run["free_cm"])
    assert extraction.overlap_weight >= 0.999


def test_extract_requires_the_packet_factor(lifted):
    _, phi_int, psi_s, params, grid_cm = lifted
    phi_cm = make_gaussian(grid_cm, params, "A_cm")
    with pytest.raises(ValidationError, match="A_cm"):
        fs.extract_relative_state(tensor_product([phi_int, psi_s]), phi_cm)


def test_extract_vanishing_overlap_raises(lifted):
    psi, _, _, params, grid_cm = lifted
    # a packet orthogonal in momentum to the composite's center-of-mass part
    off = make_gaussian(
        grid_cm, fs.GaussianParams(r0=0.0, p0=40.0, sigma=0.2, mass=100.0), "A_cm"
    )
    with pytest.raises(PropagationError, match="overlap"):
        fs.extract_relative_state(psi, off)


def test_transform_product_gives_single_branch():
    u = level_state("A_int", [1.0, 1.0j])
    grid = fs.Grid(32, -8.0, 8.0)
    v = make_gaussian(grid, fs.GaussianParams(r0=0.0, p0=0.0, sigma=1.5, mass=1.0), "S")
    psi = tensor_product([u, v])
    result = fs.transform_to_intrinsic(psi, fs.Bipartition(["S"], ["A_int"]))
    assert result.rank == 1
    assert result.probabilities()[0] == pytest.approx(1.0, abs=1e-12)
    branch = tensor_product([result.left_states[0], result.right_states[0]])
    assert abs(branch.norm - 1.0) <= 1e-10


def test_transform_bell_gives_two_degenerate_branches():
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    bell = StateVector(space, np.eye(2) / math.sqrt(2))
    result = fs.transform_to_intrinsic(bell, fs.Bipartition(["L"], ["R"]))
    probs = result.probabilities()
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
    assert result.degenerate_groups == [[0, 1]]


def test_transform_sampled_mode_is_deterministic():
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    psi = StateVector(space, np.diag([math.sqrt(0.3), math.sqrt(0.7)]))
    cut = fs.Bipartition(["L"], ["R"])
    draws = []
    for _ in range(2):
        result = fs.transform_to_intrinsic(psi, cut)
        idx = fs.BranchSampler(7).draw(result)
        draws.append(
            (idx, tensor_product([result.left_states[idx], result.right_states[idx]]))
        )
    (idx1, branch1), (idx2, branch2) = draws
    assert idx1 == idx2
    assert np.allclose(branch1.amplitudes, branch2.amplitudes)
    res = fs.schmidt_decompose(branch1, cut)
    assert res.rank == 1


def test_branch_probabilities_match_reduced_density(mini_collision):
    run = mini_collision.runs[1e3]
    extraction = fs.extract_relative_state(run["exact"].final, run["free_cm"])
    result = fs.transform_to_intrinsic(extraction.state, fs.Bipartition(["S"], ["A_int"]))
    rho = fs.reduced_density_matrix(extraction.state, ["A_int"])
    eigs = np.sort(rho.eigenvalues())[::-1]
    probs = result.probabilities()
    assert np.max(np.abs(probs - eigs[: len(probs)])) <= 1e-8


def test_ensemble_probabilities_sum_to_one(mini_collision):
    run = mini_collision.runs[1e2]
    extraction = fs.extract_relative_state(run["exact"].final, run["free_cm"])
    result = fs.transform_to_intrinsic(extraction.state, fs.Bipartition(["S"], ["A_int"]))
    assert abs(float(np.sum(result.probabilities())) - 1.0) <= 1e-10
    for left, right in zip(result.left_states, result.right_states):
        assert abs(tensor_product([left, right]).norm - 1.0) <= 1e-10


def test_mixed_density_single_branch_is_pure():
    u = level_state("A_int", [1.0, 1.0j])
    grid = fs.Grid(32, -8.0, 8.0)
    v = make_gaussian(grid, fs.GaussianParams(r0=0.0, p0=0.0, sigma=1.5, mass=1.0), "S")
    result = fs.transform_to_intrinsic(
        tensor_product([u, v]), fs.Bipartition(["S"], ["A_int"])
    )
    rho = fs.mixed_density_matrix(result, ["S"])
    assert purity(rho) == pytest.approx(1.0, abs=1e-10)
    assert rho.trace == pytest.approx(1.0, abs=1e-10)


def test_mixed_density_two_orthogonal_branches():
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    bell = StateVector(space, np.eye(2) / math.sqrt(2))
    result = fs.transform_to_intrinsic(bell, fs.Bipartition(["L"], ["R"]))
    rho = fs.mixed_density_matrix(result, ["L"])
    assert np.allclose(rho.eigenvalues(), [0.5, 0.5], atol=1e-12)


def test_mixed_density_matches_naive_sum():
    rng = np.random.default_rng(17)

    def orthonormal_columns():
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        return np.linalg.qr(z)[0]

    u, v = orthonormal_columns(), orthonormal_columns()
    probs = np.array([0.5, 0.3, 0.2])
    space = Space((Factor.level("L", 3), Factor.level("R", 3)))
    psi = StateVector(space, (u * np.sqrt(probs)) @ v.T)
    rho_ref = np.zeros((3, 3), dtype=complex)
    for j, p in enumerate(probs):
        rho_ref += p * np.outer(u[:, j], u[:, j].conj())
    result = fs.transform_to_intrinsic(psi, fs.Bipartition(["L"], ["R"]))
    rho = fs.mixed_density_matrix(result, ["L"])
    assert np.max(np.abs(rho.matrix - rho_ref)) <= 1e-12


def test_mixed_density_rejects_keep_outside_cut():
    grid = fs.Grid(8, -4.0, 4.0)
    space = Space(
        (Factor.coordinate("x", grid), Factor.level("q", 2), Factor.level("r", 2))
    )
    psi = random_state(space, 57)
    result = fs.transform_to_intrinsic(psi, fs.Bipartition(["x"], ["q", "r"]))
    rho = fs.mixed_density_matrix(result, ["r", "q"])
    assert rho.labels == ("q", "r")
    assert fs.trace_distance(rho, fs.reduced_density_matrix(psi, ["q", "r"])) <= 1e-10
    for keep in (["q"], ["x", "q"], ["x", "q", "r"], [], ["z"]):
        with pytest.raises(ValidationError, match="not a block of the cut"):
            fs.mixed_density_matrix(result, keep)


def test_reduced_density_of_product_is_projector():
    u = level_state("L", [0.6, 0.8])
    v = level_state("R", [1.0, 1.0j])
    rho = fs.reduced_density_matrix(tensor_product([u, v]), ["L"])
    vec = u.amplitudes
    assert np.max(np.abs(rho.matrix - np.outer(vec, vec.conj()))) <= 1e-12


def test_reduced_density_of_bell_is_maximally_mixed():
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    bell = StateVector(space, np.eye(2) / math.sqrt(2))
    rho = fs.reduced_density_matrix(bell, ["L"])
    assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) <= 1e-12


@pytest.mark.parametrize("keep", [["x"], ["q"], ["x", "q"]])
def test_reduced_density_matches_brute_force(keep):
    grid = fs.Grid(8, -4.0, 4.0)
    space = Space(
        (Factor.coordinate("x", grid), Factor.level("q", 2), Factor.level("r", 2))
    )
    psi = random_state(space, 55)
    rho = fs.reduced_density_matrix(psi, keep)
    ref = brute_reduced_density(psi, keep)
    assert np.max(np.abs(rho.matrix - ref)) <= 1e-12
    assert rho.trace == pytest.approx(1.0, abs=1e-10)
    assert rho.hermiticity_error <= 1e-10
    assert rho.eigenvalues().min() >= -1e-10


def test_reduced_density_rejects_full_keep():
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    psi = random_state(space, 56)
    for keep in (["L", "R"], ["L", "Z"]):
        with pytest.raises(ValidationError):
            fs.reduced_density_matrix(psi, keep)


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_mixed_equals_reduced_for_full_ensemble(seed):
    grid = fs.Grid(16, -4.0, 4.0)
    space = Space((Factor.coordinate("x", grid), Factor.level("q", 3)))
    psi = random_state(space, seed)
    result = fs.transform_to_intrinsic(psi, fs.Bipartition(["x"], ["q"]))
    mixed = fs.mixed_density_matrix(result, ["x"])
    reduced = fs.reduced_density_matrix(psi, ["x"])
    assert fs.trace_distance(mixed, reduced) <= 1e-10


def test_trace_distance_extremes():
    u = level_state("L", [1.0, 0.0])
    v = level_state("L", [0.0, 1.0])
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    rho_u = fs.reduced_density_matrix(tensor_product([u, level_state("R", [1, 0])]), ["L"])
    rho_v = fs.reduced_density_matrix(tensor_product([v, level_state("R", [1, 0])]), ["L"])
    assert fs.trace_distance(rho_u, rho_u) == pytest.approx(0.0, abs=1e-12)
    assert fs.trace_distance(rho_u, rho_v) == pytest.approx(1.0, abs=1e-12)
    rng_state = random_state(space, 77)
    with pytest.raises(ValidationError):
        fs.trace_distance(rho_u, fs.reduced_density_matrix(rng_state, ["R"]))


def density_from_factor(labels, factor: np.ndarray) -> fs.DensityMatrix:
    """rho = V diag(w) V^H with random weights w, scaled to unit trace, as
    the factor V sqrt(w)."""
    weights = np.random.default_rng(factor.shape[1]).uniform(0.5, 1.5, factor.shape[1])
    weights /= np.sum(weights * np.sum(np.abs(factor) ** 2, axis=0))
    return fs.DensityMatrix(labels, factor * np.sqrt(weights))


@pytest.mark.parametrize("shape, rank", [((512, 9), 9), ((64, 64), 64),
                                         ((16, 300), 16), ((128, 40), 5)])
def test_eigenvalues_match_dense_on_the_smaller_side(monkeypatch, shape, rank):
    """Tall, square, wide and rank-deficient factors: the spectrum equals the
    dense eigensolve of F F^H within 1e-14, and no matrix larger than
    min(n, r) is solved."""
    rng = np.random.default_rng(rank)
    n, r = shape
    factor = ((rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
              @ (rng.standard_normal((rank, r)) + 1j * rng.standard_normal((rank, r))))
    rho = density_from_factor(("S",), factor)
    want = np.linalg.eigvalsh(rho.matrix)[::-1]
    solved, eigvalsh = [], np.linalg.eigvalsh

    def spy(m):
        solved.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = rho.eigenvalues()
    assert solved == [(min(n, r),) * 2]
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.all(np.diff(got) <= 0.0)


def collision_rho_mixed(monkeypatch) -> fs.DensityMatrix:
    """The collision's rho_mixed on the fast config (the shipped grids: 512 x
    512), as `_collision_point` builds it."""
    from framesim.scenarios import ScenarioConfig, run_collision

    built, mixed = [], fs.scenarios.mixed_density_matrix

    def spy(*args):
        built.append(mixed(*args))
        return built[-1]

    monkeypatch.setattr("framesim.scenarios.mixed_density_matrix", spy)
    run_collision(ScenarioConfig.from_dict(fast_collision_dict()))
    (rho,) = built
    return rho


@pytest.mark.parametrize("case", ["random-64", "random-199", "random-512", "collision"])
def test_hermiticity_error_by_row_blocks_is_exact(monkeypatch, case):
    """The row-block maximum equals max |M - M^H| of the whole matrix bit
    for bit: on non-Hermitian random matrices of one block, of a size that
    is no multiple of the block, and of the collision's size, and on the
    collision's rho_mixed."""
    if case == "collision":
        rho = collision_rho_mixed(monkeypatch)
    else:
        n = int(case.split("-")[1])
        rng = np.random.default_rng(n)
        rho = density_from_factor(("S",), np.ones((n, 1)))
        rho.matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = rho.matrix
    assert rho.hermiticity_error == float(np.max(np.abs(m - m.conj().T)))
    assert (rho.hermiticity_error > 0.5) == (case != "collision")


@pytest.mark.parametrize("ranks", [(1, 1), (2, 2), (2, 256), (300, 300)])
def test_trace_distance_matches_dense_oracle(ranks):
    """The distance taken in the span of the two factors equals the dense
    eigensolve of the 512 x 512 difference within 1e-13; identical inputs
    give at most 1e-14."""
    rng = np.random.default_rng(sum(ranks))
    a, b = (density_from_factor(("S",), rng.standard_normal((512, r))
                                + 1j * rng.standard_normal((512, r))) for r in ranks)
    want = dense_trace_distance(a.matrix, b.matrix)
    assert abs(fs.trace_distance(a, b) - want) <= 1e-13
    assert abs(fs.trace_distance(b, a) - want) <= 1e-13
    for rho in (a, b):
        assert fs.trace_distance(rho, rho) <= 1e-14


def test_trace_distance_of_orthogonal_pure_states_is_one():
    rng = np.random.default_rng(7)
    u, v = np.linalg.qr(rng.standard_normal((512, 2)) + 1j * rng.standard_normal((512, 2)))[0].T
    a, b = (density_from_factor(("S",), w[:, None]) for w in (u, v))
    assert fs.trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_rejects_incomparable_matrices():
    rho = density_from_factor(("S",), np.ones((4, 1)))
    for other in (density_from_factor(("x",), np.ones((4, 1))),
                  density_from_factor(("S",), np.ones((8, 1)))):
        with pytest.raises(ValidationError):
            fs.trace_distance(rho, other)


def test_trace_distance_between_mixed_and_full_reduced_shrinks(mini_collision):
    distances = []
    for mass in mini_collision.masses:
        run = mini_collision.runs[mass]
        extraction = fs.extract_relative_state(
            run["exact"].final, run["free_cm"]
        )
        result = fs.transform_to_intrinsic(
            extraction.state, fs.Bipartition(["S"], ["A_int"])
        )
        mixed = fs.mixed_density_matrix(result, ["S"])
        reduced = fs.reduced_density_matrix(run["exact"].final, ["S"])
        distances.append(fs.trace_distance(mixed, reduced))
    assert distances[0] >= distances[1] >= distances[2]
    assert distances[2] < 1e-2
