from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import framesim as fs
from framesim.errors import ValidationError
from framesim.hilbert import (
    Factor,
    Space,
    StateVector,
    level_state,
    superpose,
    tensor_product,
)

from oracles import binomial_3sigma, brute_reduced_density, reorder_factors, swapped


def random_state(space: Space, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(space.dims) + 1j * rng.standard_normal(space.dims)
    return StateVector(space, amps).normalized()


def bell_state() -> StateVector:
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    return StateVector(space, np.eye(2) / math.sqrt(2))


def weighted_state(seed: int) -> tuple[StateVector, fs.Bipartition]:
    grid = fs.Grid(16, -4.0, 4.0)
    space = Space((Factor.coordinate("x", grid), Factor.level("q", 3)))
    return random_state(space, seed), fs.Bipartition(["x"], ["q"])


def test_product_state_is_rank_one():
    u = level_state("L", [0.6, 0.8j])
    v = level_state("R", [1.0, -1.0])
    res = fs.schmidt_decompose(tensor_product([u, v]), fs.Bipartition(["L"], ["R"]))
    assert res.rank == 1
    assert res.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(fs.inner_product(res.left_states[0], u)) == pytest.approx(1.0, abs=1e-12)


def test_bell_state_coefficients_and_degeneracy():
    res = fs.schmidt_decompose(bell_state(), fs.Bipartition(["L"], ["R"]))
    assert np.allclose(res.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert res.degenerate_groups == [[0, 1]]


def test_coefficients_match_partial_trace_oracle():
    space = Space((Factor.level("L", 4), Factor.level("R", 3)))
    psi = random_state(space, 21)
    res = fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R"]), trunc_tol=0.0)
    rho = brute_reduced_density(psi, ["L"])
    eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
    coeffs = np.sqrt(np.maximum(eigs, 0.0))
    assert np.max(np.abs(coeffs[: res.rank] - res.coefficients)) <= 1e-10


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_reconstruction_from_branches(seed):
    psi, cut = weighted_state(seed)
    res = fs.schmidt_decompose(psi, cut, trunc_tol=0.0)
    terms = [
        (res.coefficients[j], tensor_product([res.left_states[j], res.right_states[j]]))
        for j in range(res.rank)
    ]
    recon = reorder_factors(superpose(terms), psi.space.labels)
    err = np.sqrt(
        np.sum(np.abs(recon.amplitudes - psi.amplitudes) ** 2) * psi.space.volume_element
    )
    assert err <= 1e-10


def test_factor_states_are_orthonormal_under_quadrature():
    psi, cut = weighted_state(41)
    res = fs.schmidt_decompose(psi, cut, trunc_tol=0.0)
    for states in (res.left_states, res.right_states):
        for i in range(len(states)):
            for j in range(len(states)):
                expected = 1.0 if i == j else 0.0
                assert abs(fs.inner_product(states[i], states[j]) - expected) <= 1e-10


def test_cut_symmetry():
    psi, cut = weighted_state(51)
    a = fs.schmidt_decompose(psi, cut)
    b = fs.schmidt_decompose(psi, swapped(cut))
    n = min(a.rank, b.rank)
    assert np.max(np.abs(a.coefficients[:n] - b.coefficients[:n])) <= 1e-12


def test_local_unitary_invariance():
    rng = np.random.default_rng(61)
    space = Space((Factor.level("L", 4), Factor.level("R", 4)))
    psi = random_state(space, 62)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(m)
    rotated = StateVector(space, np.einsum("ij,jk->ik", q, psi.amplitudes))
    a = fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R"]), trunc_tol=0.0)
    b = fs.schmidt_decompose(rotated, fs.Bipartition(["L"], ["R"]), trunc_tol=0.0)
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-10


def test_truncation_reports_dropped_weight():
    c = [math.sqrt(0.99), math.sqrt(0.01)]
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    psi = StateVector(space, np.diag(c))
    res = fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R"]), trunc_tol=0.2)
    assert res.rank == 1
    assert res.truncation_residual == pytest.approx(0.01, abs=1e-12)


def test_invalid_bipartitions_are_rejected():
    psi = bell_state()
    with pytest.raises(ValidationError):
        fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["L"]))
    with pytest.raises(ValidationError):
        fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R", "X"]))
    with pytest.raises(ValidationError):
        fs.schmidt_decompose(psi, fs.Bipartition([], ["L", "R"]))


def test_unnormalized_input_is_rejected():
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    psi = StateVector(space, np.eye(2))
    with pytest.raises(ValidationError, match="not normalized"):
        fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R"]))


def test_phase_convention_is_deterministic():
    psi, cut = weighted_state(71)
    a = fs.schmidt_decompose(psi, cut)
    b = fs.schmidt_decompose(psi, cut)
    for u, v in zip(a.left_states, b.left_states):
        assert np.allclose(u.amplitudes, v.amplitudes)
        pivot = u.amplitudes.ravel()[np.argmax(np.abs(u.amplitudes))]
        assert abs(pivot.imag) <= 1e-12
        assert pivot.real > 0


def test_sampler_single_branch_always_zero():
    u = level_state("L", [1.0, 0.0])
    v = level_state("R", [0.0, 1.0])
    res = fs.schmidt_decompose(tensor_product([u, v]), fs.Bipartition(["L"], ["R"]))
    assert all(fs.BranchSampler(seed).draw(res) == 0 for seed in range(20))


def test_sampler_frequencies_match_born_weights():
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    psi = StateVector(space, np.diag([math.sqrt(0.3), math.sqrt(0.7)]))
    res = fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R"]))
    draws = fs.BranchSampler(1234).draw_many(res, 10_000)
    # descending coefficients put the 0.7 branch first
    freq_small = float(np.mean(draws == 1))
    assert abs(freq_small - 0.3) <= binomial_3sigma(0.3, 10_000)


def test_sampler_is_deterministic_and_streamed():
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    psi = StateVector(space, np.diag([math.sqrt(0.3), math.sqrt(0.7)]))
    res = fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R"]))
    a = fs.BranchSampler(99).draw_many(res, 1000)
    b = fs.BranchSampler(99).draw_many(res, 1000)
    assert np.array_equal(a, b)
    # drawing one at a time consumes the same stream
    s = fs.BranchSampler(99)
    singles = [s.draw(res) for _ in range(50)]
    assert singles == list(a[:50])


def test_entropy_values():
    u = level_state("L", [1.0, 0.0])
    v = level_state("R", [0.0, 1.0])
    rank1 = fs.schmidt_decompose(tensor_product([u, v]), fs.Bipartition(["L"], ["R"]))
    assert fs.entanglement_entropy(rank1) == pytest.approx(0.0, abs=1e-12)
    bell = fs.schmidt_decompose(bell_state(), fs.Bipartition(["L"], ["R"]))
    assert fs.entanglement_entropy(bell) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_matches_partial_trace_oracle():
    space = Space((Factor.level("L", 4), Factor.level("R", 4)))
    psi = random_state(space, 81)
    res = fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R"]), trunc_tol=0.0)
    eigs = np.linalg.eigvalsh(brute_reduced_density(psi, ["L"]))
    eigs = eigs[eigs > 1e-14]
    oracle = float(-np.sum(eigs * np.log(eigs)))
    assert fs.entanglement_entropy(res) == pytest.approx(oracle, abs=1e-10)


def test_near_degenerate_coefficients_are_grouped():
    c = np.sqrt(np.array([0.5, 0.5 - 1e-10]))
    c = c / np.linalg.norm(c)
    space = Space((Factor.level("L", 2), Factor.level("R", 2)))
    psi = StateVector(space, np.diag(c))
    res = fs.schmidt_decompose(psi, fs.Bipartition(["L"], ["R"]))
    assert res.degenerate_groups == [[0, 1]]


# ---------------------------------------------------------------------------
# the sketched split
# ---------------------------------------------------------------------------

def matrix_state(matrix: np.ndarray) -> tuple[StateVector, fs.Bipartition]:
    """The normalized state whose coefficient matrix is `matrix`."""
    space = Space((Factor.level("L", matrix.shape[0]), Factor.level("R", matrix.shape[1])))
    return StateVector(space, matrix).normalized(), fs.Bipartition(["L"], ["R"])


def with_singular_values(s, shape=(256, 512), seed=91) -> np.ndarray:
    """A complex matrix of the given shape with singular values s."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((n, len(s), 2)) @ [1.0, 1j])[0] for n in shape)
    return (u * np.asarray(s)) @ v.conj().T


def direct(psi, cut):
    """The decomposition from the direct SVD of the whole matrix."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("framesim.schmidt._sketched_range", lambda matrix, tol: (None, matrix, 0.0))
        return fs.schmidt_decompose(psi, cut)


def assert_matches_svd(res, psi, cut):
    """The same rank as numpy's SVD of the coefficient matrix, coefficients
    within 1e-15 and truncation residual within 1e-28."""
    s = np.linalg.svd(fs.schmidt.coefficient_matrix(psi, cut), compute_uv=False)
    keep = s >= fs.schmidt.DEFAULT_TRUNC_TOL
    assert res.rank == np.count_nonzero(keep)
    assert np.max(np.abs(res.coefficients - s[keep])) <= 1e-15
    assert abs(res.truncation_residual - float(np.sum(s[~keep] ** 2))) <= 1e-28


def assert_bit_equal(a, b):
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.truncation_residual == b.truncation_residual
    assert a.degenerate_groups == b.degenerate_groups
    for x, y in zip(a.left_states + a.right_states, b.left_states + b.right_states, strict=True):
        assert np.array_equal(x.amplitudes, y.amplitudes)


def test_sketched_split_of_the_shipped_jacobi_planes(monkeypatch, collision_config):
    """Each shipped mass's (R, r) plane, 256 x 512 of rank 9, 7 and 5, is
    split on a 32-column sketch and matches the direct SVD."""
    planes, split = [], fs.scenarios.schmidt_decompose

    def spy(psi, cut):
        planes.append((psi, cut))
        return split(psi, cut)

    monkeypatch.setattr("framesim.scenarios.schmidt_decompose", spy)
    phi_int = fs.level_state("A_int", collision_config.internal.state)
    ranks = [fs.scenarios._jacobi_split(collision_config, mass, phi_int).rank
             for mass in collision_config.center_of_mass.masses]
    assert ranks == [9, 7, 5]
    for psi, cut in planes:
        matrix = fs.schmidt.coefficient_matrix(psi, cut)
        assert matrix.shape == (256, 512)
        assert fs.schmidt._sketched_range(matrix, 1e-14)[0].shape[1] == 32
        assert_matches_svd(split(psi, cut), psi, cut)


def test_sketched_split_of_decaying_singular_values():
    """Singular values 10^-k, k = 0 ... 15, normalized: the four below the
    truncation tolerance are dropped as by the direct SVD, and a second
    call gives the same bits."""
    psi, cut = matrix_state(with_singular_values(10.0 ** -np.arange(16)))
    res = fs.schmidt_decompose(psi, cut)
    assert res.rank == 12
    assert_matches_svd(res, psi, cut)
    assert_bit_equal(res, fs.schmidt_decompose(psi, cut))


def test_sketch_widens_until_it_holds_the_range():
    """48 singular values of 1e-10 beside nine larger ones do not fit 32
    columns; the sketch doubles to 64 and still matches."""
    s = np.concatenate([10.0 ** -np.arange(9), np.full(48, 1e-10)])
    psi, cut = matrix_state(with_singular_values(s))
    matrix = fs.schmidt.coefficient_matrix(psi, cut)
    assert fs.schmidt._sketched_range(matrix, 1e-14)[0].shape[1] == 64
    assert_matches_svd(fs.schmidt_decompose(psi, cut), psi, cut)


@pytest.mark.parametrize("shape", [(256, 512), (128, 64), (512, 2)],
                         ids=["full-rank", "measurement", "branches"])
def test_split_without_a_certified_sketch_is_the_direct_svd(shape):
    """A full-rank matrix, and any too small for a sketch to pay, such as
    the measurement's 128 x 64 and the collision's 512 x 2 branch splits,
    take the direct SVD bit for bit."""
    rng = np.random.default_rng(shape[1])
    psi, cut = matrix_state(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert fs.schmidt._sketched_range(fs.schmidt.coefficient_matrix(psi, cut), 1e-14)[0] is None
    assert_bit_equal(fs.schmidt_decompose(psi, cut), direct(psi, cut))


def test_sketch_loads_no_numpy_random():
    """The sketch draws from the standard library's generator: importing
    numpy.random alone raised a collision run's peak RSS by 2 MB."""
    code = ("import sys, numpy as np; from framesim import schmidt; "
            "q, _, _ = schmidt._sketched_range(np.ones((256, 512)) / 362.0, 1e-14); "
            "print(q.shape[1], 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "32 False\n"
