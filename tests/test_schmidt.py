from __future__ import annotations

import math

import numpy as np
import pytest

import framesim as fs
from framesim.errors import ValidationError
from framesim.hilbert import (
    Factor,
    Space,
    StateVector,
    level_state,
    reorder_factors,
    superpose,
    tensor_product,
)

from oracles import binomial_3sigma, brute_reduced_density


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
    b = fs.schmidt_decompose(psi, cut.swapped())
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
